//! `exact-ctrl` and `exact-faulty`: one closed-loop client sends exact 1-NN
//! queries through a 2-shard `QueryService` driven by 2 worker threads.

use crate::common::{
    evenly, fingerprint, judge_all, ms, store_traffic, summarize, Metrics, TAIL_PCT,
};
use crate::serving::{
    bench_engine, build_service, decompose, put_service_layers, set_up, Built, PassStart,
    PassTotals,
};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};
use hydra_bench::registry::MethodKind;
use hydra_core::{Error, Query, RetryPolicy};
use hydra_data::{QueryWorkload, WorkloadSpec};
use hydra_serve::{ResilienceConfig, ServeAnswer, ServeConfig};
use hydra_storage::{FaultConfig, FaultPlan};
use std::collections::HashSet;
use std::time::{Duration, Instant};

pub struct Spec {
    pub method: MethodKind,
    /// Per-shard fault injection plus retries (`exact-faulty`).
    pub faults: bool,
}

/// One request of a pass.
struct Record {
    query: usize,
    latency: Duration,
    result: Result<ServeAnswer, Error>,
    /// Store pages read by attempts that did not answer.
    wasted_pages: u64,
}

struct Pass {
    records: Vec<Record>,
    totals: PassTotals,
}

/// Distinct controlled (`*-Ctrl`) queries: duplicates would hit the cache.
fn query_pool(ctx: &Ctx, count: usize) -> Vec<Query> {
    let spec = WorkloadSpec::controlled(ctx.seed).with_num_queries(count);
    let workload = QueryWorkload::generate("Synth-Ctrl", ctx.data, &spec);
    let mut seen = HashSet::new();
    workload
        .queries()
        .iter()
        .map(|s| Query::nearest_neighbor(s.clone()))
        .filter(|q| seen.insert(q.canonical_hash()))
        .collect()
}

fn config(ctx: &Ctx, spec: &Spec) -> ServeConfig {
    let resilience = if spec.faults {
        let faults = FaultConfig::standard();
        ResilienceConfig {
            shard_faults: FaultPlan::seeded(ctx.fault_seed(), faults),
            // One attempt more than any planned transient needs.
            retry: Some(RetryPolicy::new(faults.max_transient_attempts + 1, 4)),
            ..Default::default()
        }
    } else {
        ResilienceConfig::default()
    };
    ServeConfig {
        shards: 2,
        worker_threads: 2,
        resilience,
        ..Default::default()
    }
}

/// Sends `queries` in order, each after the previous one completed, until
/// `seconds` have passed and at least `min_requests` were sent.
fn run_pass(built: &Built, queries: &[Query], ctx: &Ctx, tracer: &mut Tracer) -> Pass {
    let service = &built.service;
    let mut records = Vec::new();
    let start = PassStart::now(built);
    let clock = Instant::now();
    let seconds = Duration::from_secs_f64(ctx.seconds);
    while records.len() < queries.len()
        && (records.len() < ctx.sizes.min_requests || clock.elapsed() < seconds)
    {
        let i = records.len();
        let query = queries[i].clone();
        let (total0, useful0) = store_traffic(&built.shards.ios);
        let sent = Instant::now();
        let result = if tracer.on() {
            let request = tracer.open("request", None, i as u64);
            let submit = tracer.open("serve.submit", request, i as u64);
            let handle = service.submit(query);
            tracer.close(submit);
            let result = handle.and_then(|h| {
                let drive = tracer.open("serve.drive", request, i as u64);
                service.drive();
                tracer.close(drive);
                h.try_take()
                    .unwrap_or_else(|| Err(Error::Internal("request did not finish".into())))
            });
            tracer.close(request);
            result
        } else {
            service.answer(query)
        };
        let latency = sent.elapsed();
        let (total1, useful1) = store_traffic(&built.shards.ios);
        let wasted_pages =
            total1.since(&total0).total_pages() - useful1.since(&useful0).total_pages();
        records.push(Record {
            query: i,
            latency,
            result,
            wasted_pages,
        });
    }
    Pass {
        records,
        totals: start.finish(built),
    }
}

/// Oracle-checks every answered request of a pass. Returns the per-request
/// error ratios (answered requests, in order) and appends problems.
fn verify(pass: &Pass, queries: &[Query], ctx: &Ctx, errors: &mut Vec<String>) -> Vec<f64> {
    let answered: Vec<(&[f32], &hydra_core::AnswerSet)> = pass
        .records
        .iter()
        .filter_map(|r| {
            r.result
                .as_ref()
                .ok()
                .map(|a| (queries[r.query].values(), &a.answers))
        })
        .collect();
    let verdicts = judge_all(ctx.data, &answered, ctx.nproc);
    for (i, v) in verdicts.iter().enumerate() {
        if !v.exact || !v.consistent {
            errors.push(format!(
                "answer {i} disagrees with the oracle (ratio {}, distance consistent: {})",
                v.ratio, v.consistent
            ));
        }
    }
    for r in &pass.records {
        if let Ok(a) = &r.result {
            if a.from_cache {
                errors.push(format!(
                    "request {} hit the cache on distinct queries",
                    r.query
                ));
            }
        }
    }
    verdicts.iter().map(|v| v.ratio).collect()
}

/// The end-to-end metrics of one pass.
fn end_to_end(pass: &Pass, ratios: &[f64], ctx: &Ctx, m: &mut Metrics, notes: &mut Vec<String>) {
    let lat: Vec<f64> = pass.records.iter().map(|r| ms(r.latency)).collect();
    let s = summarize(&lat);
    let throughput = pass.records.iter().filter(|r| r.result.is_ok()).count() as f64
        / pass.totals.elapsed.as_secs_f64();
    // Deterministic counts come from the first `min_requests` requests,
    // which every run sends.
    let head = &pass.records[..ctx.sizes.min_requests.min(pass.records.len())];
    let answered: Vec<&ServeAnswer> = head.iter().filter_map(|r| r.result.as_ref().ok()).collect();
    let pages: u64 = answered
        .iter()
        .map(|a| a.stats.io_snapshot().total_pages())
        .sum::<u64>()
        + head.iter().map(|r| r.wasted_pages).sum::<u64>();
    let head_ratios = &ratios[..answered.len().min(ratios.len())];
    m.put("throughput_qps", throughput, "1/s");
    m.put("sustained_qps", throughput, "1/s");
    m.put("latency_p50_ms", s.p50, "ms");
    m.put("latency_tail_ms", s.tail, "ms");
    m.put(
        "error_ratio",
        head_ratios.iter().sum::<f64>() / head_ratios.len().max(1) as f64,
        "ratio",
    );
    m.put(
        "read_pages_per_query",
        pages as f64 / answered.len().max(1) as f64,
        "count",
    );
    notes.push(format!(
        "closed loop, 1 client: {} requests in {:.3} s; tail = p{TAIL_PCT} ({} samples); \
         sustained_qps is the closed-loop throughput; error_ratio and \
         read_pages_per_query cover the first {} requests ({} failed)",
        pass.records.len(),
        pass.totals.elapsed.as_secs_f64(),
        s.count,
        head.len(),
        head.len() - answered.len()
    ));
}

pub fn run(ctx: &Ctx, spec: Spec, mut out: Outcome) -> Outcome {
    out.config = format!(
        r#""method": "{}", "shards": 2, "worker_threads": 2, "cache_capacity": {}, "queries": "Synth-Ctrl (controlled noise)", "loop": "closed, 1 client", "fault_seed": {}, "retry_attempts": {}"#,
        spec.method.name(),
        ServeConfig::default().cache_capacity,
        if spec.faults {
            ctx.fault_seed().to_string()
        } else {
            "null".into()
        },
        if spec.faults {
            FaultConfig::standard().max_transient_attempts + 1
        } else {
            1
        },
    );
    let pool = ctx.sizes.min_requests + (ctx.seconds * ctx.sizes.closed_pool_per_s) as usize;
    let queries = query_pool(ctx, pool);
    let config = config(ctx, &spec);
    if !ctx.trace {
        let (setup_s, built) = set_up(ctx.sizes.setups, || {
            let b = build_service(ctx.data, spec.method, config.clone());
            let time = b.setup;
            (b, time)
        });
        let pass = run_pass(&built, &queries, ctx, &mut Tracer::new(false));
        let ratios = verify(&pass, &queries, ctx, &mut out.errors);
        out.e2e.put("setup_s", setup_s, "s");
        end_to_end(&pass, &ratios, ctx, &mut out.e2e, &mut out.notes);
        out.count(&ok_flags(&pass), spec.faults);
        return out;
    }
    // Traced run: an untraced pass, then a traced pass on a fresh service
    // over the same queries, then the decomposition pass.
    let plain = {
        let built = build_service(ctx.data, spec.method, config.clone());
        run_pass(&built, &queries, ctx, &mut Tracer::new(false))
    };
    let built = build_service(ctx.data, spec.method, config);
    let mut engine = bench_engine(spec.method, &built.shards.stores[0]);
    let tracer = out.tracer.as_mut().expect("traced runs carry a tracer");
    let pass = run_pass(&built, &queries, ctx, tracer);
    let mut plain_m = Metrics::default();
    let mut traced_m = Metrics::default();
    let plain_ratios = verify(&plain, &queries, ctx, &mut out.errors);
    let ratios = verify(&pass, &queries, ctx, &mut out.errors);
    end_to_end(&plain, &plain_ratios, ctx, &mut plain_m, &mut Vec::new());
    end_to_end(&pass, &ratios, ctx, &mut traced_m, &mut out.notes);

    let answered: Vec<&Record> = pass.records.iter().filter(|r| r.result.is_ok()).collect();
    let sample: Vec<(u64, &Query, String)> = evenly(&answered, ctx.sizes.decompose)
        .map(|r| {
            let a = r.result.as_ref().expect("filtered to answered");
            (
                r.query as u64,
                &queries[r.query],
                fingerprint(&a.answers, a.guarantee),
            )
        })
        .collect();
    let tracer = out.tracer.as_mut().expect("traced runs carry a tracer");
    let parts = decompose(
        &built.service,
        &mut engine,
        &sample,
        tracer,
        &mut out.errors,
    );
    let cold: Vec<(Duration, &ServeAnswer)> = answered
        .iter()
        .map(|r| (r.latency, r.result.as_ref().expect("answered")))
        .filter(|(_, a)| !a.from_cache)
        .collect();
    let tracer = out.tracer.as_ref().expect("traced runs carry a tracer");
    put_service_layers(
        &mut out.layer,
        ctx,
        &built,
        &pass.totals,
        pass.records.len(),
        &cold,
        &parts,
        tracer,
        &[],
    );
    out.put_overhead(&plain_m, &traced_m);
    out.na(&["engine.batch_ms", "loadgen.late_ms_tail"]);
    let mut ok = ok_flags(&plain);
    ok.extend(ok_flags(&pass));
    out.count(&ok, spec.faults);
    out
}

fn ok_flags(pass: &Pass) -> Vec<bool> {
    pass.records.iter().map(|r| r.result.is_ok()).collect()
}
