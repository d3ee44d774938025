//! `ng-hot`: open-loop ng-approximate 1-NN traffic through a 2-shard
//! iSAX2+ `QueryService` whose executor the generator thread drives.
//!
//! Requests draw from a Zipf-skewed Synth-Rand pool larger than the answer
//! cache, so part of the traffic hits and the cache evicts. The offered rate
//! steps through a fixed ladder; each request is timed from when it was due.

use crate::common::{
    evenly, fingerprint, judge_all, median, ms, summarize, Metrics, Summary, TAIL_PCT,
};
use crate::serving::{
    bench_engine, build_service, decompose, put_service_layers, set_up, Built, PassStart,
    PassTotals,
};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};
use hydra_bench::registry::MethodKind;
use hydra_core::{AnswerMode, Error, Query};
use hydra_data::{QueryWorkload, WorkloadSpec};
use hydra_serve::{RequestHandle, ServeAnswer, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const METHOD: MethodKind = MethodKind::Isax2Plus;
/// Zipf exponent of the pool draw.
const ZIPF_S: f64 = 0.9;

/// One fixed offered rate of the ladder.
struct Rung {
    rate: f64,
    requests: usize,
    completed: usize,
    failed: usize,
    latency: Summary,
    /// Completions within the latency limit per second, first arrival to
    /// last completion.
    goodput: f64,
    /// Completions per second, first arrival to last completion.
    throughput: f64,
    /// Requests in flight at the last arrival.
    backlog: usize,
    passes: bool,
}

/// One served (or failed) request.
struct Record {
    pool: usize,
    latency: Duration,
    result: Result<ServeAnswer, Error>,
}

struct Pass {
    rungs: Vec<Rung>,
    warm: Vec<(usize, Result<ServeAnswer, Error>)>,
    records: Vec<Record>,
    late_ms: Vec<f64>,
    totals: PassTotals,
}

/// Seeded Zipf draws over `0..n`: rank `r` has weight `1 / (r + 1)^s`, and
/// ranks map to pool entries in pool order.
struct Zipf {
    cdf: Vec<f64>,
    rng: StdRng,
}

impl Zipf {
    fn new(n: usize, seed: u64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for r in 0..n {
            sum += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        Self {
            cdf,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn draw(&mut self) -> usize {
        let u: f64 = self.rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn pool(ctx: &Ctx) -> Vec<Query> {
    let spec = WorkloadSpec::random(ctx.seed).with_num_queries(ctx.sizes.ng_pool);
    QueryWorkload::generate("Synth-Rand", ctx.data, &spec)
        .queries()
        .iter()
        .map(|s| Query::nearest_neighbor(s.clone()).with_mode(AnswerMode::NgApproximate))
        .collect()
}

fn config(ctx: &Ctx) -> ServeConfig {
    ServeConfig {
        shards: 2,
        worker_threads: 1,
        cache_capacity: ctx.sizes.ng_cache,
        ..Default::default()
    }
}

fn run_pass(built: &Built, queries: &[Query], ctx: &Ctx, tracer: &mut Tracer) -> Pass {
    let service = &built.service;
    let mut draws = Zipf::new(queries.len(), ctx.seed ^ 0x21FF);
    // Warm-up, not timed: fills the cache so the ladder starts in steady
    // state.
    let warm: Vec<(usize, Result<ServeAnswer, Error>)> = (0..ctx.sizes.ng_warmup)
        .map(|_| {
            let p = draws.draw();
            (p, service.answer(queries[p].clone()))
        })
        .collect();
    let start = PassStart::now(built);
    let mut rungs = Vec::new();
    let mut records = Vec::new();
    let mut late_ms = Vec::new();
    for &(rate, share) in ctx.sizes.ng_rungs {
        let rung_time = ctx.seconds * share;
        let requests = (rate * rung_time).round().max(1.0) as usize;
        let interval = Duration::from_secs_f64(1.0 / rate);
        let first = records.len();
        let mut pending: Vec<(RequestHandle, usize, Duration, crate::trace::SpanId)> = Vec::new();
        let mut done: Vec<Option<(Duration, Result<ServeAnswer, Error>)>> =
            (0..requests).map(|_| None).collect();
        let mut pools = Vec::with_capacity(requests);
        let mut backlog = 0;
        let mut last_done = Duration::ZERO;
        let rung_start = Instant::now();
        let mut next = 0;
        loop {
            let now = rung_start.elapsed();
            let due = interval * next as u32;
            if next < requests && now >= due {
                late_ms.push(ms(now - due));
                let p = draws.draw();
                pools.push(p);
                let id = (first + next) as u64;
                let span = tracer.open("request", None, id);
                let submit = tracer.open("serve.submit", span, id);
                let handle = service.submit(queries[p].clone());
                tracer.close(submit);
                match handle {
                    Ok(h) => pending.push((h, next, due, span)),
                    Err(e) => {
                        tracer.close(span);
                        done[next] = Some((Duration::MAX, Err(e)));
                    }
                }
                next += 1;
                if next == requests {
                    backlog = service.in_flight();
                }
                continue;
            }
            let polled = if tracer.on() {
                let t0 = tracer.now();
                let polled = service.run_one();
                if polled {
                    tracer.record("serve.drive", t0, tracer.now(), None, u64::MAX);
                }
                polled
            } else {
                service.run_one()
            };
            if polled {
                pending.retain(|(h, i, due, span)| match h.try_take() {
                    Some(result) => {
                        let t = rung_start.elapsed();
                        tracer.close(*span);
                        last_done = t;
                        done[*i] = Some((t.saturating_sub(*due), result));
                        false
                    }
                    None => true,
                });
            } else if next >= requests && pending.is_empty() {
                break;
            }
        }
        let limit = ctx.sizes.ng_limit_ms;
        let mut lat = Vec::with_capacity(requests);
        let (mut completed, mut failed, mut within) = (0, 0, 0);
        for (i, slot) in done.into_iter().enumerate() {
            let (latency, result) = slot.expect("every request finished or was shed");
            if result.is_ok() {
                completed += 1;
                lat.push(ms(latency));
                if ms(latency) <= limit {
                    within += 1;
                }
            } else {
                failed += 1;
                // A shed or failed request misses any latency limit.
                lat.push(f64::INFINITY);
            }
            records.push(Record {
                pool: pools[i],
                latency,
                result,
            });
        }
        let latency = summarize(&lat);
        // A growing backlog shows as a rising latency: the median of the
        // rung's last quarter must still meet the limit.
        let growing = median(&lat[requests - requests.div_ceil(4)..]) > limit;
        let passes = failed == 0 && latency.tail <= limit && !growing;
        rungs.push(Rung {
            rate,
            requests,
            completed,
            failed,
            latency,
            goodput: within as f64 / last_done.as_secs_f64().max(1e-9),
            throughput: completed as f64 / last_done.as_secs_f64().max(1e-9),
            backlog,
            passes,
        });
    }
    Pass {
        rungs,
        warm,
        records,
        late_ms,
        totals: start.finish(built),
    }
}

/// Checks every answer against the first answer served for its pool entry
/// (cold by construction), and those against the oracle. Returns the
/// per-pool error ratios.
fn verify(
    pass: &Pass,
    queries: &[Query],
    ctx: &Ctx,
    errors: &mut Vec<String>,
) -> BTreeMap<usize, f64> {
    let mut first: BTreeMap<usize, &ServeAnswer> = BTreeMap::new();
    let served = pass
        .warm
        .iter()
        .map(|(p, r)| (*p, r))
        .chain(pass.records.iter().map(|r| (r.pool, &r.result)));
    for (p, result) in served {
        match result {
            Ok(a) => match first.get(&p) {
                None => {
                    if a.from_cache {
                        errors.push(format!("pool entry {p}: first answer came from the cache"));
                    }
                    first.insert(p, a);
                }
                Some(cold) => {
                    if fingerprint(&a.answers, a.guarantee)
                        != fingerprint(&cold.answers, cold.guarantee)
                    {
                        errors.push(format!(
                            "pool entry {p}: a {} answer differs from its cold answer",
                            if a.from_cache { "cached" } else { "recomputed" }
                        ));
                    }
                }
            },
            Err(Error::Overloaded { .. }) => {}
            Err(e) => errors.push(format!("pool entry {p}: request failed: {e}")),
        }
    }
    let items: Vec<(&[f32], &hydra_core::AnswerSet)> = first
        .iter()
        .map(|(p, a)| (queries[*p].values(), &a.answers))
        .collect();
    let verdicts = judge_all(ctx.data, &items, ctx.nproc);
    let mut ratios = BTreeMap::new();
    for ((p, _), v) in first.iter().zip(&verdicts) {
        if !v.consistent || v.ratio < 1.0 {
            errors.push(format!(
                "pool entry {p}: reported distance disagrees with the oracle"
            ));
        }
        ratios.insert(*p, v.ratio);
    }
    ratios
}

fn end_to_end(
    pass: &Pass,
    ratios: &BTreeMap<usize, f64>,
    ctx: &Ctx,
    m: &mut Metrics,
    notes: &mut Vec<String>,
) {
    let top = pass.rungs.last().expect("at least one rung");
    let nominal = &pass.rungs[ctx.sizes.ng_nominal];
    let sustained = pass.rungs.iter().rev().find(|r| r.passes);
    let answered: Vec<&Record> = pass.records.iter().filter(|r| r.result.is_ok()).collect();
    let pages: u64 = answered
        .iter()
        .map(|r| {
            r.result
                .as_ref()
                .expect("answered")
                .stats
                .io_snapshot()
                .total_pages()
        })
        .sum();
    let ratio_sum: f64 = answered.iter().map(|r| ratios[&r.pool]).sum();
    m.put("throughput_qps", top.throughput, "1/s");
    m.put("sustained_qps", sustained.map_or(0.0, |r| r.goodput), "1/s");
    // The median pools the whole ladder: a median over all of it drifts
    // less with the host than one rung's; the rungs' medians agree.
    let ladder: Vec<f64> = pass
        .records
        .iter()
        .map(|r| match r.result {
            Ok(_) => ms(r.latency),
            Err(_) => f64::INFINITY,
        })
        .collect();
    m.put("latency_p50_ms", median(&ladder), "ms");
    m.put("latency_tail_ms", nominal.latency.tail, "ms");
    m.put(
        "error_ratio",
        ratio_sum / answered.len().max(1) as f64,
        "ratio",
    );
    m.put(
        "read_pages_per_query",
        pages as f64 / answered.len().max(1) as f64,
        "count",
    );
    for r in &pass.rungs {
        notes.push(format!(
            "rung {:>6.0} q/s: {} requests, {} completed, {} failed, p50 {:.4} ms, tail p{TAIL_PCT} \
             {:.4} ms ({} samples), goodput {:.1} q/s, throughput {:.1} q/s, backlog {}, {}",
            r.rate,
            r.requests,
            r.completed,
            r.failed,
            r.latency.p50,
            r.latency.tail,
            r.latency.count,
            r.goodput,
            r.throughput,
            r.backlog,
            if r.passes {
                "meets the limit"
            } else {
                "misses the limit"
            }
        ));
    }
    notes.push(format!(
        "open loop, latency from the due time; limit {} ms on the tail; latency_p50_ms over the \
         whole ladder, latency_tail_ms at the nominal rung {} q/s; throughput_qps at the top rung; \
         sustained_qps is the goodput of the highest rung that meets the limit with no failures \
         and no growing backlog ({})",
        ctx.sizes.ng_limit_ms,
        nominal.rate,
        sustained.map_or("none".to_string(), |r| format!("{} q/s", r.rate))
    ));
}

pub fn run(ctx: &Ctx, mut out: Outcome) -> Outcome {
    let rates: Vec<String> = ctx
        .sizes
        .ng_rungs
        .iter()
        .map(|r| format!("[{}, {}]", r.0, r.1))
        .collect();
    out.config = format!(
        r#""method": "{}", "mode": "ng-approximate", "shards": 2, "worker_threads": 1, "cache_capacity": {}, "queries": "Synth-Rand pool of {}, Zipf s={ZIPF_S}", "loop": "open, generator drives the executor", "rungs_qps_and_share": [{}], "latency_limit_ms": {}, "warmup_requests": {}"#,
        METHOD.name(),
        ctx.sizes.ng_cache,
        ctx.sizes.ng_pool,
        rates.join(", "),
        ctx.sizes.ng_limit_ms,
        ctx.sizes.ng_warmup,
    );
    let queries = pool(ctx);
    if !ctx.trace {
        let (setup_s, built) = set_up(ctx.sizes.setups, || {
            let b = build_service(ctx.data, METHOD, config(ctx));
            let time = b.setup;
            (b, time)
        });
        let pass = run_pass(&built, &queries, ctx, &mut Tracer::new(false));
        let ratios = verify(&pass, &queries, ctx, &mut out.errors);
        out.e2e.put("setup_s", setup_s, "s");
        end_to_end(&pass, &ratios, ctx, &mut out.e2e, &mut out.notes);
        out.count(&ok_flags(&pass), true);
        return out;
    }
    let plain = {
        let built = build_service(ctx.data, METHOD, config(ctx));
        run_pass(&built, &queries, ctx, &mut Tracer::new(false))
    };
    let built = build_service(ctx.data, METHOD, config(ctx));
    let mut engine = bench_engine(METHOD, &built.shards.stores[0]);
    let tracer = out.tracer.as_mut().expect("traced runs carry a tracer");
    let pass = run_pass(&built, &queries, ctx, tracer);
    let plain_ratios = verify(&plain, &queries, ctx, &mut out.errors);
    let ratios = verify(&pass, &queries, ctx, &mut out.errors);
    let mut plain_m = Metrics::default();
    let mut traced_m = Metrics::default();
    end_to_end(&plain, &plain_ratios, ctx, &mut plain_m, &mut Vec::new());
    end_to_end(&pass, &ratios, ctx, &mut traced_m, &mut out.notes);

    // Decompose a spread of the cold answers.
    let cold: Vec<(usize, &Record)> = pass
        .records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.result.as_ref().is_ok_and(|a| !a.from_cache))
        .collect();
    let sample: Vec<(u64, &Query, String)> = evenly(&cold, ctx.sizes.decompose)
        .map(|(i, r)| {
            let a = r.result.as_ref().expect("answered");
            (
                *i as u64,
                &queries[r.pool],
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
    let cold: Vec<(Duration, &ServeAnswer)> = cold
        .iter()
        .map(|(_, r)| (r.latency, r.result.as_ref().expect("answered")))
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
        &pass.late_ms,
    );
    out.put_overhead(&plain_m, &traced_m);
    out.na(&["engine.batch_ms"]);
    let mut ok = ok_flags(&plain);
    ok.extend(ok_flags(&pass));
    out.count(&ok, true);
    out
}

fn ok_flags(pass: &Pass) -> Vec<bool> {
    pass.warm
        .iter()
        .map(|(_, r)| r.is_ok())
        .chain(pass.records.iter().map(|r| r.result.is_ok()))
        .collect()
}
