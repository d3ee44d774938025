//! `batch-exact`: offline analytics. Back-to-back `QueryEngine::answer_batch`
//! calls with `Parallelism::Threads(2)` on an ADS+ engine over the whole
//! collection, each batch a run of distinct exact Synth-Rand queries.

use crate::common::{
    judge_all, median, ms, process_cpu, put_method_counters, store_traffic, summarize, CountingIo,
    Metrics, TAIL_PCT,
};
use crate::serving::set_up;
use crate::trace::Tracer;
use crate::{Ctx, Outcome};
use hydra_bench::registry::MethodKind;
use hydra_core::{
    BuildOptions, EngineAnswer, IoSnapshot, Parallelism, Query, QueryEngine, QueryStats,
};
use hydra_data::{QueryWorkload, WorkloadSpec};
use hydra_storage::DatasetStore;
use std::sync::Arc;
use std::time::{Duration, Instant};

const METHOD: MethodKind = MethodKind::AdsPlus;
const THREADS: usize = 2;

struct Built {
    engine: QueryEngine,
    io: Arc<CountingIo>,
    setup: Duration,
}

fn build(ctx: &Ctx) -> Built {
    let clock = Instant::now();
    let store = Arc::new(DatasetStore::new(ctx.data.clone()));
    let io = Arc::new(CountingIo::new(store.clone()));
    let engine = METHOD
        .engine_on_store(store, &BuildOptions::default())
        .expect("the engine builds")
        .with_io_source(io.clone());
    Built {
        engine,
        io,
        setup: clock.elapsed(),
    }
}

struct Pass {
    /// Per batch: its first query index, wall time and answers.
    batches: Vec<(usize, Duration, Vec<EngineAnswer>)>,
    elapsed: Duration,
    cpu: Duration,
    store: (IoSnapshot, IoSnapshot),
}

fn run_pass(built: &mut Built, queries: &[Query], ctx: &Ctx, tracer: &mut Tracer) -> Pass {
    let size = ctx.sizes.batch;
    let ios = [built.io.clone()];
    let (total0, useful0) = store_traffic(&ios);
    let cpu0 = process_cpu();
    let clock = Instant::now();
    let seconds = Duration::from_secs_f64(ctx.seconds);
    let mut batches = Vec::new();
    while (batches.len() + 1) * size <= queries.len()
        && (batches.len() < ctx.sizes.min_batches || clock.elapsed() < seconds)
    {
        let first = batches.len() * size;
        let span = tracer.open("engine.batch", None, batches.len() as u64);
        let start = Instant::now();
        let answers = built
            .engine
            .answer_batch(&queries[first..first + size], Parallelism::Threads(THREADS))
            .expect("exact batches over a fault-free store answer");
        let wall = start.elapsed();
        tracer.close(span);
        batches.push((first, wall, answers));
    }
    let elapsed = clock.elapsed();
    let cpu = process_cpu().saturating_sub(cpu0);
    let (total1, useful1) = store_traffic(&ios);
    Pass {
        batches,
        elapsed,
        cpu,
        store: (total1.since(&total0), useful1.since(&useful0)),
    }
}

fn verify(pass: &Pass, queries: &[Query], ctx: &Ctx, errors: &mut Vec<String>) -> Vec<f64> {
    let items: Vec<(&[f32], &hydra_core::AnswerSet)> = pass
        .batches
        .iter()
        .flat_map(|(first, _, answers)| {
            answers
                .iter()
                .enumerate()
                .map(move |(j, a)| (queries[first + j].values(), &a.answers))
        })
        .collect();
    let verdicts = judge_all(ctx.data, &items, ctx.nproc);
    for (i, v) in verdicts.iter().enumerate() {
        if !v.exact || !v.consistent {
            errors.push(format!(
                "query {i} disagrees with the oracle (ratio {}, distance consistent: {})",
                v.ratio, v.consistent
            ));
        }
    }
    verdicts.iter().map(|v| v.ratio).collect()
}

fn end_to_end(pass: &Pass, ratios: &[f64], ctx: &Ctx, m: &mut Metrics, notes: &mut Vec<String>) {
    let lat: Vec<f64> = pass.batches.iter().map(|b| ms(b.1)).collect();
    let s = summarize(&lat);
    let answered: usize = pass.batches.iter().map(|b| b.2.len()).sum();
    let throughput = answered as f64 / pass.elapsed.as_secs_f64();
    // Deterministic counts come from the first `min_batches` batches.
    let head = &pass.batches[..ctx.sizes.min_batches.min(pass.batches.len())];
    let head_answers: Vec<&EngineAnswer> = head.iter().flat_map(|b| &b.2).collect();
    let pages: u64 = head_answers
        .iter()
        .map(|a| a.stats.io_snapshot().total_pages())
        .sum();
    let head_ratios = &ratios[..head_answers.len().min(ratios.len())];
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
        pages as f64 / head_answers.len().max(1) as f64,
        "count",
    );
    notes.push(format!(
        "back-to-back batches of {} queries, {THREADS} threads: {} batches ({answered} queries) in \
         {:.3} s; latency is per answer_batch call, tail = p{TAIL_PCT} ({} samples); sustained_qps is \
         the closed-loop throughput; error_ratio and read_pages_per_query cover the first {} batches",
        ctx.sizes.batch,
        pass.batches.len(),
        pass.elapsed.as_secs_f64(),
        s.count,
        head.len()
    ));
}

pub fn run(ctx: &Ctx, mut out: Outcome) -> Outcome {
    out.config = format!(
        r#""method": "{}", "shards": 1, "parallelism": "Threads({THREADS})", "batch_size": {}, "queries": "Synth-Rand", "loop": "closed, back-to-back batches""#,
        METHOD.name(),
        ctx.sizes.batch,
    );
    let count = ctx.sizes.batch
        * ((ctx.seconds * ctx.sizes.batch_pool_per_s) as usize).max(ctx.sizes.min_batches);
    let spec = WorkloadSpec::random(ctx.seed).with_num_queries(count);
    let queries: Vec<Query> = QueryWorkload::generate("Synth-Rand", ctx.data, &spec)
        .knn_queries(1)
        .collect();
    let setups = if ctx.trace { 1 } else { ctx.sizes.setups };
    let (setup_s, mut built) = set_up(setups, || {
        let b = build(ctx);
        let time = b.setup;
        (b, time)
    });
    if !ctx.trace {
        let pass = run_pass(&mut built, &queries, ctx, &mut Tracer::new(false));
        let ratios = verify(&pass, &queries, ctx, &mut out.errors);
        out.e2e.put("setup_s", setup_s, "s");
        end_to_end(&pass, &ratios, ctx, &mut out.e2e, &mut out.notes);
        let n: usize = pass.batches.iter().map(|b| b.2.len()).sum();
        out.count(&vec![true; n], false);
        return out;
    }
    // The engine keeps no answer cache, so one engine serves both passes.
    let plain = run_pass(&mut built, &queries, ctx, &mut Tracer::new(false));
    let tracer = out.tracer.as_mut().expect("traced runs carry a tracer");
    let pass = run_pass(&mut built, &queries, ctx, tracer);
    let plain_ratios = verify(&plain, &queries, ctx, &mut out.errors);
    let ratios = verify(&pass, &queries, ctx, &mut out.errors);
    let mut plain_m = Metrics::default();
    let mut traced_m = Metrics::default();
    end_to_end(&plain, &plain_ratios, ctx, &mut plain_m, &mut Vec::new());
    end_to_end(&pass, &ratios, ctx, &mut traced_m, &mut out.notes);

    // Decomposition: single queries through `QueryEngine::answer` and the
    // bare method call, on a spread of the batch queries.
    let n = pass.batches.len() * ctx.sizes.batch;
    let stride = (n / ctx.sizes.decompose).max(1);
    let mut engine_ms = Vec::new();
    let mut overhead_us = Vec::new();
    let tracer = out.tracer.as_mut().expect("traced runs carry a tracer");
    for i in (0..n).step_by(stride).take(ctx.sizes.decompose) {
        let root = tracer.open("decompose", None, i as u64);
        // Three alternating rounds, as in the service decomposition.
        let (mut whole_s, mut bare_s) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..crate::serving::OVERHEAD_ROUNDS {
            let whole = tracer.open("engine.answer", root, i as u64);
            let answer = built
                .engine
                .answer(&queries[i])
                .expect("exact queries answer");
            tracer.close(whole);
            let bare = tracer.open("method.answer", root, i as u64);
            let mut stats = QueryStats::default();
            built
                .engine
                .method()
                .answer(&queries[i], &mut stats)
                .expect("exact queries answer");
            tracer.close(bare);
            engine_ms.push(ms(answer.wall_time));
            if let (Some(w), Some(b)) = (tracer.span(whole), tracer.span(bare)) {
                whole_s = whole_s.min((w.end - w.start).as_secs_f64());
                bare_s = bare_s.min((b.end - b.start).as_secs_f64());
            }
        }
        tracer.close(root);
        overhead_us.push((whole_s - bare_s) * 1e6);
    }
    let tracer = out.tracer.as_ref().expect("traced runs carry a tracer");
    let batch_ms: Vec<f64> = tracer
        .durations("engine.batch")
        .iter()
        .map(|d| ms(*d))
        .collect();
    let m = &mut out.layer;
    // No service on this workload.
    for (name, unit) in [
        ("serve.cache_hit_rate", "ratio"),
        ("serve.shed_fraction", "ratio"),
        ("serve.overhead_ms_p50", "ms"),
        ("serve.overhead_ms_tail", "ms"),
        ("serve.shard_skew", "ratio"),
        ("serve.merge_us", "us"),
        ("serve.drive_busy_fraction", "ratio"),
    ] {
        m.put(name, 0.0, unit);
    }
    let engine_ms = summarize(&engine_ms);
    m.put("engine.answer_ms_p50", engine_ms.p50, "ms");
    m.put("engine.answer_ms_tail", engine_ms.tail, "ms");
    m.put("engine.overhead_us", median(&overhead_us), "us");
    m.put("engine.attempts_per_query", 1.0, "count");
    m.put("engine.batch_ms", median(&batch_ms), "ms");
    let stats: Vec<QueryStats> = pass
        .batches
        .iter()
        .flat_map(|b| b.2.iter().map(|a| a.stats.clone()))
        .collect();
    let answered = stats.len();
    put_method_counters(m, &stats, ctx.data.len(), pass.store.0, pass.store.1);
    m.put(
        "method.build_s",
        built.engine.build_time().as_secs_f64(),
        "s",
    );
    m.put(
        "storage.build_bytes_written",
        built.engine.build_io().bytes_written as f64,
        "B",
    );
    m.put(
        "process.cpu_ms_per_query",
        ms(pass.cpu) / answered.max(1) as f64,
        "ms",
    );
    m.put(
        "process.cpu_utilisation",
        pass.cpu.as_secs_f64() / (pass.elapsed.as_secs_f64() * ctx.nproc as f64),
        "ratio",
    );
    m.put("loadgen.late_ms_tail", 0.0, "ms");
    out.put_overhead(&plain_m, &traced_m);
    out.na(&["serve.*", "loadgen.late_ms_tail"]);
    let total: usize = plain
        .batches
        .iter()
        .chain(&pass.batches)
        .map(|b| b.2.len())
        .sum();
    out.count(&vec![true; total], false);
    out
}
