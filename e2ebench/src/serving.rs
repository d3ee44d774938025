//! Building a sharded service for a workload, and the traced decomposition
//! pass that splits a request into its shard, engine, method and merge
//! calls.

use crate::common::{
    fingerprint, median, ms, process_cpu, put_method_counters, store_traffic, summarize,
    CountingIo, Metrics,
};
use crate::trace::Tracer;
use crate::Ctx;
use hydra_bench::registry::MethodKind;
use hydra_core::{BuildOptions, Dataset, IoSnapshot, Query, QueryEngine, QueryStats};
use hydra_serve::{
    merge_shard_answers, CacheStats, QueryService, ServeAnswer, ServeConfig, ServiceStats,
};
use hydra_storage::DatasetStore;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Rounds of the engine-overhead comparison per decomposed request.
pub const OVERHEAD_ROUNDS: usize = 3;

/// The handles the benchmark keeps on a service's shards, in shard order.
#[derive(Default)]
pub struct Shards {
    /// One counting adapter per shard.
    pub ios: Vec<Arc<CountingIo>>,
    pub stores: Vec<Arc<DatasetStore>>,
    /// Engine build time summed over shards.
    pub build_time: Duration,
    /// Bytes written while building, summed over shards.
    pub build_written: u64,
}

/// A built service plus the handles the benchmark keeps on its shards.
pub struct Built {
    pub service: QueryService,
    pub shards: Shards,
    /// Wall time from the in-memory dataset to a ready service.
    pub setup: Duration,
}

/// Partitions `data` and builds one `kind` engine per shard, with default
/// build options, through [`QueryService::build`].
pub fn build_service(data: &Dataset, kind: MethodKind, config: ServeConfig) -> Built {
    let options = BuildOptions::default();
    let shards = Mutex::new(Shards::default());
    let clock = Instant::now();
    let service = QueryService::build(data, config, |_, store| {
        let io = Arc::new(CountingIo::new(store.clone()));
        let engine = kind
            .engine_on_store(store.clone(), &options)?
            .with_io_source(io.clone());
        let mut kept = shards.lock().expect("build mutex poisoned");
        kept.ios.push(io);
        kept.stores.push(store);
        kept.build_time += engine.build_time();
        kept.build_written += engine.build_io().bytes_written;
        Ok(engine)
    })
    .expect("the service builds");
    Built {
        service,
        shards: shards.into_inner().expect("build mutex poisoned"),
        setup: clock.elapsed(),
    }
}

/// An engine the benchmark holds itself over a copy of shard 0's data,
/// so it can time `QueryEngine::answer` against the method call inside it.
pub fn bench_engine(kind: MethodKind, shard: &DatasetStore) -> QueryEngine {
    let store = Arc::new(DatasetStore::new(shard.dataset().clone()));
    kind.engine_on_store(store, &BuildOptions::default())
        .expect("the bench-held engine builds")
}

/// Sets up `count` times, dropping each result before the next set-up,
/// and returns the median set-up time in seconds with the last one built.
pub fn set_up<T>(count: usize, mut build: impl FnMut() -> (T, Duration)) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..count.max(1) {
        drop(last.take());
        let (built, time) = build();
        times.push(time.as_secs_f64());
        last = Some(built);
    }
    (median(&times), last.expect("at least one set-up"))
}

/// Counters read when a timed pass starts, to take deltas when it ends.
pub struct PassStart {
    clock: Instant,
    cpu: Duration,
    store: (IoSnapshot, IoSnapshot),
    cache: CacheStats,
    stats: ServiceStats,
}

/// What a timed pass cost, as deltas over the pass.
pub struct PassTotals {
    pub elapsed: Duration,
    /// Process CPU time, all threads.
    pub cpu: Duration,
    pub cache_hit_rate: f64,
    pub shed_fraction: f64,
    /// Store traffic: all of it, and that of the attempts that answered.
    pub store: (IoSnapshot, IoSnapshot),
}

impl PassStart {
    pub fn now(built: &Built) -> Self {
        Self {
            store: store_traffic(&built.shards.ios),
            cache: built.service.cache_stats(),
            stats: built.service.service_stats(),
            cpu: process_cpu(),
            clock: Instant::now(),
        }
    }

    pub fn finish(self, built: &Built) -> PassTotals {
        let elapsed = self.clock.elapsed();
        let cpu = process_cpu().saturating_sub(self.cpu);
        let (total, useful) = store_traffic(&built.shards.ios);
        let cache = built.service.cache_stats();
        let stats = built.service.service_stats();
        let lookups = (cache.hits + cache.misses) - (self.cache.hits + self.cache.misses);
        let shed = stats.shed - self.stats.shed;
        let admitted = stats.accepted - self.stats.accepted;
        PassTotals {
            elapsed,
            cpu,
            cache_hit_rate: (cache.hits - self.cache.hits) as f64 / lookups.max(1) as f64,
            shed_fraction: shed as f64 / (admitted + shed).max(1) as f64,
            store: (total.since(&self.store.0), useful.since(&self.store.1)),
        }
    }
}

/// The per-layer metrics of a service workload's traced pass: `requests`
/// sent, `cold` answers with their request latency, the decomposition pass,
/// and how late an open-loop generator ran (`late_ms`, empty for a closed
/// loop).
#[allow(clippy::too_many_arguments)]
pub fn put_service_layers(
    m: &mut Metrics,
    ctx: &Ctx,
    built: &Built,
    totals: &PassTotals,
    requests: usize,
    cold: &[(Duration, &ServeAnswer)],
    parts: &Decomposed,
    tracer: &Tracer,
    late_ms: &[f64],
) {
    let overhead: Vec<f64> = cold
        .iter()
        .map(|(latency, a)| ms(latency.saturating_sub(a.wall_time)))
        .collect();
    let overhead = summarize(&overhead);
    let drive: Duration = tracer.durations("serve.drive").iter().sum();
    let merge_us: Vec<f64> = tracer
        .durations("serve.merge")
        .iter()
        .map(|d| d.as_secs_f64() * 1e6)
        .collect();
    m.put("serve.cache_hit_rate", totals.cache_hit_rate, "ratio");
    m.put("serve.shed_fraction", totals.shed_fraction, "ratio");
    m.put("serve.overhead_ms_p50", overhead.p50, "ms");
    m.put("serve.overhead_ms_tail", overhead.tail, "ms");
    m.put("serve.shard_skew", median(&parts.shard_skew), "ratio");
    m.put("serve.merge_us", median(&merge_us), "us");
    m.put(
        "serve.drive_busy_fraction",
        drive.as_secs_f64() / totals.elapsed.as_secs_f64(),
        "ratio",
    );
    let engine_ms = summarize(&parts.engine_answer_ms);
    m.put("engine.answer_ms_p50", engine_ms.p50, "ms");
    m.put("engine.answer_ms_tail", engine_ms.tail, "ms");
    m.put(
        "engine.overhead_us",
        median(&parts.engine_overhead_us),
        "us",
    );
    m.put(
        "engine.attempts_per_query",
        cold.iter().map(|(_, a)| a.attempts as f64).sum::<f64>() / cold.len().max(1) as f64,
        "count",
    );
    m.put("engine.batch_ms", 0.0, "ms");
    let stats: Vec<QueryStats> = cold.iter().map(|(_, a)| a.stats.clone()).collect();
    put_method_counters(m, &stats, ctx.data.len(), totals.store.0, totals.store.1);
    m.put("method.build_s", built.shards.build_time.as_secs_f64(), "s");
    m.put(
        "storage.build_bytes_written",
        built.shards.build_written as f64,
        "B",
    );
    m.put(
        "process.cpu_ms_per_query",
        ms(totals.cpu) / requests.max(1) as f64,
        "ms",
    );
    m.put(
        "process.cpu_utilisation",
        totals.cpu.as_secs_f64() / (totals.elapsed.as_secs_f64() * ctx.nproc as f64),
        "ratio",
    );
    m.put("loadgen.late_ms_tail", summarize(late_ms).tail, "ms");
}

/// What the decomposition pass measured.
#[derive(Default)]
pub struct Decomposed {
    /// `EngineAnswer::wall_time` of every shard sub-query, in ms.
    pub engine_answer_ms: Vec<f64>,
    /// Per request: slowest over mean `ShardEngine::answer` span.
    pub shard_skew: Vec<f64>,
    /// `QueryEngine::answer` span minus the method call span, in µs.
    pub engine_overhead_us: Vec<f64>,
}

/// Re-answers `sample` (request id, query, served fingerprint) one call at
/// a time: each shard through `ShardEngine::answer`, the merge through
/// `merge_shard_answers`, and shard 0's query through a bench-held engine,
/// both whole and as the bare method call. A merge that differs from the
/// served answer is a correctness error.
pub fn decompose(
    service: &QueryService,
    engine: &mut QueryEngine,
    sample: &[(u64, &Query, String)],
    tracer: &mut Tracer,
    errors: &mut Vec<String>,
) -> Decomposed {
    let mut out = Decomposed::default();
    for (request, query, served) in sample {
        let root = tracer.open("decompose", None, *request);
        let mut parts = Vec::new();
        let mut shard_spans = Vec::new();
        for shard in service.shards() {
            let span = tracer.open("serve.shard", root, *request);
            let answer = shard.answer(query);
            tracer.close(span);
            if let Some(s) = tracer.span(span) {
                shard_spans.push(ms(s.end - s.start));
            }
            match answer {
                Ok(answer) => {
                    out.engine_answer_ms.push(ms(answer.wall_time));
                    parts.push((shard.range.clone(), answer));
                }
                Err(_) => break,
            }
        }
        if parts.len() == service.shards().len() {
            let span = tracer.open("serve.merge", root, *request);
            let merged = merge_shard_answers(1, service.dataset_size(), parts);
            tracer.close(span);
            if fingerprint(&merged.answers, merged.guarantee) != *served {
                errors.push(format!(
                    "request {request}: the decomposed merge differs from the served answer"
                ));
            }
        }
        if !shard_spans.is_empty() {
            let mean = shard_spans.iter().sum::<f64>() / shard_spans.len() as f64;
            let slowest = shard_spans.iter().cloned().fold(0.0, f64::max);
            if mean > 0.0 {
                out.shard_skew.push(slowest / mean);
            }
        }
        // Three alternating rounds of the whole engine call and the bare
        // method call; the fastest of each is least disturbed by the host.
        let mut stats = QueryStats::default();
        let (mut whole_s, mut bare_s) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..OVERHEAD_ROUNDS {
            let whole = tracer.open("engine.answer", root, *request);
            let engine_ok = engine.answer(query).is_ok();
            tracer.close(whole);
            let bare = tracer.open("method.answer", root, *request);
            let method_ok = engine.method().answer(query, &mut stats).is_ok();
            tracer.close(bare);
            if let (true, true, Some(w), Some(b)) =
                (engine_ok, method_ok, tracer.span(whole), tracer.span(bare))
            {
                whole_s = whole_s.min((w.end - w.start).as_secs_f64());
                bare_s = bare_s.min((b.end - b.start).as_secs_f64());
            }
        }
        if whole_s.is_finite() && bare_s.is_finite() {
            out.engine_overhead_us.push((whole_s - bare_s) * 1e6);
        }
        tracer.close(root);
    }
    out
}
