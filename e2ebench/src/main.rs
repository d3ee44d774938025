//! End-to-end benchmark of the hydra suite.
//!
//! Runs one named workload through service → engine → method → store over
//! a seeded random-walk collection, checks every answer against a
//! brute-force oracle, and prints one JSON result as its last line of
//! standard output: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a traced pass with `--trace 1`.
//!
//! ```text
//! hydra-e2e --workload <exact-ctrl|ng-hot|exact-faulty|batch-exact>
//!           --seed <n> --seconds <s> --trace <0|1> [--scale full|smoke] [--rev <id>]
//! ```
//!
//! The collection is generated from a fixed seed; `--seed` seeds the queries
//! (and the fault plan of `exact-faulty`). Exits with code 1 when an answer
//! is wrong, and 2 on bad arguments.

mod batch;
mod closed;
mod common;
mod ng_hot;
mod serving;
mod trace;

use common::{median, peak_rss_mb, Metrics};
use hydra_core::Dataset;
use hydra_data::RandomWalkGenerator;
use std::hint::black_box;
use std::time::Instant;
use trace::Tracer;

/// Seed of the random-walk collection, fixed across runs so that only the
/// queries vary with `--seed`.
const DATASET_SEED: u64 = 0xDA7A;
/// Series the kernel timing draws its pairs from: 64 KiB at length 256.
const KERNEL_SERIES: usize = 64;
/// Correctness problems printed before the rest are only counted.
const MAX_ERRORS_SHOWN: usize = 20;
const WORKLOADS: [&str; 4] = ["exact-ctrl", "ng-hot", "exact-faulty", "batch-exact"];

/// Sizes of one scale.
pub struct Sizes {
    pub name: &'static str,
    pub series: usize,
    pub length: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// Closed loop: requests every run sends, over which the counts are
    /// taken, so they repeat exactly.
    pub min_requests: usize,
    /// Closed loop: queries generated per second of `--seconds`.
    pub closed_pool_per_s: f64,
    /// Requests the decomposition pass re-answers call by call.
    pub decompose: usize,
    pub ng_pool: usize,
    pub ng_cache: usize,
    pub ng_warmup: usize,
    /// The open-loop ladder: offered rate (1/s) and share of `--seconds`.
    pub ng_rungs: &'static [(f64, f64)],
    /// Index into `ng_rungs` of the rung the latency metrics come from.
    pub ng_nominal: usize,
    pub ng_limit_ms: f64,
    pub batch: usize,
    pub min_batches: usize,
    /// Batches generated per second of `--seconds`.
    pub batch_pool_per_s: f64,
    pub kernel_pairs: usize,
}

const FULL: Sizes = Sizes {
    name: "full",
    series: 100_000,
    length: 256,
    setups: 3,
    min_requests: 200,
    closed_pool_per_s: 400.0,
    decompose: 64,
    ng_pool: 8192,
    ng_cache: 64,
    ng_warmup: 1000,
    ng_rungs: &[(150.0, 0.6), (300.0, 0.2), (500.0, 0.2)],
    ng_nominal: 0,
    ng_limit_ms: 50.0,
    batch: 8,
    min_batches: 80,
    batch_pool_per_s: 40.0,
    kernel_pairs: 200_000,
};

const SMOKE: Sizes = Sizes {
    name: "smoke",
    series: 4_000,
    length: 256,
    setups: 2,
    min_requests: 20,
    closed_pool_per_s: 2000.0,
    decompose: 8,
    ng_pool: 1024,
    ng_cache: 32,
    ng_warmup: 100,
    ng_rungs: &[(150.0, 0.6), (300.0, 0.2), (500.0, 0.2)],
    ng_nominal: 0,
    ng_limit_ms: 50.0,
    batch: 8,
    min_batches: 4,
    batch_pool_per_s: 400.0,
    kernel_pairs: 10_000,
};

/// What every workload runs with.
pub struct Ctx<'a> {
    pub data: &'a Dataset,
    pub seed: u64,
    /// Length of one timed pass: `--seconds`, or half of it on a traced
    /// run, whose untraced and traced passes share the run's time.
    pub seconds: f64,
    pub trace: bool,
    pub sizes: &'a Sizes,
    pub nproc: usize,
}

impl Ctx<'_> {
    /// The per-shard fault plan seed of `exact-faulty`, derived from the
    /// workload seed.
    pub fn fault_seed(&self) -> u64 {
        self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xFA17
    }
}

/// The result of one workload run.
pub struct Outcome {
    /// Workload configuration, as JSON object members.
    pub config: String,
    pub e2e: Metrics,
    pub layer: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations; any makes the run fail.
    pub errors: Vec<String>,
    pub notes: Vec<String>,
    pub tracer: Option<Tracer>,
    na: Vec<&'static str>,
}

impl Outcome {
    pub fn new(config: String) -> Self {
        Self {
            config,
            e2e: Metrics::default(),
            layer: Metrics::default(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            notes: Vec::new(),
            tracer: None,
            na: Vec::new(),
        }
    }

    /// Counts requests; a failed one is a correctness violation unless the
    /// workload allows failures.
    pub fn count(&mut self, ok: &[bool], failures_allowed: bool) {
        let failed = ok.iter().filter(|o| !**o).count() as u64;
        self.attempted += ok.len() as u64;
        self.failed += failed;
        if failed > 0 && !failures_allowed {
            self.errors.push(format!("{failed} requests failed"));
        }
    }

    /// Tracing overhead: the traced pass against the untraced one.
    pub fn put_overhead(&mut self, plain: &Metrics, traced: &Metrics) {
        let pct = |a: f64, b: f64| if a > 0.0 { (b - a) / a * 100.0 } else { 0.0 };
        let tput = pct(traced.get("throughput_qps"), plain.get("throughput_qps"));
        let p50 = pct(plain.get("latency_p50_ms"), traced.get("latency_p50_ms"));
        self.layer.put("trace.overhead_throughput_pct", tput, "%");
        self.layer.put("trace.overhead_latency_p50_pct", p50, "%");
        self.notes.push(format!(
            "tracing overhead: untraced {:.2} q/s, p50 {:.4} ms; traced {:.2} q/s, p50 {:.4} ms",
            plain.get("throughput_qps"),
            plain.get("latency_p50_ms"),
            traced.get("throughput_qps"),
            traced.get("latency_p50_ms"),
        ));
    }

    /// Records per-layer metrics that do not apply to this workload.
    pub fn na(&mut self, names: &[&'static str]) {
        self.na.extend_from_slice(names);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: &'static Sizes,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        sizes: &FULL,
        rev: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? == 1,
            "--scale" => {
                args.sizes = match value.as_str() {
                    "full" => &FULL,
                    "smoke" => &SMOKE,
                    _ => return Err(bad(&"expected full or smoke")),
                }
            }
            "--rev" => args.rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Times the dispatched distance kernel at the collection's length on a
/// seeded sample of pairs, in blocks of 1000 calls; returns ns per call.
/// Pairs come from the first [`KERNEL_SERIES`] series, which stay in cache,
/// so the figure is the kernel's and not the memory system's.
fn kernel_ns(data: &Dataset, pairs: usize, seed: u64, tracer: &mut Tracer) -> f64 {
    let n = data.len().min(KERNEL_SERIES) as u64;
    let mut x = seed | 1;
    let mut next = || {
        // xorshift64: a cheap, seeded index stream.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % n) as usize
    };
    let ids: Vec<(usize, usize)> = (0..pairs).map(|_| (next(), next())).collect();
    let mut per_call = Vec::new();
    for (b, block) in ids.chunks(1000).enumerate() {
        let span = tracer.open("kernel.distance", None, b as u64);
        let start = Instant::now();
        let mut sum = 0.0;
        for &(i, j) in block {
            sum += hydra_core::distance::squared_euclidean(
                black_box(data.series(i).values()),
                black_box(data.series(j).values()),
            );
        }
        black_box(sum);
        per_call.push(start.elapsed().as_secs_f64() * 1e9 / block.len() as f64);
        tracer.close(span);
    }
    median(&per_call)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn metrics_json(m: &Metrics) -> String {
    let parts: Vec<String> =
        m.0.iter()
            .map(|(name, value, unit)| {
                // JSON has no infinity; a tail over shed requests is the
                // largest number instead.
                let value = if value.is_finite() { *value } else { f64::MAX };
                format!(r#""{name}": {{"value": {value:?}, "unit": "{unit}"}}"#)
            })
            .collect();
    format!("{{{}}}", parts.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hydra-e2e: {e}");
            std::process::exit(2);
        }
    };
    let sizes = args.sizes;
    let nproc = hydra_core::parallel::available_threads();
    let kernel = hydra_core::simd::active_kernel().name();
    let data = RandomWalkGenerator::new(DATASET_SEED, sizes.length).dataset(sizes.series);
    let ctx = Ctx {
        data: &data,
        seed: args.seed,
        seconds: if args.trace {
            args.seconds / 2.0
        } else {
            args.seconds
        },
        trace: args.trace,
        sizes,
        nproc,
    };
    let mut outcome = match args.workload.as_str() {
        "exact-ctrl" => {
            let spec = closed::Spec {
                method: hydra_bench::registry::MethodKind::DsTree,
                faults: false,
            };
            with_tracer(&ctx, |o| closed::run(&ctx, spec, o))
        }
        "exact-faulty" => {
            let spec = closed::Spec {
                method: hydra_bench::registry::MethodKind::VaPlusFile,
                faults: true,
            };
            with_tracer(&ctx, |o| closed::run(&ctx, spec, o))
        }
        "ng-hot" => with_tracer(&ctx, |o| ng_hot::run(&ctx, o)),
        "batch-exact" => with_tracer(&ctx, |o| batch::run(&ctx, o)),
        _ => unreachable!("parse_args checked the workload"),
    };
    let provenance = format!(
        r#"{{"provenance": {{"workload": {}, "seed": {}, "held_out_seed": 9001, "dataset": {{"kind": "random-walk", "seed": {DATASET_SEED}, "series": {}, "length": {}}}, "scale": "{}", "seconds": {}, "trace": {}, "nproc": {nproc}, "rev": {}, "simd_kernel": "{kernel}", {}}}}}"#,
        json_str(&args.workload),
        args.seed,
        sizes.series,
        sizes.length,
        sizes.name,
        args.seconds,
        args.trace as u8,
        json_str(&args.rev),
        outcome.config,
    );
    println!("{provenance}");
    if args.trace {
        let mut tracer = outcome.tracer.take().expect("traced runs carry a tracer");
        let ns = kernel_ns(&data, sizes.kernel_pairs, args.seed, &mut tracer);
        outcome.layer.put("kernel.distance_ns", ns, "ns");
        println!(
            "{:<18} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, t) in tracer.totals() {
            println!(
                "{name:<18} {:>8} {:>12.3} {:>12.3}",
                t.count,
                t.total.as_secs_f64() * 1e3,
                t.self_time.as_secs_f64() * 1e3
            );
        }
        let path = std::path::PathBuf::from(".bench_trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write(&path, &provenance) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("hydra-e2e: could not write {}: {e}", path.display()),
        }
        if !outcome.na.is_empty() {
            println!(
                "not applicable on this workload (reported as 0): {}",
                outcome.na.join(", ")
            );
        }
    } else {
        outcome.e2e.put("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    for error in outcome.errors.iter().take(MAX_ERRORS_SHOWN) {
        eprintln!("hydra-e2e: INCORRECT: {error}");
    }
    if outcome.errors.len() > MAX_ERRORS_SHOWN {
        eprintln!(
            "hydra-e2e: INCORRECT: {} more problems not shown",
            outcome.errors.len() - MAX_ERRORS_SHOWN
        );
    }
    let metrics = if args.trace {
        &outcome.layer
    } else {
        &outcome.e2e
    };
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
        outcome.errors.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics_json(metrics)
    );
    if !outcome.errors.is_empty() {
        std::process::exit(1);
    }
}

/// Hands the workload an [`Outcome`] that carries a tracer when tracing.
fn with_tracer(ctx: &Ctx, run: impl FnOnce(Outcome) -> Outcome) -> Outcome {
    let mut outcome = Outcome::new(String::new());
    if ctx.trace {
        outcome.tracer = Some(Tracer::new(true));
    }
    run(outcome)
}
