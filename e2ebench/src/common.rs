//! Pieces every workload shares: the counting I/O adapter, the brute-force
//! oracle, latency summaries, process counters and the metric list.

use hydra_core::engine::IoSource;
use hydra_core::stats::IoSnapshot;
use hydra_core::{AnswerSet, Dataset, Guarantee, QueryStats};
use hydra_storage::{CostModel, DatasetStore};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn add(total: &mut IoSnapshot, part: &IoSnapshot) {
    total.sequential_pages += part.sequential_pages;
    total.random_pages += part.random_pages;
    total.bytes_read += part.bytes_read;
    total.bytes_written += part.bytes_written;
}

/// Forwards every [`IoSource`] call to a shard's store and keeps what the
/// engine's per-attempt resets would otherwise erase.
///
/// The engine resets the calling thread's store counters before every
/// attempt and reads them once after a successful one, so a plain delta of
/// the store's global snapshot loses the pages of earlier queries and of
/// failed attempts. This adapter folds each reset's counts into `folded`
/// (all traffic) and each post-success read into `useful` (traffic of the
/// attempts that answered).
pub struct CountingIo {
    store: Arc<DatasetStore>,
    folded: Mutex<IoSnapshot>,
    useful: Mutex<IoSnapshot>,
}

impl CountingIo {
    pub fn new(store: Arc<DatasetStore>) -> Self {
        Self {
            store,
            folded: Mutex::new(IoSnapshot::default()),
            useful: Mutex::new(IoSnapshot::default()),
        }
    }

    /// All store traffic since construction: folded resets plus what the
    /// counters still hold.
    pub fn total(&self) -> IoSnapshot {
        let mut total = *self.folded.lock().expect("counting mutex poisoned");
        add(&mut total, &self.store.io_snapshot());
        total
    }

    /// Store traffic of the attempts that produced an answer.
    pub fn useful(&self) -> IoSnapshot {
        *self.useful.lock().expect("counting mutex poisoned")
    }

    fn fold(&self, part: IoSnapshot) {
        add(
            &mut self.folded.lock().expect("counting mutex poisoned"),
            &part,
        );
    }
}

impl IoSource for CountingIo {
    fn io_snapshot(&self) -> IoSnapshot {
        self.store.io_snapshot()
    }

    fn reset_io(&self) {
        self.fold(self.store.io_snapshot());
        self.store.reset_io();
    }

    fn thread_io_snapshot(&self) -> IoSnapshot {
        let snapshot = self.store.thread_io_snapshot();
        add(
            &mut self.useful.lock().expect("counting mutex poisoned"),
            &snapshot,
        );
        snapshot
    }

    fn reset_thread_io(&self) {
        self.fold(self.store.thread_io_snapshot());
        self.store.reset_thread_io();
    }

    fn has_thread_scoped_counters(&self) -> bool {
        true
    }

    fn begin_attempt(&self, attempt: u32) {
        IoSource::begin_attempt(self.store.as_ref(), attempt);
    }
}

/// Sums [`CountingIo::total`] and [`CountingIo::useful`] over shards.
pub fn store_traffic(ios: &[Arc<CountingIo>]) -> (IoSnapshot, IoSnapshot) {
    let mut total = IoSnapshot::default();
    let mut useful = IoSnapshot::default();
    for io in ios {
        add(&mut total, &io.total());
        add(&mut useful, &io.useful());
    }
    (total, useful)
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// Squared Euclidean distance in plain f64 arithmetic, independent of the
/// suite's SIMD kernels; eight running sums keep the additions from waiting
/// on each other.
fn squared_distance(a: &[f32], b: &[f32]) -> f64 {
    let mut lanes = [0.0f64; 8];
    let xs = a.chunks_exact(8);
    let ys = b.chunks_exact(8);
    for (x, y) in xs.remainder().iter().zip(ys.remainder()) {
        let d = *x as f64 - *y as f64;
        lanes[0] += d * d;
    }
    for (x, y) in xs.zip(ys) {
        for k in 0..8 {
            let d = x[k] as f64 - y[k] as f64;
            lanes[k] += d * d;
        }
    }
    lanes.iter().sum()
}

/// [`squared_distance`], or `None` once an f32 partial sum shows it is above
/// `limit`. The f32 sums only decide abandoning, with a margin far above
/// their rounding error, so no series at or below `limit` is abandoned.
fn squared_distance_below(a: &[f32], b: &[f32], limit: f64) -> Option<f64> {
    let cut = (limit * (1.0 + 1e-4)) as f32;
    let mut sum = 0.0f32;
    for (ca, cb) in a.chunks(32).zip(b.chunks(32)) {
        let mut lanes = [0.0f32; 8];
        let xs = ca.chunks_exact(8);
        let ys = cb.chunks_exact(8);
        for (x, y) in xs.remainder().iter().zip(ys.remainder()) {
            lanes[0] += (x - y) * (x - y);
        }
        for (x, y) in xs.zip(ys) {
            for k in 0..8 {
                lanes[k] += (x[k] - y[k]) * (x[k] - y[k]);
            }
        }
        sum += lanes.iter().sum::<f32>();
        if sum > cut {
            return None;
        }
    }
    Some(squared_distance(a, b))
}

/// Queries the oracle scans the collection for at once: each series is
/// read from memory once per block, not once per query.
const ORACLE_BLOCK: usize = 64;

/// The brute-force 1-NN squared distances of a block of queries over
/// `dataset`. Each scan starts from its hint (the squared distance of a
/// known series, e.g. the answer under test) so it can abandon early; every
/// series is still examined, so the results are the true minima.
fn oracle_block(dataset: &Dataset, queries: &[&[f32]], hints: &[f64]) -> Vec<f64> {
    let mut best = hints.to_vec();
    for i in 0..dataset.len() {
        let series = dataset.series(i);
        for (q, b) in queries.iter().zip(best.iter_mut()) {
            if let Some(d) = squared_distance_below(series.values(), q, *b) {
                *b = b.min(d);
            }
        }
    }
    best
}

/// What the oracle found for one answered request.
#[derive(Clone, Copy, Debug)]
pub struct Verdict {
    /// The returned 1-NN distance over the true 1-NN distance.
    pub ratio: f64,
    /// Whether the answer is the true 1-NN, up to distance ties.
    pub exact: bool,
    /// Whether the reported distance matches the returned series' distance.
    pub consistent: bool,
}

/// Checks a block of 1-NN answers against the brute-force oracle.
fn judge_block(dataset: &Dataset, items: &[(&[f32], &AnswerSet)]) -> Vec<Verdict> {
    // An empty answer set gets an infinite hint and fails both checks.
    let returned: Vec<Option<(f64, f64)>> = items
        .iter()
        .map(|(q, a)| {
            a.iter().next().map(|top| {
                (
                    squared_distance(dataset.series(top.id).values(), q),
                    top.distance,
                )
            })
        })
        .collect();
    let queries: Vec<&[f32]> = items.iter().map(|(q, _)| *q).collect();
    let hints: Vec<f64> = returned
        .iter()
        .map(|r| r.map_or(f64::INFINITY, |r| r.0))
        .collect();
    let best = oracle_block(dataset, &queries, &hints);
    returned
        .iter()
        .zip(best)
        .map(|(r, best)| match r {
            None => Verdict {
                ratio: f64::INFINITY,
                exact: false,
                consistent: false,
            },
            Some((returned, reported)) => {
                let ratio = if *returned == best {
                    1.0
                } else if best > 0.0 {
                    (returned / best).sqrt()
                } else {
                    f64::INFINITY
                };
                let true_distance = returned.sqrt();
                Verdict {
                    ratio,
                    exact: *returned <= best * (1.0 + 1e-9) + 1e-12,
                    consistent: (reported - true_distance).abs() <= 1e-4 * true_distance.max(1.0),
                }
            }
        })
        .collect()
}

/// Judges `items` on `threads` scoped threads (after the timed region).
pub fn judge_all(
    dataset: &Dataset,
    items: &[(&[f32], &AnswerSet)],
    threads: usize,
) -> Vec<Verdict> {
    let threads = threads.max(1).min(items.len().max(1));
    let chunk = items.len().div_ceil(threads).max(1);
    let clock = std::time::Instant::now();
    let verdicts = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.chunks(ORACLE_BLOCK)
                        .flat_map(|block| judge_block(dataset, block))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    eprintln!(
        "oracle: {} answers checked in {:.2} s",
        items.len(),
        clock.elapsed().as_secs_f64()
    );
    verdicts
}

/// A compact, comparable fingerprint of an answer: ids, distance bits and
/// guarantee, used to check cache hits against their cold answers.
pub fn fingerprint(answers: &AnswerSet, guarantee: Guarantee) -> String {
    let mut out = format!("{guarantee:?}");
    for a in answers.iter() {
        out.push_str(&format!(";{}:{:x}", a.id, a.distance.to_bits()));
    }
    out
}

// ---------------------------------------------------------------------------
// Latency summaries
// ---------------------------------------------------------------------------

/// The percentile reported as a sample's tail. A fixed percentile keeps the
/// metric comparable between runs of different length; the 90th leaves a
/// tenth of the sample beyond it, so a seed's few hardest queries or a host
/// stall do not set it.
pub const TAIL_PCT: f64 = 90.0;

/// Median and tail (the `TAIL_PCT` percentile, nearest rank) of a latency
/// sample.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub tail: f64,
}

pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary::default();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    let rank = ((TAIL_PCT / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Summary {
        count: n,
        p50: median_sorted(&sorted),
        tail: sorted[rank - 1],
    }
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Up to `n` items spread evenly over `items`.
pub fn evenly<T>(items: &[T], n: usize) -> impl Iterator<Item = &T> {
    items
        .iter()
        .step_by((items.len() / n.max(1)).max(1))
        .take(n)
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    median_sorted(&sorted)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------------
// Process counters
// ---------------------------------------------------------------------------

/// User plus system CPU time of this process, all threads, from
/// `/proc/self/stat` (clock ticks of 10 ms).
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// An ordered list of named metrics with units.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
            .unwrap_or(0.0)
    }
}

/// Per-request means of the method and storage counters, over `stats` of
/// answered requests (each summed over shards) against `dataset_size`.
pub fn put_method_counters(
    m: &mut Metrics,
    stats: &[QueryStats],
    dataset_size: usize,
    store_total: IoSnapshot,
    store_useful: IoSnapshot,
) {
    let n = stats.len().max(1) as f64;
    let mut sum = QueryStats::default();
    for s in stats {
        sum.merge(s);
    }
    let pruning: f64 = stats
        .iter()
        .map(|s| s.pruning_ratio(dataset_size))
        .sum::<f64>()
        / n;
    m.put(
        "method.raw_series_per_query",
        sum.raw_series_examined as f64 / n,
        "count",
    );
    m.put("method.pruning_ratio", pruning, "ratio");
    m.put(
        "method.leaves_per_query",
        sum.leaves_visited as f64 / n,
        "count",
    );
    m.put(
        "method.internal_nodes_per_query",
        sum.internal_nodes_visited as f64 / n,
        "count",
    );
    m.put(
        "method.lower_bounds_per_query",
        sum.lower_bounds_computed as f64 / n,
        "count",
    );
    m.put(
        "method.early_abandon_ratio",
        sum.early_abandons as f64 / (sum.raw_series_examined.max(1)) as f64,
        "ratio",
    );
    m.put("method.cpu_ms_per_query", ms(sum.cpu_time) / n, "ms");
    let charged = sum.io_snapshot();
    m.put(
        "storage.seq_pages_per_query",
        charged.sequential_pages as f64 / n,
        "count",
    );
    m.put(
        "storage.random_pages_per_query",
        charged.random_pages as f64 / n,
        "count",
    );
    m.put(
        "storage.bytes_read_per_query",
        charged.bytes_read as f64 / n,
        "B",
    );
    m.put(
        "storage.ssd_io_ms_per_query",
        ms(CostModel::ssd().io_time(&charged)) / n,
        "ms",
    );
    m.put(
        "storage.hdd_io_ms_per_query",
        ms(CostModel::hdd().io_time(&charged)) / n,
        "ms",
    );
    m.put(
        "storage.store_pages_per_query",
        store_total.total_pages() as f64 / n,
        "count",
    );
    let useful_fraction = if store_total.total_pages() == 0 {
        1.0
    } else {
        store_useful.total_pages() as f64 / store_total.total_pages() as f64
    };
    m.put("storage.useful_page_fraction", useful_fraction, "ratio");
}
