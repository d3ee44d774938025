//! The Stepwise multi-step filter method.
//!
//! Stepwise pre-processes the collection by storing, for every series, its
//! orthonormal Haar (DHWT) coefficients arranged *vertically*: level 0 of all
//! series first, then level 1 of all series, and so on. At query time the
//! method reads one level at a time and maintains, for every surviving
//! candidate, a lower and an upper bound of its true distance derived from the
//! coefficient prefix seen so far. Candidates whose lower bound exceeds the
//! smallest known upper bound are discarded. After the last level (or when few
//! enough candidates survive) the remaining candidates are refined with the
//! exact Euclidean distance on the raw data, charged as random accesses.
//!
//! Compared with indexes, the method trades tree traversal for level-wise
//! sequential reads plus a final random-access refinement step — the access
//! pattern responsible for its high cost in the paper's evaluation.

use hydra_core::parallel::map_chunks;
use hydra_core::{
    AnswerSet, AnsweringMethod, BatchAnswering, BudgetMeter, Error, IntraAnswering, KnnHeap,
    MethodDescriptor, ModeCapabilities, Query, QueryStats, Result,
};
use hydra_storage::DatasetStore;
use hydra_transforms::HaarTransform;
use std::sync::Arc;

/// The Stepwise method: level-wise DHWT filtering plus raw-data refinement.
pub struct Stepwise {
    store: Arc<DatasetStore>,
    haar: HaarTransform,
    /// Per-level coefficient storage: `levels[l][i]` holds the coefficients of
    /// level `l` (of length `2^(l-1)`, level 0 has length 1) for series `i`.
    levels: Vec<Vec<Vec<f32>>>,
    /// Residual energy of each series beyond each level prefix:
    /// `residual[l][i]` = squared norm of coefficients after level `l`.
    residuals: Vec<Vec<f64>>,
    preprocessing_bytes: u64,
}

impl Stepwise {
    /// Pre-processes the collection: computes and stores the level-wise DHWT
    /// coefficients of every series.
    pub fn build(store: Arc<DatasetStore>) -> Result<Self> {
        if store.is_empty() {
            return Err(Error::EmptyDataset);
        }
        let haar = HaarTransform::new(store.series_length());
        let num_levels = haar.levels() + 1; // level 0 .. levels()
        let n = store.len();
        let mut levels: Vec<Vec<Vec<f32>>> = vec![Vec::with_capacity(n); num_levels];
        let mut residuals: Vec<Vec<f64>> = vec![vec![0.0; n]; num_levels];
        let mut written = 0u64;
        store.scan_all(|id, series| {
            let coeffs = haar.transform(series.values());
            for level in 0..num_levels {
                let lo = if level == 0 { 0 } else { 1usize << (level - 1) };
                let hi = 1usize << level;
                levels[level].push(coeffs[lo..hi.min(coeffs.len())].to_vec());
                let rest: f64 = coeffs[hi.min(coeffs.len())..]
                    .iter()
                    .map(|&v| (v as f64) * (v as f64))
                    .sum();
                residuals[level][id] = rest;
                written += ((hi - lo) * std::mem::size_of::<f32>()) as u64;
            }
        });
        store.record_index_write(written);
        Ok(Self {
            store,
            haar,
            levels,
            residuals,
            preprocessing_bytes: written,
        })
    }

    /// The underlying store.
    pub fn store(&self) -> &DatasetStore {
        &self.store
    }

    /// The number of DHWT levels stored.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Bytes of pre-processed coefficient storage.
    pub fn preprocessing_bytes(&self) -> u64 {
        self.preprocessing_bytes
    }

    /// Runs one filter level for one query: updates its prefix distances and
    /// alive set, records the level's (logical) sequential read and the
    /// lower-bound evaluations. `uppers` is caller-provided scratch, refilled
    /// here — reused across levels (and, in the batched kernel, across
    /// queries) so the filter loop performs no per-level allocation.
    ///
    /// Shared verbatim by the serial path and the batch kernel, so per-query
    /// filtering work is bit-identical between the two.
    #[allow(clippy::too_many_arguments)]
    fn filter_level(
        &self,
        level: usize,
        q_coeffs: &[f32],
        k: usize,
        prefix_sq: &mut [f64],
        alive: &mut [bool],
        alive_count: &mut usize,
        uppers: &mut [f64],
        stats: &mut QueryStats,
    ) {
        let n = self.store.len();
        let lo = if level == 0 { 0 } else { 1usize << (level - 1) };
        let hi = (1usize << level).min(q_coeffs.len());
        let q_rest: f64 = q_coeffs[hi..]
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>();
        // Reading this level's coefficients for the alive candidates is a
        // sequential pass over the level file.
        let level_bytes = (*alive_count * (hi - lo) * std::mem::size_of::<f32>()) as u64;
        let level_pages = level_bytes.div_ceil(self.store.page_bytes() as u64).max(1);
        stats.record_io(level_pages.saturating_sub(1), 1, level_bytes);

        // Update prefix distances and bounds.
        let mut best_upper = f64::INFINITY;
        uppers.fill(f64::INFINITY);
        for id in 0..n {
            if !alive[id] {
                continue;
            }
            let coeffs = &self.levels[level][id];
            let mut add = 0.0f64;
            for (j, &c) in coeffs.iter().enumerate() {
                let d = (q_coeffs[lo + j] - c) as f64;
                add += d * d;
            }
            prefix_sq[id] += add;
            stats.record_lower_bounds(1);
            let rest = self.residuals[level][id].sqrt() + q_rest.sqrt();
            let upper = (prefix_sq[id] + rest * rest).sqrt();
            uppers[id] = upper;
            if upper < best_upper {
                best_upper = upper;
            }
        }
        Self::prune_level(k, best_upper, uppers, prefix_sq, alive, alive_count);
    }

    /// The pruning half of a filter level, shared verbatim by the serial,
    /// batched, and intra-query paths: keep the k best upper bounds as the
    /// pruning threshold (so that a k-NN query never prunes a potential
    /// member of the answer set) and kill every candidate whose lower bound
    /// exceeds it.
    fn prune_level(
        k: usize,
        best_upper: f64,
        uppers: &[f64],
        prefix_sq: &[f64],
        alive: &mut [bool],
        alive_count: &mut usize,
    ) {
        let threshold = if k == 1 {
            best_upper
        } else {
            let mut ub: Vec<f64> = uppers.iter().copied().filter(|u| u.is_finite()).collect();
            ub.sort_by(|a, b| a.total_cmp(b));
            ub.get(k - 1).copied().unwrap_or(best_upper)
        };
        for (flag, p_sq) in alive.iter_mut().zip(prefix_sq.iter()) {
            if *flag && p_sq.sqrt() > threshold + 1e-9 {
                *flag = false;
                *alive_count -= 1;
            }
        }
    }

    /// The intra-query variant of [`Stepwise::filter_level`]: the per-candidate
    /// prefix/upper-bound updates are independent, so they split into one
    /// contiguous chunk per worker; each worker computes `(new_prefix, upper)`
    /// with the serial path's exact arithmetic (the update is pruning-free —
    /// no shared state). The level's I/O charge, counter writes, writeback
    /// and pruning run serially through the same code as the serial level,
    /// so the alive set evolves bit-identically.
    #[allow(clippy::too_many_arguments)]
    fn filter_level_intra(
        &self,
        level: usize,
        q_coeffs: &[f32],
        k: usize,
        threads: usize,
        prefix_sq: &mut [f64],
        alive: &mut [bool],
        alive_count: &mut usize,
        uppers: &mut [f64],
        stats: &mut QueryStats,
    ) {
        let n = self.store.len();
        let lo = if level == 0 { 0 } else { 1usize << (level - 1) };
        let hi = (1usize << level).min(q_coeffs.len());
        let q_rest: f64 = q_coeffs[hi..]
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>();
        let level_bytes = (*alive_count * (hi - lo) * std::mem::size_of::<f32>()) as u64;
        let level_pages = level_bytes.div_ceil(self.store.page_bytes() as u64).max(1);
        stats.record_io(level_pages.saturating_sub(1), 1, level_bytes);

        let updates: Vec<Option<(f64, f64)>> = map_chunks(n, threads, |range| {
            range
                .map(|id| {
                    if !alive[id] {
                        return None;
                    }
                    let coeffs = &self.levels[level][id];
                    let mut add = 0.0f64;
                    for (j, &c) in coeffs.iter().enumerate() {
                        let d = (q_coeffs[lo + j] - c) as f64;
                        add += d * d;
                    }
                    let new_prefix = prefix_sq[id] + add;
                    let rest = self.residuals[level][id].sqrt() + q_rest.sqrt();
                    let upper = (new_prefix + rest * rest).sqrt();
                    Some((new_prefix, upper))
                })
                .collect()
        });

        let mut best_upper = f64::INFINITY;
        uppers.fill(f64::INFINITY);
        for (id, update) in updates.into_iter().enumerate() {
            let Some((new_prefix, upper)) = update else {
                continue;
            };
            prefix_sq[id] = new_prefix;
            stats.record_lower_bounds(1);
            uppers[id] = upper;
            if upper < best_upper {
                best_upper = upper;
            }
        }
        Self::prune_level(k, best_upper, uppers, prefix_sq, alive, alive_count);
    }

    /// Refines the surviving candidates of one query on the raw data
    /// (random accesses through the fallible store path), offering them into
    /// `heap`. Stops early — keeping the best-so-far answers — when the
    /// query's budget meter trips.
    fn refine(
        &self,
        query: &Query,
        alive: &[bool],
        heap: &mut KnnHeap,
        meter: &mut BudgetMeter,
        stats: &mut QueryStats,
    ) -> Result<()> {
        for id in alive
            .iter()
            .enumerate()
            .filter_map(|(id, &a)| a.then_some(id))
        {
            if meter.should_stop(stats.raw_series_examined, !heap.is_empty()) {
                return Ok(());
            }
            let series = self.store.try_read_series(id)?;
            stats.record_raw_series_examined(1);
            let d = hydra_core::distance::euclidean(query.values(), series.values());
            heap.offer(id, d);
        }
        Ok(())
    }
}

impl AnsweringMethod for Stepwise {
    fn descriptor(&self) -> MethodDescriptor {
        MethodDescriptor {
            name: "Stepwise",
            representation: "DHWT",
            is_index: false,
            modes: ModeCapabilities::exact_only(),
        }
    }

    fn answer(&self, query: &Query, stats: &mut QueryStats) -> Result<AnswerSet> {
        let n_len = self.store.series_length();
        if query.len() != n_len {
            return Err(Error::LengthMismatch {
                expected: n_len,
                actual: query.len(),
            });
        }
        if !query.mode().is_exact() {
            return Err(Error::unsupported_mode("Stepwise", query.mode()));
        }
        let k = query.knn_k("Stepwise")?;
        let clock = hydra_core::RunClock::start();
        let q_coeffs = self.haar.transform(query.values());
        let n = self.store.len();

        // Running squared prefix distance per candidate, plus alive flags;
        // the upper-bound scratch is allocated once and reused across levels.
        let mut prefix_sq = vec![0.0f64; n];
        let mut alive: Vec<bool> = vec![true; n];
        let mut alive_count = n;
        let mut uppers = vec![f64::INFINITY; n];

        for level in 0..self.levels.len() {
            self.filter_level(
                level,
                &q_coeffs,
                k,
                &mut prefix_sq,
                &mut alive,
                &mut alive_count,
                &mut uppers,
                stats,
            );
        }

        // Refinement: exact distances on the raw data for the survivors,
        // charged as random accesses.
        let mut heap = KnnHeap::new(k);
        let mut meter = BudgetMeter::new(query.budget(), self.store.len());
        self.refine(query, &alive, &mut heap, &mut meter, stats)?;
        stats.cpu_time += clock.elapsed();
        // I/O for the refinement reads was recorded by the store counters;
        // the engine reconciles it into the stats snapshot.
        let guarantee = meter.guarantee(query.mode().guarantee(), stats.raw_series_examined);
        Ok(heap.into_answer_set().with_guarantee(guarantee))
    }

    fn batch_answering(&self) -> Option<&dyn BatchAnswering> {
        Some(self)
    }

    fn intra_answering(&self) -> Option<&dyn IntraAnswering> {
        Some(self)
    }
}

impl IntraAnswering for Stepwise {
    /// Intra-query Stepwise: each filter level's per-candidate bound updates
    /// fan out across workers ([`Stepwise::filter_level_intra`]) while the
    /// level ordering, I/O charges and pruning stay serial; the refinement
    /// distances of the surviving candidates are computed in parallel from
    /// the in-memory dataset, then replayed in id order through counted,
    /// fallible [`DatasetStore::try_read_series`] calls so the random-access
    /// profile, heap evolution and fault handling match the serial path bit
    /// for bit.
    fn answer_intra(
        &self,
        query: &Query,
        threads: usize,
        stats: &mut QueryStats,
    ) -> Result<AnswerSet> {
        let n_len = self.store.series_length();
        if query.len() != n_len {
            return Err(Error::LengthMismatch {
                expected: n_len,
                actual: query.len(),
            });
        }
        if !query.mode().is_exact() {
            return Err(Error::unsupported_mode("Stepwise", query.mode()));
        }
        let k = query.knn_k("Stepwise")?;
        let clock = hydra_core::RunClock::start();
        let q_coeffs = self.haar.transform(query.values());
        let n = self.store.len();

        let mut prefix_sq = vec![0.0f64; n];
        let mut alive: Vec<bool> = vec![true; n];
        let mut alive_count = n;
        let mut uppers = vec![f64::INFINITY; n];

        for level in 0..self.levels.len() {
            self.filter_level_intra(
                level,
                &q_coeffs,
                k,
                threads,
                &mut prefix_sq,
                &mut alive,
                &mut alive_count,
                &mut uppers,
                stats,
            );
        }

        // Parallel refinement distances (exact, threshold-free) from the
        // in-memory dataset, replayed serially with counted reads.
        let survivors: Vec<usize> = alive
            .iter()
            .enumerate()
            .filter_map(|(id, &a)| a.then_some(id))
            .collect();
        let dataset = self.store.dataset();
        let distances: Vec<f64> = map_chunks(survivors.len(), threads, |range| {
            range
                .map(|i| {
                    let id = survivors[i];
                    hydra_core::distance::euclidean(query.values(), dataset.series(id).values())
                })
                .collect()
        });
        let mut heap = KnnHeap::new(k);
        for (&id, &d) in survivors.iter().zip(&distances) {
            let _series = self.store.try_read_series(id)?;
            stats.record_raw_series_examined(1);
            heap.offer(id, d);
        }
        stats.cpu_time += clock.elapsed();
        Ok(heap.into_answer_set())
    }
}

impl BatchAnswering for Stepwise {
    /// The batched multi-step filter: the level loop moves outermost, so one
    /// pass over each level's coefficient storage serves every query of the
    /// batch (the level's arrays stay cache-resident across the Q per-query
    /// updates) before the next level is touched. Each query's alive set,
    /// prefix distances and pruning thresholds evolve exactly as on the
    /// serial path, and its refinement reads are individually attributed
    /// through head-invalidated store deltas, so answers and per-query
    /// counters are bit-identical to the per-query loop.
    fn answer_batch(&self, queries: &[Query], stats: &mut [QueryStats]) -> Result<Vec<AnswerSet>> {
        hydra_core::method::batch_expect_length(queries, self.store.series_length())?;
        hydra_core::method::batch_expect_exact(queries, "Stepwise")?;
        let ks = hydra_core::method::batch_knn_ks(queries, "Stepwise")?;
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let clock = hydra_core::RunClock::start();
        let n = self.store.len();
        let q_coeffs: Vec<Vec<f32>> = queries
            .iter()
            .map(|q| self.haar.transform(q.values()))
            .collect();
        let mut prefix_sq: Vec<Vec<f64>> = vec![vec![0.0f64; n]; queries.len()];
        let mut alive: Vec<Vec<bool>> = vec![vec![true; n]; queries.len()];
        let mut alive_counts = vec![n; queries.len()];
        // One upper-bound scratch shared by every (level, query) pass.
        let mut uppers = vec![f64::INFINITY; n];

        for level in 0..self.levels.len() {
            for qi in 0..queries.len() {
                self.filter_level(
                    level,
                    &q_coeffs[qi],
                    ks[qi],
                    &mut prefix_sq[qi],
                    &mut alive[qi],
                    &mut alive_counts[qi],
                    &mut uppers,
                    &mut stats[qi],
                );
            }
        }

        // Per-query refinement: invalidate the simulated disk head first so
        // the store delta classifies this query's reads exactly as the
        // serial path (whose engine-level counter reset freshens the head),
        // then reconcile the observed refinement traffic like the engine
        // does around a serial query.
        let mut answers = Vec::with_capacity(queries.len());
        let mut heap = KnnHeap::new(1);
        for ((query, &k), (alive, stats)) in queries
            .iter()
            .zip(&ks)
            .zip(alive.iter().zip(stats.iter_mut()))
        {
            heap.reset(k);
            self.store.invalidate_head();
            let before = self.store.thread_io_snapshot();
            // Budgeted queries never reach the batch kernel (the engine
            // routes them through the per-query loop), so this meter only
            // carries the fault plan's fallible read path.
            let mut meter = BudgetMeter::new(query.budget(), self.store.len());
            self.refine(query, alive, &mut heap, &mut meter, stats)?;
            let observed = self.store.thread_io_snapshot().since(&before);
            stats.reconcile_io(observed);
            answers.push(heap.take_answer_set());
        }
        hydra_core::method::share_batch_cpu_time(stats, clock.elapsed());
        Ok(answers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ucr::brute_force_knn;
    use hydra_core::Series;
    use hydra_data::RandomWalkGenerator;

    fn store(count: usize, len: usize) -> Arc<DatasetStore> {
        Arc::new(DatasetStore::new(
            RandomWalkGenerator::new(31, len).dataset(count),
        ))
    }

    #[test]
    fn descriptor_matches_table1() {
        let s = Stepwise::build(store(10, 16)).unwrap();
        assert_eq!(s.descriptor().name, "Stepwise");
        assert_eq!(s.descriptor().representation, "DHWT");
    }

    #[test]
    fn build_stores_all_levels() {
        let s = Stepwise::build(store(10, 64)).unwrap();
        assert_eq!(s.num_levels(), 7); // 64 = 2^6 -> levels 0..=6
        assert!(s.preprocessing_bytes() > 0);
    }

    #[test]
    fn exactness_against_brute_force() {
        let st = store(300, 64);
        let s = Stepwise::build(st.clone()).unwrap();
        for q in RandomWalkGenerator::new(87, 64).series_batch(10) {
            for k in [1usize, 3] {
                let expected = brute_force_knn(st.dataset(), q.values(), k);
                let got = s.answer_simple(&Query::knn(q.clone(), k)).unwrap();
                assert!(
                    got.distances_match(&expected, 1e-4),
                    "k={k}: {got:?} vs {expected:?}"
                );
            }
        }
    }

    #[test]
    fn exactness_on_non_power_of_two_length() {
        let st = store(150, 96);
        let s = Stepwise::build(st.clone()).unwrap();
        let q = RandomWalkGenerator::new(88, 96).series(0);
        let expected = brute_force_knn(st.dataset(), q.values(), 1);
        let got = s.answer_simple(&Query::nearest_neighbor(q)).unwrap();
        assert!(got.distances_match(&expected, 1e-4));
    }

    #[test]
    fn filtering_prunes_most_candidates() {
        let st = store(500, 128);
        let s = Stepwise::build(st.clone()).unwrap();
        // A query equal to a dataset member has a zero-distance match, so the
        // filter should discard the overwhelming majority of candidates.
        let q = st.dataset().series(123).to_owned_series();
        let mut stats = QueryStats::default();
        let ans = s.answer(&Query::nearest_neighbor(q), &mut stats).unwrap();
        assert_eq!(ans.nearest().unwrap().id, 123);
        assert!(
            stats.raw_series_examined < 50,
            "expected strong pruning, examined {}",
            stats.raw_series_examined
        );
        assert!(stats.pruning_ratio(500) > 0.9);
    }

    #[test]
    fn refinement_uses_random_accesses() {
        let st = store(200, 64);
        let s = Stepwise::build(st.clone()).unwrap();
        st.reset_io();
        let q = RandomWalkGenerator::new(12, 64).series(1);
        let mut stats = QueryStats::default();
        s.answer(&Query::nearest_neighbor(q), &mut stats).unwrap();
        let io = st.io_snapshot();
        assert!(io.random_pages >= 1, "refinement reads are random accesses");
    }

    #[test]
    fn batched_stepwise_matches_the_serial_loop_counters_included() {
        use hydra_core::{Parallelism, QueryEngine};
        // Mix member queries (strong pruning, few refinement reads) with
        // random ones (many survivors) so the per-query I/O attribution and
        // the engine's reconciliation rule are both exercised.
        let st = store(250, 64);
        let mut queries: Vec<Query> = RandomWalkGenerator::new(92, 64)
            .series_batch(4)
            .into_iter()
            .map(|s| Query::knn(s, 3))
            .collect();
        queries.push(Query::nearest_neighbor(
            st.dataset().series(111).to_owned_series(),
        ));
        let mut serial = QueryEngine::new(Box::new(Stepwise::build(st.clone()).unwrap()), st.len())
            .with_io_source(st);
        let serial_answers: Vec<_> = queries.iter().map(|q| serial.answer(q).unwrap()).collect();

        let st2 = store(250, 64);
        let mut batched =
            QueryEngine::new(Box::new(Stepwise::build(st2.clone()).unwrap()), st2.len())
                .with_io_source(st2);
        let batch_answers = batched.answer_batch(&queries, Parallelism::Serial).unwrap();
        for (qi, (a, b)) in serial_answers.iter().zip(&batch_answers).enumerate() {
            assert_eq!(a.answers, b.answers, "query {qi}");
            assert_eq!(
                a.stats.raw_series_examined, b.stats.raw_series_examined,
                "query {qi}"
            );
            assert_eq!(
                a.stats.lower_bounds_computed, b.stats.lower_bounds_computed,
                "query {qi}"
            );
            assert_eq!(
                a.stats.sequential_page_accesses, b.stats.sequential_page_accesses,
                "query {qi}"
            );
            assert_eq!(
                a.stats.random_page_accesses, b.stats.random_page_accesses,
                "query {qi}"
            );
            assert_eq!(a.stats.bytes_read, b.stats.bytes_read, "query {qi}");
        }
    }

    #[test]
    fn rejects_bad_query_length_and_empty_build() {
        let s = Stepwise::build(store(10, 32)).unwrap();
        assert!(s
            .answer_simple(&Query::nearest_neighbor(Series::new(vec![0.0; 8])))
            .is_err());
        let empty = Arc::new(DatasetStore::new(hydra_core::Dataset::empty(8)));
        assert!(Stepwise::build(empty).is_err());
    }
}
