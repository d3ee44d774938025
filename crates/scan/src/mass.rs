//! MASS adapted to exact whole matching.
//!
//! MASS (Mueen's Algorithm for Similarity Search) computes, for subsequence
//! matching, the distance profile between a query and every subsequence of a
//! long series using FFT-based dot products. Following the paper, we adapt it
//! to whole matching: for every candidate series `C` the squared Euclidean
//! distance is computed as
//!
//! ```text
//! ED²(Q, C) = ||Q||² + ||C||² − 2·(Q · C)
//! ```
//!
//! where the dot product `Q · C` is evaluated in the frequency domain
//! (`Q · C = Σ_k conj(F(Q))_k · F(C)_k / n`, by Parseval/correlation theorem).
//! This keeps the spirit of the original algorithm — trading extra CPU
//! (Fourier transforms) for a branch-free, abandon-free computation — and
//! reproduces its observed behaviour in the study: a very high CPU cost and
//! one sequential pass of I/O per query.

use hydra_core::parallel::map_chunks;
use hydra_core::{
    AnswerSet, AnsweringMethod, BatchAnswering, BudgetMeter, Error, IntraAnswering, KnnHeap,
    MethodDescriptor, ModeCapabilities, Query, QueryStats, Result,
};
use hydra_storage::DatasetStore;
use hydra_transforms::fft::{Complex, Fft};
use std::ops::ControlFlow;
use std::sync::Arc;

/// The MASS whole-matching scan.
#[derive(Clone)]
pub struct MassScan {
    store: Arc<DatasetStore>,
    fft: Fft,
}

impl MassScan {
    /// Creates a MASS scan over the given store.
    pub fn new(store: Arc<DatasetStore>) -> Self {
        let fft = Fft::new(store.series_length().max(1));
        Self { store, fft }
    }

    /// The underlying store.
    pub fn store(&self) -> &DatasetStore {
        &self.store
    }

    fn spectrum_and_norm(&self, values: &[f32]) -> (Vec<Complex>, f64) {
        let spectrum = self.fft.forward_real(values);
        let norm_sq: f64 = values.iter().map(|&v| (v as f64) * (v as f64)).sum();
        (spectrum, norm_sq)
    }
}

impl AnsweringMethod for MassScan {
    fn descriptor(&self) -> MethodDescriptor {
        MethodDescriptor {
            name: "MASS",
            representation: "DFT",
            is_index: false,
            modes: ModeCapabilities::exact_only(),
        }
    }

    fn answer(&self, query: &Query, stats: &mut QueryStats) -> Result<AnswerSet> {
        if self.store.is_empty() {
            return Err(Error::EmptyDataset);
        }
        let n = self.store.series_length();
        if query.len() != n {
            return Err(Error::LengthMismatch {
                expected: n,
                actual: query.len(),
            });
        }
        if !query.mode().is_exact() {
            return Err(Error::unsupported_mode("MASS", query.mode()));
        }
        let k = query.knn_k("MASS")?;
        let mut heap = KnnHeap::new(k);
        let mut meter = BudgetMeter::new(query.budget(), self.store.len());
        let clock = hydra_core::RunClock::start();
        let (q_spec, q_norm_sq) = self.spectrum_and_norm(query.values());
        // Thread-scoped snapshot: under a parallel workload each worker must
        // observe only its own scan traffic.
        let before = self.store.thread_io_snapshot();
        // One spectrum scratch per query, reused across every candidate: the
        // hot loop performs no per-candidate allocation.
        let mut c_spec: Vec<Complex> = Vec::with_capacity(n);
        self.store.try_scan_all(|id, series| {
            if meter.should_stop(stats.raw_series_examined, !heap.is_empty()) {
                return Ok(ControlFlow::Break(()));
            }
            stats.record_raw_series_examined(1);
            self.fft.forward_real_into(series.values(), &mut c_spec);
            let c_norm_sq: f64 = series
                .values()
                .iter()
                .map(|&v| (v as f64) * (v as f64))
                .sum();
            // Dot product via the spectra: Q·C = (1/n) Σ conj(F(Q))·F(C).
            let mut dot = 0.0f64;
            for (q, c) in q_spec.iter().zip(c_spec.iter()) {
                dot += q.re * c.re + q.im * c.im;
            }
            dot /= n as f64;
            let sq = (q_norm_sq + c_norm_sq - 2.0 * dot).max(0.0);
            heap.offer(id, sq.sqrt());
            Ok(ControlFlow::Continue(()))
        })?;
        stats.cpu_time += clock.elapsed();
        let delta = self.store.thread_io_snapshot().since(&before);
        stats.record_io(delta.sequential_pages, delta.random_pages, delta.bytes_read);
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

impl IntraAnswering for MassScan {
    /// Intra-query MASS: the distance of each candidate is a fixed, pruning-
    /// free computation (spectrum + dot product), so the candidate range
    /// splits into one contiguous chunk per worker with **no** shared state
    /// at all — each worker keeps its own spectrum scratch and produces the
    /// exact squared distance the serial loop would. A serial replay offers
    /// the precomputed values in storage order inside the counted, fallible
    /// [`DatasetStore::try_scan_all`] pass, reproducing the serial I/O
    /// envelope, fault handling and heap evolution bit for bit.
    fn answer_intra(
        &self,
        query: &Query,
        threads: usize,
        stats: &mut QueryStats,
    ) -> Result<AnswerSet> {
        if self.store.is_empty() {
            return Err(Error::EmptyDataset);
        }
        let n = self.store.series_length();
        if query.len() != n {
            return Err(Error::LengthMismatch {
                expected: n,
                actual: query.len(),
            });
        }
        if !query.mode().is_exact() {
            return Err(Error::unsupported_mode("MASS", query.mode()));
        }
        let k = query.knn_k("MASS")?;
        let clock = hydra_core::RunClock::start();
        let (q_spec, q_norm_sq) = self.spectrum_and_norm(query.values());
        let before = self.store.thread_io_snapshot();
        let dataset = self.store.dataset();
        let squared: Vec<f64> = map_chunks(self.store.len(), threads, |range| {
            let mut c_spec: Vec<Complex> = Vec::with_capacity(n);
            let mut out = Vec::with_capacity(range.len());
            for id in range {
                let values = dataset.series(id).values();
                self.fft.forward_real_into(values, &mut c_spec);
                let c_norm_sq: f64 = values.iter().map(|&v| (v as f64) * (v as f64)).sum();
                let mut dot = 0.0f64;
                for (q, c) in q_spec.iter().zip(c_spec.iter()) {
                    dot += q.re * c.re + q.im * c.im;
                }
                dot /= n as f64;
                out.push((q_norm_sq + c_norm_sq - 2.0 * dot).max(0.0));
            }
            out
        });
        let mut heap = KnnHeap::new(k);
        self.store.try_scan_all(|id, _series| {
            stats.record_raw_series_examined(1);
            heap.offer(id, squared[id].sqrt());
            Ok(ControlFlow::Continue(()))
        })?;
        stats.cpu_time += clock.elapsed();
        let delta = self.store.thread_io_snapshot().since(&before);
        stats.record_io(delta.sequential_pages, delta.random_pages, delta.bytes_read);
        Ok(heap.into_answer_set())
    }
}

impl BatchAnswering for MassScan {
    /// The batched MASS scan: one sequential pass over the dataset, and —
    /// the CPU amortization the FFT structure makes possible — **one**
    /// candidate spectrum per candidate shared by every query of the batch,
    /// instead of Q transforms per candidate. Each query's distance is the
    /// same spectra dot product as the serial path, so answers and per-query
    /// counters are bit-identical to the per-query loop.
    fn answer_batch(&self, queries: &[Query], stats: &mut [QueryStats]) -> Result<Vec<AnswerSet>> {
        if self.store.is_empty() {
            return Err(Error::EmptyDataset);
        }
        let n = self.store.series_length();
        hydra_core::method::batch_expect_length(queries, n)?;
        hydra_core::method::batch_expect_exact(queries, "MASS")?;
        let ks = hydra_core::method::batch_knn_ks(queries, "MASS")?;
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let clock = hydra_core::RunClock::start();
        let query_spectra: Vec<(Vec<Complex>, f64)> = queries
            .iter()
            .map(|q| self.spectrum_and_norm(q.values()))
            .collect();
        let mut heaps: Vec<KnnHeap> = ks.iter().map(|&k| KnnHeap::new(k)).collect();
        let mut c_spec: Vec<Complex> = Vec::with_capacity(n);
        // Fallible, like the serial scan: a faulted read fails the kernel
        // and the engine reruns the per-query loop with its retries.
        self.store.try_scan_all(|id, series| {
            self.fft.forward_real_into(series.values(), &mut c_spec);
            let c_norm_sq: f64 = series
                .values()
                .iter()
                .map(|&v| (v as f64) * (v as f64))
                .sum();
            for (((q_spec, q_norm_sq), heap), stats) in
                query_spectra.iter().zip(&mut heaps).zip(stats.iter_mut())
            {
                stats.record_raw_series_examined(1);
                let mut dot = 0.0f64;
                for (q, c) in q_spec.iter().zip(c_spec.iter()) {
                    dot += q.re * c.re + q.im * c.im;
                }
                dot /= n as f64;
                let sq = (q_norm_sq + c_norm_sq - 2.0 * dot).max(0.0);
                heap.offer(id, sq.sqrt());
            }
            Ok(ControlFlow::Continue(()))
        })?;
        let pages = self.store.total_pages();
        let bytes = (self.store.len() * self.store.series_bytes()) as u64;
        for stats in stats.iter_mut() {
            stats.record_io(pages - 1, 1, bytes);
        }
        hydra_core::method::share_batch_cpu_time(stats, clock.elapsed());
        Ok(heaps.into_iter().map(KnnHeap::into_answer_set).collect())
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
            RandomWalkGenerator::new(21, len).dataset(count),
        ))
    }

    #[test]
    fn descriptor_matches_table1() {
        let m = MassScan::new(store(5, 16));
        assert_eq!(m.descriptor().name, "MASS");
        assert_eq!(m.descriptor().representation, "DFT");
        assert!(!m.descriptor().is_index);
    }

    #[test]
    fn mass_matches_brute_force_on_power_of_two_lengths() {
        let s = store(200, 64);
        let m = MassScan::new(s.clone());
        for q in RandomWalkGenerator::new(77, 64).series_batch(5) {
            let expected = brute_force_knn(s.dataset(), q.values(), 3);
            let got = m.answer_simple(&Query::knn(q, 3)).unwrap();
            assert!(
                got.distances_match(&expected, 1e-3),
                "distances diverge: {got:?} vs {expected:?}"
            );
        }
    }

    #[test]
    fn mass_matches_brute_force_on_non_power_of_two_lengths() {
        // Deep1B-like length 96 exercises the direct DFT path.
        let s = store(100, 96);
        let m = MassScan::new(s.clone());
        let q = RandomWalkGenerator::new(78, 96).series(0);
        let expected = brute_force_knn(s.dataset(), q.values(), 1);
        let got = m.answer_simple(&Query::nearest_neighbor(q)).unwrap();
        assert!(got.distances_match(&expected, 1e-3));
        assert_eq!(got.nearest().unwrap().id, expected.nearest().unwrap().id);
    }

    #[test]
    fn self_query_returns_zero_distance() {
        let s = store(50, 32);
        let m = MassScan::new(s.clone());
        let target = s.dataset().series(7).to_owned_series();
        let ans = m.answer_simple(&Query::nearest_neighbor(target)).unwrap();
        assert_eq!(ans.nearest().unwrap().id, 7);
        assert!(ans.nearest().unwrap().distance < 1e-3);
    }

    #[test]
    fn io_profile_is_one_sequential_pass() {
        let s = store(100, 128);
        let m = MassScan::new(s.clone());
        let mut stats = QueryStats::default();
        m.answer(
            &Query::nearest_neighbor(RandomWalkGenerator::new(5, 128).series(0)),
            &mut stats,
        )
        .unwrap();
        assert_eq!(stats.raw_series_examined, 100);
        assert_eq!(stats.random_page_accesses, 1);
        assert!(stats.cpu_time.as_nanos() > 0);
    }

    #[test]
    fn batched_mass_matches_the_serial_loop_with_one_shared_spectrum_pass() {
        use hydra_core::{Parallelism, QueryEngine};
        let queries: Vec<Query> = RandomWalkGenerator::new(91, 64)
            .series_batch(5)
            .into_iter()
            .map(|s| Query::knn(s, 2))
            .collect();
        let s1 = store(150, 64);
        let mut serial =
            QueryEngine::new(Box::new(MassScan::new(s1.clone())), s1.len()).with_io_source(s1);
        let serial_answers: Vec<_> = queries.iter().map(|q| serial.answer(q).unwrap()).collect();

        let s2 = store(150, 64);
        let mut batched = QueryEngine::new(Box::new(MassScan::new(s2.clone())), s2.len())
            .with_io_source(s2.clone());
        let batch_answers = batched.answer_batch(&queries, Parallelism::Serial).unwrap();
        for (a, b) in serial_answers.iter().zip(&batch_answers) {
            assert_eq!(a.answers, b.answers, "distances must be bit-identical");
            assert_eq!(a.stats.raw_series_examined, b.stats.raw_series_examined);
            assert_eq!(
                a.stats.sequential_page_accesses,
                b.stats.sequential_page_accesses
            );
            assert_eq!(a.stats.bytes_read, b.stats.bytes_read);
        }
        // One physical pass amortized over the 5 queries.
        assert_eq!(
            batched.last_batch_io().unwrap().total_pages(),
            s2.total_pages()
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        let m = MassScan::new(store(10, 64));
        assert!(m
            .answer_simple(&Query::nearest_neighbor(Series::new(vec![0.0; 16])))
            .is_err());
    }
}
