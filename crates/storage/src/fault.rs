//! Deterministic fault injection for the instrumented store.
//!
//! A [`FaultPlan`] decides — as a **pure function** of its seed, a fault
//! stream, the access key (series id / snapshot name hash), and the retry
//! attempt — whether a given storage access fails and how. The attempt is
//! the read's own try number: the store re-reads a faulted key in place
//! under the calling thread's `hydra_core::ReadRetryScope`, trying
//! attempts `base`, `base + 1`, … until the planned failures clear or the
//! retry policy's tries run out. Nothing is drawn from a stateful RNG, so
//! the fault sequence is independent of thread interleaving and batch
//! order: the same seed produces the same faults for every access no matter
//! how the workload is scheduled, which preserves the repo's bit-identity
//! discipline (chaos runs are reproducible, and a disabled plan is exactly
//! today's fault-free behaviour).
//!
//! The taxonomy mirrors what a disk-bound similarity-search service actually
//! sees:
//!
//! * **transient read errors** (`EINTR`-style hiccups) — retriable; each
//!   faulting key has a *planned failure count*, so a retry policy with
//!   enough attempts always clears them;
//! * **page bit-flips** detected by a checksum — surfaced as
//!   `InvalidData`, also retriable (a re-read models fetching the page from
//!   a replica), with their own planned failure count;
//! * **latency surcharges** — extra *cost-model* pages charged to the
//!   counters on every try of a read (never wall clock, so modelled I/O
//!   time degrades deterministically);
//! * **snapshot corruption** — a byte flipped in a just-written snapshot
//!   file, exercising the quarantine-and-rebuild recovery path.

/// Per-fault-class rates and knobs. All rates are probabilities in `[0, 1]`
/// and default to zero (no faults).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Probability that a read key suffers transient read errors.
    pub read_error: f64,
    /// Probability that a read key suffers detected page bit-flips.
    pub bit_flip: f64,
    /// Probability that a read is charged a latency surcharge.
    pub latency: f64,
    /// Surcharge size in random cost-model pages.
    pub latency_pages: u64,
    /// Probability that a saved snapshot is corrupted on disk.
    pub snapshot_corruption: f64,
    /// Upper bound on a faulting key's planned failure count: a transient
    /// fault (or bit-flip) on a key clears after `1..=max_transient_attempts`
    /// failed attempts, so a retry policy with more attempts always recovers.
    pub max_transient_attempts: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            read_error: 0.0,
            bit_flip: 0.0,
            latency: 0.0,
            latency_pages: 4,
            snapshot_corruption: 0.0,
            max_transient_attempts: 2,
        }
    }
}

impl FaultConfig {
    /// A moderate all-classes mix for CLI-driven chaos runs (`--fault-seed`):
    /// a few percent of keys hiccup or flip, one in twenty reads pays a
    /// latency surcharge, one in five snapshot saves is corrupted. Every
    /// transient clears within two attempts, so the default retry policy
    /// always recovers.
    pub fn standard() -> Self {
        Self {
            read_error: 0.03,
            bit_flip: 0.01,
            latency: 0.05,
            latency_pages: 4,
            snapshot_corruption: 0.2,
            max_transient_attempts: 2,
        }
    }
}

/// The class of an injected read failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadError {
    /// A transient I/O hiccup (maps to [`std::io::ErrorKind::Interrupted`]).
    Transient,
    /// A detected page bit-flip (maps to [`std::io::ErrorKind::InvalidData`]).
    Corruption,
}

impl ReadError {
    /// The injected failure as an [`std::io::Error`].
    pub fn to_io_error(self) -> std::io::Error {
        match self {
            ReadError::Transient => std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "transient read fault (injected)",
            ),
            ReadError::Corruption => std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "page bit-flip detected (injected)",
            ),
        }
    }
}

/// What the plan decided for one read access.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReadOutcome {
    /// The injected failure, if any.
    pub error: Option<ReadError>,
    /// Extra random cost-model pages to charge for this access.
    pub surcharge_pages: u64,
}

impl ReadOutcome {
    /// A clean access: no error, no surcharge.
    pub fn clean() -> Self {
        Self {
            error: None,
            surcharge_pages: 0,
        }
    }
}

// Distinct fault streams, so e.g. the read-error and bit-flip decisions for
// the same key are independent draws.
const STREAM_READ_ERROR: u64 = 1;
const STREAM_READ_COUNT: u64 = 2;
const STREAM_BIT_FLIP: u64 = 3;
const STREAM_FLIP_COUNT: u64 = 4;
const STREAM_LATENCY: u64 = 5;
const STREAM_SNAPSHOT: u64 = 6;

/// A seeded, deterministic fault plan. See the module docs for the contract.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    config: FaultConfig,
    active: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::disabled()
    }
}

impl FaultPlan {
    /// The no-fault plan: every decision is "clean", bit-identical to a store
    /// without fault injection.
    pub fn disabled() -> Self {
        Self {
            seed: 0,
            config: FaultConfig::default(),
            active: false,
        }
    }

    /// A plan that injects faults at the configured rates, keyed on `seed`.
    pub fn seeded(seed: u64, config: FaultConfig) -> Self {
        Self {
            seed,
            config,
            active: true,
        }
    }

    /// Whether this plan injects any faults at all.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The plan's seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's configuration.
    #[inline]
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Derives the fault plan of shard `shard`: the same configuration under
    /// a seed mixed from `(seed, shard)`, so every shard draws an
    /// **independent** deterministic fault stream — shard 0's faulting keys
    /// are uncorrelated with shard 1's, exactly like independent disks
    /// failing independently. Derivation is a pure function (same base seed
    /// and shard index ⇒ same derived plan), and deriving from a disabled
    /// plan stays disabled. Note the derived seed differs from the base seed
    /// even for shard 0: per-shard streams are a separate universe from the
    /// unsharded stream, so re-partitioning never replays the old faults.
    pub fn for_shard(&self, shard: usize) -> FaultPlan {
        if !self.active {
            return *self;
        }
        // splitmix64 finalizer over the (seed, shard) mix, matching the
        // per-access hash's mixing quality so adjacent shards decorrelate.
        let mut z = self.seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(
            (shard as u64)
                .wrapping_add(1)
                .wrapping_mul(0xd1342543de82ef95),
        );
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        FaultPlan::seeded(z ^ (z >> 31), self.config)
    }

    /// splitmix64-style finalizer over (seed, stream, key, attempt).
    fn hash(&self, stream: u64, key: u64, attempt: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(stream.wrapping_mul(0xd1342543de82ef95))
            .wrapping_add(key.wrapping_mul(0x2545f4914f6cdd1d))
            .wrapping_add(attempt.wrapping_mul(0x94d049bb133111eb));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)` — a pure function of its arguments.
    fn unit(&self, stream: u64, key: u64, attempt: u64) -> f64 {
        (self.hash(stream, key, attempt) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// How many attempts a faulting key fails before clearing (`1..=max`).
    fn planned_failures(&self, count_stream: u64, key: u64) -> u64 {
        let max = u64::from(self.config.max_transient_attempts.max(1));
        1 + self.hash(count_stream, key, 0) % max
    }

    /// The plan's decision for reading `key` on retry `attempt` (0-based).
    ///
    /// The *whether this key faults* draws ignore the attempt, while the
    /// planned failure count bounds how long the fault persists — so a
    /// faulting read fails identically on every run, and clears after the
    /// same number of retries on every run.
    pub fn read_outcome(&self, key: u64, attempt: u32) -> ReadOutcome {
        if !self.active {
            return ReadOutcome::clean();
        }
        let surcharge_pages = if self.config.latency > 0.0
            && self.unit(STREAM_LATENCY, key, u64::from(attempt)) < self.config.latency
        {
            self.config.latency_pages
        } else {
            0
        };
        let error = if self.config.read_error > 0.0
            && self.unit(STREAM_READ_ERROR, key, 0) < self.config.read_error
            && u64::from(attempt) < self.planned_failures(STREAM_READ_COUNT, key)
        {
            Some(ReadError::Transient)
        } else if self.config.bit_flip > 0.0
            && self.unit(STREAM_BIT_FLIP, key, 0) < self.config.bit_flip
            && u64::from(attempt) < self.planned_failures(STREAM_FLIP_COUNT, key)
        {
            Some(ReadError::Corruption)
        } else {
            None
        };
        ReadOutcome {
            error,
            surcharge_pages,
        }
    }

    /// Whether the snapshot identified by `key` should be corrupted on save.
    pub fn corrupt_snapshot(&self, key: u64) -> bool {
        self.active
            && self.config.snapshot_corruption > 0.0
            && self.unit(STREAM_SNAPSHOT, key, 0) < self.config.snapshot_corruption
    }
}

/// FNV-1a over arbitrary bytes: the key for path-identified accesses
/// (snapshot files), so the same file always draws the same fault decisions.
pub fn key_for_bytes(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaos_config() -> FaultConfig {
        FaultConfig {
            read_error: 0.3,
            bit_flip: 0.2,
            latency: 0.25,
            latency_pages: 4,
            snapshot_corruption: 0.5,
            max_transient_attempts: 3,
        }
    }

    #[test]
    fn disabled_plan_is_always_clean() {
        let plan = FaultPlan::disabled();
        assert!(!plan.is_active());
        for key in 0..1000 {
            assert_eq!(plan.read_outcome(key, 0), ReadOutcome::clean());
            assert!(!plan.corrupt_snapshot(key));
        }
    }

    #[test]
    fn same_seed_same_decisions() {
        let a = FaultPlan::seeded(42, chaos_config());
        let b = FaultPlan::seeded(42, chaos_config());
        for key in 0..2000 {
            for attempt in 0..4 {
                assert_eq!(a.read_outcome(key, attempt), b.read_outcome(key, attempt));
            }
            assert_eq!(a.corrupt_snapshot(key), b.corrupt_snapshot(key));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::seeded(1, chaos_config());
        let b = FaultPlan::seeded(2, chaos_config());
        let differs = (0..2000).any(|key| a.read_outcome(key, 0) != b.read_outcome(key, 0));
        assert!(differs);
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan::seeded(7, chaos_config());
        let n = 10_000u64;
        let errors = (0..n)
            .filter(|&k| plan.read_outcome(k, 0).error.is_some())
            .count() as f64
            / n as f64;
        // read_error ∪ bit_flip ≈ 0.3 + 0.7·0.2 = 0.44.
        assert!((0.35..0.55).contains(&errors), "error rate {errors}");
        let surcharged = (0..n)
            .filter(|&k| plan.read_outcome(k, 0).surcharge_pages > 0)
            .count() as f64
            / n as f64;
        assert!(
            (0.2..0.3).contains(&surcharged),
            "latency rate {surcharged}"
        );
    }

    #[test]
    fn transient_faults_clear_within_the_planned_attempts() {
        let plan = FaultPlan::seeded(11, chaos_config());
        let max = u32::from(chaos_config().max_transient_attempts as u16);
        for key in 0..2000 {
            if plan.read_outcome(key, 0).error.is_some() {
                // By attempt `max` every planned failure count is exhausted.
                assert_eq!(plan.read_outcome(key, max).error, None, "key {key}");
            }
        }
    }

    #[test]
    fn shard_derivation_is_deterministic_and_independent() {
        let base = FaultPlan::seeded(42, chaos_config());
        // Pure function: same base and shard index, same derived plan.
        assert_eq!(base.for_shard(0), base.for_shard(0));
        assert_eq!(base.for_shard(3), base.for_shard(3));
        // Shards draw distinct streams — and none replays the base stream.
        let seeds: Vec<u64> = (0..4).map(|s| base.for_shard(s).seed()).collect();
        for (i, &a) in seeds.iter().enumerate() {
            assert_ne!(a, base.seed(), "shard {i} must not replay the base");
            for &b in &seeds[i + 1..] {
                assert_ne!(a, b, "shards must draw independent streams");
            }
        }
        // The configuration rides along unchanged.
        assert_eq!(*base.for_shard(1).config(), chaos_config());
        // Streams decorrelate: two shards disagree on at least one key.
        let (s0, s1) = (base.for_shard(0), base.for_shard(1));
        assert!((0..2000).any(|k| s0.read_outcome(k, 0) != s1.read_outcome(k, 0)));
    }

    #[test]
    fn shard_derivation_of_a_disabled_plan_stays_disabled() {
        let plan = FaultPlan::disabled().for_shard(2);
        assert!(!plan.is_active());
        assert_eq!(plan.read_outcome(7, 0), ReadOutcome::clean());
    }

    #[test]
    fn byte_keys_are_stable() {
        assert_eq!(key_for_bytes(b"snapshot"), key_for_bytes(b"snapshot"));
        assert_ne!(key_for_bytes(b"a"), key_for_bytes(b"b"));
    }
}
