//! Resilience policy for the sharded service: quorum rules for degraded
//! partial answers, hedged-retry triggering, and per-shard health tracking.
//!
//! Everything here follows the suite's determinism discipline: "time" is
//! simulated cost units priced by the storage [`CostModel`]
//! (hydra_storage::CostModel), never wall clock, and every decision — admit
//! or reject, hedge or not, serve partial or fail — is a pure function of
//! the deterministic event sequence. Same seed ⇒ same degraded answers, same
//! hedges, same breaker traces.

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use hydra_core::{Error, Result, RetryPolicy};
use hydra_storage::FaultPlan;
use std::collections::VecDeque;

/// How many shards must answer before a scatter-gather merge is served.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QuorumPolicy {
    /// Every shard must answer; any shard error fails the request with the
    /// first error in shard order. This is the strict pre-resilience
    /// behaviour, and the default: fault-free runs are bit-identical to it.
    #[default]
    AllShards,
    /// At least `n` shards must answer (clamped to `1..=shards`); the merge
    /// over the survivors is served tagged
    /// [`Guarantee::Partial`](hydra_core::Guarantee::Partial).
    AtLeast(usize),
    /// Any non-empty set of surviving shards is served (equivalent to
    /// `AtLeast(1)`).
    BestEffort,
}

impl QuorumPolicy {
    /// The number of shards (out of `total`) that must answer under this
    /// policy. Always in `1..=total`.
    pub fn required(&self, total: usize) -> usize {
        let total = total.max(1);
        match self {
            QuorumPolicy::AllShards => total,
            QuorumPolicy::AtLeast(n) => (*n).clamp(1, total),
            QuorumPolicy::BestEffort => 1,
        }
    }

    /// Parses `"all"`, `"best-effort"`, or a shard count (`"2"` ⇒
    /// `AtLeast(2)`).
    pub fn parse(text: &str) -> Result<QuorumPolicy> {
        match text {
            "all" => Ok(QuorumPolicy::AllShards),
            "best-effort" => Ok(QuorumPolicy::BestEffort),
            n => n
                .parse::<usize>()
                .ok()
                .filter(|n| *n >= 1)
                .map(QuorumPolicy::AtLeast)
                .ok_or_else(|| {
                    Error::invalid_parameter("quorum", "expected `all`, `best-effort`, or a count")
                }),
        }
    }
}

impl std::fmt::Display for QuorumPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuorumPolicy::AllShards => write!(f, "all"),
            QuorumPolicy::AtLeast(n) => write!(f, "{n}"),
            QuorumPolicy::BestEffort => write!(f, "best-effort"),
        }
    }
}

/// Hedged-retry tuning. A hedge is a speculative second submission of a
/// shard sub-query, launched alongside the primary when the shard's recent
/// answers have been expensive; the hedge re-runs the engine with every read
/// starting its in-place tries at a base past the retry budget (see
/// `EngineHandle::answer_from_attempt`), so planned transient faults that
/// would fail the primary's reads are already cleared for the hedge — a
/// deterministic stand-in for "the retry raced ahead of the slow replica".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HedgeConfig {
    /// Launch a hedge when the shard's last answer cost reaches this
    /// quantile of its recent window (`0.0..=1.0`).
    pub quantile: f64,
    /// How many recent per-answer costs the shard remembers.
    pub window: usize,
    /// Minimum remembered costs before hedging can trigger (a cold shard
    /// never hedges).
    pub min_samples: usize,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        Self {
            quantile: 0.9,
            window: 16,
            min_samples: 4,
        }
    }
}

/// The full resilience policy of a service. The default is exactly the
/// pre-resilience service: strict quorum, no breakers, no hedging, no
/// injected faults, the engines' own retry policies.
#[derive(Clone, Debug, Default)]
pub struct ResilienceConfig {
    /// How many shards must answer before a merge is served.
    pub quorum: QuorumPolicy,
    /// Per-shard circuit breakers; `None` disables breaking.
    pub breaker: Option<BreakerConfig>,
    /// Hedged retries; `None` disables hedging.
    pub hedge: Option<HedgeConfig>,
    /// The fault plan shards derive their independent fault streams from
    /// (via [`FaultPlan::for_shard`]); disabled by default.
    pub shard_faults: FaultPlan,
    /// Overrides every shard engine's retry policy when set (the knob the
    /// chaos lane turns without rebuilding engines through the builder).
    pub retry: Option<RetryPolicy>,
}

/// One shard's health ledger: its breaker, its recent answer costs (the
/// hedging signal), and its outcome counters. The service keeps one per
/// shard behind a mutex; every field is driven only by deterministic events.
#[derive(Clone, Debug)]
pub struct ShardHealth {
    /// The shard's circuit breaker, when breaking is enabled.
    pub breaker: Option<CircuitBreaker>,
    hedge: Option<HedgeConfig>,
    /// Recent per-answer costs in simulated cost units, oldest first.
    recent_cost: VecDeque<u64>,
    /// Sub-queries that answered.
    pub successes: u64,
    /// Sub-queries that failed after engine-level retries.
    pub failures: u64,
    /// Hedges launched alongside primaries.
    pub hedges_launched: u64,
    /// Hedges whose answer was served (the primary failed).
    pub hedges_won: u64,
    /// Sub-queries rejected by the open breaker.
    pub rejected: u64,
}

impl ShardHealth {
    /// A fresh ledger under the given breaker/hedge policy.
    pub fn new(breaker: Option<BreakerConfig>, hedge: Option<HedgeConfig>) -> Self {
        Self {
            breaker: breaker.map(CircuitBreaker::new),
            hedge,
            recent_cost: VecDeque::new(),
            successes: 0,
            failures: 0,
            hedges_launched: 0,
            hedges_won: 0,
            rejected: 0,
        }
    }

    /// Whether the breaker admits the next sub-query (`true` when breaking
    /// is disabled). A denial is counted against the shard.
    pub fn admit(&mut self) -> bool {
        match self.breaker.as_mut() {
            None => true,
            Some(b) => {
                let admitted = b.admit();
                if !admitted {
                    self.rejected += 1;
                }
                admitted
            }
        }
    }

    /// Whether a hedge should accompany the next primary: hedging is
    /// enabled, the window holds enough samples, and the most recent answer
    /// cost sits at or above the configured quantile of the window — i.e.
    /// the shard's latest answer was among its recently slowest.
    pub fn should_hedge(&self) -> bool {
        let Some(cfg) = self.hedge else { return false };
        if self.recent_cost.len() < cfg.min_samples.max(1) {
            return false;
        }
        let Some(&last) = self.recent_cost.back() else {
            return false;
        };
        let mut sorted: Vec<u64> = self.recent_cost.iter().copied().collect();
        sorted.sort_unstable();
        let rank = (cfg.quantile.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).floor() as usize;
        last >= sorted[rank]
    }

    /// Records a hedge launch.
    pub fn record_hedge_launched(&mut self) {
        self.hedges_launched += 1;
    }

    /// Records that the hedge's answer was served over a failed primary.
    pub fn record_hedge_won(&mut self) {
        self.hedges_won += 1;
    }

    /// Records a successful sub-query that cost `cost_units`, feeding both
    /// the hedging window and the breaker clock.
    pub fn record_success(&mut self, cost_units: u64) {
        self.successes += 1;
        let window = self.hedge.map(|h| h.window.max(1)).unwrap_or(0);
        if window > 0 {
            self.recent_cost.push_back(cost_units);
            while self.recent_cost.len() > window {
                self.recent_cost.pop_front();
            }
        }
        if let Some(b) = self.breaker.as_mut() {
            b.record_success(cost_units);
        }
    }

    /// Records a sub-query that failed after engine-level retries.
    pub fn record_failure(&mut self) {
        self.failures += 1;
        if let Some(b) = self.breaker.as_mut() {
            b.record_failure();
        }
    }

    /// A copyable snapshot of the ledger for reporting.
    pub fn report(&self) -> ShardHealthReport {
        ShardHealthReport {
            successes: self.successes,
            failures: self.failures,
            hedges_launched: self.hedges_launched,
            hedges_won: self.hedges_won,
            rejected: self.rejected,
            breaker_state: self.breaker.as_ref().map(|b| b.state()),
            breaker_opened: self.breaker.as_ref().map(|b| b.opened()).unwrap_or(0),
            breaker_denied: self.breaker.as_ref().map(|b| b.denied()).unwrap_or(0),
        }
    }
}

/// A point-in-time snapshot of one shard's health counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardHealthReport {
    /// Sub-queries that answered.
    pub successes: u64,
    /// Sub-queries that failed after engine-level retries.
    pub failures: u64,
    /// Hedges launched.
    pub hedges_launched: u64,
    /// Hedges whose answer was served.
    pub hedges_won: u64,
    /// Sub-queries rejected by the breaker.
    pub rejected: u64,
    /// Breaker state, `None` when breaking is disabled.
    pub breaker_state: Option<BreakerState>,
    /// Times the breaker tripped open.
    pub breaker_opened: u64,
    /// Admissions the breaker denied.
    pub breaker_denied: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_required_clamps_to_the_shard_count() {
        assert_eq!(QuorumPolicy::AllShards.required(4), 4);
        assert_eq!(QuorumPolicy::AtLeast(2).required(4), 2);
        assert_eq!(QuorumPolicy::AtLeast(9).required(4), 4);
        assert_eq!(QuorumPolicy::AtLeast(0).required(4), 1);
        assert_eq!(QuorumPolicy::BestEffort.required(4), 1);
        assert_eq!(QuorumPolicy::AllShards.required(0), 1);
    }

    #[test]
    fn quorum_parse_round_trips_through_display() {
        for text in ["all", "best-effort", "2"] {
            let policy = QuorumPolicy::parse(text).unwrap();
            assert_eq!(policy.to_string(), text);
        }
        assert!(QuorumPolicy::parse("0").is_err());
        assert!(QuorumPolicy::parse("most").is_err());
    }

    #[test]
    fn default_resilience_is_the_strict_pre_resilience_service() {
        let r = ResilienceConfig::default();
        assert_eq!(r.quorum, QuorumPolicy::AllShards);
        assert!(r.breaker.is_none());
        assert!(r.hedge.is_none());
        assert!(!r.shard_faults.is_active());
        assert!(r.retry.is_none());
    }

    #[test]
    fn hedging_needs_warm_samples_and_a_slow_tail() {
        let mut h = ShardHealth::new(
            None,
            Some(HedgeConfig {
                quantile: 0.75,
                window: 8,
                min_samples: 4,
            }),
        );
        h.record_success(10);
        h.record_success(10);
        h.record_success(10);
        assert!(!h.should_hedge(), "cold window never hedges");
        h.record_success(10);
        assert!(
            h.should_hedge(),
            "a uniform window puts the last sample at every quantile"
        );
        h.record_success(5);
        assert!(!h.should_hedge(), "a fast answer sits below the quantile");
        h.record_success(100);
        assert!(h.should_hedge(), "a slow answer sits at the tail");
    }

    #[test]
    fn disabled_hedging_never_triggers() {
        let mut h = ShardHealth::new(None, None);
        for _ in 0..32 {
            h.record_success(1_000);
        }
        assert!(!h.should_hedge());
        assert!(h.recent_cost.is_empty(), "no window is kept when disabled");
    }

    #[test]
    fn health_ledger_feeds_the_breaker_and_counts_outcomes() {
        let mut h = ShardHealth::new(
            Some(BreakerConfig {
                failure_threshold: 2,
                open_duration: 50,
                failure_charge: 10,
                denied_charge: 25,
            }),
            None,
        );
        assert!(h.admit());
        h.record_success(5);
        assert!(h.admit());
        h.record_failure();
        assert!(h.admit());
        h.record_failure();
        assert!(!h.admit(), "two consecutive failures trip the breaker");
        let report = h.report();
        assert_eq!(report.successes, 1);
        assert_eq!(report.failures, 2);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.breaker_opened, 1);
        assert_eq!(report.breaker_state, Some(BreakerState::Open));
    }

    #[test]
    fn breakerless_health_always_admits() {
        let mut h = ShardHealth::new(None, None);
        for _ in 0..10 {
            h.record_failure();
        }
        assert!(h.admit());
        assert_eq!(h.report().breaker_state, None);
    }
}
