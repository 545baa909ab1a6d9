//! Resilience policy primitives: retry with deterministic backoff, per-model
//! circuit breakers, and the telemetry the resilient detector reports.
//!
//! Everything here is *simulated-time* and deterministic: backoff jitter is a
//! hash of (call key, attempt), never a clock or an RNG draw shared across
//! threads, so a fault-injected run replays identically regardless of thread
//! interleaving.

use std::fmt;

use hallu_obs::splitmix64;
use slm_runtime::sim::fnv1a;

/// The key of one verifier call: the unseeded FNV-1a hash of its parts.
pub(crate) fn call_key(parts: &[&str]) -> u64 {
    fnv1a(0, parts)
}

/// Bounded-retry policy with exponential backoff and a per-call deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per call, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, in simulated milliseconds.
    pub base_backoff_ms: f64,
    /// Multiplier applied per retry (exponential backoff).
    pub backoff_factor: f64,
    /// Per-call latency budget: a probe slower than this counts as a
    /// timeout (the caller stops waiting at the deadline).
    pub deadline_ms: f64,
    /// Simulated cost charged for an attempt that fails outright
    /// (connection errors return faster than full inference).
    pub failure_cost_ms: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff_ms: 25.0,
            backoff_factor: 2.0,
            // Normal simulated latencies are 8–62 ms (see
            // `slm_runtime::fallible::simulated_latency_ms`); stalls are 40x.
            // 120 ms passes every healthy call and fails every stall.
            deadline_ms: 120.0,
            failure_cost_ms: 5.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (0-based), with deterministic
    /// jitter in [50%, 100%) of the exponential target, keyed by `key`.
    pub fn backoff_ms(&self, attempt: u32, key: u64) -> f64 {
        let target = self.base_backoff_ms * self.backoff_factor.powi(attempt as i32);
        let h = splitmix64(key ^ u64::from(attempt + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        target * (0.5 + 0.5 * unit)
    }
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Calls skipped while open before a half-open probe is allowed.
    pub cooldown_calls: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 4,
            cooldown_calls: 8,
        }
    }
}

/// Breaker state machine position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow normally.
    Closed,
    /// Calls are skipped; the model gets a rest.
    Open,
    /// One probe call is allowed through to test recovery.
    HalfOpen,
}

/// Per-model health counters, exposed for telemetry and operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelHealth {
    /// Successful calls recorded.
    pub successes: u64,
    /// Failed calls recorded (errors, timeouts, quarantined scores).
    pub failures: u64,
    /// Times the breaker tripped open.
    pub trips: u64,
    /// Current state.
    pub state: BreakerState,
}

/// A closed → open → half-open circuit breaker driven by call outcomes.
///
/// Time-free: cooldown is measured in skipped calls, not wall clock, so the
/// state sequence is a pure function of the outcome sequence.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    skipped_while_open: u32,
    successes: u64,
    failures: u64,
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            skipped_while_open: 0,
            successes: 0,
            failures: 0,
            trips: 0,
        }
    }

    /// Ask permission for one call. While open, counts the skip; after
    /// `cooldown_calls` skips the breaker half-opens and this call becomes
    /// the probe.
    pub fn preflight(&mut self) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                self.skipped_while_open += 1;
                if self.skipped_while_open >= self.config.cooldown_calls {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a successful call (closes a half-open breaker).
    pub fn record_success(&mut self) {
        self.successes += 1;
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
        }
    }

    /// Record a failed call; may trip the breaker.
    pub fn record_failure(&mut self) {
        self.failures += 1;
        self.consecutive_failures += 1;
        let trip = match self.state {
            // a failed half-open probe re-opens immediately
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.consecutive_failures >= self.config.failure_threshold,
            BreakerState::Open => false,
        };
        if trip {
            self.state = BreakerState::Open;
            self.skipped_while_open = 0;
            self.trips += 1;
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times tripped open so far.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Snapshot of the health counters.
    pub fn health(&self) -> ModelHealth {
        ModelHealth {
            successes: self.successes,
            failures: self.failures,
            trips: self.trips,
            state: self.state,
        }
    }
}

/// How much of the ensemble actually contributed to a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationLevel {
    /// Every model scored every sentence.
    Full,
    /// Some (sentence, model) cells were lost, but every sentence was scored
    /// by at least one model.
    Degraded,
    /// Whole sentences were dropped for lack of any surviving score.
    Partial,
    /// Nothing could be scored; the verdict is an explicit abstention.
    Abstained,
}

impl fmt::Display for DegradationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::Full => "full",
            Self::Degraded => "degraded",
            Self::Partial => "partial",
            Self::Abstained => "abstained",
        };
        f.write_str(s)
    }
}

/// What the resilient executor did to produce one verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceTelemetry {
    /// Models that contributed at least one accepted score, in slot order.
    pub models_consulted: Vec<String>,
    /// Models that contributed nothing (all cells failed or skipped).
    pub models_failed: Vec<String>,
    /// Verification attempts issued (including retries).
    pub attempts: u64,
    /// Retries among those attempts.
    pub retries: u64,
    /// Attempts lost to the latency deadline.
    pub timeouts: u64,
    /// Scores rejected for being non-finite or outside [0, 1].
    pub quarantined: u64,
    /// Breaker trips that occurred while scoring this response.
    pub breaker_trips: u64,
    /// Calls skipped because a breaker was open.
    pub breaker_skips: u64,
    /// Sentences dropped without a usable score — model failures and
    /// deadline skips both land here (degradation turns `Partial`).
    pub sentences_dropped: u64,
    /// Of the dropped sentences, how many were never attempted because the
    /// request's deadline budget ran out first (deadline-aware scoring,
    /// [`crate::resilient::ResilientDetector::score_within`]).
    pub deadline_skips: u64,
    /// Degradation classification of the verdict.
    pub degradation: DegradationLevel,
    /// Total simulated time spent (latencies + failure costs + backoffs).
    pub simulated_ms: f64,
}

impl ResilienceTelemetry {
    /// All-zero telemetry at [`DegradationLevel::Full`]: the starting point
    /// every scoring pass accumulates into, and the honest default when no
    /// executor ran at all.
    pub fn empty() -> Self {
        Self {
            models_consulted: Vec::new(),
            models_failed: Vec::new(),
            attempts: 0,
            retries: 0,
            timeouts: 0,
            quarantined: 0,
            breaker_trips: 0,
            breaker_skips: 0,
            sentences_dropped: 0,
            deadline_skips: 0,
            degradation: DegradationLevel::Full,
            simulated_ms: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_with_jitter_bounds() {
        let p = RetryPolicy::default();
        for key in [1u64, 99, 12345] {
            let b0 = p.backoff_ms(0, key);
            let b1 = p.backoff_ms(1, key);
            let b2 = p.backoff_ms(2, key);
            assert!((12.5..25.0).contains(&b0), "{b0}");
            assert!((25.0..50.0).contains(&b1), "{b1}");
            assert!((50.0..100.0).contains(&b2), "{b2}");
        }
    }

    #[test]
    fn backoff_is_deterministic_and_key_sensitive() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ms(1, 42), p.backoff_ms(1, 42));
        assert_ne!(p.backoff_ms(1, 42), p.backoff_ms(1, 43));
    }

    #[test]
    fn breaker_trips_after_threshold_consecutive_failures() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown_calls: 2,
        });
        assert!(b.preflight());
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown_calls: 2,
        });
        b.record_failure();
        b.record_failure();
        b.record_success();
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "streak was reset");
    }

    #[test]
    fn open_breaker_skips_then_half_opens_then_recovers() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_calls: 3,
        });
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        // two skips, then the third preflight is the half-open probe
        assert!(!b.preflight());
        assert!(!b.preflight());
        assert!(b.preflight());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn failed_probe_reopens_immediately() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_calls: 1,
        });
        b.record_failure();
        assert!(b.preflight(), "cooldown of 1 half-opens on the first skip");
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn health_snapshot_counts() {
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        b.record_success();
        b.record_success();
        b.record_failure();
        let h = b.health();
        assert_eq!((h.successes, h.failures, h.trips), (2, 1, 0));
        assert_eq!(h.state, BreakerState::Closed);
    }

    #[test]
    fn degradation_levels_display() {
        assert_eq!(DegradationLevel::Full.to_string(), "full");
        assert_eq!(DegradationLevel::Abstained.to_string(), "abstained");
    }

    #[test]
    fn call_key_separates_parts() {
        assert_ne!(call_key(&["ab", "c"]), call_key(&["a", "bc"]));
        assert_eq!(call_key(&["x", "y"]), call_key(&["x", "y"]));
    }

    /// Legal state transitions of the breaker machine. `Closed → HalfOpen`
    /// and `Open → Closed` are the skips the design forbids: a breaker must
    /// pass through `Open` to rest and through `HalfOpen` to prove recovery.
    fn transition_is_legal(from: BreakerState, to: BreakerState) -> bool {
        use BreakerState::{Closed, HalfOpen, Open};
        matches!(
            (from, to),
            (Closed, Closed)
                | (Closed, Open)
                | (Open, Open)
                | (Open, HalfOpen)
                | (HalfOpen, Closed)
                | (HalfOpen, Open)
                | (HalfOpen, HalfOpen)
        )
    }

    proptest::proptest! {
        /// Under ANY interleaving of preflight/success/failure events, the
        /// state machine never skips a state.
        #[test]
        fn breaker_never_skips_states(
            failure_threshold in 1u32..=6,
            cooldown_calls in 1u32..=10,
            events in proptest::collection::vec(0u8..3, 0..200),
        ) {
            let mut b = CircuitBreaker::new(BreakerConfig { failure_threshold, cooldown_calls });
            for e in events {
                let before = b.state();
                match e {
                    0 => { b.preflight(); }
                    1 => b.record_success(),
                    _ => b.record_failure(),
                }
                proptest::prop_assert!(
                    transition_is_legal(before, b.state()),
                    "illegal transition {before:?} -> {:?} on event {e}",
                    b.state()
                );
            }
        }

        /// An open breaker never denies more than `cooldown_calls` probes in
        /// a row: the cooldown-th preflight half-opens it and is admitted.
        #[test]
        fn breaker_never_stays_open_past_cooldown(
            failure_threshold in 1u32..=6,
            cooldown_calls in 1u32..=10,
            events in proptest::collection::vec(0u8..3, 0..200),
        ) {
            let mut b = CircuitBreaker::new(BreakerConfig { failure_threshold, cooldown_calls });
            let mut denied_in_a_row = 0u32;
            for e in events {
                match e {
                    0 => {
                        if b.preflight() {
                            denied_in_a_row = 0;
                        } else {
                            denied_in_a_row += 1;
                            proptest::prop_assert!(
                                denied_in_a_row < cooldown_calls,
                                "denied {denied_in_a_row} probes with cooldown {cooldown_calls}"
                            );
                        }
                    }
                    1 => b.record_success(),
                    _ => b.record_failure(),
                }
                if b.state() != BreakerState::Open {
                    denied_in_a_row = 0;
                }
            }
        }

        /// `preflight` admits a call iff the breaker is not resting: denial
        /// happens only in `Open`, and a denial leaves it `Open`.
        #[test]
        fn breaker_denies_only_while_open(
            failure_threshold in 1u32..=6,
            cooldown_calls in 1u32..=10,
            events in proptest::collection::vec(0u8..3, 0..200),
        ) {
            let mut b = CircuitBreaker::new(BreakerConfig { failure_threshold, cooldown_calls });
            for e in events {
                match e {
                    0 => {
                        let before = b.state();
                        let admitted = b.preflight();
                        if !admitted {
                            proptest::prop_assert_eq!(before, BreakerState::Open);
                            proptest::prop_assert_eq!(b.state(), BreakerState::Open);
                        }
                        if before != BreakerState::Open {
                            proptest::prop_assert!(admitted);
                        }
                    }
                    1 => b.record_success(),
                    _ => b.record_failure(),
                }
            }
        }

        /// Driving the full call protocol (preflight-gated outcomes) with
        /// arbitrary results: the breaker trips exactly on the
        /// `failure_threshold`-th consecutive failure, and the trip counter
        /// moves only on a `* -> Open` edge.
        #[test]
        fn breaker_trips_exactly_at_threshold(
            failure_threshold in 1u32..=6,
            cooldown_calls in 1u32..=10,
            outcomes in proptest::collection::vec(proptest::bool::ANY, 0..200),
        ) {
            let mut b = CircuitBreaker::new(BreakerConfig { failure_threshold, cooldown_calls });
            let mut consecutive_failures = 0u32;
            for ok in outcomes {
                let before = b.state();
                let trips_before = b.trips();
                if !b.preflight() {
                    continue;
                }
                if ok {
                    b.record_success();
                    consecutive_failures = 0;
                } else {
                    b.record_failure();
                    consecutive_failures += 1;
                }
                let tripped = b.trips() > trips_before;
                if tripped {
                    proptest::prop_assert_eq!(b.state(), BreakerState::Open);
                    proptest::prop_assert!(
                        !ok,
                        "a success can never trip the breaker"
                    );
                }
                // a closed breaker trips iff the streak reaches threshold
                if before == BreakerState::Closed && !ok {
                    proptest::prop_assert_eq!(
                        tripped,
                        consecutive_failures >= failure_threshold
                    );
                }
                // a failed half-open probe re-opens unconditionally
                if before == BreakerState::HalfOpen && !ok {
                    proptest::prop_assert!(tripped);
                }
            }
        }
    }
}
