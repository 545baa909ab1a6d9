//! Deterministic fault injection for verifiers.
//!
//! [`FaultInjector`] wraps any [`FallibleVerifier`] and makes it misbehave on
//! a seeded, reproducible schedule: transient errors, stalls that blow the
//! latency budget, garbage scores (NaN, negative, > 1, infinite), and hard
//! outages.
//!
//! **Determinism contract.** Every fault decision is a pure function of
//! `(profile.seed, model name, request text, per-request attempt number)` —
//! never of global call order or wall clock. Two runs that issue the same
//! logical calls see the same faults even when thread interleaving differs,
//! which is what lets the `parallel: true/false` bitwise-equality property
//! hold under injected faults.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hallu_obs::{splitmix64, Counter, Obs};

use crate::fallible::{FallibleVerifier, ScoredProbe, VerifierError};
use crate::sim::fnv1a;
use crate::verifier::VerificationRequest;

/// Stall inflation factor: a stalled call takes ~40x its normal latency,
/// far past any sane per-model budget.
pub const STALL_FACTOR: f64 = 40.0;

/// The garbage payloads a faulty backend may report instead of a probability.
pub const GARBAGE_SCORES: [f64; 4] = [f64::NAN, -0.25, 1.5, f64::INFINITY];

/// What faults to inject, and how often.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Seed for all fault draws; same seed, same faults.
    pub seed: u64,
    /// Per-attempt probability of a transient error (`Err(Transient)`).
    pub transient_rate: f64,
    /// Per-attempt probability of a stall: the call "succeeds" but its
    /// latency is inflated by [`STALL_FACTOR`], exceeding any deadline.
    pub stall_rate: f64,
    /// Per-attempt probability of a garbage score delivered as `Ok`: the
    /// failure mode that only downstream quarantine can catch.
    pub garbage_rate: f64,
    /// The model is completely down: every call is `Err(Outage)`.
    pub hard_down: bool,
}

impl FaultProfile {
    /// No faults at all.
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            transient_rate: 0.0,
            stall_rate: 0.0,
            garbage_rate: 0.0,
            hard_down: false,
        }
    }

    /// A mixed profile where each attempt misbehaves with probability
    /// `rate`, split evenly between transient errors, stalls, and garbage
    /// scores. This is the knob the chaos benchmark sweeps.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        let share = rate.clamp(0.0, 1.0) / 3.0;
        Self {
            seed,
            transient_rate: share,
            stall_rate: share,
            garbage_rate: share,
            hard_down: false,
        }
    }

    /// A permanently-down model.
    pub fn down(seed: u64) -> Self {
        Self {
            hard_down: true,
            ..Self::none(seed)
        }
    }
}

/// Cumulative counts of what the injector actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionStats {
    /// Calls that reached the injector.
    pub calls: u64,
    /// `Err(Transient)` results injected.
    pub transients: u64,
    /// Stalled (latency-inflated) successes.
    pub stalls: u64,
    /// Garbage scores delivered as `Ok`.
    pub garbage: u64,
    /// `Err(Outage)` results (hard-down).
    pub outages: u64,
}

/// Registry counter handles for one injector, labeled by model and fault
/// kind. Disconnected (free) unless [`FaultInjector::with_obs`] is used.
#[derive(Debug, Clone, Default)]
struct FaultCounters {
    calls: Counter,
    transients: Counter,
    stalls: Counter,
    garbage: Counter,
    outages: Counter,
}

impl FaultCounters {
    fn register(obs: &Obs, model: &str) -> Self {
        let help = "Faults injected by the deterministic fault injector";
        let kind = |k: &str| {
            obs.counter(
                "hallu_faults_injected_total",
                help,
                &[("model", model), ("kind", k)],
            )
        };
        Self {
            calls: obs.counter(
                "hallu_faults_calls_total",
                "Verifier calls that reached the fault injector",
                &[("model", model)],
            ),
            transients: kind("transient"),
            stalls: kind("stall"),
            garbage: kind("garbage"),
            outages: kind("outage"),
        }
    }
}

/// A [`FallibleVerifier`] wrapper that injects faults per [`FaultProfile`].
pub struct FaultInjector<F> {
    inner: F,
    profile: FaultProfile,
    calls: AtomicU64,
    transients: AtomicU64,
    stalls: AtomicU64,
    garbage: AtomicU64,
    outages: AtomicU64,
    obs: FaultCounters,
    /// Per-request attempt counters, keyed by request hash. Retries of the
    /// same request get fresh fault draws (attempt 0, 1, 2, ...) without
    /// coupling to global call order.
    attempts: Mutex<HashMap<u64, u64>>,
}

impl<F: FallibleVerifier> FaultInjector<F> {
    /// Wrap `inner` with the given fault profile.
    pub fn new(inner: F, profile: FaultProfile) -> Self {
        Self {
            inner,
            profile,
            calls: AtomicU64::new(0),
            transients: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            garbage: AtomicU64::new(0),
            outages: AtomicU64::new(0),
            obs: FaultCounters::default(),
            attempts: Mutex::new(HashMap::new()),
        }
    }

    /// Mirror injection counts into `obs` as
    /// `hallu_faults_injected_total{model, kind}`. Counter increments
    /// commute, so this is safe on the parallel probe path.
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.obs = FaultCounters::register(obs, self.inner.name());
        self
    }

    /// The active profile.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// What has been injected so far.
    pub fn stats(&self) -> InjectionStats {
        InjectionStats {
            calls: self.calls.load(Ordering::Relaxed),
            transients: self.transients.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
            garbage: self.garbage.load(Ordering::Relaxed),
            outages: self.outages.load(Ordering::Relaxed),
        }
    }

    /// Uniform in [0, 1) derived from `key` and a stream tag.
    fn unit(key: u64, stream: u64) -> f64 {
        (splitmix64(key ^ stream) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Count one call and apply the hard-down outage. Shared preamble of
    /// both probe entry points.
    fn admit_call(&self) -> Result<(), VerifierError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.obs.calls.inc();

        if self.profile.hard_down {
            self.outages.fetch_add(1, Ordering::Relaxed);
            self.obs.outages.inc();
            return Err(VerifierError::Outage);
        }
        Ok(())
    }

    /// Apply the rate-based fault modes for one `(request, attempt)` pair.
    /// Pure in its fault decisions: the same pair always draws the same
    /// faults, regardless of what was injected before.
    fn inject(
        &self,
        request: &VerificationRequest<'_>,
        attempt: u64,
    ) -> Result<ScoredProbe, VerifierError> {
        let request_key = fnv1a(
            self.profile.seed,
            &[
                self.inner.name(),
                request.question,
                request.context,
                request.response,
            ],
        );
        let key = splitmix64(request_key ^ attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15));

        if Self::unit(key, 0x0007_a415) < self.profile.transient_rate {
            self.transients.fetch_add(1, Ordering::Relaxed);
            self.obs.transients.inc();
            return Err(VerifierError::Transient { reason: "injected" });
        }

        let mut probe = self.inner.try_p_yes(request)?;

        if Self::unit(key, 0x06a4_ba6e) < self.profile.garbage_rate {
            self.garbage.fetch_add(1, Ordering::Relaxed);
            self.obs.garbage.inc();
            probe.p_yes = GARBAGE_SCORES[(splitmix64(key ^ 0x6a4b) % 4) as usize];
            return Ok(probe);
        }

        if Self::unit(key, 0x57a11) < self.profile.stall_rate {
            self.stalls.fetch_add(1, Ordering::Relaxed);
            self.obs.stalls.inc();
            probe.latency_ms *= STALL_FACTOR;
        }

        Ok(probe)
    }
}

impl<F: FallibleVerifier> FallibleVerifier for FaultInjector<F> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn exposes_probabilities(&self) -> bool {
        self.inner.exposes_probabilities()
    }

    fn try_p_yes(&self, request: &VerificationRequest<'_>) -> Result<ScoredProbe, VerifierError> {
        self.admit_call()?;

        let request_key = fnv1a(
            self.profile.seed,
            &[
                self.inner.name(),
                request.question,
                request.context,
                request.response,
            ],
        );
        let attempt = {
            let mut attempts = self.attempts.lock().unwrap_or_else(|e| e.into_inner());
            let n = attempts.entry(request_key).or_insert(0);
            let current = *n;
            *n += 1;
            current
        };
        self.inject(request, attempt)
    }

    /// Episode-pure probe: the fault draw is keyed by the caller-supplied
    /// attempt ordinal, not the internal per-request counter, so asking for
    /// `(request, attempt)` twice yields the same outcome bit-for-bit. This
    /// is what lets the verification cache memoize probe episodes without
    /// changing what an uncached rerun would observe. The call counter is a
    /// statistic only; no fault decision reads it.
    fn try_p_yes_attempt(
        &self,
        request: &VerificationRequest<'_>,
        attempt: u32,
    ) -> Result<ScoredProbe, VerifierError> {
        self.admit_call()?;
        self.inject(request, u64::from(attempt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fallible::Reliable;
    use crate::verifier::YesNoVerifier;

    struct Constant(f64);
    impl YesNoVerifier for Constant {
        fn name(&self) -> &str {
            "constant"
        }
        fn p_yes(&self, _request: &VerificationRequest<'_>) -> f64 {
            self.0
        }
    }

    fn request(i: usize) -> String {
        format!("response number {i}")
    }

    #[test]
    fn zero_rate_profile_is_transparent() {
        let inj = FaultInjector::new(Reliable::new(Constant(0.6)), FaultProfile::none(1));
        let plain = Reliable::new(Constant(0.6));
        for i in 0..50 {
            let r = request(i);
            let req = VerificationRequest::new("q", "c", &r);
            assert_eq!(inj.try_p_yes(&req).unwrap(), plain.try_p_yes(&req).unwrap());
        }
        let stats = inj.stats();
        assert_eq!(stats.calls, 50);
        assert_eq!(
            (stats.transients, stats.stalls, stats.garbage, stats.outages),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn uniform_at_zero_rate_is_the_fault_free_profile() {
        for seed in [0, 1, 1000, u64::MAX] {
            assert_eq!(FaultProfile::uniform(seed, 0.0), FaultProfile::none(seed));
        }
    }

    #[test]
    fn hard_down_always_outage() {
        let inj = FaultInjector::new(Reliable::new(Constant(0.6)), FaultProfile::down(1));
        let req = VerificationRequest::new("q", "c", "r");
        for _ in 0..5 {
            assert_eq!(inj.try_p_yes(&req).unwrap_err(), VerifierError::Outage);
        }
        assert_eq!(inj.stats().outages, 5);
    }

    #[test]
    fn faults_are_keyed_by_request_and_attempt_not_call_order() {
        let profile = FaultProfile::uniform(7, 0.6);
        let a = FaultInjector::new(Reliable::new(Constant(0.6)), profile.clone());
        let b = FaultInjector::new(Reliable::new(Constant(0.6)), profile);
        // a: forward order; b: reverse order. Same per-request outcomes.
        let reqs: Vec<String> = (0..40).map(request).collect();
        let mut out_a = Vec::new();
        for r in &reqs {
            out_a.push(a.try_p_yes(&VerificationRequest::new("q", "c", r)).is_ok());
        }
        let mut out_b: Vec<bool> = reqs
            .iter()
            .rev()
            .map(|r| b.try_p_yes(&VerificationRequest::new("q", "c", r)).is_ok())
            .collect();
        out_b.reverse();
        assert_eq!(out_a, out_b);
    }

    #[test]
    fn retries_of_one_request_get_fresh_draws() {
        let profile = FaultProfile {
            transient_rate: 0.5,
            ..FaultProfile::none(3)
        };
        let inj = FaultInjector::new(Reliable::new(Constant(0.6)), profile);
        let req = VerificationRequest::new("q", "c", "r");
        let outcomes: Vec<bool> = (0..64).map(|_| inj.try_p_yes(&req).is_ok()).collect();
        // With fresh draws per attempt, a 0.5 transient rate cannot produce
        // 64 identical outcomes.
        assert!(outcomes.iter().any(|&ok| ok) && outcomes.iter().any(|&ok| !ok));
    }

    #[test]
    fn attempt_keyed_probes_match_counter_driven_sequence() {
        // For a fresh injector, the k-th try_p_yes of a request and an
        // explicit try_p_yes_attempt(request, k) draw the same faults.
        let profile = FaultProfile::uniform(7, 0.6);
        let by_counter = FaultInjector::new(Reliable::new(Constant(0.6)), profile.clone());
        let by_attempt = FaultInjector::new(Reliable::new(Constant(0.6)), profile);
        let bits = |r: Result<ScoredProbe, VerifierError>| {
            r.map(|p| (p.p_yes.to_bits(), p.latency_ms.to_bits()))
        };
        for i in 0..10 {
            let r = request(i);
            let req = VerificationRequest::new("q", "c", &r);
            for k in 0..4u32 {
                assert_eq!(
                    bits(by_counter.try_p_yes(&req)),
                    bits(by_attempt.try_p_yes_attempt(&req, k)),
                    "request {i} attempt {k}"
                );
            }
        }
    }

    #[test]
    fn attempt_keyed_probes_are_idempotent() {
        // Repeating the same (request, attempt) pair reproduces the same
        // outcome — the property that makes probe-episode memoization safe.
        let profile = FaultProfile::uniform(13, 0.7);
        let inj = FaultInjector::new(Reliable::new(Constant(0.6)), profile);
        let req = VerificationRequest::new("q", "c", "repeated response");
        // Compare by bits so injected NaN garbage scores still compare equal.
        let bits = |r: Result<ScoredProbe, VerifierError>| {
            r.map(|p| (p.p_yes.to_bits(), p.latency_ms.to_bits()))
        };
        for k in 0..6u32 {
            let first = bits(inj.try_p_yes_attempt(&req, k));
            for _ in 0..3 {
                assert_eq!(bits(inj.try_p_yes_attempt(&req, k)), first, "attempt {k}");
            }
        }
        // Calls are still counted even though draws are pure.
        assert_eq!(inj.stats().calls, 24);
    }

    #[test]
    fn rates_are_roughly_honored() {
        let profile = FaultProfile::uniform(11, 0.3);
        let inj = FaultInjector::new(Reliable::new(Constant(0.6)), profile);
        for i in 0..2000 {
            let r = request(i);
            let _ = inj.try_p_yes(&VerificationRequest::new("q", "c", &r));
        }
        let stats = inj.stats();
        // Each mode targets 10% of 2000 = 200; allow generous slack.
        for (name, count) in [
            ("transient", stats.transients),
            ("stall", stats.stalls),
            ("garbage", stats.garbage),
        ] {
            assert!(
                (120..=290).contains(&count),
                "{name} injected {count} times"
            );
        }
    }

    #[test]
    fn obs_counters_mirror_injection_stats() {
        let obs = Obs::new();
        let profile = FaultProfile::uniform(11, 0.5);
        let inj = FaultInjector::new(Reliable::new(Constant(0.6)), profile).with_obs(&obs);
        for i in 0..200 {
            let r = request(i);
            let _ = inj.try_p_yes(&VerificationRequest::new("q", "c", &r));
        }
        let stats = inj.stats();
        assert!(stats.transients > 0 && stats.stalls > 0 && stats.garbage > 0);
        let snap = obs.metrics_snapshot();
        let model = [("model", "constant")];
        assert_eq!(
            snap.value("hallu_faults_calls_total", &model),
            Some(stats.calls as f64)
        );
        for (kind, count) in [
            ("transient", stats.transients),
            ("stall", stats.stalls),
            ("garbage", stats.garbage),
            ("outage", stats.outages),
        ] {
            assert_eq!(
                snap.value(
                    "hallu_faults_injected_total",
                    &[("model", "constant"), ("kind", kind)],
                ),
                Some(count as f64),
                "kind {kind}"
            );
        }
    }

    #[test]
    fn garbage_scores_come_from_the_documented_set() {
        let profile = FaultProfile {
            garbage_rate: 1.0,
            ..FaultProfile::none(5)
        };
        let inj = FaultInjector::new(Reliable::new(Constant(0.6)), profile);
        let mut seen_kinds = 0u8;
        for i in 0..100 {
            let r = request(i);
            let p = inj
                .try_p_yes(&VerificationRequest::new("q", "c", &r))
                .unwrap()
                .p_yes;
            let idx = GARBAGE_SCORES
                .iter()
                .position(|g| (g.is_nan() && p.is_nan()) || *g == p)
                .expect("score from GARBAGE_SCORES");
            seen_kinds |= 1 << idx;
        }
        assert_eq!(seen_kinds, 0b1111, "all four garbage kinds appear");
    }

    #[test]
    fn stalls_inflate_latency_past_normal_range() {
        let profile = FaultProfile {
            stall_rate: 1.0,
            ..FaultProfile::none(5)
        };
        let inj = FaultInjector::new(Reliable::new(Constant(0.6)), profile);
        let plain = Reliable::new(Constant(0.6));
        let req = VerificationRequest::new("q", "c", "r");
        let stalled = inj.try_p_yes(&req).unwrap();
        let normal = plain.try_p_yes(&req).unwrap();
        assert_eq!(stalled.latency_ms, normal.latency_ms * STALL_FACTOR);
        assert_eq!(stalled.p_yes, normal.p_yes);
    }
}
