//! Fallible verification: the I/O-shaped face of a verifier.
//!
//! [`YesNoVerifier`] models the paper's idealized Eq. 2 oracle — every query
//! returns a probability. Real deployments call a local inference server or a
//! remote API, where queries time out, fail transiently, or return garbage.
//! [`FallibleVerifier`] is that honest signature: `Result<ScoredProbe,
//! VerifierError>` plus an observed latency, so the resilient executor in
//! `hallu-core` can retry, time out, and trip circuit breakers against it.
//!
//! [`Reliable`] adapts any [`YesNoVerifier`] into the fallible world: it never
//! errors, and reports a deterministic simulated latency (a pure function of
//! model name and request, so parallel and sequential runs observe identical
//! timings). Fault injection is layered on top by [`crate::faults`].

use std::fmt;

use hallu_obs::splitmix64;

use crate::sim::fnv1a;
use crate::verifier::{VerificationRequest, YesNoVerifier};

/// Why a verification call produced no usable score.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifierError {
    /// The call exceeded its latency budget.
    Timeout {
        /// The budget the caller imposed, in simulated milliseconds.
        budget_ms: f64,
        /// How long the call would have taken.
        observed_ms: f64,
    },
    /// A transient failure (connection reset, 5xx, decode error): worth
    /// retrying.
    Transient {
        /// Short machine-readable cause.
        reason: &'static str,
    },
    /// The backing model is down; retrying now cannot help.
    Outage,
    /// The model answered, but the payload was not a probability.
    ///
    /// Produced by callers that validate scores at the boundary; the fault
    /// injector itself delivers garbage as `Ok` payloads precisely so that
    /// downstream quarantine logic is exercised.
    InvalidScore {
        /// The offending value (may be NaN or infinite).
        value: f64,
    },
}

impl VerifierError {
    /// Whether retrying the same call can plausibly succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(self, Self::Timeout { .. } | Self::Transient { .. })
    }
}

impl fmt::Display for VerifierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Timeout {
                budget_ms,
                observed_ms,
            } => {
                write!(
                    f,
                    "timed out: {observed_ms:.1}ms observed > {budget_ms:.1}ms budget"
                )
            }
            Self::Transient { reason } => write!(f, "transient failure: {reason}"),
            Self::Outage => write!(f, "model outage"),
            Self::InvalidScore { value } => write!(f, "invalid score {value}"),
        }
    }
}

impl std::error::Error for VerifierError {}

/// A successful verification probe: the score plus how long it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredProbe {
    /// `P(token_1 = "yes")` as reported by the model. Not validated here:
    /// faulty backends may report values outside `[0, 1]` or non-finite
    /// numbers, which the scoring layer quarantines.
    pub p_yes: f64,
    /// Simulated wall-clock cost of the call in milliseconds.
    pub latency_ms: f64,
}

/// A yes/no verifier that can fail.
///
/// This is the only surface the resilient executor talks to; infallible
/// verifiers enter through [`Reliable`].
pub trait FallibleVerifier: Send + Sync {
    /// Model name, stable across calls (keys per-model statistics, breaker
    /// state, and health counters).
    fn name(&self) -> &str;

    /// Attempt one verification probe.
    fn try_p_yes(&self, request: &VerificationRequest<'_>) -> Result<ScoredProbe, VerifierError>;

    /// Attempt one verification probe with the caller naming the attempt
    /// ordinal explicitly.
    ///
    /// This is the episode-pure face of the verifier: the outcome may depend
    /// only on `(request, attempt)`, never on how many times the pair was
    /// asked before. Repeating `try_p_yes_attempt(req, k)` must reproduce the
    /// same result bit-for-bit, which is what makes memoizing a whole probe
    /// episode (attempts `0..n`) semantically invisible — a cache hit replays
    /// exactly what a recomputation would produce. Implementations whose
    /// outcome is already independent of call history (the default) simply
    /// delegate to [`FallibleVerifier::try_p_yes`]; stateful wrappers like the
    /// fault injector key their draws off `attempt` instead of an internal
    /// counter.
    fn try_p_yes_attempt(
        &self,
        request: &VerificationRequest<'_>,
        attempt: u32,
    ) -> Result<ScoredProbe, VerifierError> {
        let _ = attempt;
        self.try_p_yes(request)
    }

    /// See [`YesNoVerifier::exposes_probabilities`].
    fn exposes_probabilities(&self) -> bool {
        true
    }
}

impl FallibleVerifier for Box<dyn FallibleVerifier> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn try_p_yes(&self, request: &VerificationRequest<'_>) -> Result<ScoredProbe, VerifierError> {
        (**self).try_p_yes(request)
    }

    fn try_p_yes_attempt(
        &self,
        request: &VerificationRequest<'_>,
        attempt: u32,
    ) -> Result<ScoredProbe, VerifierError> {
        (**self).try_p_yes_attempt(request, attempt)
    }

    fn exposes_probabilities(&self) -> bool {
        (**self).exposes_probabilities()
    }
}

/// Deterministic simulated service time for one probe.
///
/// Each model gets a stable base latency from its name (8–40 ms, mimicking
/// the spread between a 1.5B and a 2B model on shared hardware); each request
/// adds name-and-input-keyed jitter of up to half the base. Pure function of
/// its arguments: no clocks, no call counters.
pub fn simulated_latency_ms(model: &str, request: &VerificationRequest<'_>) -> f64 {
    let base = 8.0 + (splitmix64(fnv1a(0x1a7e_0c15, &[model])) % 33) as f64;
    let h = fnv1a(
        0x1a7e_0c15,
        &[model, request.question, request.context, request.response],
    );
    let jitter = (splitmix64(h) >> 11) as f64 / (1u64 << 53) as f64;
    base + jitter * base * 0.5
}

/// Adapts an infallible [`YesNoVerifier`] to the [`FallibleVerifier`]
/// interface. Never errors; latency comes from [`simulated_latency_ms`].
#[derive(Debug, Clone)]
pub struct Reliable<V> {
    inner: V,
}

impl<V: YesNoVerifier> Reliable<V> {
    /// Wrap a verifier.
    pub fn new(inner: V) -> Self {
        Self { inner }
    }

    /// The wrapped verifier.
    pub fn inner(&self) -> &V {
        &self.inner
    }
}

impl<V: YesNoVerifier> FallibleVerifier for Reliable<V> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn try_p_yes(&self, request: &VerificationRequest<'_>) -> Result<ScoredProbe, VerifierError> {
        Ok(ScoredProbe {
            p_yes: self.inner.p_yes(request),
            latency_ms: simulated_latency_ms(self.inner.name(), request),
        })
    }

    fn exposes_probabilities(&self) -> bool {
        self.inner.exposes_probabilities()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Constant(f64);
    impl YesNoVerifier for Constant {
        fn name(&self) -> &str {
            "constant"
        }
        fn p_yes(&self, _request: &VerificationRequest<'_>) -> f64 {
            self.0
        }
    }

    #[test]
    fn reliable_preserves_scores_and_never_fails() {
        let v = Reliable::new(Constant(0.42));
        let req = VerificationRequest::new("q", "c", "r");
        let probe = v.try_p_yes(&req).unwrap();
        assert_eq!(probe.p_yes, 0.42);
        assert!(probe.latency_ms > 0.0);
        assert_eq!(v.name(), "constant");
        assert!(v.exposes_probabilities());
    }

    #[test]
    fn latency_is_deterministic_per_input_and_varies_across_inputs() {
        let a = VerificationRequest::new("q", "c", "r1");
        let b = VerificationRequest::new("q", "c", "r2");
        assert_eq!(simulated_latency_ms("m", &a), simulated_latency_ms("m", &a));
        assert_ne!(simulated_latency_ms("m", &a), simulated_latency_ms("m", &b));
        assert_ne!(
            simulated_latency_ms("m", &a),
            simulated_latency_ms("other", &a)
        );
        let lat = simulated_latency_ms("qwen2-sim", &a);
        assert!((8.0..=62.0).contains(&lat), "{lat}");
    }

    #[test]
    fn retryability_classification() {
        assert!(VerifierError::Timeout {
            budget_ms: 1.0,
            observed_ms: 2.0
        }
        .is_retryable());
        assert!(VerifierError::Transient { reason: "reset" }.is_retryable());
        assert!(!VerifierError::Outage.is_retryable());
        assert!(!VerifierError::InvalidScore { value: f64::NAN }.is_retryable());
    }

    #[test]
    fn errors_display() {
        let e = VerifierError::Timeout {
            budget_ms: 50.0,
            observed_ms: 120.0,
        };
        assert!(e.to_string().contains("timed out"));
        assert!(VerifierError::Outage.to_string().contains("outage"));
    }

    #[test]
    fn boxed_trait_objects_delegate() {
        let boxed: Box<dyn FallibleVerifier> = Box::new(Reliable::new(Constant(0.5)));
        let req = VerificationRequest::new("q", "c", "r");
        assert_eq!(boxed.try_p_yes(&req).unwrap().p_yes, 0.5);
        assert_eq!(FallibleVerifier::name(&boxed), "constant");
    }
}
