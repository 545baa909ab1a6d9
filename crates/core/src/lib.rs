//! # hallu-core
//!
//! The paper's primary contribution (§IV): a framework that detects
//! hallucinations in RAG answers by splitting the response into sentences,
//! asking multiple locally-deployed small language models for
//! `P(token_1 = "yes")` on each sentence, normalizing per-model score scales,
//! and aggregating into a single response-level hallucination score.
//!
//! Pipeline (Fig. 2b):
//!
//! ```text
//! response r_i ──Splitter──> r_{i,1} … r_{i,J}
//!   each r_{i,j} ──SLM m──> s_{i,j}^(m) = P(token_1 = yes | q_i, c_i, r_{i,j})   (Eq. 3)
//!   z-normalize per model:   s̃_{i,j}^(m) = (s_{i,j}^(m) − μ_m) / σ_m            (Eq. 4)
//!   ensemble:                s_{i,j} = (1/M) Σ_m s̃_{i,j}^(m)                     (Eq. 5)
//!   checker:                 s_i = harmonic_mean_j(s_{i,j})                       (Eq. 6)
//! ```
//!
//! Eq. 6 requires positive sentence scores; the paper says non-positive
//! values "are adjusted". We make that adjustment explicit: ensemble z-scores
//! are squashed through a logistic map into (0, 1) before aggregation, which
//! preserves their order and keeps every mean in Eq. 6–10 well-defined.
//!
//! Modules:
//! * [`resilient`] — the assembled [`ResilientDetector`]: Splitter → M SLMs
//!   → Checker on the batch engine, with retries, deadlines, circuit
//!   breakers and graceful degradation; it abstains rather than fabricating
//!   a score when no verifier answers. [`ResilientDetector::reliable`] wraps
//!   infallible verifiers for the fault-free case.
//! * [`detector`] — its configuration ([`DetectorConfig`], whose flags are
//!   the ablation axes, including the §VI gating extension) and its
//!   per-response [`DetectionResult`].
//! * [`score`] — the Eq. 2–3 probability-validity check.
//! * [`zscore`] — Eq. 4 running per-model statistics (Welford).
//! * [`ensemble`] — Eq. 5 cross-model combination and the logistic squash.
//! * [`means`] — Eq. 6–10 aggregation means (harmonic/arithmetic/geometric/min/max).
//! * [`resilience`] — retry policies, circuit breakers and the telemetry
//!   each verdict carries.

pub mod detector;
pub mod drift;
pub mod ensemble;
pub mod explain;
pub mod learned;
pub mod means;
mod obs;
pub mod resilience;
pub mod resilient;
pub mod score;
pub mod threshold;
pub mod zscore;

pub use detector::{DetectionResult, DetectorConfig, DetectorError, SentenceDetail};
pub use drift::{DriftMonitor, DriftStatus};
pub use explain::{explain, Confidence, Explanation};
pub use learned::{response_features, LogisticCombiner, ResponseFeatures};
pub use means::AggregationMean;
pub use resilience::{
    BreakerConfig, BreakerState, CircuitBreaker, DegradationLevel, ModelHealth,
    ResilienceTelemetry, RetryPolicy,
};
pub use resilient::{ResilientDetector, Verdict, MISSING_SCORE};
pub use threshold::{fit as fit_threshold, FittedThreshold, Objective};
pub use zscore::{ModelNormalizer, RunningStats};
