//! The guarded QA pipeline: answer, verify, explain — one call.
//!
//! [`ResilientVerifiedPipeline`] is the downstream-user API the README's
//! `hr_assistant` example uses: RAG generation (Fig. 2a) with the detection
//! framework (Fig. 2b) run through [`ResilientDetector`], returning a served
//! answer or a structured refusal with the suspected hallucination. A
//! [`FailurePolicy`] knob decides what happens when every verifier is down
//! and the detector abstains — serve unverified (fail-open), block
//! (fail-closed), or surface the abstention to the caller.

use hallu_core::{explain, Confidence, ResilienceTelemetry, ResilientDetector, Verdict};
use hallu_obs::Obs;
use vectordb::error::VectorDbError;
use vectordb::index::VectorIndex;

use crate::generate::GenerationMode;
use crate::pipeline::{RagAnswer, RagPipeline};

/// What to do with an answer when verification abstains (every verifier
/// failed and no sentence could be scored).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Serve the answer unverified. Availability over safety: right for
    /// low-stakes assistants where an unchecked answer beats no answer.
    FailOpen,
    /// Block the answer. Safety over availability: right for high-stakes
    /// domains where serving an unchecked answer is worse than refusing.
    FailClosed,
    /// Surface the abstention as its own outcome and let the caller decide.
    Abstain,
}

/// Outcome of a guarded question under the resilient pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ResilientAnswer {
    /// Verification ran (possibly degraded) and the answer passed.
    Served {
        /// The generated answer and its provenance.
        answer: RagAnswer,
        /// The verification score `s_i`.
        score: f64,
        /// Verdict confidence.
        confidence: Confidence,
        /// What the fault-tolerant executor did.
        telemetry: ResilienceTelemetry,
    },
    /// Verification ran and the answer was blocked.
    Blocked {
        /// The answer that was withheld (for logging/review).
        answer: RagAnswer,
        /// The verification score `s_i`.
        score: f64,
        /// The sentence most likely hallucinated.
        suspected_sentence: Option<String>,
        /// What the fault-tolerant executor did.
        telemetry: ResilienceTelemetry,
    },
    /// The detector abstained and [`FailurePolicy::FailOpen`] /
    /// [`FailurePolicy::FailClosed`] decided the disposition.
    Unverified {
        /// The answer in question.
        answer: RagAnswer,
        /// `true` under fail-open (answer was served unchecked), `false`
        /// under fail-closed (answer was withheld).
        served: bool,
        /// Why verification produced nothing.
        telemetry: ResilienceTelemetry,
    },
    /// The detector abstained and the policy surfaces that fact: the system
    /// explicitly says "I cannot verify this right now".
    Abstained {
        /// The answer in question (not served).
        answer: RagAnswer,
        /// Why verification produced nothing.
        telemetry: ResilienceTelemetry,
    },
}

impl ResilientAnswer {
    /// Whether the answer reached the user.
    pub fn is_served(&self) -> bool {
        match self {
            Self::Served { .. } => true,
            Self::Unverified { served, .. } => *served,
            Self::Blocked { .. } | Self::Abstained { .. } => false,
        }
    }

    /// Whether verification actually scored the answer.
    pub fn is_verified(&self) -> bool {
        matches!(self, Self::Served { .. } | Self::Blocked { .. })
    }

    /// Execution telemetry, whatever happened.
    pub fn telemetry(&self) -> &ResilienceTelemetry {
        match self {
            Self::Served { telemetry, .. }
            | Self::Blocked { telemetry, .. }
            | Self::Unverified { telemetry, .. }
            | Self::Abstained { telemetry, .. } => telemetry,
        }
    }
}

/// RAG + fault-tolerant verification under one roof.
pub struct ResilientVerifiedPipeline<I> {
    rag: RagPipeline<I>,
    detector: ResilientDetector,
    /// Serve when `s_i >= threshold`.
    pub threshold: f64,
    /// Disposition of answers the detector cannot verify.
    pub policy: FailurePolicy,
    obs: Obs,
}

impl<I: VectorIndex> ResilientVerifiedPipeline<I> {
    /// Assemble from a RAG pipeline and a (possibly pre-calibrated)
    /// resilient detector.
    pub fn new(
        rag: RagPipeline<I>,
        detector: ResilientDetector,
        threshold: f64,
        policy: FailurePolicy,
    ) -> Self {
        Self {
            rag,
            detector,
            threshold,
            policy,
            obs: Obs::off(),
        }
    }

    /// Connect the pipeline (and its detector) to an observability sink:
    /// the detector registers its metric families and starts emitting
    /// spans/flight events, and the guard decision itself (threshold
    /// compare, failure-policy routing) lands in the in-progress flight
    /// record. Scores and verdicts are bitwise unaffected.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.obs = obs.clone();
        self.detector.set_obs(obs);
    }

    /// Builder-style [`set_obs`](Self::set_obs).
    #[must_use]
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.set_obs(obs);
        self
    }

    /// The wrapped RAG pipeline (ingestion etc.).
    pub fn rag(&self) -> &RagPipeline<I> {
        &self.rag
    }

    /// The wrapped resilient detector (cache stats, health, normalizer).
    pub fn detector(&self) -> &ResilientDetector {
        &self.detector
    }

    /// Mutable access to the wrapped detector, for hosts flipping scoring
    /// knobs (e.g. [`DetectorConfig::parallel`]) on an already-built
    /// pipeline. `parallel` is bitwise-neutral to verdicts by the batch
    /// engine's determinism contract; only scheduling changes.
    ///
    /// [`DetectorConfig::parallel`]: hallu_core::DetectorConfig::parallel
    pub fn detector_mut(&mut self) -> &mut ResilientDetector {
        &mut self.detector
    }

    /// Attach a shared verification cache to the detector. Scores and
    /// dispositions stay bitwise-identical (cache hits replay exactly what a
    /// recomputation would produce); only wall-clock work is saved.
    pub fn set_cache(&mut self, cache: std::sync::Arc<slm_runtime::VerificationCache>) {
        self.detector.set_cache(cache);
    }

    /// Builder-style [`set_cache`](Self::set_cache).
    #[must_use]
    pub fn with_cache(mut self, cache: std::sync::Arc<slm_runtime::VerificationCache>) -> Self {
        self.set_cache(cache);
        self
    }

    /// Per-model breaker health, in slot order.
    pub fn health(&self) -> Vec<hallu_core::ModelHealth> {
        self.detector.health()
    }

    /// Warm the detector's Eq. 4 statistics by answering (and discarding)
    /// a list of representative questions. Faulty verifier calls are simply
    /// not observed — calibration cannot be poisoned.
    ///
    /// # Errors
    /// Propagates retrieval failures.
    pub fn warm_up(&mut self, questions: &[&str]) -> Result<(), VectorDbError> {
        for q in questions {
            let a = self.rag.answer(q, GenerationMode::Correct)?;
            self.detector
                .calibrate(&a.question, &a.context, &a.response);
        }
        Ok(())
    }

    /// Answer a question and verify the answer before serving it.
    ///
    /// # Errors
    /// Propagates retrieval failures.
    pub fn ask(&mut self, question: &str) -> Result<ResilientAnswer, VectorDbError> {
        let answer = self.rag.answer(question, GenerationMode::Correct)?;
        Ok(self.ask_with(answer))
    }

    /// Answer a batch of questions with batched verification: all answers
    /// are generated up front (generation is deterministic and stateless),
    /// every (answer, sentence, model) cell is prefetched through the batch
    /// engine into the attached cache — coalescing duplicate questions and
    /// repeated sentences across the batch — and then each answer flows
    /// through the exact per-item guard path.
    ///
    /// Bitwise-identical to calling [`ask`](Self::ask) per question in
    /// order: prefetching never touches breakers, the normalizer, or
    /// telemetry, and cache hits replay precisely what the sequential path
    /// would compute. Without a cache this degrades gracefully to the
    /// sequential path (the prefetch is a no-op).
    ///
    /// # Errors
    /// Propagates retrieval failures (before any verification runs).
    pub fn ask_batch(&mut self, questions: &[&str]) -> Result<Vec<ResilientAnswer>, VectorDbError> {
        let answers: Vec<RagAnswer> = questions
            .iter()
            .map(|q| self.rag.answer(q, GenerationMode::Correct))
            .collect::<Result<_, _>>()?;
        let items: Vec<(&str, &str, &str)> = answers
            .iter()
            .map(|a| (a.question.as_str(), a.context.as_str(), a.response.as_str()))
            .collect();
        self.detector.prefetch(&items);
        Ok(answers.into_iter().map(|a| self.ask_with(a)).collect())
    }

    /// [`ask`](Self::ask) with a verification deadline: at most `budget_ms`
    /// of simulated verification time is spent. Sentences the budget cannot
    /// cover are dropped (degrading the verdict to `Partial`), and when no
    /// sentence fits the request resolves through [`FailurePolicy`] exactly
    /// like an all-backends-down abstention. `f64::INFINITY` is bitwise
    /// identical to [`ask`](Self::ask).
    ///
    /// # Errors
    /// Propagates retrieval failures.
    pub fn ask_deadline(
        &mut self,
        question: &str,
        budget_ms: f64,
    ) -> Result<ResilientAnswer, VectorDbError> {
        let answer = self.rag.answer(question, GenerationMode::Correct)?;
        Ok(self.ask_within(answer, budget_ms))
    }

    /// Verify an externally produced answer (e.g. from a different LLM).
    ///
    /// The verification also feeds the running Eq. 4 statistics, so the
    /// detector keeps calibrating on live traffic (invalid scores are never
    /// observed).
    pub fn ask_with(&mut self, answer: RagAnswer) -> ResilientAnswer {
        self.ask_within(answer, f64::INFINITY)
    }

    /// Verify an externally produced answer under a deadline budget
    /// (see [`ask_deadline`](Self::ask_deadline) for the semantics).
    pub fn ask_within(&mut self, answer: RagAnswer, budget_ms: f64) -> ResilientAnswer {
        self.detector
            .calibrate(&answer.question, &answer.context, &answer.response);
        match self.detector.score_within(
            &answer.question,
            &answer.context,
            &answer.response,
            budget_ms,
        ) {
            Verdict::Scored(result) => {
                let verdict = explain(&result, self.threshold);
                if self.obs.enabled() {
                    self.obs.flight(
                        "guard_decision",
                        &[
                            ("score", format!("{:.6}", result.score)),
                            ("threshold", format!("{:.6}", self.threshold)),
                            (
                                "outcome",
                                if verdict.accepted {
                                    "served"
                                } else {
                                    "blocked"
                                }
                                .to_string(),
                            ),
                        ],
                    );
                }
                let telemetry = result.resilience;
                if verdict.accepted {
                    ResilientAnswer::Served {
                        answer,
                        score: result.score,
                        confidence: verdict.confidence,
                        telemetry,
                    }
                } else {
                    ResilientAnswer::Blocked {
                        answer,
                        score: result.score,
                        suspected_sentence: verdict.weakest_sentence.map(|(s, _)| s),
                        telemetry,
                    }
                }
            }
            Verdict::Abstain(telemetry) => {
                if self.obs.enabled() {
                    let (policy, outcome) = match self.policy {
                        FailurePolicy::FailOpen => ("fail_open", "served_unverified"),
                        FailurePolicy::FailClosed => ("fail_closed", "blocked_unverified"),
                        FailurePolicy::Abstain => ("abstain", "abstained"),
                    };
                    self.obs.flight(
                        "guard_decision",
                        &[
                            ("policy", policy.to_string()),
                            ("outcome", outcome.to_string()),
                        ],
                    );
                }
                match self.policy {
                    FailurePolicy::FailOpen => ResilientAnswer::Unverified {
                        answer,
                        served: true,
                        telemetry,
                    },
                    FailurePolicy::FailClosed => ResilientAnswer::Unverified {
                        answer,
                        served: false,
                        telemetry,
                    },
                    FailurePolicy::Abstain => ResilientAnswer::Abstained { answer, telemetry },
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use hallu_core::DetectorConfig;
    use slm_runtime::profiles::{minicpm_sim, qwen2_sim};
    use slm_runtime::verifier::YesNoVerifier;
    use vectordb::flat::FlatIndex;

    /// Guarded by fault-free verifiers.
    fn guarded() -> ResilientVerifiedPipeline<FlatIndex> {
        let detector = ResilientDetector::reliable(
            vec![
                Box::new(qwen2_sim()) as Box<dyn YesNoVerifier>,
                Box::new(minicpm_sim()) as Box<dyn YesNoVerifier>,
            ],
            DetectorConfig::default(),
        )
        .unwrap();
        testkit::pipeline(detector, FailurePolicy::FailClosed)
    }

    #[test]
    fn faithful_answers_are_served() {
        let mut p = guarded();
        match p.ask("From what time does the store operate?").unwrap() {
            ResilientAnswer::Served { score, .. } => assert!(score >= p.threshold),
            other => panic!("expected Served, got {other:?}"),
        }
    }

    #[test]
    fn injected_hallucinations_are_blocked_with_suspect() {
        let mut p = guarded();
        let bad = p
            .rag
            .answer(
                "From what time does the store operate?",
                GenerationMode::Wrong,
            )
            .unwrap();
        match p.ask_with(bad) {
            ResilientAnswer::Blocked {
                suspected_sentence,
                score,
                ..
            } => {
                assert!(score < p.threshold);
                assert!(suspected_sentence.is_some());
            }
            other => panic!("expected Blocked, got {other:?}"),
        }
    }

    #[test]
    fn scores_accessible_either_way() {
        let mut p = guarded();
        match p.ask("How many days of annual leave per year?").unwrap() {
            ResilientAnswer::Served { score, .. } | ResilientAnswer::Blocked { score, .. } => {
                assert!((0.0..=1.0).contains(&score));
            }
            other => panic!("fault-free verification must score, got {other:?}"),
        }
    }

    #[test]
    fn healthy_resilient_pipeline_matches_plain_decisions() {
        use slm_runtime::FaultProfile;
        let mut plain = guarded();
        let mut res = testkit::guarded(
            [FaultProfile::none(1), FaultProfile::none(2)],
            FailurePolicy::Abstain,
        );
        for q in [
            "From what time does the store operate?",
            "How many days of annual leave per year?",
        ] {
            let a = plain.ask(q).unwrap();
            let b = res.ask(q).unwrap();
            assert!(b.is_verified());
            // the fault injector at zero faults changes no bit of the answer
            assert_eq!(a, b, "{q}");
            assert_eq!(
                b.telemetry().degradation,
                hallu_core::DegradationLevel::Full
            );
        }
    }

    /// The full `FailurePolicy` × outcome matrix when every backend is
    /// down: each policy maps the same abstention to exactly one
    /// [`ResilientAnswer`] shape, and no policy fabricates a verified
    /// verdict.
    #[test]
    fn failure_policy_matrix_under_total_outage() {
        use slm_runtime::FaultProfile;
        for (policy, expect_served) in [
            (FailurePolicy::FailOpen, true),
            (FailurePolicy::FailClosed, false),
            (FailurePolicy::Abstain, false),
        ] {
            let mut p = testkit::guarded([FaultProfile::down(1), FaultProfile::down(2)], policy);
            let outcome = p.ask("From what time does the store operate?").unwrap();
            assert_eq!(outcome.is_served(), expect_served, "{policy:?}");
            assert!(!outcome.is_verified(), "{policy:?} cannot verify an outage");
            match (policy, &outcome) {
                (FailurePolicy::FailOpen, ResilientAnswer::Unverified { served: true, .. })
                | (FailurePolicy::FailClosed, ResilientAnswer::Unverified { served: false, .. })
                | (FailurePolicy::Abstain, ResilientAnswer::Abstained { .. }) => {}
                (policy, other) => panic!("wrong disposition for {policy:?}: {other:?}"),
            }
            assert_eq!(
                outcome.telemetry().degradation,
                hallu_core::DegradationLevel::Abstained
            );
        }
    }

    /// The same matrix when the backends are healthy but the request's
    /// deadline budget is already exhausted: the abstention arrives via
    /// deadline skips instead of failures, and each policy routes it to the
    /// same shape as a total outage.
    #[test]
    fn failure_policy_matrix_under_exhausted_deadline() {
        use slm_runtime::FaultProfile;
        for (policy, expect_served) in [
            (FailurePolicy::FailOpen, true),
            (FailurePolicy::FailClosed, false),
            (FailurePolicy::Abstain, false),
        ] {
            let mut p = testkit::guarded([FaultProfile::none(1), FaultProfile::none(2)], policy);
            let answer = p
                .rag
                .answer(
                    "From what time does the store operate?",
                    GenerationMode::Correct,
                )
                .unwrap();
            let outcome = p.ask_within(answer, 0.0);
            assert_eq!(outcome.is_served(), expect_served, "{policy:?}");
            assert!(!outcome.is_verified(), "{policy:?}");
            match (policy, &outcome) {
                (FailurePolicy::FailOpen, ResilientAnswer::Unverified { served: true, .. })
                | (FailurePolicy::FailClosed, ResilientAnswer::Unverified { served: false, .. })
                | (FailurePolicy::Abstain, ResilientAnswer::Abstained { .. }) => {}
                (policy, other) => panic!("wrong disposition for {policy:?}: {other:?}"),
            }
            let telemetry = outcome.telemetry();
            assert!(telemetry.deadline_skips > 0, "{policy:?}: {telemetry:?}");
            assert_eq!(telemetry.attempts, 0, "no verifier was consulted");
        }
    }

    #[test]
    fn total_outage_fail_open_serves_unverified() {
        use slm_runtime::FaultProfile;
        let mut p = testkit::guarded(
            [FaultProfile::down(1), FaultProfile::down(2)],
            FailurePolicy::FailOpen,
        );
        let outcome = p.ask("From what time does the store operate?").unwrap();
        assert!(outcome.is_served());
        assert!(!outcome.is_verified());
        assert!(matches!(
            outcome,
            ResilientAnswer::Unverified { served: true, .. }
        ));
    }

    #[test]
    fn total_outage_fail_closed_blocks() {
        use slm_runtime::FaultProfile;
        let mut p = testkit::guarded(
            [FaultProfile::down(1), FaultProfile::down(2)],
            FailurePolicy::FailClosed,
        );
        let outcome = p.ask("From what time does the store operate?").unwrap();
        assert!(!outcome.is_served());
        assert!(matches!(
            outcome,
            ResilientAnswer::Unverified { served: false, .. }
        ));
    }

    #[test]
    fn total_outage_abstain_policy_surfaces_abstention() {
        use slm_runtime::FaultProfile;
        let mut p = testkit::guarded(
            [FaultProfile::down(1), FaultProfile::down(2)],
            FailurePolicy::Abstain,
        );
        let outcome = p.ask("From what time does the store operate?").unwrap();
        assert!(!outcome.is_served());
        match &outcome {
            ResilientAnswer::Abstained { telemetry, .. } => {
                assert_eq!(
                    telemetry.degradation,
                    hallu_core::DegradationLevel::Abstained
                );
                assert_eq!(telemetry.models_consulted, Vec::<String>::new());
            }
            other => panic!("expected Abstained, got {other:?}"),
        }
    }

    #[test]
    fn ask_batch_matches_sequential_asks_bitwise() {
        use slm_runtime::{CacheConfig, FaultProfile, VerificationCache};
        use std::sync::Arc;
        let questions = [
            "From what time does the store operate?",
            "How many days of annual leave per year?",
            "From what time does the store operate?", // duplicate: coalesced
            "How many shopkeepers run a shop?",
        ];
        let profiles = || [FaultProfile::uniform(21, 0.3), FaultProfile::none(22)];
        let mut sequential = testkit::guarded(profiles(), FailurePolicy::Abstain);
        let mut batched = testkit::guarded(profiles(), FailurePolicy::Abstain);
        let cache = Arc::new(VerificationCache::new(CacheConfig::default()));
        batched.set_cache(Arc::clone(&cache));

        let want: Vec<ResilientAnswer> = questions
            .iter()
            .map(|q| sequential.ask(q).unwrap())
            .collect();
        let got = batched.ask_batch(&questions).unwrap();
        assert_eq!(want, got, "batched+cached answers must match bitwise");
        assert_eq!(
            sequential.detector().normalizer(),
            batched.detector().normalizer(),
            "live-calibration z-score state must match bitwise"
        );
        assert!(
            cache.stats().hits > 0,
            "duplicate question + calibrate/score overlap must hit the cache"
        );
    }

    #[test]
    fn one_model_down_still_verifies() {
        use slm_runtime::FaultProfile;
        let mut p = testkit::guarded(
            [FaultProfile::none(1), FaultProfile::down(2)],
            FailurePolicy::Abstain,
        );
        let outcome = p.ask("From what time does the store operate?").unwrap();
        assert!(outcome.is_verified(), "one live model must still verify");
        assert_eq!(outcome.telemetry().models_consulted, ["qwen2-1.5b-sim"]);
        let health = p.health();
        assert!(health[1].failures > 0);
    }
}
