//! The detector's configuration and verdict types (Fig. 2b).
//!
//! [`ResilientDetector`](crate::ResilientDetector) runs the framework:
//! Splitter → M SLMs → Checker. This module holds what it is configured
//! with and what it returns.

use std::fmt;

use crate::means::AggregationMean;
use crate::resilience::ResilienceTelemetry;

/// Why a detector could not be built or could not score.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetectorError {
    /// The detector was given an empty verifier set.
    NoVerifiers,
    /// A transplanted normalizer covers a different number of models than
    /// the detector ensembles.
    ModelCountMismatch {
        /// Models the detector ensembles.
        expected: usize,
        /// Models the statistics were fitted for.
        got: usize,
    },
}

impl fmt::Display for DetectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoVerifiers => f.write_str("at least one verifier required"),
            Self::ModelCountMismatch { expected, got } => write!(
                f,
                "normalizer fitted for a different number of models \
                 (detector has {expected}, statistics cover {got})"
            ),
        }
    }
}

impl std::error::Error for DetectorError {}

/// Detector configuration. The defaults are the paper's proposed setting;
/// the flags double as the ablation axes (Fig. 3's P(yes) baseline is
/// `split = false`, Fig. 5 varies `mean`, the normalization ablation flips
/// `normalize`).
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorConfig {
    /// Eq. 6–10 aggregation across sentences.
    pub mean: AggregationMean,
    /// Run the Splitter (§IV-A). When off the whole response is scored as
    /// one unit — the P(yes) baseline.
    pub split: bool,
    /// Apply Eq. 4 per-model normalization. When off, raw probabilities are
    /// averaged directly.
    pub normalize: bool,
    /// Probe the (sentence, model) cells on up to `host_parallelism()`
    /// threads that claim prefix groups, instead of inline. Inline, the
    /// caller claims them, with one helper beside it while the cells span
    /// at least two groups and a core is idle (`slm_runtime::batch`), so an
    /// inline detector on two cores still uses both. Output bits are
    /// identical either way.
    pub parallel: bool,
    /// §VI gating extension: when set, if the first model's |z| exceeds this
    /// margin its verdict is used alone and the remaining models are not
    /// consulted (compute saving); otherwise all models vote.
    pub gate_margin: Option<f64>,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            mean: AggregationMean::Harmonic,
            split: true,
            normalize: true,
            parallel: false,
            gate_margin: None,
        }
    }
}

/// Per-sentence diagnostics in a [`DetectionResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct SentenceDetail {
    /// The split sentence `r_{i,j}`.
    pub sentence: String,
    /// Raw `s_{i,j}^(m)` per model.
    pub raw: Vec<f64>,
    /// The combined, squashed sentence score `s_{i,j}` in (0, 1).
    pub combined: f64,
}

/// The detector's verdict for one response.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionResult {
    /// The response-level score `s_i` in (0, 1); higher = more likely correct.
    pub score: f64,
    /// Per-sentence breakdown.
    pub sentences: Vec<SentenceDetail>,
    /// What the fault-tolerant executor did to produce this verdict.
    pub resilience: ResilienceTelemetry,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilient::ResilientDetector;
    use slm_runtime::bpe::Bpe;
    use slm_runtime::profiles::{minicpm_sim, qwen2_sim};
    use slm_runtime::verifier::{VerificationRequest, YesNoVerifier};
    use slm_runtime::{engine_profile, ModelConfig, Precision};

    const CTX: &str = "The store operates from 9 AM to 5 PM, from Sunday to Saturday. \
                       There should be at least three shopkeepers to run a shop.";
    const Q: &str = "What are the working hours?";
    const CORRECT: &str =
        "The working hours are 9 AM to 5 PM. The store is open from Sunday to Saturday.";
    const PARTIAL: &str =
        "The working hours are 9 AM to 5 PM. The store is open from Monday to Friday.";
    const WRONG: &str = "The working hours are 9 AM to 9 PM. You do not need to work on weekends.";

    fn detector(config: DetectorConfig) -> ResilientDetector {
        let mut d = ResilientDetector::reliable(
            vec![Box::new(qwen2_sim()), Box::new(minicpm_sim())],
            config,
        )
        .unwrap();
        // calibrate on a few neutral triples
        for r in [
            CORRECT,
            PARTIAL,
            WRONG,
            "The store is large.",
            "Staff wear uniforms.",
        ] {
            d.calibrate(Q, CTX, r);
        }
        d
    }

    /// Fault-free verifiers never abstain, so every verdict carries a result.
    fn scored(d: &ResilientDetector, response: &str) -> DetectionResult {
        d.score(Q, CTX, response)
            .into_result()
            .expect("fault-free verifiers never abstain")
    }

    fn score(d: &ResilientDetector, response: &str) -> f64 {
        scored(d, response).score
    }

    #[test]
    fn correct_beats_partial_beats_wrong() {
        let d = detector(DetectorConfig::default());
        let c = score(&d, CORRECT);
        let p = score(&d, PARTIAL);
        let w = score(&d, WRONG);
        assert!(c > p, "correct {c} vs partial {p}");
        assert!(p > w, "partial {p} vs wrong {w}");
    }

    #[test]
    fn scores_live_in_unit_interval() {
        let d = detector(DetectorConfig::default());
        for r in [CORRECT, PARTIAL, WRONG] {
            let s = score(&d, r);
            assert!((0.0..=1.0).contains(&s), "{r}: {s}");
        }
    }

    #[test]
    fn sentence_details_are_reported() {
        let d = detector(DetectorConfig::default());
        let result = scored(&d, PARTIAL);
        assert_eq!(result.sentences.len(), 2);
        assert_eq!(result.sentences[0].raw.len(), 2);
        // the wrong-day sentence is the weak one
        assert!(result.sentences[0].combined > result.sentences[1].combined);
    }

    #[test]
    fn raw_scores_keep_verifier_order_and_bits() {
        let d = detector(DetectorConfig::default());
        let sentence = "The working hours are 9 AM to 5 PM.";
        let result = scored(&d, sentence);
        assert_eq!(result.sentences.len(), 1);
        let req = VerificationRequest::new(Q, CTX, sentence);
        let want = [qwen2_sim().p_yes(&req), minicpm_sim().p_yes(&req)];
        let got = &result.sentences[0].raw;
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.to_bits(), w.to_bits(), "column order or bits changed");
        }
    }

    #[test]
    fn empty_response_scores_zero() {
        let d = detector(DetectorConfig::default());
        let r = scored(&d, "");
        assert_eq!(r.score, 0.0);
        assert!(r.sentences.is_empty());
    }

    #[test]
    fn no_split_treats_response_as_one_unit() {
        let cfg = DetectorConfig {
            split: false,
            ..Default::default()
        };
        let d = detector(cfg);
        let result = scored(&d, PARTIAL);
        assert_eq!(result.sentences.len(), 1);
    }

    #[test]
    fn split_separates_partial_better_than_no_split() {
        // The core claim behind the Splitter (Fig. 3b / Fig. 6): splitting
        // ranks correct above partial more reliably than whole-response
        // scoring. Single examples are noisy (the simulated verifiers err on
        // specific inputs), so compare pairwise win rates (= AUC) over a
        // batch of phrasing variants.
        let with_split = detector(DetectorConfig::default());
        let without = detector(DetectorConfig {
            split: false,
            ..Default::default()
        });
        let auc = |d: &ResilientDetector| {
            let n = 12;
            // Long responses: one wrong fact among many correct sentences is
            // where whole-response scoring dilutes and splitting pays off.
            let score_batch = |days: &str| -> Vec<f64> {
                (0..n)
                    .map(|i| {
                        let r = format!(
                            "The working hours are 9 AM to 5 PM, case {i}. \
                             At least three shopkeepers run the shop. \
                             The store is open from {days}. \
                             The store operates for the whole week of shifts."
                        );
                        score(d, &r)
                    })
                    .collect()
            };
            let corrects = score_batch("Sunday to Saturday");
            let partials = score_batch("Monday to Friday");
            let mut wins = 0usize;
            for c in &corrects {
                for p in &partials {
                    if c > p {
                        wins += 1;
                    }
                }
            }
            wins as f64 / (n * n) as f64
        };
        let sa = auc(&with_split);
        let na = auc(&without);
        assert!(sa > na, "split AUC {sa} vs no-split AUC {na}");
    }

    #[test]
    fn parallel_matches_sequential() {
        let seq = detector(DetectorConfig::default());
        let par = detector(DetectorConfig {
            parallel: true,
            ..Default::default()
        });
        assert_eq!(seq.score(Q, CTX, PARTIAL), par.score(Q, CTX, PARTIAL));
    }

    #[test]
    fn unnormalized_mode_averages_raw() {
        let cfg = DetectorConfig {
            normalize: false,
            ..Default::default()
        };
        let d = detector(cfg);
        let result = scored(&d, CORRECT);
        for s in &result.sentences {
            let avg = s.raw.iter().sum::<f64>() / s.raw.len() as f64;
            assert_eq!(s.combined.to_bits(), avg.to_bits());
        }
    }

    #[test]
    fn gating_preserves_clear_verdicts() {
        let gated = detector(DetectorConfig {
            gate_margin: Some(0.5),
            ..Default::default()
        });
        let plain = detector(DetectorConfig::default());
        // correct still beats wrong under gating
        assert!(score(&gated, CORRECT) > score(&gated, WRONG));
        // and gating changes at least some scores vs the plain ensemble
        let any_diff = [CORRECT, PARTIAL, WRONG]
            .iter()
            .any(|r| (score(&gated, r) - score(&plain, r)).abs() > 1e-9);
        assert!(any_diff);
    }

    #[test]
    fn single_model_detector_works() {
        let mut d = ResilientDetector::reliable(
            vec![Box::new(qwen2_sim()) as Box<dyn YesNoVerifier>],
            DetectorConfig::default(),
        )
        .unwrap();
        d.calibrate(Q, CTX, CORRECT);
        d.calibrate(Q, CTX, WRONG);
        assert_eq!(d.num_models(), 1);
        assert!(score(&d, CORRECT) > score(&d, WRONG));
    }

    #[test]
    fn model_names_in_slot_order() {
        let d = detector(DetectorConfig::default());
        assert_eq!(d.model_names(), ["qwen2-1.5b-sim", "minicpm-2b-sim"]);
    }

    #[test]
    fn calibration_state_can_be_transplanted() {
        let fitted = detector(DetectorConfig::default());
        let mut fresh = ResilientDetector::reliable(
            vec![Box::new(qwen2_sim()), Box::new(minicpm_sim())],
            DetectorConfig::default(),
        )
        .unwrap();
        fresh
            .try_set_normalizer(fitted.normalizer().clone())
            .unwrap();
        assert_eq!(
            fitted.score(Q, CTX, PARTIAL),
            fresh.score(Q, CTX, PARTIAL),
            "restored calibration must reproduce scores exactly"
        );
    }

    #[test]
    fn batch_scoring_matches_sequential_in_order() {
        let seq = detector(DetectorConfig::default());
        let par = detector(DetectorConfig {
            parallel: true,
            ..Default::default()
        });
        let items = [
            (Q, CTX, CORRECT),
            (Q, CTX, PARTIAL),
            (Q, CTX, WRONG),
            (Q, CTX, CORRECT),
        ];
        let a = seq.score_batch(&items);
        let b = par.score_batch(&items);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert_eq!(a[0], seq.score(Q, CTX, CORRECT));
        assert_eq!(a[0], a[3]);
    }

    #[test]
    fn batch_scoring_handles_empty_and_singleton() {
        let d = detector(DetectorConfig {
            parallel: true,
            ..Default::default()
        });
        assert!(d.score_batch(&[]).is_empty());
        assert_eq!(d.score_batch(&[(Q, CTX, CORRECT)]).len(), 1);
    }

    #[test]
    fn try_new_reports_typed_error() {
        let Err(err) = ResilientDetector::reliable(Vec::new(), DetectorConfig::default()) else {
            panic!("empty verifier set must be rejected")
        };
        assert_eq!(err, DetectorError::NoVerifiers);
        assert!(err.to_string().contains("at least one verifier"));
    }

    #[test]
    fn try_set_normalizer_reports_mismatch() {
        let mut d = ResilientDetector::reliable(
            vec![Box::new(qwen2_sim()) as Box<dyn YesNoVerifier>],
            DetectorConfig::default(),
        )
        .unwrap();
        let err = d
            .try_set_normalizer(crate::zscore::ModelNormalizer::new(3))
            .unwrap_err();
        assert_eq!(
            err,
            DetectorError::ModelCountMismatch {
                expected: 1,
                got: 3
            }
        );
        assert!(err.to_string().contains("different number of models"));
    }

    #[test]
    fn calibration_accumulates_observations() {
        let d = detector(DetectorConfig::default());
        assert!(d.normalizer().observations(0) >= 8);
        assert!(d.normalizer().observations(1) >= 8);
    }

    #[test]
    fn mixed_precision_engine_members_build_and_score() {
        let bpe = Bpe::train(
            &[
                CTX,
                "is the answer correct according to the context reply yes or no",
            ],
            250,
        );
        let cfg = ModelConfig::tiny(bpe.vocab_size());
        // Each member's precision lives in its own ModelConfig: two int8
        // screeners and an f32 tie-breaker.
        let members = vec![
            engine_profile(
                "int8-screener-a",
                cfg.clone().with_precision(Precision::Int8),
                11,
                bpe.clone(),
            ),
            engine_profile(
                "int8-screener-b",
                cfg.clone().with_precision(Precision::Int8),
                12,
                bpe.clone(),
            ),
            engine_profile("f32-tiebreak", cfg, 13, bpe),
        ];
        let mut d = ResilientDetector::reliable(members, DetectorConfig::default()).unwrap();
        assert_eq!(
            d.model_names(),
            vec!["int8-screener-a", "int8-screener-b", "f32-tiebreak"]
        );
        d.calibrate(Q, CTX, CORRECT);
        d.calibrate(Q, CTX, WRONG);
        let result = scored(&d, CORRECT);
        assert!((0.0..=1.0).contains(&result.score));
        assert_eq!(
            result.resilience.models_consulted,
            ["int8-screener-a", "int8-screener-b", "f32-tiebreak"]
        );
    }
}
