//! Explainable verdicts.
//!
//! A guardrail that silently blocks answers is hard to operate; this module
//! turns a [`DetectionResult`] into a
//! structured report: the verdict, the weakest sentence (the likely
//! hallucination), how much the ensembled models disagree, and a confidence
//! grade. Everything derives from the detector's own outputs — no extra
//! model calls.

use crate::detector::DetectionResult;

/// Confidence grade of a verdict, from the spread of the evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Confidence {
    /// Sentence scores are far from the threshold and models agree.
    High,
    /// Mixed signals — sensible default is to show the answer with a caveat.
    Medium,
    /// Close to the threshold or models disagree strongly.
    Low,
}

/// A human-consumable explanation of one verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// Whether the response passed the threshold.
    pub accepted: bool,
    /// The response-level score `s_i`.
    pub score: f64,
    /// The threshold used.
    pub threshold: f64,
    /// The weakest sentence and its combined score — for a rejected
    /// response, this is the sentence to show the user as the suspected
    /// hallucination. `None` for empty responses.
    pub weakest_sentence: Option<(String, f64)>,
    /// Mean absolute pairwise disagreement of the raw per-model scores over
    /// the weakest sentence (0 = unanimous). High disagreement means the
    /// models see the sentence differently — a reason to lower confidence.
    pub model_disagreement: f64,
    /// Confidence grade.
    pub confidence: Confidence,
}

/// Mean absolute pairwise difference of a score vector (0 for M = 1).
///
/// Values outside `[0, 1]` are ignored: under degraded execution a model that
/// produced no usable score is recorded as
/// [`crate::resilient::MISSING_SCORE`], which must not read as disagreement.
fn disagreement(scores: &[f64]) -> f64 {
    let valid: Vec<f64> = scores
        .iter()
        .copied()
        .filter(|p| crate::score::valid_probability(*p))
        .collect();
    let m = valid.len();
    if m < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    let mut pairs = 0usize;
    for i in 0..m {
        for j in (i + 1)..m {
            total += (valid[i] - valid[j]).abs();
            pairs += 1;
        }
    }
    total / pairs as f64
}

/// Explain a detection result at a decision threshold.
pub fn explain(result: &DetectionResult, threshold: f64) -> Explanation {
    let accepted = result.score >= threshold;
    let weakest = result.sentences.iter().min_by(|a, b| {
        a.combined
            .partial_cmp(&b.combined)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let model_disagreement = weakest.map_or(0.0, |s| disagreement(&s.raw));
    let margin = (result.score - threshold).abs();
    let confidence = if margin > 0.2 && model_disagreement < 0.3 {
        Confidence::High
    } else if margin > 0.08 {
        Confidence::Medium
    } else {
        Confidence::Low
    };

    Explanation {
        accepted,
        score: result.score,
        threshold,
        weakest_sentence: weakest.map(|s| (s.sentence.clone(), s.combined)),
        model_disagreement,
        confidence,
    }
}

impl Explanation {
    /// Render a short operator-facing summary line.
    pub fn summary(&self) -> String {
        let verdict = if self.accepted { "ACCEPT" } else { "REJECT" };
        let conf = match self.confidence {
            Confidence::High => "high",
            Confidence::Medium => "medium",
            Confidence::Low => "low",
        };
        match &self.weakest_sentence {
            Some((sentence, s)) => format!(
                "{verdict} (s={:.3}, threshold {:.2}, confidence {conf}); weakest sentence \
                 (s={s:.3}): \"{sentence}\"",
                self.score, self.threshold
            ),
            None => format!(
                "{verdict} (s={:.3}, threshold {:.2}, confidence {conf}); empty response",
                self.score, self.threshold
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{DetectorConfig, SentenceDetail};
    use crate::resilience::ResilienceTelemetry;
    use crate::resilient::ResilientDetector;
    use slm_runtime::profiles::{minicpm_sim, qwen2_sim};
    use slm_runtime::verifier::YesNoVerifier;

    fn fake_result(scores: &[f64]) -> DetectionResult {
        DetectionResult {
            score: scores.iter().copied().fold(f64::INFINITY, f64::min),
            sentences: scores
                .iter()
                .enumerate()
                .map(|(i, &s)| SentenceDetail {
                    sentence: format!("sentence {i}"),
                    raw: vec![s, s],
                    combined: s,
                })
                .collect(),
            resilience: ResilienceTelemetry::empty(),
        }
    }

    #[test]
    fn weakest_sentence_is_identified() {
        let e = explain(&fake_result(&[0.9, 0.2, 0.8]), 0.5);
        assert!(!e.accepted);
        let (sentence, score) = e.weakest_sentence.as_ref().unwrap();
        assert_eq!(sentence, "sentence 1");
        assert!((score - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_response_explained() {
        let e = explain(
            &DetectionResult {
                score: 0.0,
                sentences: vec![],
                resilience: ResilienceTelemetry::empty(),
            },
            0.5,
        );
        assert!(!e.accepted);
        assert!(e.weakest_sentence.is_none());
        assert!(e.summary().contains("empty response"));
    }

    #[test]
    fn confidence_scales_with_margin() {
        let far = explain(&fake_result(&[0.95, 0.9]), 0.5);
        assert_eq!(far.confidence, Confidence::High);
        let close = explain(&fake_result(&[0.52, 0.55]), 0.5);
        assert_eq!(close.confidence, Confidence::Low);
    }

    #[test]
    fn disagreement_math() {
        assert_eq!(disagreement(&[0.5]), 0.0);
        assert!((disagreement(&[0.2, 0.8]) - 0.6).abs() < 1e-12);
        // three models: pairs (a,b),(a,c),(b,c)
        let d = disagreement(&[0.0, 0.5, 1.0]);
        assert!((d - (0.5 + 1.0 + 0.5) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn disagreement_ignores_missing_model_sentinels() {
        use crate::resilient::MISSING_SCORE;
        // a fallen model's sentinel must not register as disagreement
        assert_eq!(disagreement(&[0.7, MISSING_SCORE]), 0.0);
        assert!((disagreement(&[0.2, 0.8, MISSING_SCORE]) - 0.6).abs() < 1e-12);
        assert_eq!(disagreement(&[MISSING_SCORE, MISSING_SCORE]), 0.0);
    }

    #[test]
    fn high_disagreement_lowers_confidence() {
        let mut r = fake_result(&[0.95, 0.9]);
        r.sentences[1].raw = vec![0.1, 0.95]; // models split on the weak one
        r.sentences[1].combined = 0.4;
        r.score = 0.4;
        let e = explain(&r, 0.9);
        assert!(e.model_disagreement > 0.5);
        assert_ne!(e.confidence, Confidence::High);
    }

    #[test]
    fn end_to_end_explanation_flags_the_bad_sentence() {
        let mut d = ResilientDetector::reliable(
            vec![
                Box::new(qwen2_sim()) as Box<dyn YesNoVerifier>,
                Box::new(minicpm_sim()) as Box<dyn YesNoVerifier>,
            ],
            DetectorConfig::default(),
        )
        .unwrap();
        let ctx = "The store operates from 9 AM to 5 PM, from Sunday to Saturday.";
        let q = "What are the working hours?";
        for i in 0..8 {
            d.calibrate(q, ctx, &format!("The store opens at {} AM.", 8 + i % 3));
        }
        let result = d
            .score(
                q,
                ctx,
                "The working hours are 9 AM to 5 PM. The store is open from Monday to Friday.",
            )
            .into_result()
            .unwrap();
        let e = explain(&result, 0.5);
        assert!(e.summary().contains("Monday to Friday"));
        let (weakest, _) = e.weakest_sentence.unwrap();
        assert!(weakest.contains("Monday to Friday"), "{weakest}");
    }
}
