//! Learned meta-checker (§VI extension).
//!
//! The paper's checker combines sentence scores with a fixed mean and asks
//! (as future work) for "better integration of SLMs". This module learns the
//! integration: a logistic regression over response-level summary features
//! of the sentence scores (all five aggregation means plus the cross-model
//! disagreement), trained with full-batch gradient descent on a labeled
//! development split. It subsumes the fixed means — with a one-hot weight
//! vector it *is* one of them — so it can only help when the dev split is
//! representative.

use crate::detector::DetectionResult;
use crate::means::AggregationMean;

/// Number of summary features.
pub const NUM_FEATURES: usize = 6;

/// Response-level summary features of a detection result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseFeatures {
    /// `[harmonic, arithmetic, geometric, max, min, mean model disagreement]`.
    pub values: [f64; NUM_FEATURES],
}

/// Extract summary features from a scored response.
///
/// Empty responses produce all-zero features (and should be rejected before
/// reaching a learned combiner anyway).
pub fn response_features(result: &DetectionResult) -> ResponseFeatures {
    if result.sentences.is_empty() {
        return ResponseFeatures {
            values: [0.0; NUM_FEATURES],
        };
    }
    let scores: Vec<f64> = result.sentences.iter().map(|s| s.combined).collect();
    let disagreement = result
        .sentences
        .iter()
        .map(|s| {
            let m = s.raw.len();
            if m < 2 {
                return 0.0;
            }
            let mut total = 0.0;
            let mut pairs = 0;
            for i in 0..m {
                for j in (i + 1)..m {
                    total += (s.raw[i] - s.raw[j]).abs();
                    pairs += 1;
                }
            }
            total / pairs as f64
        })
        .sum::<f64>()
        / result.sentences.len() as f64;
    ResponseFeatures {
        values: [
            AggregationMean::Harmonic.aggregate(&scores),
            AggregationMean::Arithmetic.aggregate(&scores),
            AggregationMean::Geometric.aggregate(&scores),
            AggregationMean::Max.aggregate(&scores),
            AggregationMean::Min.aggregate(&scores),
            disagreement,
        ],
    }
}

/// A fitted logistic meta-checker.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticCombiner {
    weights: [f64; NUM_FEATURES],
    bias: f64,
    /// Per-feature standardization fitted on the training split.
    feature_means: [f64; NUM_FEATURES],
    feature_stds: [f64; NUM_FEATURES],
}

impl LogisticCombiner {
    /// Fit on labeled examples (`true` = correct response) with full-batch
    /// gradient descent. Deterministic: zero-initialized weights, fixed
    /// epoch count.
    ///
    /// Returns `None` when the training data is empty or single-class.
    pub fn fit(examples: &[(ResponseFeatures, bool)], epochs: usize, lr: f64) -> Option<Self> {
        if examples.is_empty()
            || examples.iter().all(|(_, y)| *y)
            || examples.iter().all(|(_, y)| !*y)
        {
            return None;
        }
        // Standardize features.
        let n = examples.len() as f64;
        let mut means = [0.0; NUM_FEATURES];
        for (f, _) in examples {
            for (m, v) in means.iter_mut().zip(&f.values) {
                *m += v / n;
            }
        }
        let mut stds = [0.0; NUM_FEATURES];
        for (f, _) in examples {
            for ((s, v), m) in stds.iter_mut().zip(&f.values).zip(&means) {
                *s += (v - m) * (v - m) / n;
            }
        }
        for s in stds.iter_mut() {
            *s = s.sqrt().max(1e-6);
        }

        let standardized: Vec<([f64; NUM_FEATURES], f64)> = examples
            .iter()
            .map(|(f, y)| {
                let mut x = [0.0; NUM_FEATURES];
                for i in 0..NUM_FEATURES {
                    x[i] = (f.values[i] - means[i]) / stds[i];
                }
                (x, if *y { 1.0 } else { 0.0 })
            })
            .collect();

        let mut weights = [0.0; NUM_FEATURES];
        let mut bias = 0.0;
        for _ in 0..epochs {
            let mut grad_w = [0.0; NUM_FEATURES];
            let mut grad_b = 0.0;
            for (x, y) in &standardized {
                let z: f64 = weights.iter().zip(x).map(|(w, xi)| w * xi).sum::<f64>() + bias;
                let p = 1.0 / (1.0 + (-z).exp());
                let err = p - y;
                for (g, xi) in grad_w.iter_mut().zip(x) {
                    *g += err * xi;
                }
                grad_b += err;
            }
            for (w, g) in weights.iter_mut().zip(&grad_w) {
                *w -= lr * g / n;
            }
            bias -= lr * grad_b / n;
        }
        Some(Self {
            weights,
            bias,
            feature_means: means,
            feature_stds: stds,
        })
    }

    /// Predicted probability that the response is correct.
    pub fn predict(&self, features: &ResponseFeatures) -> f64 {
        let mut z = self.bias;
        for i in 0..NUM_FEATURES {
            let x = (features.values[i] - self.feature_means[i]) / self.feature_stds[i];
            z += self.weights[i] * x;
        }
        1.0 / (1.0 + (-z).exp())
    }

    /// The fitted (standardized-space) feature weights.
    pub fn weights(&self) -> &[f64; NUM_FEATURES] {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{DetectionResult, SentenceDetail};
    use crate::resilience::ResilienceTelemetry;

    fn result(scores: &[f64]) -> DetectionResult {
        DetectionResult {
            score: 0.0,
            sentences: scores
                .iter()
                .map(|&s| SentenceDetail {
                    sentence: String::new(),
                    raw: vec![s, (s + 0.1).min(1.0)],
                    combined: s,
                })
                .collect(),
            resilience: ResilienceTelemetry::empty(),
        }
    }

    fn synthetic_split(n: usize, seed: u64) -> Vec<(ResponseFeatures, bool)> {
        // correct responses: all sentences high; hallucinated: one low
        let mut out = Vec::new();
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) as f64 / (1u64 << 24) as f64
        };
        for _ in 0..n {
            let jitter = 0.1 * next();
            out.push((
                response_features(&result(&[0.85 + jitter, 0.8, 0.75])),
                true,
            ));
            out.push((
                response_features(&result(&[0.85 + jitter, 0.15 + 0.1 * next(), 0.75])),
                false,
            ));
        }
        out
    }

    #[test]
    fn features_include_all_means() {
        let f = response_features(&result(&[0.5, 1.0]));
        assert!((f.values[0] - 2.0 / 3.0).abs() < 1e-9); // harmonic
        assert!((f.values[1] - 0.75).abs() < 1e-9); // arithmetic
        assert!((f.values[3] - 1.0).abs() < 1e-9); // max
        assert!((f.values[4] - 0.5).abs() < 1e-9); // min
        assert!(f.values[5] > 0.0); // disagreement from raw columns
    }

    #[test]
    fn empty_response_features_are_zero() {
        let f = response_features(&DetectionResult {
            score: 0.0,
            sentences: vec![],
            resilience: ResilienceTelemetry::empty(),
        });
        assert_eq!(f.values, [0.0; NUM_FEATURES]);
    }

    #[test]
    fn fit_learns_separable_data() {
        let train = synthetic_split(40, 7);
        let model = LogisticCombiner::fit(&train, 300, 0.5).unwrap();
        let test = synthetic_split(20, 99);
        let mut correct = 0;
        for (f, y) in &test {
            if (model.predict(f) >= 0.5) == *y {
                correct += 1;
            }
        }
        let acc = correct as f64 / test.len() as f64;
        assert!(acc >= 0.95, "accuracy {acc}");
    }

    #[test]
    fn degenerate_training_sets_are_rejected() {
        assert!(LogisticCombiner::fit(&[], 10, 0.1).is_none());
        let all_pos = vec![(response_features(&result(&[0.9])), true); 5];
        assert!(LogisticCombiner::fit(&all_pos, 10, 0.1).is_none());
    }

    #[test]
    fn fitting_is_deterministic() {
        let train = synthetic_split(20, 3);
        let a = LogisticCombiner::fit(&train, 100, 0.3).unwrap();
        let b = LogisticCombiner::fit(&train, 100, 0.3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn predictions_are_probabilities() {
        let train = synthetic_split(20, 5);
        let model = LogisticCombiner::fit(&train, 100, 0.3).unwrap();
        for (f, _) in &train {
            let p = model.predict(f);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn low_score_features_get_low_probability() {
        let train = synthetic_split(40, 11);
        let model = LogisticCombiner::fit(&train, 300, 0.5).unwrap();
        let good = model.predict(&response_features(&result(&[0.9, 0.85, 0.8])));
        let bad = model.predict(&response_features(&result(&[0.9, 0.1, 0.8])));
        assert!(good > bad, "good {good} vs bad {bad}");
    }
}
