//! SelfCheck-style sampling baseline.
//!
//! The paper's related work (§II) discusses detection methods that sample
//! the generator multiple times and measure consistency — SelfCheckGPT and
//! the semantic-entropy line \[28\]. This module implements that family as a
//! baseline the framework can be compared against: re-sample K grounded
//! answers to the same question from the same context, then score each
//! response sentence by its best agreement with any sampled answer's
//! sentences. A hallucinated sentence contradicts most fresh samples (which
//! are drawn from the context) and scores low.
//!
//! No verifier model is needed — only the generator and a lexical/entity
//! agreement measure — which is exactly the trade-off this family makes:
//! cheaper components, K extra generations per check.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use text_engine::entities::{extract_entities, Entity};
use text_engine::sentence::SentenceSplitter;
use text_engine::stem::porter_stem;
use text_engine::stopwords::is_stopword;
use text_engine::token::tokenize_words;

use crate::generate::{GenerationMode, SimulatedLlm};

/// Configuration of the sampling checker.
#[derive(Debug, Clone)]
pub struct SelfCheckConfig {
    /// Number of fresh samples K.
    pub num_samples: usize,
    /// Seed for the sampling RNG.
    pub seed: u64,
    /// Sentences per sampled answer.
    pub max_sentences: usize,
    /// Probability that a sampled answer itself contains a hallucination
    /// (temperature sampling is exactly where generators slip — the premise
    /// the whole sample-and-compare family rests on).
    pub sample_error_rate: f64,
    /// Std-dev of input-keyed noise on the similarity measure, modelling
    /// the imprecision of learned similarity (BERTScore / NLI) on
    /// paraphrases. 0 = oracle similarity.
    pub similarity_noise: f64,
}

impl Default for SelfCheckConfig {
    fn default() -> Self {
        Self {
            num_samples: 5,
            seed: 0x5e1f,
            max_sentences: 3,
            sample_error_rate: 0.3,
            similarity_noise: 0.22,
        }
    }
}

/// Agreement of one sentence against one reference sentence in [0, 1]:
/// stemmed-content overlap, with entity contradictions zeroing the score.
fn sentence_agreement(sentence: &str, reference: &str) -> f64 {
    let ents_s = extract_entities(sentence);
    let ents_r = extract_entities(reference);
    // Any same-category entity that disagrees is a contradiction.
    for es in &ents_s {
        for er in &ents_r {
            if es.kind.same_category(&er.kind) && !es.kind.matches(&er.kind) {
                return 0.0;
            }
        }
    }
    let stems = |text: &str| -> std::collections::HashSet<String> {
        tokenize_words(text)
            .into_iter()
            .filter(|w| !is_stopword(w))
            .map(|w| porter_stem(&w))
            .collect()
    };
    let a = stems(sentence);
    let b = stems(reference);
    if a.is_empty() {
        return 1.0;
    }
    let matching_entities = ents_s
        .iter()
        .any(|es: &Entity| ents_r.iter().any(|er| es.kind.matches(&er.kind)));
    let overlap = a.intersection(&b).count() as f64 / a.len() as f64;
    if matching_entities {
        // entity-confirmed: lexical variation matters less
        (0.5 + 0.5 * overlap).min(1.0)
    } else {
        overlap
    }
}

/// The sampling checker.
#[derive(Debug, Clone, Default)]
pub struct SelfChecker {
    config: SelfCheckConfig,
}

impl SelfChecker {
    /// Build with a config.
    pub fn new(config: SelfCheckConfig) -> Self {
        Self { config }
    }

    /// Draw K fresh answers for (question, context). Most are grounded
    /// extractions; a `sample_error_rate` fraction carry their own
    /// hallucination, as temperature-sampled generations do.
    pub fn sample_answers(&self, question: &str, context: &str) -> Vec<String> {
        let llm = SimulatedLlm::new(self.config.max_sentences);
        (0..self.config.num_samples)
            .map(|k| {
                let mut rng =
                    StdRng::seed_from_u64(self.config.seed.wrapping_add(k as u64 * 0x9e37));
                let mode = if rng.gen_bool(self.config.sample_error_rate.clamp(0.0, 1.0)) {
                    GenerationMode::Partial
                } else {
                    GenerationMode::Correct
                };
                llm.generate(question, context, mode, &mut rng).0
            })
            .collect()
    }

    /// Consistency score of a response in [0, 1]: mean over response
    /// sentences of the best agreement with any sampled sentence.
    pub fn score(&self, question: &str, context: &str, response: &str) -> f64 {
        let response_sentences: Vec<String> = SentenceSplitter::new()
            .split(response)
            .into_iter()
            .map(|s| s.text.to_string())
            .collect();
        if response_sentences.is_empty() {
            return 0.0;
        }
        let samples = self.sample_answers(question, context);
        let sample_sentences: Vec<String> = samples
            .iter()
            .flat_map(|s| {
                SentenceSplitter::new()
                    .split(s)
                    .into_iter()
                    .map(|x| x.text.to_string())
                    .collect::<Vec<_>>()
            })
            .collect();
        if sample_sentences.is_empty() {
            return 0.0;
        }
        let total: f64 = response_sentences
            .iter()
            .map(|rs| {
                let best = sample_sentences
                    .iter()
                    .map(|ss| sentence_agreement(rs, ss))
                    .fold(0.0f64, f64::max);
                // learned-similarity imprecision: deterministic, input-keyed
                let noise = slm_runtime::sim::input_noise(
                    self.config.seed ^ 0x51_4e_01_5e,
                    &slm_runtime::verifier::VerificationRequest::new(question, context, rs),
                );
                (best + self.config.similarity_noise * noise).clamp(0.0, 1.0)
            })
            .sum();
        total / response_sentences.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CTX: &str = "The store operates from 9 AM to 5 PM, from Sunday to Saturday. \
                       There should be at least three shopkeepers to run a shop.";
    const Q: &str = "What are the working hours?";

    /// An oracle-setting checker (no sampling errors, no similarity noise)
    /// for tests that verify the core mechanism in isolation.
    fn oracle() -> SelfChecker {
        SelfChecker::new(SelfCheckConfig {
            sample_error_rate: 0.0,
            similarity_noise: 0.0,
            ..Default::default()
        })
    }

    #[test]
    fn oracle_sampling_produces_k_grounded_answers() {
        let samples = oracle().sample_answers(Q, CTX);
        assert_eq!(samples.len(), 5);
        for s in &samples {
            for sentence in text_engine::split_sentences(s) {
                assert!(CTX.contains(&sentence), "ungrounded sample: {sentence}");
            }
        }
    }

    #[test]
    fn default_sampling_contains_some_hallucinated_samples() {
        // With error rate 0.3 and more draws, some samples must deviate.
        let noisy = SelfChecker::new(SelfCheckConfig {
            num_samples: 20,
            ..Default::default()
        });
        let samples = noisy.sample_answers(Q, CTX);
        let flawed = samples
            .iter()
            .filter(|s| {
                text_engine::split_sentences(s)
                    .iter()
                    .any(|sent| !CTX.contains(sent.as_str()))
            })
            .count();
        assert!(
            flawed >= 2,
            "expected some hallucinated samples, got {flawed}"
        );
        assert!(
            flawed <= 14,
            "error rate should stay near 0.3, got {flawed}/20"
        );
    }

    #[test]
    fn agreement_rewards_shared_entities() {
        let high = sentence_agreement(
            "The working hours are 9 AM to 5 PM.",
            "The store operates from 9 AM to 5 PM, from Sunday to Saturday.",
        );
        assert!(high > 0.5, "{high}");
    }

    #[test]
    fn agreement_zeroes_on_contradicting_entities() {
        let a = sentence_agreement(
            "The working hours are 9 AM to 9 PM.",
            "The store operates from 9 AM to 5 PM, from Sunday to Saturday.",
        );
        assert_eq!(a, 0.0);
    }

    #[test]
    fn correct_outscores_wrong() {
        let checker = SelfChecker::default();
        let good = checker.score(Q, CTX, "The working hours are 9 AM to 5 PM.");
        let bad = checker.score(Q, CTX, "The working hours are 9 AM to 9 PM.");
        assert!(good > bad, "good {good} vs bad {bad}");
        assert!(bad < 0.4, "{bad}");
    }

    #[test]
    fn oracle_orders_partial_between_correct_and_wrong() {
        let checker = oracle();
        let good = checker.score(
            Q,
            CTX,
            "The working hours are 9 AM to 5 PM. The store is open from Sunday to Saturday.",
        );
        let partial = checker.score(
            Q,
            CTX,
            "The working hours are 9 AM to 5 PM. The store is open from Monday to Friday.",
        );
        let wrong = checker.score(
            Q,
            CTX,
            "The working hours are 9 AM to 9 PM. The store is open from Monday to Friday.",
        );
        assert!(good > partial, "good {good} vs partial {partial}");
        assert!(partial > wrong, "partial {partial} vs wrong {wrong}");
    }

    #[test]
    fn noisy_checker_orders_on_average() {
        // Similarity noise averages out across phrasing variants. Sampling
        // errors are kept off here because samples are fixed per
        // (question, context): one unlucky hallucinated sample supports
        // every variant identically — a real, systematic failure mode of
        // the family that no amount of response-side averaging removes
        // (it is visible in ext-selfcheck's dataset-level numbers instead).
        let checker = SelfChecker::new(SelfCheckConfig {
            sample_error_rate: 0.0,
            ..Default::default()
        });
        let mean = |days: &str| -> f64 {
            (0..10)
                .map(|i| {
                    let r = format!(
                        "The working hours are 9 AM to 5 PM, case {i}. \
                         The store is open from {days}, note {i}."
                    );
                    checker.score(Q, CTX, &r)
                })
                .sum::<f64>()
                / 10.0
        };
        let good = mean("Sunday to Saturday");
        let partial = mean("Monday to Friday");
        assert!(good > partial, "good {good} vs partial {partial}");
    }

    #[test]
    fn empty_response_scores_zero() {
        assert_eq!(SelfChecker::default().score(Q, CTX, ""), 0.0);
    }

    #[test]
    fn empty_context_scores_zero() {
        // no samples can be drawn → nothing to agree with
        let s = SelfChecker::default().score(Q, "", "The working hours are 9 AM to 5 PM.");
        assert!(s < 0.6, "{s}");
    }

    #[test]
    fn deterministic_per_seed() {
        let checker = SelfChecker::default();
        let a = checker.score(Q, CTX, "The working hours are 9 AM to 5 PM.");
        let b = checker.score(Q, CTX, "The working hours are 9 AM to 5 PM.");
        assert_eq!(a, b);
    }
}
