//! Behavioral SLM verifiers.
//!
//! Trained Qwen2 / MiniCPM checkpoints are not available offline, so the
//! framework's experiments run on *behavioral models* of how instruction-
//! tuned SLMs answer the yes/no verification prompt (see DESIGN.md §2 for
//! the substitution argument). Each simulated model is:
//!
//! ```text
//! p_yes = sigmoid( logit(agreement) / temperature + bias + sigma · noise )
//! ```
//!
//! where `agreement ∈ (0,1)` is a feature-based entailment score between the
//! response sentence and the (question, context) pair — entity agreement,
//! stemmed content-word containment, bigram overlap and negation parity —
//! and `(temperature, bias, sigma)` are per-model calibration constants that
//! give each simulated SLM its own mean and variance (exactly what Eq. 4 of
//! the paper normalizes away) plus input-keyed deterministic noise (each
//! model errs on different inputs, which is what makes the multi-SLM
//! ensemble outperform single models).

use std::collections::HashSet;

use hallu_obs::splitmix64;
use text_engine::entities::{extract_entities, Entity, EntityKind};
use text_engine::ngram::word_ngrams;
use text_engine::similarity::{dice, weighted_containment};
use text_engine::stem::porter_stem;
use text_engine::stopwords::is_stopword;
use text_engine::token::tokenize_words;

use crate::verifier::{VerificationRequest, YesNoVerifier};

/// Per-entity verdict when checking a response entity against the context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntityVerdict {
    /// A context entity states the same fact.
    Supported,
    /// Comparable context entities exist but none agree.
    Contradicted,
    /// Nothing in the context speaks to this entity.
    Unsupported,
}

/// The raw entailment features for one (question, context, response) triple.
#[derive(Debug, Clone, PartialEq)]
pub struct Features {
    /// Average per-entity agreement (1.0 support / 0.65 unsupported / 0.12
    /// contradiction); 1.0 when the response carries no entities.
    pub entity_agreement: f64,
    /// Weighted containment of the response's stemmed content words in the
    /// context + question (long words weigh double).
    pub containment: f64,
    /// Dice overlap of word bigrams between response and context.
    pub bigram_overlap: f64,
    /// Negation parity differs between the response and its best-matching
    /// context region.
    pub negation_mismatch: bool,
    /// Number of entities found in the response.
    pub entity_count: usize,
    /// Number of contradicted entities.
    pub contradictions: usize,
}

/// Does a context entity support (`Some(true)`), contradict (`Some(false)`),
/// or say nothing about (`None`) a response entity?
pub fn context_supports(response_ent: &EntityKind, context_ent: &EntityKind) -> Option<bool> {
    use EntityKind::*;
    match (response_ent, context_ent) {
        (Time(a), Time(b)) => Some(a == b),
        (Time(a), TimeRange(s, e)) => Some(a == s || a == e),
        (TimeRange(..), TimeRange(..)) => Some(response_ent.matches(context_ent)),
        (Weekday(d), Weekday(b)) => Some(d == b),
        (Weekday(d), WeekdayRange(s, e)) => {
            Some(text_engine::entities::expand_weekday_range(*s, *e).contains(d))
        }
        (WeekdayRange(..), WeekdayRange(..)) => Some(response_ent.matches(context_ent)),
        (Number(a), Number(b)) => Some((a - b).abs() < 1e-9),
        (Number(a), Duration(v, _)) => Some((a - v).abs() < 1e-9),
        (Duration(..), Duration(..)) => Some(response_ent.matches(context_ent)),
        (Duration(v, _), Number(b)) => Some((v - b).abs() < 1e-9),
        (Money(a), Money(b)) => Some((a - b).abs() < 1e-9),
        (Percent(a), Percent(b)) => Some((a - b).abs() < 1e-9),
        _ => None,
    }
}

/// Classify one response entity against all context entities.
pub fn entity_verdict(response_ent: &Entity, context_ents: &[Entity]) -> EntityVerdict {
    let mut comparable = false;
    for c in context_ents {
        match context_supports(&response_ent.kind, &c.kind) {
            Some(true) => return EntityVerdict::Supported,
            Some(false) => comparable = true,
            None => {}
        }
    }
    if comparable {
        EntityVerdict::Contradicted
    } else {
        EntityVerdict::Unsupported
    }
}

/// Damping applied to positive noise excursions (scores saturate near 1).
const UPWARD_NOISE_DAMP: f64 = 0.15;

const NEGATION_WORDS: &[&str] = &[
    "not",
    "no",
    "never",
    "none",
    "without",
    "closed",
    "excluding",
    "except",
    "neither",
];

fn has_negation(words: &[String]) -> bool {
    words
        .iter()
        .any(|w| NEGATION_WORDS.contains(&w.as_str()) || w.ends_with("n't"))
}

fn content_stems(text: &str) -> HashSet<String> {
    tokenize_words(text)
        .into_iter()
        .filter(|w| !is_stopword(w))
        .map(|w| porter_stem(&w))
        .collect()
}

/// Extract the entailment features for a verification request (perfect
/// entity checking — the model-aware variant is
/// [`extract_features_for_model`]).
pub fn extract_features(req: &VerificationRequest<'_>) -> Features {
    extract_features_for_model(req, 0, 0.0)
}

/// Extract features as a specific (imperfect) model perceives them: each
/// contradicted entity goes *unnoticed* with probability `miss_prob`, keyed
/// by (model seed, entity text) — a missed contradiction reads as support.
/// Different models miss different errors, which is exactly why the paper's
/// multi-SLM ensemble beats any single SLM.
pub fn extract_features_for_model(
    req: &VerificationRequest<'_>,
    model_seed: u64,
    miss_prob: f64,
) -> Features {
    let support_text = format!("{} {}", req.context, req.question);
    let context_ents = extract_entities(&support_text);
    let response_ents = extract_entities(req.response);

    let (mut supported, mut contradicted, mut unsupported) = (0usize, 0usize, 0usize);
    for e in &response_ents {
        match entity_verdict(e, &context_ents) {
            EntityVerdict::Supported => supported += 1,
            EntityVerdict::Contradicted => {
                let span = &req.response[e.start..e.end];
                let h = fnv1a(model_seed ^ 0x1111_2222_3333_4444, &[span, req.context]);
                let u = (splitmix64(h) >> 11) as f64 / (1u64 << 53) as f64;
                if u < miss_prob {
                    supported += 1; // the model fails to notice the conflict
                } else {
                    contradicted += 1;
                }
            }
            EntityVerdict::Unsupported => unsupported += 1,
        }
    }
    let entity_count = response_ents.len();
    let entity_agreement = if entity_count == 0 {
        1.0
    } else {
        (supported as f64 + 0.65 * unsupported as f64 + 0.12 * contradicted as f64)
            / entity_count as f64
    };

    let r_stems = content_stems(req.response);
    let c_stems = content_stems(&support_text);
    let containment =
        weighted_containment(&r_stems, &c_stems, |t| if t.len() >= 7 { 2.0 } else { 1.0 });

    let r_words = tokenize_words(req.response);
    let c_words = tokenize_words(req.context);
    let r_bigrams: HashSet<String> = word_ngrams(&r_words, 2).into_iter().collect();
    let c_bigrams: HashSet<String> = word_ngrams(&c_words, 2).into_iter().collect();
    let bigram_overlap = dice(&r_bigrams, &c_bigrams);

    // Negation parity against the context region that best matches the response.
    let neg_r = has_negation(&r_words);
    let neg_c = {
        let sentences = text_engine::split_sentences(req.context);
        let best = sentences
            .iter()
            .map(|s| {
                let s_stems = content_stems(s);
                let ov = weighted_containment(&r_stems, &s_stems, |_| 1.0);
                (s, ov)
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        match best {
            Some((s, _)) => has_negation(&tokenize_words(s)),
            None => false,
        }
    };

    Features {
        entity_agreement,
        containment,
        bigram_overlap,
        negation_mismatch: neg_r != neg_c,
        entity_count,
        contradictions: contradicted,
    }
}

/// Calibration constants of one simulated SLM.
#[derive(Debug, Clone)]
pub struct SimProfile {
    /// Model name (reports, per-model statistics).
    pub name: String,
    /// Weight of the entity-agreement feature.
    pub entity_weight: f64,
    /// Weight of the containment feature.
    pub containment_weight: f64,
    /// Weight of the bigram-overlap feature.
    pub bigram_weight: f64,
    /// Multiplier applied to the agreement when negation parity breaks.
    pub negation_penalty: f64,
    /// Softmax-style temperature on the agreement logit (>1 flattens).
    pub temperature: f64,
    /// Additive logit bias (positive = answers "yes" more readily).
    pub bias: f64,
    /// Standard deviation of the input-keyed noise on the logit.
    pub noise_sigma: f64,
    /// Seed mixed into the noise hash — two models with different seeds err
    /// on different inputs.
    pub seed: u64,
    /// Probability that this model fails to notice a contradicted entity
    /// (keyed per entity, so different models miss different errors).
    pub contradiction_miss_prob: f64,
    /// Probability of a heavy-tailed *downward* shock on a given input:
    /// instruction-tuned verifiers occasionally balk hard at a perfectly
    /// supported sentence (odd phrasing, tokenization quirks). This is what
    /// makes the `min` aggregation fragile (Fig. 5b) while leaving `max`
    /// untouched (Fig. 5a).
    pub tail_prob: f64,
    /// Magnitude of the downward shock, in logit units.
    pub tail_magnitude: f64,
    /// API-style models collapse the probability to a 0/1 decision.
    pub decision_only: bool,
    /// Large models read multi-sentence responses sentence by sentence even
    /// when asked for a single verdict: agreement is computed per sentence
    /// and averaged. One bad sentence among several is still diluted —
    /// which is why whole-response verification stays blind to *partial*
    /// responses — but a fully-wrong response is reliably rejected.
    pub sentence_aware: bool,
}

/// A behavioral verifier built from a [`SimProfile`].
#[derive(Debug, Clone)]
pub struct SimVerifier {
    profile: SimProfile,
}

impl SimVerifier {
    /// Wrap a profile.
    pub fn new(profile: SimProfile) -> Self {
        Self { profile }
    }

    /// The underlying profile.
    pub fn profile(&self) -> &SimProfile {
        &self.profile
    }

    /// Features as this model perceives them (with its contradiction misses).
    pub fn perceived_features(&self, request: &VerificationRequest<'_>) -> Features {
        extract_features_for_model(
            request,
            self.profile.seed,
            self.profile.contradiction_miss_prob,
        )
    }

    /// The blended agreement score in (0, 1) before calibration.
    pub fn agreement(&self, features: &Features) -> f64 {
        let p = &self.profile;
        let total = p.entity_weight + p.containment_weight + p.bigram_weight;
        let mut a = (p.entity_weight * features.entity_agreement
            + p.containment_weight * features.containment
            + p.bigram_weight * features.bigram_overlap)
            / total;
        if features.negation_mismatch {
            a *= p.negation_penalty;
        }
        // Sycophancy on unverifiable statements: a pleasantry with no
        // checkable facts ("planning ahead helps") reads as agreeable, and
        // instruction-tuned models lean toward "yes" on it unless the
        // polarity is off. Without this, innocuous closing sentences drag
        // response scores as hard as real errors.
        if features.entity_count == 0 && !features.negation_mismatch {
            a = a.max(0.62);
        }
        // Explicit contradictions dominate an instruction-tuned verifier's
        // judgment far beyond their share of the token overlap: scale the
        // agreement down by the fraction of contradicted entities.
        if features.entity_count > 0 && features.contradictions > 0 {
            let fraction = features.contradictions as f64 / features.entity_count as f64;
            a *= 1.0 - 0.55 * fraction;
        }
        a.clamp(0.02, 0.98)
    }
}

impl YesNoVerifier for SimVerifier {
    fn name(&self) -> &str {
        &self.profile.name
    }

    fn p_yes(&self, request: &VerificationRequest<'_>) -> f64 {
        let a = if self.profile.sentence_aware {
            let sentences = text_engine::split_sentences(request.response);
            if sentences.len() > 1 {
                let per: Vec<f64> = sentences
                    .iter()
                    .map(|s| {
                        let sub = VerificationRequest::new(request.question, request.context, s);
                        self.agreement(&self.perceived_features(&sub))
                    })
                    .collect();
                let mean = per.iter().sum::<f64>() / per.len() as f64;
                let max = per.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                // A single-verdict judgment anchors on the response's gist:
                // one clearly-supported statement pulls the whole response
                // toward "yes" (mean/max blend). This is what keeps whole-
                // response verification blind to *partially* wrong answers
                // while still rejecting fully-wrong ones.
                (0.5 * mean + 0.5 * max).clamp(0.02, 0.98)
            } else {
                self.agreement(&self.perceived_features(request))
            }
        } else {
            self.agreement(&self.perceived_features(request))
        };
        let logit = (a / (1.0 - a)).ln();
        let noise = input_noise(self.profile.seed, request);
        // Shocks are PER MODEL (each checkpoint balks at its own set of
        // inputs): a single SLM eats the full dip, while the ensemble halves
        // it — the paper's multi-SLM advantage. Because ensembled sentence
        // scores then carry frequent mild dips, the brittle `min`
        // aggregation degrades (Fig. 5b) while `max` stays immune (Fig. 5a).
        let shock = if tail_shock(self.profile.seed, request, self.profile.tail_prob) {
            let hm = fnv1a(self.profile.seed ^ 0x5eed_d002, &[request.response]);
            let u_model = (splitmix64(hm) >> 11) as f64 / (1u64 << 53) as f64;
            // Depth is bounded: a balked verifier drops to "suspicious",
            // not to the contradicted-sentence floor — that is what lets the
            // harmonic mean ride out a dip that breaks `min`.
            (self.profile.tail_magnitude * (0.5 + u_model)).clamp(1.0, 2.9)
        } else {
            0.0
        };
        // Verifier scores saturate toward "yes" for supported statements:
        // upward noise excursions are strongly damped while downward ones
        // (confusion, distrust) keep their full weight. This skew is what
        // protects the `max` aggregation (Fig. 5a) and erodes `min`.
        let skewed = if noise > 0.0 {
            noise * UPWARD_NOISE_DAMP
        } else {
            noise
        };
        let z = logit / self.profile.temperature
            + self.profile.bias
            + self.profile.noise_sigma * skewed
            - shock;
        let p = 1.0 / (1.0 + (-z).exp());
        if self.profile.decision_only {
            if p >= 0.5 {
                1.0
            } else {
                0.0
            }
        } else {
            p
        }
    }

    fn exposes_probabilities(&self) -> bool {
        !self.profile.decision_only
    }
}

/// FNV-1a 64-bit hash of string parts, each closed by a `0x1f` separator so
/// `["ab", "c"]` and `["a", "bc"]` differ; `seed` is XORed into the offset
/// basis. Stable across platforms and Rust versions, unlike
/// `DefaultHasher`; the crates above this one key their seeded draws with
/// it.
pub fn fnv1a(seed: u64, parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325 ^ seed;
    for part in parts {
        for b in part.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= 0x1f; // separator so ("ab","c") != ("a","bc")
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Deterministic standard-normal noise keyed by (model seed, request).
///
/// Local models are deterministic per input: the same prompt always yields
/// the same first-token distribution. The "noise" models which inputs a
/// given checkpoint happens to misjudge, so it must be a *function of the
/// input*, not a random draw per call.
pub fn input_noise(seed: u64, request: &VerificationRequest<'_>) -> f64 {
    let h = fnv1a(seed, &[request.question, request.context, request.response]);
    // Finalize through splitmix64 twice so the two uniforms are decorrelated
    // even when inputs differ in a single byte.
    let u1 = ((splitmix64(h) >> 11) as f64 / (1u64 << 53) as f64).max(f64::MIN_POSITIVE);
    let u2 = (splitmix64(h ^ 0xd6e8_feb8_6659_fd93) >> 11) as f64 / (1u64 << 53) as f64;
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Deterministic Bernoulli draw for the heavy-tail shock, keyed by
/// (model seed, request) like [`input_noise`] but on an independent stream.
pub fn tail_shock(seed: u64, request: &VerificationRequest<'_>, prob: f64) -> bool {
    if prob <= 0.0 {
        return false;
    }
    let h = fnv1a(
        seed ^ 0x7a11_540c_7a11_540c,
        &[request.question, request.context, request.response],
    );
    let u = (splitmix64(h) >> 11) as f64 / (1u64 << 53) as f64;
    u < prob
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(seed: u64) -> SimProfile {
        SimProfile {
            name: "test-slm".into(),
            entity_weight: 0.5,
            containment_weight: 0.3,
            bigram_weight: 0.2,
            negation_penalty: 0.45,
            temperature: 1.0,
            bias: 0.0,
            noise_sigma: 0.3,
            seed,
            contradiction_miss_prob: 0.0,
            decision_only: false,
            sentence_aware: false,
            tail_prob: 0.0,
            tail_magnitude: 0.0,
        }
    }

    const CTX: &str = "The store operates from 9 AM to 5 PM, from Sunday to Saturday. \
                       There should be at least three shopkeepers to run a shop.";
    const Q: &str = "What are the working hours?";

    #[test]
    fn correct_sentence_scores_high() {
        let v = SimVerifier::new(profile(1));
        let req = VerificationRequest::new(Q, CTX, "The working hours are 9 AM to 5 PM.");
        assert!(v.p_yes(&req) > 0.6, "p={}", v.p_yes(&req));
    }

    #[test]
    fn wrong_sentence_scores_low() {
        let v = SimVerifier::new(profile(1));
        let req = VerificationRequest::new(Q, CTX, "The working hours are 9 AM to 9 PM.");
        assert!(v.p_yes(&req) < 0.5, "p={}", v.p_yes(&req));
    }

    #[test]
    fn correct_beats_wrong_for_all_seeds() {
        for seed in 0..20 {
            let v = SimVerifier::new(profile(seed));
            let good = v.p_yes(&VerificationRequest::new(
                Q,
                CTX,
                "The working hours are 9 AM to 5 PM.",
            ));
            let bad = v.p_yes(&VerificationRequest::new(
                Q,
                CTX,
                "The working hours are 9 AM to 9 PM.",
            ));
            assert!(good > bad, "seed {seed}: good={good} bad={bad}");
        }
    }

    #[test]
    fn negation_flip_is_caught() {
        let v = SimVerifier::new(profile(2));
        let good = v.p_yes(&VerificationRequest::new(
            Q,
            CTX,
            "The store is open from Sunday to Saturday.",
        ));
        let bad = v.p_yes(&VerificationRequest::new(
            Q,
            CTX,
            "You do not need to work on weekends.",
        ));
        assert!(good > bad, "good={good} bad={bad}");
    }

    #[test]
    fn wrong_day_range_is_contradicted() {
        let feats = extract_features(&VerificationRequest::new(
            Q,
            CTX,
            "The store is open from Monday to Friday.",
        ));
        assert!(feats.contradictions >= 1, "{feats:?}");
        assert!(feats.entity_agreement < 0.5);
    }

    #[test]
    fn supported_entities_agree() {
        let feats = extract_features(&VerificationRequest::new(
            Q,
            CTX,
            "The working hours are 9 AM to 5 PM.",
        ));
        assert_eq!(feats.contradictions, 0);
        assert!(feats.entity_agreement > 0.9, "{feats:?}");
    }

    #[test]
    fn no_entities_falls_back_to_lexical() {
        let feats = extract_features(&VerificationRequest::new(Q, CTX, "The store runs a shop."));
        assert_eq!(feats.entity_count, 0);
        assert_eq!(feats.entity_agreement, 1.0);
        assert!(feats.containment > 0.5);
    }

    #[test]
    fn verdicts() {
        let ctx = extract_entities(CTX);
        let good = extract_entities("9 AM to 5 PM");
        assert_eq!(entity_verdict(&good[0], &ctx), EntityVerdict::Supported);
        let bad = extract_entities("9 AM to 9 PM");
        assert_eq!(entity_verdict(&bad[0], &ctx), EntityVerdict::Contradicted);
        let unrelated = extract_entities("$500");
        assert_eq!(
            entity_verdict(&unrelated[0], &ctx),
            EntityVerdict::Unsupported
        );
    }

    #[test]
    fn single_time_supported_by_range_endpoint() {
        let ctx = extract_entities(CTX);
        let open = extract_entities("opens at 9 AM");
        assert_eq!(entity_verdict(&open[0], &ctx), EntityVerdict::Supported);
        let closes_late = extract_entities("closes at 9 PM");
        assert_eq!(
            entity_verdict(&closes_late[0], &ctx),
            EntityVerdict::Contradicted
        );
    }

    #[test]
    fn p_yes_is_deterministic_per_input() {
        let v = SimVerifier::new(profile(5));
        let req = VerificationRequest::new(Q, CTX, "The working hours are 9 AM to 5 PM.");
        assert_eq!(v.p_yes(&req), v.p_yes(&req));
    }

    #[test]
    fn different_seeds_err_differently() {
        let a = SimVerifier::new(profile(1));
        let b = SimVerifier::new(profile(2));
        let req = VerificationRequest::new(Q, CTX, "The working hours are 9 AM to 5 PM.");
        assert_ne!(a.p_yes(&req), b.p_yes(&req));
    }

    #[test]
    fn decision_only_collapses_to_binary() {
        let mut p = profile(3);
        p.decision_only = true;
        let v = SimVerifier::new(p);
        let good = v.p_yes(&VerificationRequest::new(Q, CTX, "Hours are 9 AM to 5 PM."));
        let bad = v.p_yes(&VerificationRequest::new(Q, CTX, "Hours are 9 AM to 9 PM."));
        assert!(good == 0.0 || good == 1.0);
        assert!(bad == 0.0 || bad == 1.0);
        assert!(!v.exposes_probabilities());
    }

    #[test]
    fn bias_shifts_mean() {
        let mut hi = profile(4);
        hi.bias = 1.0;
        let mut lo = profile(4);
        lo.bias = -1.0;
        let req = VerificationRequest::new(Q, CTX, "The working hours are 9 AM to 5 PM.");
        assert!(SimVerifier::new(hi).p_yes(&req) > SimVerifier::new(lo).p_yes(&req));
    }

    #[test]
    fn noise_is_roughly_standard_normal() {
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        let n = 2000;
        for i in 0..n {
            let r = format!("response {i}");
            let req = VerificationRequest::new("q", "c", &r);
            let x = input_noise(42, &req);
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.1, "mean={mean}");
        assert!((var - 1.0).abs() < 0.2, "var={var}");
    }

    #[test]
    fn fnv_separator_prevents_concat_collisions() {
        assert_ne!(fnv1a(0, &["ab", "c"]), fnv1a(0, &["a", "bc"]));
    }

    proptest::proptest! {
        #[test]
        fn p_yes_always_in_unit_interval(
            resp in "[a-zA-Z0-9 .]{0,80}", seed in 0u64..100
        ) {
            let v = SimVerifier::new(profile(seed));
            let p = v.p_yes(&VerificationRequest::new(Q, CTX, &resp));
            proptest::prop_assert!((0.0..=1.0).contains(&p), "p={p}");
        }

        #[test]
        fn features_bounded(resp in "[a-zA-Z0-9 .]{0,80}") {
            let f = extract_features(&VerificationRequest::new(Q, CTX, &resp));
            proptest::prop_assert!((0.0..=1.0).contains(&f.entity_agreement));
            proptest::prop_assert!((0.0..=1.0).contains(&f.containment));
            proptest::prop_assert!((0.0..=1.0).contains(&f.bigram_overlap));
        }
    }
}
