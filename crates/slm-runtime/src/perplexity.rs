//! Language-model scoring: token log-likelihoods and perplexity.
//!
//! Beyond yes/no verification, a deployed SLM is often asked "how surprising
//! is this text?" — perplexity underlies fluency filters and the
//! probability-based hallucination tests the paper's related work cites
//! (\[29\]'s distribution tests). One pass over the text yields the full
//! per-token log-likelihood profile.

use tensor::nn::log_softmax;

use crate::bpe::{Bpe, TokenId};
use crate::model::TransformerLM;

/// Log-likelihood profile of a token sequence under a model.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceScore {
    /// Per-token natural-log probabilities `log P(t_i | t_<i)`, starting at
    /// the second token (the first has no conditioning context).
    pub token_log_probs: Vec<f64>,
    /// Sum of the per-token log probabilities.
    pub total_log_prob: f64,
    /// `exp(−total / n)` — standard perplexity.
    pub perplexity: f64,
}

/// Score a token sequence (teacher forcing, one pass, KV cached).
///
/// # Panics
/// Panics if `tokens` has fewer than 2 tokens or exceeds the context window.
pub fn score_tokens(model: &TransformerLM, tokens: &[TokenId]) -> SequenceScore {
    assert!(tokens.len() >= 2, "need at least two tokens to score");
    let mut cache = model.new_cache();
    let mut token_log_probs = Vec::with_capacity(tokens.len() - 1);
    let mut logits = model.forward_token(tokens[0], &mut cache);
    for &next in &tokens[1..] {
        let logp = log_softmax(&logits);
        token_log_probs.push(f64::from(logp[next as usize]));
        logits = model.forward_token(next, &mut cache);
    }
    let total_log_prob: f64 = token_log_probs.iter().sum();
    let perplexity = (-total_log_prob / token_log_probs.len() as f64).exp();
    SequenceScore {
        token_log_probs,
        total_log_prob,
        perplexity,
    }
}

/// Tokenize text (with BOS) and score it.
///
/// Returns `None` when the text tokenizes to fewer than 2 tokens.
pub fn score_text(model: &TransformerLM, tokenizer: &Bpe, text: &str) -> Option<SequenceScore> {
    let ids = tokenizer.encode(text, true);
    let max = model.config().max_seq_len;
    let ids = if ids.len() > max {
        &ids[..max]
    } else {
        &ids[..]
    };
    if ids.len() < 2 {
        return None;
    }
    Some(score_tokens(model, ids))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;

    fn setup() -> (TransformerLM, Bpe) {
        let bpe = Bpe::train(
            &["the store opens at nine and closes at five every day"],
            120,
        );
        let model = TransformerLM::synthetic(ModelConfig::tiny(bpe.vocab_size()), 23);
        (model, bpe)
    }

    #[test]
    fn log_probs_are_valid() {
        let (model, bpe) = setup();
        let s = score_text(&model, &bpe, "the store opens at nine").unwrap();
        assert!(!s.token_log_probs.is_empty());
        assert!(s
            .token_log_probs
            .iter()
            .all(|&lp| lp <= 0.0 && lp.is_finite()));
        assert!((s.total_log_prob - s.token_log_probs.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn perplexity_formula_holds() {
        let (model, bpe) = setup();
        let s = score_text(&model, &bpe, "the store opens").unwrap();
        let n = s.token_log_probs.len() as f64;
        assert!((s.perplexity - (-s.total_log_prob / n).exp()).abs() < 1e-9);
        assert!(s.perplexity >= 1.0);
    }

    #[test]
    fn perplexity_bounded_by_vocab() {
        // uniform prediction gives ppl == vocab size; a real model stays below
        // astronomically worse than that
        let (model, bpe) = setup();
        let s = score_text(&model, &bpe, "the store opens at nine").unwrap();
        assert!(s.perplexity < (bpe.vocab_size() as f64) * 10.0);
    }

    #[test]
    fn greedy_continuation_has_maximal_token_prob() {
        // the greedy token must be at least as probable as any alternative
        let (model, bpe) = setup();
        let prompt = bpe.encode("the store", true);
        let greedy = model.generate_greedy(&prompt, 1, None)[0];
        let mut with_greedy = prompt.clone();
        with_greedy.push(greedy);
        let s_greedy = score_tokens(&model, &with_greedy);
        let alternative = if greedy == 5 { 6 } else { 5 };
        let mut with_alt = prompt.clone();
        with_alt.push(alternative);
        let s_alt = score_tokens(&model, &with_alt);
        assert!(s_greedy.token_log_probs.last().unwrap() >= s_alt.token_log_probs.last().unwrap());
    }

    #[test]
    fn too_short_text_is_none() {
        let (model, bpe) = setup();
        assert!(score_text(&model, &bpe, "").is_none());
    }

    #[test]
    #[should_panic(expected = "at least two tokens")]
    fn single_token_panics() {
        let (model, _) = setup();
        score_tokens(&model, &[1]);
    }

    #[test]
    fn deterministic() {
        let (model, bpe) = setup();
        let a = score_text(&model, &bpe, "the store opens at nine").unwrap();
        let b = score_text(&model, &bpe, "the store opens at nine").unwrap();
        assert_eq!(a, b);
    }
}
