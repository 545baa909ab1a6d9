//! First-token probability extraction — Eq. 2 of the paper.
//!
//! `s_i^(m) = P(token_1 = "yes" | q_i, r_i, c_i)`: run the verification
//! prompt through the model once, softmax the next-token logits, and read the
//! probability mass on the single-token "yes" piece, renormalized against
//! "no". This is exactly what local deployment buys over an API model — one
//! forward pass instead of repeated sampled calls.

use tensor::nn::softmax;

use crate::bpe::Bpe;
use crate::model::InferenceModel;
use crate::paged::{PagedPrefixCache, PoolExhausted};

/// The verification prompt template the paper shows in Fig. 1: question,
/// context and the (sub-)response, followed by an instruction to answer
/// starting with YES or NO.
pub fn verification_prompt(question: &str, context: &str, response: &str) -> String {
    format!(
        "context: {context}\nquestion: {question}\nanswer: {response}\n\
         is the answer correct according to the context? reply yes or no: "
    )
}

/// The response-independent head of [`verification_prompt`]: everything up to
/// (and excluding) the whitespace before the response. Shared by every
/// sentence probed against the same `(question, context)` cell, so its KV
/// state is what [`PagedPrefixCache`] snapshots.
pub fn prefix_prompt(question: &str, context: &str) -> String {
    format!("context: {context}\nquestion: {question}\nanswer:")
}

/// The response-dependent tail: `prefix_prompt() + suffix_prompt()` equals
/// [`verification_prompt`] character-for-character, split at a whitespace
/// boundary. The BPE normalizes and encodes word-by-word, so the split also
/// concatenates at the *token* level — `encode(prefix, bos) ++ encode(suffix,
/// no-bos) == encode(full, bos)` (asserted by the concat-property test),
/// which is what makes the prefix-cached path bitwise identical.
pub fn suffix_prompt(response: &str) -> String {
    format!(
        " {response}\n\
         is the answer correct according to the context? reply yes or no: "
    )
}

/// `P(yes)` renormalized against `P(no)` for one `(question, context,
/// response)` cell (the paper follows Kadavath et al.'s P(True), which
/// restricts mass to the two answer tokens). Returns a value in `[0, 1]`;
/// when both token probabilities are zero (degenerate weights) returns 0.5.
///
/// Generic over [`InferenceModel`]: the f32 and int8 engines run the same
/// extraction — the paper's Eq. 2 does not care what precision produced the
/// logits, only the eval gate does.
///
/// The prompt is tokenized once, as the [`prefix_prompt`] and
/// [`suffix_prompt`] halves; token-level concatenation at the whitespace
/// split makes `prefix ++ suffix` the ids of the whole
/// [`verification_prompt`]. With `paged = Some((cache, key))` the prefix's
/// KV state comes from the shared-prefix cache under snapshot `key` (the
/// verifier's name, so models never read each other's state): a hit forks
/// it in `O(blocks)` and copies zero floats, with copy-on-write only for the
/// partial tail page the suffix extends; a miss builds and deposits it.
/// Only the suffix is then prefilled. Fork-then-extend walks the same states
/// as a fresh full prefill, so the result is bitwise identical to
/// `paged = None`.
///
/// Two cases score through the uncached prefill of `prefix ++ suffix`
/// instead. Prompts that exceed the model's context window clamp from the
/// front — the tail (the response under test and the instruction) is the
/// signal-bearing part — which cuts into the shared prefix, so no reusable
/// snapshot exists. [`PoolExhausted`] at any reservation point degrades too
/// (the pool already counted the rejection), so exhaustion can never panic,
/// tear a fork, or change a verdict.
pub fn p_yes<M: InferenceModel>(
    model: &M,
    tokenizer: &Bpe,
    question: &str,
    context: &str,
    response: &str,
    paged: Option<(&PagedPrefixCache, &str)>,
) -> f64 {
    let prefix_ids = tokenizer.encode(&prefix_prompt(question, context), true);
    let suffix_ids = tokenizer.encode(&suffix_prompt(response), false);
    let max = model.config().max_seq_len;
    let fits = prefix_ids.len() + suffix_ids.len() <= max;
    if let Some((cache, key)) = paged.filter(|_| fits) {
        if let Ok(logits) = forked_logits(model, cache, key, &prefix_ids, &suffix_ids) {
            return renormalized_yes(&softmax(&logits), tokenizer);
        }
    }
    let mut ids = prefix_ids;
    ids.extend(suffix_ids);
    let ids = &ids[ids.len().saturating_sub(max)..];
    let mut kv = model.new_cache();
    renormalized_yes(&softmax(&model.prefill(ids, &mut kv)), tokenizer)
}

/// The pool-backed path of [`p_yes`]: fork (or build) the prefix snapshot
/// and prefill the suffix. Every reservation failure surfaces as a typed
/// error before any state was torn.
fn forked_logits<M: InferenceModel>(
    model: &M,
    cache: &PagedPrefixCache,
    key: &str,
    prefix_ids: &[u32],
    suffix_ids: &[u32],
) -> Result<Vec<f32>, PoolExhausted> {
    let need = prefix_ids.len() + suffix_ids.len();
    let mut kv = cache.fork_or_build(key, prefix_ids, need, |built| {
        model.prefill_cache_only(prefix_ids, built)
    })?;
    // On the miss path the cache shares the builder's pages, so this
    // reservation also copy-on-writes the partial tail page before the suffix
    // extends it.
    kv.try_reserve(suffix_ids.len())?;
    Ok(model.prefill(suffix_ids, &mut kv))
}

/// Yes-mass renormalized against no-mass; 0.5 when both are zero. One shared
/// helper so cached and uncached paths read the distribution identically.
fn renormalized_yes(dist: &[f32], tokenizer: &Bpe) -> f64 {
    let yes = dist
        .get(tokenizer.yes_token() as usize)
        .copied()
        .unwrap_or(0.0) as f64;
    let no = dist
        .get(tokenizer.no_token() as usize)
        .copied()
        .unwrap_or(0.0) as f64;
    if yes + no <= 0.0 {
        0.5
    } else {
        yes / (yes + no)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::model::TransformerLM;
    use crate::paged::{PagedKvPool, PagedPoolConfig, PrefixCacheConfig};
    use std::sync::Arc;

    /// A default-bounded paged prefix cache over a 64-page pool shaped for
    /// `model`.
    fn paged_cache(model: &TransformerLM) -> (Arc<PagedKvPool>, PagedPrefixCache) {
        let pool = Arc::new(PagedKvPool::new(PagedPoolConfig::for_model(
            model.config(),
            64,
        )));
        let cache = PagedPrefixCache::new(Arc::clone(&pool), PrefixCacheConfig::default());
        (pool, cache)
    }

    fn setup() -> (TransformerLM, Bpe) {
        let corpus = [
            "the store operates from 9 am to 5 pm",
            "working hours are from sunday to saturday",
            "is the answer correct according to the context reply yes or no",
            "context question answer",
        ];
        let bpe = Bpe::train(&corpus, 200);
        let model = TransformerLM::synthetic(ModelConfig::tiny(bpe.vocab_size()), 21);
        (model, bpe)
    }

    #[test]
    fn p_yes_is_probability_and_deterministic() {
        let (model, bpe) = setup();
        let (q, c, r) = ("what are the hours?", "store opens 9 am", "9 am");
        let p1 = p_yes(&model, &bpe, q, c, r, None);
        let p2 = p_yes(&model, &bpe, q, c, r, None);
        assert!((0.0..=1.0).contains(&p1));
        assert_eq!(p1, p2);
    }

    #[test]
    fn p_yes_depends_on_the_response() {
        // With synthetic weights the value is uninformative but it MUST
        // change with the input — the probability is really being read from
        // the forward pass, not a constant.
        let (model, bpe) = setup();
        let (q, c) = ("hours?", "store opens 9 am");
        let a = p_yes(&model, &bpe, q, c, "the store opens 9 am", None);
        let b = p_yes(&model, &bpe, q, c, "the store opens 5 pm", None);
        assert_ne!(a, b);
    }

    #[test]
    fn long_prompts_are_clamped_not_crashed() {
        let (model, bpe) = setup();
        let long_context = "the store operates from 9 am to 5 pm ".repeat(60);
        let p = p_yes(&model, &bpe, "hours?", &long_context, "9 am to 5 pm", None);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn prompt_template_contains_all_parts() {
        let p = verification_prompt("Q?", "CTX", "RESP");
        assert!(p.contains("Q?") && p.contains("CTX") && p.contains("RESP"));
        assert!(p.to_lowercase().contains("yes or no"));
    }

    #[test]
    fn prefix_plus_suffix_is_the_full_prompt() {
        for (q, c, r) in [
            ("hours?", "store opens 9 am", "9 am"),
            ("Q?", "CTX", ""),
            ("  spaced  q ", "ctx\nwith\nnewlines", "  padded resp  "),
        ] {
            assert_eq!(
                format!("{}{}", prefix_prompt(q, c), suffix_prompt(r)),
                verification_prompt(q, c, r),
                "({q:?}, {c:?}, {r:?})"
            );
        }
    }

    proptest::proptest! {
        /// The property every probe rests on: encoding the two halves
        /// separately yields exactly the tokens of the whole prompt, for
        /// arbitrary Unicode (question, context, response) triples. `p_yes`
        /// only ever tokenizes the halves.
        #[test]
        fn tokenization_concatenates_at_the_split(
            q in "(\\PC|[ \t\n]){0,40}",
            c in "(\\PC|[ \t\n]){0,80}",
            r in "(\\PC|[ \t\n]){0,40}",
        ) {
            let (_, bpe) = setup();
            let full = bpe.encode(&verification_prompt(&q, &c, &r), true);
            let mut split = bpe.encode(&prefix_prompt(&q, &c), true);
            split.extend(bpe.encode(&suffix_prompt(&r), false));
            proptest::prop_assert_eq!(split, full);
        }
    }

    #[test]
    fn p_yes_paged_is_bit_identical_cold_and_warm() {
        let (model, bpe) = setup();
        let (pool, cache) = paged_cache(&model);
        let cells = [
            ("what are the hours?", "store opens 9 am", "9 am"),
            ("what are the hours?", "store opens 9 am", "5 pm"),
            ("what are the hours?", "store opens 9 am", "9 am to 5 pm"),
            (
                "days?",
                "working hours are from sunday to saturday",
                "sunday",
            ),
        ];
        for &(q, c, r) in &cells {
            let plain = p_yes(&model, &bpe, q, c, r, None);
            let cold = p_yes(&model, &bpe, q, c, r, Some((&cache, "m")));
            let warm = p_yes(&model, &bpe, q, c, r, Some((&cache, "m")));
            assert_eq!(plain, cold, "cold ({q:?}, {r:?})");
            assert_eq!(plain, warm, "warm ({q:?}, {r:?})");
        }
        let stats = cache.stats();
        assert_eq!(stats.inserts, 2, "two distinct prefixes");
        assert_eq!(stats.hits, cells.len() as u64 * 2 - 2);
        assert!(pool.stats().cow_copies > 0, "suffix extension COWs");
        assert_eq!(pool.stats().rejected, 0);
    }

    /// A starved pool degrades to the uncached path — verdict
    /// parity preserved, rejection counted, never a panic or torn fork.
    #[test]
    fn exhausted_pool_degrades_to_the_uncached_path() {
        let (model, bpe) = setup();
        let (q, c, r) = ("what are the hours?", "store opens 9 am", "9 am");
        let plain = p_yes(&model, &bpe, q, c, r, None);
        for max_pages in 1..4 {
            let mut cfg = PagedPoolConfig::for_model(model.config(), max_pages);
            // Tiny pages so even short prompts need several of them.
            cfg.block_tokens = 4;
            let pool = Arc::new(PagedKvPool::new(cfg));
            let cache = PagedPrefixCache::new(Arc::clone(&pool), PrefixCacheConfig::default());
            for round in 0..2 {
                let p = p_yes(&model, &bpe, q, c, r, Some((&cache, "m")));
                assert_eq!(plain, p, "max_pages {max_pages} round {round}");
            }
            let prefix_len = bpe.encode(&prefix_prompt(q, c), true).len();
            if max_pages * 4 < prefix_len {
                assert!(
                    pool.stats().rejected > 0,
                    "prefix cannot fit in {max_pages} pages"
                );
                assert!(cache.is_empty(), "nothing was cached");
            }
        }
    }

    #[test]
    fn over_length_prompts_fall_back_to_the_clamped_path() {
        let (model, bpe) = setup();
        let (pool, cache) = paged_cache(&model);
        let long_context = "the store operates from 9 am to 5 pm ".repeat(60);
        let (q, r) = ("hours?", "9 am");
        let plain = p_yes(&model, &bpe, q, &long_context, r, None);
        let via_paged = p_yes(&model, &bpe, q, &long_context, r, Some((&cache, "m")));
        assert_eq!(plain, via_paged);
        assert!(cache.is_empty(), "nothing cacheable for clamped prompts");
        assert_eq!(
            pool.stats().pages_live,
            0,
            "the clamped path takes no pool pages"
        );
    }
}
