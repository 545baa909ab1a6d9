//! A [`YesNoVerifier`] backed by the real transformer engine.
//!
//! This is the paper's deployment exactly: a locally hosted model, one
//! forward pass per (question, context, sentence), `P(token_1 = "yes")`
//! read from the logits. With trained weights this is the production slot;
//! with the synthetic weights available offline it is the *mechanical* path
//! the behavioral simulators stand in for — and the two are interchangeable
//! behind the trait, which is the point.

use std::sync::Arc;

use crate::bpe::Bpe;
use crate::model::{InferenceModel, TransformerLM};
use crate::paged::PagedPrefixCache;
use crate::prob::p_yes;
use crate::verifier::{VerificationRequest, YesNoVerifier};

/// A verifier slot running an actual engine — the f32 [`TransformerLM`] by
/// default, or the int8 `QuantizedLM` via the `M` parameter. Precision is a
/// per-member knob: an ensemble can mix int8 screeners with an f32
/// tie-breaker, and the AUC eval gate (`quant_sweep`) bounds the verdict
/// drift that mixing introduces.
pub struct EngineVerifier<M: InferenceModel = TransformerLM> {
    name: String,
    model: M,
    tokenizer: Bpe,
    /// When set, `(question, context)` prefixes are prefilled once and forked
    /// per sentence as O(blocks) page-handle clones from the shared pool —
    /// bitwise-neutral to scores (see [`PagedPrefixCache`]), and a full pool
    /// degrades to the uncached path with the same bits.
    paged_cache: Option<Arc<PagedPrefixCache>>,
}

impl<M: InferenceModel> EngineVerifier<M> {
    /// Wrap a model + tokenizer under a display name.
    pub fn new(name: impl Into<String>, model: M, tokenizer: Bpe) -> Self {
        Self {
            name: name.into(),
            model,
            tokenizer,
            paged_cache: None,
        }
    }

    /// Attach a paged prefix cache backed by a shared page pool. The cache
    /// may be shared across verifiers: snapshots are keyed by verifier name,
    /// so models never read each other's KV state. Cached and uncached
    /// verifiers produce bitwise-identical scores, so the cache is purely a
    /// cost knob.
    pub fn with_paged_cache(mut self, cache: Arc<PagedPrefixCache>) -> Self {
        self.paged_cache = Some(cache);
        self
    }

    /// The attached paged prefix cache, if any.
    pub fn paged_cache(&self) -> Option<&Arc<PagedPrefixCache>> {
        self.paged_cache.as_ref()
    }

    /// The wrapped model (inspection).
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The wrapped tokenizer.
    pub fn tokenizer(&self) -> &Bpe {
        &self.tokenizer
    }
}

impl<M: InferenceModel + Send + Sync> YesNoVerifier for EngineVerifier<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn p_yes(&self, request: &VerificationRequest<'_>) -> f64 {
        p_yes(
            &self.model,
            &self.tokenizer,
            request.question,
            request.context,
            request.response,
            self.paged_cache.as_deref().map(|c| (c, self.name.as_str())),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;

    fn verifier() -> EngineVerifier {
        let bpe = Bpe::train(
            &[
                "the store operates from 9 am to 5 pm",
                "is the answer correct according to the context reply yes or no",
            ],
            250,
        );
        let model = TransformerLM::synthetic(ModelConfig::tiny(bpe.vocab_size()), 41);
        EngineVerifier::new("engine-tiny", model, bpe)
    }

    #[test]
    fn implements_the_trait() {
        let v = verifier();
        let req = VerificationRequest::new("hours?", "the store operates from 9 am", "9 am");
        let p = v.p_yes(&req);
        assert!((0.0..=1.0).contains(&p));
        assert!(v.exposes_probabilities());
        assert_eq!(v.name(), "engine-tiny");
    }

    #[test]
    fn deterministic_and_input_sensitive() {
        let v = verifier();
        let a = v.p_yes(&VerificationRequest::new("q", "ctx 9 am", "9 am"));
        let b = v.p_yes(&VerificationRequest::new("q", "ctx 9 am", "9 am"));
        let c = v.p_yes(&VerificationRequest::new("q", "ctx 9 am", "5 pm"));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn prefix_cached_scores_are_bit_identical_to_uncached() {
        use crate::paged::{PagedKvPool, PagedPoolConfig, PrefixCacheConfig};
        let plain = verifier();
        let pool = Arc::new(PagedKvPool::new(PagedPoolConfig::for_model(
            plain.model().config(),
            64,
        )));
        let cached = verifier().with_paged_cache(Arc::new(PagedPrefixCache::new(
            Arc::clone(&pool),
            PrefixCacheConfig::default(),
        )));
        // Several sentences against the same (question, context) cell: the
        // first builds the snapshot, the rest fork it.
        let sentences = ["9 am", "5 pm", "9 am to 5 pm", "the store operates"];
        for r in sentences {
            let req = VerificationRequest::new("hours?", "the store operates from 9 am", r);
            assert_eq!(
                plain.p_yes(&req).to_bits(),
                cached.p_yes(&req).to_bits(),
                "sentence {r:?}"
            );
        }
        let stats = cached.paged_cache().expect("attached").stats();
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.hits, sentences.len() as u64 - 1);
        assert!(pool.stats().pages_live > 0, "snapshot holds pool pages");
    }

    #[test]
    fn slots_into_the_detector_alongside_simulators() {
        // the whole point of the trait: engine-backed and behavioral
        // verifiers are interchangeable ensemble members
        let boxed: Vec<Box<dyn YesNoVerifier>> =
            vec![Box::new(verifier()), Box::new(crate::profiles::qwen2_sim())];
        let req = VerificationRequest::new("q", "the store operates from 9 am", "9 am");
        for v in &boxed {
            let p = v.p_yes(&req);
            assert!((0.0..=1.0).contains(&p), "{}: {p}", v.name());
        }
    }
}
