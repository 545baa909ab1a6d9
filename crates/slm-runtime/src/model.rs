//! The decoder-only transformer language model.

use tensor::nn::rmsnorm;
use tensor::ops::axpy;
use tensor::{Linear, Matrix};

use crate::attention::{attention_block, attention_step};
use crate::bpe::TokenId;
use crate::config::ModelConfig;
use crate::ffn::{ffn_block, ffn_step};
use crate::kv::{KvCache, KvStore};
use crate::rope::RopeTable;
use crate::weights::{LayerView, ModelWeights};

/// One token through every layer: the residual stream *before* the final
/// norm, with the token's K/V committed and the cache advanced. Shared by the
/// f32 and int8 engines — only the [`LayerView`] projections differ.
///
/// # Panics
/// Panics if the cache is full or the token id is out of vocabulary.
pub(crate) fn forward_token_core<C: KvStore, L: LayerView>(
    cfg: &ModelConfig,
    embed: &Matrix,
    layers: &[L],
    rope: &RopeTable,
    token: TokenId,
    cache: &mut C,
) -> Vec<f32> {
    let h = cfg.hidden;
    assert!(
        (token as usize) < cfg.vocab_size,
        "token {token} out of vocabulary"
    );
    let mut x: Vec<f32> = embed.row(token as usize).to_vec();
    let mut normed = vec![0.0f32; h];

    for (layer_idx, layer) in layers.iter().enumerate() {
        // Pre-norm attention with residual.
        rmsnorm(&x, layer.attn_norm(), cfg.norm_eps, &mut normed);
        let attn_out = attention_step(cfg, layer, rope, cache, layer_idx, &normed);
        axpy(1.0, &attn_out, &mut x);

        // Pre-norm FFN with residual.
        rmsnorm(&x, layer.ffn_norm(), cfg.norm_eps, &mut normed);
        let ffn_out = ffn_step(layer, &normed);
        axpy(1.0, &ffn_out, &mut x);
    }
    cache.advance();
    x
}

/// A block of tokens through every layer as blocked GEMMs: one residual row
/// per token (pre final-norm), K/V committed via `advance_by`. Row `i` is
/// bit-identical to [`forward_token_core`] on `tokens[i]` — the projections
/// satisfy the [`Linear`] block/single-row contract and rmsnorm, the
/// attention core and axpy run per row in sequential order.
pub(crate) fn forward_block_core<C: KvStore, L: LayerView>(
    cfg: &ModelConfig,
    embed: &Matrix,
    layers: &[L],
    rope: &RopeTable,
    tokens: &[TokenId],
    cache: &mut C,
) -> Matrix {
    let h = cfg.hidden;
    let block = tokens.len();
    let mut xs = Matrix::zeros(block, h);
    for (i, &t) in tokens.iter().enumerate() {
        assert!((t as usize) < cfg.vocab_size, "token {t} out of vocabulary");
        xs.row_mut(i).copy_from_slice(embed.row(t as usize));
    }

    let mut normed = Matrix::zeros(block, h);
    for (layer_idx, layer) in layers.iter().enumerate() {
        for i in 0..block {
            rmsnorm(
                xs.row(i),
                layer.attn_norm(),
                cfg.norm_eps,
                normed.row_mut(i),
            );
        }
        let attn_out = attention_block(cfg, layer, rope, cache, layer_idx, &normed);
        for i in 0..block {
            axpy(1.0, attn_out.row(i), xs.row_mut(i));
        }

        for i in 0..block {
            rmsnorm(xs.row(i), layer.ffn_norm(), cfg.norm_eps, normed.row_mut(i));
        }
        let ffn_out = ffn_block(layer, &normed);
        for i in 0..block {
            axpy(1.0, ffn_out.row(i), xs.row_mut(i));
        }
    }
    cache.advance_by(block);
    xs
}

/// Final norm + LM head, shared by every prefill path of both precisions.
///
/// The LM head is the widest matrix in the model; for large vocabularies its
/// columns are split across threads ([`Linear::apply_parallel`] is
/// bit-identical to serial for both precisions).
pub(crate) fn finish_logits_core<Lin: Linear>(
    cfg: &ModelConfig,
    final_norm: &[f32],
    lm_head: &Lin,
    last_residual: &[f32],
) -> Vec<f32> {
    let mut x = vec![0.0f32; cfg.hidden];
    rmsnorm(last_residual, final_norm, cfg.norm_eps, &mut x);
    if cfg.vocab_size >= 4096 {
        lm_head.apply_parallel(&x, lm_head_threads())
    } else {
        lm_head.apply(&x)
    }
}

/// Threads for the wide LM head: the host's parallelism, capped at 8.
fn lm_head_threads() -> usize {
    crate::batch::host_parallelism().min(8)
}

/// Tokens per GEMM block in [`InferenceModel::prefill`]. Bounds activation
/// memory to `PREFILL_BLOCK × hidden` floats per buffer while keeping the
/// projection matmuls wide enough that `B`-panel reuse pays off.
///
/// Public because it is also the page size of the paged KV pool
/// ([`crate::paged::PagedPoolConfig::for_model`]), so a prefill chunk fills
/// whole pages, and callers size a pool's page budget from it.
pub const PREFILL_BLOCK: usize = 64;

/// A model the probe can drive: the one API of the f32 [`TransformerLM`] and
/// the int8 `quant::QuantizedLM`.
///
/// Implementors supply the per-token forward, the blocked forward, and the
/// final-norm + LM-head projection; the prefill family and cache allocation
/// are provided in terms of those, so both precisions run the *same*
/// chunking/finish logic — the paged KV machinery and the `p_yes`
/// probability extraction are generic over this trait. The engine is
/// probe-only: it prefills a prompt and returns one next-token distribution.
pub trait InferenceModel {
    /// Model configuration.
    fn config(&self) -> &ModelConfig;

    /// Run one token at position `cache.len()`, advance the cache, return the
    /// next-token logits. The sequential reference the blocked forward is
    /// checked against (see [`prefill_sequential`]).
    ///
    /// # Panics
    /// Panics if the cache is full or the token id is out of vocabulary.
    fn forward_token<C: KvStore>(&self, token: TokenId, cache: &mut C) -> Vec<f32>;

    /// Run a block of tokens through all layers as blocked GEMMs, committing
    /// their K/V rows and returning the residual stream (one row per token,
    /// *before* the final norm). Row `i` must be bit-identical to the
    /// residual [`InferenceModel::forward_token`] would hold for `tokens[i]`.
    fn forward_block_states<C: KvStore>(&self, tokens: &[TokenId], cache: &mut C) -> Matrix;

    /// Final norm + LM head on a residual-stream row: the shared tail of
    /// every prefill path.
    fn finish_logits(&self, last_residual: &[f32]) -> Vec<f32>;

    /// Allocate a fresh KV cache sized for the full context window.
    fn new_cache(&self) -> KvCache {
        self.new_cache_with_capacity(self.config().max_seq_len)
    }

    /// Allocate a fresh KV cache with exactly `max_seq` positions (clamped to
    /// the model's context window, floored at 1). Per-probe forks size their
    /// cache for the prompt actually being scored.
    fn new_cache_with_capacity(&self, max_seq: usize) -> KvCache {
        let cfg = self.config();
        KvCache::new(
            cfg.n_layers,
            max_seq.min(cfg.max_seq_len).max(1),
            cfg.n_kv_heads * cfg.head_dim(),
        )
    }

    /// Blocked-GEMM prefill: run the prompt in [`PREFILL_BLOCK`] chunks and
    /// return the logits after the final prompt token.
    ///
    /// Bit-identical to [`prefill_sequential`], and faster on two counts: the
    /// projection/FFN matmuls process [`PREFILL_BLOCK`] tokens per
    /// weight-matrix pass, and the LM head (the widest matrix in the model)
    /// is applied once, to the final token.
    ///
    /// # Panics
    /// Panics on an empty prompt or when the prompt exceeds the cache.
    fn prefill<C: KvStore>(&self, prompt: &[TokenId], cache: &mut C) -> Vec<f32> {
        assert!(!prompt.is_empty(), "prompt must not be empty");
        assert!(
            prompt.len() <= cache.remaining(),
            "prompt longer than cache capacity"
        );
        let mut last = Vec::new();
        for chunk in prompt.chunks(PREFILL_BLOCK) {
            let xs = self.forward_block_states(chunk, cache);
            last = xs.row(xs.rows() - 1).to_vec();
        }
        self.finish_logits(&last)
    }

    /// Prefill a prompt's K/V state without computing any logits (prefix
    /// snapshotting). Skips the final norm and the LM head entirely.
    ///
    /// # Panics
    /// Panics on an empty prompt or when the prompt exceeds the cache.
    fn prefill_cache_only<C: KvStore>(&self, prompt: &[TokenId], cache: &mut C) {
        assert!(!prompt.is_empty(), "prompt must not be empty");
        assert!(
            prompt.len() <= cache.remaining(),
            "prompt longer than cache capacity"
        );
        for chunk in prompt.chunks(PREFILL_BLOCK) {
            self.forward_block_states(chunk, cache);
        }
    }
}

/// Token-at-a-time prefill: the parity reference for
/// [`InferenceModel::prefill`] and the baseline the prefill bench and sweep
/// time. It computes (and discards) full-vocabulary logits for every prompt
/// token — the cost the blocked path avoids.
///
/// # Panics
/// Panics on an empty prompt or when the prompt exceeds the cache.
pub fn prefill_sequential<M: InferenceModel, C: KvStore>(
    model: &M,
    prompt: &[TokenId],
    cache: &mut C,
) -> Vec<f32> {
    assert!(!prompt.is_empty(), "prompt must not be empty");
    assert!(
        prompt.len() <= cache.remaining(),
        "prompt longer than cache capacity"
    );
    let mut logits = Vec::new();
    for &t in prompt {
        logits = model.forward_token(t, cache);
    }
    logits
}

/// A runnable transformer LM: config + weights + RoPE tables.
#[derive(Debug, Clone)]
pub struct TransformerLM {
    cfg: ModelConfig,
    weights: ModelWeights,
    rope: RopeTable,
}

impl TransformerLM {
    /// Assemble a model. The weights must match `cfg`'s shapes (they do by
    /// construction when built with [`ModelWeights::synthetic`]).
    ///
    /// # Panics
    /// Panics if the config is invalid, naming the failed constraint.
    pub fn new(cfg: ModelConfig, weights: ModelWeights) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid model config: {e}");
        }
        let rope = RopeTable::new(cfg.head_dim(), cfg.max_seq_len, cfg.rope_theta);
        Self { cfg, weights, rope }
    }

    /// Convenience: synthetic weights from a seed.
    pub fn synthetic(cfg: ModelConfig, seed: u64) -> Self {
        let weights = ModelWeights::synthetic(&cfg, seed);
        Self::new(cfg, weights)
    }
}

impl InferenceModel for TransformerLM {
    fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    fn forward_token<C: KvStore>(&self, token: TokenId, cache: &mut C) -> Vec<f32> {
        let x = forward_token_core(
            &self.cfg,
            &self.weights.embed,
            &self.weights.layers,
            &self.rope,
            token,
            cache,
        );
        self.finish_logits(&x)
    }

    fn forward_block_states<C: KvStore>(&self, tokens: &[TokenId], cache: &mut C) -> Matrix {
        forward_block_core(
            &self.cfg,
            &self.weights.embed,
            &self.weights.layers,
            &self.rope,
            tokens,
            cache,
        )
    }

    fn finish_logits(&self, last_residual: &[f32]) -> Vec<f32> {
        finish_logits_core(
            &self.cfg,
            &self.weights.final_norm,
            &self.weights.lm_head,
            last_residual,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> TransformerLM {
        TransformerLM::synthetic(ModelConfig::tiny(48), 11)
    }

    #[test]
    fn logits_cover_vocab_and_are_finite() {
        let m = tiny_model();
        let mut cache = m.new_cache();
        let logits = m.forward_token(5, &mut cache);
        assert_eq!(logits.len(), 48);
        assert!(logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn forward_is_deterministic() {
        let m = tiny_model();
        let mut c1 = m.new_cache();
        let mut c2 = m.new_cache();
        assert_eq!(
            m.prefill(&[1, 2, 3], &mut c1),
            m.prefill(&[1, 2, 3], &mut c2)
        );
    }

    #[test]
    fn different_prompts_give_different_logits() {
        let m = tiny_model();
        let mut c1 = m.new_cache();
        let mut c2 = m.new_cache();
        let a = m.prefill(&[1, 2, 3], &mut c1);
        let b = m.prefill(&[1, 2, 4], &mut c2);
        assert_ne!(a, b);
    }

    #[test]
    fn context_affects_final_logits() {
        // Same final token, different prefix → different logits (attention works).
        let m = tiny_model();
        let mut c1 = m.new_cache();
        let mut c2 = m.new_cache();
        let a = m.prefill(&[7, 9], &mut c1);
        let b = m.prefill(&[8, 9], &mut c2);
        let diff: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-4);
    }

    #[test]
    fn prefill_advances_cache() {
        let m = tiny_model();
        let mut cache = m.new_cache();
        m.prefill(&[1, 2, 3, 4], &mut cache);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn incremental_equals_prefill() {
        // Running tokens one at a time through the same cache must equal the
        // blocked prefill — bitwise, not approximately: the GEMM rows
        // accumulate in the same order as the per-token vecmats.
        let m = tiny_model();
        let mut c1 = m.new_cache();
        let full = m.prefill(&[3, 1, 4, 1, 5], &mut c1);

        let mut c2 = m.new_cache();
        let mut last = Vec::new();
        for &t in &[3, 1, 4, 1, 5] {
            last = m.forward_token(t, &mut c2);
        }
        assert_eq!(full, last);
    }

    #[test]
    fn gemm_prefill_is_bit_identical_to_sequential() {
        // Across prompt lengths that cover a single partial block, exact
        // block multiples, and a PREFILL_BLOCK boundary crossing.
        let m = tiny_model();
        for len in [1usize, 2, 5, 63, 64, 65, 130] {
            let prompt: Vec<TokenId> = (0..len).map(|i| ((i * 7 + 3) % 48) as TokenId).collect();
            let mut c_blk = m.new_cache();
            let mut c_seq = m.new_cache();
            let blk = m.prefill(&prompt, &mut c_blk);
            let seq = prefill_sequential(&m, &prompt, &mut c_seq);
            assert_eq!(blk, seq, "len {len}");
            assert_eq!(c_blk.len(), c_seq.len(), "len {len}");
            for layer in 0..m.config().n_layers {
                for pos in 0..c_blk.len() {
                    assert_eq!(
                        c_blk.key(layer, pos),
                        c_seq.key(layer, pos),
                        "len {len} layer {layer} pos {pos}"
                    );
                    assert_eq!(
                        c_blk.value(layer, pos),
                        c_seq.value(layer, pos),
                        "len {len} layer {layer} pos {pos}"
                    );
                }
            }
        }
    }

    #[test]
    fn cache_only_prefill_leaves_identical_kv_state() {
        // prefill_cache_only must put the cache in the same state as prefill;
        // a token forwarded afterwards sees identical logits.
        let m = tiny_model();
        let prompt: Vec<TokenId> = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let mut c_full = m.new_cache();
        let mut c_kv = m.new_cache();
        m.prefill(&prompt, &mut c_full);
        m.prefill_cache_only(&prompt, &mut c_kv);
        assert_eq!(c_full.len(), c_kv.len());
        let a = m.forward_token(7, &mut c_full);
        let b = m.forward_token(7, &mut c_kv);
        assert_eq!(a, b);
    }

    #[test]
    fn forked_cache_extends_like_the_original() {
        // Fork-then-extend parity: snapshotting a prefix KV state, forking it
        // with fresh capacity, and extending with a suffix must be bitwise
        // identical to prefilling prefix+suffix from scratch.
        let m = tiny_model();
        let prefix: Vec<TokenId> = vec![3, 1, 4, 1, 5];
        let suffix: Vec<TokenId> = vec![9, 2, 6];
        let full: Vec<TokenId> = prefix.iter().chain(&suffix).copied().collect();

        let mut c_scratch = m.new_cache();
        let scratch = m.prefill(&full, &mut c_scratch);

        let mut c_prefix = m.new_cache();
        m.prefill_cache_only(&prefix, &mut c_prefix);
        let snapshot = c_prefix.fork_with_capacity(prefix.len());
        let mut forked = snapshot.fork_with_capacity(m.config().max_seq_len);
        let via_fork = m.prefill(&suffix, &mut forked);

        assert_eq!(scratch, via_fork);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn oov_token_panics() {
        let m = tiny_model();
        let mut cache = m.new_cache();
        m.forward_token(999, &mut cache);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_prompt_panics() {
        let m = tiny_model();
        let mut cache = m.new_cache();
        m.prefill(&[], &mut cache);
    }
}
