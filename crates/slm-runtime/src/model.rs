//! The decoder-only transformer language model.

use tensor::nn::rmsnorm;
use tensor::ops::axpy;
use tensor::{Linear, Matrix, PackedMatrix};

use crate::attention::{attention_block, attention_step, rows_from};
use crate::bpe::TokenId;
use crate::config::ModelConfig;
use crate::ffn::{ffn_block, ffn_step};
use crate::kv::{KvCache, KvStore};
use crate::rope::RopeTable;
use crate::weights::{LayerView, LayerWeights, ModelWeights};

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
/// are provided in terms of those (the prefills through
/// [`InferenceModel::forward_block_last`], which the engines override), so
/// every implementor runs the *same* chunking/finish logic — the paged KV
/// machinery and the `p_yes`
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

    /// Run a block through all layers, committing its K/V rows like
    /// [`InferenceModel::forward_block_states`], and return only what a
    /// prefill reads: the final token's residual when `read_last`, nothing
    /// otherwise.
    ///
    /// The default reads the last row of `forward_block_states`, so a
    /// delegate that implements only the required methods stays bit-equal.
    /// The engines override it to run the last layer's query, attention
    /// core, `wo` and FFN for the read row alone.
    fn forward_block_last<C: KvStore>(
        &self,
        tokens: &[TokenId],
        cache: &mut C,
        read_last: bool,
    ) -> Option<Vec<f32>> {
        let xs = self.forward_block_states(tokens, cache);
        read_last.then(|| xs.row(xs.rows() - 1).to_vec())
    }

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
    /// Bit-identical to [`prefill_sequential`], and faster on three counts:
    /// the projection/FFN matmuls process [`PREFILL_BLOCK`] tokens per
    /// weight-matrix pass, only the final token runs the last layer past
    /// its K/V ([`InferenceModel::forward_block_last`]), and the LM head
    /// (the widest matrix in the model) is applied once, to that token.
    ///
    /// # Panics
    /// Panics on an empty prompt or when the prompt exceeds the cache.
    fn prefill<C: KvStore>(&self, prompt: &[TokenId], cache: &mut C) -> Vec<f32> {
        assert!(!prompt.is_empty(), "prompt must not be empty");
        assert!(
            prompt.len() <= cache.remaining(),
            "prompt longer than cache capacity"
        );
        let (head, last) = prompt.split_at((prompt.len() - 1) / PREFILL_BLOCK * PREFILL_BLOCK);
        for chunk in head.chunks(PREFILL_BLOCK) {
            self.forward_block_last(chunk, cache, false);
        }
        let residual = self
            .forward_block_last(last, cache, true)
            .expect("a read block returns its final residual");
        self.finish_logits(&residual)
    }

    /// Prefill a prompt's K/V state without computing any logits (prefix
    /// snapshotting). No row runs the last layer past its K/V, and the
    /// final norm and the LM head are skipped entirely.
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
            self.forward_block_last(chunk, cache, false);
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

/// A runnable transformer LM: config, weights in the layer layout `L`, and
/// RoPE tables. [`TransformerLM`] computes in f32 and
/// [`crate::quant::QuantizedLM`] in int8: both are this one
/// [`InferenceModel`] implementation over [`LayerWeights`] and differ only
/// in the projection type.
#[derive(Debug, Clone)]
pub struct Transformer<L: LayerView> {
    cfg: ModelConfig,
    embed: Matrix,
    layers: Vec<L>,
    final_norm: Vec<f32>,
    lm_head: L::Lin,
    rope: RopeTable,
}

/// The f32 transformer LM: every projection a [`PackedMatrix`].
pub type TransformerLM = Transformer<LayerWeights<PackedMatrix>>;

impl TransformerLM {
    /// Assemble a model. The weights must match `cfg`'s shapes (they do by
    /// construction when built with [`ModelWeights::synthetic`]). Each f32
    /// projection is packed and dropped in turn, so the packed weights
    /// replace the row-major ones rather than sitting beside them.
    ///
    /// # Panics
    /// Panics if the config is invalid, naming the failed constraint.
    pub fn new(cfg: ModelConfig, weights: ModelWeights) -> Self {
        let ModelWeights {
            embed,
            layers,
            final_norm,
            lm_head,
        } = weights;
        let pack = |w: Matrix| PackedMatrix::pack(&w);
        let layers = layers.into_iter().map(|l| l.map(pack)).collect();
        Self::from_parts(cfg, embed, layers, final_norm, pack(lm_head))
    }

    /// Convenience: synthetic weights from a seed.
    pub fn synthetic(cfg: ModelConfig, seed: u64) -> Self {
        let weights = ModelWeights::synthetic(&cfg, seed);
        Self::new(cfg, weights)
    }
}

/// The rows of a block whose residual [`Transformer::forward_block_core`]
/// finishes.
///
/// Every layer projects, rotates and stages K/V for every row, because
/// later rows, later chunks and forked prefix snapshots attend to them. The
/// last layer's query, attention core, `wo` and FFN only make residual
/// rows, and a prefill reads one residual row per prompt, so the caller
/// names the rows it reads and the last layer finishes those alone.
#[derive(Debug, Clone, Copy)]
enum Finish {
    /// Every row: [`InferenceModel::forward_block_states`].
    All,
    /// The final row, the one [`InferenceModel::prefill`] reads.
    Last,
    /// No row: an earlier prefill chunk or a prefix build reads only K/V.
    KvOnly,
}

impl Finish {
    /// The first finished row of a `block`-row block; the finished rows run
    /// from there to its end.
    fn first_row(self, block: usize) -> usize {
        match self {
            Finish::All => 0,
            Finish::Last => block - 1,
            Finish::KvOnly => block,
        }
    }
}

impl<L: LayerView> Transformer<L> {
    /// Assemble a model from weights whose shapes match `cfg`.
    ///
    /// # Panics
    /// Panics if the config is invalid, naming the failed constraint.
    pub(crate) fn from_parts(
        cfg: ModelConfig,
        embed: Matrix,
        layers: Vec<L>,
        final_norm: Vec<f32>,
        lm_head: L::Lin,
    ) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid model config: {e}");
        }
        let rope = RopeTable::new(cfg.head_dim(), cfg.max_seq_len, cfg.rope_theta);
        Self {
            cfg,
            embed,
            layers,
            final_norm,
            lm_head,
            rope,
        }
    }

    /// A block of tokens through every layer as blocked GEMMs, K/V committed
    /// via `advance_by` for every token, returning the residual rows (pre
    /// final-norm) that `finish` names. Each returned row is bit-identical
    /// to the residual [`InferenceModel::forward_token`] holds for its
    /// token: the projections satisfy the [`Linear`] block/single-row
    /// contract, rmsnorm, the attention core and axpy run per row in
    /// sequential order, and a last-layer query reads the same staged K/V
    /// whichever rows are finished.
    fn forward_block_core<C: KvStore>(
        &self,
        tokens: &[TokenId],
        cache: &mut C,
        finish: Finish,
    ) -> Matrix {
        let cfg = &self.cfg;
        let block = tokens.len();
        let mut xs = Matrix::zeros(block, cfg.hidden);
        for (i, &t) in tokens.iter().enumerate() {
            assert!((t as usize) < cfg.vocab_size, "token {t} out of vocabulary");
            xs.row_mut(i).copy_from_slice(self.embed.row(t as usize));
        }

        let mut normed = Matrix::zeros(block, cfg.hidden);
        for (layer_idx, layer) in self.layers.iter().enumerate() {
            for i in 0..xs.rows() {
                rmsnorm(
                    xs.row(i),
                    layer.attn_norm(),
                    cfg.norm_eps,
                    normed.row_mut(i),
                );
            }
            // Every layer stages every row's K/V; the last one queries only
            // the finished rows, and the other rows' residual goes no further.
            let first = if layer_idx + 1 == self.layers.len() {
                finish.first_row(block)
            } else {
                0
            };
            let attn_out =
                attention_block(cfg, layer, &self.rope, cache, layer_idx, &normed, first);
            if first > 0 {
                xs = rows_from(&xs, first);
                normed = Matrix::zeros(xs.rows(), cfg.hidden);
            }
            if xs.rows() == 0 {
                break;
            }
            for i in 0..xs.rows() {
                axpy(1.0, attn_out.row(i), xs.row_mut(i));
            }

            for i in 0..xs.rows() {
                rmsnorm(xs.row(i), layer.ffn_norm(), cfg.norm_eps, normed.row_mut(i));
            }
            let ffn_out = ffn_block(layer, &normed);
            for i in 0..xs.rows() {
                axpy(1.0, ffn_out.row(i), xs.row_mut(i));
            }
        }
        cache.advance_by(block);
        xs
    }
}

impl<L: LayerView> InferenceModel for Transformer<L> {
    fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    fn forward_token<C: KvStore>(&self, token: TokenId, cache: &mut C) -> Vec<f32> {
        let cfg = &self.cfg;
        assert!(
            (token as usize) < cfg.vocab_size,
            "token {token} out of vocabulary"
        );
        let mut x: Vec<f32> = self.embed.row(token as usize).to_vec();
        let mut normed = vec![0.0f32; cfg.hidden];

        for (layer_idx, layer) in self.layers.iter().enumerate() {
            // Pre-norm attention with residual.
            rmsnorm(&x, layer.attn_norm(), cfg.norm_eps, &mut normed);
            let attn_out = attention_step(cfg, layer, &self.rope, cache, layer_idx, &normed);
            axpy(1.0, &attn_out, &mut x);

            // Pre-norm FFN with residual.
            rmsnorm(&x, layer.ffn_norm(), cfg.norm_eps, &mut normed);
            let ffn_out = ffn_step(layer, &normed);
            axpy(1.0, &ffn_out, &mut x);
        }
        cache.advance_by(1);
        self.finish_logits(&x)
    }

    fn forward_block_states<C: KvStore>(&self, tokens: &[TokenId], cache: &mut C) -> Matrix {
        self.forward_block_core(tokens, cache, Finish::All)
    }

    fn forward_block_last<C: KvStore>(
        &self,
        tokens: &[TokenId],
        cache: &mut C,
        read_last: bool,
    ) -> Option<Vec<f32>> {
        let finish = if read_last {
            Finish::Last
        } else {
            Finish::KvOnly
        };
        let xs = self.forward_block_core(tokens, cache, finish);
        read_last.then(|| xs.row(0).to_vec())
    }

    /// Final norm + LM head. The LM head is the widest matrix in the model;
    /// its kernel splits the columns across threads only above its own
    /// measured work threshold ([`Linear::apply_parallel`] is bit-identical
    /// to serial for both precisions).
    fn finish_logits(&self, last_residual: &[f32]) -> Vec<f32> {
        let mut x = vec![0.0f32; self.cfg.hidden];
        rmsnorm(last_residual, &self.final_norm, self.cfg.norm_eps, &mut x);
        self.lm_head.apply_parallel(&x, lm_head_threads())
    }
}

/// Threads for the wide LM head: the host's parallelism, capped at 8.
fn lm_head_threads() -> usize {
    crate::batch::host_parallelism().min(8)
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::sync::Arc;

    use super::*;
    use crate::paged::{
        PagedKvCache, PagedKvPool, PagedPoolConfig, PagedPrefixCache, PrefixCacheConfig,
    };

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

    /// A packed f32 projection that counts the activation rows it projects.
    struct Counted {
        w: PackedMatrix,
        rows: Cell<usize>,
    }

    impl Counted {
        fn new(w: Matrix) -> Self {
            Self {
                w: PackedMatrix::pack(&w),
                rows: Cell::new(0),
            }
        }
    }

    impl Linear for Counted {
        fn in_features(&self) -> usize {
            self.w.in_features()
        }
        fn out_features(&self) -> usize {
            self.w.out_features()
        }
        fn apply(&self, x: &[f32]) -> Vec<f32> {
            self.rows.set(self.rows.get() + 1);
            self.w.apply(x)
        }
        fn apply_block(&self, xs: &Matrix) -> Matrix {
            self.rows.set(self.rows.get() + xs.rows());
            self.w.apply_block(xs)
        }
    }

    /// Rows each layer projected since the last call, in `wq, wk, wv, wo,
    /// w_gate, w_up, w_down` order; the counters restart at zero.
    fn projected_rows(m: &Transformer<LayerWeights<Counted>>) -> Vec<[usize; 7]> {
        m.layers
            .iter()
            .map(|l| l.projections().map(|w| w.rows.replace(0)))
            .collect()
    }

    #[test]
    fn last_layer_finishes_only_the_read_row() {
        // The trimmed forward keeps every bit, so only counted work shows
        // that it runs: a three-chunk prefill projects every layer's K/V
        // for all 130 rows, but the last layer's wq, wo and FFN for the one
        // row the LM head reads, and a prefix build for no row at all.
        let cfg = ModelConfig::tiny(48);
        let w = ModelWeights::synthetic(&cfg, 11);
        let reference = TransformerLM::new(cfg.clone(), w.clone());
        let layers = w.layers.into_iter().map(|l| l.map(Counted::new)).collect();
        let m =
            Transformer::from_parts(cfg, w.embed, layers, w.final_norm, Counted::new(w.lm_head));
        let n = 130;
        let prompt: Vec<TokenId> = (0..n).map(|i| ((i * 7 + 3) % 48) as TokenId).collect();
        let last = m.config().n_layers - 1;

        let mut kv = m.new_cache();
        let logits = m.prefill(&prompt, &mut kv);
        let mut kv_ref = reference.new_cache();
        assert_eq!(logits, reference.prefill(&prompt, &mut kv_ref));
        for (layer, rows) in projected_rows(&m).into_iter().enumerate() {
            let want = if layer == last {
                [1, n, n, 1, 1, 1, 1]
            } else {
                [n; 7]
            };
            assert_eq!(rows, want, "prefill, layer {layer}");
        }
        assert_eq!(m.lm_head.rows.get(), 1, "one LM head row");

        let mut kv = m.new_cache();
        m.prefill_cache_only(&prompt, &mut kv);
        for (layer, rows) in projected_rows(&m).into_iter().enumerate() {
            let want = if layer == last {
                [0, n, n, 0, 0, 0, 0]
            } else {
                [n; 7]
            };
            assert_eq!(rows, want, "prefix build, layer {layer}");
        }
    }

    /// A delegate that implements only `InferenceModel`'s required methods,
    /// as a tracing wrapper does: its prefill and prefix builds take the
    /// provided `forward_block_last`, the last row of the all-rows forward.
    struct RequiredOnly<'a, M>(&'a M);

    impl<M: InferenceModel> InferenceModel for RequiredOnly<'_, M> {
        fn config(&self) -> &ModelConfig {
            self.0.config()
        }
        fn forward_token<C: KvStore>(&self, token: TokenId, cache: &mut C) -> Vec<f32> {
            self.0.forward_token(token, cache)
        }
        fn forward_block_states<C: KvStore>(&self, tokens: &[TokenId], cache: &mut C) -> Matrix {
            self.0.forward_block_states(tokens, cache)
        }
        fn finish_logits(&self, last_residual: &[f32]) -> Vec<f32> {
            self.0.finish_logits(last_residual)
        }
    }

    /// Every committed K/V row of `a` and `b`, bit for bit.
    fn assert_same_kv<A: KvStore, B: KvStore>(a: &A, b: &B, layers: usize, case: &str) {
        assert_eq!(a.len(), b.len(), "{case}");
        for layer in 0..layers {
            for pos in 0..a.len() {
                assert_eq!(
                    a.key(layer, pos),
                    b.key(layer, pos),
                    "{case} key {layer}/{pos}"
                );
                assert_eq!(
                    a.value(layer, pos),
                    b.value(layer, pos),
                    "{case} value {layer}/{pos}"
                );
            }
        }
    }

    fn default_matches_override<M: InferenceModel>(engine: &M, precision: &str) {
        let delegate = RequiredOnly(engine);
        let layers = engine.config().n_layers;
        let vocab = engine.config().vocab_size;
        let tokens = |n: usize, salt: usize| -> Vec<TokenId> {
            (0..n)
                .map(|i| ((i * 7 + salt) % vocab) as TokenId)
                .collect()
        };
        for len in [1, 37, 64, 65, 130] {
            let prompt = tokens(len, 3);
            let (mut a, mut b) = (engine.new_cache(), delegate.new_cache());
            let want = engine.prefill(&prompt, &mut a);
            let got = delegate.prefill(&prompt, &mut b);
            let case = format!("{precision} prefill {len}");
            assert_eq!(bits(&want), bits(&got), "{case}");
            assert_same_kv(&a, &b, layers, &case);
        }

        // A prefix snapshot built by each, forked and extended by a suffix.
        let (prefix, suffix) = (tokens(74, 5), tokens(37, 2));
        let (want, a) = fork_probe(engine, &prefix, &suffix);
        let (got, b) = fork_probe(&delegate, &prefix, &suffix);
        let case = format!("{precision} fork");
        assert_eq!(bits(&want), bits(&got), "{case}");
        assert_same_kv(&a, &b, layers, &case);
    }

    /// The logits of `suffix` on a fork of a cached `prefix` snapshot that
    /// `m` built, and the extended fork.
    fn fork_probe<M: InferenceModel>(
        m: &M,
        prefix: &[TokenId],
        suffix: &[TokenId],
    ) -> (Vec<f32>, PagedKvCache) {
        let pool = PagedKvPool::new(PagedPoolConfig::for_model(m.config(), 16));
        let cache = PagedPrefixCache::new(Arc::new(pool), PrefixCacheConfig::default());
        let need = prefix.len() + suffix.len();
        cache
            .fork_or_build("m", prefix, need, |kv| m.prefill_cache_only(prefix, kv))
            .expect("the pool holds the snapshot");
        let mut fork = cache
            .fork_or_build("m", prefix, need, |_| unreachable!("prefix is cached"))
            .expect("the pool holds a fork");
        fork.try_reserve(suffix.len())
            .expect("the pool holds the suffix");
        (m.prefill(suffix, &mut fork), fork)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn provided_forward_block_last_matches_the_engine_override() {
        // The engines finish only the read row; a delegate that keeps the
        // provided default runs every row through the last layer and reads
        // the final one. Both must give the same logits and K/V bits.
        let cfg = ModelConfig::qwen2_like(64);
        default_matches_override(&TransformerLM::synthetic(cfg.clone(), 11), "f32");
        default_matches_override(&crate::quant::QuantizedLM::synthetic(cfg, 11), "int8");
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
