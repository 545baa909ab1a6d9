//! The decoder-only transformer language model.

use std::convert::Infallible;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use tensor::nn::rmsnorm;
use tensor::ops::axpy;
use tensor::{Linear, Matrix, PackedMatrix};

use crate::attention::{
    attend_rows, attention_step, project, rows_from, stage, GatheredKv, Projected,
};
use crate::batch;
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
    ///
    /// There is one layer loop, [`Transformer::span`], over row spans. A
    /// block runs as one span on the calling thread unless the batch
    /// engine lends this thread an idle core ([`batch::lend_core`]) and the
    /// block has at least [`SPLIT_MIN_ROWS`] rows; then a scoped helper
    /// runs the leading rows and the caller the trailing ones
    /// ([`Transformer::forward_split`]). A row's arithmetic is the same in
    /// either span, so the split moves no bit.
    fn forward_block_core<C: KvStore>(
        &self,
        tokens: &[TokenId],
        cache: &mut C,
        finish: Finish,
    ) -> Matrix {
        let block = tokens.len();
        let xs = match batch::lend_core(block, SPLIT_MIN_ROWS) {
            None => self.forward_one(tokens, cache, finish),
            Some(_helper) => self.forward_split(tokens, cache, finish, helper_rows(block)),
        };
        cache.advance_by(block);
        xs
    }

    /// A block forward as one span on the calling thread, K/V staged but
    /// not committed.
    fn forward_one<C: KvStore>(&self, tokens: &[TokenId], cache: &mut C, finish: Finish) -> Matrix {
        let (cfg, block, start) = (&self.cfg, tokens.len(), cache.len());
        let Ok(xs) = self.span(tokens, 0..block, start, finish, |layer, k, v, wants| {
            stage(cache, layer, start, &k, &v);
            let gather = || Arc::new(GatheredKv::new(cfg, cache, layer, start + block));
            Ok::<_, Infallible>(wants.then(gather))
        });
        xs
    }

    /// A block forward on two threads. A scoped helper runs rows
    /// `0..split` and the caller rows `split..`, so the caller holds every
    /// row a prefill reads. Per layer, each thread norms, projects and
    /// rotates its own rows; then there is one handoff each way
    /// ([`Link`]): the helper's K/V rows go to the caller, which alone
    /// stages both spans' rows and gathers the layer once, and the gather
    /// comes back to the helper. Each then attends, projects `wo` and runs
    /// the FFN on its own rows and goes straight on to the next layer.
    ///
    /// The helper never sees the cache, so `C` needs neither `Send` nor
    /// `Sync`. In the last layer of a prefill or a prefix build the helper
    /// finishes none of its rows: it hands over its K/V and ends. Its
    /// residual rows come back at the join only for
    /// [`InferenceModel::forward_block_states`]. A panic on either thread
    /// marks the link gone, so the other stops waiting, and reaches the
    /// caller with its own payload. If the OS cannot start the helper, the
    /// block runs as one span on the caller instead
    /// ([`Transformer::forward_one`]): nothing has touched the cache yet,
    /// and the bits are the same.
    ///
    /// Why the bits hold: each row is rotated at its own position whichever
    /// thread projects it, the one gather covers the same `start + block`
    /// positions an unsplit forward gathers, with every row of the block
    /// staged first, and each kernel (GEMM row, int8 row quantizer,
    /// attention tile row, RMSNorm, SwiGLU) computes a row alone. So which
    /// thread runs a row, and which tile it lands in, moves no bit.
    fn forward_split<C: KvStore>(
        &self,
        tokens: &[TokenId],
        cache: &mut C,
        finish: Finish,
        split: usize,
    ) -> Matrix {
        let (cfg, block, start) = (&self.cfg, tokens.len(), cache.len());
        let link = Link::new(self.layers.len());
        std::thread::scope(|scope| {
            let spawned = std::thread::Builder::new().spawn_scoped(scope, || {
                link.guard(|| {
                    self.span(tokens, 0..split, start, finish, |layer, k, v, wants| {
                        let _ = link.kv[layer].set((k, v, wants));
                        match wants {
                            true => link
                                .wait(&link.gathered[layer])
                                .map(|kv| Some(Arc::clone(kv))),
                            false => Ok(None),
                        }
                    })
                })
            });
            let Ok(helper) = spawned else {
                return self.forward_one(tokens, cache, finish);
            };
            let mine: Result<Matrix, Gone> = link.guard(|| {
                self.span(tokens, split..block, start, finish, |layer, k, v, wants| {
                    let (their_k, their_v, theirs) = link.wait(&link.kv[layer])?;
                    stage(cache, layer, start, their_k, their_v);
                    stage(cache, layer, start + split, &k, &v);
                    if !(wants || *theirs) {
                        return Ok(None);
                    }
                    let kv = Arc::new(GatheredKv::new(cfg, cache, layer, start + block));
                    if *theirs {
                        let _ = link.gathered[layer].set(Arc::clone(&kv));
                    }
                    Ok(wants.then_some(kv))
                })
            });
            match (helper.join(), mine) {
                (Ok(Ok(theirs)), Ok(mine)) => stack(&theirs, &mine),
                (Err(panic), _) => std::panic::resume_unwind(panic),
                _ => unreachable!("a thread leaves the link only by panicking"),
            }
        })
    }

    /// The layer loop of one span: block rows `rows` of `tokens`, at
    /// positions `start + rows`. It embeds its rows; then, per layer, it
    /// norms them, projects and rotates K, V and the queried rows' Q, and
    /// hands K/V to `meet`. `meet` stages them (or passes them to the
    /// partner that does) and returns the layer's gather when this span
    /// queries any row. The span then attends, projects `wo` and runs the
    /// FFN on those rows. Returns the residual rows among its own that
    /// `finish` names, or `meet`'s error once the partner has left.
    fn span<E>(
        &self,
        tokens: &[TokenId],
        rows: Range<usize>,
        start: usize,
        finish: Finish,
        mut meet: impl FnMut(usize, Matrix, Matrix, bool) -> Result<Option<Arc<GatheredKv>>, E>,
    ) -> Result<Matrix, E> {
        let cfg = &self.cfg;
        let (block, first, end) = (tokens.len(), rows.start, rows.end);
        let mut xs = Matrix::zeros(rows.len(), cfg.hidden);
        for (i, &t) in tokens[rows].iter().enumerate() {
            assert!((t as usize) < cfg.vocab_size, "token {t} out of vocabulary");
            xs.row_mut(i).copy_from_slice(self.embed.row(t as usize));
        }

        let mut normed = Matrix::zeros(xs.rows(), cfg.hidden);
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
            let queried = if layer_idx + 1 == self.layers.len() {
                finish.first_row(block).clamp(first, end)
            } else {
                first
            };
            let Projected { k, v, q } =
                project(layer, &self.rope, &normed, start + first, queried - first);
            let Some(kv) = meet(layer_idx, k, v, q.rows() > 0)? else {
                return Ok(Matrix::zeros(0, cfg.hidden));
            };
            let attn_out = attend_rows(layer, &kv, &q, start + queried + 1);
            if queried > first {
                xs = rows_from(&xs, queried - first);
                normed = Matrix::zeros(xs.rows(), cfg.hidden);
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
        Ok(xs)
    }
}

/// Blocks with fewer rows run on one thread even when a core is free.
/// Timed as split against unsplit forwards after a 75-token prefix (both
/// benchmark shapes, f32 and int8, medians of 25 alternating pairs on a
/// 2-vCPU guest): from 8 to 14 rows the ratio scattered around 1
/// (0.70–1.21), at 16 rows and up the split won on both shapes at f32 and
/// mostly at int8, and at 37 rows it won by ×1.25–×1.59.
const SPLIT_MIN_ROWS: usize = 16;

/// Spins a waiting thread of a split forward makes before it starts
/// yielding its core between checks. The partner is usually a fraction of
/// a microsecond away on its own core; a long spin, though, starves the
/// partner when both threads share one core.
const SPINS: usize = 200;

/// The leading rows the helper of a split `block`-row forward takes: about
/// half, rounded up to whole 4-row GEMM tiles because its rows are the
/// narrower ones of the causal core and the caller also stages and
/// gathers, and never the final row, which a prefill reads.
fn helper_rows(block: usize) -> usize {
    block.div_ceil(2).next_multiple_of(4).min(block - 1)
}

/// The rows of `top`, then the rows of `bottom`.
fn stack(top: &Matrix, bottom: &Matrix) -> Matrix {
    let data = [top.as_slice(), bottom.as_slice()].concat();
    Matrix::from_vec(top.rows() + bottom.rows(), bottom.cols(), data)
}

/// The handoffs of a split block forward, one slot per layer each way.
struct Link {
    /// The helper's rotated K and V rows, and whether it waits for the
    /// layer's gather.
    kv: Vec<OnceLock<(Matrix, Matrix, bool)>>,
    /// The layer's gathered K/V, for the helper's queried rows.
    gathered: Vec<OnceLock<Arc<GatheredKv>>>,
    /// Set when either thread unwinds, so the other stops waiting.
    gone: AtomicBool,
}

/// The partner of a split forward has unwound; the join passes its panic on.
struct Gone;

impl Link {
    fn new(layers: usize) -> Self {
        Self {
            kv: (0..layers).map(|_| OnceLock::new()).collect(),
            gathered: (0..layers).map(|_| OnceLock::new()).collect(),
            gone: AtomicBool::new(false),
        }
    }

    /// The value in `slot` once the partner fills it: spin briefly, then
    /// yield the core between checks, so both threads progress even on one
    /// core. `Err` once the partner has unwound. The slot publishes its
    /// value itself; `gone` publishes nothing (Release on unwind, Acquire
    /// here only order the flag).
    fn wait<'a, T>(&'a self, slot: &'a OnceLock<T>) -> Result<&'a T, Gone> {
        let mut spins = 0;
        loop {
            if let Some(value) = slot.get() {
                return Ok(value);
            }
            if self.gone.load(Ordering::Acquire) {
                return Err(Gone);
            }
            if spins < SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Run `f`, marking the link gone if it unwinds.
    fn guard<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Leave<'a>(&'a AtomicBool);
        impl Drop for Leave<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.store(true, Ordering::Release);
                }
            }
        }
        let _leave = Leave(&self.gone);
        f()
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
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    use super::*;
    use crate::batch::forcing_split;
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
        gemm_prefill_parity();
    }

    #[test]
    fn split_gemm_prefill_is_bit_identical_to_sequential() {
        forcing_split(gemm_prefill_parity);
    }

    fn gemm_prefill_parity() {
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

    /// A packed f32 projection that counts the activation rows it projects,
    /// on whichever thread projects them.
    struct Counted {
        w: PackedMatrix,
        rows: AtomicUsize,
    }

    impl Counted {
        fn new(w: Matrix) -> Self {
            Self {
                w: PackedMatrix::pack(&w),
                rows: AtomicUsize::new(0),
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
            self.rows.fetch_add(1, Ordering::Relaxed);
            self.w.apply(x)
        }
        fn apply_block(&self, xs: &Matrix) -> Matrix {
            self.rows.fetch_add(xs.rows(), Ordering::Relaxed);
            self.w.apply_block(xs)
        }
    }

    /// Rows each layer projected since the last call, in `wq, wk, wv, wo,
    /// w_gate, w_up, w_down` order; the counters restart at zero.
    fn projected_rows(m: &Transformer<LayerWeights<Counted>>) -> Vec<[usize; 7]> {
        m.layers
            .iter()
            .map(|l| l.projections().map(|w| w.rows.swap(0, Ordering::Relaxed)))
            .collect()
    }

    #[test]
    fn last_layer_finishes_only_the_read_row() {
        last_layer_counts();
    }

    #[test]
    fn split_last_layer_finishes_only_the_read_row() {
        // The helper of a split prefill projects its rows' K/V in the last
        // layer and nothing else, so the counts do not move.
        forcing_split(last_layer_counts);
    }

    fn last_layer_counts() {
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
        assert_eq!(m.lm_head.rows.load(Ordering::Relaxed), 1, "one LM head row");

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
        defaults_match_overrides();
    }

    #[test]
    fn split_provided_forward_block_last_matches_the_engine_override() {
        // Split, the delegate's all-rows forward returns the helper's rows
        // at the join, and the engines' helpers finish none of theirs.
        forcing_split(defaults_match_overrides);
    }

    fn defaults_match_overrides() {
        let cfg = ModelConfig::qwen2_like(64);
        default_matches_override(&TransformerLM::synthetic(cfg.clone(), 11), "f32");
        default_matches_override(&crate::quant::QuantizedLM::synthetic(cfg, 11), "int8");
    }

    /// How a split-parity case enters the block forward.
    #[derive(Debug, Clone, Copy)]
    enum Entry {
        Prefill,
        CacheOnly,
        States,
    }

    impl Entry {
        /// Run `tokens` into `kv` and return the bits of what comes back.
        fn run<M: InferenceModel, C: KvStore>(
            self,
            m: &M,
            tokens: &[TokenId],
            kv: &mut C,
        ) -> Vec<u32> {
            match self {
                Entry::Prefill => bits(&m.prefill(tokens, kv)),
                Entry::CacheOnly => {
                    m.prefill_cache_only(tokens, kv);
                    Vec::new()
                }
                Entry::States => bits(m.forward_block_states(tokens, kv).as_slice()),
            }
        }
    }

    /// A forced two-span forward against the one-span forward of the same
    /// block: the returned logits or residual rows and every committed K/V
    /// row, bit for bit, for blocks of 8 to 64 rows from position 0 and
    /// after a 74-token prefix, in a contiguous cache and in a paged fork.
    fn split_matches_unsplit<M: InferenceModel>(m: &M, name: &str) {
        let (layers, vocab) = (m.config().n_layers, m.config().vocab_size);
        let tokens = |n: usize, salt: usize| -> Vec<TokenId> {
            (0..n)
                .map(|i| ((i * 7 + salt) % vocab) as TokenId)
                .collect()
        };
        let prefix = tokens(74, 5);
        let pool = PagedKvPool::new(PagedPoolConfig::for_model(m.config(), 64));
        let snapshots = PagedPrefixCache::new(Arc::new(pool), PrefixCacheConfig::default());
        for block in [8, 9, 12, 37, 64] {
            let suffix = tokens(block, 3);
            let need = prefix.len() + block;
            for entry in [Entry::Prefill, Entry::CacheOnly, Entry::States] {
                for at in [0, prefix.len()] {
                    let case = format!("{name} {entry:?} block {block} at {at}");
                    let (mut a, mut b) = (m.new_cache(), m.new_cache());
                    if at > 0 {
                        m.prefill_cache_only(&prefix, &mut a);
                        m.prefill_cache_only(&prefix, &mut b);
                    }
                    let want = entry.run(m, &suffix, &mut a);
                    let got = forcing_split(|| entry.run(m, &suffix, &mut b));
                    assert_eq!(want, got, "{case}");
                    assert_same_kv(&a, &b, layers, &case);
                }

                let case = format!("{name} {entry:?} block {block} on a paged fork");
                let fork = || {
                    let mut kv = snapshots
                        .fork_or_build(name, &prefix, need, |kv| m.prefill_cache_only(&prefix, kv))
                        .expect("the pool holds the snapshot and a fork");
                    kv.try_reserve(block).expect("the pool holds the block");
                    kv
                };
                let (mut a, mut b) = (fork(), fork());
                let want = entry.run(m, &suffix, &mut a);
                let got = forcing_split(|| entry.run(m, &suffix, &mut b));
                assert_eq!(want, got, "{case}");
                assert_same_kv(&a, &b, layers, &case);
            }
        }
    }

    #[test]
    fn split_forward_is_bit_identical_to_unsplit() {
        for (shape, cfg) in [
            ("qwen2_like", ModelConfig::qwen2_like(64)),
            ("minicpm_like", ModelConfig::minicpm_like(64)),
        ] {
            let f32 = TransformerLM::synthetic(cfg.clone(), 11);
            split_matches_unsplit(&f32, &format!("{shape} f32"));
            let int8 = crate::quant::QuantizedLM::synthetic(cfg, 11);
            split_matches_unsplit(&int8, &format!("{shape} int8"));
        }
    }

    #[test]
    fn split_helper_rows_are_whole_tiles_and_never_the_last_row() {
        for (block, helper) in [(2, 1), (8, 4), (9, 8), (12, 8), (37, 20), (64, 32)] {
            assert_eq!(helper_rows(block), helper, "block {block}");
        }
    }

    /// A forced split prefill of twelve rows (the helper takes 0..8) with
    /// an out-of-vocabulary token at `at`.
    fn split_prefill_with_oov_at(at: usize) {
        let m = tiny_model();
        let mut tokens: Vec<TokenId> = (0..12).map(|i| i * 3 % 48).collect();
        tokens[at] = 999;
        let mut kv = m.new_cache();
        forcing_split(|| m.prefill(&tokens, &mut kv));
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn split_forward_passes_on_a_panic_in_the_helpers_rows() {
        split_prefill_with_oov_at(1);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn split_forward_passes_on_a_panic_in_the_callers_rows() {
        split_prefill_with_oov_at(11);
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
