//! Model weights and their deterministic synthetic initialization.
//!
//! Real Qwen2 / MiniCPM checkpoints are unavailable offline (DESIGN.md), so
//! the engine runs on seeded Xavier-initialized weights. Everything about the
//! *mechanics* — shapes, memory layout, the first-token probability
//! extraction — is identical to running a trained checkpoint.

use rand::rngs::StdRng;

use tensor::init::{ones, seeded_rng, xavier_uniform};
use tensor::{Linear, Matrix};

use crate::config::ModelConfig;

/// Per-layer weight access, abstracted over storage precision.
///
/// The engine (`model::Transformer`), `attention_step`/`attention_block` and
/// `ffn_step`/`ffn_block` are written once against this trait; the
/// associated [`Linear`] type decides whether a projection runs the packed
/// f32 kernel (`LayerWeights<PackedMatrix>`) or the int8 kernels
/// (`LayerWeights<Int8Matrix>`). The norm gains stay f32 in both
/// precisions — RMSNorm is cheap and scale-sensitive.
pub trait LayerView {
    /// Projection storage for this precision.
    type Lin: Linear;

    /// Query projection, `hidden × hidden`.
    fn wq(&self) -> &Self::Lin;
    /// Key projection, `hidden × kv_dim`.
    fn wk(&self) -> &Self::Lin;
    /// Value projection, `hidden × kv_dim`.
    fn wv(&self) -> &Self::Lin;
    /// Attention output projection, `hidden × hidden`.
    fn wo(&self) -> &Self::Lin;
    /// SwiGLU gate projection, `hidden × ffn_hidden`.
    fn w_gate(&self) -> &Self::Lin;
    /// SwiGLU up projection, `hidden × ffn_hidden`.
    fn w_up(&self) -> &Self::Lin;
    /// SwiGLU down projection, `ffn_hidden × hidden`.
    fn w_down(&self) -> &Self::Lin;
    /// RMSNorm gain before attention.
    fn attn_norm(&self) -> &[f32];
    /// RMSNorm gain before the FFN.
    fn ffn_norm(&self) -> &[f32];
}

/// Weights of a single transformer block, its seven projections stored as
/// `W`: row-major f32 [`Matrix`]es as built, saved and loaded, the packed
/// [`tensor::PackedMatrix`] in the f32 engine, [`tensor::Int8Matrix`] in
/// the int8 one. Each projection is `in × out`, applied as `x^T · W`.
#[derive(Debug, Clone)]
pub struct LayerWeights<W = Matrix> {
    /// Query projection, `hidden × hidden`.
    pub wq: W,
    /// Key projection, `hidden × kv_dim`.
    pub wk: W,
    /// Value projection, `hidden × kv_dim`.
    pub wv: W,
    /// Output projection, `hidden × hidden`.
    pub wo: W,
    /// SwiGLU gate projection, `hidden × ffn_hidden`.
    pub w_gate: W,
    /// SwiGLU up projection, `hidden × ffn_hidden`.
    pub w_up: W,
    /// SwiGLU down projection, `ffn_hidden × hidden`.
    pub w_down: W,
    /// RMSNorm gain before attention.
    pub attn_norm: Vec<f32>,
    /// RMSNorm gain before the FFN.
    pub ffn_norm: Vec<f32>,
}

impl<W> LayerWeights<W> {
    /// The seven projections, in `wq, wk, wv, wo, w_gate, w_up, w_down`
    /// order.
    pub fn projections(&self) -> [&W; 7] {
        [
            &self.wq,
            &self.wk,
            &self.wv,
            &self.wo,
            &self.w_gate,
            &self.w_up,
            &self.w_down,
        ]
    }

    /// This layer with `f` applied to each projection, one at a time in
    /// [`LayerWeights::projections`] order; the norm gains carry over.
    /// Packing, quantizing and dequantizing a layer are this map.
    pub fn map<V>(self, f: impl FnMut(W) -> V) -> LayerWeights<V> {
        let Self {
            wq,
            wk,
            wv,
            wo,
            w_gate,
            w_up,
            w_down,
            attn_norm,
            ffn_norm,
        } = self;
        let [wq, wk, wv, wo, w_gate, w_up, w_down] = [wq, wk, wv, wo, w_gate, w_up, w_down].map(f);
        LayerWeights {
            wq,
            wk,
            wv,
            wo,
            w_gate,
            w_up,
            w_down,
            attn_norm,
            ffn_norm,
        }
    }

    /// This layer's projections borrowed and its norm gains copied, so
    /// `layer.each_ref().map(f)` maps a layer the caller keeps.
    pub fn each_ref(&self) -> LayerWeights<&W> {
        let [wq, wk, wv, wo, w_gate, w_up, w_down] = self.projections();
        LayerWeights {
            wq,
            wk,
            wv,
            wo,
            w_gate,
            w_up,
            w_down,
            attn_norm: self.attn_norm.clone(),
            ffn_norm: self.ffn_norm.clone(),
        }
    }
}

impl<W: Linear> LayerView for LayerWeights<W> {
    type Lin = W;

    fn wq(&self) -> &W {
        &self.wq
    }
    fn wk(&self) -> &W {
        &self.wk
    }
    fn wv(&self) -> &W {
        &self.wv
    }
    fn wo(&self) -> &W {
        &self.wo
    }
    fn w_gate(&self) -> &W {
        &self.w_gate
    }
    fn w_up(&self) -> &W {
        &self.w_up
    }
    fn w_down(&self) -> &W {
        &self.w_down
    }
    fn attn_norm(&self) -> &[f32] {
        &self.attn_norm
    }
    fn ffn_norm(&self) -> &[f32] {
        &self.ffn_norm
    }
}

/// All weights of a decoder-only transformer.
#[derive(Debug, Clone)]
pub struct ModelWeights {
    /// Token embedding table, `vocab × hidden`.
    pub embed: Matrix,
    /// Transformer blocks.
    pub layers: Vec<LayerWeights>,
    /// Final RMSNorm gain.
    pub final_norm: Vec<f32>,
    /// LM head, `hidden × vocab` (untied from the embedding).
    pub lm_head: Matrix,
}

impl ModelWeights {
    /// Deterministic synthetic weights for `cfg`, seeded by `seed`.
    ///
    /// # Panics
    /// Panics if the config is invalid, naming the failed constraint.
    pub fn synthetic(cfg: &ModelConfig, seed: u64) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid model config: {e}");
        }
        let mut rng: StdRng = seeded_rng(seed);
        let h = cfg.hidden;
        let kv_dim = cfg.n_kv_heads * cfg.head_dim();
        let layers = (0..cfg.n_layers)
            .map(|_| LayerWeights {
                wq: xavier_uniform(h, h, &mut rng),
                wk: xavier_uniform(h, kv_dim, &mut rng),
                wv: xavier_uniform(h, kv_dim, &mut rng),
                wo: xavier_uniform(h, h, &mut rng),
                w_gate: xavier_uniform(h, cfg.ffn_hidden, &mut rng),
                w_up: xavier_uniform(h, cfg.ffn_hidden, &mut rng),
                w_down: xavier_uniform(cfg.ffn_hidden, h, &mut rng),
                attn_norm: ones(h),
                ffn_norm: ones(h),
            })
            .collect();
        Self {
            embed: xavier_uniform(cfg.vocab_size, h, &mut rng),
            layers,
            final_norm: ones(h),
            lm_head: xavier_uniform(h, cfg.vocab_size, &mut rng),
        }
    }

    /// Actual parameter count held by these weights.
    pub fn num_parameters(&self) -> usize {
        let layer_params: usize = self
            .layers
            .iter()
            .map(|l| {
                l.projections()
                    .iter()
                    .map(|w| w.rows() * w.cols())
                    .sum::<usize>()
                    + l.attn_norm.len()
                    + l.ffn_norm.len()
            })
            .sum();
        self.embed.rows() * self.embed.cols()
            + layer_params
            + self.final_norm.len()
            + self.lm_head.rows() * self.lm_head.cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_matches_config_formula() {
        let cfg = ModelConfig::tiny(64);
        let w = ModelWeights::synthetic(&cfg, 42);
        assert_eq!(w.num_parameters(), cfg.num_parameters());
    }

    #[test]
    fn seeding_is_reproducible() {
        let cfg = ModelConfig::tiny(64);
        let a = ModelWeights::synthetic(&cfg, 1);
        let b = ModelWeights::synthetic(&cfg, 1);
        assert_eq!(a.embed, b.embed);
        assert_eq!(a.layers[0].wq, b.layers[0].wq);
        let c = ModelWeights::synthetic(&cfg, 2);
        assert_ne!(a.embed, c.embed);
    }

    #[test]
    fn shapes_follow_config() {
        let cfg = ModelConfig::qwen2_like(128);
        let w = ModelWeights::synthetic(&cfg, 0);
        let kv_dim = cfg.n_kv_heads * cfg.head_dim();
        assert_eq!(w.layers.len(), cfg.n_layers);
        assert_eq!(w.layers[0].wk.cols(), kv_dim);
        assert_eq!(w.lm_head.cols(), cfg.vocab_size);
        assert_eq!(w.embed.rows(), cfg.vocab_size);
    }

    #[test]
    #[should_panic(expected = "invalid model config")]
    fn invalid_config_panics() {
        let mut cfg = ModelConfig::tiny(64);
        cfg.n_heads = 3;
        ModelWeights::synthetic(&cfg, 0);
    }
}
