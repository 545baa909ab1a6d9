//! Int8 weight quantization and the int8 inference engine.
//!
//! MiniCPM's selling point is edge deployment; on-device SLMs ship with
//! quantized weights, and on CPU the verifier's speed is bounded by weight
//! memory bandwidth — which int8 cuts 4×. This module provides:
//!
//! - [`QuantizedWeights`]: full-model weights whose projections are
//!   [`tensor::Int8Matrix`], the one int8 matrix format — per-*output*-row
//!   scales picked by a calibration pass, the layout the integer kernels
//!   consume.
//! - [`QuantizedLM`]: a transformer that **computes in int8**. Every Q/K/V,
//!   attention-output, FFN and LM-head projection runs the exact-integer
//!   kernels; RoPE, softmax, RMSNorm, residuals and the KV cache stay f32.
//!   It is the f32 engine's [`Transformer`] over int8 layers, so blocked
//!   prefill and the paged `KvStore` machinery drive it unchanged — and
//!   because the integer accumulation is exact in a fixed order,
//!   `(seed, config) → logits` is bitwise reproducible, same as the f32
//!   path.

use tensor::{Int8Matrix, Matrix};

use crate::config::{ModelConfig, Precision};
use crate::model::Transformer;
use crate::weights::{LayerWeights, ModelWeights};

/// Quantized transformer weights: int8 projections with per-output-row
/// scales, everything else f32.
#[derive(Debug, Clone)]
pub struct QuantizedWeights {
    /// Embedding stays f32 (it is read row-wise, not multiplied).
    pub embed: Matrix,
    layers: Vec<LayerWeights<Int8Matrix>>,
    final_norm: Vec<f32>,
    lm_head: Int8Matrix,
}

impl QuantizedWeights {
    /// The calibration pass: quantize full-precision weights, picking one
    /// scale per output channel of every projection (`max_abs / 127` over
    /// that channel's inputs — see [`Int8Matrix::calibrate`]).
    pub fn quantize(w: &ModelWeights) -> Self {
        Self {
            embed: w.embed.clone(),
            layers: w
                .layers
                .iter()
                .map(|l| l.each_ref().map(Int8Matrix::calibrate))
                .collect(),
            final_norm: w.final_norm.clone(),
            lm_head: Int8Matrix::calibrate(&w.lm_head),
        }
    }

    /// Reconstruct (dequantized) f32 weights — handy for reusing the f32
    /// engine while measuring quantization error.
    pub fn dequantize(&self) -> ModelWeights {
        ModelWeights {
            embed: self.embed.clone(),
            layers: self
                .layers
                .iter()
                .map(|l| l.each_ref().map(Int8Matrix::dequantize))
                .collect(),
            final_norm: self.final_norm.clone(),
            lm_head: self.lm_head.dequantize(),
        }
    }

    /// Actual bytes of the quantized projections: i8 payload **plus** the f32
    /// scales (embedding excluded — it is shared with the f32 representation
    /// and never quantized).
    pub fn quantized_bytes(&self) -> usize {
        self.projections().map(Int8Matrix::memory_bytes).sum()
    }

    /// Total resident storage of this representation: the quantized
    /// projections ([`QuantizedWeights::quantized_bytes`]) plus the f32
    /// embedding table and every norm gain.
    pub fn memory_bytes(&self) -> usize {
        let f32_bytes = std::mem::size_of::<f32>();
        let norm_bytes: usize = self
            .layers
            .iter()
            .map(|l| (l.attn_norm.len() + l.ffn_norm.len()) * f32_bytes)
            .sum();
        self.quantized_bytes()
            + self.embed.rows() * self.embed.cols() * f32_bytes
            + norm_bytes
            + self.final_norm.len() * f32_bytes
    }

    /// Largest calibrated weight scale across every projection — the summary
    /// statistic `quant_sweep` reports for the calibration pass (big scales
    /// mean coarse quantization steps and hence larger worst-case error).
    pub fn max_weight_scale(&self) -> f32 {
        self.projections()
            .map(Int8Matrix::max_scale)
            .fold(0.0f32, f32::max)
    }

    /// Every int8 projection: each layer's seven, then the LM head.
    fn projections(&self) -> impl Iterator<Item = &Int8Matrix> {
        self.layers
            .iter()
            .flat_map(LayerWeights::projections)
            .chain(std::iter::once(&self.lm_head))
    }
}

/// A transformer that computes in int8.
///
/// The *same* [`Transformer`] as [`crate::model::TransformerLM`] (embedding
/// lookup, RMSNorm, RoPE, the causal attention core, SwiGLU, residuals — all
/// f32), but every projection goes through the exact-integer [`Int8Matrix`]
/// kernels. Its config's `precision` is always [`Precision::Int8`]. The
/// blocked prefill and any `KvStore` (contiguous or paged) work unchanged.
pub type QuantizedLM = Transformer<LayerWeights<Int8Matrix>>;

impl QuantizedLM {
    /// Build from a config and quantized weights. The stored config's
    /// `precision` is normalized to [`Precision::Int8`] — this engine always
    /// computes in int8 regardless of what the caller's knob said.
    ///
    /// # Panics
    /// Panics if the config is invalid, naming the failed constraint.
    pub fn new(cfg: ModelConfig, weights: &QuantizedWeights) -> Self {
        Self::from_parts(
            cfg.with_precision(Precision::Int8),
            weights.embed.clone(),
            weights.layers.clone(),
            weights.final_norm.clone(),
            weights.lm_head.clone(),
        )
    }

    /// Convenience: calibrate-and-build from synthetic weights. Bitwise
    /// reproducible from `(cfg, seed)` — same seed, same config, same logits.
    pub fn synthetic(cfg: ModelConfig, seed: u64) -> Self {
        let weights = QuantizedWeights::quantize(&ModelWeights::synthetic(&cfg, seed));
        Self::new(cfg, &weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bpe::TokenId;
    use crate::model::{prefill_sequential, InferenceModel, TransformerLM};

    #[test]
    fn quantized_model_agrees_with_f32_on_argmax() {
        let cfg = ModelConfig::tiny(48);
        let f32_weights = ModelWeights::synthetic(&cfg, 11);
        let f32_model = TransformerLM::new(cfg.clone(), f32_weights.clone());
        let q = QuantizedWeights::quantize(&f32_weights);
        let q_model = QuantizedLM::new(cfg, &q);

        let prompt = [3u32, 1, 4, 1, 5];
        let mut c1 = f32_model.new_cache();
        let mut c2 = q_model.new_cache();
        let l1 = f32_model.prefill(&prompt, &mut c1);
        let l2 = q_model.prefill(&prompt, &mut c2);
        // logits drift slightly but the prediction should usually agree and
        // the logit vectors must be close
        let max_diff = l1
            .iter()
            .zip(&l2)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        let spread = l1.iter().fold(f32::NEG_INFINITY, |a, &v| a.max(v))
            - l1.iter().fold(f32::INFINITY, |a, &v| a.min(v));
        assert!(
            max_diff < 0.25 * spread,
            "max_diff {max_diff} vs spread {spread}"
        );
    }

    #[test]
    fn int8_blocked_prefill_is_bit_identical_to_sequential() {
        // The int8 analogue of the f32 GEMM-prefill parity test: blocked and
        // token-at-a-time forwards must agree bitwise because the integer
        // accumulation is exact in a fixed order.
        let m = QuantizedLM::synthetic(ModelConfig::tiny(48), 11);
        for len in [1usize, 5, 63, 64, 65, 130] {
            let prompt: Vec<TokenId> = (0..len).map(|i| ((i * 7 + 3) % 48) as TokenId).collect();
            let mut c_blk = m.new_cache();
            let mut c_seq = m.new_cache();
            assert_eq!(
                m.prefill(&prompt, &mut c_blk),
                prefill_sequential(&m, &prompt, &mut c_seq),
                "len {len}"
            );
        }
    }

    #[test]
    fn int8_engine_is_bitwise_reproducible_from_seed_and_config() {
        let a = QuantizedLM::synthetic(ModelConfig::tiny(48), 9);
        let b = QuantizedLM::synthetic(ModelConfig::tiny(48), 9);
        let prompt = [3u32, 1, 4, 1, 5, 9, 2, 6];
        let mut ca = a.new_cache();
        let mut cb = b.new_cache();
        assert_eq!(a.prefill(&prompt, &mut ca), b.prefill(&prompt, &mut cb));
    }

    #[test]
    fn quantized_lm_normalizes_precision_to_int8() {
        let m = QuantizedLM::synthetic(ModelConfig::tiny(48), 1);
        assert_eq!(m.config().precision, Precision::Int8);
    }

    #[test]
    fn memory_bytes_exceeds_quantized_bytes_by_f32_parts() {
        let cfg = ModelConfig::tiny(48);
        let q = QuantizedWeights::quantize(&ModelWeights::synthetic(&cfg, 1));
        let f32b = std::mem::size_of::<f32>();
        let expected_extra = cfg.vocab_size * cfg.hidden * f32b // embed
            + cfg.n_layers * 2 * cfg.hidden * f32b             // per-layer norms
            + cfg.hidden * f32b; // final norm
        assert_eq!(q.memory_bytes(), q.quantized_bytes() + expected_extra);
        assert!(q.max_weight_scale() > 0.0);
    }

    #[test]
    fn full_model_quantized_bytes_reported() {
        let cfg = ModelConfig::tiny(48);
        let w = ModelWeights::synthetic(&cfg, 1);
        let q = QuantizedWeights::quantize(&w);
        assert!(q.quantized_bytes() > 0);
        // quantized matrices ≈ 1/4 the f32 bytes of the same matrices
        let f32_matrix_bytes = (w.num_parameters()
            - w.embed.rows() * w.embed.cols() // embed not quantized
            - w.final_norm.len()
            - w.layers.iter().map(|l| l.attn_norm.len() + l.ffn_norm.len()).sum::<usize>())
            * 4;
        assert!(q.quantized_bytes() * 3 < f32_matrix_bytes);
    }
}
