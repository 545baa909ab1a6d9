//! Transformer model hyperparameters.

/// Numeric precision of the weight storage and GEMM kernels.
///
/// `F32` is the reference path; `Int8` stores projection weights as int8 with
/// per-output-channel scales and computes with exact-integer accumulation (see
/// `tensor::int8`). Both paths are bitwise-reproducible from `(seed, config)`;
/// int8 trades a bounded logit perturbation (gated by the detection-AUC eval
/// in `quant_sweep`) for 4× smaller projection weights and a GEMM that runs
/// two `i16` multiply-adds per 32-bit lane (one `vpdpwssd` where the host
/// has VNNI). On this engine's shapes, whose weights all fit in L2, that is
/// about 2× the packed f32 GEMM's speed in a warm probe, and 1.4× (at
/// `hidden = 96`) to 2.3–3.4× ([`ModelConfig::qwen2_wide`]) f32 prefill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Full-precision f32 weights and kernels — the reference path.
    #[default]
    F32,
    /// Int8 weights with per-row scales and dynamic activation quantization.
    Int8,
}

impl Precision {
    /// Stable lowercase label for metrics, records and logs.
    pub fn label(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }
}

/// Hyperparameters of a decoder-only transformer.
///
/// Defaults describe the "tiny" configuration used in tests; the
/// [`ModelConfig::qwen2_like`] and [`ModelConfig::minicpm_like`] constructors
/// mirror the shapes of the paper's two SLMs scaled down by ~1000× so the
/// engine remains laptop-runnable (the real checkpoints are unavailable
/// offline — see DESIGN.md).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Vocabulary size (including special tokens).
    pub vocab_size: usize,
    /// Hidden (embedding) dimension.
    pub hidden: usize,
    /// Number of transformer blocks.
    pub n_layers: usize,
    /// Number of attention heads. Must divide `hidden`.
    pub n_heads: usize,
    /// Number of key/value heads (grouped-query attention). Must divide `n_heads`.
    pub n_kv_heads: usize,
    /// Inner dimension of the SwiGLU feed-forward network.
    pub ffn_hidden: usize,
    /// Maximum sequence length the KV cache allocates for.
    pub max_seq_len: usize,
    /// RoPE base frequency.
    pub rope_theta: f32,
    /// Epsilon for RMSNorm.
    pub norm_eps: f32,
    /// Weight/GEMM precision the engine should run this model at.
    pub precision: Precision,
}

impl ModelConfig {
    /// Tiny configuration for fast tests.
    pub fn tiny(vocab_size: usize) -> Self {
        Self {
            vocab_size,
            hidden: 32,
            n_layers: 2,
            n_heads: 4,
            n_kv_heads: 2,
            ffn_hidden: 64,
            max_seq_len: 256,
            rope_theta: 10_000.0,
            norm_eps: 1e-5,
            precision: Precision::F32,
        }
    }

    /// A Qwen2-1.5B-shaped model scaled down ~1000×: GQA with 2 KV heads,
    /// SwiGLU FFN with ~2.7× expansion.
    pub fn qwen2_like(vocab_size: usize) -> Self {
        Self {
            vocab_size,
            hidden: 96,
            n_layers: 4,
            n_heads: 6,
            n_kv_heads: 2,
            ffn_hidden: 256,
            max_seq_len: 512,
            rope_theta: 1_000_000.0,
            norm_eps: 1e-6,
            precision: Precision::F32,
        }
    }

    /// A wider Qwen2-0.5B-proportioned preset. At `hidden = 96` and below,
    /// precision-independent work caps what any GEMM optimization can show
    /// end to end: a stage-timed warm-probe forward of `qwen2_like` and
    /// `minicpm_like` spends about 45% of its time in the packed f32 GEMMs,
    /// 24% in the attention softmax, 15% in attention scores and value sum,
    /// and the rest in K/V gathers, RoPE, SwiGLU, norms and residuals. This
    /// shape keeps the weight GEMMs dominant — the regime every real
    /// half-billion-parameter SLM lives in — and is what the quantization
    /// benchmarks measure.
    pub fn qwen2_wide(vocab_size: usize) -> Self {
        Self {
            vocab_size,
            hidden: 256,
            n_layers: 4,
            n_heads: 8,
            n_kv_heads: 2,
            ffn_hidden: 1024,
            max_seq_len: 512,
            rope_theta: 1_000_000.0,
            norm_eps: 1e-6,
            precision: Precision::F32,
        }
    }

    /// A MiniCPM-2B-shaped model scaled down ~1000×: MHA (no GQA), wider FFN.
    pub fn minicpm_like(vocab_size: usize) -> Self {
        Self {
            vocab_size,
            hidden: 64,
            n_layers: 6,
            n_heads: 8,
            n_kv_heads: 8,
            ffn_hidden: 160,
            max_seq_len: 512,
            rope_theta: 10_000.0,
            norm_eps: 1e-5,
            precision: Precision::F32,
        }
    }

    /// Same configuration with a different [`Precision`] — the per-model knob
    /// the ensemble uses to mix int8 screeners with an f32 tie-breaker.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Head dimension.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.n_heads
    }

    /// How many query heads share one KV head.
    pub fn group_size(&self) -> usize {
        self.n_heads / self.n_kv_heads
    }

    /// Total parameter count implied by this configuration.
    pub fn num_parameters(&self) -> usize {
        let h = self.hidden;
        let kv_dim = self.n_kv_heads * self.head_dim();
        let per_layer = h * h            // Wq
            + h * kv_dim                  // Wk
            + h * kv_dim                  // Wv
            + h * h                       // Wo
            + 3 * h * self.ffn_hidden     // gate, up, down
            + 2 * h; // two norm gains
        self.vocab_size * h               // embedding
            + self.n_layers * per_layer
            + h                           // final norm
            + self.vocab_size * h // lm head (untied)
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if !self.hidden.is_multiple_of(self.n_heads) {
            return Err(format!(
                "hidden {} not divisible by n_heads {}",
                self.hidden, self.n_heads
            ));
        }
        if !self.n_heads.is_multiple_of(self.n_kv_heads) {
            return Err(format!(
                "n_heads {} not divisible by n_kv_heads {}",
                self.n_heads, self.n_kv_heads
            ));
        }
        if !self.head_dim().is_multiple_of(2) {
            return Err(format!(
                "head_dim {} must be even for RoPE",
                self.head_dim()
            ));
        }
        if self.vocab_size == 0 || self.n_layers == 0 || self.max_seq_len == 0 {
            return Err("vocab_size, n_layers and max_seq_len must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_configs_are_valid() {
        for cfg in [
            ModelConfig::tiny(128),
            ModelConfig::qwen2_like(1024),
            ModelConfig::minicpm_like(1024),
        ] {
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn head_dim_and_groups() {
        let cfg = ModelConfig::qwen2_like(1024);
        assert_eq!(cfg.head_dim(), 16);
        assert_eq!(cfg.group_size(), 3);
    }

    #[test]
    fn invalid_heads_rejected() {
        let mut cfg = ModelConfig::tiny(128);
        cfg.n_heads = 5;
        assert!(cfg.validate().is_err());
        cfg.n_heads = 4;
        cfg.n_kv_heads = 3;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn odd_head_dim_rejected() {
        let mut cfg = ModelConfig::tiny(128);
        cfg.hidden = 36; // head_dim 9, odd
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn parameter_count_scales_with_layers() {
        let mut a = ModelConfig::tiny(128);
        let pa = a.num_parameters();
        a.n_layers += 1;
        assert!(a.num_parameters() > pa);
    }

    #[test]
    fn qwen_like_is_bigger_than_tiny() {
        assert!(
            ModelConfig::qwen2_like(512).num_parameters() > ModelConfig::tiny(512).num_parameters()
        );
    }
}
