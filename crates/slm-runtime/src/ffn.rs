//! SwiGLU feed-forward network: `down(silu(gate(x)) ⊙ up(x))`.

use tensor::nn::swiglu_inplace;
use tensor::{Linear, Matrix};

use crate::weights::LayerView;

/// One FFN step on a normalized hidden state. Generic over [`LayerView`], so
/// the f32 and int8 engines share the SwiGLU arithmetic and differ only in
/// the gate/up/down [`Linear`] kernels.
pub fn ffn_step<L: LayerView>(weights: &L, x: &[f32]) -> Vec<f32> {
    let mut gate = weights.w_gate().apply(x);
    let up = weights.w_up().apply(x);
    swiglu_inplace(&mut gate, &up);
    weights.w_down().apply(&gate)
}

/// Multi-row FFN over a block of normalized hidden states: the gate/up/down
/// projections run as blocked GEMMs and the elementwise SwiGLU kernel runs
/// over the whole block, so row `i` of the result is bit-identical to
/// `ffn_step(weights, xs.row(i))` ([`Linear::apply_block`] rows match
/// [`Linear::apply`] exactly).
pub fn ffn_block<L: LayerView>(weights: &L, xs: &Matrix) -> Matrix {
    let mut gate = weights.w_gate().apply_block(xs);
    let up = weights.w_up().apply_block(xs);
    swiglu_inplace(gate.as_mut_slice(), up.as_slice());
    weights.w_down().apply_block(&gate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::weights::ModelWeights;
    use tensor::PackedMatrix;

    #[test]
    fn output_dim_is_hidden() {
        let cfg = ModelConfig::tiny(32);
        let layer = ModelWeights::synthetic(&cfg, 3).layers[0]
            .each_ref()
            .map(PackedMatrix::pack);
        let out = ffn_step(&layer, &vec![0.25; cfg.hidden]);
        assert_eq!(out.len(), cfg.hidden);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let cfg = ModelConfig::tiny(32);
        let layer = ModelWeights::synthetic(&cfg, 3).layers[0]
            .each_ref()
            .map(PackedMatrix::pack);
        let out = ffn_step(&layer, &vec![0.0; cfg.hidden]);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn is_nonlinear() {
        // f(2x) != 2 f(x) for SwiGLU
        let cfg = ModelConfig::tiny(32);
        let layer = ModelWeights::synthetic(&cfg, 3).layers[0]
            .each_ref()
            .map(PackedMatrix::pack);
        let x: Vec<f32> = (0..cfg.hidden)
            .map(|i| ((i * 7) % 5) as f32 * 0.2 - 0.4)
            .collect();
        let x2: Vec<f32> = x.iter().map(|v| v * 2.0).collect();
        let f1 = ffn_step(&layer, &x);
        let f2 = ffn_step(&layer, &x2);
        let linear_diff: f32 = f2.iter().zip(&f1).map(|(a, b)| (a - 2.0 * b).abs()).sum();
        assert!(linear_diff > 1e-3, "SwiGLU must not be homogeneous");
    }

    #[test]
    fn block_is_bit_identical_to_steps() {
        // The SwiGLU kernel runs once over the whole block and once per
        // step; both must give the same bits, for the test shape and the
        // two benchmark shapes.
        for cfg in [
            ModelConfig::tiny(32),
            ModelConfig::qwen2_like(32),
            ModelConfig::minicpm_like(32),
        ] {
            let layer = ModelWeights::synthetic(&cfg, 3).layers[0]
                .each_ref()
                .map(PackedMatrix::pack);
            let xs = Matrix::from_fn(5, cfg.hidden, |r, c| {
                ((r * 13 + c * 7) % 19) as f32 * 0.09 - 0.8
            });
            let blk = ffn_block(&layer, &xs);
            for i in 0..xs.rows() {
                assert_eq!(
                    blk.row(i),
                    ffn_step(&layer, xs.row(i)).as_slice(),
                    "hidden {} row {i}",
                    cfg.hidden
                );
            }
        }
    }

    #[test]
    fn deterministic() {
        let cfg = ModelConfig::tiny(32);
        let layer = ModelWeights::synthetic(&cfg, 3).layers[0]
            .each_ref()
            .map(PackedMatrix::pack);
        let x = vec![0.1; cfg.hidden];
        assert_eq!(ffn_step(&layer, &x), ffn_step(&layer, &x));
    }
}
