//! The [`Linear`] abstraction: one projection, any storage precision.
//!
//! The transformer applies eight weight matrices per layer stack (Q/K/V,
//! attention output, SwiGLU gate/up/down, LM head). The attention and FFN
//! code is written once against this trait, so swapping the packed f32
//! weights ([`crate::ops::PackedMatrix`]) for the int8 representation
//! ([`crate::int8::Int8Matrix`]) swaps *only* the GEMM kernel — the
//! softmax/RoPE/residual arithmetic around it is shared code, which is what
//! makes the quantized engine's parity argument small.

use crate::matrix::Matrix;

/// A linear map `R^in → R^out` applied as `x^T · W`, in vector-at-a-time and
/// block (multi-row GEMM) forms.
///
/// Contract: `apply_block(xs)` row `i` must be bit-identical to
/// `apply(xs.row(i))` — every implementation keeps the single-row and blocked
/// paths interchangeable, which the prefill parity suites assert.
pub trait Linear {
    /// Input dimension (rows of the logical `in × out` weight matrix).
    fn in_features(&self) -> usize;

    /// Output dimension.
    fn out_features(&self) -> usize;

    /// `y = x^T · W` for one activation vector.
    fn apply(&self, x: &[f32]) -> Vec<f32>;

    /// Row-wise `Y = X · W`; row `i` is bit-identical to `apply(xs.row(i))`.
    fn apply_block(&self, xs: &Matrix) -> Matrix;

    /// `apply` with a thread-count hint for very wide outputs (the LM head).
    /// Must be bit-identical to [`Linear::apply`] for any `threads`; both
    /// implementations split the *output* range so each element is still
    /// computed by exactly one thread with the serial reduction order.
    fn apply_parallel(&self, x: &[f32], threads: usize) -> Vec<f32> {
        let _ = threads;
        self.apply(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::PackedMatrix;

    #[test]
    fn block_rows_match_single_rows() {
        let m = Matrix::from_fn(5, 9, |r, c| ((r * 17 + c * 5) % 13) as f32 * 0.11 - 0.6);
        let m = PackedMatrix::pack(&m);
        let xs = Matrix::from_fn(4, 5, |r, c| ((r * 3 + c * 7) % 8) as f32 * 0.4 - 1.1);
        let blk = Linear::apply_block(&m, &xs);
        assert_eq!((m.in_features(), m.out_features()), (5, 9));
        for i in 0..xs.rows() {
            assert_eq!(
                blk.row(i),
                Linear::apply(&m, xs.row(i)).as_slice(),
                "row {i}"
            );
        }
    }
}
