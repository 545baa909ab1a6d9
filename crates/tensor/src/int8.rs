//! Int8 weight storage and exact-integer GEMM kernels.
//!
//! ## Representation
//!
//! [`Int8Matrix`] stores a logical `in × out` projection (same orientation as
//! the f32 [`Matrix`] weights, where `y = x^T · W`) **transposed**, one
//! contiguous `i8` row per *output* channel. Each output row `j` carries one
//! scale `s_j = max_k |W[k][j]| / 127` picked by the calibration constructor
//! ([`Int8Matrix::calibrate`]); activations are quantized dynamically per
//! token with a single symmetric scale `s_x = max_k |x[k]| / 127`.
//!
//! ## Why this is bitwise-reproducible
//!
//! Every inner product is accumulated in `i32` over products of values in
//! `[-127, 127]`. Integer addition is associative *and* exact here:
//! `|acc| ≤ K · 127² < 2^31` for any `K ≤ 133 000`, far above every
//! projection in this engine, so the accumulator never saturates or rounds —
//! which means **any** reduction order (scalar, 8-lane, 16-lane, pairwise
//! `madd`) produces the same integer. The only floating-point operation is
//! the final rescale `acc as f32 * (s_x * s_j)` — one multiply per output —
//! so the scalar, AVX2, and AVX-512 kernels, blocked or single-row or
//! thread-split, are all bit-identical by construction. That makes
//! `(seed, config) → logits` a pure function for the int8 path exactly as it
//! is for f32, and lets the kernels pick whatever instruction set the host
//! has without a reproducibility caveat.
//!
//! ## Why this is fast
//!
//! Weight traffic drops 4× versus f32, and the multiply-accumulate runs on
//! `pmaddwd`-class instructions (two `i16 × i16 → i32` fused ops per lane),
//! selected at runtime: AVX-512BW, then AVX2, then a scalar fallback. The
//! blocked path additionally stages the activation block and each group of
//! four weight rows as `i16` once, so the sign-extension cost is amortized
//! across the whole block — this is where the ≥2× prefill speedup measured
//! by `quant_sweep` comes from.

use crate::linear::Linear;
use crate::matrix::Matrix;
use crate::simd::{self, SimdLevel};

/// Below this many multiply-accumulates, [`Int8Matrix::apply_parallel`] runs
/// serially: thread spawn overhead would dominate.
const PARALLEL_MIN_WORK: usize = 32 * 1024;

/// Quantize one activation vector symmetrically to `i8`.
///
/// Returns the quantized values and the scale `s_x` such that
/// `x[k] ≈ q[k] as f32 * s_x`. A zero (or empty) vector gets scale `1.0` so
/// the dequantized product is exactly zero.
pub fn quantize_activation(x: &[f32]) -> (Vec<i8>, f32) {
    let (q16, scale) = quantize_activation_i16(x);
    (q16.iter().map(|&v| v as i8).collect(), scale)
}

/// [`quantize_activation`] storing the (identical) values widened to `i16` —
/// the staged form the `pmaddwd` kernels consume without a sign-extension in
/// the inner loop.
fn quantize_activation_i16(x: &[f32]) -> (Vec<i16>, f32) {
    let mut q = vec![0i16; x.len()];
    let scale = quantize_row_into(x, &mut q);
    (q, scale)
}

/// Round to the nearest integer, ties to even, exactly and branchlessly: for
/// `|y| < 2^22`, adding and subtracting `1.5 · 2^23` forces the mantissa to
/// integer precision under the default rounding mode. This is the rounding
/// rule of the int8 quantizer — chosen over `f32::round` (ties away from
/// zero) because it compiles to two adds instead of a libm call at the SSE2
/// baseline, which makes activation staging vectorizable and nearly free.
#[inline]
fn round_ties_even(y: f32) -> f32 {
    const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23
    (y + MAGIC) - MAGIC
}

/// [`quantize_activation_i16`] into a caller-provided buffer — the blocked
/// path quantizes every activation row into one flat staging area without
/// per-row allocations. Same values, same scale.
fn quantize_row_into(x: &[f32], out: &mut [i16]) -> f32 {
    debug_assert_eq!(x.len(), out.len());
    let max_abs = x.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
    let inv = 1.0 / scale;
    for (dst, &v) in out.iter_mut().zip(x) {
        *dst = round_ties_even(v * inv).clamp(-127.0, 127.0) as i16;
    }
    scale
}

/// Scalar reference kernel: staged `i16` activation against an `i8` weight
/// row. Exact, so every SIMD kernel must (and does) reproduce it bit-for-bit.
fn dot_mixed_scalar(a16: &[i16], w: &[i8]) -> i32 {
    debug_assert_eq!(a16.len(), w.len());
    let mut acc = 0i32;
    for (&x, &wv) in a16.iter().zip(w.iter()) {
        acc += i32::from(x) * i32::from(wv);
    }
    acc
}

/// Scalar reference for the staged 4-row kernel.
fn dot4_staged_scalar(a16: &[i16], w16: &[i16], k: usize) -> [i32; 4] {
    let mut accs = [0i32; 4];
    for (jj, acc) in accs.iter_mut().enumerate() {
        let wrow = &w16[jj * k..(jj + 1) * k];
        for (&x, &wv) in a16.iter().zip(wrow.iter()) {
            *acc += i32::from(x) * i32::from(wv);
        }
    }
    accs
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX-512BW / AVX2 variants of the integer kernels. All arithmetic is
    //! exact (`i16 × i16` pair-sums into `i32` lanes, `|pair| ≤ 2 · 127²`),
    //! so these return bit-identical integers to the scalar references —
    //! asserted by the `simd_kernels_match_scalar_reference` test.
    use std::arch::x86_64::*;

    use super::Int8Matrix;
    use crate::matrix::Matrix;

    /// Full single-activation sweep over output rows `[j0, j1)` — the whole
    /// loop lives inside one `target_feature` region so the per-row dot
    /// kernel inlines instead of paying a function-call boundary per row.
    #[target_feature(enable = "avx512bw")]
    pub unsafe fn apply_range_avx512(
        m: &Int8Matrix,
        a16: &[i16],
        sx: f32,
        j0: usize,
        j1: usize,
        out: &mut [f32],
    ) {
        for (slot, j) in out.iter_mut().zip(j0..j1) {
            let acc = dot_mixed_avx512(a16, m.weight_row(j));
            *slot = acc as f32 * (sx * m.scales[j]);
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn apply_range_avx2(
        m: &Int8Matrix,
        a16: &[i16],
        sx: f32,
        j0: usize,
        j1: usize,
        out: &mut [f32],
    ) {
        for (slot, j) in out.iter_mut().zip(j0..j1) {
            let acc = dot_mixed_avx2(a16, m.weight_row(j));
            *slot = acc as f32 * (sx * m.scales[j]);
        }
    }

    /// Full blocked sweep: stage each group of four weight rows as i16 once,
    /// run every activation row against the group with four shared-load
    /// accumulators, finish remainder columns with the fused kernel.
    // index-based rows: `i` addresses both `a16` (via pointer math) and `sxs`
    #[allow(clippy::needless_range_loop)]
    #[target_feature(enable = "avx512bw")]
    pub unsafe fn apply_block_avx512(
        m: &Int8Matrix,
        a16: &[i16],
        sxs: &[f32],
        wbuf: &mut [i16],
        out: &mut Matrix,
    ) {
        let n = sxs.len();
        let k = m.in_features;
        let chunks = k / 32;
        let mut j = 0;
        while j + 4 <= m.out_features {
            m.stage_weight_rows(j, 4, wbuf);
            let w0 = wbuf.as_ptr();
            let w1 = wbuf.as_ptr().add(k);
            let w2 = wbuf.as_ptr().add(2 * k);
            let w3 = wbuf.as_ptr().add(3 * k);
            for i in 0..n {
                let a = a16.as_ptr().add(i * k);
                let mut acc0 = _mm512_setzero_si512();
                let mut acc1 = _mm512_setzero_si512();
                let mut acc2 = _mm512_setzero_si512();
                let mut acc3 = _mm512_setzero_si512();
                for c in 0..chunks {
                    let av = _mm512_loadu_si512(a.add(c * 32) as *const __m512i);
                    let l0 = _mm512_loadu_si512(w0.add(c * 32) as *const __m512i);
                    let l1 = _mm512_loadu_si512(w1.add(c * 32) as *const __m512i);
                    let l2 = _mm512_loadu_si512(w2.add(c * 32) as *const __m512i);
                    let l3 = _mm512_loadu_si512(w3.add(c * 32) as *const __m512i);
                    acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(av, l0));
                    acc1 = _mm512_add_epi32(acc1, _mm512_madd_epi16(av, l1));
                    acc2 = _mm512_add_epi32(acc2, _mm512_madd_epi16(av, l2));
                    acc3 = _mm512_add_epi32(acc3, _mm512_madd_epi16(av, l3));
                }
                let mut t0 = _mm512_reduce_add_epi32(acc0);
                let mut t1 = _mm512_reduce_add_epi32(acc1);
                let mut t2 = _mm512_reduce_add_epi32(acc2);
                let mut t3 = _mm512_reduce_add_epi32(acc3);
                for kk in chunks * 32..k {
                    let av = i32::from(*a.add(kk));
                    t0 += av * i32::from(*w0.add(kk));
                    t1 += av * i32::from(*w1.add(kk));
                    t2 += av * i32::from(*w2.add(kk));
                    t3 += av * i32::from(*w3.add(kk));
                }
                let sx = sxs[i];
                let orow = out.row_mut(i);
                orow[j] = t0 as f32 * (sx * m.scales[j]);
                orow[j + 1] = t1 as f32 * (sx * m.scales[j + 1]);
                orow[j + 2] = t2 as f32 * (sx * m.scales[j + 2]);
                orow[j + 3] = t3 as f32 * (sx * m.scales[j + 3]);
            }
            j += 4;
        }
        for jr in j..m.out_features {
            let wrow = m.weight_row(jr);
            let sj = m.scales[jr];
            for i in 0..n {
                let arow = &a16[i * k..(i + 1) * k];
                let acc = dot_mixed_avx512(arow, wrow);
                out.row_mut(i)[jr] = acc as f32 * (sxs[i] * sj);
            }
        }
    }

    // index-based rows: `i` addresses both `a16` (via pointer math) and `sxs`
    #[allow(clippy::needless_range_loop)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn apply_block_avx2(
        m: &Int8Matrix,
        a16: &[i16],
        sxs: &[f32],
        wbuf: &mut [i16],
        out: &mut Matrix,
    ) {
        let n = sxs.len();
        let k = m.in_features;
        let chunks = k / 16;
        let mut j = 0;
        while j + 4 <= m.out_features {
            m.stage_weight_rows(j, 4, wbuf);
            let w0 = wbuf.as_ptr();
            let w1 = wbuf.as_ptr().add(k);
            let w2 = wbuf.as_ptr().add(2 * k);
            let w3 = wbuf.as_ptr().add(3 * k);
            for i in 0..n {
                let a = a16.as_ptr().add(i * k);
                let mut acc0 = _mm256_setzero_si256();
                let mut acc1 = _mm256_setzero_si256();
                let mut acc2 = _mm256_setzero_si256();
                let mut acc3 = _mm256_setzero_si256();
                for c in 0..chunks {
                    let av = _mm256_loadu_si256(a.add(c * 16) as *const __m256i);
                    let l0 = _mm256_loadu_si256(w0.add(c * 16) as *const __m256i);
                    let l1 = _mm256_loadu_si256(w1.add(c * 16) as *const __m256i);
                    let l2 = _mm256_loadu_si256(w2.add(c * 16) as *const __m256i);
                    let l3 = _mm256_loadu_si256(w3.add(c * 16) as *const __m256i);
                    acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(av, l0));
                    acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(av, l1));
                    acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(av, l2));
                    acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(av, l3));
                }
                let mut t0 = hsum_epi32_avx2(acc0);
                let mut t1 = hsum_epi32_avx2(acc1);
                let mut t2 = hsum_epi32_avx2(acc2);
                let mut t3 = hsum_epi32_avx2(acc3);
                for kk in chunks * 16..k {
                    let av = i32::from(*a.add(kk));
                    t0 += av * i32::from(*w0.add(kk));
                    t1 += av * i32::from(*w1.add(kk));
                    t2 += av * i32::from(*w2.add(kk));
                    t3 += av * i32::from(*w3.add(kk));
                }
                let sx = sxs[i];
                let orow = out.row_mut(i);
                orow[j] = t0 as f32 * (sx * m.scales[j]);
                orow[j + 1] = t1 as f32 * (sx * m.scales[j + 1]);
                orow[j + 2] = t2 as f32 * (sx * m.scales[j + 2]);
                orow[j + 3] = t3 as f32 * (sx * m.scales[j + 3]);
            }
            j += 4;
        }
        for jr in j..m.out_features {
            let wrow = m.weight_row(jr);
            let sj = m.scales[jr];
            for i in 0..n {
                let arow = &a16[i * k..(i + 1) * k];
                let acc = dot_mixed_avx2(arow, wrow);
                out.row_mut(i)[jr] = acc as f32 * (sxs[i] * sj);
            }
        }
    }

    #[inline]
    #[target_feature(enable = "avx512bw")]
    pub unsafe fn dot_mixed_avx512(a16: &[i16], w: &[i8]) -> i32 {
        let k = a16.len();
        let chunks = k / 32;
        let mut acc = _mm512_setzero_si512();
        for c in 0..chunks {
            let wv =
                _mm512_cvtepi8_epi16(_mm256_loadu_si256(w.as_ptr().add(c * 32) as *const __m256i));
            let av = _mm512_loadu_si512(a16.as_ptr().add(c * 32) as *const __m512i);
            acc = _mm512_add_epi32(acc, _mm512_madd_epi16(av, wv));
        }
        let mut total = _mm512_reduce_add_epi32(acc);
        for kk in chunks * 32..k {
            total += i32::from(a16[kk]) * i32::from(w[kk]);
        }
        total
    }

    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi32_avx2(v: __m256i) -> i32 {
        let s = _mm_add_epi32(_mm256_extracti128_si256(v, 1), _mm256_castsi256_si128(v));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_00_01));
        _mm_cvtsi128_si32(s)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_mixed_avx2(a16: &[i16], w: &[i8]) -> i32 {
        let k = a16.len();
        let chunks = k / 16;
        let mut acc = _mm256_setzero_si256();
        for c in 0..chunks {
            let wv =
                _mm256_cvtepi8_epi16(_mm_loadu_si128(w.as_ptr().add(c * 16) as *const __m128i));
            let av = _mm256_loadu_si256(a16.as_ptr().add(c * 16) as *const __m256i);
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(av, wv));
        }
        let mut total = hsum_epi32_avx2(acc);
        for kk in chunks * 16..k {
            total += i32::from(a16[kk]) * i32::from(w[kk]);
        }
        total
    }
}

/// An `in × out` projection stored as int8 with per-output-row scales.
///
/// See the module docs for the layout and the exactness argument. The
/// [`Linear`] impl guarantees `apply_block` row `i` is bit-identical to
/// `apply` of that row, and [`Int8Matrix::apply_parallel`] is bit-identical
/// to both for any thread count.
#[derive(Clone, Debug, PartialEq)]
pub struct Int8Matrix {
    in_features: usize,
    out_features: usize,
    /// `out_features` contiguous rows of `in_features` bytes (out-major).
    data: Vec<i8>,
    /// Per-output-row weight scales, `len == out_features`.
    scales: Vec<f32>,
}

impl Int8Matrix {
    /// Calibration pass: pick per-output-row scales from the f32 weights and
    /// quantize. `w` is the logical `in × out` matrix (the same orientation
    /// `ops::vecmat` consumes).
    pub fn calibrate(w: &Matrix) -> Self {
        let in_features = w.rows();
        let out_features = w.cols();
        let mut scales = vec![1.0f32; out_features];
        for (j, scale) in scales.iter_mut().enumerate() {
            let mut max_abs = 0.0f32;
            for k in 0..in_features {
                max_abs = max_abs.max(w.get(k, j).abs());
            }
            if max_abs > 0.0 {
                *scale = max_abs / 127.0;
            }
        }
        let mut data = Vec::with_capacity(out_features * in_features);
        for (j, &scale) in scales.iter().enumerate() {
            let inv = 1.0 / scale;
            for k in 0..in_features {
                data.push(round_ties_even(w.get(k, j) * inv).clamp(-127.0, 127.0) as i8);
            }
        }
        Self {
            in_features,
            out_features,
            data,
            scales,
        }
    }

    pub fn in_features(&self) -> usize {
        self.in_features
    }

    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Per-output-row weight scales chosen by calibration.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Largest per-row scale — a summary statistic the calibration report in
    /// `quant_sweep` surfaces per projection.
    pub fn max_scale(&self) -> f32 {
        self.scales.iter().fold(0.0f32, |m, &s| m.max(s))
    }

    /// Actual storage footprint: the i8 payload plus the f32 scales.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<i8>() + self.scales.len() * std::mem::size_of::<f32>()
    }

    /// Reconstruct the f32 `in × out` matrix (`W[k][j] = q[j][k] · s_j`).
    /// Elementwise error versus the calibrated source is at most `s_j / 2`.
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.in_features, self.out_features);
        for j in 0..self.out_features {
            let row = self.weight_row(j);
            let s = self.scales[j];
            for (k, &q) in row.iter().enumerate() {
                out.set(k, j, f32::from(q) * s);
            }
        }
        out
    }

    #[inline]
    fn weight_row(&self, j: usize) -> &[i8] {
        &self.data[j * self.in_features..(j + 1) * self.in_features]
    }

    /// The single-activation kernel shared by `apply` and `apply_parallel`:
    /// staged activation `(a16, sx)` against output rows `j ∈ [j0, j1)`,
    /// written to `out`. Dispatches once per call; every level computes the
    /// same integers.
    fn apply_staged_range(&self, a16: &[i16], sx: f32, j0: usize, j1: usize, out: &mut [f32]) {
        debug_assert_eq!(a16.len(), self.in_features);
        debug_assert_eq!(out.len(), j1 - j0);
        match simd::detect() {
            // SAFETY: `simd::detect` returned Avx512, so the CPU reported
            // avx512bw.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512(_) => unsafe { x86::apply_range_avx512(self, a16, sx, j0, j1, out) },
            // SAFETY: `simd::detect` returned Avx2, so the CPU reported avx2.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2(_) => unsafe { x86::apply_range_avx2(self, a16, sx, j0, j1, out) },
            SimdLevel::Scalar => {
                for (slot, j) in out.iter_mut().zip(j0..j1) {
                    let acc = dot_mixed_scalar(a16, self.weight_row(j));
                    *slot = acc as f32 * (sx * self.scales[j]);
                }
            }
        }
    }

    /// Portable blocked sweep mirroring the SIMD versions exactly.
    fn apply_block_scalar(&self, a16: &[i16], sxs: &[f32], wbuf: &mut [i16], out: &mut Matrix) {
        let n = sxs.len();
        let k = self.in_features;
        let mut j = 0;
        while j + 4 <= self.out_features {
            self.stage_weight_rows(j, 4, wbuf);
            for i in 0..n {
                let arow = &a16[i * k..(i + 1) * k];
                let accs = dot4_staged_scalar(arow, wbuf, k);
                let orow = out.row_mut(i);
                for (jj, &acc) in accs.iter().enumerate() {
                    orow[j + jj] = acc as f32 * (sxs[i] * self.scales[j + jj]);
                }
            }
            j += 4;
        }
        for jr in j..self.out_features {
            let wrow = self.weight_row(jr);
            let sj = self.scales[jr];
            for i in 0..n {
                let arow = &a16[i * k..(i + 1) * k];
                let acc = dot_mixed_scalar(arow, wrow);
                out.row_mut(i)[jr] = acc as f32 * (sxs[i] * sj);
            }
        }
    }

    /// Stage weight rows `[j, j + rows)` as `i16` into `wbuf` (row-major,
    /// `rows × in_features`).
    fn stage_weight_rows(&self, j: usize, rows: usize, wbuf: &mut [i16]) {
        let k = self.in_features;
        for jj in 0..rows {
            let src = self.weight_row(j + jj);
            for (dst, &s) in wbuf[jj * k..(jj + 1) * k].iter_mut().zip(src) {
                *dst = i16::from(s);
            }
        }
    }

    /// `apply` with an explicit thread count, bit-identical to [`Linear::apply`]
    /// for any `threads`: each output is computed by exactly one thread with
    /// the same exact-integer reduction. Used for the wide lm_head (also
    /// reachable as [`Linear::apply_parallel`]).
    ///
    /// # Panics
    /// Panics if `x.len() != in_features`.
    pub fn apply_parallel(&self, x: &[f32], threads: usize) -> Vec<f32> {
        assert_eq!(
            x.len(),
            self.in_features,
            "activation length {} must equal in_features {}",
            x.len(),
            self.in_features
        );
        let threads = threads.clamp(1, self.out_features.max(1));
        let work = self.in_features * self.out_features;
        if threads < 2 || work < PARALLEL_MIN_WORK {
            return Linear::apply(self, x);
        }
        let (a16, sx) = quantize_activation_i16(x);
        let mut out = vec![0.0f32; self.out_features];
        let chunk = self.out_features.div_ceil(threads);
        std::thread::scope(|scope| {
            for (t, slice) in out.chunks_mut(chunk).enumerate() {
                let j0 = t * chunk;
                let a16 = &a16;
                scope.spawn(move || {
                    self.apply_staged_range(a16, sx, j0, j0 + slice.len(), slice);
                });
            }
        });
        out
    }
}

impl Linear for Int8Matrix {
    fn in_features(&self) -> usize {
        self.in_features
    }

    fn out_features(&self) -> usize {
        self.out_features
    }

    /// # Panics
    /// Panics if `x.len() != in_features`.
    fn apply(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(
            x.len(),
            self.in_features,
            "activation length {} must equal in_features {}",
            x.len(),
            self.in_features
        );
        let (a16, sx) = quantize_activation_i16(x);
        let mut out = vec![0.0f32; self.out_features];
        self.apply_staged_range(&a16, sx, 0, self.out_features, &mut out);
        out
    }

    /// # Panics
    /// Panics if `xs.cols() != in_features`.
    fn apply_block(&self, xs: &Matrix) -> Matrix {
        assert_eq!(
            xs.cols(),
            self.in_features,
            "activation cols {} must equal in_features {}",
            xs.cols(),
            self.in_features
        );
        // Stage every activation row as i16 up front (dynamic per-token
        // scales), then walk outputs four weight rows at a time: each group
        // is staged as i16 once and re-used across all activation rows, so
        // the sign-extension cost is O(k·m + n·k) instead of O(n·k·m).
        let n = xs.rows();
        let k = self.in_features;
        let mut a16 = vec![0i16; n * k];
        let mut sxs = vec![0.0f32; n];
        for i in 0..n {
            sxs[i] = quantize_row_into(xs.row(i), &mut a16[i * k..(i + 1) * k]);
        }
        let mut out = Matrix::zeros(n, self.out_features);
        let mut wbuf = vec![0i16; 4 * k];
        match simd::detect() {
            // SAFETY: `simd::detect` returned Avx512, so the CPU reported
            // avx512bw.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512(_) => unsafe {
                x86::apply_block_avx512(self, &a16, &sxs, &mut wbuf, &mut out);
            },
            // SAFETY: `simd::detect` returned Avx2, so the CPU reported avx2.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2(_) => unsafe {
                x86::apply_block_avx2(self, &a16, &sxs, &mut wbuf, &mut out);
            },
            SimdLevel::Scalar => self.apply_block_scalar(&a16, &sxs, &mut wbuf, &mut out),
        }
        out
    }

    fn apply_parallel(&self, x: &[f32], threads: usize) -> Vec<f32> {
        Int8Matrix::apply_parallel(self, x, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::vecmat;

    fn pseudo_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / u32::MAX as f32) * 2.0 - 1.0
        })
    }

    fn pseudo_vec(n: usize, seed: u64) -> Vec<f32> {
        let m = pseudo_matrix(1, n, seed);
        m.row(0).to_vec()
    }

    #[test]
    fn calibrate_dequantize_error_bounded_by_half_scale() {
        let w = pseudo_matrix(48, 32, 3);
        let q = Int8Matrix::calibrate(&w);
        let dq = q.dequantize();
        for j in 0..w.cols() {
            let bound = q.scales()[j] * 0.5 + 1e-6;
            for k in 0..w.rows() {
                let err = (w.get(k, j) - dq.get(k, j)).abs();
                assert!(err <= bound, "err {err} > bound {bound} at ({k},{j})");
            }
        }
    }

    #[test]
    fn apply_tracks_f32_vecmat() {
        let w = pseudo_matrix(64, 48, 11);
        let q = Int8Matrix::calibrate(&w);
        let x = pseudo_vec(64, 5);
        let exact = vecmat(&x, &w);
        let approx = Linear::apply(&q, &x);
        let spread = exact.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-6);
        for (a, b) in exact.iter().zip(&approx) {
            assert!(
                (a - b).abs() / spread < 0.02,
                "int8 apply diverged: {a} vs {b} (spread {spread})"
            );
        }
    }

    #[test]
    fn block_rows_bit_identical_to_apply() {
        // Sizes straddle the 16/32-lane chunk boundaries so both the SIMD
        // body and the scalar remainder are exercised.
        for (rows, cols, n) in [(40, 24, 9), (96, 37, 5), (33, 130, 7)] {
            let w = pseudo_matrix(rows, cols, 7);
            let q = Int8Matrix::calibrate(&w);
            let xs = pseudo_matrix(n, rows, 13);
            let blk = Linear::apply_block(&q, &xs);
            for i in 0..xs.rows() {
                assert_eq!(
                    blk.row(i),
                    Linear::apply(&q, xs.row(i)).as_slice(),
                    "row {i} of blocked int8 GEMM ({rows}x{cols}) must match the \
                     single-row kernel"
                );
            }
        }
    }

    #[test]
    fn simd_kernels_match_scalar_reference() {
        // The dispatch contract: whatever level `simd::detect()` picked, the
        // produced integers equal the scalar reference — on every length,
        // including ones that are all remainder.
        for k in [1usize, 7, 15, 16, 17, 31, 32, 33, 64, 96, 100, 257] {
            let w = pseudo_matrix(k, 9, k as u64 + 1);
            let q = Int8Matrix::calibrate(&w);
            let x = pseudo_vec(k, k as u64 + 77);
            let (a16, sx) = quantize_activation_i16(&x);
            let mut via_dispatch = vec![0.0f32; 9];
            q.apply_staged_range(&a16, sx, 0, 9, &mut via_dispatch);
            let scalar: Vec<f32> = (0..9)
                .map(|j| dot_mixed_scalar(&a16, q.weight_row(j)) as f32 * (sx * q.scales[j]))
                .collect();
            assert_eq!(via_dispatch, scalar, "k={k}");
            // Blocked sweep (dispatched) vs the portable scalar sweep,
            // covering the staged 4-row body and the remainder columns.
            let xs = pseudo_matrix(5, k, k as u64 + 201);
            let blk = Linear::apply_block(&q, &xs);
            let mut a16 = vec![0i16; 5 * k];
            let mut sxs = vec![0.0f32; 5];
            for i in 0..5 {
                sxs[i] = quantize_row_into(xs.row(i), &mut a16[i * k..(i + 1) * k]);
            }
            let mut scalar_blk = Matrix::zeros(5, q.out_features);
            let mut wbuf = vec![0i16; 4 * k];
            q.apply_block_scalar(&a16, &sxs, &mut wbuf, &mut scalar_blk);
            assert_eq!(blk, scalar_blk, "k={k}");
        }
    }

    #[test]
    fn parallel_bit_identical_to_serial_for_all_thread_counts() {
        let w = pseudo_matrix(96, 512, 17);
        let q = Int8Matrix::calibrate(&w);
        let x = pseudo_vec(96, 19);
        let serial = Linear::apply(&q, &x);
        for threads in [1, 2, 3, 5, 8] {
            assert_eq!(
                q.apply_parallel(&x, threads),
                serial,
                "thread count {threads} changed int8 lm_head bits"
            );
        }
    }

    #[test]
    fn zero_matrix_and_zero_activation_are_exact() {
        let w = Matrix::zeros(8, 6);
        let q = Int8Matrix::calibrate(&w);
        assert!(q.scales().iter().all(|&s| s == 1.0));
        assert_eq!(Linear::apply(&q, &[0.5; 8]), vec![0.0; 6]);
        let w2 = pseudo_matrix(8, 6, 23);
        let q2 = Int8Matrix::calibrate(&w2);
        assert_eq!(Linear::apply(&q2, &[0.0; 8]), vec![0.0; 6]);
    }

    #[test]
    fn memory_bytes_counts_payload_and_scales() {
        let w = pseudo_matrix(32, 16, 29);
        let q = Int8Matrix::calibrate(&w);
        assert_eq!(q.memory_bytes(), 32 * 16 + 16 * 4);
        let f32_bytes = 32 * 16 * 4;
        assert!(
            q.memory_bytes() * 3 < f32_bytes,
            "int8 must be well under f32"
        );
    }

    #[test]
    fn activation_quantization_is_exact_on_small_integers() {
        let x: Vec<f32> = vec![0.0, 1.0, -3.0, 127.0, -127.0];
        let (q, s) = quantize_activation(&x);
        for (orig, &qi) in x.iter().zip(&q) {
            assert_eq!(f32::from(qi) * s, *orig);
        }
    }

    #[test]
    fn i8_and_i16_quantization_agree() {
        let x = pseudo_vec(100, 3);
        let (q8, s8) = quantize_activation(&x);
        let (q16, s16) = quantize_activation_i16(&x);
        assert_eq!(s8, s16);
        assert!(q8.iter().zip(&q16).all(|(&a, &b)| i16::from(a) == b));
    }

    #[test]
    #[should_panic(expected = "in_features")]
    fn apply_rejects_shape_mismatch() {
        let q = Int8Matrix::calibrate(&pseudo_matrix(4, 3, 1));
        Linear::apply(&q, &[1.0, 2.0]);
    }

    proptest::proptest! {
        #[test]
        fn quantized_apply_relative_error_is_small(
            rows in 4usize..48, cols in 2usize..24, seed in 0u64..500
        ) {
            let w = pseudo_matrix(rows, cols, seed);
            let q = Int8Matrix::calibrate(&w);
            let x = pseudo_vec(rows, seed.wrapping_add(101));
            let exact = vecmat(&x, &w);
            let approx = Linear::apply(&q, &x);
            let spread = exact.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-3);
            for (a, b) in exact.iter().zip(&approx) {
                proptest::prop_assert!((a - b).abs() / spread < 0.05);
            }
        }

        #[test]
        fn block_matches_apply_on_arbitrary_shapes(
            rows in 1usize..70, cols in 1usize..70, n in 1usize..6, seed in 0u64..200
        ) {
            let w = pseudo_matrix(rows, cols, seed);
            let q = Int8Matrix::calibrate(&w);
            let xs = pseudo_matrix(n, rows, seed.wrapping_add(7));
            let blk = Linear::apply_block(&q, &xs);
            for i in 0..n {
                let single = Linear::apply(&q, xs.row(i));
                proptest::prop_assert_eq!(blk.row(i), single.as_slice());
            }
        }
    }
}
