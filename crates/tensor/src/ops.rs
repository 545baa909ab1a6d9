//! BLAS-like kernels: the packed f32 projection GEMM, dot, axpy.
//!
//! [`PackedMatrix`] is the engine's f32 projection: its weights are packed
//! once into 32-column panels, and its one GEMM runs at the widest SIMD
//! level the host supports ([`crate::simd`]). Its lanes span only
//! independent outputs, the columns of `C`: every output element still
//! accumulates its `k` products one at a time, multiply then add (never
//! fused), in ascending `k`, with zero activations skipped. So every level,
//! tile shape and thread split produces the same bits, and `apply_block`
//! row `i` equals `apply` of row `i` of `A`.

use crate::linear::Linear;
use crate::matrix::Matrix;
use crate::simd::{self, SimdLevel};

/// Output columns per weight panel: two AVX-512 vectors.
const PANEL: usize = 32;

/// Rows of `A` per register tile of the GEMM.
const TILE_ROWS: usize = 4;

/// Column slices a lone row walks at once, so it keeps as many independent
/// accumulators in flight as a tile of [`TILE_ROWS`] rows does.
const ROW_SLICES: usize = 4;

/// Minimum multiply-accumulate terms (`in × out`) before
/// [`Linear::apply_parallel`] of a [`PackedMatrix`] runs on more than one
/// thread; smaller products run serially, with the same bits. Timed as
/// `apply` against `apply_parallel(x, 2)`, medians of seven alternating
/// pairs of 40 calls (`bench::sweep::paired`), three runs on a 2-vCPU
/// guest: two threads lost or tied up to 2 Mi terms (96–256 × 8192:
/// ×0.62–×1.13) and won from 3 Mi (384 × 8192: ×1.21–×1.24; 96 × 32768:
/// ×1.21–×1.37).
const PARALLEL_MIN_WORK: usize = 3 << 20;

/// An `in × out` f32 projection packed for the GEMM, applied as
/// `y = x^T · W`.
///
/// Panel `q` holds output columns `32q..32q + 32` of every input row: `in`
/// rows of 32 contiguous floats, so a register tile streams one contiguous
/// block instead of rows `out` floats apart. Columns past `out` in the last
/// panel are zero, and a call writes only the columns it owns.
///
/// Each call tests every activation row once for a ±0.0 (`== 0.0`, the
/// skip's own test, so −0.0 counts and NaN does not). A tile of rows that
/// holds none accumulates with no per-element test; any other tile, and
/// each leftover row, skips zero activations one by one. The two perform
/// the same operations whenever no row holds a zero, so every output is the
/// textbook loop's bits either way.
#[derive(Clone, Debug, PartialEq)]
pub struct PackedMatrix {
    in_features: usize,
    out_features: usize,
    /// `⌈out / 32⌉` panels of `in` rows, zero-padded (see the type docs).
    panels: Vec<[f32; PANEL]>,
}

/// A slice of a panel: its `in` rows, read from column `at` on.
type Slice<'a> = (&'a [[f32; PANEL]], usize);

impl PackedMatrix {
    /// Pack the logical `in × out` matrix `w` (rows are inputs).
    pub fn pack(w: &Matrix) -> Self {
        let (k, n) = (w.rows(), w.cols());
        let mut panels = vec![[0.0; PANEL]; n.div_ceil(PANEL) * k];
        for kk in 0..k {
            for (q, cols) in w.row(kk).chunks(PANEL).enumerate() {
                panels[q * k + kk][..cols.len()].copy_from_slice(cols);
            }
        }
        Self {
            in_features: k,
            out_features: n,
            panels,
        }
    }

    /// [`Linear::apply_parallel`] at `level`: each thread owns whole
    /// panels, so every output is computed by exactly one thread in the
    /// serial order. Products smaller than [`PARALLEL_MIN_WORK`] terms
    /// run on the calling thread.
    fn apply_at(&self, level: SimdLevel, x: &[f32], threads: usize) -> Vec<f32> {
        self.check_in(x.len());
        let zero = [x.contains(&0.0)];
        let mut out = vec![0.0f32; self.out_features];
        let panels = self.out_features.div_ceil(PANEL);
        let threads = threads.clamp(1, panels.max(1));
        if threads < 2 || self.in_features * self.out_features < PARALLEL_MIN_WORK {
            gemm_at(level, self, x, &zero, 0, &mut out);
            return out;
        }
        let chunk = panels.div_ceil(threads) * PANEL;
        std::thread::scope(|scope| {
            for (t, part) in out.chunks_mut(chunk).enumerate() {
                let zero = &zero;
                scope.spawn(move || gemm_at(level, self, x, zero, t * chunk, part));
            }
        });
        out
    }

    /// [`Linear::apply_block`] at `level`.
    fn apply_block_at(&self, level: SimdLevel, xs: &Matrix) -> Matrix {
        self.check_in(xs.cols());
        let zero: Vec<bool> = (0..xs.rows()).map(|i| xs.row(i).contains(&0.0)).collect();
        let mut out = Matrix::zeros(xs.rows(), self.out_features);
        gemm_at(level, self, xs.as_slice(), &zero, 0, out.as_mut_slice());
        out
    }

    fn check_in(&self, len: usize) {
        assert_eq!(
            len, self.in_features,
            "shape mismatch: activation length {len}, in_features {}",
            self.in_features
        );
    }
}

impl Linear for PackedMatrix {
    fn in_features(&self) -> usize {
        self.in_features
    }

    fn out_features(&self) -> usize {
        self.out_features
    }

    /// # Panics
    /// Panics if `x.len() != in_features`.
    fn apply(&self, x: &[f32]) -> Vec<f32> {
        self.apply_at(simd::detect(), x, 1)
    }

    /// # Panics
    /// Panics if `xs.cols() != in_features`.
    fn apply_block(&self, xs: &Matrix) -> Matrix {
        self.apply_block_at(simd::detect(), xs)
    }

    fn apply_parallel(&self, x: &[f32], threads: usize) -> Vec<f32> {
        self.apply_at(simd::detect(), x, threads)
    }
}

/// One panel slice's f32 accumulators at one SIMD level: `W` lanes, two of
/// the level's vectors, column `j` of the slice in lane `j`.
///
/// # Safety
/// An implementor is exactly `W` f32 lanes in column order: [`accumulate`]
/// starts it from all-zero bits (+0.0) with `mem::zeroed` and reads it back
/// with `mem::transmute_copy`.
unsafe trait SliceAcc<const W: usize>: Copy {
    /// `self + x · w`, lane by lane: a multiply, then an add, each rounded
    /// (never fused), as the textbook loop's `s += x * w`.
    ///
    /// # Safety
    /// The CPU supports the implementor's level: call it only inside that
    /// level's instantiation of [`gemm_body`].
    unsafe fn mul_add(self, x: f32, w: &[f32; W]) -> Self;
}

/// The portable accumulators: the baseline on targets other than x86-64.
#[cfg(not(target_arch = "x86_64"))]
type Baseline = [f32; 8];

// SAFETY: `[f32; W]` is the lane layout itself.
unsafe impl<const W: usize> SliceAcc<W> for [f32; W] {
    #[inline(always)]
    unsafe fn mul_add(mut self, x: f32, w: &[f32; W]) -> Self {
        for (s, &w) in self.iter_mut().zip(w) {
            *s += x * w;
        }
        self
    }
}

/// [`gemm_body`] at `level`.
fn gemm_at(
    level: SimdLevel,
    m: &PackedMatrix,
    a: &[f32],
    zero: &[bool],
    j0: usize,
    out: &mut [f32],
) {
    match level {
        // SAFETY: an Avx512 level carries the `simd` module's proof that
        // the CPU reported avx512f.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512(_) => unsafe { x86::gemm_avx512(m, a, zero, j0, out) },
        // SAFETY: an Avx2 level carries the `simd` module's proof that the
        // CPU reported avx2.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2(_) => unsafe { x86::gemm_avx2(m, a, zero, j0, out) },
        // SAFETY: the baseline accumulators use only the target's baseline
        // instructions (SSE2 on x86-64).
        SimdLevel::Scalar => unsafe { gemm_body::<Baseline, 8>(m, a, zero, j0, out) },
    }
}

#[cfg(target_arch = "x86_64")]
use x86::Baseline;

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX-512F, AVX2 and SSE2 accumulators of the GEMM and its
    //! AVX-512F and AVX2 instantiations. No instruction here fuses a
    //! multiply with an add, so each level rounds exactly as the textbook
    //! loop does.

    use std::arch::x86_64::*;

    use super::{gemm_body, PackedMatrix, SliceAcc};

    // SAFETY: two zmm are 32 f32 lanes, columns 0–15 then 16–31.
    unsafe impl SliceAcc<32> for [__m512; 2] {
        #[inline(always)]
        unsafe fn mul_add(self, x: f32, w: &[f32; 32]) -> Self {
            let x = _mm512_set1_ps(x);
            [0, 1].map(|h| {
                _mm512_add_ps(
                    self[h],
                    _mm512_mul_ps(x, _mm512_loadu_ps(w[16 * h..].as_ptr())),
                )
            })
        }
    }

    // SAFETY: two ymm are 16 f32 lanes, columns 0–7 then 8–15.
    unsafe impl SliceAcc<16> for [__m256; 2] {
        #[inline(always)]
        unsafe fn mul_add(self, x: f32, w: &[f32; 16]) -> Self {
            let x = _mm256_set1_ps(x);
            [0, 1].map(|h| {
                _mm256_add_ps(
                    self[h],
                    _mm256_mul_ps(x, _mm256_loadu_ps(w[8 * h..].as_ptr())),
                )
            })
        }
    }

    /// The x86-64 baseline's accumulators: two SSE vectors.
    pub type Baseline = [__m128; 2];

    // SAFETY: two xmm are 8 f32 lanes, columns 0–3 then 4–7.
    unsafe impl SliceAcc<8> for Baseline {
        #[inline(always)]
        unsafe fn mul_add(self, x: f32, w: &[f32; 8]) -> Self {
            let x = _mm_set1_ps(x);
            [0, 1].map(|h| _mm_add_ps(self[h], _mm_mul_ps(x, _mm_loadu_ps(w[4 * h..].as_ptr()))))
        }
    }

    #[target_feature(enable = "avx512f")]
    pub fn gemm_avx512(m: &PackedMatrix, a: &[f32], zero: &[bool], j0: usize, out: &mut [f32]) {
        // SAFETY: this instantiation enables avx512f, every instruction the
        // `[__m512; 2]` accumulators use.
        unsafe { gemm_body::<[__m512; 2], 32>(m, a, zero, j0, out) }
    }

    #[target_feature(enable = "avx2")]
    pub fn gemm_avx2(m: &PackedMatrix, a: &[f32], zero: &[bool], j0: usize, out: &mut [f32]) {
        // SAFETY: this instantiation enables avx2, every instruction the
        // `[__m256; 2]` accumulators use.
        unsafe { gemm_body::<[__m256; 2], 16>(m, a, zero, j0, out) }
    }
}

/// The GEMM body: the `zero.len()` activation rows of `a`, each
/// `m.in_features` long, against `m`'s panels, into `out`'s rows of
/// `width = out.len() / zero.len()` outputs for columns `j0..j0 + width`
/// (`j0` a multiple of [`PANEL`]). `zero[i]` is row `i`'s zero test.
///
/// A panel is walked in slices of `W` columns, the width of `V`. Each slice
/// runs outside the row tiles, so it is read from memory once and then
/// served from cache to every tile of [`TILE_ROWS`] rows. Leftover rows run
/// one at a time over [`ROW_SLICES`] slices.
///
/// # Safety
/// The CPU supports `V`'s level.
#[inline(always)]
unsafe fn gemm_body<V: SliceAcc<W>, const W: usize>(
    m: &PackedMatrix,
    a: &[f32],
    zero: &[bool],
    j0: usize,
    out: &mut [f32],
) {
    let Some(width) = out.len().checked_div(zero.len()) else {
        return;
    };
    let k = m.in_features;
    let row = |i: usize| &a[i * k..][..k];
    let slice = |s: usize| -> Slice<'_> {
        let c = j0 + s * W;
        (&m.panels[c / PANEL * k..][..k], c % PANEL)
    };
    let slices = width.div_ceil(W);
    let tiled = zero.len() - zero.len() % TILE_ROWS;
    for s in 0..slices {
        for i in (0..tiled).step_by(TILE_ROWS) {
            let rows = std::array::from_fn(|r| row(i + r));
            let skip = zero[i..i + TILE_ROWS].contains(&true);
            let acc = tile::<V, TILE_ROWS, 1, W>(rows, [slice(s)], skip);
            store(&acc, s * W, width, &mut out[i * width..]);
        }
    }
    let grouped = slices - slices % ROW_SLICES;
    for i in tiled..zero.len() {
        for s in (0..grouped).step_by(ROW_SLICES) {
            let b = std::array::from_fn(|p| slice(s + p));
            let acc = tile::<V, 1, ROW_SLICES, W>([row(i)], b, zero[i]);
            store(&acc, s * W, width, &mut out[i * width..]);
        }
        for s in grouped..slices {
            let acc = tile::<V, 1, 1, W>([row(i)], [slice(s)], zero[i]);
            store(&acc, s * W, width, &mut out[i * width..]);
        }
    }
}

/// One register tile: `R` activation rows against `P` slices of `W`
/// columns, accumulated over `k` in ascending order. With `skip`, a zero
/// activation adds nothing, the textbook loop's rule; without it, each
/// step adds every row's products with no test, the same operations when
/// no row holds a zero.
///
/// # Safety
/// The CPU supports `V`'s level.
#[inline(always)]
unsafe fn tile<V: SliceAcc<W>, const R: usize, const P: usize, const W: usize>(
    rows: [&[f32]; R],
    b: [Slice<'_>; P],
    skip: bool,
) -> [[[f32; W]; P]; R] {
    if skip {
        accumulate::<V, R, P, W, true>(rows, b)
    } else {
        accumulate::<V, R, P, W, false>(rows, b)
    }
}

/// [`tile`]'s loop, with the zero test compiled in or out.
///
/// # Safety
/// The CPU supports `V`'s level.
#[inline(always)]
unsafe fn accumulate<
    V: SliceAcc<W>,
    const R: usize,
    const P: usize,
    const W: usize,
    const SKIP: bool,
>(
    rows: [&[f32]; R],
    b: [Slice<'_>; P],
) -> [[[f32; W]; P]; R] {
    let k = b[0].0.len();
    let rows = rows.map(|r| &r[..k]);
    // SAFETY: all-zero lanes are +0.0 (`SliceAcc`'s contract).
    let mut acc: [[V; P]; R] = std::mem::zeroed();
    for kk in 0..k {
        let w: [&[f32; W]; P] =
            b.map(|(panel, at)| panel[kk][at..at + W].try_into().expect("W columns"));
        for (row, acc_r) in rows.iter().zip(acc.iter_mut()) {
            let x = row[kk];
            if SKIP && x == 0.0 {
                continue;
            }
            for (s, w) in acc_r.iter_mut().zip(w) {
                *s = s.mul_add(x, w);
            }
        }
    }
    // SAFETY: `V` is `W` f32 lanes in column order (`SliceAcc`'s contract).
    acc.map(|acc_r| acc_r.map(|s| std::mem::transmute_copy(&s)))
}

/// Write a tile's rows into `out`, rows `width` apart, its slices from
/// column `c0` on. Only the columns the call owns are written, so the
/// partial last slice stops at its edge.
#[inline(always)]
fn store<const P: usize, const W: usize>(
    acc: &[[[f32; W]; P]],
    c0: usize,
    width: usize,
    out: &mut [f32],
) {
    for (acc_r, orow) in acc.iter().zip(out.chunks_mut(width)) {
        for (p, sums) in acc_r.iter().enumerate() {
            let c = c0 + p * W;
            let cols = W.min(width - c);
            orow[c..c + cols].copy_from_slice(&sums[..cols]);
        }
    }
}

/// Dot product with 4-way manual unrolling.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let chunks = a.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for i in 0..chunks {
        let base = i * 4;
        s0 += a[base] * b[base];
        s1 += a[base + 1] * b[base + 1];
        s2 += a[base + 2] * b[base + 2];
        s3 += a[base + 3] * b[base + 3];
    }
    let mut sum = s0 + s1 + s2 + s3;
    for i in chunks * 4..a.len() {
        sum += a[i] * b[i];
    }
    sum
}

/// `y += alpha * x`.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            (0..a.cols()).map(|k| a.get(i, k) * b.get(k, j)).sum()
        })
    }

    /// `A · B` through the packed kernel.
    fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        PackedMatrix::pack(b).apply_block(a)
    }

    /// `M · x`, one [`dot`] per row: the reference the GEMM paths are
    /// checked against.
    fn matvec(m: &Matrix, x: &[f32]) -> Vec<f32> {
        assert_eq!(m.cols(), x.len(), "matvec shape mismatch");
        (0..m.rows()).map(|i| dot(m.row(i), x)).collect()
    }

    #[test]
    fn matmul_small_hand_example() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(matmul(&a, &Matrix::identity(3)), a);
        assert_eq!(matmul(&Matrix::identity(3), &a), a);
    }

    #[test]
    fn matmul_matches_naive_on_awkward_shapes() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (7, 65, 4), (2, 130, 3)] {
            let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 13) as f32 - 6.0);
            let b = Matrix::from_fn(k, n, |r, c| ((r * 17 + c * 3) % 11) as f32 - 5.0);
            let fast = matmul(&a, &b);
            let slow = naive_matmul(&a, &b);
            assert!(fast.max_abs_diff(&slow) < 1e-3, "shape ({m},{k},{n})");
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_shape_checked() {
        matmul(&Matrix::zeros(2, 3), &Matrix::zeros(2, 3));
    }

    #[test]
    fn matvec_matches_matmul() {
        let m = Matrix::from_fn(3, 4, |r, c| (r + c) as f32);
        let x = vec![1.0, -1.0, 2.0, 0.5];
        let y = matvec(&m, &x);
        let xs = Matrix::from_vec(4, 1, x.clone());
        let expect = matmul(&m, &xs);
        for (i, yi) in y.iter().enumerate() {
            assert!((yi - expect.get(i, 0)).abs() < 1e-6);
        }
    }

    #[test]
    fn vecmat_matches_transpose_matvec() {
        let m = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.5 - 2.0);
        let x = vec![1.0, 2.0, -1.0, 0.25];
        let got = PackedMatrix::pack(&m).apply(&x);
        let want = matvec(&m.transposed(), &x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-6);
        }
    }

    #[test]
    fn vecmat_parallel_is_bit_identical_to_serial() {
        // 2736 x 1153 = 3_154_608 terms, above PARALLEL_MIN_WORK so the
        // threaded path actually runs, over 37 panels (the last one of a
        // single column), so the larger thread counts clamp to 37.
        let m = Matrix::from_fn(2736, 1153, |r, c| {
            ((r * 31 + c * 7) % 17) as f32 * 0.13 - 1.0
        });
        assert!(m.rows() * m.cols() >= PARALLEL_MIN_WORK);
        let p = PackedMatrix::pack(&m);
        let x: Vec<f32> = (0..2736)
            .map(|i| ((i * 5) % 9) as f32 * 0.2 - 0.8)
            .collect();
        let serial = p.apply(&x);
        for threads in [1, 2, 3, 7, 64, 1000] {
            assert_eq!(p.apply_parallel(&x, threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn vecmat_parallel_small_products_fall_back_to_serial() {
        // Below the min-work threshold results must still be bit-identical;
        // the threshold only changes *where* the product runs.
        let m = Matrix::from_fn(48, 200, |r, c| ((r * 31 + c * 7) % 17) as f32 * 0.13 - 1.0);
        assert!(m.rows() * m.cols() < PARALLEL_MIN_WORK);
        let p = PackedMatrix::pack(&m);
        let x: Vec<f32> = (0..48).map(|i| ((i * 5) % 9) as f32 * 0.2 - 0.8).collect();
        assert_eq!(p.apply_parallel(&x, 8), p.apply(&x));
    }

    #[test]
    fn vecmat_parallel_tiny_matrix() {
        let p = PackedMatrix::pack(&Matrix::from_vec(2, 1, vec![3.0, 4.0]));
        assert_eq!(p.apply_parallel(&[1.0, 2.0], 8), vec![11.0]);
    }

    /// Textbook `x^T · B`: one product at a time, multiply then add, in
    /// ascending `k`, with zero activations skipped. Every kernel level
    /// must reproduce its bits.
    fn reference_vecmat(x: &[f32], b: &Matrix) -> Vec<f32> {
        (0..b.cols())
            .map(|j| {
                let mut s = 0.0f32;
                for (kk, &xk) in x.iter().enumerate() {
                    if xk != 0.0 {
                        s += xk * b.get(kk, j);
                    }
                }
                s
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every entry point of the packed kernel at every level the host
    /// supports against [`reference_vecmat`], row by row and bit for bit:
    /// `apply_block`, `apply`, `apply_parallel` on 1, 2, 3 and 8 threads,
    /// and a call that owns the columns from the second panel on, as one
    /// `apply_parallel` thread does (outputs pre-filled with NaN, so a
    /// missed or stray column fails), and at the baseline the portable
    /// accumulators too. `finite` names the rows whose reference outputs
    /// must all be finite.
    fn assert_packed_matches_reference(a: &Matrix, b: &Matrix, finite: impl Fn(usize) -> bool) {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let want: Vec<Vec<u32>> = (0..m)
            .map(|i| reference_vecmat(a.row(i), b))
            .enumerate()
            .inspect(|(i, r)| assert!(!finite(*i) || r.iter().all(|v| v.is_finite())))
            .map(|(_, r)| bits(&r))
            .collect();
        let p = PackedMatrix::pack(b);
        for level in simd::supported() {
            let shape = format!("{level:?} ({m},{k},{n})");
            let block = p.apply_block_at(level, a);
            for (i, want_row) in want.iter().enumerate() {
                assert_eq!(&bits(block.row(i)), want_row, "apply_block {shape} row {i}");
                for threads in [1, 2, 3, 8] {
                    let got = p.apply_at(level, a.row(i), threads);
                    let case = format!("apply on {threads} threads {shape} row {i}");
                    assert_eq!(&bits(&got), want_row, "{case}");
                }
            }
            let zero: Vec<bool> = (0..m).map(|i| a.row(i).contains(&0.0)).collect();
            if level == SimdLevel::Scalar {
                // The portable accumulators, which other targets run as
                // their baseline.
                let mut out = vec![f32::NAN; m * n];
                // SAFETY: they use no target-specific instruction.
                unsafe { gemm_body::<[f32; 8], 8>(&p, a.as_slice(), &zero, 0, &mut out) };
                for (i, got) in out.chunks(n.max(1)).enumerate() {
                    assert_eq!(bits(got), want[i], "portable ({m},{k},{n}) row {i}");
                }
            }
            if n > PANEL {
                let width = n - PANEL;
                let mut part = vec![f32::NAN; m * width];
                gemm_at(level, &p, a.as_slice(), &zero, PANEL, &mut part);
                for (i, got) in part.chunks(width).enumerate() {
                    let case = format!("from column {PANEL}: {shape} row {i}");
                    assert_eq!(bits(got), want[i][PANEL..], "{case}");
                }
            }
        }
    }

    #[test]
    fn matmul_rows_are_bit_identical_to_vecmat() {
        // The prefill parity contract: row i of A·B carries the exact bits
        // of the one-row product of A.row(i), at every entry point and SIMD
        // level, and both equal the textbook reference. The shapes straddle
        // the row tiles, the one-row slice groups and the panels of every
        // level, and a last panel of one column. Two inputs per shape:
        //
        // 1. Every fifth row of B holds NaN or ±∞ weights whose activations
        //    are all ±0, so the zero skip alone keeps the outputs finite;
        //    the other activations mix ±0 and subnormals into normal
        //    values. Every tile holds zeros and keeps the per-element test.
        // 2. The activations hold no zero, except one +0.0 in row 2 and one
        //    −0.0 in row 7 of every 12, at the one input whose weights hold
        //    NaN and +∞. So tiles 0 and 1 of every three hold exactly one
        //    zero, in their third and last rows, and tile 2 holds none and
        //    runs without the test. Only the skip keeps rows 2 and 7
        //    finite: a tile that drops the test while one of its rows holds
        //    a zero, or tests only its first row, fails.
        let weight = |r: usize, c: usize| match (r % 5, c % 3) {
            (3, 0) => f32::NAN,
            (3, 1) => f32::INFINITY,
            (3, _) => f32::NEG_INFINITY,
            _ => ((r * 19 + c * 5) % 13) as f32 * 0.21 - 1.2,
        };
        let activation = |r: usize, c: usize| match ((r + c) % 11, c % 5) {
            (_, 3) if (r + c).is_multiple_of(2) => 0.0,
            (_, 3) => -0.0,
            (0, _) => 0.0,
            (1, _) => -0.0,
            (2, _) => 1.0e-40,
            (3, _) => -3.0e-39,
            _ => ((r * 29 + c * 13) % 23) as f32 * 0.17 - 1.9,
        };
        let check = |rows: usize, k: usize, n: usize| {
            let a = Matrix::from_fn(rows, k, activation);
            let b = Matrix::from_fn(k, n, weight);
            assert_packed_matches_reference(&a, &b, |_| true);

            let special = k / 2;
            let weight = |r: usize, c: usize| match (r == special, c % 4) {
                (true, 1) => f32::INFINITY,
                (true, 3) => f32::NAN,
                _ => ((r * 19 + c * 5) % 13) as f32 * 0.21 - 1.2,
            };
            let zero_row = |r: usize| [2, 7].contains(&(r % 12));
            let activation = |r: usize, c: usize| match (c == special, r % 12) {
                (true, 2) => 0.0,
                (true, 7) => -0.0,
                _ if (r + c) % 7 == 3 => 1.0e-40,
                _ => ((r * 29 + c * 13) % 23) as f32 * 0.17 - 1.9,
            };
            let a = Matrix::from_fn(rows, k, activation);
            let b = Matrix::from_fn(k, n, weight);
            assert_packed_matches_reference(&a, &b, zero_row);
        };
        for rows in [1, 2, 3, 4, 5, 9, 37, 64, 65] {
            for n in [1, 15, 16, 17, 31, 32, 33, 96, 160, 1153] {
                for k in [1, 63, 64, 65, 256] {
                    if rows * n * k <= 1_000_000 {
                        check(rows, k, n);
                    }
                }
            }
        }
        // One product above PARALLEL_MIN_WORK, so `apply` on 2, 3 and 8
        // threads takes the threaded path at every level, over 37 panels
        // with a last one of a single column.
        const { assert!(2736 * 1153 >= PARALLEL_MIN_WORK) };
        check(2, 2736, 1153);
    }

    #[test]
    fn dot_handles_remainders() {
        // length 7 exercises the tail loop
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let b = [1.0; 7];
        assert_eq!(dot(&a, &b), 28.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, [7.0, 9.0]);
    }

    proptest::proptest! {
        #[test]
        fn matmul_associativity_with_vector(
            m in 1usize..5, k in 1usize..8, seed in 0u64..100
        ) {
            let mut s = seed.wrapping_add(1);
            let mut next = move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 40) as f32 / (1u32 << 24) as f32) - 0.5
            };
            let a = Matrix::from_fn(m, k, |_, _| next());
            let x: Vec<f32> = (0..k).map(|_| next()).collect();
            // (A·x) computed via matvec equals matmul with column vector
            let y1 = matvec(&a, &x);
            let y2 = matmul(&a, &Matrix::from_vec(k, 1, x.clone()));
            for (i, v) in y1.iter().enumerate() {
                proptest::prop_assert!((v - y2.get(i, 0)).abs() < 1e-4);
            }
        }
    }
}
