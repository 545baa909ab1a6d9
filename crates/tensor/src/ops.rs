//! BLAS-like kernels: matmul, matvec, axpy.
//!
//! The f32 GEMM ([`matmul_into`]) and [`vecmat`] run at the widest SIMD
//! level the host supports ([`crate::simd`]). Their lanes span only
//! independent outputs, the columns of `C`: every output element still
//! accumulates its `k` products one at a time, multiply then add (never
//! fused), in ascending `k`, with zero activations skipped. So every level
//! and every tile shape produces the same bits, and `matmul` row `i` equals
//! `vecmat` of row `i` of `A`.

use crate::matrix::Matrix;
use crate::simd::{self, SimdLevel};

/// Rows of `A` per register tile of the GEMM.
const TILE_ROWS: usize = 4;

/// Minimum number of multiply-accumulate terms (`rows * cols`) before
/// [`vecmat_parallel`] or [`crate::Int8Matrix::apply_parallel`] spawns
/// threads. Below this, thread spawn + join costs more than the whole
/// product (measured ~15-30 µs spawn overhead per thread vs ~10 µs for a
/// 32k-element serial vecmat); the serial path is returned instead, which is
/// bit-identical anyway.
pub const VECMAT_PARALLEL_MIN_WORK: usize = 32 * 1024;

/// `C = A · B`.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul shape mismatch: {}x{} · {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let mut c = Matrix::zeros(a.rows(), b.cols());
    matmul_into(a, b, &mut c);
    c
}

/// `C = A · B` into a caller-provided output, which is overwritten.
///
/// Each output element accumulates its `k` terms in strictly ascending
/// order with zero `a[i][k]` terms skipped, exactly as [`vecmat`] does, so
/// `matmul_into(A, B, C)` row `i` is bit-identical to `vecmat(A.row(i), B)`.
/// The multi-token transformer prefill relies on that equivalence for its
/// bitwise-parity contract with the token-at-a-time path.
///
/// # Panics
/// Panics if the shapes do not chain.
pub fn matmul_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
    assert_eq!(
        (c.rows(), c.cols()),
        (a.rows(), b.cols()),
        "output shape mismatch"
    );
    matmul_at(simd::detect(), a, b, c);
}

fn matmul_at(level: SimdLevel, a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (k, n) = (a.cols(), b.cols());
    let (a, b, c) = (a.as_slice(), b.as_slice(), c.as_mut_slice());
    match level {
        // SAFETY: an Avx512 level carries the `simd` module's proof that
        // the CPU reported avx512f.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512(_) => unsafe { x86::matmul_avx512(a, b, c, k, n) },
        // SAFETY: an Avx2 level carries the `simd` module's proof that the
        // CPU reported avx2.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2(_) => unsafe { x86::matmul_avx2(a, b, c, k, n) },
        SimdLevel::Scalar => matmul_body::<8>(a, b, c, k, n),
    }
}

/// `y = M · x` (matrix–vector product).
///
/// # Panics
/// Panics if `m.cols() != x.len()`.
pub fn matvec(m: &Matrix, x: &[f32]) -> Vec<f32> {
    let mut y = vec![0.0; m.rows()];
    matvec_into(m, x, &mut y);
    y
}

/// `y = M · x` into a caller-provided buffer.
pub fn matvec_into(m: &Matrix, x: &[f32], y: &mut [f32]) {
    assert_eq!(m.cols(), x.len(), "matvec shape mismatch");
    assert_eq!(m.rows(), y.len(), "output length mismatch");
    for (i, yi) in y.iter_mut().enumerate() {
        *yi = dot(m.row(i), x);
    }
}

/// `x^T · M` (vector–matrix product): returns a vector of length `m.cols()`.
/// Each output accumulates in ascending row order with zero `x` terms
/// skipped, the per-element order of [`matmul_into`].
pub fn vecmat(x: &[f32], m: &Matrix) -> Vec<f32> {
    assert_eq!(x.len(), m.rows(), "vecmat shape mismatch");
    let mut y = vec![0.0; m.cols()];
    vecmat_at(simd::detect(), x, m.as_slice(), m.cols(), &mut y);
    y
}

/// Columns `0..y.len()` of `x^T · B`, where `b` holds `B`'s rows `ldb`
/// apart (so a column range of a wider matrix starts at an offset into its
/// buffer).
fn vecmat_at(level: SimdLevel, x: &[f32], b: &[f32], ldb: usize, y: &mut [f32]) {
    match level {
        // SAFETY: an Avx512 level carries the `simd` module's proof that
        // the CPU reported avx512f.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512(_) => unsafe { x86::vecmat_avx512(x, b, ldb, y) },
        // SAFETY: an Avx2 level carries the `simd` module's proof that the
        // CPU reported avx2.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2(_) => unsafe { x86::vecmat_avx2(x, b, ldb, y) },
        SimdLevel::Scalar => vecmat_body(x, b, ldb, y),
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The f32 kernel bodies instantiated for AVX-512F and AVX2. Neither
    //! feature set enables fused multiply-add contraction: rustc never
    //! fuses `a * b + c`, so each instantiation rounds exactly as the
    //! baseline does.

    use super::{matmul_body, vecmat_body};

    #[target_feature(enable = "avx512f")]
    pub fn matmul_avx512(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
        matmul_body::<32>(a, b, c, k, n);
    }

    #[target_feature(enable = "avx2")]
    pub fn matmul_avx2(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
        matmul_body::<16>(a, b, c, k, n);
    }

    #[target_feature(enable = "avx512f")]
    pub fn vecmat_avx512(x: &[f32], b: &[f32], ldb: usize, y: &mut [f32]) {
        vecmat_body(x, b, ldb, y);
    }

    #[target_feature(enable = "avx2")]
    pub fn vecmat_avx2(x: &[f32], b: &[f32], ldb: usize, y: &mut [f32]) {
        vecmat_body(x, b, ldb, y);
    }
}

/// The GEMM body over row-major buffers: `a` is `m × k`, `b` is `k × n`,
/// `c` is `m × n`, with `m = c.len() / n`.
///
/// Column panels run outside row tiles, so a `k × W` panel of `B` is read
/// from memory once and then served from cache to every row tile. A
/// [`tile`] keeps `TILE_ROWS × W` accumulators in registers across all of
/// `k` and stores them once; each instantiation sets `W` to two of its
/// vectors. Rows below a whole tile, and columns beyond the last panel, run
/// as [`vecmat_body`].
#[inline(always)]
fn matmul_body<const W: usize>(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
    if n == 0 {
        return;
    }
    let m = c.len() / n;
    let tiled_rows = m - m % TILE_ROWS;
    let panel_end = n - n % W;
    for j0 in (0..panel_end).step_by(W) {
        for i0 in (0..tiled_rows).step_by(TILE_ROWS) {
            let rows = std::array::from_fn(|r| &a[(i0 + r) * k..(i0 + r + 1) * k]);
            let acc = tile::<W>(rows, &b[j0..], n);
            for (r, acc_r) in acc.iter().enumerate() {
                c[(i0 + r) * n + j0..][..W].copy_from_slice(acc_r);
            }
        }
    }
    if panel_end < n {
        for i in 0..tiled_rows {
            let y = &mut c[i * n + panel_end..(i + 1) * n];
            vecmat_body(&a[i * k..(i + 1) * k], &b[panel_end..], n, y);
        }
    }
    for i in tiled_rows..m {
        vecmat_body(&a[i * k..(i + 1) * k], b, n, &mut c[i * n..(i + 1) * n]);
    }
}

/// One register tile: `TILE_ROWS` activation rows of length `k` against
/// `W` columns of `B` (`b[kk * ldb + j]`, `j < W`), accumulated over `kk`
/// in ascending order with zero activations skipped.
#[inline(always)]
fn tile<const W: usize>(rows: [&[f32]; TILE_ROWS], b: &[f32], ldb: usize) -> [[f32; W]; TILE_ROWS] {
    let mut acc = [[0.0f32; W]; TILE_ROWS];
    let k = rows[0].len();
    let rows = rows.map(|r| &r[..k]);
    for kk in 0..k {
        let b_row: &[f32; W] = b[kk * ldb..kk * ldb + W]
            .try_into()
            .expect("slice of length W");
        for (row, acc_r) in rows.iter().zip(acc.iter_mut()) {
            let x = row[kk];
            if x == 0.0 {
                continue;
            }
            for (s, &bj) in acc_r.iter_mut().zip(b_row) {
                *s += x * bj;
            }
        }
    }
    acc
}

/// The `vecmat` body: columns `0..y.len()` of `x^T · B`, `B`'s rows `ldb`
/// apart. `y` is zeroed, then each nonzero `x[kk]` adds its scaled row of
/// `B`, in ascending `kk`, at the instantiation's full vector width. This
/// row-streaming order reads `B` front to back, which the prefetcher
/// follows when a wide matrix such as the LM head is not in cache.
#[inline(always)]
fn vecmat_body(x: &[f32], b: &[f32], ldb: usize, y: &mut [f32]) {
    y.fill(0.0);
    for (kk, &xk) in x.iter().enumerate() {
        if xk == 0.0 {
            continue;
        }
        let b_row = &b[kk * ldb..kk * ldb + y.len()];
        for (yj, &bj) in y.iter_mut().zip(b_row) {
            *yj += xk * bj;
        }
    }
}

/// `x^T · M` with the output columns split across threads.
///
/// Each thread runs the [`vecmat`] kernel on its own column range, so every
/// output element is computed by exactly one thread in the serial order and
/// the result is bit-identical to [`vecmat`]. Worth it only for wide
/// matrices (the LM head's `hidden × vocab`): products smaller than
/// [`VECMAT_PARALLEL_MIN_WORK`] terms fall back to the serial path, where
/// thread spawn cost would dominate the arithmetic.
pub fn vecmat_parallel(x: &[f32], m: &Matrix, threads: usize) -> Vec<f32> {
    assert_eq!(x.len(), m.rows(), "vecmat shape mismatch");
    let threads = threads.clamp(1, m.cols().max(1));
    if threads == 1 || m.cols() < 2 || m.rows() * m.cols() < VECMAT_PARALLEL_MIN_WORK {
        return vecmat(x, m);
    }
    let cols = m.cols();
    let chunk = cols.div_ceil(threads);
    let level = simd::detect();
    let mut y = vec![0.0f32; cols];
    std::thread::scope(|scope| {
        for (t, part) in y.chunks_mut(chunk).enumerate() {
            let b = &m.as_slice()[t * chunk..];
            scope.spawn(move || vecmat_at(level, x, b, cols, part));
        }
    });
    y
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

/// Elementwise `a * b` into `out`.
pub fn hadamard_into(a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), out.len());
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x * y;
    }
}

/// L2 norm of a vector.
pub fn l2_norm(x: &[f32]) -> f32 {
    dot(x, x).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            (0..a.cols()).map(|k| a.get(i, k) * b.get(k, j)).sum()
        })
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
        let got = vecmat(&x, &m);
        let want = matvec(&m.transposed(), &x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-6);
        }
    }

    #[test]
    fn vecmat_parallel_is_bit_identical_to_serial() {
        // 48 x 800 = 38_400 terms, above VECMAT_PARALLEL_MIN_WORK so the
        // threaded path actually runs.
        let m = Matrix::from_fn(48, 800, |r, c| ((r * 31 + c * 7) % 17) as f32 * 0.13 - 1.0);
        assert!(m.rows() * m.cols() >= VECMAT_PARALLEL_MIN_WORK);
        let x: Vec<f32> = (0..48).map(|i| ((i * 5) % 9) as f32 * 0.2 - 0.8).collect();
        let serial = vecmat(&x, &m);
        for threads in [1, 2, 3, 7, 64, 1000] {
            assert_eq!(
                vecmat_parallel(&x, &m, threads),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn vecmat_parallel_small_products_fall_back_to_serial() {
        // Below the min-work threshold results must still be bit-identical;
        // the threshold only changes *where* the product runs.
        let m = Matrix::from_fn(48, 200, |r, c| ((r * 31 + c * 7) % 17) as f32 * 0.13 - 1.0);
        assert!(m.rows() * m.cols() < VECMAT_PARALLEL_MIN_WORK);
        let x: Vec<f32> = (0..48).map(|i| ((i * 5) % 9) as f32 * 0.2 - 0.8).collect();
        assert_eq!(vecmat_parallel(&x, &m, 8), vecmat(&x, &m));
    }

    #[test]
    fn vecmat_parallel_tiny_matrix() {
        let m = Matrix::from_vec(2, 1, vec![3.0, 4.0]);
        assert_eq!(vecmat_parallel(&[1.0, 2.0], &m, 8), vec![11.0]);
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

    #[test]
    fn matmul_rows_are_bit_identical_to_vecmat() {
        // The prefill parity contract: row i of A·B must carry the exact
        // bits of vecmat(A.row(i), B), at every SIMD level the host
        // supports, and both must equal the textbook reference. The shapes
        // straddle the row tiles, column panels and strips of every level.
        // Every fifth row of B holds NaN or ±∞ weights whose activations
        // are all ±0, so the zero-skip alone keeps the outputs finite; the
        // other activations mix ±0 and subnormals into normal values.
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
        for rows in [1, 2, 3, 4, 5, 9, 64, 65] {
            for n in [1, 15, 16, 17, 33, 96, 160, 1156] {
                for k in [1, 63, 64, 65, 256] {
                    if rows * n * k > 200_000 {
                        continue;
                    }
                    let a = Matrix::from_fn(rows, k, activation);
                    let b = Matrix::from_fn(k, n, weight);
                    let want: Vec<Vec<u32>> = (0..rows)
                        .map(|i| reference_vecmat(a.row(i), &b))
                        .inspect(|r| assert!(r.iter().all(|v| v.is_finite())))
                        .map(|r| bits(&r))
                        .collect();
                    for level in simd::supported() {
                        let mut prod = Matrix::zeros(rows, n);
                        matmul_at(level, &a, &b, &mut prod);
                        for (i, want_row) in want.iter().enumerate() {
                            let mut row = vec![0.0; n];
                            vecmat_at(level, a.row(i), b.as_slice(), n, &mut row);
                            let shape = format!("{level:?} ({rows},{k},{n}) row {i}");
                            assert_eq!(&bits(prod.row(i)), want_row, "matmul {shape}");
                            assert_eq!(&bits(&row), want_row, "vecmat {shape}");
                        }
                    }
                }
            }
        }
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

    #[test]
    fn hadamard() {
        let mut out = vec![0.0; 3];
        hadamard_into(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &mut out);
        assert_eq!(out, [4.0, 10.0, 18.0]);
    }

    #[test]
    fn l2() {
        assert_eq!(l2_norm(&[3.0, 4.0]), 5.0);
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
