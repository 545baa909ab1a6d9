//! Int8 weight storage and exact-integer GEMM kernels.
//!
//! ## Representation
//!
//! [`Int8Matrix`] stores a logical `in × out` projection (same orientation as
//! the f32 [`Matrix`] weights, where `y = x^T · W`) as packed *output panels*
//! of 16 output channels, walked in input pairs: element
//! `((panel · pairs + p) · 16 + jj) · 2 + e` of the payload holds the
//! quantized weight of input `2p + e` into output `16 · panel + jj`, with
//! `pairs = ⌈in / 2⌉`. Entries past `in` (odd `in`) and past `out` (the last
//! panel) are 0. Each output `j` carries one scale
//! `s_j = max_k |W[k][j]| / 127` picked by the calibration constructor
//! ([`Int8Matrix::calibrate`]); activations are quantized dynamically per
//! token with a single symmetric scale `s_x = max_k |x[k]| / 127`.
//!
//! ## Why this is bitwise-reproducible
//!
//! Every inner product is accumulated in `i32` over products of values in
//! `[-127, 127]`. Integer addition is associative *and* exact here:
//! `|acc| ≤ K · 127² < 2^31` for any `K ≤ 133 000`, far above every
//! projection in this engine, so the accumulator never saturates or rounds —
//! which means **any** reduction order or tile shape produces the same
//! integer. The only floating-point operations after it are the rescale
//! `acc as f32 * (s_x * s_j)`, two roundings per output, and the activation
//! quantizer runs the same f32 operations lane by lane at every level. So
//! every level, tile shape and thread split is bit-identical by
//! construction: `(seed, config) → logits` is a pure function for the int8
//! path exactly as it is for f32, whatever instruction set the host has.
//!
//! ## Why this is fast
//!
//! Every projection of this engine's shapes fits in L2, so the GEMM is bound
//! by the instructions it issues, not by the weight bytes it streams. Its
//! lanes span output channels: per input pair it sign-extends one 32-byte
//! panel row, broadcasts the activation pair `(a[2p], a[2p+1])` as one
//! 32-bit value, and `pmaddwd` adds both products into each output's own
//! `i32` lane, so no horizontal reduction is left anywhere. Where the host
//! reports VNNI ([`crate::simd::Detected::vnni`]), one `vpdpwssd` replaces
//! the `pmaddwd` and the `paddd` that adds it to the accumulator, with the
//! same integers. A register tile
//! of activation rows × panels reuses each weight row across rows and each
//! broadcast across panels. Each call quantizes its activation rows once, at
//! the host's SIMD level, into an `i16` buffer the tiles read.

use crate::linear::Linear;
use crate::matrix::Matrix;
use crate::simd::{self, SimdLevel};

/// Output channels per weight panel: one AVX-512 vector of `i32` lanes.
const PANEL: usize = 16;

/// Minimum multiply-accumulate terms (`in × out`) before
/// [`Int8Matrix::apply_parallel`] runs on more than one thread; smaller
/// products run serially, with the same bits. Timed as `apply` against
/// `apply_parallel(x, 2)` like the f32 kernel's threshold (three runs on a
/// 2-vCPU guest with VNNI): two threads lost up to 3 Mi terms (96–384 ×
/// 8192: ×0.26–×0.95), tied at 4 Mi (512 × 8192: ×0.98–×1.03) and won from
/// 6 Mi (768 × 8192: ×1.12–×1.15; 1024 × 8192: ×1.13–×1.19). The int8 GEMM
/// is about four times faster per term, so a thread pays off later.
const PARALLEL_MIN_WORK: usize = 6 << 20;

/// Bytes per panel row: [`PANEL`] outputs × one input pair.
const PANEL_ROW: usize = 2 * PANEL;

/// `1.5 · 2^23`: for `|y| < 2^22`, `(y + MAGIC) - MAGIC` rounds `y` to the
/// nearest integer, ties to even, under the default rounding mode.
const MAGIC: f32 = 12_582_912.0;

/// One value of the int8 quantizer, for weights and activations alike:
/// `v / scale` given `inv = 1 / scale`, rounded ties-to-even and clamped to
/// ±127; NaN gives 0, as `as` does. The magic-number round is chosen over
/// `f32::round` (ties away from zero) because it is two adds at every SIMD
/// level, no libm call.
#[inline(always)]
fn quantize_value(v: f32, inv: f32) -> i16 {
    ((v * inv + MAGIC) - MAGIC).clamp(-127.0, 127.0) as i16
}

/// The symmetric scale for values up to `max_abs`: `max_abs / 127`, or 1
/// for an all-zero (or empty) input, whose product is then exactly zero.
#[inline(always)]
fn scale_of(max_abs: f32) -> f32 {
    if max_abs > 0.0 {
        max_abs / 127.0
    } else {
        1.0
    }
}

/// Quantize one activation row symmetrically into `out` (`x.len()` values)
/// and return its scale `s_x`, so that `x[k] ≈ out[k] as f32 * s_x`.
///
/// The baseline instantiation of the activation quantizer, and the
/// reference every SIMD level reproduces bit for bit.
#[inline(always)]
fn quantize_row_into(x: &[f32], out: &mut [i16]) -> f32 {
    debug_assert_eq!(x.len(), out.len());
    let scale = scale_of(x.iter().fold(0.0f32, |m, v| m.max(v.abs())));
    let inv = 1.0 / scale;
    for (dst, &v) in out.iter_mut().zip(x) {
        *dst = quantize_value(v, inv);
    }
    scale
}

/// [`quantize_row_into`] at `level`.
fn quantize_at(level: SimdLevel, x: &[f32], out: &mut [i16]) -> f32 {
    match level {
        // SAFETY: an Avx512 level carries the `simd` module's proof that
        // the CPU reported avx512f.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512(_) => unsafe { x86::quantize_avx512(x, out) },
        // SAFETY: an Avx2 level carries the `simd` module's proof that the
        // CPU reported avx2.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2(_) => unsafe { x86::quantize_avx2(x, out) },
        SimdLevel::Scalar => quantize_row_into(x, out),
    }
}

/// One panel's [`PANEL`] `i32` accumulators at one SIMD level.
///
/// # Safety
/// An implementor is exactly [`PANEL`] `i32` lanes, output `jj` in lane
/// `jj`: [`tile`] zeroes it with `mem::zeroed` and reads it back with
/// `mem::transmute_copy`.
unsafe trait PanelAcc: Copy {
    /// `self` plus, in lane `jj`, `w[2jj] · a[0] + w[2jj + 1] · a[1]`, where
    /// `pair` is [`pair_bits`] of `a`.
    ///
    /// # Safety
    /// The CPU supports the implementor's level: call it only inside that
    /// level's instantiation of [`gemm_body`].
    unsafe fn madd(self, w: &[i8; PANEL_ROW], pair: i32) -> Self;
}

/// The portable accumulators: the baseline on targets other than x86-64.
#[cfg(not(target_arch = "x86_64"))]
type Baseline = [i32; PANEL];

// SAFETY: `[i32; PANEL]` is the lane layout itself.
unsafe impl PanelAcc for [i32; PANEL] {
    #[inline(always)]
    unsafe fn madd(mut self, w: &[i8; PANEL_ROW], pair: i32) -> Self {
        let a = [pair as i16, (pair >> 16) as i16].map(i32::from);
        for (acc, w) in self.iter_mut().zip(w.as_chunks::<2>().0) {
            *acc += i32::from(w[0]) * a[0] + i32::from(w[1]) * a[1];
        }
        self
    }
}

/// An activation pair as one 32-bit lane: `a[0]` in the low half, where
/// `pmaddwd` multiplies it by the even input's weight, `a[1]` in the high.
#[inline(always)]
fn pair_bits(a: [i16; 2]) -> i32 {
    i32::from(a[0] as u16) | (i32::from(a[1]) << 16)
}

/// One register tile: activation rows `a` (input pairs) against panels `w`
/// (one 32-byte row per input pair), accumulated over every pair. The
/// compiler merges the repeated pure loads, sign-extensions and broadcasts,
/// so each panel row is read once for all `R` rows and each pair broadcast
/// once for all `P` panels.
///
/// # Safety
/// The CPU supports `V`'s level.
#[inline(always)]
unsafe fn tile<V: PanelAcc, const R: usize, const P: usize>(
    a: [&[[i16; 2]]; R],
    w: [&[[i8; PANEL_ROW]]; P],
) -> [[[i32; PANEL]; P]; R] {
    let pairs = w[0].len();
    let a = a.map(|row| &row[..pairs]);
    let w = w.map(|panel| &panel[..pairs]);
    // SAFETY: all-zero lanes are valid `i32`s (`PanelAcc`'s contract).
    let mut acc: [[V; P]; R] = std::mem::zeroed();
    for p in 0..pairs {
        for (acc_r, a_r) in acc.iter_mut().zip(&a) {
            let pair = pair_bits(a_r[p]);
            for (s, w_q) in acc_r.iter_mut().zip(&w) {
                *s = s.madd(&w_q[p], pair);
            }
        }
    }
    // SAFETY: `V` is `PANEL` `i32` lanes in output order (`PanelAcc`'s
    // contract).
    acc.map(|acc_r| acc_r.map(|s| std::mem::transmute_copy(&s)))
}

/// The GEMM body over staged activations. `a` holds `sxs.len()` rows of
/// `2 · pairs` quantized values and `out` as many rows of
/// `width = out.len() / sxs.len()` outputs, for output columns
/// `j0..j0 + width` of `m` (`j0` a multiple of [`PANEL`]). Panels run in
/// groups of `P` outside tiles of `R` rows; leftover panels run one at a
/// time.
///
/// # Safety
/// The CPU supports `V`'s level.
#[inline(always)]
unsafe fn gemm_body<V: PanelAcc, const R: usize, const P: usize>(
    m: &Int8Matrix,
    a: &[i16],
    sxs: &[f32],
    j0: usize,
    out: &mut [f32],
) {
    let Some(width) = out.len().checked_div(sxs.len()) else {
        return;
    };
    let pairs = m.pairs();
    let panels = m.data.as_chunks::<PANEL_ROW>().0;
    let panel = |q: usize| &panels[(j0 / PANEL + q) * pairs..][..pairs];
    let scales = &m.scales[j0..j0 + width];
    let count = width.div_ceil(PANEL);
    let full = count - count % P;
    for q in (0..full).step_by(P) {
        let w = std::array::from_fn(|p| panel(q + p));
        sweep::<V, R, P>(w, a, sxs, scales, q * PANEL, out);
    }
    for q in full..count {
        sweep::<V, R, 1>([panel(q)], a, sxs, scales, q * PANEL, out);
    }
}

/// Every activation row of [`gemm_body`] against panels `w`, whose first
/// output column is `c0`: tiles of `R` rows, then leftover rows one at a time.
///
/// # Safety
/// The CPU supports `V`'s level.
#[inline(always)]
unsafe fn sweep<V: PanelAcc, const R: usize, const P: usize>(
    w: [&[[i8; PANEL_ROW]]; P],
    a: &[i16],
    sxs: &[f32],
    scales: &[f32],
    c0: usize,
    out: &mut [f32],
) {
    let (n, width, stride) = (sxs.len(), scales.len(), 2 * w[0].len());
    let row = |i: usize| a[i * stride..][..stride].as_chunks::<2>().0;
    let full = n - n % R;
    for i in (0..full).step_by(R) {
        let sums = tile::<V, R, P>(std::array::from_fn(|r| row(i + r)), w);
        rescale(&sums, &sxs[i..], scales, c0, &mut out[i * width..]);
    }
    for i in full..n {
        let sums = tile::<V, 1, P>([row(i)], w);
        rescale(&sums, &sxs[i..], scales, c0, &mut out[i * width..]);
    }
}

/// Rescale a tile's sums: row `r` lands in `out[r · width..]` from column
/// `c0`, where `width = scales.len()`, as `acc as f32 * (s_x · s_j)` per
/// output. Only the columns the call owns are written, so the partial last
/// panel stops at its edge.
#[inline(always)]
fn rescale<const P: usize>(
    sums: &[[[i32; PANEL]; P]],
    sxs: &[f32],
    scales: &[f32],
    c0: usize,
    out: &mut [f32],
) {
    let width = scales.len();
    for ((sums_r, &sx), orow) in sums.iter().zip(sxs).zip(out.chunks_mut(width)) {
        for (q, s) in sums_r.iter().enumerate() {
            let c = c0 + q * PANEL;
            let cols = PANEL.min(width - c);
            let dst = orow[c..c + cols].iter_mut();
            for ((y, &acc), &sj) in dst.zip(s).zip(&scales[c..c + cols]) {
                *y = acc as f32 * (sx * sj);
            }
        }
    }
}

/// [`gemm_body`] at `level`.
fn gemm_at(level: SimdLevel, m: &Int8Matrix, a: &[i16], sxs: &[f32], j0: usize, out: &mut [f32]) {
    match level {
        // SAFETY: an Avx512 level carries the `simd` module's proof that
        // the CPU reported avx512f and avx512bw, and with VNNI avx512vnni
        // too.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512(d) if d.vnni() => unsafe { x86::gemm_avx512_vnni(m, a, sxs, j0, out) },
        // SAFETY: as above, without VNNI.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512(_) => unsafe { x86::gemm_avx512(m, a, sxs, j0, out) },
        // SAFETY: an Avx2 level carries the `simd` module's proof that the
        // CPU reported avx2, and with VNNI avxvnni too.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2(d) if d.vnni() => unsafe { x86::gemm_avx2_vnni(m, a, sxs, j0, out) },
        // SAFETY: as above, without VNNI.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2(_) => unsafe { x86::gemm_avx2(m, a, sxs, j0, out) },
        // SAFETY: the baseline accumulators use only the target's baseline
        // instructions (SSE2 on x86-64).
        SimdLevel::Scalar => unsafe { gemm_body::<Baseline, 2, 1>(m, a, sxs, j0, out) },
    }
}

#[cfg(target_arch = "x86_64")]
use x86::Baseline;

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX-512BW, AVX2 and SSE2 accumulators of the GEMM, their VNNI
    //! forms, and the AVX-512F and AVX2 activation quantizers. Nothing here
    //! uses AVX-512VL, which the `simd` module's detection does not cover.

    use std::arch::x86_64::*;

    use super::{gemm_body, quantize_value, scale_of, Int8Matrix, PanelAcc, MAGIC, PANEL_ROW};

    // SAFETY: one zmm is 16 `i32` lanes, lane `jj` in memory order.
    unsafe impl PanelAcc for __m512i {
        /// One `vpmovsxbw` sign-extends the whole panel row.
        #[inline(always)]
        unsafe fn madd(self, w: &[i8; PANEL_ROW], pair: i32) -> Self {
            let w = _mm512_cvtepi8_epi16(_mm256_loadu_si256(w.as_ptr().cast()));
            _mm512_add_epi32(self, _mm512_madd_epi16(w, _mm512_set1_epi32(pair)))
        }
    }

    /// The AVX-512 VNNI accumulators: `vpdpwssd` adds both products of
    /// each lane to it in one instruction. The sums are exact, so they are
    /// the integers `pmaddwd` + `paddd` produce.
    #[derive(Clone, Copy)]
    #[repr(transparent)]
    pub struct Vnni512(__m512i);

    // SAFETY: one zmm is 16 `i32` lanes, lane `jj` in memory order.
    unsafe impl PanelAcc for Vnni512 {
        #[inline(always)]
        unsafe fn madd(self, w: &[i8; PANEL_ROW], pair: i32) -> Self {
            let w = _mm512_cvtepi8_epi16(_mm256_loadu_si256(w.as_ptr().cast()));
            Self(_mm512_dpwssd_epi32(self.0, w, _mm512_set1_epi32(pair)))
        }
    }

    // SAFETY: two ymm are 16 `i32` lanes, outputs 0–7 then 8–15.
    unsafe impl PanelAcc for [__m256i; 2] {
        /// Each ymm takes one 16-byte half of the panel row.
        #[inline(always)]
        unsafe fn madd(self, w: &[i8; PANEL_ROW], pair: i32) -> Self {
            [0, 1].map(|h| {
                let w = _mm256_cvtepi8_epi16(_mm_loadu_si128(w[16 * h..].as_ptr().cast()));
                _mm256_add_epi32(self[h], _mm256_madd_epi16(w, _mm256_set1_epi32(pair)))
            })
        }
    }

    /// The AVX-VNNI accumulators: the VEX `vpdpwssd` on each ymm half of
    /// the `[__m256i; 2]` layout.
    #[derive(Clone, Copy)]
    #[repr(transparent)]
    pub struct Vnni256([__m256i; 2]);

    // SAFETY: two ymm are 16 `i32` lanes, outputs 0–7 then 8–15.
    unsafe impl PanelAcc for Vnni256 {
        #[inline(always)]
        unsafe fn madd(self, w: &[i8; PANEL_ROW], pair: i32) -> Self {
            Self([0, 1].map(|h| {
                let w = _mm256_cvtepi8_epi16(_mm_loadu_si128(w[16 * h..].as_ptr().cast()));
                _mm256_dpwssd_avx_epi32(self.0[h], w, _mm256_set1_epi32(pair))
            }))
        }
    }

    /// The x86-64 baseline's accumulators, in place of the portable ones,
    /// which compile to emulated 32-bit multiplies at SSE2.
    pub type Baseline = [__m128i; 4];

    // SAFETY: four xmm are 16 `i32` lanes, outputs 0–3, 4–7, 8–11, 12–15.
    unsafe impl PanelAcc for Baseline {
        /// SSE2 has no byte sign-extension, so each byte is unpacked into
        /// both halves of an `i16` lane and shifted down arithmetically.
        #[inline(always)]
        unsafe fn madd(self, w: &[i8; PANEL_ROW], pair: i32) -> Self {
            let halves = [0, 16].map(|h| _mm_loadu_si128(w[h..].as_ptr().cast()));
            let w = halves.map(|b| [_mm_unpacklo_epi8(b, b), _mm_unpackhi_epi8(b, b)]);
            [0, 1, 2, 3].map(|i| {
                let w = _mm_srai_epi16::<8>(w[i / 2][i % 2]);
                _mm_add_epi32(self[i], _mm_madd_epi16(w, _mm_set1_epi32(pair)))
            })
        }
    }

    #[target_feature(enable = "avx512f,avx512bw")]
    pub fn gemm_avx512(m: &Int8Matrix, a: &[i16], sxs: &[f32], j0: usize, out: &mut [f32]) {
        // SAFETY: this instantiation enables avx512f and avx512bw, every
        // instruction the `__m512i` accumulators use.
        unsafe { gemm_body::<__m512i, 4, 4>(m, a, sxs, j0, out) }
    }

    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub fn gemm_avx512_vnni(m: &Int8Matrix, a: &[i16], sxs: &[f32], j0: usize, out: &mut [f32]) {
        // SAFETY: this instantiation enables avx512f, avx512bw and
        // avx512vnni, every instruction the `Vnni512` accumulators use.
        unsafe { gemm_body::<Vnni512, 4, 4>(m, a, sxs, j0, out) }
    }

    #[target_feature(enable = "avx2")]
    pub fn gemm_avx2(m: &Int8Matrix, a: &[i16], sxs: &[f32], j0: usize, out: &mut [f32]) {
        // SAFETY: this instantiation enables avx2, every instruction the
        // `[__m256i; 2]` accumulators use.
        unsafe { gemm_body::<[__m256i; 2], 4, 1>(m, a, sxs, j0, out) }
    }

    #[target_feature(enable = "avx2,avxvnni")]
    pub fn gemm_avx2_vnni(m: &Int8Matrix, a: &[i16], sxs: &[f32], j0: usize, out: &mut [f32]) {
        // SAFETY: this instantiation enables avx2 and avxvnni, every
        // instruction the `Vnni256` accumulators use.
        unsafe { gemm_body::<Vnni256, 4, 1>(m, a, sxs, j0, out) }
    }

    /// The activation quantizer at AVX-512F, 16 lanes per step. The lane max
    /// puts the running max second, so a NaN element leaves it unchanged as
    /// `f32::max` does; max is exact, so lane order cannot change it. Each
    /// lane then runs the reference's multiply, magic-number round and
    /// clamp, and NaN lanes convert to 0 as `as i16` does. The last partial
    /// group runs the reference's scalar code.
    #[target_feature(enable = "avx512f")]
    pub fn quantize_avx512(x: &[f32], out: &mut [i16]) -> f32 {
        assert_eq!(x.len(), out.len(), "quantizer length mismatch");
        let (groups, rest) = x.as_chunks::<16>();
        let (dst, dst_rest) = out.as_chunks_mut::<16>();
        // SAFETY: `g` holds 16 floats.
        let load = |g: &[f32; 16]| unsafe { _mm512_loadu_ps(g.as_ptr()) };
        let mut lanes = _mm512_setzero_ps();
        for g in groups {
            lanes = _mm512_max_ps(_mm512_abs_ps(load(g)), lanes);
        }
        let max_abs = rest
            .iter()
            .fold(_mm512_reduce_max_ps(lanes), |m, v| m.max(v.abs()));
        let scale = scale_of(max_abs);
        let inv = 1.0 / scale;
        let (vinv, magic) = (_mm512_set1_ps(inv), _mm512_set1_ps(MAGIC));
        let (lo, hi) = (_mm512_set1_ps(-127.0), _mm512_set1_ps(127.0));
        for (g, d) in groups.iter().zip(dst) {
            let y = _mm512_mul_ps(load(g), vinv);
            let r = _mm512_sub_ps(_mm512_add_ps(y, magic), magic);
            let c = _mm512_max_ps(lo, _mm512_min_ps(hi, r));
            let q = _mm512_maskz_cvttps_epi32(_mm512_cmp_ps_mask::<_CMP_ORD_Q>(y, y), c);
            // SAFETY: writes the 16 values of `d`.
            unsafe { _mm256_storeu_si256(d.as_mut_ptr().cast(), _mm512_cvtepi32_epi16(q)) };
        }
        for (d, &v) in dst_rest.iter_mut().zip(rest) {
            *d = quantize_value(v, inv);
        }
        scale
    }

    /// The activation quantizer at AVX2, 8 lanes per step, with the lane
    /// max and the NaN rule of [`quantize_avx512`]. The last partial group
    /// runs the reference's scalar code.
    #[target_feature(enable = "avx2")]
    pub fn quantize_avx2(x: &[f32], out: &mut [i16]) -> f32 {
        assert_eq!(x.len(), out.len(), "quantizer length mismatch");
        let (groups, rest) = x.as_chunks::<8>();
        let (dst, dst_rest) = out.as_chunks_mut::<8>();
        // SAFETY: `g` holds 8 floats.
        let load = |g: &[f32; 8]| unsafe { _mm256_loadu_ps(g.as_ptr()) };
        let abs = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        let mut lanes = _mm256_setzero_ps();
        for g in groups {
            lanes = _mm256_max_ps(_mm256_and_ps(load(g), abs), lanes);
        }
        // SAFETY: `__m256` is eight f32 lanes, 32 bytes like `[f32; 8]`.
        let lanes = unsafe { std::mem::transmute::<__m256, [f32; 8]>(lanes) };
        let max_abs = lanes.iter().chain(rest).fold(0.0f32, |m, v| m.max(v.abs()));
        let scale = scale_of(max_abs);
        let inv = 1.0 / scale;
        let (vinv, magic) = (_mm256_set1_ps(inv), _mm256_set1_ps(MAGIC));
        let (lo, hi) = (_mm256_set1_ps(-127.0), _mm256_set1_ps(127.0));
        for (g, d) in groups.iter().zip(dst) {
            let y = _mm256_mul_ps(load(g), vinv);
            let r = _mm256_sub_ps(_mm256_add_ps(y, magic), magic);
            let c = _mm256_max_ps(lo, _mm256_min_ps(hi, r));
            let q = _mm256_cvttps_epi32(_mm256_and_ps(c, _mm256_cmp_ps::<_CMP_ORD_Q>(y, y)));
            let q = _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256::<1>(q));
            // SAFETY: writes the 8 values of `d`.
            unsafe { _mm_storeu_si128(d.as_mut_ptr().cast(), q) };
        }
        for (d, &v) in dst_rest.iter_mut().zip(rest) {
            *d = quantize_value(v, inv);
        }
        scale
    }
}

/// An `in × out` projection stored as int8 with per-output-channel scales.
///
/// See the module docs for the layout and the exactness argument. The
/// [`Linear`] impl guarantees `apply_block` row `i` is bit-identical to
/// `apply` of that row, and [`Int8Matrix::apply_parallel`] is bit-identical
/// to both for any thread count.
#[derive(Clone, Debug, PartialEq)]
pub struct Int8Matrix {
    in_features: usize,
    out_features: usize,
    /// `⌈out / 16⌉` panels of `⌈in / 2⌉` rows of 32 bytes, zero-padded (see
    /// the module docs).
    data: Vec<i8>,
    /// Per-output weight scales, `len == out_features`.
    scales: Vec<f32>,
}

impl Int8Matrix {
    /// Calibration pass: pick per-output scales from the f32 weights and
    /// quantize. `w` is the logical `in × out` matrix (the orientation
    /// [`crate::PackedMatrix::pack`] takes).
    pub fn calibrate(w: &Matrix) -> Self {
        let (in_features, out_features) = (w.rows(), w.cols());
        let scales: Vec<f32> = (0..out_features)
            .map(|j| scale_of((0..in_features).fold(0.0f32, |m, k| m.max(w.get(k, j).abs()))))
            .collect();
        let inv: Vec<f32> = scales.iter().map(|s| 1.0 / s).collect();
        let payload = out_features.div_ceil(PANEL) * in_features.div_ceil(2) * PANEL_ROW;
        let mut q = Self {
            in_features,
            out_features,
            data: vec![0; payload],
            scales,
        };
        for k in 0..in_features {
            for (j, (&v, &inv)) in w.row(k).iter().zip(&inv).enumerate() {
                let at = q.index(k, j);
                q.data[at] = quantize_value(v, inv) as i8;
            }
        }
        q
    }

    pub fn in_features(&self) -> usize {
        self.in_features
    }

    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Per-output weight scales chosen by calibration.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Largest per-output scale — a summary statistic the calibration report
    /// in `quant_sweep` surfaces per projection.
    pub fn max_scale(&self) -> f32 {
        self.scales.iter().fold(0.0f32, |m, &s| m.max(s))
    }

    /// Actual storage footprint: the padded i8 payload plus the f32 scales.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<i8>() + self.scales.len() * std::mem::size_of::<f32>()
    }

    /// Reconstruct the f32 `in × out` matrix (`W[k][j] = q[k][j] · s_j`).
    /// Elementwise error versus the calibrated source is at most `s_j / 2`.
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_fn(self.in_features, self.out_features, |k, j| {
            f32::from(self.data[self.index(k, j)]) * self.scales[j]
        })
    }

    /// Input pairs per panel: `⌈in / 2⌉`.
    fn pairs(&self) -> usize {
        self.in_features.div_ceil(2)
    }

    /// Payload position of the weight of input `k` into output `j`.
    fn index(&self, k: usize, j: usize) -> usize {
        (((j / PANEL) * self.pairs() + k / 2) * PANEL + j % PANEL) * 2 + k % 2
    }

    /// Quantize `rows` for the GEMM at `level`: row `i` lands at
    /// `2 · pairs · i` in the returned buffer, zero-padded to an even length,
    /// with its scale at `i` in the returned scales.
    fn stage<'x>(
        &self,
        level: SimdLevel,
        rows: impl ExactSizeIterator<Item = &'x [f32]>,
    ) -> (Vec<i16>, Vec<f32>) {
        let stride = 2 * self.pairs();
        let mut a = vec![0i16; rows.len() * stride];
        let sxs = rows
            .enumerate()
            .map(|(i, x)| quantize_at(level, x, &mut a[i * stride..][..x.len()]))
            .collect();
        (a, sxs)
    }

    /// `apply` with an explicit thread count, bit-identical to [`Linear::apply`]
    /// for any `threads`: each thread owns whole panels, so every output is
    /// computed by exactly one thread with the same exact-integer reduction.
    /// Used for the wide lm_head; products below a measured work threshold
    /// (6 Mi multiply-adds, `in × out`) run on the calling thread.
    ///
    /// # Panics
    /// Panics if `x.len() != in_features`.
    pub fn apply_parallel(&self, x: &[f32], threads: usize) -> Vec<f32> {
        self.parallel_at(simd::detect(), x, threads)
    }

    /// [`Int8Matrix::apply_parallel`] at `level`.
    fn parallel_at(&self, level: SimdLevel, x: &[f32], threads: usize) -> Vec<f32> {
        self.check_in(x.len());
        let (a, sxs) = self.stage(level, std::iter::once(x));
        let mut out = vec![0.0f32; self.out_features];
        let panels = self.out_features.div_ceil(PANEL);
        let threads = threads.clamp(1, panels.max(1));
        if threads < 2 || self.in_features * self.out_features < PARALLEL_MIN_WORK {
            gemm_at(level, self, &a, &sxs, 0, &mut out);
            return out;
        }
        let chunk = panels.div_ceil(threads) * PANEL;
        std::thread::scope(|scope| {
            for (t, part) in out.chunks_mut(chunk).enumerate() {
                let (a, sxs) = (&a, &sxs);
                scope.spawn(move || gemm_at(level, self, a, sxs, t * chunk, part));
            }
        });
        out
    }

    fn check_in(&self, len: usize) {
        assert_eq!(
            len, self.in_features,
            "activation length {len} must equal in_features {}",
            self.in_features
        );
    }
}

impl Linear for Int8Matrix {
    fn in_features(&self) -> usize {
        self.in_features
    }

    fn out_features(&self) -> usize {
        self.out_features
    }

    /// The one-thread case of [`Int8Matrix::apply_parallel`].
    ///
    /// # Panics
    /// Panics if `x.len() != in_features`.
    fn apply(&self, x: &[f32]) -> Vec<f32> {
        self.apply_parallel(x, 1)
    }

    /// # Panics
    /// Panics if `xs.cols() != in_features`.
    fn apply_block(&self, xs: &Matrix) -> Matrix {
        self.check_in(xs.cols());
        let level = simd::detect();
        let (a, sxs) = self.stage(level, (0..xs.rows()).map(|i| xs.row(i)));
        let mut out = Matrix::zeros(xs.rows(), self.out_features);
        gemm_at(level, self, &a, &sxs, 0, out.as_mut_slice());
        out
    }

    fn apply_parallel(&self, x: &[f32], threads: usize) -> Vec<f32> {
        Int8Matrix::apply_parallel(self, x, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::PackedMatrix;

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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Textbook int8 GEMM over unpacked weights: calibrate each output
    /// column, quantize each activation row with the reference quantizer,
    /// sum every product in one `i32` per output, then rescale once.
    fn textbook_gemm(w: &Matrix, xs: &Matrix) -> Vec<f32> {
        let (k, n) = (w.rows(), w.cols());
        let scales: Vec<f32> = (0..n)
            .map(|j| {
                let m = (0..k).fold(0.0f32, |m, kk| m.max(w.get(kk, j).abs()));
                if m > 0.0 {
                    m / 127.0
                } else {
                    1.0
                }
            })
            .collect();
        let qw: Vec<Vec<i32>> = (0..n)
            .map(|j| {
                let inv = 1.0 / scales[j];
                (0..k)
                    .map(|kk| (w.get(kk, j) * inv).round_ties_even().clamp(-127.0, 127.0) as i32)
                    .collect()
            })
            .collect();
        let mut out = Vec::with_capacity(xs.rows() * n);
        for i in 0..xs.rows() {
            let mut qx = vec![0i16; k];
            let sx = quantize_row_into(xs.row(i), &mut qx);
            for (j, qw_j) in qw.iter().enumerate() {
                let acc: i32 = qx.iter().zip(qw_j).map(|(&a, &b)| i32::from(a) * b).sum();
                out.push(acc as f32 * (sx * scales[j]));
            }
        }
        out
    }

    #[test]
    fn calibrate_dequantize_error_bounded_by_half_scale() {
        // 33 x 17 leaves an odd input and a one-column last panel padded.
        for (rows, cols) in [(48, 32), (33, 17)] {
            let w = pseudo_matrix(rows, cols, 3);
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
    }

    #[test]
    fn apply_tracks_f32_vecmat() {
        let w = pseudo_matrix(64, 48, 11);
        let q = Int8Matrix::calibrate(&w);
        let x = pseudo_vec(64, 5);
        let exact = PackedMatrix::pack(&w).apply(&x);
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
        // Sizes straddle the panel and row-tile boundaries, so full and
        // leftover tiles and the partial last panel are all exercised.
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
    fn every_level_matches_the_textbook_gemm() {
        // Each instantiation at every level the host supports, on shapes
        // straddling input pairs, panels, the level tiles and a partial
        // last panel, against the textbook GEMM bit for bit. Outputs start
        // as NaN, so a lane the kernel misses, or a write past a row's edge
        // into the next row, fails. Products above 500 000 terms are
        // skipped to keep the debug-build run short.
        let ins = [1, 2, 3, 7, 31, 32, 33, 63, 64, 96, 160, 256, 257];
        let outs = [1, 15, 16, 17, 33, 64, 70, 160, 1322];
        let rows = [1, 2, 3, 4, 5, 9, 37, 64];
        for k in ins {
            for n in outs {
                let w = pseudo_matrix(k, n, (k * 31 + n) as u64);
                let q = Int8Matrix::calibrate(&w);
                for m in rows {
                    if k * n * m > 500_000 {
                        continue;
                    }
                    let xs = pseudo_matrix(m, k, (k + n * 7 + m) as u64);
                    let want = bits(&textbook_gemm(&w, &xs));
                    for level in simd::supported() {
                        let (a, sxs) = q.stage(level, (0..m).map(|i| xs.row(i)));
                        let mut out = vec![f32::NAN; m * n];
                        gemm_at(level, &q, &a, &sxs, 0, &mut out);
                        assert_eq!(bits(&out), want, "{level:?} in={k} out={n} rows={m}");
                        if level == SimdLevel::Scalar {
                            // The portable accumulators, which other targets
                            // run as their baseline.
                            let mut out = vec![f32::NAN; m * n];
                            // SAFETY: they use no target-specific
                            // instruction.
                            unsafe { gemm_body::<[i32; PANEL], 2, 1>(&q, &a, &sxs, 0, &mut out) };
                            assert_eq!(bits(&out), want, "portable in={k} out={n} rows={m}");
                        }
                        // A call that owns columns from the second panel on,
                        // as one `apply_parallel` thread does.
                        if n > PANEL {
                            let width = n - PANEL;
                            let mut part = vec![f32::NAN; m * width];
                            gemm_at(level, &q, &a, &sxs, PANEL, &mut part);
                            for (i, got) in part.chunks(width).enumerate() {
                                assert_eq!(
                                    bits(got),
                                    want[i * n + PANEL..(i + 1) * n],
                                    "{level:?} from column {PANEL}: in={k} out={n} rows={m}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_level_quantizes_like_the_reference() {
        // Rows mixing NaN, ±∞, ±0 and subnormals into normal values, an
        // all-zero row, and a row whose max is so small its scale rounds to
        // 0, at lengths straddling the 8- and 16-lane groups.
        let special = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1.0e-40,
            -3.0e-39,
        ];
        let mut rows: Vec<Vec<f32>> = Vec::new();
        for len in [0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100, 257] {
            let base = pseudo_vec(len, len as u64 + 3);
            rows.push(vec![0.0; len]);
            rows.push(base.clone());
            for (s, &v) in special.iter().enumerate() {
                let mut row = base.clone();
                for x in row.iter_mut().skip(s % 3).step_by(5) {
                    *x = v;
                }
                rows.push(row);
            }
            rows.push((0..len).map(|i| [1.0e-45, -0.0, 0.0][i % 3]).collect());
            rows.push(
                base.iter()
                    .enumerate()
                    .map(|(i, &v)| if i % 4 == 1 { f32::NAN } else { v * 1.0e-38 })
                    .collect(),
            );
        }
        for x in &rows {
            let mut want = vec![0i16; x.len()];
            let want_scale = quantize_row_into(x, &mut want);
            assert!(
                want.iter().all(|v| v.abs() <= 127),
                "{x:?} left the i8 range"
            );
            for level in simd::supported() {
                let mut got = vec![i16::MIN; x.len()];
                let scale = quantize_at(level, x, &mut got);
                assert_eq!(
                    scale.to_bits(),
                    want_scale.to_bits(),
                    "{level:?} scale of {x:?}"
                );
                assert_eq!(got, want, "{level:?} values of {x:?}");
            }
        }
    }

    #[test]
    fn parallel_bit_identical_to_serial_for_all_thread_counts() {
        // 1322 outputs (the benchmark's vocabulary) end in a partial panel,
        // and so do 65_546, whose product is above PARALLEL_MIN_WORK, so
        // the threaded path runs. Every level, VNNI and plain, on every
        // thread count, against the one-thread product at the detected
        // level.
        const { assert!(96 * 65_546 >= PARALLEL_MIN_WORK) };
        for (k, n) in [(96, 512), (96, 1322), (96, 65_546)] {
            let w = pseudo_matrix(k, n, 17);
            let q = Int8Matrix::calibrate(&w);
            let x = pseudo_vec(k, 19);
            let serial = Linear::apply(&q, &x);
            for level in simd::supported() {
                for threads in [1, 2, 3, 5, 8] {
                    assert_eq!(
                        q.parallel_at(level, &x, threads),
                        serial,
                        "{level:?} on {threads} threads changed int8 lm_head bits ({k}x{n})"
                    );
                }
            }
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
        // An odd input and a partial last panel count their zero padding:
        // 17 input pairs × 2 panels × 32 bytes.
        let padded = Int8Matrix::calibrate(&pseudo_matrix(33, 17, 29));
        assert_eq!(padded.memory_bytes(), 17 * 2 * 32 + 17 * 4);
    }

    #[test]
    fn activation_quantization_is_exact_on_small_integers() {
        let x: Vec<f32> = vec![0.0, 1.0, -3.0, 127.0, -127.0];
        let mut q = vec![0i16; x.len()];
        let s = quantize_row_into(&x, &mut q);
        for (orig, &qi) in x.iter().zip(&q) {
            assert_eq!(f32::from(qi) * s, *orig);
        }
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
            let exact = PackedMatrix::pack(&w).apply(&x);
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
