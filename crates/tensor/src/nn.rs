//! Neural-network primitives: stable softmax, RMSNorm, SwiGLU, SiLU, sigmoid.
//!
//! Every f32 `exp` here is one in-crate body ([`exp`]) built from f32 adds,
//! multiplies and integer bit operations: no fused multiply-add, no table and
//! no libm call. Softmax and the SwiGLU kernel run it at the widest SIMD level
//! the host supports ([`crate::simd`]); their lanes span independent
//! elements, and the softmax max and sum each reduce in one pinned order:
//! element `i` in lane `i % LANES`, the lanes combined in a fixed halving
//! tree. So every level, and every host libm, produces the same bits.

use crate::simd::{self, SimdLevel, LANES};

/// `e^x` in f32, within 1 ulp of the correctly rounded result over the
/// finite range. `exp(±0)` is exactly 1, `exp(−∞)` is 0, `exp(+∞)` and
/// every input above `ln(f32::MAX)` give `+∞`, and NaN gives NaN. The same
/// body runs inlined in the vectorized softmax and SwiGLU kernels.
///
/// It is the Cephes `expf` reduction and polynomial, with every operation
/// an f32 add or multiply rounded on its own, or an integer bit operation:
/// `n = round(x · log₂e)` comes from the `1.5 · 2²³` magic add (ties to
/// even, read back from the sum's low bits); `r = (x − n·ln2_hi) − n·ln2_lo`
/// with `ln2_hi` exact in 9 bits, so `n·ln2_hi` is exact; `e^r ≈ 1 + r +
/// r²·P(r)`. The result is scaled by `2^(n>>1) · 2^(n − (n>>1))`: the first
/// factor is exact, so a subnormal result or an overflow rounds once.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    const ROUND: f32 = 12_582_912.0; // 1.5 * 2^23
    const LN2_HI: f32 = 0.693_359_4; // 0.693359375 = 355/512, exact
    const LN2_LO: f32 = -2.121_944_4e-4;
    const P: [f32; 6] = [
        1.987_569_1e-4,
        1.398_199_9e-3,
        8.333_452e-3,
        4.166_579_6e-2,
        1.666_666_6e-1,
        0.5,
    ];
    // Below -104 the result rounds to 0, above 89 it overflows; NaN passes.
    let x = x.clamp(-104.0, 89.0);
    let t = x * std::f32::consts::LOG2_E + ROUND;
    let n = (t.to_bits() as i32).wrapping_sub(ROUND.to_bits() as i32);
    let nf = t - ROUND;
    let r = (x - nf * LN2_HI) - nf * LN2_LO;
    let p = ((((P[0] * r + P[1]) * r + P[2]) * r + P[3]) * r + P[4]) * r + P[5];
    let e = (p * (r * r) + r) + 1.0;
    let half = n >> 1;
    e * pow2(half) * pow2(n.wrapping_sub(half))
}

/// `2^k` for `k` in `[-126, 127]`, built from its exponent bits. Other `k`
/// arise only from a NaN input, whose NaN the product carries anyway.
#[inline(always)]
fn pow2(k: i32) -> f32 {
    f32::from_bits((k.wrapping_add(127) as u32) << 23)
}

/// The halving tree that ends every pinned-order reduction: lane `l` takes
/// `op(lane l, lane l + w)` for `w = LANES/2, …, 2, 1`; lane 0 is the result.
#[inline(always)]
fn halving_tree(mut lanes: [f32; LANES], op: impl Fn(f32, f32) -> f32) -> f32 {
    let mut w = LANES / 2;
    while w > 0 {
        let (low, high) = lanes.split_at_mut(w);
        for (a, &b) in low.iter_mut().zip(&high[..w]) {
            *a = op(*a, b);
        }
        w /= 2;
    }
    lanes[0]
}

/// The softmax max's lane operation: a compare-select, so a NaN element
/// never wins. It differs from `f32::max` only in the sign a zero max may
/// carry, which no `x - max` that follows can tell apart.
#[inline(always)]
fn lane_max(m: f32, v: f32) -> f32 {
    if v > m {
        v
    } else {
        m
    }
}

/// Numerically stable in-place softmax.
///
/// Subtracts the max before exponentiation so large logits cannot overflow,
/// then divides by the sum; when the sum is not positive (every logit −∞,
/// or a NaN among them) the result is uniform. The max and the sum reduce in
/// the pinned lane order at the host's widest SIMD level. An empty slice is
/// a no-op.
pub fn softmax_inplace(x: &mut [f32]) {
    softmax_at(simd::detect(), x);
}

fn softmax_at(level: SimdLevel, x: &mut [f32]) {
    match level {
        // SAFETY: an Avx512 level carries the `simd` module's proof that
        // the CPU reported avx512f.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512(_) => unsafe { x86::softmax_avx512(x) },
        // SAFETY: an Avx2 level carries the `simd` module's proof that the
        // CPU reported avx2.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2(_) => unsafe { x86::softmax_avx2(x) },
        SimdLevel::Scalar => softmax_body(x),
    }
}

/// The SwiGLU nonlinearity in place: `gate[i] = silu(gate[i]) · up[i]`, at
/// the host's widest SIMD level. Each element carries the bits of the
/// scalar `silu(gate[i]) * up[i]`.
///
/// # Panics
/// Panics if the lengths differ.
pub fn swiglu_inplace(gate: &mut [f32], up: &[f32]) {
    assert_eq!(gate.len(), up.len(), "swiglu length mismatch");
    swiglu_at(simd::detect(), gate, up);
}

fn swiglu_at(level: SimdLevel, gate: &mut [f32], up: &[f32]) {
    match level {
        // SAFETY: an Avx512 level carries the `simd` module's proof that
        // the CPU reported avx512f.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512(_) => unsafe { x86::swiglu_avx512(gate, up) },
        // SAFETY: an Avx2 level carries the `simd` module's proof that the
        // CPU reported avx2.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2(_) => unsafe { x86::swiglu_avx2(gate, up) },
        SimdLevel::Scalar => swiglu_body(gate, up),
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The softmax and SwiGLU bodies instantiated for AVX-512F and AVX2.
    //! Neither feature set enables fused multiply-add contraction, so each
    //! instantiation rounds exactly as the baseline does.

    use super::{softmax_body, swiglu_body};

    #[target_feature(enable = "avx512f")]
    pub fn softmax_avx512(x: &mut [f32]) {
        softmax_body(x);
    }

    #[target_feature(enable = "avx2")]
    pub fn softmax_avx2(x: &mut [f32]) {
        softmax_body(x);
    }

    #[target_feature(enable = "avx512f")]
    pub fn swiglu_avx512(gate: &mut [f32], up: &[f32]) {
        swiglu_body(gate, up);
    }

    #[target_feature(enable = "avx2")]
    pub fn swiglu_avx2(gate: &mut [f32], up: &[f32]) {
        swiglu_body(gate, up);
    }
}

/// The softmax body: the lane max, `exp(x − max)` with the lane sum, and
/// the division, over whole groups in place and a partial tail group
/// through a −∞-padded copy on the stack. Padding lanes hold `exp(−∞) = 0`,
/// and adding 0 changes no lane's sum.
///
/// The division runs over the flattened groups: a per-lane loop nested in
/// a per-group loop compiles to gathers and scatters.
#[inline(always)]
fn softmax_body(x: &mut [f32]) {
    let len = x.len();
    if len == 0 {
        return;
    }
    let (groups, rest) = x.as_chunks_mut::<LANES>();
    let mut pad = [[f32::NEG_INFINITY; LANES]];
    pad[0][..rest.len()].copy_from_slice(rest);
    let tail: &mut [[f32; LANES]] = if rest.is_empty() { &mut [] } else { &mut pad };
    let mut lanes = [f32::NEG_INFINITY; LANES];
    for part in [&*groups, &*tail] {
        for group in part {
            for (m, &v) in lanes.iter_mut().zip(group) {
                *m = lane_max(*m, v);
            }
        }
    }
    let max = halving_tree(lanes, lane_max);
    let mut lanes = [0.0f32; LANES];
    for part in [&mut *groups, &mut *tail] {
        for group in part {
            for (s, v) in lanes.iter_mut().zip(group) {
                *v = exp(*v - max);
                *s += *v;
            }
        }
    }
    let sum = halving_tree(lanes, |a, b| a + b);
    let normalized = sum > 0.0;
    if !normalized {
        x.fill(1.0 / len as f32);
        return;
    }
    for part in [groups, tail] {
        for v in part.as_flattened_mut() {
            *v /= sum;
        }
    }
    rest.copy_from_slice(&pad[0][..rest.len()]);
}

/// The SwiGLU body: one independent [`silu`] and multiply per element.
#[inline(always)]
fn swiglu_body(gate: &mut [f32], up: &[f32]) {
    for (g, &u) in gate.iter_mut().zip(up) {
        *g = silu(*g) * u;
    }
}

/// Softmax returning a new vector.
pub fn softmax(x: &[f32]) -> Vec<f32> {
    let mut out = x.to_vec();
    softmax_inplace(&mut out);
    out
}

/// RMSNorm: `x_i * g_i / sqrt(mean(x^2) + eps)` — the normalization used by
/// Llama/Qwen-family decoders.
pub fn rmsnorm(x: &[f32], gain: &[f32], eps: f32, out: &mut [f32]) {
    assert_eq!(x.len(), gain.len(), "rmsnorm gain length mismatch");
    assert_eq!(x.len(), out.len(), "rmsnorm output length mismatch");
    if x.is_empty() {
        return;
    }
    let ms = x.iter().map(|v| v * v).sum::<f32>() / x.len() as f32;
    let inv = 1.0 / (ms + eps).sqrt();
    for ((o, &xi), &gi) in out.iter_mut().zip(x).zip(gain) {
        *o = xi * inv * gi;
    }
}

/// SiLU (swish): `x * sigmoid(x)` — the activation in Llama/Qwen MLPs.
/// Bit-identical to an element of [`swiglu_inplace`] before its multiply.
#[inline(always)]
pub fn silu(x: f32) -> f32 {
    x / (1.0 + exp(-x))
}

/// Logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert_close(p.iter().sum::<f32>(), 1.0, 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_known_values() {
        let p = softmax(&[0.0, 0.0]);
        assert_close(p[0], 0.5, 1e-6);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[101.0, 102.0, 103.0]);
        for (x, y) in a.iter().zip(&b) {
            assert_close(*x, *y, 1e-6);
        }
    }

    #[test]
    fn softmax_survives_huge_logits() {
        let p = softmax(&[1e30, 1e30]);
        assert_close(p[0], 0.5, 1e-6);
        let q = softmax(&[f32::NEG_INFINITY, 0.0]);
        assert_close(q[1], 1.0, 1e-6);
    }

    #[test]
    fn softmax_all_neg_infinity_is_uniform() {
        let p = softmax(&[f32::NEG_INFINITY, f32::NEG_INFINITY]);
        assert_close(p[0], 0.5, 1e-6);
    }

    #[test]
    fn softmax_empty_ok() {
        softmax_inplace(&mut []);
    }

    #[test]
    fn rmsnorm_unit_output_scale() {
        let x = [3.0, 4.0];
        let gain = [1.0, 1.0];
        let mut out = [0.0; 2];
        rmsnorm(&x, &gain, 0.0, &mut out);
        // rms of [3,4] = sqrt(12.5)
        let rms = 12.5f32.sqrt();
        assert_close(out[0], 3.0 / rms, 1e-6);
        assert_close(out[1], 4.0 / rms, 1e-6);
    }

    #[test]
    fn rmsnorm_applies_gain() {
        let x = [1.0, 1.0];
        let gain = [2.0, 0.5];
        let mut out = [0.0; 2];
        rmsnorm(&x, &gain, 0.0, &mut out);
        assert_close(out[0] / out[1], 4.0, 1e-6);
    }

    #[test]
    fn silu_reference_points() {
        assert_close(silu(0.0), 0.0, 1e-7);
        assert_close(silu(1.0), 0.731_058, 1e-5);
        assert_close(silu(-1.0), -0.268_941, 1e-5);
    }

    #[test]
    fn sigmoid_bounds() {
        assert_close(sigmoid(0.0), 0.5, 1e-7);
        assert!(sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) < 1e-3);
    }

    /// Distance in representable values between two non-negative floats.
    fn ulps(a: f32, b: f32) -> u32 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn exp_is_within_one_ulp_and_keeps_special_values() {
        // Every 251st f32 bit pattern in [-104, 89], both signs: at most 1
        // ulp from the f64 exp rounded to f32, including the subnormal
        // results below -87.34 and the overflow to +inf above 88.72.
        let positive = (0..=89.0f32.to_bits()).step_by(251);
        let negative = (0x8000_0000..=(-104.0f32).to_bits()).step_by(251);
        for bits in positive.chain(negative) {
            let x = f32::from_bits(bits);
            let want = (x as f64).exp() as f32;
            assert!(
                ulps(exp(x), want) <= 1,
                "exp({x:e}) = {:e}, want {want:e}",
                exp(x)
            );
        }
        assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert!(exp(f32::NAN).is_nan());
        assert!(exp(-f32::NAN).is_nan());
        // Overflow edge: 88.72283 is the last input with a finite result.
        assert!(exp(88.72283).is_finite());
        assert_eq!(exp(88.72284), f32::INFINITY);
        assert_eq!(exp(1.0e30), f32::INFINITY);
        // Subnormal edge: -87.33654 is the last input with a normal result,
        // -103.97208 the last with a nonzero one.
        assert!(exp(-87.33654) >= f32::MIN_POSITIVE);
        assert!(exp(-87.33655) < f32::MIN_POSITIVE);
        assert_eq!(exp(-103.97208), f32::from_bits(1));
        assert_eq!(exp(-103.972_084).to_bits(), 0);
        assert_eq!(exp(-1.0e30).to_bits(), 0);
    }

    /// Textbook pinned-order sum: element `i` added into lane `i % 16` in
    /// ascending `i`, then lane `l` += lane `l + w` for `w = 8, 4, 2, 1`.
    fn reference_sum(values: &[f32]) -> f32 {
        let mut lanes = [0.0f32; 16];
        for (i, v) in values.iter().enumerate() {
            lanes[i % 16] += v;
        }
        for w in [8, 4, 2, 1] {
            for l in 0..w {
                lanes[l] += lanes[l + w];
            }
        }
        lanes[0]
    }

    /// Textbook softmax: scalar `exp` per element, the pinned-order sum,
    /// one division per element, uniform when the sum is not positive.
    fn reference_softmax(x: &[f32]) -> Vec<f32> {
        let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let e: Vec<f32> = x.iter().map(|&v| exp(v - max)).collect();
        let sum = reference_sum(&e);
        if sum > 0.0 {
            e.iter().map(|v| v / sum).collect()
        } else {
            vec![1.0 / x.len() as f32; x.len()]
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn kernels_match_reference_at_every_simd_level() {
        // At every SIMD level the host supports, softmax and SwiGLU must
        // equal the textbook references bit for bit. Widths straddle the
        // 16-lane groups. The rows mix -inf, ±0, subnormals, ±200 and
        // normal values; one row per width holds a NaN and one is all -inf,
        // which both take the uniform fallback. NaNs enter only through
        // `gate`, so every NaN a kernel emits has one payload.
        let mixed = |i: usize| match i % 11 {
            0 => f32::NEG_INFINITY,
            1 => 0.0,
            2 => -0.0,
            3 => 1.0e-40,
            4 => -3.0e-39,
            5 => 200.0,
            6 => -200.0,
            _ => ((i * 37) % 29) as f32 * 0.7 - 9.0,
        };
        for width in [1usize, 2, 15, 16, 17, 31, 33, 64, 95, 113, 1145] {
            let mut with_nan: Vec<f32> = (0..width).map(|i| mixed(i + 4)).collect();
            with_nan[width / 2] = f32::NAN;
            let rows = [
                (0..width).map(mixed).collect::<Vec<f32>>(),
                (0..width).map(|i| mixed(i * 3 + 7).min(0.0)).collect(),
                with_nan,
                vec![f32::NEG_INFINITY; width],
            ];
            let up: Vec<f32> = (0..width).map(|i| mixed(i * 5 + 2)).collect();
            for row in &rows {
                let want = bits(&reference_softmax(row));
                let want_swiglu: Vec<u32> = row
                    .iter()
                    .zip(&up)
                    .map(|(&g, &u)| (g / (1.0 + exp(-g)) * u).to_bits())
                    .collect();
                for level in simd::supported() {
                    let mut got = row.clone();
                    softmax_at(level, &mut got);
                    assert_eq!(bits(&got), want, "softmax {level:?} width {width}");

                    let mut gate = row.clone();
                    swiglu_at(level, &mut gate, &up);
                    assert_eq!(bits(&gate), want_swiglu, "swiglu {level:?} width {width}");
                }
                let scalar: Vec<f32> = row.iter().zip(&up).map(|(&g, &u)| silu(g) * u).collect();
                assert_eq!(bits(&scalar), want_swiglu, "scalar silu width {width}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn softmax_is_distribution(xs in proptest::collection::vec(-50f32..50.0, 1..20)) {
            let p = softmax(&xs);
            let sum: f32 = p.iter().sum();
            proptest::prop_assert!((sum - 1.0).abs() < 1e-4);
            proptest::prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }

        #[test]
        fn softmax_preserves_order(xs in proptest::collection::vec(-10f32..10.0, 2..10)) {
            let p = softmax(&xs);
            for i in 0..xs.len() {
                for j in 0..xs.len() {
                    if xs[i] > xs[j] {
                        proptest::prop_assert!(p[i] >= p[j]);
                    }
                }
            }
        }

        #[test]
        fn rmsnorm_output_rms_is_one(xs in proptest::collection::vec(-10f32..10.0, 1..16)) {
            proptest::prop_assume!(xs.iter().any(|&v| v.abs() > 1e-3));
            let gain = vec![1.0; xs.len()];
            let mut out = vec![0.0; xs.len()];
            rmsnorm(&xs, &gain, 1e-9, &mut out);
            let rms = (out.iter().map(|v| v * v).sum::<f32>() / out.len() as f32).sqrt();
            proptest::prop_assert!((rms - 1.0).abs() < 1e-3, "rms={rms}");
        }
    }
}
