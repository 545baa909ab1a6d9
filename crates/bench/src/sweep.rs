//! Inputs and timing shared by the engine sweeps (`prefill_sweep`,
//! `paged_sweep`, `quant_sweep`) and the criterion benches over the same
//! engine paths (`prefill`, `paged`, `quant`).

use std::time::Instant;

/// Deterministic pseudo-random token ids in `[0, vocab)`, keyed by `seed`.
/// Prefill operates on raw ids, so no tokenizer is needed to measure it.
pub fn tokens(seed: u64, len: usize, vocab: usize) -> Vec<u32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % vocab as u64) as u32
        })
        .collect()
}

/// Timed pairs in [`paired`]; odd, so the median is one pair's ratio.
const PAIRS: usize = 7;

/// The two sides of a speed ratio, timed in alternation by [`paired`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paired {
    /// Median wall-clock seconds of side `a`.
    pub a_s: f64,
    /// Median wall-clock seconds of side `b`.
    pub b_s: f64,
    /// Median over the pairs of `a`'s time over `b`'s: how many times
    /// faster `b` is.
    pub ratio: f64,
}

/// Time `a` and `b` alternately, sample by sample (one untimed call of
/// each, then `a, b, a, b, …` for seven pairs), and take the median of the
/// per-pair ratios. The two samples of a pair run back to back, so a
/// change in the machine's speed between pairs moves both and cancels out
/// of their ratio; two separate minima can catch the machine at different
/// speeds, and their ratio then measures the machine, not the code.
pub fn paired(mut a: impl FnMut(), mut b: impl FnMut()) -> Paired {
    fn time(f: &mut impl FnMut()) -> f64 {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    }
    time(&mut a);
    time(&mut b);
    let samples: Vec<(f64, f64)> = (0..PAIRS).map(|_| (time(&mut a), time(&mut b))).collect();
    Paired {
        a_s: median(samples.iter().map(|s| s.0)),
        b_s: median(samples.iter().map(|s| s.1)),
        ratio: median(samples.iter().map(|s| s.0 / s.1)),
    }
}

/// The middle value of an odd-length sample (upper middle when even).
fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The bit patterns of `v`, so logit vectors compare bitwise.
pub fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}
