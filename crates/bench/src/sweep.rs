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

/// Best-of-3 wall-clock seconds for `f` (the minimum is the least noisy
/// estimator for a deterministic workload).
pub fn best_of_3(mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The bit patterns of `v`, so logit vectors compare bitwise.
pub fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}
