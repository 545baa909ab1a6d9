//! End-to-end and per-layer benchmark of the engine-backed hallucination
//! detector: splitter → `ResilientDetector` on `BatchEngine` →
//! `EngineVerifier` members over a `PagedPrefixCache` → Eq. 4–6 checker.
//!
//! `src/main.rs` is the command; this library holds the workload inputs,
//! the detector stacks, the tracing delegates and the machine-pace kernel
//! so tests can drive them.

pub mod pace;
pub mod stack;
pub mod trace;

/// FNV-1a 64 over the bit patterns of `scores`, in order: the run's
/// determinism digest.
pub fn digest(scores: &[f64]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    scores
        .iter()
        .flat_map(|s| s.to_bits().to_le_bytes())
        .fold(OFFSET, |h, b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
