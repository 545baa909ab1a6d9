//! The instruction-set level every runtime-dispatched kernel runs at.
//!
//! One detection per process serves the int8 and the f32 kernels alike.
//! Each kernel is written once as an `#[inline(always)]` body and
//! instantiated under `#[target_feature(enable = "avx512f")]`, under
//! `#[target_feature(enable = "avx2")]` and at the baseline; the dispatcher
//! matches on [`detect`] and calls the widest instantiation the host runs.
//! The baseline instantiation is the scalar fallback.
//!
//! A level other than [`SimdLevel::Scalar`] carries a [`Detected`] proof
//! that only this module can create, so holding one means the CPU reported
//! the level's features. That is what makes a call into the matching
//! `#[target_feature]` instantiation sound.

/// f32 lanes per group: one AVX-512 vector. The softmax max and sum in
/// [`crate::nn`] put element `i` in lane `i % LANES` and combine the lanes
/// in a fixed halving tree, so every level reduces in the same order; the
/// attention score kernel pads its key columns and score rows to a multiple
/// of it, so every query row runs whole lane groups.
pub const LANES: usize = 16;

/// Proof that CPU detection found a level's features. It has a private
/// field, so no code outside this module can construct it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Detected(());

/// Instruction set a dispatched kernel runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimdLevel {
    /// AVX-512F and AVX-512BW: 16 f32 lanes, and the int8 kernels'
    /// 32-lane `vpmaddwd`.
    #[cfg(target_arch = "x86_64")]
    Avx512(Detected),
    /// AVX2: 8 f32 lanes, and the int8 kernels' 16-lane `vpmaddwd`.
    #[cfg(target_arch = "x86_64")]
    Avx2(Detected),
    /// The target's baseline instruction set (SSE2 on x86-64).
    Scalar,
}

/// The widest level this host supports, detected once per process.
pub fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        static LEVEL: std::sync::OnceLock<SimdLevel> = std::sync::OnceLock::new();
        *LEVEL.get_or_init(|| supported()[0])
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::Scalar
    }
}

/// Every level this host supports, widest first; the last is always
/// [`SimdLevel::Scalar`]. Parity tests run each instantiation of a kernel
/// through this list.
pub fn supported() -> Vec<SimdLevel> {
    let mut levels = Vec::with_capacity(3);
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
        {
            levels.push(SimdLevel::Avx512(Detected(())));
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            levels.push(SimdLevel::Avx2(Detected(())));
        }
    }
    levels.push(SimdLevel::Scalar);
    levels
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_picks_the_widest_supported_level() {
        let all = supported();
        assert_eq!(detect(), all[0]);
        assert_eq!(all.last(), Some(&SimdLevel::Scalar));
    }
}
