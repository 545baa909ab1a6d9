//! The instruction-set level every runtime-dispatched kernel runs at.
//!
//! One detection per process serves the int8 and the f32 kernels alike.
//! Each kernel is written once as an `#[inline(always)]` body and
//! instantiated under `#[target_feature(enable = "avx512f")]`, under
//! `#[target_feature(enable = "avx2")]` and at the baseline; the dispatcher
//! matches on [`detect`] and calls the widest instantiation the host runs.
//! The baseline instantiation is the scalar fallback. The int8 GEMM has a
//! VNNI instantiation at each vector level too, which it runs when the
//! level's [`Detected`] proof says the host reported VNNI there
//! ([`Detected::vnni`]); the f32 kernels run the same code either way.
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
pub struct Detected {
    vnni: bool,
}

impl Detected {
    /// Whether the proof covers the level's VNNI extension as well:
    /// `avx512vnni` at [`SimdLevel::Avx512`] (`vpdpwssd`), `avxvnni` at
    /// [`SimdLevel::Avx2`] (its VEX form). Only the int8 GEMM reads it.
    pub fn vnni(self) -> bool {
        self.vnni
    }
}

/// Instruction set a dispatched kernel runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimdLevel {
    /// AVX-512F and AVX-512BW: 16 f32 lanes, and the int8 kernels'
    /// 32-lane `vpmaddwd`, or `vpdpwssd` with VNNI.
    #[cfg(target_arch = "x86_64")]
    Avx512(Detected),
    /// AVX2: 8 f32 lanes, and the int8 kernels' 16-lane `vpmaddwd`, or
    /// `vpdpwssd` with AVX-VNNI.
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
/// [`SimdLevel::Scalar`]. A vector level whose VNNI extension the host
/// reports is listed twice, with VNNI first, so parity tests run both the
/// VNNI and the plain instantiation of the int8 GEMM through this list.
pub fn supported() -> Vec<SimdLevel> {
    let mut levels = Vec::with_capacity(5);
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        let mut push = |level: fn(Detected) -> SimdLevel, vnni: bool| {
            if vnni {
                levels.push(level(Detected { vnni: true }));
            }
            levels.push(level(Detected { vnni: false }));
        };
        if has!("avx512f") && has!("avx512bw") {
            push(SimdLevel::Avx512, has!("avx512vnni"));
        }
        if has!("avx2") {
            push(SimdLevel::Avx2, has!("avxvnni"));
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
