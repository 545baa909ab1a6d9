//! Machine pace: a fixed bench-side reference kernel, timed next to the
//! detector, so that the end-to-end timings are reported at one reference
//! speed of the machine rather than at whatever speed it had that minute.
//!
//! On a shared host the speed a process gets follows what other tenants run
//! on the same cores and caches. On the 2-vCPU Xeon guest this benchmark was
//! tuned on, warm_prefix throughput moved up to 2× between runs a few
//! minutes apart and ±30% between 2-s windows of one run, with steal time
//! near zero. A pure-ALU loop barely followed that drift; kernels that keep
//! the load, store and floating-point ports busy on cache-resident data did.
//! The kernel here is a textbook i-k-j matrix product at the shape of a
//! member's feed-forward projection over a 32-token block (32×96 · 96×256,
//! f32), the kind of work that takes most of a probe. Over 2-s windows its
//! time correlated 0.47–0.98 (median 0.78) with the detector's per-call
//! slowdown. It follows the drift only in part: when the detector sped up
//! 2×, kernels of this kind sped up 1.3–1.6×, so scaling narrows the spread
//! of runs taken while the machine drifts (to about half or less in the sets
//! measured) without removing it, and widens a steady machine's spread a
//! little.
//!
//! The kernel calls no program code, so a change to the detector moves the
//! detector's timings and not the pace.

use std::time::Instant;

/// Time one [`Pace::sample`] takes on the tuning machine at its median
/// speed. Timings at the reference pace are wall times scaled by
/// `NOMINAL_S / (the pace measured next to them)`.
pub const NOMINAL_S: f64 = 4.0e-4;

/// Block tokens, model width and feed-forward width of the product.
const M: usize = 32;
const K: usize = 96;
const N: usize = 256;
/// Products per sample.
const REPEATS: usize = 4;
/// A call's pace is the median of the samples taken after the calls within
/// this many positions of it, which smooths the kernel's own jitter.
const HALF_WINDOW: usize = 5;

/// The reference kernel's operands.
pub struct Pace {
    a: Vec<f32>,
    b: Vec<f32>,
}

impl Default for Pace {
    fn default() -> Self {
        Self::new()
    }
}

impl Pace {
    pub fn new() -> Self {
        Self {
            a: (0..M * K).map(|i| (i % 13) as f32 * 1e-2).collect(),
            b: (0..K * N)
                .map(|i| (i.wrapping_mul(2_654_435_761) % 997) as f32 * 1e-3)
                .collect(),
        }
    }

    /// Run the kernel once; return its wall seconds.
    pub fn sample(&self) -> f64 {
        let mut c = vec![0f32; M * N];
        let start = Instant::now();
        for _ in 0..REPEATS {
            c.fill(0.0);
            for (a_row, c_row) in self.a.chunks_exact(K).zip(c.chunks_exact_mut(N)) {
                for (&aik, b_row) in a_row.iter().zip(self.b.chunks_exact(N)) {
                    for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                        *cj += aik * bj;
                    }
                }
            }
            std::hint::black_box(&mut c);
        }
        start.elapsed().as_secs_f64()
    }

    /// Median of `n` samples.
    pub fn median(&self, n: usize) -> f64 {
        let mut s: Vec<f64> = (0..n.max(1)).map(|_| self.sample()).collect();
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    }
}

/// Scale each wall time (in any unit) to the reference pace. `pace_s[i]` is
/// the sample taken right after the call that took `wall[i]`.
pub fn at_reference_pace(wall: &[f64], pace_s: &[f64]) -> Vec<f64> {
    assert_eq!(wall.len(), pace_s.len(), "one pace sample per call");
    let mut window = Vec::with_capacity(2 * HALF_WINDOW + 1);
    (0..wall.len())
        .map(|i| {
            window.clear();
            window.extend_from_slice(
                &pace_s[i.saturating_sub(HALF_WINDOW)..(i + HALF_WINDOW + 1).min(pace_s.len())],
            );
            window.sort_by(f64::total_cmp);
            wall[i] * NOMINAL_S / window[window.len() / 2]
        })
        .collect()
}
