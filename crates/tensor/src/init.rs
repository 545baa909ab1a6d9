//! Deterministic weight initialization.
//!
//! The inference engine runs on synthetic weights (no access to real Qwen2 /
//! MiniCPM checkpoints — see DESIGN.md). All initializers are seeded so every
//! test, example and bench is reproducible bit-for-bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::matrix::Matrix;

/// Xavier/Glorot-uniform initialization: U(−a, a) with a = sqrt(6/(fan_in+fan_out)).
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let a = (6.0 / (rows + cols) as f64).sqrt() as f32;
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-a..=a))
}

/// A vector of ones (norm gains).
pub fn ones(n: usize) -> Vec<f32> {
    vec![1.0; n]
}

/// Seeded RNG for weight construction.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_respects_bound() {
        let mut rng = seeded_rng(1);
        let m = xavier_uniform(10, 20, &mut rng);
        let a = (6.0f64 / 30.0).sqrt() as f32;
        assert!(m.as_slice().iter().all(|v| v.abs() <= a + 1e-6));
    }

    #[test]
    fn xavier_is_deterministic_per_seed() {
        let a = xavier_uniform(4, 4, &mut seeded_rng(7));
        let b = xavier_uniform(4, 4, &mut seeded_rng(7));
        assert_eq!(a, b);
        let c = xavier_uniform(4, 4, &mut seeded_rng(8));
        assert_ne!(a, c);
    }

    #[test]
    fn ones_is_ones() {
        assert_eq!(ones(3), [1.0, 1.0, 1.0]);
    }
}
