//! Cross-model score combination (Eq. 5) and the positivity adjustment.

use crate::zscore::ModelNormalizer;

/// Eq. 5: average the normalized scores of one sentence over the
/// `(model_index, raw_score)` pairs that produced usable probabilities.
///
/// The ensemble renormalizes over whichever models answered (divide by the
/// survivor count, not M), so with every model surviving this is Eq. 5
/// exactly, and a fallen model degrades the ensemble instead of voiding it.
///
/// # Panics
/// Panics if no model survived — callers must abstain instead of fabricating
/// a score.
pub fn combine_surviving(normalizer: &ModelNormalizer, survivors: &[(usize, f64)]) -> f64 {
    assert!(!survivors.is_empty(), "at least one model score required");
    let sum: f64 = survivors
        .iter()
        .map(|&(m, s)| normalizer.normalize(m, s))
        .sum();
    sum / survivors.len() as f64
}

/// The explicit "adjustment" Eq. 6 alludes to: map an ensemble z-score into
/// (0, 1) with a logistic so every aggregation mean (harmonic, geometric)
/// stays well-defined. Strictly monotone, so rankings are unchanged.
pub fn squash(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calibrated(num_models: usize) -> ModelNormalizer {
        let mut n = ModelNormalizer::new(num_models);
        for i in 0..20 {
            let x = 0.3 + 0.4 * ((i % 10) as f64 / 10.0);
            for m in 0..num_models {
                n.observe(m, x);
            }
        }
        n
    }

    #[test]
    fn average_of_identical_models_is_single_model() {
        // both models saw the same calibration stream, so they normalize a
        // raw score identically and their average is either one alone
        let n = calibrated(2);
        let one = combine_surviving(&n, &[(0, 0.7)]);
        let two = combine_surviving(&n, &[(0, 0.7), (1, 0.7)]);
        assert!((one - two).abs() < 1e-12);
    }

    #[test]
    fn higher_raw_scores_give_higher_combined() {
        let n = calibrated(2);
        let low = combine_surviving(&n, &[(0, 0.3), (1, 0.35)]);
        let high = combine_surviving(&n, &[(0, 0.8), (1, 0.85)]);
        assert!(high > low);
    }

    #[test]
    fn squash_properties() {
        assert!((squash(0.0) - 0.5).abs() < 1e-12);
        assert!(squash(10.0) > 0.999);
        assert!(squash(-10.0) < 0.001);
        assert!(squash(1.0) > squash(0.5));
    }

    #[test]
    fn squash_output_strictly_positive() {
        // the whole point: harmonic/geometric means need positive inputs
        for z in [-50.0, -5.0, 0.0, 5.0, 50.0] {
            let s = squash(z);
            // strict positivity is the property the harmonic/geometric means
            // need; the upper end may round to exactly 1.0 in f64
            assert!(s > 0.0 && s <= 1.0, "squash({z}) = {s}");
        }
    }

    #[test]
    fn sentence_score_in_unit_interval() {
        // Eq. 4 + Eq. 5 + squash: the per-sentence score s_{i,j}
        let n = calibrated(2);
        for raw in [0.0, 0.2, 0.5, 0.9, 1.0] {
            let s = squash(combine_surviving(&n, &[(0, raw), (1, raw)]));
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn surviving_subset_renormalizes_over_survivors() {
        let n = calibrated(2);
        let only_second = combine_surviving(&n, &[(1, 0.7)]);
        assert_eq!(only_second.to_bits(), n.normalize(1, 0.7).to_bits());
    }

    #[test]
    #[should_panic(expected = "at least one model")]
    fn no_survivors_panics_rather_than_fabricating() {
        combine_surviving(&calibrated(2), &[]);
    }
}
