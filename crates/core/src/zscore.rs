//! Per-model score normalization (Eq. 4).
//!
//! Different SLMs have different score scales — "varying means and variances
//! for the same set of data" — so each model's raw `P(yes)` is standardized
//! with statistics accumulated over previous responses before scores are
//! combined across models.

use serde::{Deserialize, Serialize};

/// Welford online mean/variance accumulator.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn update(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 with < 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Fallback statistics used before enough calibration data exists: raw
/// `P(yes)` values live in [0, 1], so centering at 0.5 with a 0.2 spread is a
/// sane prior.
const PRIOR_MEAN: f64 = 0.5;
const PRIOR_STD: f64 = 0.2;
/// Observations needed before a model's own statistics are trusted.
const MIN_SAMPLES: u64 = 8;
/// Floor on σ so constant-output models don't explode the z-score.
const MIN_STD: f64 = 1e-3;

/// Per-model normalizer: one [`RunningStats`] per SLM.
///
/// Serializable so a calibrated deployment can persist its statistics and
/// restore them at startup instead of re-warming on live traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelNormalizer {
    stats: Vec<RunningStats>,
}

impl ModelNormalizer {
    /// A normalizer for `num_models` models.
    pub fn new(num_models: usize) -> Self {
        Self {
            stats: vec![RunningStats::new(); num_models],
        }
    }

    /// Number of models tracked.
    pub fn num_models(&self) -> usize {
        self.stats.len()
    }

    /// Record a raw score for model `m` (call during calibration and,
    /// optionally, online as Eq. 4's "previous responses" accumulate).
    ///
    /// Non-finite observations are silently dropped: one NaN fed into the
    /// Welford accumulator would poison the running mean (and every future
    /// z-score) permanently, so a faulty verifier must not be able to wreck
    /// calibration.
    ///
    /// # Panics
    /// Panics if `m` is out of range.
    pub fn observe(&mut self, m: usize, score: f64) {
        if !score.is_finite() {
            return;
        }
        self.stats[m].update(score);
    }

    /// Fold a batch of completed observations for model `m` into the
    /// statistics **in submission order**.
    ///
    /// The Welford fold is order-sensitive in floating point: folding the
    /// same multiset of scores in a different order yields a mean/m2 that
    /// differ in the low bits, which then shift every future z-score. A
    /// batched executor completes probes in whatever order its workers
    /// finish, so each completion carries the submission index it was issued
    /// under; this method sorts by that index before folding, making the
    /// result bitwise-identical to having observed the scores sequentially.
    ///
    /// # Panics
    /// Panics if `m` is out of range.
    pub fn observe_completions(&mut self, m: usize, completions: &mut [(u64, f64)]) {
        completions.sort_by_key(|&(submitted, _)| submitted);
        for &(_, score) in completions.iter() {
            self.observe(m, score);
        }
    }

    /// Observations recorded for model `m`.
    pub fn observations(&self, m: usize) -> u64 {
        self.stats[m].count()
    }

    /// Eq. 4: `s̃ = (s − μ_m) / σ_m`, with the prior used until the model has
    /// `MIN_SAMPLES` observations.
    ///
    /// A non-finite `score` maps to z = 0 (the neutral verdict) rather than
    /// propagating NaN/∞ through the ensemble average; upstream layers
    /// quarantine such scores, this is defense in depth.
    pub fn normalize(&self, m: usize, score: f64) -> f64 {
        if !score.is_finite() {
            return 0.0;
        }
        let s = &self.stats[m];
        let (mean, std) = if s.count() >= MIN_SAMPLES {
            (s.mean(), s.std_dev().max(MIN_STD))
        } else {
            (PRIOR_MEAN, PRIOR_STD)
        };
        (score - mean) / std
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut rs = RunningStats::new();
        for &x in &xs {
            rs.update(x);
        }
        assert!((rs.mean() - 5.0).abs() < 1e-12);
        assert!((rs.variance() - 4.0).abs() < 1e-12);
        assert!((rs.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(rs.count(), 8);
    }

    #[test]
    fn empty_and_singleton_stats() {
        let mut rs = RunningStats::new();
        assert_eq!(rs.mean(), 0.0);
        assert_eq!(rs.variance(), 0.0);
        rs.update(3.0);
        assert_eq!(rs.mean(), 3.0);
        assert_eq!(rs.variance(), 0.0);
    }

    #[test]
    fn prior_used_before_enough_samples() {
        let mut n = ModelNormalizer::new(1);
        for _ in 0..4 {
            n.observe(0, 0.9);
        }
        // still below MIN_SAMPLES → prior (0.5, 0.2)
        assert!((n.normalize(0, 0.7) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn own_stats_used_after_enough_samples() {
        let mut n = ModelNormalizer::new(1);
        // alternate 0.4/0.6: mean 0.5, std 0.1
        for i in 0..20 {
            n.observe(0, if i % 2 == 0 { 0.4 } else { 0.6 });
        }
        let z = n.normalize(0, 0.6);
        assert!((z - 1.0).abs() < 1e-9, "z={z}");
    }

    #[test]
    fn constant_scores_do_not_divide_by_zero() {
        let mut n = ModelNormalizer::new(1);
        for _ in 0..20 {
            n.observe(0, 0.5);
        }
        let z = n.normalize(0, 0.6);
        assert!(z.is_finite());
        assert!(z > 0.0);
    }

    #[test]
    fn models_are_independent() {
        let mut n = ModelNormalizer::new(2);
        for i in 0..20 {
            n.observe(0, 0.8 + 0.01 * (i % 2) as f64); // high-mean model
            n.observe(1, 0.2 + 0.01 * (i % 2) as f64); // low-mean model
        }
        // The same raw score is above model 1's mean but below model 0's.
        assert!(n.normalize(0, 0.5) < 0.0);
        assert!(n.normalize(1, 0.5) > 0.0);
    }

    #[test]
    fn normalization_is_monotone() {
        let mut n = ModelNormalizer::new(1);
        for i in 0..30 {
            n.observe(0, 0.3 + 0.4 * ((i % 10) as f64 / 10.0));
        }
        assert!(n.normalize(0, 0.9) > n.normalize(0, 0.4));
    }

    #[test]
    fn non_finite_observations_cannot_poison_the_stats() {
        let mut n = ModelNormalizer::new(1);
        for i in 0..20 {
            n.observe(0, if i % 2 == 0 { 0.4 } else { 0.6 });
        }
        let before = n.clone();
        n.observe(0, f64::NAN);
        n.observe(0, f64::INFINITY);
        n.observe(0, f64::NEG_INFINITY);
        assert_eq!(n, before, "non-finite observations must be dropped");
        assert!(n.normalize(0, 0.6).is_finite());
    }

    #[test]
    fn non_finite_scores_normalize_to_neutral() {
        let mut n = ModelNormalizer::new(1);
        for i in 0..20 {
            n.observe(0, 0.3 + 0.02 * (i % 7) as f64);
        }
        assert_eq!(n.normalize(0, f64::NAN), 0.0);
        assert_eq!(n.normalize(0, f64::INFINITY), 0.0);
        assert_eq!(n.normalize(0, f64::NEG_INFINITY), 0.0);
    }

    /// Deterministic scores with enough spread that out-of-order Welford
    /// folds actually differ in the low bits.
    fn completion_scores(n: u64) -> Vec<f64> {
        (0..n)
            .map(|i| 0.05 + 0.9 * ((i * 37 % 101) as f64 / 101.0))
            .collect()
    }

    #[test]
    fn shuffled_completions_restore_submission_order_bitwise() {
        let scores = completion_scores(64);
        let mut sequential = ModelNormalizer::new(1);
        for &s in &scores {
            sequential.observe(0, s);
        }

        // A worker-completion order: deterministic pseudo-shuffle.
        let mut shuffled: Vec<(u64, f64)> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as u64, s))
            .collect();
        shuffled.sort_by_key(|&(i, _)| (i * 29) % 64);

        // Regression guard: the naive fold over the shuffled order really is
        // different — this is the bug observe_completions exists to prevent.
        let mut naive = ModelNormalizer::new(1);
        for &(_, s) in &shuffled {
            naive.observe(0, s);
        }
        assert_ne!(
            naive.normalize(0, 0.6).to_bits(),
            sequential.normalize(0, 0.6).to_bits(),
            "shuffle must exercise order sensitivity"
        );

        let mut batched = ModelNormalizer::new(1);
        batched.observe_completions(0, &mut shuffled);
        assert_eq!(batched, sequential, "stats must match bitwise");
        assert_eq!(
            batched.normalize(0, 0.6).to_bits(),
            sequential.normalize(0, 0.6).to_bits()
        );
    }

    proptest::proptest! {
        /// Any completion order folds to the same bits as submission order.
        #[test]
        fn observe_completions_is_order_insensitive(
            perm_seed in 0u64..1000,
            n in 2u64..40,
        ) {
            let scores = completion_scores(n);
            let mut sequential = ModelNormalizer::new(1);
            for &s in &scores {
                sequential.observe(0, s);
            }
            let mut completions: Vec<(u64, f64)> = scores
                .iter()
                .enumerate()
                .map(|(i, &s)| (i as u64, s))
                .collect();
            completions.sort_by_key(|&(i, _)| (i.wrapping_mul(perm_seed * 2 + 1)) % n);
            let mut batched = ModelNormalizer::new(1);
            batched.observe_completions(0, &mut completions);
            proptest::prop_assert_eq!(batched, sequential);
        }
    }

    #[test]
    fn normalizer_serde_roundtrip() {
        let mut n = ModelNormalizer::new(2);
        for i in 0..20 {
            n.observe(0, 0.3 + 0.02 * (i % 7) as f64);
            n.observe(1, 0.6 + 0.01 * (i % 5) as f64);
        }
        let json = serde_json::to_string(&n).unwrap();
        let back: ModelNormalizer = serde_json::from_str(&json).unwrap();
        assert_eq!(n, back);
        assert_eq!(n.normalize(0, 0.4), back.normalize(0, 0.4));
    }

    proptest::proptest! {
        #[test]
        fn welford_never_negative_variance(xs in proptest::collection::vec(-100f64..100.0, 0..50)) {
            let mut rs = RunningStats::new();
            for x in &xs {
                rs.update(*x);
            }
            proptest::prop_assert!(rs.variance() >= -1e-9);
        }

        #[test]
        fn normalize_finite(score in 0f64..1.0, obs in proptest::collection::vec(0f64..1.0, 0..40)) {
            let mut n = ModelNormalizer::new(1);
            for o in &obs {
                n.observe(0, *o);
            }
            proptest::prop_assert!(n.normalize(0, score).is_finite());
        }
    }
}
