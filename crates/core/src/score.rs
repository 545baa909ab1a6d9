//! Score validity for sentence-level probes (Eq. 2–3).

/// `true` when `p` is a usable probability: finite and inside `[0, 1]`.
///
/// The resilient executor quarantines scores that fail this check instead of
/// letting them reach the z-statistics (Eq. 4), where a single NaN would
/// poison the running mean forever.
pub fn valid_probability(p: f64) -> bool {
    p.is_finite() && (0.0..=1.0).contains(&p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_validity_classification() {
        assert!(valid_probability(0.0));
        assert!(valid_probability(1.0));
        assert!(valid_probability(0.42));
        assert!(!valid_probability(f64::NAN));
        assert!(!valid_probability(f64::INFINITY));
        assert!(!valid_probability(-0.01));
        assert!(!valid_probability(1.01));
    }
}
