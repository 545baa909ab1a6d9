//! Cross-crate property tests: invariants that must hold for *any* input,
//! checked through the full pipeline rather than per module.

use bench::approaches::{build_detector, Approach};
use hallu_core::AggregationMean;
use hallu_dataset::DatasetBuilder;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Detector scores stay in [0, 1] for arbitrary printable inputs, split
    /// or not, calibrated or not.
    #[test]
    fn detector_scores_bounded_on_arbitrary_text(
        question in "[ -~]{0,60}",
        context in "[ -~]{0,120}",
        response in "[ -~]{0,120}",
        calibrate in proptest::bool::ANY,
    ) {
        let mut detector = build_detector(Approach::Proposed, AggregationMean::Harmonic);
        if calibrate {
            detector.calibrate(&question, &context, &response);
        }
        let result = detector
            .score(&question, &context, &response)
            .into_result()
            .expect("fault-free verifiers never abstain");
        prop_assert!((0.0..=1.0).contains(&result.score), "score {}", result.score);
        for s in &result.sentences {
            prop_assert!((0.0..=1.0).contains(&s.combined));
            for &raw in &s.raw {
                prop_assert!((0.0..=1.0).contains(&raw));
            }
        }
    }

    /// The response score never exceeds the best sentence score and never
    /// falls below the worst (for every aggregation mean).
    #[test]
    fn response_score_bounded_by_sentence_extremes(
        response in "[a-zA-Z0-9 ,.]{10,150}",
        mean_idx in 0usize..5,
    ) {
        let mean = AggregationMean::ALL[mean_idx];
        let mut detector = build_detector(Approach::Proposed, mean);
        let ctx = "The store operates from 9 AM to 5 PM, from Sunday to Saturday.";
        detector.calibrate("q", ctx, "The store opens at 9 AM.");
        let result = detector
            .score("q", ctx, &response)
            .into_result()
            .expect("fault-free verifiers never abstain");
        if result.sentences.is_empty() {
            prop_assert_eq!(result.score, 0.0);
        } else {
            let lo = result.sentences.iter().map(|s| s.combined).fold(f64::INFINITY, f64::min);
            let hi = result.sentences.iter().map(|s| s.combined).fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(result.score >= lo - 1e-9, "{} < {lo}", result.score);
            prop_assert!(result.score <= hi + 1e-9, "{} > {hi}", result.score);
        }
    }

    /// Dataset generation upholds its structural contract for any seed/size.
    #[test]
    fn dataset_contract_for_any_seed(seed in 0u64..10_000, n in 1usize..30) {
        let d = DatasetBuilder::new(seed, n).build();
        prop_assert_eq!(d.len(), n);
        for set in &d.sets {
            prop_assert_eq!(set.responses.len(), 3);
            prop_assert!(!set.question.is_empty());
            prop_assert!(set.context.len() > set.question.len());
            use hallu_dataset::ResponseLabel;
            let correct = set.response(ResponseLabel::Correct);
            let partial = set.response(ResponseLabel::Partial);
            let wrong = set.response(ResponseLabel::Wrong);
            prop_assert!(correct.perturbed_sentences.is_empty());
            prop_assert_eq!(partial.perturbed_sentences.len(), 1);
            prop_assert_eq!(partial.ops.len(), 1);
            prop_assert!(!wrong.perturbed_sentences.is_empty());
            prop_assert_eq!(wrong.ops.len(), wrong.perturbed_sentences.len());
            prop_assert_ne!(&correct.text, &partial.text);
            prop_assert_ne!(&correct.text, &wrong.text);
        }
    }

    /// Splitting then re-joining loses no alphanumeric content, end to end
    /// through the detector's sentence report.
    #[test]
    fn sentence_report_preserves_content(response in "[a-zA-Z0-9 .!?]{0,150}") {
        let mut detector = build_detector(Approach::Qwen2Only, AggregationMean::Harmonic);
        let ctx = "Some context.";
        detector.calibrate("q", ctx, "Some response.");
        let result = detector
            .score("q", ctx, &response)
            .into_result()
            .expect("fault-free verifiers never abstain");
        let total: usize = response.chars().filter(|c| c.is_alphanumeric()).count();
        let kept: usize = result
            .sentences
            .iter()
            .map(|s| s.sentence.chars().filter(|c| c.is_alphanumeric()).count())
            .sum();
        prop_assert_eq!(total, kept);
    }

    /// `parallel: true` and `parallel: false` produce bitwise-identical
    /// results for arbitrary inputs — including under injected faults, where
    /// the resilient runtime's two-phase execution keeps breaker decisions
    /// in canonical order regardless of thread interleaving.
    #[test]
    fn parallel_equals_sequential_even_under_faults(
        response in "[a-zA-Z0-9 ,.!?]{0,200}",
        seed in 0u64..10_000,
        fault_pct in 0usize..5,
    ) {
        use hallu_core::{DetectorConfig, ResilientDetector};
        use slm_runtime::{FallibleVerifier, FaultInjector, FaultProfile, Reliable};
        use slm_runtime::profiles::{minicpm_sim, qwen2_sim};

        let ctx = "The store operates from 9 AM to 5 PM, from Sunday to Saturday.";
        let rate = fault_pct as f64 * 0.1;
        // fault-free detector: parallel flag must not change a single bit
        let fault_free = |parallel: bool| {
            let mut d = build_detector(Approach::Proposed, AggregationMean::Harmonic);
            d.config.parallel = parallel;
            d.calibrate("q", ctx, "The store opens at 9 AM.");
            d.score("q", ctx, &response)
        };
        prop_assert_eq!(fault_free(false), fault_free(true));
        // resilient detector under injected faults: same guarantee
        let resilient = |parallel: bool| {
            let verifiers: Vec<Box<dyn FallibleVerifier>> = vec![
                Box::new(FaultInjector::new(
                    Reliable::new(qwen2_sim()),
                    FaultProfile::uniform(seed, rate),
                )),
                Box::new(FaultInjector::new(
                    Reliable::new(minicpm_sim()),
                    FaultProfile::uniform(seed ^ 0xABCD, rate),
                )),
            ];
            let mut d = ResilientDetector::try_new(
                verifiers,
                DetectorConfig { parallel, ..Default::default() },
            )
            .expect("two verifiers");
            d.calibrate("q", ctx, "The store opens at 9 AM.");
            d.score("q", ctx, &response)
        };
        prop_assert_eq!(resilient(false), resilient(true));
    }

    /// Eq. 4 normalization is rank-preserving: for any pair of responses, the
    /// normalized detector orders them the same way as raw averaging when a
    /// single model is used (monotone transform invariance).
    #[test]
    fn single_model_normalization_preserves_order(
        a in "[a-zA-Z0-9 .]{5,80}",
        b in "[a-zA-Z0-9 .]{5,80}",
    ) {
        let ctx = "The store operates from 9 AM to 5 PM, from Sunday to Saturday.";
        let build = |normalize: bool| {
            let mut d = hallu_core::ResilientDetector::reliable(
                vec![Box::new(slm_runtime::profiles::qwen2_sim())
                    as Box<dyn slm_runtime::verifier::YesNoVerifier>],
                hallu_core::DetectorConfig {
                    split: false,
                    normalize,
                    ..Default::default()
                },
            )
            .expect("one verifier");
            for i in 0..10 {
                d.calibrate("q", ctx, &format!("The store opens at {} AM.", 8 + i % 3));
            }
            d
        };
        let norm = build(true);
        let raw = build(false);
        let score = |d: &hallu_core::ResilientDetector, r: &str| {
            d.score("q", ctx, r).score().expect("fault-free verifiers never abstain")
        };
        let (na, nb) = (score(&norm, &a), score(&norm, &b));
        let (ra, rb) = (score(&raw, &a), score(&raw, &b));
        // strict order must agree (ties may resolve either way)
        if ra > rb + 1e-12 {
            prop_assert!(na >= nb - 1e-12, "normalization flipped the order");
        } else if rb > ra + 1e-12 {
            prop_assert!(nb >= na - 1e-12, "normalization flipped the order");
        }
    }
}
