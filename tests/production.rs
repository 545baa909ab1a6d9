//! Integration tests for the production-facing surface: threshold fitting,
//! explanations, drift monitoring, batch scoring, calibration persistence,
//! the learned meta-checker, and the quantized/persisted engine.

use bench::approaches::{build_detector, Approach};
use bench::runner::{score_dataset_with, task_examples, Task};
use hallu_core::threshold::{fit, Objective};
use hallu_core::{
    explain, response_features, AggregationMean, DriftMonitor, DriftStatus, LogisticCombiner,
};
use hallu_dataset::{DatasetBuilder, ResponseLabel};
use slm_runtime::{CacheConfig, VerificationCache};
use std::collections::HashSet;
use std::sync::Arc;
use text_engine::sentence::SentenceSplitter;

/// The full production loop: calibrate → fit threshold → explain verdicts.
#[test]
fn calibrate_fit_explain_loop() {
    let dataset = DatasetBuilder::new(77, 24).build();
    let mut detector = build_detector(Approach::Proposed, AggregationMean::Harmonic);
    let scores = score_dataset_with(&mut detector, &dataset);
    let fitted = fit(
        &task_examples(&scores, Task::CorrectVsPartial),
        Objective::MaxF1,
    )
    .unwrap();
    assert!(fitted.f1 > 0.6);

    // Explanations at the fitted threshold flag rejected responses' weakest
    // sentence.
    let set = &dataset.sets[0];
    let wrong = set.response(ResponseLabel::Wrong);
    let result = detector
        .score(&set.question, &set.context, &wrong.text)
        .into_result()
        .expect("fault-free verifiers never abstain");
    let explanation = explain(&result, fitted.threshold);
    assert!(
        !explanation.accepted,
        "wrong response must be rejected at the fitted threshold"
    );
    assert!(explanation.weakest_sentence.is_some());
    assert!(explanation.summary().contains("REJECT"));
}

/// Calibration statistics survive JSON persistence and transplanting into a
/// fresh detector at startup.
#[test]
fn calibration_persistence_roundtrip() {
    let dataset = DatasetBuilder::new(5, 12).build();
    let mut fitted = build_detector(Approach::Proposed, AggregationMean::Harmonic);
    let _ = score_dataset_with(&mut fitted, &dataset);

    let json = serde_json::to_string(fitted.normalizer()).unwrap();
    let restored: hallu_core::ModelNormalizer = serde_json::from_str(&json).unwrap();

    let mut fresh = build_detector(Approach::Proposed, AggregationMean::Harmonic);
    fresh.try_set_normalizer(restored).unwrap();
    let set = &dataset.sets[0];
    let r = &set.response(ResponseLabel::Partial).text;
    assert_eq!(
        fitted.score(&set.question, &set.context, r),
        fresh.score(&set.question, &set.context, r)
    );
}

/// Drift monitoring: scores from a shifted domain raise an alert while
/// in-domain traffic stays stable.
#[test]
fn drift_monitor_flags_domain_shift() {
    let dataset = DatasetBuilder::new(13, 24).build();
    let mut detector = build_detector(Approach::Proposed, AggregationMean::Harmonic);
    let scores = score_dataset_with(&mut detector, &dataset);

    // Baseline from the response-level scores.
    let mut baseline = hallu_core::RunningStats::new();
    for s in &scores {
        baseline.update(s.score);
    }

    // In-domain window: replay the same scores → stable.
    let mut monitor = DriftMonitor::new(baseline.clone(), 30);
    for s in scores.iter().take(30) {
        monitor.observe(s.score);
    }
    assert_eq!(monitor.status(), DriftStatus::Stable);

    // Shifted window: a degenerate generator answering everything wrong.
    let mut shifted = DriftMonitor::new(baseline, 30);
    for s in scores
        .iter()
        .filter(|s| s.label == ResponseLabel::Wrong)
        .take(30)
        .cycle()
        .take(30)
    {
        shifted.observe(s.score);
    }
    assert_eq!(shifted.status(), DriftStatus::Drifted);
}

/// Batched scoring over a dataset slice (every cell probed once, on parallel
/// workers, through a verification cache) matches one-by-one scoring, cold
/// and warm.
#[test]
fn batch_scoring_is_consistent() {
    let dataset = DatasetBuilder::new(21, 6).build();
    let mut sequential = build_detector(Approach::Proposed, AggregationMean::Harmonic);
    let _ = score_dataset_with(&mut sequential, &dataset);
    let mut batched = build_detector(Approach::Proposed, AggregationMean::Harmonic);
    let _ = score_dataset_with(&mut batched, &dataset);
    batched.config.parallel = true;
    let cache = Arc::new(VerificationCache::new(CacheConfig::default()));
    batched.set_cache(Arc::clone(&cache));

    let items: Vec<(&str, &str, &str)> = dataset
        .sets
        .iter()
        .flat_map(|s| {
            s.responses
                .iter()
                .map(move |r| (s.question.as_str(), s.context.as_str(), r.text.as_str()))
        })
        .collect();
    // Every distinct (model, question, context, sentence) cell.
    let unique = items
        .iter()
        .flat_map(|&(q, c, r)| {
            SentenceSplitter::new()
                .split(r)
                .into_iter()
                .map(move |s| (q, c, s.text))
        })
        .collect::<HashSet<_>>()
        .len() as u64
        * batched.num_models() as u64;
    assert!(batched.config.split);

    let batch = batched.score_all(&items);
    assert_eq!(batch.len(), items.len());
    for ((q, c, r), verdict) in items.iter().zip(&batch) {
        assert_eq!(verdict, &sequential.score(q, c, r));
    }
    // One probe pass: every distinct cell probed and memoized exactly once.
    let first = cache.stats();
    assert_eq!(
        (first.hits, first.misses, first.inserts),
        (0, unique, unique),
        "{first:?}"
    );

    // A second pass replays every cell from the cache, verdicts unchanged.
    let again = batched.score_all(&items);
    for ((q, c, r), verdict) in items.iter().zip(&again) {
        assert_eq!(verdict, &sequential.score(q, c, r));
    }
    let second = cache.stats();
    assert_eq!(
        (second.hits, second.misses, second.inserts),
        (unique, unique, unique),
        "{second:?}"
    );
}

/// The learned meta-checker generalizes across dataset seeds.
#[test]
fn learned_combiner_transfers_across_seeds() {
    let train_set = DatasetBuilder::new(100, 36).build();
    let test_set = DatasetBuilder::new(200, 24).build();
    let mut detector = build_detector(Approach::Proposed, AggregationMean::Harmonic);
    let _ = score_dataset_with(&mut detector, &train_set);

    let collect = |ds: &hallu_dataset::Dataset| -> Vec<(hallu_core::ResponseFeatures, bool)> {
        ds.iter_examples()
            .filter(|(_, r)| r.label != ResponseLabel::Wrong)
            .map(|(s, r)| {
                let result = detector
                    .score(&s.question, &s.context, &r.text)
                    .into_result()
                    .expect("fault-free verifiers never abstain");
                (
                    response_features(&result),
                    r.label == ResponseLabel::Correct,
                )
            })
            .collect()
    };
    let train = collect(&train_set);
    let test = collect(&test_set);
    let model = LogisticCombiner::fit(&train, 300, 0.5).unwrap();
    let correct = test
        .iter()
        .filter(|(f, y)| (model.predict(f) >= 0.5) == *y)
        .count();
    let acc = correct as f64 / test.len() as f64;
    assert!(acc >= 0.65, "transfer accuracy {acc}");
}

/// Quantized weights + persisted weights behave inside the verification path.
#[test]
fn engine_quantize_persist_verify() {
    use slm_runtime::bpe::Bpe;
    use slm_runtime::config::ModelConfig;
    use slm_runtime::model::TransformerLM;
    use slm_runtime::quant::QuantizedWeights;
    use slm_runtime::weights::ModelWeights;

    let bpe = Bpe::train(&["the store opens at nine reply yes or no"], 120);
    let cfg = ModelConfig::tiny(bpe.vocab_size());
    let weights = ModelWeights::synthetic(&cfg, 31);

    // quantize → dequantize → persist → load: still a working model
    let quantized = QuantizedWeights::quantize(&weights);
    let mut buf = Vec::new();
    slm_runtime::weights_io::save_f32(&mut buf, &cfg, &quantized.dequantize()).unwrap();
    let (cfg2, weights2) = slm_runtime::weights_io::load_f32(&mut buf.as_slice()).unwrap();
    let model = TransformerLM::new(cfg2, weights2);
    let p = slm_runtime::prob::p_yes(
        &model,
        &bpe,
        "open at nine?",
        "the store opens at nine",
        "nine",
        None,
    );
    assert!((0.0..=1.0).contains(&p));
}
