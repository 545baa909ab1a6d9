//! Learned meta-checker extension: train a logistic combiner over the
//! aggregation-mean features on the first half of the dataset, evaluate on
//! the held-out second half, and compare against the fixed harmonic checker.

use bench::approaches::{build_detector, Approach};
use bench::{save_record, RESULTS_PATH};
use eval::report::ExperimentRecord;
use eval::sweep::best_f1;
use hallu_core::{response_features, AggregationMean, LogisticCombiner};
use hallu_dataset::{DatasetBuilder, ResponseLabel};

fn main() {
    let dataset = DatasetBuilder::default().build();
    let split = dataset.len() / 2;

    // One detector, calibrated on the full corpus (unsupervised statistics).
    let mut detector = build_detector(Approach::Proposed, AggregationMean::Harmonic);
    for set in &dataset.sets {
        for r in &set.responses {
            detector.calibrate(&set.question, &set.context, &r.text);
        }
    }

    // Score everything once; keep the full results for feature extraction.
    let mut rows = Vec::new(); // (set index, label, DetectionResult)
    for (i, set) in dataset.sets.iter().enumerate() {
        for r in &set.responses {
            let result = detector
                .score(&set.question, &set.context, &r.text)
                .into_result()
                .expect("fault-free verifiers never abstain");
            rows.push((i, r.label, result));
        }
    }

    // Train on the correct-vs-partial task (the hard one), first half only.
    let train: Vec<_> = rows
        .iter()
        .filter(|(i, label, _)| *i < split && *label != ResponseLabel::Wrong)
        .map(|(_, label, result)| (response_features(result), *label == ResponseLabel::Correct))
        .collect();
    let model = LogisticCombiner::fit(&train, 500, 0.5).expect("two-class training data");
    println!(
        "trained on {} responses; standardized weights {:?}",
        train.len(),
        model.weights()
    );

    // Evaluate both checkers on the held-out half.
    let test: Vec<_> = rows
        .iter()
        .filter(|(i, label, _)| *i >= split && *label != ResponseLabel::Wrong)
        .collect();
    let harmonic_examples: Vec<(f64, bool)> = test
        .iter()
        .map(|(_, label, result)| (result.score, *label == ResponseLabel::Correct))
        .collect();
    let learned_examples: Vec<(f64, bool)> = test
        .iter()
        .map(|(_, label, result)| {
            (
                model.predict(&response_features(result)),
                *label == ResponseLabel::Correct,
            )
        })
        .collect();

    let harmonic_f1 = best_f1(&harmonic_examples).expect("examples").f1;
    let learned_f1 = best_f1(&learned_examples).expect("examples").f1;
    println!(
        "held-out best F1 (correct-vs-partial): harmonic {harmonic_f1:.3}  learned {learned_f1:.3}"
    );

    let mut record = ExperimentRecord::new(
        "ext-learned",
        "Learned logistic meta-checker vs fixed harmonic mean (held-out half)",
    );
    record.measure("harmonic (fixed)", harmonic_f1);
    record.measure("logistic (learned)", learned_f1);
    save_record(&record, std::path::Path::new(RESULTS_PATH)).expect("write results");
    println!("record appended to {RESULTS_PATH}");
}
