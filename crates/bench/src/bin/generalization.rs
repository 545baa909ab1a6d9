//! Out-of-domain generalization extension: fit the decision threshold on the
//! twelve core handbook topics, then apply the same detector and threshold
//! to four topics it has never seen (training, travel, security, parking).
//! Reports the held-out F1 at the transferred threshold against the oracle
//! (best-achievable) held-out F1.

use bench::approaches::{build_detector, Approach};
use bench::runner::{score_dataset_with, task_examples, Task};
use bench::{save_record, RESULTS_PATH};
use eval::report::ExperimentRecord;
use eval::sweep::best_f1;
use hallu_core::threshold::{fit, Objective};
use hallu_core::AggregationMean;
use hallu_dataset::DatasetBuilder;

fn main() {
    let core = DatasetBuilder::default().build();
    let held_out = DatasetBuilder::new(0xBEEF, 48).build_held_out();

    // One detector: calibrated (Eq. 4 statistics) on core traffic only —
    // exactly what a deployment carries into a new domain.
    let mut detector = build_detector(Approach::Proposed, AggregationMean::Harmonic);
    let core_scores = score_dataset_with(&mut detector, &core);

    // Fit the threshold on the core correct-vs-partial task.
    let core_examples = task_examples(&core_scores, Task::CorrectVsPartial);
    let fitted = fit(&core_examples, Objective::MaxF1).expect("core dev split");
    println!(
        "core fit: threshold {:.3} -> F1 {:.3} (p {:.3}, r {:.3})",
        fitted.threshold, fitted.f1, fitted.precision, fitted.recall
    );

    // Score the held-out topics WITHOUT recalibrating.
    let held_scores: Vec<_> = held_out
        .iter_examples()
        .map(|(set, response)| bench::runner::LabeledScore {
            label: response.label,
            score: detector
                .score(&set.question, &set.context, &response.text)
                .score()
                .expect("fault-free verifiers never abstain"),
        })
        .collect();

    let mut record = ExperimentRecord::new(
        "ext-generalization",
        "Threshold transfer from core topics to four unseen topics (best F1)",
    );
    record.measure("core in-domain F1", fitted.f1);
    for task in [Task::CorrectVsWrong, Task::CorrectVsPartial] {
        let examples = task_examples(&held_scores, task);
        let at_transferred = eval::metrics::f1_score(&examples, fitted.threshold);
        let oracle = best_f1(&examples).expect("examples").f1;
        println!(
            "held-out {}: transferred-threshold F1 {:.3} vs oracle F1 {:.3}",
            task.label(),
            at_transferred,
            oracle
        );
        record.measure(
            format!("held-out {} transferred", task.label()),
            at_transferred,
        );
        record.measure(format!("held-out {} oracle", task.label()), oracle);
    }

    save_record(&record, std::path::Path::new(RESULTS_PATH)).expect("write results");
    println!("record appended to {RESULTS_PATH}");
}
