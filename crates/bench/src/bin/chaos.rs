//! Chaos experiment: detection quality under injected verifier faults.
//!
//! Sweeps fault rates × failure policies through the resilient runtime and
//! reports F1-vs-fault-rate plus the abstention fraction, demonstrating:
//!
//! (a) at 0% faults the fault injector is a bitwise no-op: every score
//!     equals the fault-free detector's (`ResilientDetector::reliable`);
//! (b) with one of the two models hard-down, detection still runs and F1
//!     degrades gracefully to exactly the single-SLM level;
//! (c) with every model down the detector abstains — it never fabricates a
//!     score.
//!
//! Fully deterministic for a fixed seed: all fault draws are keyed by
//! (seed, model, request text, attempt), never by call order.

use bench::approaches::{build_detector, Approach};
use bench::handbook;
use bench::runner::{score_dataset_with, task_examples, LabeledScore, Task};
use bench::{save_record, RESULTS_PATH};
use eval::report::ExperimentRecord;
use eval::sweep::best_f1;
use hallu_core::{AggregationMean, ResilientDetector};
use hallu_dataset::{Dataset, DatasetBuilder};
use rag::FailurePolicy;
use slm_runtime::FaultProfile;

const DATASET_SEED: u64 = 0xC4A05;
const DATASET_SETS: usize = 60;
const FAULT_SEEDS: [u64; 2] = [1101, 2202];

/// Aggregate counters over one dataset pass.
#[derive(Debug, Default, Clone, Copy)]
struct ChaosTally {
    responses: usize,
    abstained: usize,
    retries: u64,
    timeouts: u64,
    quarantined: u64,
    breaker_trips: u64,
    breaker_skips: u64,
}

/// Calibrate and score the dataset through the resilient runtime.
/// `None` marks an abstained response.
fn score_resilient(
    detector: &mut ResilientDetector,
    dataset: &Dataset,
) -> (Vec<(Option<f64>, hallu_dataset::ResponseLabel)>, ChaosTally) {
    for set in &dataset.sets {
        for response in &set.responses {
            detector.calibrate(&set.question, &set.context, &response.text);
        }
    }
    let mut tally = ChaosTally::default();
    let scored = dataset
        .iter_examples()
        .map(|(set, response)| {
            let verdict = detector.score(&set.question, &set.context, &response.text);
            tally.responses += 1;
            let t = verdict.telemetry();
            tally.retries += t.retries;
            tally.timeouts += t.timeouts;
            tally.quarantined += t.quarantined;
            tally.breaker_trips += t.breaker_trips;
            tally.breaker_skips += t.breaker_skips;
            if verdict.is_abstain() {
                tally.abstained += 1;
            }
            (verdict.score(), response.label)
        })
        .collect();
    (scored, tally)
}

/// Apply a failure policy to abstentions and compute best F1 on a task.
/// Fail-open serves unverified (score 1.0 — always accepted), fail-closed
/// blocks (score 0.0), abstain drops the response from evaluation.
fn policy_f1(
    scored: &[(Option<f64>, hallu_dataset::ResponseLabel)],
    policy: FailurePolicy,
    task: Task,
) -> Option<f64> {
    let labeled: Vec<LabeledScore> = scored
        .iter()
        .filter_map(|&(score, label)| {
            let score = match (score, policy) {
                (Some(s), _) => s,
                (None, FailurePolicy::FailOpen) => 1.0,
                (None, FailurePolicy::FailClosed) => 0.0,
                (None, FailurePolicy::Abstain) => return None,
            };
            Some(LabeledScore { label, score })
        })
        .collect();
    best_f1(&task_examples(&labeled, task)).map(|p| p.f1)
}

fn policy_label(policy: FailurePolicy) -> &'static str {
    match policy {
        FailurePolicy::FailOpen => "fail-open",
        FailurePolicy::FailClosed => "fail-closed",
        FailurePolicy::Abstain => "abstain",
    }
}

fn main() {
    let dataset = DatasetBuilder::new(DATASET_SEED, DATASET_SETS).build();
    let mut record = ExperimentRecord::new(
        "ext-chaos",
        "Detection quality under injected verifier faults",
    );

    // (a) Zero faults: the fault injector is a bitwise no-op.
    {
        let mut fault_free = build_detector(Approach::Proposed, AggregationMean::Harmonic);
        let fault_free_scores = score_dataset_with(&mut fault_free, &dataset);
        let mut res = handbook::detector(
            [
                FaultProfile::none(FAULT_SEEDS[0]),
                FaultProfile::none(FAULT_SEEDS[1]),
            ],
            None,
        );
        let (scored, tally) = score_resilient(&mut res, &dataset);
        assert_eq!(tally.abstained, 0, "no faults, no abstentions");
        for (p, (s, _)) in fault_free_scores.iter().zip(&scored) {
            assert_eq!(
                p.score.to_bits(),
                s.expect("scored").to_bits(),
                "zero-fault score must equal the fault-free score bitwise"
            );
        }
        println!(
            "(a) zero faults: {} responses, all scores bitwise-identical to the fault-free detector",
            tally.responses
        );
        record.measure("zero-fault bitwise-identical", 1.0);
    }

    // (b) One model hard-down: graceful degradation to the single-SLM level.
    {
        let mut down = handbook::detector(
            [
                FaultProfile::none(FAULT_SEEDS[0]),
                FaultProfile::down(FAULT_SEEDS[1]),
            ],
            None,
        );
        let (scored, tally) = score_resilient(&mut down, &dataset);
        assert_eq!(
            tally.abstained, 0,
            "one live model must keep detection running"
        );
        let mut single = build_detector(Approach::Qwen2Only, AggregationMean::Harmonic);
        let single_scores = score_dataset_with(&mut single, &dataset);
        for (p, (s, _)) in single_scores.iter().zip(&scored) {
            assert_eq!(
                p.score.to_bits(),
                s.expect("scored").to_bits(),
                "surviving-model scores must equal the single-SLM detector's"
            );
        }
        for task in [Task::CorrectVsWrong, Task::CorrectVsPartial] {
            let f1_down = policy_f1(&scored, FailurePolicy::Abstain, task).expect("examples");
            println!(
                "(b) minicpm hard-down ({}): F1 {:.3} == single-SLM qwen2 level \
                 (breaker trips {}, skips {})",
                task.label(),
                f1_down,
                tally.breaker_trips,
                tally.breaker_skips,
            );
            record.measure(format!("one-down f1 {}", task.label()), f1_down);
        }
        record.measure("one-down breaker trips", tally.breaker_trips as f64);
    }

    // (c) Total outage: abstain, never fabricate.
    {
        let mut dead = handbook::detector(
            [
                FaultProfile::down(FAULT_SEEDS[0]),
                FaultProfile::down(FAULT_SEEDS[1]),
            ],
            None,
        );
        let (scored, tally) = score_resilient(&mut dead, &dataset);
        assert_eq!(
            tally.abstained, tally.responses,
            "with every model down the detector must abstain on every response"
        );
        assert!(
            scored.iter().all(|(s, _)| s.is_none()),
            "no fabricated scores"
        );
        println!(
            "(c) total outage: {}/{} responses abstained (no fabricated scores)",
            tally.abstained, tally.responses
        );
        record.measure("total-outage abstention fraction", 1.0);
    }

    // Sweep: fault rate × failure policy.
    println!(
        "\n{:>6}  {:>9}  {:>11}  {:>11}  {:>9}  {:>8}  {:>8}  {:>6}",
        "rate", "abstain%", "f1-open", "f1-closed", "f1-drop", "retries", "timeouts", "trips"
    );
    for rate in [0.0, 0.05, 0.1, 0.2, 0.3, 0.5] {
        let mut det = handbook::detector(
            [
                FaultProfile::uniform(FAULT_SEEDS[0], rate),
                FaultProfile::uniform(FAULT_SEEDS[1], rate),
            ],
            None,
        );
        let (scored, tally) = score_resilient(&mut det, &dataset);
        let abstain_frac = tally.abstained as f64 / tally.responses as f64;
        let task = Task::CorrectVsWrong;
        let mut f1s = Vec::new();
        for policy in [
            FailurePolicy::FailOpen,
            FailurePolicy::FailClosed,
            FailurePolicy::Abstain,
        ] {
            let f1 = policy_f1(&scored, policy, task).unwrap_or(f64::NAN);
            record.measure(
                format!("f1 rate={rate} policy={}", policy_label(policy)),
                f1,
            );
            f1s.push(f1);
        }
        record.measure(format!("abstain-fraction rate={rate}"), abstain_frac);
        println!(
            "{:>6.2}  {:>8.1}%  {:>11.3}  {:>11.3}  {:>9.3}  {:>8}  {:>8}  {:>6}",
            rate,
            abstain_frac * 100.0,
            f1s[0],
            f1s[1],
            f1s[2],
            tally.retries,
            tally.timeouts,
            tally.breaker_trips,
        );
    }

    save_record(&record, std::path::Path::new(RESULTS_PATH)).expect("write results");
    println!("\nrecord appended to {RESULTS_PATH}");
}
