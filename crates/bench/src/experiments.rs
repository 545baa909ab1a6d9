//! Per-figure experiment implementations.
//!
//! Each `figN` function regenerates the corresponding paper figure on the
//! synthetic dataset, prints the figure as ASCII, and returns the records
//! for EXPERIMENTS-results.json. Paper reference values come from the text
//! of §V-D/E/F; values the paper only shows graphically are omitted, values
//! derivable from its stated deltas (e.g. "11% better than ChatGPT") are
//! included and marked derived in EXPERIMENTS.md.

use eval::histogram::Histogram;
use eval::report::{render_bars, render_comparison, Bar, ExperimentRecord};
use eval::sweep::{best_f1, best_precision_with_min_recall};
use hallu_core::AggregationMean;
use hallu_dataset::{Dataset, DatasetBuilder, ResponseLabel};

use crate::approaches::{build_detector, Approach};
use crate::runner::{score_dataset, task_examples, LabeledScore, Task};

/// The evaluation dataset every figure runs on: 120 sets (the paper uses
/// "over 100"), fixed seed.
pub fn evaluation_dataset() -> Dataset {
    DatasetBuilder::default().build()
}

/// Fig. 3 — best F1 per approach on both tasks.
pub fn fig3(dataset: &Dataset) -> Vec<ExperimentRecord> {
    let mut records = Vec::new();
    let per_approach: Vec<(Approach, Vec<LabeledScore>)> = Approach::PAPER
        .iter()
        .map(|&a| (a, score_dataset(a, AggregationMean::Harmonic, dataset)))
        .collect();

    for (panel, task) in [
        ("fig3a", Task::CorrectVsWrong),
        ("fig3b", Task::CorrectVsPartial),
    ] {
        let mut record = ExperimentRecord::new(
            panel,
            format!("Best F1 detecting correct responses ({})", task.label()),
        );
        match task {
            Task::CorrectVsWrong => {
                record.reference("p(yes)", 0.89); // stated: "P(yes) being the lowest at 0.89"
            }
            Task::CorrectVsPartial => {
                record.reference("proposed", 0.81); // stated
                record.reference("chatgpt", 0.81 / 1.11); // derived from "+11%"
                record.reference("p(yes)", 0.81 / 1.066); // derived from "+6.6%"
            }
        }
        for (approach, scores) in &per_approach {
            let examples = task_examples(scores, task);
            let best = best_f1(&examples).expect("non-empty task examples");
            record.measure(approach.label(), best.f1);
        }
        println!("{}", render_bars(&record.title, &record.measured, 40));
        println!("{}", render_comparison(&record));
        records.push(record);
    }
    records
}

/// Fig. 4 — best precision with recall ≥ 0.5, and that recall.
pub fn fig4(dataset: &Dataset) -> Vec<ExperimentRecord> {
    let mut records = Vec::new();
    let per_approach: Vec<(Approach, Vec<LabeledScore>)> = Approach::PAPER
        .iter()
        .map(|&a| (a, score_dataset(a, AggregationMean::Harmonic, dataset)))
        .collect();

    for (panel, task) in [
        ("fig4a", Task::CorrectVsWrong),
        ("fig4b", Task::CorrectVsPartial),
    ] {
        let mut record = ExperimentRecord::new(
            panel,
            format!(
                "Best precision (r >= 0.5) detecting correct responses ({})",
                task.label()
            ),
        );
        if task == Task::CorrectVsWrong {
            // stated in §V-D for Fig. 4(a)
            record.reference("qwen2 p", 0.89);
            record.reference("qwen2 r", 0.56);
            record.reference("minicpm p", 0.92);
            record.reference("minicpm r", 0.53);
        }
        let mut bars = Vec::new();
        for (approach, scores) in &per_approach {
            let examples = task_examples(scores, task);
            // The binary ChatGPT baseline may have no threshold reaching
            // r >= 0.5 with nontrivial precision; fall back to its single
            // operating point.
            let point = best_precision_with_min_recall(&examples, 0.5)
                .or_else(|| best_f1(&examples))
                .expect("non-empty task examples");
            record.measure(format!("{} p", approach.label()), point.precision);
            record.measure(format!("{} r", approach.label()), point.recall);
            bars.push(Bar {
                label: format!("{} p", approach.label()),
                value: point.precision,
            });
            bars.push(Bar {
                label: format!("{} r", approach.label()),
                value: point.recall,
            });
        }
        println!("{}", render_bars(&record.title, &bars, 40));
        println!("{}", render_comparison(&record));
        records.push(record);
    }
    records
}

/// Fig. 5 — best F1 of the proposed framework under each aggregation mean.
pub fn fig5(dataset: &Dataset) -> Vec<ExperimentRecord> {
    let mut records = Vec::new();
    for (panel, task) in [
        ("fig5a", Task::CorrectVsWrong),
        ("fig5b", Task::CorrectVsPartial),
    ] {
        let mut record = ExperimentRecord::new(
            panel,
            format!("Best F1 per aggregation mean ({})", task.label()),
        );
        match task {
            Task::CorrectVsWrong => {
                record.reference("max", 0.99); // stated: highest 0.99 for max
            }
            Task::CorrectVsPartial => {
                record.reference("harmonic", 0.81); // stated best
                record.reference("min", 0.66); // stated worst
            }
        }
        for mean in AggregationMean::ALL {
            let scores = score_dataset(Approach::Proposed, mean, dataset);
            let examples = task_examples(&scores, task);
            let best = best_f1(&examples).expect("non-empty task examples");
            record.measure(mean.as_str(), best.f1);
        }
        println!("{}", render_bars(&record.title, &record.measured, 40));
        println!("{}", render_comparison(&record));
        records.push(record);
    }
    records
}

/// Build a per-label histogram from scored responses.
fn label_histogram(scores: &[LabeledScore], bins: usize) -> Histogram {
    let mut h = Histogram::new(bins);
    for s in scores {
        h.record(s.label.as_str(), s.score);
    }
    h
}

/// Record the per-label approximate means of a histogram.
fn record_histogram(record: &mut ExperimentRecord, prefix: &str, h: &Histogram) {
    for label in ResponseLabel::ALL {
        if let Some(m) = h.approx_mean(label.as_str()) {
            record.measure(format!("{prefix} mean[{label}]"), m);
        }
    }
}

/// Fig. 6 — score distributions by label: (a) proposed, (b) P(yes).
pub fn fig6(dataset: &Dataset) -> Vec<ExperimentRecord> {
    let mut record =
        ExperimentRecord::new("fig6", "Score distributions by label: proposed vs P(yes)");
    let mut records = Vec::new();
    for (panel, approach) in [
        ("(a) proposed", Approach::Proposed),
        ("(b) p(yes)", Approach::PYes),
    ] {
        let scores = score_dataset(approach, AggregationMean::Harmonic, dataset);
        let h = label_histogram(&scores, 10);
        println!("Fig. 6 {panel} — histogram of s_i by label");
        println!("{}", h.render());
        record_histogram(&mut record, approach.label(), &h);

        // The separation statistic the figure argues visually: the gap
        // between correct and partial mean scores.
        let gap = h.approx_mean("correct").unwrap_or(0.0) - h.approx_mean("partial").unwrap_or(0.0);
        record.measure(format!("{} correct-partial gap", approach.label()), gap);
    }
    records.push(record);
    records
}

/// Fig. 7 — score distributions under geometric vs harmonic aggregation.
pub fn fig7(dataset: &Dataset) -> Vec<ExperimentRecord> {
    let mut record = ExperimentRecord::new(
        "fig7",
        "Score distributions by label: geometric vs harmonic mean",
    );
    let mut records = Vec::new();
    for (panel, mean) in [
        ("(a) geometric", AggregationMean::Geometric),
        ("(b) harmonic", AggregationMean::Harmonic),
    ] {
        let scores = score_dataset(Approach::Proposed, mean, dataset);
        let h = label_histogram(&scores, 10);
        println!("Fig. 7 {panel} — histogram of s_i by label");
        println!("{}", h.render());
        record_histogram(&mut record, mean.as_str(), &h);
    }
    records.push(record);
    records
}

/// Table I — the three contradiction types, scored by the proposed detector.
///
/// The paper's Table I is illustrative; we reproduce it as a behavioural
/// check: for each contradiction type, the hallucinated response must score
/// clearly below a faithful response to the same prompt.
pub fn table1() -> Vec<ExperimentRecord> {
    let cases = [
        (
            "logical",
            "Can you introduce Madison?",
            "The city of Madison has over 500 thousand residents. Big cities like Madison are \
             busy urban centers.",
            "The city of Madison has over 500 thousand residents. It is known for its \
             small-town charm and quiet atmosphere with a population of 500 residents.",
            "The city of Madison has over 500 thousand residents.",
        ),
        (
            "prompt",
            "Describe a healthy breakfast that includes fruits and whole grains.",
            "A healthy breakfast includes fruits and whole grains. Oatmeal with berries is a \
             great choice for breakfast.",
            "A bowl of sugary cereal with milk and a side of bacon is a great choice for \
             breakfast.",
            "A healthy breakfast includes fruits and whole grains such as oatmeal with berries.",
        ),
        (
            "factual",
            "What are the main ingredients in a traditional Margherita pizza?",
            "A traditional Margherita pizza is made with tomatoes, mozzarella cheese and fresh \
             basil. The dough uses flour, water, salt and yeast.",
            "A traditional Margherita pizza is made with tomatoes, mozzarella cheese and fresh \
             basil. The secret key ingredient of the pizza is a layer of sweet chocolate.",
            "A traditional Margherita pizza is made with tomatoes, mozzarella cheese and fresh \
             basil. The dough uses flour, water, salt and yeast.",
        ),
    ];

    let mut record = ExperimentRecord::new(
        "table1",
        "Contradiction types: faithful vs hallucinated score",
    );
    println!("Table I — contradiction types under the proposed detector\n");
    for (kind, question, context, hallucinated, faithful) in cases {
        let mut detector = build_detector(Approach::Proposed, AggregationMean::Harmonic);
        // calibrate on both responses plus the context itself
        for r in [faithful, hallucinated, context] {
            detector.calibrate(question, context, r);
        }
        let score = |response| {
            detector
                .score(question, context, response)
                .score()
                .expect("fault-free verifiers never abstain")
        };
        let good = score(faithful);
        let bad = score(hallucinated);
        println!("  {kind:<8} faithful {good:.3}  hallucinated {bad:.3}");
        record.measure(format!("{kind} faithful"), good);
        record.measure(format!("{kind} hallucinated"), bad);
    }
    println!();
    vec![record]
}

/// Extension — ensemble-size sweep M ∈ {1..4} (§VI future work: "better
/// integration of SLMs"). Reports best F1 on the harder task per M, plus
/// the confidence-gated variant.
pub fn ensemble_sweep(dataset: &Dataset) -> Vec<ExperimentRecord> {
    let mut record = ExperimentRecord::new(
        "ext-ensemble",
        "Best F1 (correct-vs-partial) as the ensemble grows, plus gating",
    );
    let roster = [
        ("M=1 (qwen2)", Approach::Qwen2Only),
        ("M=2 (proposed)", Approach::Proposed),
        ("M=3 (+phi2)", Approach::Ensemble3),
        ("M=4 (+gemma)", Approach::Ensemble4),
        ("M=2 gated", Approach::ProposedGated),
    ];
    for (label, approach) in roster {
        let scores = score_dataset(approach, AggregationMean::Harmonic, dataset);
        let examples = task_examples(&scores, Task::CorrectVsPartial);
        let best = best_f1(&examples).expect("non-empty task examples");
        record.measure(label, best.f1);
    }
    println!("{}", render_bars(&record.title, &record.measured, 40));
    vec![record]
}

/// Extension — Eq. 4 ablation: the proposed detector with per-model
/// normalization disabled (raw probability averaging).
pub fn normalization_ablation(dataset: &Dataset) -> Vec<ExperimentRecord> {
    let mut record = ExperimentRecord::new(
        "ext-normalization",
        "Effect of Eq. 4 normalization on best F1 (correct-vs-partial)",
    );
    for (label, normalize) in [("with Eq.4 (proposed)", true), ("without Eq.4", false)] {
        let mut detector = build_detector(Approach::Proposed, AggregationMean::Harmonic);
        detector.config.normalize = normalize;
        let scores = crate::runner::score_dataset_with(&mut detector, dataset);
        let examples = task_examples(&scores, Task::CorrectVsPartial);
        let best = best_f1(&examples).expect("non-empty task examples");
        record.measure(label, best.f1);
    }
    println!("{}", render_bars(&record.title, &record.measured, 40));
    vec![record]
}

/// Extension — related-work baseline: SelfCheck-style sampling consistency
/// (the sample-and-compare family of §II) against the proposed framework.
pub fn selfcheck_baseline(dataset: &Dataset) -> Vec<ExperimentRecord> {
    let mut record = ExperimentRecord::new(
        "ext-selfcheck",
        "Proposed framework vs SelfCheck-style sampling baseline (best F1)",
    );
    for (approach, label) in [
        (Approach::Proposed, "proposed"),
        (Approach::SelfCheck, "selfcheck"),
    ] {
        let scores = score_dataset(approach, AggregationMean::Harmonic, dataset);
        for (task, suffix) in [
            (Task::CorrectVsWrong, "vs-wrong"),
            (Task::CorrectVsPartial, "vs-partial"),
        ] {
            let best = best_f1(&task_examples(&scores, task)).expect("non-empty task examples");
            record.measure(format!("{label} {suffix}"), best.f1);
        }
    }
    println!("{}", render_bars(&record.title, &record.measured, 40));
    vec![record]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        DatasetBuilder::new(123, 24).build()
    }

    #[test]
    fn fig3_produces_two_panels_with_five_bars() {
        let records = fig3(&tiny());
        assert_eq!(records.len(), 2);
        for r in &records {
            assert_eq!(r.measured.len(), 5);
            assert!(r.measured.iter().all(|b| (0.0..=1.0).contains(&b.value)));
        }
    }

    #[test]
    fn fig3_shape_matches_paper() {
        // Key qualitative claims: (a) everything is strong; (b) proposed is
        // best and beats both baselines; partial is harder than wrong.
        let records = fig3(&evaluation_dataset());
        let a = &records[0];
        let b = &records[1];
        for bar in &a.measured {
            assert!(bar.value >= 0.75, "fig3a {}: {}", bar.label, bar.value);
        }
        let get = |r: &ExperimentRecord, l: &str| r.measured_value(l).unwrap();
        assert!(
            get(b, "proposed") > get(b, "chatgpt"),
            "proposed must beat chatgpt on partial"
        );
        assert!(
            get(b, "proposed") > get(b, "p(yes)"),
            "proposed must beat p(yes) on partial"
        );
        assert!(
            get(a, "proposed") > get(b, "proposed"),
            "partial task must be harder than wrong task"
        );
    }

    #[test]
    fn fig5_includes_all_means() {
        let records = fig5(&tiny());
        assert_eq!(records[0].measured.len(), 5);
        let labels: Vec<&str> = records[0]
            .measured
            .iter()
            .map(|b| b.label.as_str())
            .collect();
        assert!(labels.contains(&"harmonic") && labels.contains(&"max"));
    }

    #[test]
    fn fig6_reports_separation_gap() {
        let records = fig6(&tiny());
        let r = &records[0];
        assert!(r.measured_value("proposed correct-partial gap").is_some());
        assert!(r.measured_value("p(yes) correct-partial gap").is_some());
    }

    #[test]
    fn table1_hallucinations_score_lower() {
        let records = table1();
        let r = &records[0];
        for kind in ["logical", "prompt", "factual"] {
            let good = r.measured_value(&format!("{kind} faithful")).unwrap();
            let bad = r.measured_value(&format!("{kind} hallucinated")).unwrap();
            assert!(good > bad, "{kind}: faithful {good} vs hallucinated {bad}");
        }
    }
}
