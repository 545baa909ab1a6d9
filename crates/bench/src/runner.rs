//! Dataset scoring and task construction.

use hallu_core::{AggregationMean, ResilientDetector};
use hallu_dataset::{Dataset, ResponseLabel};

use crate::approaches::{build_detector, Approach};

/// One scored response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabeledScore {
    /// Ground-truth label.
    pub label: ResponseLabel,
    /// Detector score `s_i`.
    pub score: f64,
}

/// The two detection tasks of the figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Detect correct responses among wrong ones — Fig. 3(a) / 4(a) / 5(a).
    CorrectVsWrong,
    /// Detect correct responses among partial ones — Fig. 3(b) / 4(b) / 5(b).
    CorrectVsPartial,
}

impl Task {
    /// Panel label used in figure titles.
    pub fn label(&self) -> &'static str {
        match self {
            Task::CorrectVsWrong => "correct-vs-wrong",
            Task::CorrectVsPartial => "correct-vs-partial",
        }
    }

    /// The hallucinated label this task discriminates against.
    pub fn negative_label(&self) -> ResponseLabel {
        match self {
            Task::CorrectVsWrong => ResponseLabel::Wrong,
            Task::CorrectVsPartial => ResponseLabel::Partial,
        }
    }
}

/// Calibrate a detector on the dataset (Eq. 4's "previous responses") and
/// score every response. Calibration uses scores only — no labels — so
/// there is no leakage.
///
/// # Panics
/// Panics if the detector abstains, which fault-free verifiers never do.
pub fn score_dataset_with(
    detector: &mut ResilientDetector,
    dataset: &Dataset,
) -> Vec<LabeledScore> {
    for set in &dataset.sets {
        for response in &set.responses {
            detector.calibrate(&set.question, &set.context, &response.text);
        }
    }
    dataset
        .iter_examples()
        .map(|(set, response)| LabeledScore {
            label: response.label,
            score: detector
                .score(&set.question, &set.context, &response.text)
                .score()
                .expect("fault-free verifiers never abstain"),
        })
        .collect()
}

/// Build, calibrate and score an approach on the dataset.
pub fn score_dataset(
    approach: Approach,
    mean: AggregationMean,
    dataset: &Dataset,
) -> Vec<LabeledScore> {
    if approach == Approach::SelfCheck {
        let checker = rag::selfcheck::SelfChecker::default();
        return dataset
            .iter_examples()
            .map(|(set, response)| LabeledScore {
                label: response.label,
                score: checker.score(&set.question, &set.context, &response.text),
            })
            .collect();
    }
    let mut detector = build_detector(approach, mean);
    score_dataset_with(&mut detector, dataset)
}

/// Restrict scored responses to a task's two classes, as (score, is_correct)
/// pairs for the sweep machinery.
pub fn task_examples(scores: &[LabeledScore], task: Task) -> Vec<(f64, bool)> {
    let negative = task.negative_label();
    scores
        .iter()
        .filter(|s| s.label == ResponseLabel::Correct || s.label == negative)
        .map(|s| (s.score, s.label == ResponseLabel::Correct))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hallu_dataset::DatasetBuilder;

    fn small_dataset() -> Dataset {
        DatasetBuilder::new(99, 12).build()
    }

    #[test]
    fn scores_cover_every_response() {
        let d = small_dataset();
        let scores = score_dataset(Approach::Proposed, AggregationMean::Harmonic, &d);
        assert_eq!(scores.len(), 36);
    }

    #[test]
    fn task_examples_filter_classes() {
        let d = small_dataset();
        let scores = score_dataset(Approach::PYes, AggregationMean::Harmonic, &d);
        let vs_wrong = task_examples(&scores, Task::CorrectVsWrong);
        assert_eq!(vs_wrong.len(), 24); // 12 correct + 12 wrong
        assert_eq!(vs_wrong.iter().filter(|e| e.1).count(), 12);
    }

    #[test]
    fn proposed_separates_correct_from_wrong() {
        let d = small_dataset();
        let scores = score_dataset(Approach::Proposed, AggregationMean::Harmonic, &d);
        let mean_of = |label: ResponseLabel| {
            let v: Vec<f64> = scores
                .iter()
                .filter(|s| s.label == label)
                .map(|s| s.score)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let c = mean_of(ResponseLabel::Correct);
        let p = mean_of(ResponseLabel::Partial);
        let w = mean_of(ResponseLabel::Wrong);
        assert!(c > p, "correct {c} vs partial {p}");
        assert!(p > w, "partial {p} vs wrong {w}");
    }

    #[test]
    fn chatgpt_scores_are_binary() {
        // The API baseline only observes decisions; scores collapse to the
        // two ends of the scale (the 0 end passes through the harmonic
        // mean's positivity epsilon).
        let d = small_dataset();
        let scores = score_dataset(Approach::ChatGpt, AggregationMean::Harmonic, &d);
        assert!(
            scores
                .iter()
                .all(|s| s.score < 1e-3 || s.score > 1.0 - 1e-3),
            "{scores:?}"
        );
    }

    #[test]
    fn scoring_is_deterministic() {
        let d = small_dataset();
        let a = score_dataset(Approach::Proposed, AggregationMean::Harmonic, &d);
        let b = score_dataset(Approach::Proposed, AggregationMean::Harmonic, &d);
        assert_eq!(a, b);
    }
}
