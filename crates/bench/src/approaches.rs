//! The approach roster of §V-C, plus the extensions DESIGN.md commits to.

use hallu_core::{AggregationMean, DetectorConfig, ResilientDetector};
use slm_runtime::profiles::{chatgpt_sim, gemma_sim, minicpm_sim, phi2_sim, qwen2_sim};
use slm_runtime::verifier::YesNoVerifier;

/// An approach compared in the paper's experiments (§V-C) or added as an
/// extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Approach {
    /// Qwen2 + MiniCPM in the proposed framework.
    Proposed,
    /// ChatGPT P(True): API-style decision on the whole response.
    ChatGpt,
    /// P(yes): single SLM on the whole response, no splitter.
    PYes,
    /// Proposed framework with only Qwen2.
    Qwen2Only,
    /// Proposed framework with only MiniCPM.
    MiniCpmOnly,
    /// Extension: proposed with confidence gating (§VI future work).
    ProposedGated,
    /// Extension: three-model ensemble (adds Phi-2).
    Ensemble3,
    /// Extension: four-model ensemble (adds Phi-2 and Gemma-2B).
    Ensemble4,
    /// Extension baseline: SelfCheck-style sampling consistency (§II's
    /// sample-and-compare family — no verifier model, K extra generations).
    SelfCheck,
}

impl Approach {
    /// The five approaches of the paper's figures, in figure order.
    pub const PAPER: [Approach; 5] = [
        Approach::Proposed,
        Approach::ChatGpt,
        Approach::PYes,
        Approach::Qwen2Only,
        Approach::MiniCpmOnly,
    ];

    /// Figure label.
    pub fn label(&self) -> &'static str {
        match self {
            Approach::Proposed => "proposed",
            Approach::ChatGpt => "chatgpt",
            Approach::PYes => "p(yes)",
            Approach::Qwen2Only => "qwen2",
            Approach::MiniCpmOnly => "minicpm",
            Approach::ProposedGated => "proposed+gate",
            Approach::Ensemble3 => "ensemble-3",
            Approach::Ensemble4 => "ensemble-4",
            Approach::SelfCheck => "selfcheck",
        }
    }
}

/// Instantiate the detector for an approach with a given aggregation mean
/// (the mean only matters for split-based approaches). Every approach runs
/// fault-free simulated verifiers through [`ResilientDetector::reliable`].
///
/// # Panics
/// Panics for [`Approach::SelfCheck`], which is not detector-based — the
/// runner scores it through [`rag::selfcheck::SelfChecker`] instead.
pub fn build_detector(approach: Approach, mean: AggregationMean) -> ResilientDetector {
    let split_cfg = DetectorConfig {
        mean,
        ..Default::default()
    };
    let whole_response_cfg = DetectorConfig {
        split: false,
        normalize: false,
        ..Default::default()
    };
    let (verifiers, config): (Vec<Box<dyn YesNoVerifier>>, DetectorConfig) = match approach {
        Approach::SelfCheck => {
            panic!("SelfCheck is generator-based; use runner::score_dataset")
        }
        Approach::Proposed => (
            vec![Box::new(qwen2_sim()), Box::new(minicpm_sim())],
            split_cfg,
        ),
        Approach::ChatGpt => (vec![Box::new(chatgpt_sim())], whole_response_cfg),
        Approach::PYes => (vec![Box::new(qwen2_sim())], whole_response_cfg),
        Approach::Qwen2Only => (vec![Box::new(qwen2_sim())], split_cfg),
        Approach::MiniCpmOnly => (vec![Box::new(minicpm_sim())], split_cfg),
        Approach::ProposedGated => (
            vec![Box::new(qwen2_sim()), Box::new(minicpm_sim())],
            DetectorConfig {
                gate_margin: Some(1.5),
                mean,
                ..Default::default()
            },
        ),
        Approach::Ensemble3 => (
            vec![
                Box::new(qwen2_sim()),
                Box::new(minicpm_sim()),
                Box::new(phi2_sim()),
            ],
            split_cfg,
        ),
        Approach::Ensemble4 => (
            vec![
                Box::new(qwen2_sim()),
                Box::new(minicpm_sim()),
                Box::new(phi2_sim()),
                Box::new(gemma_sim()),
            ],
            split_cfg,
        ),
    };
    ResilientDetector::reliable(verifiers, config).expect("every approach names a verifier")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_roster_has_five_approaches() {
        assert_eq!(Approach::PAPER.len(), 5);
        let labels: std::collections::HashSet<&str> =
            Approach::PAPER.iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn detectors_have_expected_model_counts() {
        assert_eq!(
            build_detector(Approach::Proposed, AggregationMean::Harmonic).num_models(),
            2
        );
        assert_eq!(
            build_detector(Approach::ChatGpt, AggregationMean::Harmonic).num_models(),
            1
        );
        assert_eq!(
            build_detector(Approach::Ensemble4, AggregationMean::Harmonic).num_models(),
            4
        );
    }

    #[test]
    fn baselines_do_not_split() {
        assert!(
            !build_detector(Approach::PYes, AggregationMean::Harmonic)
                .config
                .split
        );
        assert!(
            !build_detector(Approach::ChatGpt, AggregationMean::Harmonic)
                .config
                .split
        );
        assert!(
            build_detector(Approach::Proposed, AggregationMean::Harmonic)
                .config
                .split
        );
    }

    #[test]
    fn gated_variant_sets_margin() {
        let d = build_detector(Approach::ProposedGated, AggregationMean::Harmonic);
        assert!(d.config.gate_margin.is_some());
    }
}
