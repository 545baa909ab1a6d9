//! Quantized-engine sweep: int8 prefill throughput vs f32, the
//! detection-AUC eval gate for int8 and mixed-precision ensembles, and the
//! bitwise reproducibility contract.
//!
//! Claims, each checked as a gate so the sweep doubles as a regression gate
//! (the `quant_speedup ...` / `quant_auc_delta ...` / `quant_rerun ...` lines
//! are grepped by the CI `quant-smoke` job). Every gate runs; the sweep then
//! names each failed gate with its measured value and bound and exits
//! non-zero, and saves its record only when all of them pass:
//!
//! 1. **Prefill speedup** — the int8 engine's blocked prefill is ≥ 2× the
//!    f32 engine at realistic prefix lengths (≥ 64 tokens): the median of
//!    per-pair ratios over alternating f32/int8 samples
//!    ([`bench::sweep::paired`]). Measured on the
//!    GEMM-bound [`ModelConfig::qwen2_wide`] shape. Every weight matrix here
//!    fits in L2, so the GEMMs are bound by instructions, not weight bytes:
//!    int8 wins because each `pmaddwd` lane adds two exact `i16` products
//!    into its own output, with no horizontal reduction. At the miniature
//!    `hidden = 96` profile the int8 GEMM wins too, but precision-independent
//!    work (the O(n²) attention walk with its softmax, RoPE, norms, SwiGLU)
//!    is a larger share of the prefill, so the end-to-end ratio is smaller.
//! 2. **Eval gate** — on the golden synthetic dataset, an all-int8 ensemble
//!    and a mixed ensemble (int8 screeners + f32 tie-breaker) reach a
//!    detection AUC within tolerance of the all-f32 baseline. Quantization
//!    may perturb probabilities; it must not change what the detector is
//!    good at.
//! 3. **Reproducibility** — a full rerun from the same (seed, config)
//!    reproduces every int8 logit bit and every AUC digit.

use std::process::ExitCode;

use bench::sweep::{bits, paired, tokens};
use bench::{save_record, RESULTS_PATH};
use eval::report::ExperimentRecord;
use eval::roc::auc;
use hallu_core::{DetectorConfig, ResilientDetector};
use hallu_dataset::{DatasetBuilder, ResponseLabel};
use slm_runtime::bpe::Bpe;
use slm_runtime::verifier::YesNoVerifier;
use slm_runtime::{
    engine_profile, InferenceModel, ModelConfig, Precision, QuantizedLM, TransformerLM,
};

const VOCAB: usize = 8192;
const MODEL_SEED: u64 = 0x1A8;
const PREFIX_LENS: [usize; 4] = [16, 64, 128, 256];
/// Headline floor: int8 prefill must be at least this many times faster
/// than f32 at every prefix length ≥ 64.
const SPEEDUP_FLOOR: f64 = 2.0;
/// Eval-gate tolerance: |AUC(quantized ensemble) − AUC(f32 ensemble)| on
/// the correct-vs-wrong task must stay within this band.
const AUC_TOLERANCE: f64 = 0.05;
/// Golden-dataset seed and size for the eval gate.
const EVAL_SEED: u64 = 1105;
const EVAL_SETS: usize = 24;

/// One full prefill (cache build + final logits) for `model`.
fn prefill<M: InferenceModel>(model: &M, prompt: &[u32]) {
    let mut cache = model.new_cache_with_capacity(prompt.len());
    std::hint::black_box(model.prefill(prompt, &mut cache));
}

/// Per-response detection scores of `detector` on the correct-vs-wrong task
/// over `dataset`, after calibrating on every response (higher score = more
/// likely correct; `true` marks the positive/correct class). Returned in
/// dataset order so score vectors from different detectors align.
fn detection_scores(
    detector: &mut ResilientDetector,
    dataset: &hallu_dataset::Dataset,
) -> Vec<(f64, bool)> {
    for set in &dataset.sets {
        for r in &set.responses {
            detector.calibrate(&set.question, &set.context, &r.text);
        }
    }
    let mut examples = Vec::new();
    for set in &dataset.sets {
        for label in [ResponseLabel::Correct, ResponseLabel::Wrong] {
            let r = set.response(label);
            let score = detector
                .score(&set.question, &set.context, &r.text)
                .score()
                .expect("fault-free verifiers never abstain");
            examples.push((score, label == ResponseLabel::Correct));
        }
    }
    examples
}

fn main() -> ExitCode {
    // Each failed gate, with its measured value and bound.
    let mut failed: Vec<String> = Vec::new();
    let cfg = ModelConfig::qwen2_wide(VOCAB);
    let f32_model = TransformerLM::synthetic(cfg.clone(), MODEL_SEED);
    let int8_model =
        QuantizedLM::synthetic(cfg.clone().with_precision(Precision::Int8), MODEL_SEED);
    let mut record = ExperimentRecord::new(
        "ext-quant",
        "Int8 engine: prefill speedup vs f32, ensemble AUC eval gate, bitwise rerun",
    );

    // ---- Part 1: prefill throughput, f32 vs int8 ----
    println!(
        "{:>6}  {:>12}  {:>12}  {:>8}",
        "prefix", "f32 us", "int8 us", "speedup"
    );
    let mut speedup_at_realistic = f64::INFINITY;
    for &plen in &PREFIX_LENS {
        let prompt = tokens(plen as u64, plen, VOCAB);
        let timed = paired(
            || prefill(&f32_model, &prompt),
            || prefill(&int8_model, &prompt),
        );
        let (f32_s, int8_s, speedup) = (timed.a_s, timed.b_s, timed.ratio);
        if plen >= 64 {
            speedup_at_realistic = speedup_at_realistic.min(speedup);
        }
        println!(
            "{plen:>6}  {:>12.0}  {:>12.0}  {speedup:>7.2}x",
            f32_s * 1e6,
            int8_s * 1e6
        );
        // Stable grep target for the CI quant-smoke job.
        println!("quant_speedup prefix={plen} {speedup:.2}");
        record.measure(format!("prefill speedup prefix={plen}"), speedup);
        record.measure(
            format!("int8 prefill tok/s prefix={plen}"),
            plen as f64 / int8_s,
        );
        record.measure(
            format!("f32 prefill tok/s prefix={plen}"),
            plen as f64 / f32_s,
        );
    }
    if speedup_at_realistic < SPEEDUP_FLOOR {
        failed.push(format!(
            "headline claim: int8 prefill must be >= {SPEEDUP_FLOOR}x f32 at prefix >= 64 \
             (got {speedup_at_realistic:.2}x)"
        ));
    }

    // Calibration summary: the largest per-channel weight scale bounds the
    // worst per-element dequantization error (scale/2).
    let f32_weights = slm_runtime::weights::ModelWeights::synthetic(&cfg, MODEL_SEED);
    let qweights = slm_runtime::QuantizedWeights::quantize(&f32_weights);
    let f32_bytes = f32_weights.num_parameters() * 4;
    println!(
        "calibration: max weight scale {:.6}, int8 projections {} bytes \
         (resident {} bytes) vs f32 {} bytes",
        qweights.max_weight_scale(),
        qweights.quantized_bytes(),
        qweights.memory_bytes(),
        f32_bytes
    );
    record.measure("max weight scale", f64::from(qweights.max_weight_scale()));
    record.measure(
        "int8/f32 resident bytes",
        qweights.memory_bytes() as f64 / f32_bytes as f64,
    );

    // ---- Part 2: the AUC eval gate on engine ensembles ----
    let dataset = DatasetBuilder::new(EVAL_SEED, EVAL_SETS).build();
    let corpus: Vec<String> = dataset
        .sets
        .iter()
        .flat_map(|s| {
            std::iter::once(s.context.clone())
                .chain(std::iter::once(s.question.clone()))
                .chain(s.responses.iter().map(|r| r.text.clone()))
        })
        .collect();
    let corpus_refs: Vec<&str> = corpus.iter().map(String::as_str).collect();
    let bpe = Bpe::train(&corpus_refs, 400);
    let engine_cfg = ModelConfig::tiny(bpe.vocab_size());

    // Each member's precision lives in its own ModelConfig.
    let scores_of = |precisions: &[Precision]| -> Vec<(f64, bool)> {
        let members: Vec<Box<dyn YesNoVerifier>> = precisions
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                engine_profile(
                    format!("engine-{i}-{}", p.label()),
                    engine_cfg.clone().with_precision(p),
                    40 + i as u64,
                    bpe.clone(),
                )
            })
            .collect();
        let mut d = ResilientDetector::reliable(members, DetectorConfig::default())
            .expect("non-empty ensemble");
        detection_scores(&mut d, &dataset)
    };
    /// Mean and max absolute per-response score drift between two aligned
    /// score vectors — the direct measure of how far quantization moves the
    /// detector's outputs, independent of the AUC baseline.
    fn score_drift(a: &[(f64, bool)], b: &[(f64, bool)]) -> (f64, f64) {
        let diffs: Vec<f64> = a
            .iter()
            .zip(b)
            .map(|(&(x, _), &(y, _))| (x - y).abs())
            .collect();
        let mean = diffs.iter().sum::<f64>() / diffs.len() as f64;
        let max = diffs.iter().fold(0.0f64, |m, &d| m.max(d));
        (mean, max)
    }

    use Precision::{Int8, F32};
    let scores_f32 = scores_of(&[F32, F32, F32]);
    let scores_int8 = scores_of(&[Int8, Int8, Int8]);
    let scores_mixed = scores_of(&[Int8, Int8, F32]);
    let auc_f32 = auc(&scores_f32);
    let auc_int8 = auc(&scores_int8);
    let auc_mixed = auc(&scores_mixed);
    let delta_int8 = (auc_int8 - auc_f32).abs();
    let delta_mixed = (auc_mixed - auc_f32).abs();
    let (drift_int8_mean, drift_int8_max) = score_drift(&scores_f32, &scores_int8);
    let (drift_mixed_mean, drift_mixed_max) = score_drift(&scores_f32, &scores_mixed);
    println!("\nAUC  f32 {auc_f32:.4}  int8 {auc_int8:.4}  mixed {auc_mixed:.4}");
    println!(
        "score drift vs f32: int8 mean {drift_int8_mean:.4} max {drift_int8_max:.4}, \
         mixed mean {drift_mixed_mean:.4} max {drift_mixed_max:.4}"
    );
    println!("quant_auc_delta int8 {delta_int8:.4}");
    println!("quant_auc_delta mixed {delta_mixed:.4}");
    if delta_int8 > AUC_TOLERANCE {
        failed.push(format!(
            "eval gate: all-int8 AUC drifted {delta_int8:.4} from f32 (tolerance {AUC_TOLERANCE})"
        ));
    }
    if delta_mixed > AUC_TOLERANCE {
        failed.push(format!(
            "eval gate: mixed AUC drifted {delta_mixed:.4} from f32 (tolerance {AUC_TOLERANCE})"
        ));
    }
    if drift_int8_mean > AUC_TOLERANCE || drift_mixed_mean > AUC_TOLERANCE {
        failed.push(format!(
            "eval gate: mean per-response score drift vs f32 exceeds {AUC_TOLERANCE} \
             (int8 {drift_int8_mean:.4}, mixed {drift_mixed_mean:.4})"
        ));
    }
    record.measure("auc f32", auc_f32);
    record.measure("auc int8", auc_int8);
    record.measure("auc mixed", auc_mixed);
    record.measure("auc delta int8", delta_int8);
    record.measure("auc delta mixed", delta_mixed);
    record.measure("score drift int8 mean", drift_int8_mean);
    record.measure("score drift mixed mean", drift_mixed_mean);

    // ---- Part 3: bitwise reproducibility from (seed, config) ----
    let rerun_model = QuantizedLM::synthetic(cfg.with_precision(Precision::Int8), MODEL_SEED);
    let probe = tokens(0xBEEF, 96, VOCAB);
    let mut c1 = int8_model.new_cache_with_capacity(probe.len());
    let mut c2 = rerun_model.new_cache_with_capacity(probe.len());
    let logits_identical =
        bits(&int8_model.prefill(&probe, &mut c1)) == bits(&rerun_model.prefill(&probe, &mut c2));
    if !logits_identical {
        failed.push(
            "reproducibility: a rebuilt int8 engine from the same (seed, config) \
             must reproduce every logit bit"
                .to_string(),
        );
    }
    let rerun_scores = scores_of(&[Int8, Int8, Int8]);
    let rerun_auc = auc(&rerun_scores);
    if auc_int8 != rerun_auc {
        failed.push(format!(
            "reproducibility: rerunning the int8 eval gate must reproduce the AUC exactly \
             (got {rerun_auc} vs {auc_int8})"
        ));
    }
    let scores_identical = scores_int8 == rerun_scores;
    if !scores_identical {
        failed.push(
            "reproducibility: rerunning the int8 eval gate must reproduce every detection score"
                .to_string(),
        );
    }
    let identical = logits_identical && auc_int8 == rerun_auc && scores_identical;
    println!("quant_rerun bitwise_identical={identical}");

    println!(
        "\nheadline: int8 prefill {speedup_at_realistic:.1}x f32 at prefix >= 64, \
         ensemble AUC within {AUC_TOLERANCE} of f32 (int8 {delta_int8:.4}, mixed {delta_mixed:.4}), \
         bitwise-reproducible from (seed, config)"
    );
    record.measure("headline prefill speedup", speedup_at_realistic);

    if !failed.is_empty() {
        for gate in &failed {
            eprintln!("gate failed: {gate}");
        }
        eprintln!("{} gate(s) failed; record not saved", failed.len());
        return ExitCode::FAILURE;
    }
    save_record(&record, std::path::Path::new(RESULTS_PATH)).expect("write results");
    println!("record appended to {RESULTS_PATH}");
    ExitCode::SUCCESS
}
