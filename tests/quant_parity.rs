//! Quantization parity wall: the int8 path must track f32 numerically at
//! every GEMM call site, track it behaviorally at the detector level, and be
//! bitwise-invisible to the serving machinery built for the f32 engine.
//!
//! Coverage:
//! - a property test pins the [`Int8Matrix`] round-trip error to the
//!   per-output-row half-scale bound for arbitrary shapes and values;
//! - every projection the transformer actually runs through the integer
//!   kernels (Q/K/V, attention output, SwiGLU gate/up/down, LM head) stays
//!   within a small relative error of its f32 twin;
//! - full int8 prefill logits track f32 logits (cosine + argmax);
//! - an int8 engine behind the paged COW prefix cache scores
//!   bitwise-identically to the same engine without the cache, under the
//!   standard 20% chaos faults — the pool machinery from the f32 tentpole
//!   drives the quantized model unchanged;
//! - golden-suite gate: a mixed-precision ensemble (int8 screeners + f32
//!   tie-breaker) under 20% chaos reproduces the all-f32 ensemble's scores
//!   within the eval tolerance, and reruns bitwise-identically.

use std::sync::Arc;

use eval::roc::auc;
use hallu_core::{DetectorConfig, ResilientDetector};
use hallu_dataset::{DatasetBuilder, ResponseLabel};
use proptest::prelude::*;
use slm_runtime::bpe::Bpe;
use slm_runtime::weights::ModelWeights;
use slm_runtime::{
    EngineVerifier, FallibleVerifier, FaultInjector, FaultProfile, InferenceModel, ModelConfig,
    PagedKvPool, PagedPoolConfig, PagedPrefixCache, Precision, PrefixCacheConfig, QuantizedLM,
    Reliable, TransformerLM,
};
use tensor::{Int8Matrix, Linear, Matrix, PackedMatrix};

/// Eval-gate tolerance shared with `quant_sweep`: quantization may move a
/// detection score at most this far on average, and detection AUC by at most
/// this much.
const EVAL_TOLERANCE: f64 = 0.05;

/// Deterministic smooth activations in roughly [-1, 1].
fn activations(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| (((i * 37 + salt * 13) % 101) as f32 - 50.0) / 53.0)
        .collect()
}

fn rel_l2(got: &[f32], want: &[f32]) -> f32 {
    let num: f32 = got
        .iter()
        .zip(want)
        .map(|(g, w)| (g - w) * (g - w))
        .sum::<f32>()
        .sqrt();
    let den: f32 = want.iter().map(|w| w * w).sum::<f32>().sqrt();
    num / den.max(1e-12)
}

// ---------------------------------------------------------------------------
// Property tests: the storage round-trip bound
// ---------------------------------------------------------------------------

proptest! {
    /// Symmetric per-output-row quantization admits at most half a
    /// quantization step of error per element: |deq − orig| ≤ scale_j / 2
    /// where scale_j = max|W[:, j]| / 127 is the calibrated scale.
    #[test]
    fn int8_matrix_roundtrip_error_is_bounded_by_half_scale(
        in_f in 1usize..12,
        out_f in 1usize..12,
        vals in prop::collection::vec(-4.0f32..4.0, 64),
    ) {
        let w = Matrix::from_fn(in_f, out_f, |r, c| vals[(r * out_f + c) % vals.len()]);
        let q = Int8Matrix::calibrate(&w);
        let d = q.dequantize();
        for j in 0..out_f {
            let scale = q.scales()[j];
            for r in 0..in_f {
                let err = (d.get(r, j) - w.get(r, j)).abs();
                prop_assert!(err <= 0.5 * scale + 1e-6);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Per-call-site GEMM tolerance
// ---------------------------------------------------------------------------

/// Every projection the int8 engine routes through the integer kernels must
/// track its f32 twin within 2% relative L2 — checked per layer, per call
/// site, on both the single-row (`apply`, decode) and blocked
/// (`apply_block`, prefill) entry points.
#[test]
fn every_gemm_call_site_tracks_f32_within_tolerance() {
    let cfg = ModelConfig::qwen2_like(512);
    let w = ModelWeights::synthetic(&cfg, 0xCA11);
    let mut sites: Vec<(String, &Matrix)> = vec![("lm_head".into(), &w.lm_head)];
    let names = ["wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down"];
    for (l, layer) in w.layers.iter().enumerate() {
        for (name, m) in names.into_iter().zip(layer.projections()) {
            sites.push((format!("layer{l}.{name}"), m));
        }
    }
    assert_eq!(sites.len(), 1 + 7 * cfg.n_layers);
    for (site, wf) in &sites {
        let q = Int8Matrix::calibrate(wf);
        let f = PackedMatrix::pack(wf);
        let x = activations(wf.rows(), site.len());
        let want = Linear::apply(&f, &x);
        let got = Linear::apply(&q, &x);
        let err = rel_l2(&got, &want);
        assert!(err < 0.02, "{site}: single-row relative error {err}");

        let xs = Matrix::from_fn(6, wf.rows(), |r, c| activations(wf.rows(), r + 1)[c]);
        let want_b = Linear::apply_block(&f, &xs);
        let got_b = Linear::apply_block(&q, &xs);
        for i in 0..xs.rows() {
            let err = rel_l2(got_b.row(i), want_b.row(i));
            assert!(err < 0.02, "{site}: blocked row {i} relative error {err}");
        }
    }
}

/// End-to-end logits: a full int8 prefill over a multi-block prompt tracks
/// the f32 engine's logits — same argmax, high cosine similarity. This is
/// the accumulated-error budget across all layers, norms and residuals.
#[test]
fn int8_prefill_logits_track_f32() {
    let cfg = ModelConfig::qwen2_like(512);
    let f32_model = TransformerLM::synthetic(cfg.clone(), 0x1A8);
    let int8_model = QuantizedLM::synthetic(cfg.with_precision(Precision::Int8), 0x1A8);
    for seed in 0..4u64 {
        let prompt: Vec<u32> = (0..48)
            .map(|i| ((i * 97 + seed * 31 + 5) % 512) as u32)
            .collect();
        let mut cf = f32_model.new_cache_with_capacity(prompt.len());
        let mut ci = int8_model.new_cache_with_capacity(prompt.len());
        let want = f32_model.prefill(&prompt, &mut cf);
        let got = int8_model.prefill(&prompt, &mut ci);
        let dot: f32 = got.iter().zip(&want).map(|(g, w)| g * w).sum();
        let cos = dot
            / (got.iter().map(|v| v * v).sum::<f32>().sqrt()
                * want.iter().map(|v| v * v).sum::<f32>().sqrt());
        assert!(cos > 0.99, "prompt {seed}: logit cosine similarity {cos}");
        let argmax = |v: &[f32]| {
            v.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
        };
        assert_eq!(argmax(&got), argmax(&want), "prompt {seed}: argmax moved");
    }
}

// ---------------------------------------------------------------------------
// Int8 under the paged serving machinery
// ---------------------------------------------------------------------------

const CTX: &str = "the store operates from 9 am to 5 pm from sunday to saturday. there \
                   should be at least three shopkeepers to run a shop.";
const Q: &str = "what are the working hours?";
const RESPONSES: [&str; 3] = [
    "the store operates from 9 am. the store operates to 5 pm. open from sunday to saturday.",
    "the store operates from 9 am to 9 pm. the shop runs with three shopkeepers.",
    "working hours are from sunday to saturday. the store operates from 9 am to 5 pm.",
];

fn golden_bpe() -> Bpe {
    Bpe::train(
        &[
            CTX,
            Q,
            "working hours open shop runs with",
            "is the answer correct according to the context reply yes or no",
            "context question answer",
        ],
        250,
    )
}

/// The standard chaos level from the batch-parity wall: a 20% mixed fault
/// rate (transients + stalls + garbage).
fn chaos(seed: u64) -> FaultProfile {
    FaultProfile::uniform(seed, 0.2)
}

/// One fault-injected *int8* engine, identical per seed, optionally wired to
/// a shared paged COW prefix cache.
fn int8_engine(seed: u64, paged: &Option<Arc<PagedPrefixCache>>) -> EngineVerifier<QuantizedLM> {
    let bpe = golden_bpe();
    let cfg = ModelConfig::tiny(bpe.vocab_size()).with_precision(Precision::Int8);
    let model = QuantizedLM::synthetic(cfg, seed);
    let mut v = EngineVerifier::new(format!("int8-engine-{seed}"), model, bpe);
    if let Some(cache) = paged {
        v = v.with_paged_cache(cache.clone());
    }
    v
}

fn int8_ensemble(paged: Option<Arc<PagedPrefixCache>>) -> ResilientDetector {
    let verifiers: Vec<Box<dyn FallibleVerifier>> = vec![
        Box::new(FaultInjector::new(
            Reliable::new(int8_engine(41, &paged)),
            chaos(7),
        )),
        Box::new(FaultInjector::new(
            Reliable::new(int8_engine(43, &paged)),
            chaos(8),
        )),
    ];
    let mut d = ResilientDetector::try_new(verifiers, DetectorConfig::default()).unwrap();
    for r in RESPONSES {
        d.calibrate(Q, CTX, r);
    }
    d
}

/// The paged KV pool built for the f32 tentpole drives the int8 engine
/// unchanged: pooled COW forks under 20% chaos score bitwise-identically to
/// the contiguous uncached path, and the warm path is really taken.
#[test]
fn int8_paged_forks_are_bitwise_invisible_under_chaos() {
    let plain = int8_ensemble(None);
    let pool = Arc::new(PagedKvPool::new(PagedPoolConfig::for_model(
        &ModelConfig::tiny(64),
        256,
    )));
    let cache = Arc::new(PagedPrefixCache::new(
        pool.clone(),
        PrefixCacheConfig::default(),
    ));
    let paged = int8_ensemble(Some(cache.clone()));

    let items: Vec<(&str, &str, &str)> = RESPONSES.iter().map(|r| (Q, CTX, *r)).collect();
    let want = plain.score_batch(&items);
    let got = paged.score_batch(&items);
    assert_eq!(
        want, got,
        "a pooled COW fork must never change an int8 verdict or score"
    );
    let stats = cache.stats();
    assert!(
        stats.hits > 0,
        "same-prefix probes must resolve from pooled forks: {stats:?}"
    );
    assert_eq!(
        pool.stats().rejected,
        0,
        "a generously sized pool must never reject: {:?}",
        pool.stats()
    );
}

// ---------------------------------------------------------------------------
// Golden-suite gate: mixed-precision ensemble under chaos
// ---------------------------------------------------------------------------

/// Per-response detection scores of a 3-member engine ensemble at the given
/// member precisions, under 20% chaos, on the golden synthetic dataset.
/// Construction is fully deterministic, so equal-precision calls reproduce
/// bitwise.
fn golden_scores(precisions: [Precision; 3]) -> Vec<(f64, bool)> {
    let dataset = DatasetBuilder::new(1105, 8).build();
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
    let bpe = Bpe::train(&corpus_refs, 300);

    let verifiers: Vec<Box<dyn FallibleVerifier>> = precisions
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let cfg = ModelConfig::tiny(bpe.vocab_size()).with_precision(p);
            let seed = 40 + i as u64;
            let name = format!("engine-{i}");
            let v: Box<dyn FallibleVerifier> = match p {
                Precision::F32 => Box::new(FaultInjector::new(
                    Reliable::new(EngineVerifier::new(
                        name,
                        TransformerLM::synthetic(cfg, seed),
                        bpe.clone(),
                    )),
                    chaos(7 + i as u64),
                )),
                Precision::Int8 => Box::new(FaultInjector::new(
                    Reliable::new(EngineVerifier::new(
                        name,
                        QuantizedLM::synthetic(cfg, seed),
                        bpe.clone(),
                    )),
                    chaos(7 + i as u64),
                )),
            };
            v
        })
        .collect();
    let mut d = ResilientDetector::try_new(verifiers, DetectorConfig::default()).unwrap();
    for set in &dataset.sets {
        for r in &set.responses {
            d.calibrate(&set.question, &set.context, &r.text);
        }
    }
    let mut out = Vec::new();
    for set in &dataset.sets {
        for label in [ResponseLabel::Correct, ResponseLabel::Wrong] {
            let r = set.response(label);
            // identical fault streams on both sides make abstentions
            // coincide, so a neutral placeholder cannot mask drift
            let score = d
                .score(&set.question, &set.context, &r.text)
                .score()
                .unwrap_or(0.5);
            out.push((score, label == ResponseLabel::Correct));
        }
    }
    out
}

/// The golden gate: swapping two of three ensemble members to int8 under
/// 20% chaos moves the mean detection score by at most the eval tolerance
/// and the detection AUC by at most the same band — and the mixed run is
/// bitwise-reproducible.
#[test]
fn mixed_precision_golden_suite_stays_within_eval_tolerance_under_chaos() {
    use Precision::{Int8, F32};
    let f32_scores = golden_scores([F32, F32, F32]);
    let mixed_scores = golden_scores([Int8, Int8, F32]);
    assert_eq!(f32_scores.len(), mixed_scores.len());

    let mean_drift = f32_scores
        .iter()
        .zip(&mixed_scores)
        .map(|(&(a, _), &(b, _))| (a - b).abs())
        .sum::<f64>()
        / f32_scores.len() as f64;
    assert!(
        mean_drift <= EVAL_TOLERANCE,
        "mixed-precision mean score drift {mean_drift:.4} exceeds {EVAL_TOLERANCE}"
    );
    let auc_delta = (auc(&f32_scores) - auc(&mixed_scores)).abs();
    assert!(
        auc_delta <= EVAL_TOLERANCE,
        "mixed-precision AUC drift {auc_delta:.4} exceeds {EVAL_TOLERANCE}"
    );

    let rerun = golden_scores([Int8, Int8, F32]);
    assert_eq!(
        mixed_scores, rerun,
        "the mixed ensemble must rerun bitwise-identically under chaos"
    );
}
