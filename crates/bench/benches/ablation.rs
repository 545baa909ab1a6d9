//! Ablation benches for the design choices DESIGN.md calls out:
//! aggregation mean, Eq. 4 normalization, sentence splitting, and gating.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hallu_core::{AggregationMean, DetectorConfig, ResilientDetector};
use slm_runtime::profiles::{minicpm_sim, qwen2_sim};
use slm_runtime::verifier::YesNoVerifier;

const CTX: &str = "The store operates from 9 AM to 5 PM, from Sunday to Saturday. There \
                   should be at least three shopkeepers to run a shop.";
const Q: &str = "What are the working hours?";
const RESP: &str = "The working hours are 9 AM to 5 PM. The store is open from Monday to \
                    Friday. At least three shopkeepers run each shop.";

fn detector(config: DetectorConfig) -> ResilientDetector {
    let mut d = ResilientDetector::reliable(
        vec![
            Box::new(qwen2_sim()) as Box<dyn YesNoVerifier>,
            Box::new(minicpm_sim()) as Box<dyn YesNoVerifier>,
        ],
        config,
    )
    .expect("two verifiers");
    for i in 0..10 {
        d.calibrate(Q, CTX, &format!("The store opens at {} AM.", 8 + i % 3));
    }
    d
}

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation");

    // Aggregation means only differ in the final fold — latency should tie.
    for mean in AggregationMean::ALL {
        let d = detector(DetectorConfig {
            mean,
            ..Default::default()
        });
        group.bench_function(format!("mean_{mean}"), |b| {
            b.iter(|| d.score(Q, CTX, black_box(RESP)).score())
        });
    }

    // Eq. 4 normalization on/off.
    for (name, normalize) in [("normalize_on", true), ("normalize_off", false)] {
        let d = detector(DetectorConfig {
            normalize,
            ..Default::default()
        });
        group.bench_function(name, |b| {
            b.iter(|| d.score(Q, CTX, black_box(RESP)).score())
        });
    }

    // Split vs whole-response (the P(yes) ablation).
    for (name, split) in [("split_on", true), ("split_off", false)] {
        let d = detector(DetectorConfig {
            split,
            ..Default::default()
        });
        group.bench_function(name, |b| {
            b.iter(|| d.score(Q, CTX, black_box(RESP)).score())
        });
    }

    // Gating skips the second model on confident calls.
    let gated = detector(DetectorConfig {
        gate_margin: Some(1.5),
        ..Default::default()
    });
    group.bench_function("gated", |b| {
        b.iter(|| gated.score(Q, CTX, black_box(RESP)).score())
    });

    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
