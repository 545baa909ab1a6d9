//! End-to-end verification latency per response: 1 vs 2 SLMs, inline vs
//! parallel cell probing on the batch engine.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hallu_core::{DetectorConfig, ResilientDetector};
use slm_runtime::profiles::{minicpm_sim, qwen2_sim};
use slm_runtime::verifier::YesNoVerifier;

const CTX: &str = "The store operates from 9 AM to 5 PM, from Sunday to Saturday. There \
                   should be at least three shopkeepers to run a shop. Staff lockers are \
                   available in the back office.";
const Q: &str = "What are the working hours?";
const RESP: &str = "The working hours are 9 AM to 5 PM. The store is open from Sunday to \
                    Saturday. At least three shopkeepers run each shop. These arrangements \
                    keep the floor covered.";

fn detector(two_models: bool, parallel: bool) -> ResilientDetector {
    let mut verifiers: Vec<Box<dyn YesNoVerifier>> = vec![Box::new(qwen2_sim())];
    if two_models {
        verifiers.push(Box::new(minicpm_sim()));
    }
    let mut d = ResilientDetector::reliable(
        verifiers,
        DetectorConfig {
            parallel,
            ..Default::default()
        },
    )
    .expect("at least one verifier");
    for i in 0..10 {
        d.calibrate(Q, CTX, &format!("The store opens at {} AM.", 8 + i % 3));
    }
    d
}

fn bench_framework(c: &mut Criterion) {
    let mut group = c.benchmark_group("framework_score_response");
    for (name, two, par) in [
        ("one_slm_sequential", false, false),
        ("two_slm_sequential", true, false),
        ("two_slm_parallel", true, true),
    ] {
        let d = detector(two, par);
        group.bench_function(name, |b| {
            b.iter(|| d.score(Q, CTX, black_box(RESP)).score())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_framework);
criterion_main!(benches);
