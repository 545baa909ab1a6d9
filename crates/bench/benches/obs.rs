//! Cost of the observability layer on the hot scoring path and on the
//! cluster serving path.
//!
//! Three variants of the same resilient two-SLM scoring call:
//! `sink_off` (the `Obs::off()` default — the zero-overhead contract),
//! `sink_on` (a connected registry + span store + flight store, no flight
//! in progress), and `sink_on_flight` (a flight record open, so every
//! per-cell event is captured). The off/on gap is what instrumentation
//! costs; record it in EXPERIMENTS.md.
//!
//! The cluster group runs the same small cluster scenario with distributed
//! tracing off and on, and asserts up front (median of a few timed runs)
//! that tracing costs at most 5% end to end — the cross-member span
//! machinery must stay invisible next to the scoring work it decorates.

use bench::handbook;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hallu_core::ResilientDetector;
use hallu_obs::Obs;
use rag::cluster::{ClusterConfig, ClusterRuntime};
use rag::serving::ShardIdentity;
use rag::{
    FailurePolicy, Priority, RagPipeline, ResilientVerifiedPipeline, ServingConfig, SimulatedLlm,
};
use slm_runtime::FaultProfile;
use vectordb::collection::Collection;
use vectordb::embed::HashingEmbedder;
use vectordb::flat::FlatIndex;
use vectordb::metric::Metric;

const CTX: &str = "The store operates from 9 AM to 5 PM, from Sunday to Saturday. There \
                   should be at least three shopkeepers to run a shop. Staff lockers are \
                   available in the back office.";
const Q: &str = "What are the working hours?";
const RESP: &str = "The working hours are 9 AM to 5 PM. The store is open from Sunday to \
                    Saturday. At least three shopkeepers run each shop. These arrangements \
                    keep the floor covered.";

fn detector(obs: Option<&Obs>) -> ResilientDetector {
    let mut d = handbook::detector([FaultProfile::none(1), FaultProfile::none(2)], None);
    if let Some(obs) = obs {
        d.set_obs(obs);
    }
    for i in 0..10 {
        d.calibrate(Q, CTX, &format!("The store opens at {} AM.", 8 + i % 3));
    }
    d
}

fn bench_obs(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead_score_response");

    let off = detector(None);
    group.bench_function("sink_off", |b| {
        b.iter(|| off.score(Q, CTX, black_box(RESP)))
    });

    let obs = Obs::new();
    let on = detector(Some(&obs));
    group.bench_function("sink_on", |b| b.iter(|| on.score(Q, CTX, black_box(RESP))));

    group.bench_function("sink_on_flight", |b| {
        b.iter(|| {
            obs.begin_flight("bench");
            let v = on.score(Q, CTX, black_box(RESP));
            obs.end_flight("scored");
            v
        })
    });

    group.finish();
}

/// The guarded two-SLM pipeline each cluster member runs.
fn member_pipeline(identity: ShardIdentity) -> ResilientVerifiedPipeline<FlatIndex> {
    let seed = 9_000 + u64::from(identity.shard) * 10 + u64::from(identity.replica);
    let collection = Collection::new(
        Box::new(HashingEmbedder::new(128, 3)),
        FlatIndex::new(128, Metric::Cosine),
    );
    let rag = RagPipeline::new(collection, 7).with_llm(SimulatedLlm::new(2));
    rag.ingest(CTX, "hours").expect("ingest");
    let detector = handbook::detector(
        [FaultProfile::none(seed), FaultProfile::none(seed + 1)],
        None,
    );
    let mut p = ResilientVerifiedPipeline::new(rag, detector, 0.45, FailurePolicy::Abstain);
    p.warm_up(&[Q]).expect("warm-up retrieval");
    p
}

/// One small cluster run (2 shards × 2 members, 24 requests, no chaos),
/// with distributed tracing on or off.
fn cluster_run(tracing: bool) {
    let config = ClusterConfig {
        replicas: 1,
        serving: ServingConfig {
            queue_bound: None,
            default_deadline_ms: f64::INFINITY,
            ..ServingConfig::default()
        },
        tracing,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterRuntime::new(2, config, member_pipeline);
    for i in 0..24u32 {
        cluster.submit_at(f64::from(i) * 20.0, Q, Priority::Normal);
    }
    cluster.run_until_idle();
    black_box(cluster.drain_outcomes());
}

fn timed_run_ms(tracing: bool) -> f64 {
    let t0 = std::time::Instant::now();
    cluster_run(tracing);
    t0.elapsed().as_secs_f64() * 1e3
}

fn bench_cluster_tracing(c: &mut Criterion) {
    // The contract, checked before the criterion sampling: the end-to-end
    // cluster path with tracing on stays within 5% of the same run with
    // tracing off. Samples are interleaved off/on pairs compared by their
    // minima over many pairs — the minimum is the least-contended
    // execution, the only sample a loaded CI box reports faithfully.
    for _ in 0..2 {
        timed_run_ms(false);
        timed_run_ms(true);
    }
    let (mut off_ms, mut on_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..20 {
        off_ms = off_ms.min(timed_run_ms(false));
        on_ms = on_ms.min(timed_run_ms(true));
    }
    assert!(
        on_ms <= off_ms * 1.05,
        "tracing-on cluster run must cost <= 5% extra: off {off_ms:.2} ms, on {on_ms:.2} ms"
    );

    let mut group = c.benchmark_group("obs_cluster_tracing");
    group.sample_size(10);
    group.bench_function("tracing_off", |b| b.iter(|| cluster_run(false)));
    group.bench_function("tracing_on", |b| b.iter(|| cluster_run(true)));
    group.finish();
}

criterion_group!(benches, bench_obs, bench_cluster_tracing);
criterion_main!(benches);
