//! Observability experiment: instrument the full detection + serving stack
//! and prove the instrumentation free.
//!
//! Runs a chaos-grade overload scenario twice — once bare, once with a
//! `hallu-obs` sink attached end to end (serving runtime → guarded
//! pipeline → resilient detector → fault injectors) — and asserts
//! outcome-for-outcome bitwise parity. Then:
//!
//! - prints the Prometheus exposition page and self-checks it (every
//!   required metric family present, no NaN values);
//! - drives a hedged verifier and a concurrency gate on the same sink so
//!   every instrumented subsystem appears on one page;
//! - prints an exemplar flight record for a shed request and for a
//!   guaranteed Abstain (total-outage sub-scenario under
//!   `FailurePolicy::Abstain`);
//! - saves an `ext-obs` record to `EXPERIMENTS-results.json`, with the
//!   exemplar flight records attached as notes.
//!
//! Pass `--smoke` for the time-bounded CI variant.

use bench::handbook::{self, QUESTIONS};
use bench::{save_record, RESULTS_PATH};
use eval::report::ExperimentRecord;
use hallu_obs::{FlightRecord, Obs};
use rag::cluster::{ChaosPlan, ClusterConfig, ClusterRuntime, DetectorKind, ReplicationConfig};
use rag::{
    FailurePolicy, Priority, RequestOutcome, ServingConfig, ServingRuntime, ServingStats,
    ShedPolicy,
};
use slm_runtime::gossip::GossipConfig;
use slm_runtime::profiles::{minicpm_sim, qwen2_sim};
use slm_runtime::verifier::VerificationRequest;
use slm_runtime::{
    ConcurrencyGate, FallibleVerifier, FaultInjector, FaultProfile, HedgeConfig, HedgedVerifier,
    Reliable,
};

const ARRIVAL_SEED: u64 = 0x0B5E7;
const FAULT_SEEDS: [u64; 2] = [5501, 6602];
const DEADLINE_MS: f64 = 300.0;

/// Metric families the exposition page must contain — one per
/// instrumented subsystem. The CI `obs-smoke` job greps stdout for these.
const REQUIRED_FAMILIES: [&str; 8] = [
    "hallu_detector_events_total",
    "hallu_detector_verdicts_total",
    "hallu_detector_simulated_ms",
    "hallu_faults_calls_total",
    "hallu_hedge_calls_total",
    "hallu_gate_calls_total",
    "hallu_serving_outcomes_total",
    "hallu_serving_queue_depth",
];

/// Cluster-scope metric families the *federated* page must contain — the
/// router, replication, and failure-detection machinery. The CI
/// `obs-smoke` job greps stdout for these too.
const REQUIRED_CLUSTER_FAMILIES: [&str; 6] = [
    "hallu_cluster_submitted_total",
    "hallu_cluster_routed_total",
    "hallu_cluster_outcomes_total",
    "hallu_cluster_replicated_total",
    "hallu_cluster_view_up",
    "hallu_detector_probes_total",
];

/// Chaos profiles: transients, stalls, garbage, and a mid-run outage.
fn chaos_profiles() -> [FaultProfile; 2] {
    [
        FaultProfile {
            transient_rate: 0.15,
            stall_rate: 0.05,
            garbage_rate: 0.05,
            ..FaultProfile::none(FAULT_SEEDS[0])
        },
        FaultProfile {
            transient_rate: 0.25,
            stall_rate: 0.05,
            ..FaultProfile::none(FAULT_SEEDS[1])
        },
    ]
}

/// Drive `n` Poisson arrivals through a fresh overloaded runtime.
fn run_scenario(n: u64, obs: Option<&Obs>) -> Vec<RequestOutcome> {
    let mut rt = ServingRuntime::new(
        handbook::pipeline(
            handbook::detector(chaos_profiles(), obs),
            FailurePolicy::Abstain,
        ),
        ServingConfig {
            queue_bound: Some(4),
            shed_policy: ShedPolicy::ShedLowestPriority,
            default_deadline_ms: DEADLINE_MS,
        },
    );
    if let Some(obs) = obs {
        rt = rt.with_obs(obs);
    }
    for (at_ms, question, priority) in handbook::arrivals(ARRIVAL_SEED, n, 30.0) {
        rt.submit_at(at_ms, question, priority);
    }
    rt.run_until_idle();
    rt.drain_outcomes()
}

/// Exercise the hedge and gate wrappers against the same sink so their
/// metric families appear on the shared exposition page.
fn exercise_hedge_and_gate(obs: &Obs, n: u64) {
    let stall_profile = FaultProfile {
        stall_rate: 0.05,
        ..FaultProfile::none(FAULT_SEEDS[0])
    };
    let hedged = HedgedVerifier::new(
        FaultInjector::new(Reliable::new(qwen2_sim()), stall_profile),
        Reliable::new(minicpm_sim()),
        HedgeConfig::default(),
    )
    .with_obs(obs);
    let gate = ConcurrencyGate::new(Reliable::new(qwen2_sim()), 1).with_obs(obs);
    for i in 0..n {
        let sentence = format!("The store operates from 9 AM to 5 PM on day {i}.");
        let req = VerificationRequest::new(QUESTIONS[0], QUESTIONS[0], &sentence);
        let _ = hedged.try_p_yes(&req);
        let _ = gate.try_p_yes(&req);
    }
}

/// A single-request total outage: both verifiers down, `Abstain` policy —
/// the flight record the README documents.
fn abstain_flight_record() -> FlightRecord {
    let obs = Obs::new();
    let down = [
        FaultProfile::down(FAULT_SEEDS[0]),
        FaultProfile::down(FAULT_SEEDS[1]),
    ];
    let pipeline = handbook::pipeline(handbook::detector(down, Some(&obs)), FailurePolicy::Abstain);
    let mut rt = ServingRuntime::new(pipeline, ServingConfig::default()).with_obs(&obs);
    rt.submit_at(0.0, QUESTIONS[0], Priority::Normal);
    rt.run_until_idle();
    let outcomes = rt.drain_outcomes();
    assert_eq!(outcomes.len(), 1);
    let records = obs.flight_records();
    let record = records
        .iter()
        .find(|r| r.outcome == "abstained")
        .expect("a total outage under FailurePolicy::Abstain must abstain")
        .clone();
    assert!(
        record.field("guard_decision", "policy").is_some(),
        "the abstain flight record must capture the guard decision: {record:?}"
    );
    record
}

/// A small self-healing cluster (gossip detection + cache replication)
/// under brief seeded chaos, federated to one fleet-level exposition page.
fn cluster_federation_page(n: u64) -> String {
    let config = ClusterConfig {
        replicas: 1,
        detector: DetectorKind::Gossip(GossipConfig::default()),
        replication: Some(ReplicationConfig::default()),
        ..ClusterConfig::default()
    };
    let horizon_ms = n as f64 * 25.0;
    let mut cluster = ClusterRuntime::new(4, config, handbook::member(7_000))
        .with_chaos(ChaosPlan::seeded(0xB5E7_CA05, 4, 1, horizon_ms, 3));
    for i in 0..n {
        cluster.submit_at(
            25.0 * i as f64,
            QUESTIONS[(i % QUESTIONS.len() as u64) as usize],
            Priority::Normal,
        );
    }
    cluster.run_until_idle();
    cluster.drain_outcomes();
    cluster.render_prometheus_federated()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n: u64 = if smoke { 40 } else { 160 };
    let mut record = ExperimentRecord::new(
        "ext-obs",
        "Observability: metrics registry, spans, and flight recorder",
    );

    // (a) Bitwise parity: the instrumented run decides exactly what the
    // bare run decides, outcome for outcome.
    let bare = run_scenario(n, None);
    let obs = Obs::new();
    let instrumented = run_scenario(n, Some(&obs));
    assert_eq!(
        bare, instrumented,
        "instrumentation must not perturb a single verdict or shed"
    );
    let stats = ServingStats::from_outcomes(&instrumented);
    println!("(a) parity: {n} chaos-overload requests, instrumented == bare bitwise ({stats:?})");
    record.measure("bitwise parity instrumented vs bare", 1.0);

    // (b) One page for every subsystem.
    exercise_hedge_and_gate(&obs, if smoke { 60 } else { 200 });
    let page = obs.render_prometheus();
    for family in REQUIRED_FAMILIES {
        assert!(
            page.contains(family),
            "exposition page is missing required family {family}"
        );
    }
    assert!(!page.contains("NaN"), "exposition page contains NaN");
    println!(
        "\n(b) metrics page ({} required families present):\n",
        REQUIRED_FAMILIES.len()
    );
    println!("{page}");

    let snapshot = obs.metrics_snapshot();
    record.measure("metric series", snapshot.series.len() as f64);
    record.measure("flight records retained", obs.flight_records().len() as f64);
    record.measure("spans retained", obs.finished_spans().len() as f64);
    record.measure(
        "serving outcomes counted",
        snapshot.total("hallu_serving_outcomes_total"),
    );

    // (c) Exemplar flight records: a shed under pressure...
    let records = obs.flight_records();
    if let Some(shed) = records.iter().find(|r| r.outcome.starts_with("shed:")) {
        let json = serde_json::to_string_pretty(shed).expect("serialize flight record");
        println!("(c) exemplar shed flight record:\n{json}\n");
        record.note(format!("shed flight record: {json}"));
    }
    // ...and the guaranteed Abstain from a total outage.
    let abstain = abstain_flight_record();
    let json = serde_json::to_string_pretty(&abstain).expect("serialize flight record");
    println!("(c) exemplar abstain flight record (total outage):\n{json}");
    record.note(format!("abstain flight record: {json}"));

    // (d) Cluster scope: federate a small self-healing cluster's router +
    // member registries into one fleet-level page and self-check it.
    let cluster_page = cluster_federation_page(if smoke { 48 } else { 96 });
    for family in REQUIRED_CLUSTER_FAMILIES {
        assert!(
            cluster_page.contains(family),
            "federated page is missing cluster family {family}"
        );
    }
    assert!(!cluster_page.contains("NaN"), "federated page contains NaN");
    println!(
        "\n(d) federated cluster page ({} required cluster families present):\n",
        REQUIRED_CLUSTER_FAMILIES.len()
    );
    println!("{cluster_page}");
    record.measure("federated page bytes", cluster_page.len() as f64);

    save_record(&record, std::path::Path::new(RESULTS_PATH)).expect("write results");
    println!("\nsaved ext-obs to {RESULTS_PATH}");
}
