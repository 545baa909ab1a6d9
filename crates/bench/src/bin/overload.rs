//! Overload experiment: guarded QA under load, on a virtual clock.
//!
//! Sweeps arrival rate × queue bound × shed policy through the
//! [`rag::ServingRuntime`] and reports goodput, p99 latency, shed fraction,
//! and abstain fraction per cell, demonstrating:
//!
//! (a) at zero load pressure (unbounded queue, infinite deadlines, arrivals
//!     slower than service) the serving runtime's outcomes are bitwise
//!     identical to calling the pipeline directly;
//! (b) under overload, every submitted request still gets exactly one typed
//!     outcome — goodput saturates and the excess is shed explicitly
//!     instead of collapsing the queue;
//! (c) hedged verification cuts the stall-dominated tail latency of a
//!     flaky model without touching the median.
//!
//! Fully deterministic: arrivals come from seeded inverse-CDF exponential
//! draws, service costs are simulated milliseconds, and the clock is
//! virtual — reruns reproduce every shed and every deadline miss.
//!
//! Pass `--smoke` for a reduced load (used by the CI robustness job).

use bench::handbook::{self, p99, QUESTIONS};
use bench::{save_record, RESULTS_PATH};
use eval::report::ExperimentRecord;
use rag::{
    Disposition, FailurePolicy, RequestOutcome, ResilientVerifiedPipeline, ServingConfig,
    ServingRuntime, ServingStats, ShedPolicy,
};
use slm_runtime::profiles::{minicpm_sim, qwen2_sim};
use slm_runtime::verifier::VerificationRequest;
use slm_runtime::{
    FallibleVerifier, FaultInjector, FaultProfile, HedgeConfig, HedgedVerifier, Reliable,
};
use vectordb::flat::FlatIndex;

const ARRIVAL_SEED: u64 = 0x0FF10AD;
const FAULT_SEEDS: [u64; 2] = [3301, 4402];
/// End-to-end deadline for swept cells, in simulated milliseconds.
const DEADLINE_MS: f64 = 400.0;

/// The guarded pipeline the serving runtime protects, on healthy verifiers.
fn healthy_pipeline() -> ResilientVerifiedPipeline<FlatIndex> {
    let profiles = [
        FaultProfile::none(FAULT_SEEDS[0]),
        FaultProfile::none(FAULT_SEEDS[1]),
    ];
    handbook::pipeline(handbook::detector(profiles, None), FailurePolicy::Abstain)
}

fn policy_label(policy: ShedPolicy) -> &'static str {
    match policy {
        ShedPolicy::RejectNewest => "reject-newest",
        ShedPolicy::ShedLowestPriority => "shed-low-pri",
        ShedPolicy::LifoUnderOverload => "lifo-overload",
    }
}

/// One swept cell: drive `n` Poisson arrivals through a fresh runtime.
struct CellResult {
    goodput_per_s: f64,
    p99_latency_ms: f64,
    shed_fraction: f64,
    abstain_fraction: f64,
    stats: ServingStats,
}

fn run_cell(rate_per_s: f64, bound: usize, policy: ShedPolicy, n: u64) -> CellResult {
    let mut rt = ServingRuntime::new(
        healthy_pipeline(),
        ServingConfig {
            queue_bound: Some(bound),
            shed_policy: policy,
            default_deadline_ms: DEADLINE_MS,
        },
    );
    for (at_ms, question, priority) in handbook::arrivals(ARRIVAL_SEED, n, rate_per_s) {
        rt.submit_at(at_ms, question, priority);
    }
    rt.run_until_idle();
    let outcomes = rt.drain_outcomes();
    assert_eq!(
        outcomes.len() as u64,
        n,
        "every request must get exactly one outcome"
    );
    let stats = ServingStats::from_outcomes(&outcomes);
    let horizon_s = (rt.now_ms() / 1000.0).max(f64::MIN_POSITIVE);
    let served: Vec<&RequestOutcome> = outcomes.iter().filter(|o| o.is_served()).collect();
    let latencies: Vec<f64> = served.iter().map(|o| o.latency_ms()).collect();
    CellResult {
        goodput_per_s: served.len() as f64 / horizon_s,
        p99_latency_ms: p99(&latencies),
        shed_fraction: stats.shed as f64 / stats.total as f64,
        abstain_fraction: stats.abstained as f64 / stats.total as f64,
        stats,
    }
}

/// (a) Zero pressure: the runtime is a transparent wrapper, bitwise.
fn check_zero_pressure_parity(record: &mut ExperimentRecord, n: u64) {
    let mut direct = healthy_pipeline();
    let mut rt = ServingRuntime::new(healthy_pipeline(), ServingConfig::default());
    // arrivals a full second apart: far slower than any service time
    for i in 0..n {
        let (question, priority) = handbook::request(i);
        rt.submit_at(1000.0 * i as f64, question, priority);
    }
    rt.run_until_idle();
    let outcomes = rt.drain_outcomes();
    assert_eq!(outcomes.len() as u64, n);
    for (i, outcome) in outcomes.iter().enumerate() {
        let q = QUESTIONS[i % QUESTIONS.len()];
        let expected = direct.ask(q).expect("retrieval");
        assert_eq!(
            outcome.disposition,
            Disposition::Completed(Box::new(expected)),
            "zero-pressure outcome {i} must equal the direct pipeline call bitwise"
        );
        assert_eq!(outcome.queue_wait_ms, 0.0, "no queueing at zero pressure");
    }
    println!(
        "(a) zero pressure: {n} requests, outcomes bitwise-identical to direct pipeline calls"
    );
    record.measure("zero-pressure bitwise parity", 1.0);
}

/// (c) Hedged verification vs. a stall-prone primary: tail latency drops.
fn check_hedging_tail(record: &mut ExperimentRecord, n: u64) {
    // Rare stalls keep the p95 hedge threshold in the normal-latency band,
    // so every stall overshoots it and gets hedged.
    let stall_profile = FaultProfile {
        stall_rate: 0.03,
        ..FaultProfile::none(FAULT_SEEDS[0])
    };
    let unhedged = FaultInjector::new(Reliable::new(qwen2_sim()), stall_profile.clone());
    let hedged = HedgedVerifier::new(
        FaultInjector::new(Reliable::new(qwen2_sim()), stall_profile),
        Reliable::new(minicpm_sim()),
        HedgeConfig::default(),
    );
    let handle = hedged.handle();
    let mut plain_lat = Vec::new();
    let mut hedged_lat = Vec::new();
    for i in 0..n {
        let sentence = format!(
            "The store operates from 9 AM to 5 PM on day {}.",
            i % QUESTIONS.len() as u64
        );
        let req = VerificationRequest::new(QUESTIONS[0], QUESTIONS[0], &sentence);
        if let Ok(p) = unhedged.try_p_yes(&req) {
            plain_lat.push(p.latency_ms);
        }
        if let Ok(p) = hedged.try_p_yes(&req) {
            hedged_lat.push(p.latency_ms);
        }
    }
    let (plain_p99, hedged_p99) = (p99(&plain_lat), p99(&hedged_lat));
    let stats = handle.stats();
    println!(
        "(c) hedging: p99 {plain_p99:.1}ms unhedged -> {hedged_p99:.1}ms hedged \
         ({} hedges, {} wins over {} calls)",
        stats.hedges, stats.hedge_wins, stats.calls
    );
    assert!(
        hedged_p99 < plain_p99,
        "hedging must cut the stall tail: {hedged_p99} !< {plain_p99}"
    );
    record.measure("hedge p99 unhedged ms", plain_p99);
    record.measure("hedge p99 hedged ms", hedged_p99);
    record.measure(
        "hedge fraction",
        stats.hedges as f64 / (stats.calls as f64).max(1.0),
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n_per_cell: u64 = if smoke { 40 } else { 200 };
    let mut record = ExperimentRecord::new(
        "ext-overload",
        "Serving goodput and shedding under overload",
    );

    check_zero_pressure_parity(&mut record, if smoke { 6 } else { 12 });

    // (b) The sweep: arrival rate x queue bound x shed policy.
    println!(
        "\n{:>6} {:>6} {:>14}  {:>9} {:>9} {:>7} {:>9} {:>7}",
        "rate/s", "bound", "policy", "goodput/s", "p99 ms", "shed%", "abstain%", "served"
    );
    for rate in [3.0, 10.0, 30.0] {
        for bound in [4usize, 16] {
            for policy in [
                ShedPolicy::RejectNewest,
                ShedPolicy::ShedLowestPriority,
                ShedPolicy::LifoUnderOverload,
            ] {
                let cell = run_cell(rate, bound, policy, n_per_cell);
                println!(
                    "{rate:>6.0} {bound:>6} {:>14}  {:>9.2} {:>9.1} {:>6.1}% {:>8.1}% {:>7}",
                    policy_label(policy),
                    cell.goodput_per_s,
                    cell.p99_latency_ms,
                    100.0 * cell.shed_fraction,
                    100.0 * cell.abstain_fraction,
                    cell.stats.served,
                );
                if bound == 4 {
                    let label = policy_label(policy);
                    record.measure(
                        format!("goodput r{rate:.0} b{bound} {label}"),
                        cell.goodput_per_s,
                    );
                    record.measure(
                        format!("shed r{rate:.0} b{bound} {label}"),
                        cell.shed_fraction,
                    );
                }
            }
        }
    }

    check_hedging_tail(&mut record, if smoke { 150 } else { 500 });

    save_record(&record, std::path::Path::new(RESULTS_PATH)).expect("write results");
    println!("\nsaved ext-overload to {RESULTS_PATH}");
}
