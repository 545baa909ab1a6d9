//! End-to-end cluster tracing experiment: one seeded chaos scenario,
//! observed through all three cluster-scale observability planes.
//!
//! Runs an 8-shard × 2-member cluster (gossip detection + cache
//! replication) at 30 req/s under a seeded chaos plan with distributed
//! tracing on, then demonstrates:
//!
//! (a) causal trace trees: every request's span fragments — router routing
//!     and failover decisions, member queueing, scoring, replication-warmed
//!     cache lookups — stitch into one tree keyed by its deterministic
//!     trace id;
//! (b) critical-path accounting: the p99 completed request's latency
//!     decomposes into named segments (queue / scoring / routing / ...)
//!     covering at least 95% of its wall time;
//! (c) telemetry federation: router and member registries merge into one
//!     fleet-level snapshot with deterministic label order;
//! (d) deterministic SLO alerting: multi-window burn-rate rules over the
//!     outcome stream emit a typed alert timeline on the virtual clock;
//! (e) the whole thing is reproducible — a second run from the same
//!     `(seed, config)` yields bitwise-identical trace trees, federated
//!     exposition, and alert timeline.
//!
//! Pass `--smoke` for a reduced load (used by the CI trace-smoke job).

use bench::handbook;
use bench::{save_record, RESULTS_PATH};
use eval::report::ExperimentRecord;
use hallu_obs::{critical_path, render_trace_tree, AlertEvent, SloConfig, TraceContext, TraceTree};
use rag::cluster::{
    ChaosPlan, ClusterConfig, ClusterDisposition, ClusterOutcome, ClusterRuntime, DetectorKind,
    ReplicationConfig,
};
use rag::ServingConfig;
use slm_runtime::gossip::GossipConfig;

const ARRIVAL_SEED: u64 = 0x0C10_50AD;
const CHAOS_SEED: u64 = 0xC4A0_5EED;
/// Base of the per-member fault seeds (healthy verifiers).
const MEMBER_SEED: u64 = 5000;
const SHARDS: u32 = 8;
const REPLICAS: u32 = 1;
const RATE_PER_S: f64 = 30.0;
const DEADLINE_MS: f64 = 2_000.0;
const LATENCY_SLO_MS: f64 = 900.0;

/// Everything one run emits: the artifacts the reproducibility assertions
/// compare bitwise.
struct RunResult {
    trace_seed: u64,
    outcomes: Vec<ClusterOutcome>,
    traces: Vec<TraceTree>,
    federated_page: String,
    federated_series: usize,
    alerts: Vec<AlertEvent>,
}

fn run_once(n: u64, horizon_ms: f64, episodes: usize) -> RunResult {
    let config = ClusterConfig {
        replicas: REPLICAS,
        serving: ServingConfig {
            queue_bound: None,
            default_deadline_ms: DEADLINE_MS,
            ..ServingConfig::default()
        },
        probe_interval_ms: 25.0,
        probe_timeout_ms: 10.0,
        detector: DetectorKind::Gossip(GossipConfig::default()),
        replication: Some(ReplicationConfig::default()),
        ..ClusterConfig::default()
    };
    let trace_seed = config.trace_seed;
    let plan = ChaosPlan::seeded(CHAOS_SEED, SHARDS, REPLICAS, horizon_ms, episodes);
    let mut cluster = ClusterRuntime::new(SHARDS, config, handbook::member(MEMBER_SEED))
        .with_chaos(plan)
        .with_slos(vec![
            SloConfig::availability(0.99),
            SloConfig::latency(0.95, LATENCY_SLO_MS),
        ]);
    for (at_ms, question, priority) in handbook::arrivals(ARRIVAL_SEED, n, RATE_PER_S) {
        cluster.submit_at(at_ms, question, priority);
    }
    cluster.run_until_idle();
    let mut outcomes = cluster.drain_outcomes();
    outcomes.sort_by_key(|o| o.id);
    assert_eq!(
        outcomes.len() as u64,
        n,
        "every request must get exactly one outcome"
    );
    let snapshot = cluster.federated_snapshot();
    RunResult {
        trace_seed,
        outcomes,
        traces: cluster.stitched_traces(),
        federated_page: cluster.render_prometheus_federated(),
        federated_series: snapshot.series.len(),
        alerts: cluster.alert_timeline().to_vec(),
    }
}

/// The p99 *completed* request by end-to-end latency (crash-aborted work
/// spends its whole life queued, so attribution there is trivially all
/// queue time; completed requests are the interesting decomposition).
fn p99_completed(outcomes: &[ClusterOutcome]) -> &ClusterOutcome {
    let mut completed: Vec<&ClusterOutcome> = outcomes
        .iter()
        .filter(|o| matches!(o.disposition, ClusterDisposition::Completed(_)))
        .collect();
    assert!(!completed.is_empty(), "chaos must leave survivors");
    completed.sort_by(|a, b| {
        (a.finished_at_ms - a.submitted_at_ms).total_cmp(&(b.finished_at_ms - b.submitted_at_ms))
    });
    let idx = ((completed.len() - 1) as f64 * 0.99).floor() as usize;
    completed[idx]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n: u64 = if smoke { 120 } else { 360 };
    let episodes = if smoke { 5 } else { 10 };
    let horizon_ms = n as f64 / RATE_PER_S * 1000.0;
    let mut record = ExperimentRecord::new(
        "ext-trace",
        "Distributed tracing, telemetry federation, and SLO alerting under cluster chaos",
    );

    println!(
        "{SHARDS} shards x {} members x {RATE_PER_S:.0} req/s, seeded chaos, {n} requests, \
         tracing on\n",
        REPLICAS + 1
    );
    let run = run_once(n, horizon_ms, episodes);

    // (a) Causal trace trees: every submitted request has one.
    assert_eq!(
        run.traces.len() as u64,
        n,
        "one stitched trace tree per request"
    );
    println!(
        "stitched {} trace trees ({} truncated by flight-ring wrap)",
        run.traces.len(),
        run.traces.iter().filter(|t| t.truncated).count()
    );

    // (b) Critical path of the p99 completed request: >= 95% attributed.
    let p99 = p99_completed(&run.outcomes);
    let p99_latency = p99.finished_at_ms - p99.submitted_at_ms;
    let trace_id = TraceContext::root(run.trace_seed, p99.id).trace_id;
    let tree = run
        .traces
        .iter()
        .find(|t| t.trace_id == trace_id)
        .expect("the p99 request has a stitched trace");
    let path = critical_path(tree);
    println!("\np99 completed request (id {}):", p99.id);
    println!("{}", render_trace_tree(tree));
    println!(
        "critical path: {:.1} ms total, {:.1}% attributed",
        path.total_ms,
        100.0 * path.attributed_fraction()
    );
    println!("{:>14} {:>10} {:>7}", "segment", "ms", "share");
    for seg in &path.segments {
        println!(
            "{:>14} {:>10.1} {:>6.1}%",
            seg.kind.label(),
            seg.width_ms(),
            100.0 * seg.width_ms() / path.total_ms.max(f64::MIN_POSITIVE)
        );
    }
    assert!(
        path.attributed_fraction() >= 0.95,
        "p99 critical path must attribute >= 95% of wall time, got {:.3}",
        path.attributed_fraction()
    );

    // (c) Federation: one fleet-level page, counters summed across the
    // router and every member under deterministic label order.
    println!(
        "\nfederated {} series across {} sources into one exposition page ({} bytes)",
        run.federated_series,
        1 + (SHARDS * (REPLICAS + 1)) as usize,
        run.federated_page.len()
    );
    for family in [
        "hallu_cluster_routed_total",
        "hallu_cluster_replicated_total",
        "hallu_detector_probes_total",
        "hallu_serving_outcomes_total",
    ] {
        assert!(
            run.federated_page.contains(family),
            "federated page must carry {family}"
        );
    }

    // (d) SLO alerting: the chaos scenario must trip at least one
    // burn-rate rule, and every event is typed and timestamped.
    println!("\nalert timeline ({} events):", run.alerts.len());
    for a in &run.alerts {
        println!(
            "  t={:>9.1} ms  {:<12} {:<9} {:<6} fast_burn={:.2} slow_burn={:.2}",
            a.at_ms,
            a.slo,
            a.kind.label(),
            a.severity.label(),
            a.fast_burn,
            a.slow_burn
        );
    }
    assert!(
        !run.alerts.is_empty(),
        "seeded chaos must trip at least one burn-rate alert"
    );

    // (e) Bitwise reproducibility of all three planes.
    let rerun = run_once(n, horizon_ms, episodes);
    assert_eq!(
        rerun.traces, run.traces,
        "same (seed, config), same stitched trace trees"
    );
    assert_eq!(
        rerun.federated_page, run.federated_page,
        "same (seed, config), same federated exposition page"
    );
    assert_eq!(
        rerun.alerts, run.alerts,
        "same (seed, config), same alert timeline"
    );
    println!("\nrerun: trace trees, federated page, alert timeline all bitwise identical");

    record.measure("p99 completed latency ms", p99_latency);
    record.measure("p99 attributed fraction", path.attributed_fraction());
    record.measure("trace trees", run.traces.len() as f64);
    record.measure("federated series", run.federated_series as f64);
    record.measure("alert events", run.alerts.len() as f64);
    save_record(&record, std::path::Path::new(RESULTS_PATH)).expect("write results");
    println!("saved ext-trace to {RESULTS_PATH}");
}
