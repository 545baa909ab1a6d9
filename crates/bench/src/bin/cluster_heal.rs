//! Self-healing cluster experiment: failure detection × cache replication
//! under one seeded fault schedule.
//!
//! Sweeps {central, gossip} failure detection × {off, on} verification-cache
//! replication over an 8-shard × 2-member cluster driven at 30 req/s with a
//! seeded chaos plan, demonstrating:
//!
//! (a) every request gets exactly one typed outcome in every cell, and the
//!     decided verdict classes are identical across all four cells — neither
//!     the detector protocol nor replication changes a verdict, they only
//!     move where (and whether) it is computed;
//! (b) replication warms failover targets: with replication on, members
//!     serve cache hits on entries they never computed
//!     (`replicated_hits > 0` after primaries crash);
//! (c) self-healing availability: the gossip + replication cell abstains on
//!     no more keys than the central no-replication baseline;
//! (d) the whole sweep is deterministic — rerunning a cell reproduces its
//!     outcome sequence bitwise, gossip's randomized probe order included.
//!
//! Pass `--smoke` for a reduced load (used by the CI heal-smoke job).

use bench::handbook;
use bench::{save_record, RESULTS_PATH};
use eval::report::ExperimentRecord;
use rag::cluster::{
    ChaosPlan, ClusterConfig, ClusterDisposition, ClusterOutcome, ClusterRuntime, ClusterStats,
    DetectorKind, ReplicationConfig,
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

/// One swept cell's aggregates.
struct CellResult {
    outcomes: Vec<ClusterOutcome>,
    stats: ClusterStats,
    abstain_fraction: f64,
    replicated_inserts: u64,
    replicated_hits: u64,
    membership_transitions: usize,
}

fn run_cell(
    detector: DetectorKind,
    replication: bool,
    n: u64,
    horizon_ms: f64,
    episodes: usize,
) -> CellResult {
    let config = ClusterConfig {
        replicas: REPLICAS,
        serving: ServingConfig {
            queue_bound: None,
            default_deadline_ms: DEADLINE_MS,
            ..ServingConfig::default()
        },
        probe_interval_ms: 25.0,
        probe_timeout_ms: 10.0,
        detector,
        replication: replication.then(ReplicationConfig::default),
        ..ClusterConfig::default()
    };
    let plan = ChaosPlan::seeded(CHAOS_SEED, SHARDS, REPLICAS, horizon_ms, episodes);
    let mut cluster =
        ClusterRuntime::new(SHARDS, config, handbook::member(MEMBER_SEED)).with_chaos(plan);
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
    let stats = ClusterStats::from_outcomes(&outcomes);
    let cache = cluster.cache_stats_total();
    CellResult {
        abstain_fraction: stats.cluster_abstained as f64 / stats.total as f64,
        replicated_inserts: cache.replicated_inserts,
        replicated_hits: cache.replicated_hits,
        membership_transitions: cluster.membership_timeline().len(),
        outcomes,
        stats,
    }
}

fn detector_label(d: DetectorKind) -> &'static str {
    match d {
        DetectorKind::Central => "central",
        DetectorKind::Gossip(_) => "gossip",
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n: u64 = if smoke { 120 } else { 360 };
    let episodes = if smoke { 5 } else { 10 };
    let horizon_ms = n as f64 / RATE_PER_S * 1000.0;
    let mut record = ExperimentRecord::new(
        "ext-heal",
        "Self-healing cluster: detection protocol x cache replication under chaos",
    );

    println!(
        "{SHARDS} shards x {} members x {RATE_PER_S:.0} req/s, seeded chaos, \
         {n} requests per cell\n",
        REPLICAS + 1
    );
    println!(
        "{:>9} {:>5} {:>9} {:>9} {:>10} {:>10} {:>11}",
        "detector", "repl", "abstain%", "failover", "repl.ins", "repl.hits", "transitions"
    );
    let detectors = [
        DetectorKind::Central,
        DetectorKind::Gossip(GossipConfig::default()),
    ];
    let mut cells = Vec::new();
    for detector in detectors {
        for replication in [false, true] {
            let cell = run_cell(detector, replication, n, horizon_ms, episodes);
            println!(
                "{:>9} {:>5} {:>8.1}% {:>9} {:>10} {:>10} {:>11}",
                detector_label(detector),
                if replication { "on" } else { "off" },
                100.0 * cell.abstain_fraction,
                cell.stats.failovers,
                cell.replicated_inserts,
                cell.replicated_hits,
                cell.membership_transitions,
            );
            let label = format!("{} repl={}", detector_label(detector), replication);
            record.measure(format!("abstain rate {label}"), cell.abstain_fraction);
            record.measure(
                format!("replicated hits {label}"),
                cell.replicated_hits as f64,
            );
            cells.push((detector_label(detector), replication, cell));
        }
    }

    let cell = |d: &str, r: bool| {
        cells
            .iter()
            .find(|(det, repl, _)| *det == d && *repl == r)
            .map(|(_, _, c)| c)
            .expect("swept cell")
    };

    // Invariant (a): decided verdict classes are identical across cells —
    // detection protocol and replication move work, never verdicts.
    let baseline = cell("central", false);
    for (d, r) in [("central", true), ("gossip", false), ("gossip", true)] {
        let other = cell(d, r);
        for (b, o) in baseline.outcomes.iter().zip(&other.outcomes) {
            if let (ClusterDisposition::Completed(_), ClusterDisposition::Completed(_)) =
                (&b.disposition, &o.disposition)
            {
                assert_eq!(
                    b.label(),
                    o.label(),
                    "cell {d}/repl={r} changed a decided verdict for {:?}",
                    o.question
                );
            }
        }
    }

    // Invariant (b): replication warms failover targets.
    for d in ["central", "gossip"] {
        let warmed = cell(d, true);
        assert!(
            warmed.replicated_inserts > 0,
            "{d}: sync rounds must ship cache entries"
        );
        assert!(
            warmed.replicated_hits > 0,
            "{d}: failover targets must serve entries they never computed"
        );
    }

    // Invariant (c): self-healing availability — gossip + replication
    // abstains on no more keys than the central no-replication baseline.
    let healed = cell("gossip", true);
    assert!(
        healed.abstain_fraction <= baseline.abstain_fraction,
        "gossip+replication must not lose more keys than the central baseline: {} !<= {}",
        healed.abstain_fraction,
        baseline.abstain_fraction
    );

    // Invariant (d): rerunning the most complex cell reproduces it bitwise.
    let rerun = run_cell(
        DetectorKind::Gossip(GossipConfig::default()),
        true,
        n,
        horizon_ms,
        episodes,
    );
    assert_eq!(
        rerun.outcomes, healed.outcomes,
        "same seeds, same outcome sequence"
    );
    assert_eq!(
        rerun.membership_transitions, healed.membership_transitions,
        "same seeds, same membership timeline length"
    );

    println!("\nabstain rate (availability)");
    println!("{:>9} {:>10} {:>10}", "detector", "repl off", "repl on");
    for d in ["central", "gossip"] {
        println!(
            "{d:>9} {:>9.1}% {:>9.1}%",
            100.0 * cell(d, false).abstain_fraction,
            100.0 * cell(d, true).abstain_fraction
        );
    }

    save_record(&record, std::path::Path::new(RESULTS_PATH)).expect("write results");
    println!("\nsaved ext-heal to {RESULTS_PATH}");
}
