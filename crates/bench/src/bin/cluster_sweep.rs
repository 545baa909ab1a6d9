//! Cluster experiment: the sharded verification cluster under load and
//! under chaos, on one shared virtual clock.
//!
//! Sweeps replica count × chaos on/off over an 8-shard cluster driven at
//! 30 req/s and reports sustained throughput, p99 latency, abstain rate,
//! and failover counts per cell, demonstrating:
//!
//! (a) every submitted request gets exactly one typed [`ClusterOutcome`]
//!     — chaos included — and a chaos-free cluster abstains on nothing;
//! (b) replicas buy availability: under the same seeded fault schedule,
//!     the cluster-abstain rate falls as replicas are added, because
//!     crashed primaries fail over instead of dropping their keys;
//! (c) the whole experiment is deterministic — seeded Poisson arrivals,
//!     a seeded [`ChaosPlan`], simulated service times, a virtual clock —
//!     so every rerun reproduces every failover and every abstention.
//!
//! Pass `--smoke` for a reduced load (used by the CI cluster-smoke job).

use bench::handbook::{self, p99};
use bench::{save_record, RESULTS_PATH};
use eval::report::ExperimentRecord;
use rag::cluster::{ChaosPlan, ClusterConfig, ClusterOutcome, ClusterRuntime, ClusterStats};
use rag::ServingConfig;

const ARRIVAL_SEED: u64 = 0x0C10_50AD;
const CHAOS_SEED: u64 = 0xC4A0_5EED;
/// Base of the per-member fault seeds (healthy verifiers).
const MEMBER_SEED: u64 = 5000;
const SHARDS: u32 = 8;
const RATE_PER_S: f64 = 30.0;
/// End-to-end deadline per request, in simulated milliseconds.
const DEADLINE_MS: f64 = 2_000.0;

/// One swept cell's aggregates.
struct CellResult {
    throughput_per_s: f64,
    p99_latency_ms: f64,
    abstain_fraction: f64,
    stats: ClusterStats,
}

fn run_cell(replicas: u32, chaos: bool, n: u64, horizon_ms: f64, episodes: usize) -> CellResult {
    let config = ClusterConfig {
        replicas,
        serving: ServingConfig {
            queue_bound: None,
            default_deadline_ms: DEADLINE_MS,
            ..ServingConfig::default()
        },
        probe_interval_ms: 25.0,
        probe_timeout_ms: 10.0,
        ..ClusterConfig::default()
    };
    let plan = if chaos {
        ChaosPlan::seeded(CHAOS_SEED, SHARDS, replicas, horizon_ms, episodes)
    } else {
        ChaosPlan::none()
    };
    let mut cluster =
        ClusterRuntime::new(SHARDS, config, handbook::member(MEMBER_SEED)).with_chaos(plan);
    for (at_ms, question, priority) in handbook::arrivals(ARRIVAL_SEED, n, RATE_PER_S) {
        cluster.submit_at(at_ms, question, priority);
    }
    cluster.run_until_idle();
    let outcomes = cluster.drain_outcomes();
    // Invariant (a): one typed outcome per submission, no exceptions.
    assert_eq!(
        outcomes.len() as u64,
        n,
        "every request must get exactly one outcome (replicas={replicas} chaos={chaos})"
    );
    let stats = ClusterStats::from_outcomes(&outcomes);
    if !chaos {
        assert_eq!(
            stats.cluster_abstained, 0,
            "a chaos-free cluster abstains on nothing: {stats:?}"
        );
        assert_eq!(
            stats.failovers, 0,
            "a chaos-free cluster never fails over: {stats:?}"
        );
    }
    let horizon_s = (cluster.now_ms() / 1000.0).max(f64::MIN_POSITIVE);
    let served: Vec<&ClusterOutcome> = outcomes.iter().filter(|o| o.is_served()).collect();
    let latencies: Vec<f64> = served
        .iter()
        .map(|o| o.finished_at_ms - o.submitted_at_ms)
        .collect();
    CellResult {
        throughput_per_s: served.len() as f64 / horizon_s,
        p99_latency_ms: p99(&latencies),
        abstain_fraction: stats.cluster_abstained as f64 / stats.total as f64,
        stats,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n: u64 = if smoke { 90 } else { 360 };
    let episodes = if smoke { 4 } else { 10 };
    // Expected workload window (the chaos plan is spread over it).
    let horizon_ms = n as f64 / RATE_PER_S * 1000.0;
    let mut record = ExperimentRecord::new(
        "ext-cluster",
        "Sharded cluster throughput and abstain rate under chaos",
    );

    println!(
        "{SHARDS} shards x {RATE_PER_S:.0} req/s x replicas {{0,1,2}} x chaos {{off,on}}, \
         {n} requests per cell\n"
    );
    println!(
        "{:>8} {:>6} {:>12} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "replicas", "chaos", "throughput/s", "p99 ms", "abstain%", "failover", "served", "shed"
    );
    let mut cells = Vec::new();
    for replicas in [0u32, 1, 2] {
        for chaos in [false, true] {
            let cell = run_cell(replicas, chaos, n, horizon_ms, episodes);
            println!(
                "{replicas:>8} {:>6} {:>12.2} {:>9.1} {:>8.1}% {:>9} {:>9} {:>7}",
                if chaos { "on" } else { "off" },
                cell.throughput_per_s,
                cell.p99_latency_ms,
                100.0 * cell.abstain_fraction,
                cell.stats.failovers,
                cell.stats.served,
                cell.stats.shed,
            );
            let label = format!("r{replicas} chaos={}", if chaos { "on" } else { "off" });
            record.measure(format!("throughput {label}"), cell.throughput_per_s);
            record.measure(format!("abstain rate {label}"), cell.abstain_fraction);
            cells.push((replicas, chaos, cell));
        }
    }

    // Invariant (b): under the same plan, replicas monotonically shrink
    // (weakly) the set of keys lost to chaos.
    let abstain_at = |r: u32| {
        cells
            .iter()
            .find(|(replicas, chaos, _)| *replicas == r && *chaos)
            .map(|(_, _, c)| c.abstain_fraction)
            .expect("swept cell")
    };
    assert!(
        abstain_at(2) <= abstain_at(0),
        "two replicas must not lose more keys than none: {} !<= {}",
        abstain_at(2),
        abstain_at(0)
    );

    println!("\nsustained throughput (req/s served)");
    println!("{:>8} {:>10} {:>10}", "replicas", "chaos off", "chaos on");
    for replicas in [0u32, 1, 2] {
        let get = |chaos: bool| {
            cells
                .iter()
                .find(|(r, c, _)| *r == replicas && *c == chaos)
                .map(|(_, _, cell)| cell.throughput_per_s)
                .expect("swept cell")
        };
        println!("{replicas:>8} {:>10.2} {:>10.2}", get(false), get(true));
    }
    println!("\ncluster abstain rate");
    println!("{:>8} {:>10} {:>10}", "replicas", "chaos off", "chaos on");
    for replicas in [0u32, 1, 2] {
        let get = |chaos: bool| {
            cells
                .iter()
                .find(|(r, c, _)| *r == replicas && *c == chaos)
                .map(|(_, _, cell)| cell.abstain_fraction)
                .expect("swept cell")
        };
        println!(
            "{replicas:>8} {:>9.1}% {:>9.1}%",
            100.0 * get(false),
            100.0 * get(true)
        );
    }

    save_record(&record, std::path::Path::new(RESULTS_PATH)).expect("write results");
    println!("\nsaved ext-cluster to {RESULTS_PATH}");
}
