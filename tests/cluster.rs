//! Golden chaos-regression suite for the sharded verification cluster.
//!
//! The claims under test, in the `batch_parity` discipline:
//!
//! - **Chaos is bit-reproducible**: two runs of the same seeded
//!   [`ChaosPlan`] produce identical outcome sequences, identical metric
//!   snapshots, and identical flight records.
//! - **Chaos never invents verdicts**: under injected shard faults every
//!   request either degrades to a typed abstention/shed or decides exactly
//!   what a healthy single runtime decides for that question.
//! - **Blast-radius isolation**: killing one shard of eight loses at most
//!   that shard's keys — every other key's outcome is bitwise identical to
//!   the no-chaos run.
//! - **One outcome per request**, with the serving member named on every
//!   completed outcome.

use bench::handbook::{self, QUESTIONS};
use hallu_obs::{critical_path, AlertEvent, Obs, SegmentKind, SloConfig, TraceContext, TraceTree};
use rag::cluster::{
    AbstainCause, ChaosPlan, ClusterConfig, ClusterDisposition, ClusterOutcome, ClusterRuntime,
    ClusterStats, DetectorKind, ReplicationConfig, RouteKind,
};
use rag::serving::{Priority, ServingConfig};
use slm_runtime::gossip::GossipConfig;
use vectordb::flat::FlatIndex;

/// Base of the per-member fault seeds: member `(shard, replica)` seeds its
/// verifiers from `MEMBER_SEED + 10·shard + replica`.
const MEMBER_SEED: u64 = 1000;

/// Submit `n` requests, `spacing_ms` apart, on the handbook cycle of the
/// four questions and the three priority classes.
fn submit_load(cluster: &mut ClusterRuntime<FlatIndex>, n: u32, spacing_ms: f64) {
    for i in 0..n {
        let (question, priority) = handbook::request(u64::from(i));
        cluster.submit_at(spacing_ms * f64::from(i), question, priority);
    }
}

/// Generous per-member config: unbounded queues and effectively infinite
/// deadlines, so the only degradation in these tests comes from chaos.
fn roomy() -> ServingConfig {
    ServingConfig {
        queue_bound: None,
        default_deadline_ms: f64::INFINITY,
        ..ServingConfig::default()
    }
}

/// The standard chaos topology for this suite: 8 shards × (1 primary + 1
/// replica), fast probes, no spill.
fn chaos_config() -> ClusterConfig {
    ClusterConfig {
        replicas: 1,
        serving: roomy(),
        probe_interval_ms: 20.0,
        probe_timeout_ms: 10.0,
        ..ClusterConfig::default()
    }
}

/// Seeded plan used by the determinism and regression tests: 6 failure
/// episodes over the workload window on the 8×2 topology.
fn seeded_plan() -> ChaosPlan {
    ChaosPlan::seeded(0xC4A0_5001, 8, 1, 2_000.0, 6)
}

/// Golden chaos regression: under a seeded fault schedule, every request
/// that the cluster still decides gets the *same verdict class* the
/// healthy no-chaos run gives that request — chaos may only *remove*
/// answers (typed abstentions), never change one. This is the
/// cluster-scope analogue of `batch_parity`'s "same verdict multiset
/// modulo Abstain". (Exact scores drift with each member's Eq. 4
/// calibration history — a request failed over to a replica is scored by
/// a member with a different history — so the invariant is on verdicts,
/// not float identity; the no-replica bitwise claim is
/// `killing_one_shard_loses_only_that_shards_keys` below.)
#[test]
fn chaos_degrades_to_abstention_never_to_different_verdicts() {
    let run = |plan: ChaosPlan| {
        let mut cluster =
            ClusterRuntime::new(8, chaos_config(), handbook::member(MEMBER_SEED)).with_chaos(plan);
        submit_load(&mut cluster, 96, 20.0);
        cluster.run_until_idle();
        let mut outcomes = cluster.drain_outcomes();
        outcomes.sort_by_key(|o| o.id);
        outcomes
    };
    let healthy = run(ChaosPlan::none());
    let chaotic = run(seeded_plan());
    assert_eq!(healthy.len(), 96, "one outcome per submission");
    assert_eq!(chaotic.len(), 96, "one outcome per submission, chaos too");

    let stats = ClusterStats::from_outcomes(&chaotic);
    let mut decided = 0;
    for (h, c) in healthy.iter().zip(&chaotic) {
        assert_eq!(h.id, c.id);
        match &c.disposition {
            ClusterDisposition::Completed(_) => {
                decided += 1;
                assert_eq!(
                    c.label(),
                    h.label(),
                    "chaos changed a verdict for {:?} (route {:?})",
                    c.question,
                    c.route
                );
                assert!(
                    c.served_by.is_some(),
                    "completed outcomes must name their member: {c:?}"
                );
            }
            ClusterDisposition::Abstained(_) | ClusterDisposition::Shed(_) => {}
            ClusterDisposition::Failed(e) => panic!("retrieval cannot fail here: {e}"),
        }
    }
    assert!(
        decided > 0,
        "the plan must leave room for decided verdicts: {stats:?}"
    );
    assert!(
        stats.cluster_abstained > 0 || stats.failovers > 0,
        "the plan must actually bite (faults observed): {stats:?}"
    );
}

/// Bit-reproducibility: two runs of the same seeded plan produce identical
/// outcome sequences, identical metric snapshots, and identical flight
/// records — chaos included, nothing left to wall clocks or hash order.
#[test]
fn seeded_chaos_runs_are_bitwise_reproducible() {
    let run = |obs: &Obs| {
        let mut cluster = ClusterRuntime::new(8, chaos_config(), handbook::member(MEMBER_SEED))
            .with_obs(obs)
            .with_chaos(seeded_plan());
        submit_load(&mut cluster, 64, 25.0);
        cluster.run_until_idle();
        cluster.drain_outcomes()
    };
    let obs_a = Obs::new();
    let obs_b = Obs::new();
    let a = run(&obs_a);
    let b = run(&obs_b);
    assert_eq!(a, b, "same plan, same outcome sequence");
    assert_eq!(
        obs_a.metrics_snapshot(),
        obs_b.metrics_snapshot(),
        "same plan, same metric snapshot"
    );
    assert_eq!(
        obs_a.flight_records(),
        obs_b.flight_records(),
        "same plan, same flight records"
    );
}

/// Kill one shard of eight (primary only, no replicas, no spill): every
/// key homed elsewhere gets a bitwise-identical outcome to the no-chaos
/// run, and every key on the dead shard still gets a typed outcome.
#[test]
fn killing_one_shard_loses_only_that_shards_keys() {
    let config = ClusterConfig {
        replicas: 0,
        serving: roomy(),
        probe_interval_ms: 20.0,
        probe_timeout_ms: 10.0,
        ..ClusterConfig::default()
    };
    // Find the victim: the home shard of the first question.
    let mut probe = ClusterRuntime::new(8, config, handbook::member(MEMBER_SEED));
    probe.submit_at(0.0, QUESTIONS[0], Priority::Normal);
    probe.run_until_idle();
    let victim = probe.drain_outcomes()[0].home_shard;

    let run = |plan: ChaosPlan| {
        let mut cluster =
            ClusterRuntime::new(8, config, handbook::member(MEMBER_SEED)).with_chaos(plan);
        submit_load(&mut cluster, 64, 25.0);
        cluster.run_until_idle();
        let mut outcomes = cluster.drain_outcomes();
        outcomes.sort_by_key(|o| o.id);
        outcomes
    };
    let healthy = run(ChaosPlan::none());
    let wounded = run(ChaosPlan::none().crash(victim, 0, 300.0, f64::INFINITY));
    assert_eq!(healthy.len(), wounded.len());

    let mut lost = 0;
    for (h, w) in healthy.iter().zip(&wounded) {
        assert_eq!(h.id, w.id);
        if h.home_shard == victim {
            // The victim's keys may degrade — but only to typed cluster
            // abstentions with the crash/unavailability causes.
            match &w.disposition {
                ClusterDisposition::Abstained(
                    AbstainCause::ShardCrashed | AbstainCause::ShardUnavailable,
                ) => lost += 1,
                other => assert_eq!(
                    other, &h.disposition,
                    "victim keys either abstain or match: {w:?}"
                ),
            }
        } else {
            assert_eq!(
                h, w,
                "chaos on shard {victim} must not perturb other shards' keys"
            );
        }
    }
    assert!(
        lost > 0,
        "the crash window must actually cost some of the victim's keys"
    );
    assert!(
        wounded
            .iter()
            .any(|o| o.home_shard == victim
                && matches!(o.disposition, ClusterDisposition::Completed(_))),
        "keys served before the crash complete normally"
    );
}

/// Routing bookkeeping under health: primary routes only, served_by on
/// every outcome, home shard = serving shard, and the stats tally adds up.
#[test]
fn healthy_routing_names_the_primary_member_on_every_outcome() {
    let mut cluster = ClusterRuntime::new(
        8,
        ClusterConfig {
            replicas: 1,
            serving: roomy(),
            ..ClusterConfig::default()
        },
        handbook::member(MEMBER_SEED),
    );
    submit_load(&mut cluster, 32, 30.0);
    cluster.run_until_idle();
    let outcomes: Vec<ClusterOutcome> = cluster.drain_outcomes();
    assert_eq!(outcomes.len(), 32);
    for o in &outcomes {
        assert_eq!(o.route, RouteKind::Primary, "{o:?}");
        let served_by = o.served_by.expect("healthy outcomes name their member");
        assert_eq!(served_by.shard, o.home_shard);
        assert_eq!(served_by.replica, 0);
        assert!(o.finished_at_ms >= o.submitted_at_ms);
    }
    let stats = ClusterStats::from_outcomes(&outcomes);
    assert_eq!(stats.total, 32);
    assert_eq!(
        stats.served + stats.blocked + stats.unverified + stats.abstained,
        32,
        "healthy cluster completes everything: {stats:?}"
    );
    assert_eq!(stats.failovers + stats.spills + stats.cluster_abstained, 0);
}

/// The self-healing topology for the gossip/replication suite: 8 shards ×
/// (1 primary + 1 replica), SWIM gossip detection, replicated caches.
fn healing_config() -> ClusterConfig {
    ClusterConfig {
        detector: DetectorKind::Gossip(GossipConfig::default()),
        replication: Some(ReplicationConfig::default()),
        ..chaos_config()
    }
}

/// Bit-reproducibility with every self-healing subsystem on: same seeded
/// chaos plan, same gossip seed → identical outcome sequences, metric
/// snapshots, flight records, *and* membership timelines. The gossip
/// protocol's randomized probe order is pure arithmetic on its seed.
#[test]
fn gossip_chaos_runs_are_bitwise_reproducible() {
    let run = |obs: &Obs| {
        let mut cluster = ClusterRuntime::new(8, healing_config(), handbook::member(MEMBER_SEED))
            .with_obs(obs)
            .with_chaos(seeded_plan());
        submit_load(&mut cluster, 64, 25.0);
        cluster.run_until_idle();
        let outcomes = cluster.drain_outcomes();
        let timeline = cluster.membership_timeline().to_vec();
        (outcomes, timeline)
    };
    let obs_a = Obs::new();
    let obs_b = Obs::new();
    let (a, tl_a) = run(&obs_a);
    let (b, tl_b) = run(&obs_b);
    assert_eq!(a, b, "same plan + gossip seed, same outcome sequence");
    assert_eq!(
        tl_a, tl_b,
        "same plan + gossip seed, same membership timeline"
    );
    assert!(
        !tl_a.is_empty(),
        "the seeded plan must produce membership transitions"
    );
    assert_eq!(
        obs_a.metrics_snapshot(),
        obs_b.metrics_snapshot(),
        "same plan + gossip seed, same metric snapshot"
    );
    assert_eq!(
        obs_a.flight_records(),
        obs_b.flight_records(),
        "same plan + gossip seed, same flight records"
    );
}

/// The golden verdict invariant survives the new machinery: with gossip
/// detection and cache replication both on, seeded chaos may only remove
/// answers (typed abstentions/sheds), never change a decided verdict
/// relative to the healthy run of the same topology.
#[test]
fn chaos_with_gossip_and_replication_never_changes_a_verdict() {
    let run = |plan: ChaosPlan| {
        let mut cluster = ClusterRuntime::new(8, healing_config(), handbook::member(MEMBER_SEED))
            .with_chaos(plan);
        submit_load(&mut cluster, 96, 20.0);
        cluster.run_until_idle();
        let mut outcomes = cluster.drain_outcomes();
        outcomes.sort_by_key(|o| o.id);
        outcomes
    };
    let healthy = run(ChaosPlan::none());
    let chaotic = run(seeded_plan());
    assert_eq!(healthy.len(), 96);
    assert_eq!(chaotic.len(), 96);
    let mut decided = 0;
    for (h, c) in healthy.iter().zip(&chaotic) {
        assert_eq!(h.id, c.id);
        match &c.disposition {
            ClusterDisposition::Completed(_) => {
                decided += 1;
                assert_eq!(
                    c.label(),
                    h.label(),
                    "chaos changed a verdict for {:?} (route {:?})",
                    c.question,
                    c.route
                );
            }
            ClusterDisposition::Abstained(_) | ClusterDisposition::Shed(_) => {}
            ClusterDisposition::Failed(e) => panic!("retrieval cannot fail here: {e}"),
        }
    }
    assert!(decided > 0, "the plan must leave room for decided verdicts");
}

/// Blast-radius isolation holds under gossip detection: killing one shard
/// of eight (no replicas, no spill) leaves every other key's outcome
/// bitwise identical to the no-chaos gossip run.
#[test]
fn killing_one_shard_of_eight_is_contained_under_gossip() {
    let config = ClusterConfig {
        replicas: 0,
        serving: roomy(),
        probe_interval_ms: 20.0,
        probe_timeout_ms: 10.0,
        detector: DetectorKind::Gossip(GossipConfig::default()),
        ..ClusterConfig::default()
    };
    let mut probe = ClusterRuntime::new(8, config, handbook::member(MEMBER_SEED));
    probe.submit_at(0.0, QUESTIONS[0], Priority::Normal);
    probe.run_until_idle();
    let victim = probe.drain_outcomes()[0].home_shard;

    let run = |plan: ChaosPlan| {
        let mut cluster =
            ClusterRuntime::new(8, config, handbook::member(MEMBER_SEED)).with_chaos(plan);
        submit_load(&mut cluster, 64, 25.0);
        cluster.run_until_idle();
        let mut outcomes = cluster.drain_outcomes();
        outcomes.sort_by_key(|o| o.id);
        outcomes
    };
    let healthy = run(ChaosPlan::none());
    let wounded = run(ChaosPlan::none().crash(victim, 0, 300.0, f64::INFINITY));
    assert_eq!(healthy.len(), wounded.len());
    let mut lost = 0;
    for (h, w) in healthy.iter().zip(&wounded) {
        assert_eq!(h.id, w.id);
        if h.home_shard == victim {
            match &w.disposition {
                ClusterDisposition::Abstained(
                    AbstainCause::ShardCrashed | AbstainCause::ShardUnavailable,
                ) => lost += 1,
                other => assert_eq!(other, &h.disposition),
            }
        } else {
            assert_eq!(
                h, w,
                "gossip chaos on shard {victim} must not perturb other shards' keys"
            );
        }
    }
    assert!(lost > 0, "the crash must actually cost some victim keys");
}

/// Self-healing end to end: a crashed primary's replica serves cache hits
/// on entries it never computed (shipped by the replication plane), and
/// the flap-damped failover changes the routing view at most once per
/// dwell window even under a flapping member.
#[test]
fn failover_targets_serve_replicated_entries_and_flaps_are_damped() {
    let mut config = healing_config();
    config.hysteresis = slm_runtime::HysteresisConfig::default();
    let mut probe = ClusterRuntime::new(4, config, handbook::member(MEMBER_SEED));
    probe.submit_at(0.0, QUESTIONS[0], Priority::Normal);
    probe.run_until_idle();
    let home = probe.drain_outcomes()[0].home_shard;

    let plan = ChaosPlan::none()
        .crash(home, 0, 2_500.0, f64::INFINITY)
        .flap((home + 1) % 4, 0, 300.0, 80.0, 10);
    let mut cluster =
        ClusterRuntime::new(4, config, handbook::member(MEMBER_SEED)).with_chaos(plan);
    // Warm the primary, then keep asking the same question after the crash.
    for i in 0..10u32 {
        cluster.submit_at(200.0 * f64::from(i), QUESTIONS[0], Priority::Normal);
    }
    for i in 0..6u32 {
        cluster.submit_at(
            2_700.0 + 200.0 * f64::from(i),
            QUESTIONS[0],
            Priority::Normal,
        );
    }
    cluster.run_until_idle();
    let outcomes = cluster.drain_outcomes();
    let failovers = outcomes
        .iter()
        .filter(|o| matches!(o.route, RouteKind::Failover { .. }))
        .count();
    assert!(failovers > 0, "the crash must fail over to the replica");
    let stats = cluster.cache_stats_total();
    assert!(
        stats.replicated_inserts > 0 && stats.replicated_hits > 0,
        "failover targets must serve entries they never computed: {stats:?}"
    );
    // Flap damping: a member readmitted after going down must have dwelt
    // down at least `min_dwell_ms` (HysteresisConfig::default = 200 ms,
    // doubling per flap inside the flap window), so the 10 fast flap
    // cycles collapse into a handful of routing transitions.
    let damper = slm_runtime::HysteresisConfig::default();
    let flapper = slm_runtime::MemberId {
        shard: (home + 1) % 4,
        replica: 0,
    };
    let mut went_down_at: Option<f64> = None;
    let mut flapper_downs = 0;
    for ev in cluster.membership_timeline() {
        if ev.member != flapper {
            continue;
        }
        if ev.up {
            if let Some(down_at) = went_down_at.take() {
                assert!(
                    ev.at_ms - down_at >= damper.min_dwell_ms,
                    "readmitted before the dwell window elapsed: down at \
                     {down_at}, up at {}",
                    ev.at_ms
                );
            }
        } else {
            flapper_downs += 1;
            went_down_at = Some(ev.at_ms);
        }
    }
    assert!(flapper_downs >= 1, "the flapping member must be detected");
    assert!(
        flapper_downs <= 4,
        "damping must absorb most of the 10 flap cycles, got {flapper_downs} downs"
    );
}

/// One fully-instrumented chaos run: gossip + replication + tracing +
/// SLO burn-rate alerting, returning the three observability artifacts
/// the golden assertions compare.
fn observed_run() -> (Vec<ClusterOutcome>, Vec<TraceTree>, String, Vec<AlertEvent>) {
    let mut cluster = ClusterRuntime::new(8, healing_config(), handbook::member(MEMBER_SEED))
        .with_chaos(seeded_plan())
        .with_slos(vec![
            SloConfig::availability(0.99),
            SloConfig::latency(0.9, 500.0),
        ]);
    submit_load(&mut cluster, 64, 25.0);
    cluster.run_until_idle();
    let mut outcomes = cluster.drain_outcomes();
    outcomes.sort_by_key(|o| o.id);
    (
        outcomes,
        cluster.stitched_traces(),
        cluster.render_prometheus_federated(),
        cluster.alert_timeline().to_vec(),
    )
}

/// The tentpole acceptance claim: two runs from the same `(seed, config)`
/// emit bitwise-identical stitched trace trees, federated exposition
/// pages, and SLO alert timelines — the new observability planes inherit
/// the simulation's determinism end to end.
#[test]
fn traces_federation_and_alerts_are_bitwise_reproducible() {
    let (outcomes_a, traces_a, page_a, alerts_a) = observed_run();
    let (outcomes_b, traces_b, page_b, alerts_b) = observed_run();
    assert_eq!(outcomes_a, outcomes_b, "same plan, same outcome sequence");
    assert_eq!(traces_a, traces_b, "same plan, same stitched trace trees");
    assert_eq!(page_a, page_b, "same plan, same federated exposition page");
    assert_eq!(alerts_a, alerts_b, "same plan, same alert timeline");
    assert_eq!(traces_a.len(), 64, "one stitched trace tree per submission");
    assert!(
        !alerts_a.is_empty(),
        "the seeded plan must trip at least one burn-rate rule"
    );
}

/// Trace semantics: every request's tree is rooted at a router-scope
/// `request` span whose id is the pure function of `(trace_seed, id)`,
/// and the p99 completed request's critical path attributes >= 95% of its
/// wall time to named segments (queue + scoring for a completed request).
#[test]
fn stitched_traces_decompose_request_latency() {
    let (outcomes, traces, _, _) = observed_run();
    let trace_seed = ClusterConfig::default().trace_seed;
    let mut completed: Vec<&ClusterOutcome> = outcomes
        .iter()
        .filter(|o| matches!(o.disposition, ClusterDisposition::Completed(_)))
        .collect();
    assert!(!completed.is_empty(), "chaos must leave survivors");
    completed.sort_by(|a, b| {
        (a.finished_at_ms - a.submitted_at_ms).total_cmp(&(b.finished_at_ms - b.submitted_at_ms))
    });
    let p99 = completed[((completed.len() - 1) as f64 * 0.99).floor() as usize];
    let ctx = TraceContext::root(trace_seed, p99.id);
    let tree = traces
        .iter()
        .find(|t| t.trace_id == ctx.trace_id)
        .expect("the p99 request has a stitched trace");
    assert_eq!(tree.root.span.name, "request");
    assert_eq!(tree.root.span.id, ctx.span_id);
    assert_eq!(tree.root.span.source, "router");
    let path = critical_path(tree);
    assert!(
        path.attributed_fraction() >= 0.95,
        "p99 critical path must attribute >= 95% of wall time, got {:.3}",
        path.attributed_fraction()
    );
    assert!(
        path.ms_in(SegmentKind::Queue) + path.ms_in(SegmentKind::Scoring) > 0.0,
        "a completed request decomposes into queue/scoring time"
    );
    // Every submission's tree exists and is rooted at its derived ids.
    for o in &outcomes {
        let ctx = TraceContext::root(trace_seed, o.id);
        let tree = traces
            .iter()
            .find(|t| t.trace_id == ctx.trace_id)
            .expect("every request stitches into a tree");
        assert_eq!(tree.root.span.id, ctx.span_id, "root is the request span");
    }
}

/// Federation semantics: the merged fleet snapshot sums router counters
/// with member counters under one deterministic page — router-scope
/// series (submitted, routed, replicated), member-scope series
/// (serving outcomes), and the detector's probe counter all co-exist.
#[test]
fn federated_snapshot_spans_router_and_members() {
    let mut cluster = ClusterRuntime::new(8, healing_config(), handbook::member(MEMBER_SEED))
        .with_chaos(seeded_plan());
    submit_load(&mut cluster, 64, 25.0);
    cluster.run_until_idle();
    let fed = cluster.federated();
    assert_eq!(fed.len(), 17, "router + 8 shards x 2 members");
    let snapshot = cluster.federated_snapshot();
    assert_eq!(
        snapshot.total("hallu_cluster_submitted_total"),
        64.0,
        "router counters pass through the merge"
    );
    assert!(
        snapshot.total("hallu_serving_outcomes_total") > 0.0,
        "member counters sum across sinks"
    );
    assert!(
        snapshot.total("hallu_detector_probes_total") > 0.0,
        "the failure detector's probes are mirrored"
    );
    let page = cluster.render_prometheus_federated();
    for family in [
        "hallu_cluster_routed_total",
        "hallu_cluster_replicated_total",
        "hallu_serving_outcomes_total",
    ] {
        assert!(page.contains(family), "federated page must carry {family}");
    }
    // Gauges keep member identity instead of being summed away.
    assert!(
        page.contains("member=\"s0r0\""),
        "gauges carry their member label on the federated page"
    );
}
