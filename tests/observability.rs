//! Workspace-level observability contract tests (DESIGN.md §9).
//!
//! 1. **Golden / bitwise neutrality**: a chaos-overload run through the
//!    full stack (serving runtime → guarded pipeline → resilient detector
//!    → fault injectors) decides exactly the same outcomes with a sink
//!    attached as without one.
//! 2. **Determinism**: two identical virtual-clock runs on fresh sinks
//!    emit bitwise-identical metric snapshots, span trees, and flight
//!    records.
//! 3. **Self-containment**: serving flight records and outcomes carry the
//!    request's priority class and the queue depth at decision time.

use bench::handbook;
use hallu_obs::Obs;
use rag::{Disposition, FailurePolicy, RequestOutcome, ServingConfig, ServingRuntime, ShedPolicy};
use slm_runtime::FaultProfile;

/// Flaky verifiers: transients on both, stalls and garbage on the first.
fn chaos_profiles() -> [FaultProfile; 2] {
    [
        FaultProfile {
            transient_rate: 0.2,
            stall_rate: 0.05,
            garbage_rate: 0.05,
            ..FaultProfile::none(7)
        },
        FaultProfile {
            transient_rate: 0.2,
            ..FaultProfile::none(8)
        },
    ]
}

/// A chaos-overload run: bounded queue, tight deadlines, mixed priorities.
fn run_scenario(obs: Option<&Obs>) -> Vec<RequestOutcome> {
    let mut rt = ServingRuntime::new(
        handbook::pipeline(
            handbook::detector(chaos_profiles(), obs),
            FailurePolicy::Abstain,
        ),
        ServingConfig {
            queue_bound: Some(2),
            shed_policy: ShedPolicy::ShedLowestPriority,
            default_deadline_ms: 150.0,
        },
    );
    if let Some(obs) = obs {
        rt = rt.with_obs(obs);
    }
    for i in 0..24u32 {
        let (question, priority) = handbook::request(u64::from(i));
        rt.submit_at(4.0 * f64::from(i), question, priority);
    }
    rt.run_until_idle();
    rt.drain_outcomes()
}

/// Golden test: every Verdict, shed, and timestamp in the instrumented run
/// equals the bare run bitwise.
#[test]
fn instrumented_chaos_run_is_bitwise_identical() {
    let bare = run_scenario(None);
    let obs = Obs::new();
    let instrumented = run_scenario(Some(&obs));
    assert_eq!(bare, instrumented);
    assert!(
        !obs.flight_records().is_empty(),
        "the instrumented run must actually have recorded flights"
    );
    assert!(
        obs.metrics_snapshot().total("hallu_serving_outcomes_total") > 0.0,
        "the instrumented run must actually have counted outcomes"
    );
}

/// Determinism test: two identical virtual-clock runs produce identical
/// telemetry — metric snapshots, span trees, and flight records.
#[test]
fn identical_runs_emit_identical_telemetry() {
    let obs_a = Obs::new();
    let obs_b = Obs::new();
    let outcomes_a = run_scenario(Some(&obs_a));
    let outcomes_b = run_scenario(Some(&obs_b));
    assert_eq!(
        outcomes_a, outcomes_b,
        "the scenario itself is deterministic"
    );
    assert_eq!(
        obs_a.metrics_snapshot(),
        obs_b.metrics_snapshot(),
        "metric snapshots must match exactly"
    );
    assert_eq!(
        obs_a.span_tree(),
        obs_b.span_tree(),
        "span trees must match exactly"
    );
    assert_eq!(
        obs_a.flight_records(),
        obs_b.flight_records(),
        "flight records must match exactly"
    );
}

/// Satellite 2: shed flight records and outcomes are self-contained — the
/// priority class and queue depth at decision time ride along, so a shed
/// can be interpreted without replaying the queue that caused it.
#[test]
fn serving_outcomes_and_flights_are_self_contained() {
    let obs = Obs::new();
    let outcomes = run_scenario(Some(&obs));
    let sheds: Vec<&RequestOutcome> = outcomes
        .iter()
        .filter(|o| matches!(o.disposition, Disposition::Shed(_)))
        .collect();
    assert!(!sheds.is_empty(), "this load must shed");
    for o in &sheds {
        assert!(
            o.queue_depth_at_decision <= 2,
            "depth cannot exceed the queue bound: {o:?}"
        );
    }
    for record in obs
        .flight_records()
        .iter()
        .filter(|r| r.outcome.starts_with("shed:"))
    {
        assert!(record.field("shed", "reason").is_some(), "{record:?}");
        assert!(record.field("shed", "priority").is_some(), "{record:?}");
        assert!(record.field("shed", "queue_depth").is_some(), "{record:?}");
    }
    // Completed requests carry the guard decision in their record.
    let completed = obs
        .flight_records()
        .iter()
        .find(|r| !r.outcome.starts_with("shed:") && r.outcome != "interrupted")
        .cloned();
    if let Some(r) = completed {
        assert!(
            !r.events_named("service_start").is_empty(),
            "completed flights begin with admission context: {r:?}"
        );
    }
}
