//! Sharded verification cluster: consistent-hash routing, replica
//! failover, partition tolerance, and reproducible chaos.
//!
//! A single [`ServingRuntime`] is one node. This module scales the serving
//! path "to millions of users" (ROADMAP) by running N replica groups —
//! each a primary plus R replica [`ServingRuntime`]s around their own
//! [`ResilientVerifiedPipeline`] — behind a router:
//!
//! * **Routing** — request keys (the question; retrieval derives the
//!   context from it deterministically) map onto shards through the
//!   [`HashRing`] slot table, so repeated questions land on the same
//!   shard and its prefix / verification caches stay warm. Shard
//!   add/remove moves a bounded slice of the keyspace (≤ ⌈K/N⌉, asserted
//!   via [`RebalanceReport::within_bound`]); unrelated keys never move.
//! * **Failover** — the router probes every member each
//!   `probe_interval_ms`. A probe into a crashed or partitioned member
//!   times out after `probe_timeout_ms`, at which point the member is
//!   marked down and the member's traffic fails over to the next replica
//!   in its group. A delivery that hits a dead member the router still
//!   believed in fails on the spot (data-path detection): the member is
//!   marked down immediately and the next replica is tried. A reachable
//!   probe marks a member back up at the probe tick.
//! * **Spill** — optionally ([`ClusterConfig::spill`]), the router reads
//!   each member's `hallu_serving_service_ms` histogram (live handles on
//!   the shared registry) plus its queue depth and, when the home shard
//!   looks overloaded or slow, spills the request one node forward on the
//!   ring ([`HashRing::spill_target`]). Off by default: spilling trades
//!   cache locality for load, and with it off, chaos on one shard cannot
//!   perturb any other shard's stream (the kill-one-shard guarantee).
//! * **Chaos** — a [`ChaosPlan`] schedules crashes, restarts, slow
//!   members, replica flaps, and router↔shard partitions at virtual
//!   times. Plans are data (or derived from a seed by pure arithmetic, the
//!   `FaultInjector` discipline), the cluster runs on one shared
//!   [`VirtualClock`], and every event at an equal timestamp is applied in
//!   a fixed order — so each chaos scenario is bit-reproducible: same
//!   plan, same outcomes, same metric snapshot, same flight records, same
//!   membership timeline.
//!
//! ## Self-healing
//!
//! Three layers (this PR) turn "fails over" into "heals itself":
//!
//! * **Pluggable failure detection** — the router's member view comes from
//!   a [`FailureDetector`] chosen by [`ClusterConfig::detector`]: the
//!   central prober above (the parity baseline) or SWIM-style gossip
//!   ([`slm_runtime::gossip`]), where members probe seeded-random peers,
//!   retry through proxies, and spread membership facts epidemically —
//!   which, unlike central probing, can tell a dead member from a dead
//!   router link. Every routing-view transition lands in a membership
//!   timeline ([`ClusterRuntime::membership_timeline`]) that reproduces
//!   bitwise for a given `(seed, config, plan)`.
//! * **Cache replication** — with [`ClusterConfig::replication`] set, every
//!   member gets a [`VerificationCache`] and the router drives periodic
//!   replication rounds: journal deltas between replica-group peers (and
//!   optionally to the ring-successor shard), anti-entropy page walks when
//!   a cursor falls behind, all under a per-round byte budget. A failover
//!   target then serves warm hits it never computed. The no-poisoning gate
//!   re-applies on arrival, and since probe episodes are pure functions of
//!   their cell, replication can never change a verdict.
//! * **Hysteresis** — raw detector signals pass through a flap damper
//!   ([`ClusterConfig::hysteresis`]): distinct up/down thresholds, minimum
//!   dwell before readmission, exponential penalty for flapping members.
//!   The spill policy gets the same treatment — its slow-shard signal is a
//!   decayed-window latency quantile held through a dwell window — so
//!   intermittent faults stop whipsawing routing and spill decisions.
//!
//! **Every submitted request gets exactly one typed [`ClusterOutcome`]** —
//! the PR-2 serving invariant extended to cluster scope. The case split:
//! a routed request is owned by exactly one member, whose own one-outcome
//! invariant delivers it (partitioned members keep working — the
//! partition, as documented, cuts the *admission* path, not the response
//! path for already-accepted work); a crashed member's queued and
//! in-flight requests are aborted into [`AbstainCause::ShardCrashed`]
//! outcomes at crash time; a request that cannot be placed at all is
//! refused on the spot with [`AbstainCause::Partitioned`] or
//! [`AbstainCause::ShardUnavailable`]. Nothing hangs; abstention is
//! explicit and typed, in the HALT-RAG spirit of principled abstention.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use hallu_obs::{
    splitmix64, stitch, AlertEvent, DecayedWindow, EventRecord, FederatedRegistry, Histogram,
    MetricsSnapshot, Obs, SloConfig, SloEngine, SpanRecord, TraceContext, TraceTree,
    DEFAULT_LATENCY_BUCKETS_MS,
};
use slm_runtime::gossip::{
    CentralDetector, FailureDetector, GossipConfig, HysteresisConfig, LinkOracle, MemberId,
    SwimDetector, ViewEvent,
};
use slm_runtime::ring::RingOp;
use slm_runtime::{
    CacheConfig, Clock, HashRing, RebalanceReport, RingError, VerificationCache, VirtualClock,
};
use vectordb::index::VectorIndex;

use crate::serving::{
    disposition_label, priority_label, shed_reason_label, Disposition, Priority, ServingConfig,
    ServingRuntime, ShardIdentity, ShedReason,
};
use crate::verified::{ResilientAnswer, ResilientVerifiedPipeline};

/// One kind of injected failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosKind {
    /// Kill a member: its queued and in-flight work aborts to
    /// [`AbstainCause::ShardCrashed`] outcomes at crash time.
    Crash {
        /// Target shard.
        shard: u32,
        /// Target replica within the shard (0 = primary).
        replica: u32,
    },
    /// Bring a crashed member back (warm process restart: pipeline and
    /// calibration state survive). The router notices at the next probe.
    Restart {
        /// Target shard.
        shard: u32,
        /// Target replica within the shard (0 = primary).
        replica: u32,
    },
    /// Stretch a member's charged service time by `factor` (1.0 restores
    /// normal speed). Verdicts are unaffected — the node is slow, not
    /// wrong — but its latency histogram inflates, which is what the
    /// spill policy watches.
    Slow {
        /// Target shard.
        shard: u32,
        /// Target replica within the shard (0 = primary).
        replica: u32,
        /// Service-time multiplier.
        factor: f64,
    },
    /// Cut the router↔shard link: probes and new deliveries fail for every
    /// member of the shard, while already-accepted work keeps running to
    /// completion (the admission path is cut, not the members).
    Partition {
        /// Target shard.
        shard: u32,
    },
    /// Heal a partition. The router re-learns the shard at the next probe.
    Heal {
        /// Target shard.
        shard: u32,
    },
}

/// A scheduled failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosEvent {
    /// Virtual time the failure fires.
    pub at_ms: f64,
    /// What happens.
    pub kind: ChaosKind,
}

/// A deterministic failure schedule. Events are applied in `at_ms` order,
/// ties broken by insertion order; the plan is plain data, so two runs of
/// the same plan inject byte-identical fault sequences.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// A plan with no failures.
    pub fn none() -> Self {
        Self::default()
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// Schedule one event.
    #[must_use]
    pub fn with(mut self, at_ms: f64, kind: ChaosKind) -> Self {
        self.events.push(ChaosEvent { at_ms, kind });
        self
    }

    /// Crash a member at `at_ms` and restart it at `until_ms`
    /// (no restart if `until_ms` is infinite).
    #[must_use]
    pub fn crash(mut self, shard: u32, replica: u32, at_ms: f64, until_ms: f64) -> Self {
        self.events.push(ChaosEvent {
            at_ms,
            kind: ChaosKind::Crash { shard, replica },
        });
        if until_ms.is_finite() {
            self.events.push(ChaosEvent {
                at_ms: until_ms,
                kind: ChaosKind::Restart { shard, replica },
            });
        }
        self
    }

    /// Slow a member by `factor` over `[at_ms, until_ms)`.
    #[must_use]
    pub fn slow(
        mut self,
        shard: u32,
        replica: u32,
        factor: f64,
        at_ms: f64,
        until_ms: f64,
    ) -> Self {
        self.events.push(ChaosEvent {
            at_ms,
            kind: ChaosKind::Slow {
                shard,
                replica,
                factor,
            },
        });
        if until_ms.is_finite() {
            self.events.push(ChaosEvent {
                at_ms: until_ms,
                kind: ChaosKind::Slow {
                    shard,
                    replica,
                    factor: 1.0,
                },
            });
        }
        self
    }

    /// Partition a whole shard from the router over `[at_ms, until_ms)`.
    #[must_use]
    pub fn partition(mut self, shard: u32, at_ms: f64, until_ms: f64) -> Self {
        self.events.push(ChaosEvent {
            at_ms,
            kind: ChaosKind::Partition { shard },
        });
        if until_ms.is_finite() {
            self.events.push(ChaosEvent {
                at_ms: until_ms,
                kind: ChaosKind::Heal { shard },
            });
        }
        self
    }

    /// Replica flap: `cycles` crash/restart pairs on one member, one pair
    /// per `period_ms`, each down for half the period.
    #[must_use]
    pub fn flap(
        mut self,
        shard: u32,
        replica: u32,
        start_ms: f64,
        period_ms: f64,
        cycles: usize,
    ) -> Self {
        for c in 0..cycles {
            let down = start_ms + period_ms * c as f64;
            self = self.crash(shard, replica, down, down + period_ms / 2.0);
        }
        self
    }

    /// A seeded plan in the `FaultInjector` discipline: every episode's
    /// kind, target, start, and duration are pure functions of
    /// `(seed, episode index)`. `episodes` failure episodes are spread over
    /// `[0, horizon_ms)` across `shards` shards × `replicas + 1` members.
    pub fn seeded(seed: u64, shards: u32, replicas: u32, horizon_ms: f64, episodes: usize) -> Self {
        let mut plan = Self::none();
        for i in 0..episodes {
            let r = splitmix64(seed ^ splitmix64(0x00C1_05EE_D000 + i as u64));
            let shard = (r % u64::from(shards.max(1))) as u32;
            let replica = ((r >> 16) % (u64::from(replicas) + 1)) as u32;
            let start_frac = ((r >> 24) & 0xFFFF) as f64 / 65536.0;
            let dur_frac = 0.05 + 0.15 * (((r >> 40) & 0xFFFF) as f64 / 65536.0);
            let start = horizon_ms * 0.8 * start_frac;
            let end = (start + horizon_ms * dur_frac).min(horizon_ms);
            plan = match (r >> 8) % 4 {
                0 => plan.crash(shard, replica, start, end),
                1 => {
                    let factor = 2.0 + 6.0 * (((r >> 32) & 0xFF) as f64 / 256.0);
                    plan.slow(shard, replica, factor, start, end)
                }
                2 => plan.partition(shard, start, end),
                _ => plan.flap(shard, replica, start, (end - start).max(1.0) / 2.0, 2),
            };
        }
        plan
    }
}

/// Why the cluster abstained on a request instead of serving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbstainCause {
    /// A router↔shard partition cut the request off from its shard.
    Partitioned,
    /// Every member of the key's shard was down (total shard loss).
    ShardUnavailable,
    /// The member holding the request (queued or in flight) crashed.
    ShardCrashed,
}

/// Stable label for an abstain cause (metric labels and events).
pub(crate) fn abstain_cause_label(c: AbstainCause) -> &'static str {
    match c {
        AbstainCause::Partitioned => "partitioned",
        AbstainCause::ShardUnavailable => "shard_unavailable",
        AbstainCause::ShardCrashed => "shard_crashed",
    }
}

/// The cluster-level disposition: a member's serving disposition, or a
/// typed cluster abstention when no member could (or was allowed to)
/// decide one.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterDisposition {
    /// A member ran verification; the pipeline's verdict is inside.
    Completed(Box<ResilientAnswer>),
    /// A member's admission control or deadline enforcement shed it.
    Shed(ShedReason),
    /// The cluster degraded to an explicit abstention — the paper's
    /// `Verdict::Abstain` at serving scope — rather than hanging.
    Abstained(AbstainCause),
    /// Retrieval failed on the serving member.
    Failed(String),
}

/// How the router placed a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteKind {
    /// Served by its home shard's primary.
    Primary,
    /// Failed over to a replica of the home shard.
    Failover {
        /// Replica index that took the request.
        replica: u32,
    },
    /// Spilled off an overloaded home shard to its ring successor.
    Spill {
        /// The shard that absorbed the spill.
        to: u32,
    },
    /// Never placed on any member (the cluster abstained at routing time).
    Unrouted,
}

impl RouteKind {
    /// Stable metric/trace label for this route kind.
    pub fn label(&self) -> &'static str {
        match self {
            RouteKind::Primary => "primary",
            RouteKind::Failover { .. } => "failover",
            RouteKind::Spill { .. } => "spill",
            RouteKind::Unrouted => "unrouted",
        }
    }
}

/// One request's complete cluster record. Exactly one is produced per
/// [`ClusterRuntime::submit_at`] call — never zero, never two.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOutcome {
    /// Ticket returned by `submit_at`.
    pub id: u64,
    /// The submitted question (also the routing key).
    pub question: String,
    /// The submitted priority class.
    pub priority: Priority,
    /// Virtual arrival time at the router.
    pub submitted_at_ms: f64,
    /// Virtual time the disposition was decided.
    pub finished_at_ms: f64,
    /// The key's home shard on the ring.
    pub home_shard: u32,
    /// How the router placed the request.
    pub route: RouteKind,
    /// The member that decided the outcome; `None` when the router
    /// abstained or the member died before finishing.
    pub served_by: Option<ShardIdentity>,
    /// What happened.
    pub disposition: ClusterDisposition,
}

impl ClusterOutcome {
    /// Whether an answer actually reached the user.
    pub fn is_served(&self) -> bool {
        matches!(&self.disposition, ClusterDisposition::Completed(a) if a.is_served())
    }

    /// Stable label for the disposition.
    pub fn label(&self) -> &'static str {
        match &self.disposition {
            ClusterDisposition::Completed(a) => match a.as_ref() {
                ResilientAnswer::Served { .. } => "served",
                ResilientAnswer::Blocked { .. } => "blocked",
                ResilientAnswer::Unverified { .. } => "unverified",
                ResilientAnswer::Abstained { .. } => "abstained",
            },
            ClusterDisposition::Shed(_) => "shed",
            ClusterDisposition::Abstained(_) => "cluster_abstained",
            ClusterDisposition::Failed(_) => "failed",
        }
    }
}

/// Aggregate view of a batch of cluster outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClusterStats {
    /// Total outcomes summarized.
    pub total: usize,
    /// Verified and served.
    pub served: usize,
    /// Verified and blocked as hallucinated.
    pub blocked: usize,
    /// Verification abstained; the member's failure policy decided.
    pub unverified: usize,
    /// Pipeline-level abstentions surfaced by a member.
    pub abstained: usize,
    /// Shed by a member's admission control or deadline enforcement.
    pub shed: usize,
    /// Retrieval failures.
    pub failed: usize,
    /// Cluster-level abstentions (partition, shard loss, crash).
    pub cluster_abstained: usize,
    /// Requests that failed over to a replica.
    pub failovers: usize,
    /// Requests spilled off their home shard.
    pub spills: usize,
}

impl ClusterStats {
    /// Tally dispositions and routes over `outcomes`.
    pub fn from_outcomes(outcomes: &[ClusterOutcome]) -> Self {
        let mut s = Self {
            total: outcomes.len(),
            ..Self::default()
        };
        for o in outcomes {
            match &o.disposition {
                ClusterDisposition::Completed(a) => match a.as_ref() {
                    ResilientAnswer::Served { .. } => s.served += 1,
                    ResilientAnswer::Blocked { .. } => s.blocked += 1,
                    ResilientAnswer::Unverified { .. } => s.unverified += 1,
                    ResilientAnswer::Abstained { .. } => s.abstained += 1,
                },
                ClusterDisposition::Shed(_) => s.shed += 1,
                ClusterDisposition::Abstained(_) => s.cluster_abstained += 1,
                ClusterDisposition::Failed(_) => s.failed += 1,
            }
            match o.route {
                RouteKind::Failover { .. } => s.failovers += 1,
                RouteKind::Spill { .. } => s.spills += 1,
                RouteKind::Primary | RouteKind::Unrouted => {}
            }
        }
        s
    }
}

/// When the router spills load off a shard.
///
/// Two signals with deliberately different latencies. Queue depth is read
/// *live* at route time — an overload burst must divert immediately. The
/// slow-shard signal is a decayed-window latency quantile
/// ([`DecayedWindow`], refreshed on the probe cadence) passed through a
/// minimum dwell: a shard flips between fast and slow at most once per
/// `min_dwell_ms`, so spill targets stop oscillating under intermittent
/// slowness, and — the PR 6 staleness fix — a shard that *recovers* sheds
/// its slow reputation as the window decays, where lifetime histogram
/// means never forgot a past slow regime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpillPolicy {
    /// Spill when the chosen member's queue is at least this deep (live).
    pub queue_depth: usize,
    /// ... or while the shard's windowed service-latency quantile is at
    /// least this high (hysteretic slow-state).
    pub slow_service_ms: f64,
    /// Which quantile of the decayed window to compare (0.9 = p90).
    pub latency_quantile: f64,
    /// Minimum decayed observation mass in the window before the quantile
    /// is trusted.
    pub min_observations: f64,
    /// Per-refresh decay of the latency window: 0 keeps only the last
    /// refresh interval, values near 1 remember long histories.
    pub window_decay: f64,
    /// Minimum time between slow-state flips per shard.
    pub min_dwell_ms: f64,
}

impl Default for SpillPolicy {
    fn default() -> Self {
        Self {
            queue_depth: 4,
            slow_service_ms: 250.0,
            latency_quantile: 0.9,
            min_observations: 4.0,
            window_decay: 0.5,
            min_dwell_ms: 100.0,
        }
    }
}

/// One transition of a shard's hysteretic spill slow-state, for the
/// flap-damping regression suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpillTransition {
    /// Virtual time of the flip.
    pub at_ms: f64,
    /// The shard whose slow-state changed.
    pub shard: u32,
    /// The new state: `true` = slow (spill away), `false` = recovered.
    pub slow: bool,
}

/// Hysteretic slow-state of one shard.
#[derive(Debug, Clone, Copy)]
struct SpillState {
    slow: bool,
    changed_at_ms: f64,
}

/// Which failure-detection protocol the router runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectorKind {
    /// Router-driven probing (the original baseline): every member is
    /// probed each `probe_interval_ms` and suspected `probe_timeout_ms`
    /// after an unanswered probe. Cannot distinguish a dead member from a
    /// dead router link.
    Central,
    /// SWIM-style gossip ([`slm_runtime::gossip::SwimDetector`]): members
    /// probe seeded-random peers, fall back to indirect ping-req through
    /// proxies, refute stale suspicion by incarnation, and piggyback
    /// membership deltas — the router learns from the epidemic rather than
    /// probing everyone itself.
    Gossip(GossipConfig),
}

/// Cross-member replication of warm verification-cache entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationConfig {
    /// Per-member cache bounds.
    pub cache: CacheConfig,
    /// How often replication rounds run.
    pub sync_interval_ms: f64,
    /// Byte budget shipped per (source, target) pair per round — bounds
    /// the per-round replication bandwidth, not eventual coverage.
    pub byte_budget_per_round: usize,
    /// Also replicate each member's entries to the same replica slot on
    /// the ring-successor shard — where this shard's keys re-home if it
    /// leaves the ring, and where its load spills.
    pub cross_shard: bool,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        Self {
            cache: CacheConfig::default(),
            sync_interval_ms: 100.0,
            byte_budget_per_round: 16 * 1024,
            cross_shard: true,
        }
    }
}

/// Cluster topology and router configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Replicas per shard beyond the primary (0 = primary only).
    pub replicas: u32,
    /// Per-member admission and deadline configuration.
    pub serving: ServingConfig,
    /// How often the router health-probes every member.
    pub probe_interval_ms: f64,
    /// How long an unanswered probe takes to mark its member down.
    pub probe_timeout_ms: f64,
    /// Overload spilling; `None` (the default) pins every key to its home
    /// shard, which is what makes single-shard chaos unable to perturb
    /// the rest of the cluster.
    pub spill: Option<SpillPolicy>,
    /// Which failure-detection protocol drives the routing view.
    pub detector: DetectorKind,
    /// Flap damping applied to the detector's raw signals before they
    /// become routing decisions. The default
    /// ([`HysteresisConfig::passthrough`]) disables damping, reproducing
    /// the undamped baseline bit-for-bit.
    pub hysteresis: HysteresisConfig,
    /// Warm-cache replication between members; `None` (the default) gives
    /// members no verification cache at all (the original behavior).
    pub replication: Option<ReplicationConfig>,
    /// Consistent-hash ring slot count.
    pub ring_slots: usize,
    /// Consistent-hash ring seed.
    pub ring_seed: u64,
    /// Distributed tracing: derive one deterministic [`TraceContext`] per
    /// request and record cross-member spans under it. Never influences
    /// routing or verdicts (instrumentation neutrality); turn off to
    /// measure the instrumentation itself.
    pub tracing: bool,
    /// Seed folded into every request's trace/span-id derivation, so trace
    /// identity is a pure function of `(trace_seed, request id)`.
    pub trace_seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            replicas: 1,
            serving: ServingConfig::default(),
            probe_interval_ms: 50.0,
            probe_timeout_ms: 25.0,
            spill: None,
            detector: DetectorKind::Central,
            hysteresis: HysteresisConfig::passthrough(),
            replication: None,
            ring_slots: slm_runtime::DEFAULT_RING_SLOTS,
            ring_seed: 0xC105_7E55,
            tracing: true,
            trace_seed: 0x7ACE_5EED,
        }
    }
}

/// Health of one member, as both ground truth and the router's belief.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberHealth {
    /// Which member.
    pub identity: ShardIdentity,
    /// Ground truth: the process is running.
    pub alive: bool,
    /// The router's probe-derived view (lags truth by at most one probe
    /// interval plus the probe timeout).
    pub router_view_up: bool,
}

/// A request accepted by the router but not yet routed.
#[derive(Debug, Clone)]
struct ClusterArrival {
    id: u64,
    question: String,
    priority: Priority,
    at_ms: f64,
    deadline_ms: f64,
}

/// Where a delivered request went, so its member outcome can be lifted
/// back into a [`ClusterOutcome`].
#[derive(Debug, Clone)]
struct PendingRoute {
    cluster_id: u64,
    submitted_at_ms: f64,
    home_shard: u32,
    route: RouteKind,
}

/// One serving node plus its router-side instrumentation. Detection state
/// (view, suspicion, incarnations) lives in the cluster's
/// [`FailureDetector`], not here.
struct Member<I> {
    runtime: ServingRuntime<I>,
    /// Ground truth (chaos state).
    alive: bool,
    /// Decayed window over this member's `hallu_serving_service_ms`
    /// series (a live handle onto the same registry cell the member's
    /// serving loop writes), refreshed on the probe cadence: the *recent*
    /// latency regime the spill policy reads.
    window: DecayedWindow,
    /// This member's verification cache, when replication is configured.
    cache: Option<Arc<VerificationCache>>,
    /// This member's own observability sink (source `s{shard}r{replica}`):
    /// the per-member fragment the federation and trace-stitching
    /// accessors read. Member-scope series never mix with the router's.
    obs: Obs,
}

/// A shard: primary + replicas, and the shard-wide partition flag.
struct ReplicaGroup<I> {
    shard: u32,
    partitioned: bool,
    members: Vec<Member<I>>,
}

/// Ground-truth connectivity snapshot handed to the failure detector each
/// poll. A router↔shard partition cuts only router links: members of a
/// partitioned shard still gossip with other members, which is exactly how
/// SWIM's indirect path tells a dead link from a dead process.
struct TruthOracle {
    alive: BTreeSet<(u32, u32)>,
    partitioned: BTreeSet<u32>,
}

impl LinkOracle for TruthOracle {
    fn member_alive(&self, m: MemberId) -> bool {
        self.alive.contains(&(m.shard, m.replica))
    }

    fn link_up(&self, from: Option<MemberId>, to: MemberId) -> bool {
        match from {
            None => self.member_alive(to) && !self.partitioned.contains(&to.shard),
            Some(a) => self.member_alive(a) && self.member_alive(to),
        }
    }
}

/// Per-(source, target) replication progress.
#[derive(Debug, Clone, Copy, Default)]
struct ReplCursor {
    /// Next journal sequence to pull.
    journal: u64,
    /// Anti-entropy page index while in fallback.
    page: usize,
    /// Whether the journal rotated past us and we are page-walking.
    fallback: bool,
}

/// The sharded verification cluster. See the module docs for the model.
pub struct ClusterRuntime<I> {
    /// Topology and router configuration.
    pub config: ClusterConfig,
    clock: Arc<VirtualClock>,
    obs: Obs,
    ring: HashRing,
    groups: Vec<ReplicaGroup<I>>,
    next_shard_id: u32,
    next_id: u64,
    submitted: u64,
    arrivals: Vec<ClusterArrival>,
    chaos: Vec<ChaosEvent>,
    chaos_cursor: usize,
    pending: BTreeMap<(u32, u32, u64), PendingRoute>,
    outcomes: Vec<ClusterOutcome>,
    detector: Box<dyn FailureDetector>,
    /// Every routing-view transition, in decision order — the bitwise
    /// artifact the reproducibility suite compares.
    membership_timeline: Vec<ViewEvent>,
    /// Hysteretic per-shard slow-state (spill policy).
    spill_states: BTreeMap<u32, SpillState>,
    /// Every spill slow-state flip, for the flap-damping regression.
    spill_timeline: Vec<SpillTransition>,
    next_window_ms: f64,
    next_sync_ms: f64,
    repl_cursors: BTreeMap<(MemberId, MemberId), ReplCursor>,
    /// Deterministic burn-rate alerting over the outcome stream, when
    /// configured via [`with_slos`](Self::with_slos).
    slo: Option<SloEngine>,
}

impl<I: VectorIndex> ClusterRuntime<I> {
    /// Build a cluster of `shards` replica groups. `factory` is called
    /// once per member — `(replicas + 1) × shards` times — with the
    /// member's identity, and must return that member's (already warmed)
    /// pipeline. Every member runs on one shared [`VirtualClock`], and the
    /// cluster starts with an internal observability sink so spill
    /// detection and chaos events work without external wiring; use
    /// [`with_obs`](Self::with_obs) to direct them to your own sink.
    pub fn new(
        shards: u32,
        config: ClusterConfig,
        mut factory: impl FnMut(ShardIdentity) -> ResilientVerifiedPipeline<I>,
    ) -> Self {
        let mut cluster = Self {
            clock: Arc::new(VirtualClock::new()),
            obs: Obs::new_with_source("router"),
            ring: HashRing::new(config.ring_seed, config.ring_slots),
            groups: Vec::new(),
            next_shard_id: 0,
            next_id: 0,
            submitted: 0,
            arrivals: Vec::new(),
            chaos: Vec::new(),
            chaos_cursor: 0,
            pending: BTreeMap::new(),
            outcomes: Vec::new(),
            detector: Self::build_detector(&config),
            membership_timeline: Vec::new(),
            spill_states: BTreeMap::new(),
            spill_timeline: Vec::new(),
            next_window_ms: 0.0,
            next_sync_ms: 0.0,
            repl_cursors: BTreeMap::new(),
            slo: None,
            config,
        };
        cluster.obs.bind_time(cluster.clock.clone());
        cluster.detector.bind_obs(&cluster.obs);
        for _ in 0..shards {
            cluster.add_shard(&mut factory);
        }
        cluster
    }

    fn build_detector(config: &ClusterConfig) -> Box<dyn FailureDetector> {
        match config.detector {
            DetectorKind::Central => Box::new(CentralDetector::new(
                config.probe_interval_ms,
                config.probe_timeout_ms,
                config.hysteresis,
            )),
            DetectorKind::Gossip(gossip) => Box::new(SwimDetector::new(gossip, config.hysteresis)),
        }
    }

    /// Build the per-member verification cache mandated by `replication`,
    /// registered against `obs`.
    fn build_member_cache(replication: &ReplicationConfig, obs: &Obs) -> Arc<VerificationCache> {
        Arc::new(VerificationCache::new(replication.cache).with_obs(obs))
    }

    /// Redirect the cluster's *router-scope* counters, events, and spans
    /// to `obs`, bound to the shared virtual clock. Member runtimes keep
    /// their own per-member sinks (source `s{shard}r{replica}`) — the
    /// federation and trace-stitching accessors read those directly — so
    /// swapping the router sink never rebinds member caches or serving
    /// state. Routing decisions and outcomes are bitwise unaffected.
    #[must_use]
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
        obs.bind_time(self.clock.clone());
        self.detector.bind_obs(obs);
        self
    }

    /// Attach a deterministic SLO engine evaluating `configs` over the
    /// cluster's outcome stream. Burn rates tick at discrete-event
    /// boundaries on the shared virtual clock, so the alert timeline is
    /// bitwise reproducible for a given `(seed, config, plan)`.
    #[must_use]
    pub fn with_slos(mut self, configs: Vec<SloConfig>) -> Self {
        self.slo = Some(SloEngine::new(configs));
        self
    }

    /// Install a failure schedule. Events run in `at_ms` order (ties keep
    /// plan order); calling again replaces the plan.
    #[must_use]
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        let mut events = plan.events;
        events.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms));
        self.chaos = events;
        self.chaos_cursor = 0;
        self
    }

    /// The routing ring (for locality/rebalance assertions).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Current virtual time.
    pub fn now_ms(&self) -> f64 {
        self.clock.now_ms()
    }

    /// Every routing-view transition so far, in decision order. For a
    /// given `(seed, config, plan)` this sequence is bitwise reproducible.
    pub fn membership_timeline(&self) -> &[ViewEvent] {
        &self.membership_timeline
    }

    /// Every spill slow-state flip so far, in decision order.
    pub fn spill_timeline(&self) -> &[SpillTransition] {
        &self.spill_timeline
    }

    /// Federate the router's and every member's metric registries into one
    /// labeled view: `"router"` first, then members in (shard, replica)
    /// order, so the merged output is deterministically ordered.
    pub fn federated(&self) -> FederatedRegistry {
        let mut fed = FederatedRegistry::new();
        fed.add("router", self.obs.metrics_snapshot());
        for group in &self.groups {
            for (ridx, m) in group.members.iter().enumerate() {
                fed.add(
                    &format!("s{}r{}", group.shard, ridx),
                    m.obs.metrics_snapshot(),
                );
            }
        }
        fed
    }

    /// One fleet-level metrics snapshot: counters summed, gauges kept
    /// per-member under a `member` label, histograms merged bucket-wise.
    pub fn federated_snapshot(&self) -> MetricsSnapshot {
        self.federated().merge()
    }

    /// Fleet-level Prometheus exposition page over the federated view.
    pub fn render_prometheus_federated(&self) -> String {
        self.federated().render_prometheus()
    }

    /// Stitch the router's and every member's span fragments (plus flight
    /// records, for drop accounting) into one causal trace tree per
    /// request, ordered by trace id.
    pub fn stitched_traces(&self) -> Vec<TraceTree> {
        let mut spans = self.obs.finished_spans();
        let mut flights = self.obs.flight_records();
        for group in &self.groups {
            for m in &group.members {
                spans.extend(m.obs.finished_spans());
                flights.extend(m.obs.flight_records());
            }
        }
        stitch(&spans, &flights)
    }

    /// Every SLO alert transition so far, in emission order (empty without
    /// [`with_slos`](Self::with_slos)).
    pub fn alert_timeline(&self) -> &[AlertEvent] {
        self.slo.as_ref().map_or(&[], SloEngine::timeline)
    }

    /// Deterministic per-request trace context, a pure function of
    /// `(trace_seed, request id)`; `None` when tracing is disabled.
    fn trace_ctx(&self, id: u64) -> Option<TraceContext> {
        self.config
            .tracing
            .then(|| TraceContext::root(self.config.trace_seed, id))
    }

    /// Record a zero-or-finite-width router-side span derived from `ctx`
    /// on the router sink.
    fn record_router_span(
        &self,
        ctx: TraceContext,
        name: &str,
        ordinal: u64,
        start_ms: f64,
        end_ms: f64,
        events: Vec<EventRecord>,
    ) {
        if !self.obs.enabled() {
            return;
        }
        self.obs.record_span(SpanRecord {
            id: ctx.child_id(name, ordinal),
            parent: ctx.span_id,
            name: name.to_string(),
            start_ms,
            end_ms,
            events,
            trace_id: ctx.trace_id,
            source: String::new(),
        });
    }

    /// Aggregate verification-cache statistics summed over every member
    /// (zeros when replication is off). `replicated_hits > 0` is the
    /// self-healing proof: some member served an answer from work it never
    /// computed.
    pub fn cache_stats_total(&self) -> slm_runtime::CacheStats {
        let mut total = slm_runtime::CacheStats::default();
        for group in &self.groups {
            for member in &group.members {
                if let Some(cache) = &member.cache {
                    let s = cache.stats();
                    total.hits += s.hits;
                    total.misses += s.misses;
                    total.inserts += s.inserts;
                    total.updates += s.updates;
                    total.evictions += s.evictions;
                    total.rejected += s.rejected;
                    total.replicated_inserts += s.replicated_inserts;
                    total.replicated_hits += s.replicated_hits;
                    total.entries += s.entries;
                    total.bytes += s.bytes;
                }
            }
        }
        total
    }

    /// Ground-truth and router-view health of every member, in
    /// (shard, replica) order.
    pub fn member_health(&self) -> Vec<MemberHealth> {
        let mut out = Vec::new();
        for group in &self.groups {
            for (ridx, m) in group.members.iter().enumerate() {
                let id = MemberId {
                    shard: group.shard,
                    replica: ridx as u32,
                };
                out.push(MemberHealth {
                    identity: ShardIdentity {
                        shard: group.shard,
                        replica: ridx as u32,
                    },
                    alive: m.alive,
                    router_view_up: self.detector.is_up(id),
                });
            }
        }
        out
    }

    /// Grow the cluster by one shard (fresh id), stealing a bounded,
    /// asserted slice of the keyspace: the ring moves at most ⌊S/N⌋ slots,
    /// all onto the new shard, so at most ~K/N keys change home.
    pub fn add_shard(
        &mut self,
        factory: &mut impl FnMut(ShardIdentity) -> ResilientVerifiedPipeline<I>,
    ) -> RebalanceReport {
        let shard = self.next_shard_id;
        self.next_shard_id += 1;
        let now = self.clock.now_ms();
        let decay = self.config.spill.map_or(0.5, |p| p.window_decay);
        let mut members = Vec::new();
        for replica in 0..=self.config.replicas {
            let identity = ShardIdentity { shard, replica };
            let member_obs = Obs::new_with_source(&format!("s{shard}r{replica}"));
            member_obs.bind_time(self.clock.clone());
            let mut runtime = ServingRuntime::new(factory(identity), self.config.serving)
                .with_shared_clock(self.clock.clone())
                .with_identity(shard, replica)
                .with_obs(&member_obs);
            let cache = self.config.replication.as_ref().map(|replication| {
                let cache = Self::build_member_cache(replication, &member_obs);
                runtime.set_cache(cache.clone());
                cache
            });
            let service_hist = Self::member_service_hist(&member_obs, shard, replica);
            let window = DecayedWindow::new(service_hist, decay);
            self.detector.register(MemberId { shard, replica }, now);
            members.push(Member {
                runtime,
                alive: true,
                window,
                cache,
                obs: member_obs,
            });
        }
        self.groups.push(ReplicaGroup {
            shard,
            partitioned: false,
            members,
        });
        let report = match self.ring.add_shard(shard) {
            Ok(report) => report,
            Err(e) => {
                // Fresh ids come from a monotone counter, so this is
                // unreachable; degrade to a no-op report instead of
                // panicking in release builds.
                debug_assert!(false, "fresh shard id {shard} already on ring: {e}");
                RebalanceReport {
                    shard,
                    op: RingOp::Added,
                    moved_slots: 0,
                    slot_count: self.ring.slot_count(),
                    shards_after: self.ring.shard_count(),
                }
            }
        };
        debug_assert!(
            report.within_bound(),
            "bounded rebalance violated on add: {report:?}"
        );
        self.obs
            .counter(
                "hallu_cluster_rebalanced_slots_total",
                "Ring slots moved by shard add/remove",
                &[],
            )
            .add(report.moved_slots as u64);
        self.update_view_gauge(self.groups.len() - 1);
        report
    }

    /// Remove a shard administratively. Work it still holds is aborted to
    /// typed [`AbstainCause::ShardUnavailable`] outcomes (drain the
    /// cluster first to avoid them); only the departing shard's keys move,
    /// asserted against the ⌈K/N⌉ bound.
    ///
    /// # Errors
    /// [`RingError::UnknownShard`] if `shard` is not in the cluster.
    pub fn remove_shard(&mut self, shard: u32) -> Result<RebalanceReport, RingError> {
        let report = self.ring.remove_shard(shard)?;
        debug_assert!(
            report.within_bound(),
            "bounded rebalance violated on remove: {report:?}"
        );
        let now = self.clock.now_ms();
        if let Some(gidx) = self.groups.iter().position(|g| g.shard == shard) {
            let mut group = self.groups.remove(gidx);
            for ridx in 0..group.members.len() {
                self.detector.deregister(MemberId {
                    shard,
                    replica: ridx as u32,
                });
            }
            self.repl_cursors
                .retain(|(src, dst), _| src.shard != shard && dst.shard != shard);
            self.spill_states.remove(&shard);
            for (ridx, member) in group.members.iter_mut().enumerate() {
                for aborted in member.runtime.abort_pending() {
                    self.resolve_aborted(shard, ridx as u32, aborted.id, now, |p| ClusterOutcome {
                        id: p.cluster_id,
                        question: aborted.question.clone(),
                        priority: aborted.priority,
                        submitted_at_ms: p.submitted_at_ms,
                        finished_at_ms: now,
                        home_shard: p.home_shard,
                        route: p.route,
                        served_by: None,
                        disposition: ClusterDisposition::Abstained(AbstainCause::ShardUnavailable),
                    });
                }
            }
        }
        self.obs
            .counter(
                "hallu_cluster_rebalanced_slots_total",
                "Ring slots moved by shard add/remove",
                &[],
            )
            .add(report.moved_slots as u64);
        Ok(report)
    }

    /// Schedule a question to arrive at the router at virtual time `at_ms`
    /// with the configured default deadline. Returns the cluster ticket.
    pub fn submit_at(&mut self, at_ms: f64, question: &str, priority: Priority) -> u64 {
        self.submit_at_with_deadline(
            at_ms,
            question,
            priority,
            self.config.serving.default_deadline_ms,
        )
    }

    /// [`submit_at`](Self::submit_at) with an explicit relative deadline.
    pub fn submit_at_with_deadline(
        &mut self,
        at_ms: f64,
        question: &str,
        priority: Priority,
        deadline_ms: f64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.submitted += 1;
        self.obs
            .counter(
                "hallu_cluster_submitted_total",
                "Requests submitted to the cluster router",
                &[],
            )
            .inc();
        self.arrivals.push(ClusterArrival {
            id,
            question: question.to_string(),
            priority,
            at_ms: at_ms.max(self.clock.now_ms()),
            deadline_ms: deadline_ms.max(0.0),
        });
        id
    }

    /// Run the cluster's discrete-event loop until every submission has an
    /// outcome and every member is idle; returns how many outcomes are
    /// waiting in [`drain_outcomes`](Self::drain_outcomes).
    ///
    /// Simultaneous events apply in a fixed order — chaos, the failure
    /// detector's poll, spill-window refresh, cache replication,
    /// arrivals, then member progress in (shard, replica) order — so the
    /// whole cluster is one deterministic simulation: same inputs and
    /// plan, same everything.
    pub fn run_until_idle(&mut self) -> usize {
        self.arrivals.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms));
        loop {
            let now = self.clock.now_ms();
            let members_active = self
                .groups
                .iter()
                .any(|g| g.members.iter().any(|m| m.runtime.next_wake_ms().is_some()));
            if self.arrivals.is_empty() && !members_active {
                break;
            }
            let mut wake = f64::INFINITY;
            if let Some(a) = self.arrivals.first() {
                wake = wake.min(a.at_ms);
            }
            if let Some(e) = self.chaos.get(self.chaos_cursor) {
                wake = wake.min(e.at_ms);
            }
            if let Some(t) = self.detector.next_wake_ms() {
                wake = wake.min(t);
            }
            wake = wake.min(self.next_window_ms);
            if self.config.replication.is_some() {
                wake = wake.min(self.next_sync_ms);
            }
            for group in &self.groups {
                for m in &group.members {
                    if let Some(t) = m.runtime.next_wake_ms() {
                        wake = wake.min(t);
                    }
                }
            }
            debug_assert!(wake.is_finite(), "work pending but no wake time");
            let t = wake.max(now);
            self.clock.advance_to_ms(t);
            self.apply_chaos_due(t);
            self.poll_detector(t);
            self.refresh_windows_if_due(t);
            self.replicate_if_due(t);
            self.route_due_arrivals(t);
            self.pump_and_collect();
            if let Some(slo) = &mut self.slo {
                slo.tick(t);
            }
        }
        debug_assert!(
            self.pending.is_empty(),
            "requests without outcomes: {:?}",
            self.pending.keys().collect::<Vec<_>>()
        );
        debug_assert_eq!(
            self.submitted as usize,
            self.outcomes.len(),
            "one outcome per submission"
        );
        self.outcomes.len()
    }

    /// Take ownership of every decided outcome, in decision order. Each
    /// outcome is delivered exactly once.
    pub fn drain_outcomes(&mut self) -> Vec<ClusterOutcome> {
        std::mem::take(&mut self.outcomes)
    }

    /// Live handle onto a member's service-time series. Registration is
    /// idempotent per (name, labels), so this aliases the very cell the
    /// member's serving loop writes.
    fn member_service_hist(obs: &Obs, shard: u32, replica: u32) -> Histogram {
        let (s, r) = (shard.to_string(), replica.to_string());
        obs.histogram(
            "hallu_serving_service_ms",
            "Charged verification time per request that reached service",
            &[("shard", s.as_str()), ("replica", r.as_str())],
            &DEFAULT_LATENCY_BUCKETS_MS,
        )
    }

    /// Apply every chaos event due at or before `t`.
    fn apply_chaos_due(&mut self, t: f64) {
        while let Some(e) = self.chaos.get(self.chaos_cursor).copied() {
            if e.at_ms > t {
                break;
            }
            self.chaos_cursor += 1;
            self.apply_chaos(e);
        }
    }

    fn apply_chaos(&mut self, e: ChaosEvent) {
        let now = self.clock.now_ms();
        match e.kind {
            ChaosKind::Crash { shard, replica } => {
                self.obs.event(
                    "cluster_chaos",
                    &[
                        ("kind", "crash".to_string()),
                        ("shard", shard.to_string()),
                        ("replica", replica.to_string()),
                    ],
                );
                let Some(gidx) = self.groups.iter().position(|g| g.shard == shard) else {
                    return;
                };
                let Some(member) = self.groups[gidx].members.get_mut(replica as usize) else {
                    return;
                };
                if !member.alive {
                    return;
                }
                member.alive = false;
                let aborted = member.runtime.abort_pending();
                for a in aborted {
                    self.resolve_aborted(shard, replica, a.id, now, |p| ClusterOutcome {
                        id: p.cluster_id,
                        question: a.question.clone(),
                        priority: a.priority,
                        submitted_at_ms: p.submitted_at_ms,
                        finished_at_ms: now,
                        home_shard: p.home_shard,
                        route: p.route,
                        served_by: None,
                        disposition: ClusterDisposition::Abstained(AbstainCause::ShardCrashed),
                    });
                }
            }
            ChaosKind::Restart { shard, replica } => {
                self.obs.event(
                    "cluster_chaos",
                    &[
                        ("kind", "restart".to_string()),
                        ("shard", shard.to_string()),
                        ("replica", replica.to_string()),
                    ],
                );
                let known = self
                    .member_mut(shard, replica)
                    .map(|m| m.alive = true)
                    .is_some();
                if known {
                    // Gossip rejoins with a bumped incarnation so recovery
                    // overrides standing death certificates; the central
                    // prober re-learns liveness on its own.
                    self.detector
                        .notify_restart(MemberId { shard, replica }, now);
                }
            }
            ChaosKind::Slow {
                shard,
                replica,
                factor,
            } => {
                self.obs.event(
                    "cluster_chaos",
                    &[
                        ("kind", "slow".to_string()),
                        ("shard", shard.to_string()),
                        ("replica", replica.to_string()),
                        ("factor", format!("{factor:.3}")),
                    ],
                );
                if let Some(m) = self.member_mut(shard, replica) {
                    m.runtime.set_service_factor(factor);
                }
            }
            ChaosKind::Partition { shard } => {
                self.obs.event(
                    "cluster_chaos",
                    &[
                        ("kind", "partition".to_string()),
                        ("shard", shard.to_string()),
                    ],
                );
                if let Some(g) = self.groups.iter_mut().find(|g| g.shard == shard) {
                    g.partitioned = true;
                }
            }
            ChaosKind::Heal { shard } => {
                self.obs.event(
                    "cluster_chaos",
                    &[("kind", "heal".to_string()), ("shard", shard.to_string())],
                );
                if let Some(g) = self.groups.iter_mut().find(|g| g.shard == shard) {
                    g.partitioned = false;
                }
            }
        }
    }

    /// Ground-truth connectivity snapshot for the detector's link oracle.
    fn truth(&self) -> TruthOracle {
        let mut alive = BTreeSet::new();
        let mut partitioned = BTreeSet::new();
        for group in &self.groups {
            if group.partitioned {
                partitioned.insert(group.shard);
            }
            for (ridx, m) in group.members.iter().enumerate() {
                if m.alive {
                    alive.insert((group.shard, ridx as u32));
                }
            }
        }
        TruthOracle { alive, partitioned }
    }

    /// Run every failure-detection step due at or before `t` and fold the
    /// resulting routing-view transitions into cluster state.
    fn poll_detector(&mut self, t: f64) {
        let truth = self.truth();
        let events = self.detector.poll(t, &truth);
        self.handle_view_events(events);
    }

    /// Record routing-view transitions: membership timeline, mark-up/down
    /// events and counters, per-shard view gauge.
    fn handle_view_events(&mut self, events: Vec<ViewEvent>) {
        if events.is_empty() {
            return;
        }
        let mut touched: BTreeSet<u32> = BTreeSet::new();
        for ev in &events {
            touched.insert(ev.member.shard);
            if ev.up {
                self.obs.event(
                    "cluster_mark_up",
                    &[
                        ("shard", ev.member.shard.to_string()),
                        ("replica", ev.member.replica.to_string()),
                    ],
                );
            } else {
                self.mark_down_event(ev.member.shard, ev.member.replica, ev.why);
            }
        }
        self.membership_timeline.extend(events);
        for shard in touched {
            if let Some(gidx) = self.groups.iter().position(|g| g.shard == shard) {
                self.update_view_gauge(gidx);
            }
        }
    }

    /// On the probe cadence, refresh every member's decayed latency window
    /// and re-evaluate each shard's hysteretic slow state. Queue depth is
    /// still read live at route time; this drives only the latency half of
    /// the spill signal.
    fn refresh_windows_if_due(&mut self, t: f64) {
        if self.next_window_ms > t {
            return;
        }
        let step = self.config.probe_interval_ms.max(1e-3);
        while self.next_window_ms <= t {
            self.next_window_ms += step;
        }
        for group in &mut self.groups {
            for m in &mut group.members {
                m.window.refresh();
            }
        }
        let Some(policy) = self.config.spill else {
            return;
        };
        // The slow signal reads the member the router would actually route
        // to: the first router-believed-up replica.
        let mut signals: Vec<(u32, bool)> = Vec::new();
        for group in &self.groups {
            let first_up = group.members.iter().enumerate().find(|(ridx, _)| {
                self.detector.is_up(MemberId {
                    shard: group.shard,
                    replica: *ridx as u32,
                })
            });
            let Some((_, member)) = first_up else {
                continue;
            };
            let slow = member.window.mass() >= policy.min_observations
                && member.window.quantile_estimate(policy.latency_quantile)
                    >= policy.slow_service_ms;
            signals.push((group.shard, slow));
        }
        for (shard, slow) in signals {
            let state = self.spill_states.entry(shard).or_insert(SpillState {
                slow: false,
                changed_at_ms: f64::NEG_INFINITY,
            });
            if state.slow != slow && t - state.changed_at_ms >= policy.min_dwell_ms {
                state.slow = slow;
                state.changed_at_ms = t;
                self.spill_timeline.push(SpillTransition {
                    at_ms: t,
                    shard,
                    slow,
                });
                self.obs.event(
                    "cluster_spill_flip",
                    &[("shard", shard.to_string()), ("slow", slow.to_string())],
                );
            }
        }
    }

    /// On the sync cadence, ship recently-admitted verification-cache
    /// entries between members: within each replica group (all ordered
    /// live pairs) and, when configured, replica-matched to the shard's
    /// ring successor. Each pair follows its source's admission journal;
    /// if the journal rotated past the pair's cursor (the target was down
    /// too long), the pair falls back to a bounded anti-entropy page walk
    /// over the source's whole cache, rejoining the journal at its current
    /// head. Every transfer is re-gated by the target's admission policy,
    /// so replication cannot launder entries the target would not cache.
    fn replicate_if_due(&mut self, t: f64) {
        let Some(replication) = self.config.replication else {
            return;
        };
        if self.next_sync_ms > t {
            return;
        }
        let step = replication.sync_interval_ms.max(1e-3);
        while self.next_sync_ms <= t {
            self.next_sync_ms += step;
            self.replication_round(&replication);
        }
    }

    /// One replication round: every live pair moves at most
    /// `byte_budget_per_round` bytes.
    fn replication_round(&mut self, replication: &ReplicationConfig) {
        type Pair = (
            MemberId,
            MemberId,
            Arc<VerificationCache>,
            Arc<VerificationCache>,
        );
        let mut pairs: Vec<Pair> = Vec::new();
        for group in &self.groups {
            for i in 0..group.members.len() {
                for j in 0..group.members.len() {
                    if i == j || !group.members[i].alive || !group.members[j].alive {
                        continue;
                    }
                    if let (Some(src), Some(dst)) =
                        (&group.members[i].cache, &group.members[j].cache)
                    {
                        let sid = MemberId {
                            shard: group.shard,
                            replica: i as u32,
                        };
                        let did = MemberId {
                            shard: group.shard,
                            replica: j as u32,
                        };
                        pairs.push((sid, did, src.clone(), dst.clone()));
                    }
                }
            }
        }
        if replication.cross_shard {
            for group in &self.groups {
                let Some(succ) = self.ring.successor_of(group.shard) else {
                    continue;
                };
                let Some(succ_group) = self.groups.iter().find(|g| g.shard == succ) else {
                    continue;
                };
                for r in 0..group.members.len().min(succ_group.members.len()) {
                    if !group.members[r].alive || !succ_group.members[r].alive {
                        continue;
                    }
                    if let (Some(src), Some(dst)) =
                        (&group.members[r].cache, &succ_group.members[r].cache)
                    {
                        let sid = MemberId {
                            shard: group.shard,
                            replica: r as u32,
                        };
                        let did = MemberId {
                            shard: succ,
                            replica: r as u32,
                        };
                        pairs.push((sid, did, src.clone(), dst.clone()));
                    }
                }
            }
        }
        let budget = replication.byte_budget_per_round;
        let mut journal_shipped = 0u64;
        let mut anti_entropy_shipped = 0u64;
        for (sid, did, src, dst) in pairs {
            let cur = self.repl_cursors.entry((sid, did)).or_default();
            if !cur.fallback {
                match src.recent_since(cur.journal, budget) {
                    Some((next, entries)) => {
                        cur.journal = next;
                        for (key, value) in entries {
                            if dst.insert_replicated(&key.as_key_ref(), value) {
                                journal_shipped += 1;
                            }
                        }
                        continue;
                    }
                    None => {
                        // The journal rotated past this pair (the target
                        // was unreachable too long): full page walk, then
                        // rejoin the journal at its current head.
                        cur.fallback = true;
                        cur.journal = src.journal_seq();
                        cur.page = 0;
                    }
                }
            }
            let (entries, next_page) = src.sync_page(cur.page, budget);
            for (key, value) in entries {
                if dst.insert_replicated(&key.as_key_ref(), value) {
                    anti_entropy_shipped += 1;
                }
            }
            if next_page == 0 {
                // Wrapped: the walk covered everything; resume the journal.
                cur.fallback = false;
            }
            cur.page = next_page;
        }
        if self.obs.enabled() {
            self.obs
                .counter(
                    "hallu_cluster_replicated_total",
                    "Verification-cache entries replicated between members, by path",
                    &[("path", "journal")],
                )
                .add(journal_shipped);
            self.obs
                .counter(
                    "hallu_cluster_replicated_total",
                    "Verification-cache entries replicated between members, by path",
                    &[("path", "anti_entropy")],
                )
                .add(anti_entropy_shipped);
        }
    }

    /// Route every arrival due at or before `t`.
    fn route_due_arrivals(&mut self, t: f64) {
        while self.arrivals.first().is_some_and(|a| a.at_ms <= t) {
            let a = self.arrivals.remove(0);
            self.route_one(a);
        }
    }

    /// Place one request: spill check, then the target group's members in
    /// replica order (router view first, data-path detection on the
    /// spot), or a typed abstention if nothing is reachable.
    fn route_one(&mut self, a: ClusterArrival) {
        let now = self.clock.now_ms();
        let ctx = self.trace_ctx(a.id);
        let Some(home) = self.ring.shard_for(&a.question) else {
            self.push_router_abstain(a, now, u32::MAX, AbstainCause::ShardUnavailable);
            return;
        };
        let mut target = home;
        let mut route = RouteKind::Primary;
        if let Some(policy) = self.config.spill {
            if let Some(to) = self.ring.spill_target(&a.question) {
                if self.is_overloaded(home, &policy) && !self.is_overloaded(to, &policy) {
                    target = to;
                    route = RouteKind::Spill { to };
                }
            }
        }
        let Some(gidx) = self.groups.iter().position(|g| g.shard == target) else {
            self.push_router_abstain(a, now, home, AbstainCause::ShardUnavailable);
            return;
        };
        for ridx in 0..self.groups[gidx].members.len() {
            let id = MemberId {
                shard: target,
                replica: ridx as u32,
            };
            if !self.detector.is_up(id) {
                continue;
            }
            let reachable = self.groups[gidx].members[ridx].alive && !self.groups[gidx].partitioned;
            if !reachable {
                // Data-path detection: the delivery itself failed, which is
                // as good as a probe timeout — tell the detector and fail
                // over now.
                if let Some(ctx) = ctx {
                    self.record_router_span(
                        ctx,
                        "probe",
                        ridx as u64,
                        now,
                        now,
                        vec![EventRecord {
                            name: "delivery_failure".to_string(),
                            at_ms: now,
                            fields: vec![
                                ("shard".to_string(), target.to_string()),
                                ("replica".to_string(), ridx.to_string()),
                            ],
                        }],
                    );
                }
                let events = self.detector.observe_delivery_failure(id, now);
                self.handle_view_events(events);
                continue;
            }
            if route == RouteKind::Primary && ridx > 0 {
                route = RouteKind::Failover {
                    replica: ridx as u32,
                };
            }
            let member = &mut self.groups[gidx].members[ridx];
            let ticket =
                member
                    .runtime
                    .submit_traced(now, &a.question, a.priority, a.deadline_ms, ctx);
            member.runtime.deliver_now();
            self.pending.insert(
                (target, ridx as u32, ticket),
                PendingRoute {
                    cluster_id: a.id,
                    submitted_at_ms: a.at_ms,
                    home_shard: home,
                    route,
                },
            );
            let route_label = route.label();
            self.obs
                .counter(
                    "hallu_cluster_routed_total",
                    "Requests placed on a member, by route kind",
                    &[("route", route_label)],
                )
                .inc();
            self.obs.event(
                "cluster_route",
                &[
                    ("request", a.id.to_string()),
                    ("home_shard", home.to_string()),
                    ("shard", target.to_string()),
                    ("replica", ridx.to_string()),
                    ("route", route_label.to_string()),
                    ("priority", priority_label(a.priority).to_string()),
                ],
            );
            if let Some(ctx) = ctx {
                let name = match route {
                    RouteKind::Failover { .. } => "failover",
                    _ => "route",
                };
                self.record_router_span(
                    ctx,
                    name,
                    0,
                    now,
                    now,
                    vec![EventRecord {
                        name: "placed".to_string(),
                        at_ms: now,
                        fields: vec![
                            ("home_shard".to_string(), home.to_string()),
                            ("shard".to_string(), target.to_string()),
                            ("replica".to_string(), ridx.to_string()),
                            ("route".to_string(), route_label.to_string()),
                        ],
                    }],
                );
            }
            return;
        }
        let cause = if self.groups[gidx].partitioned {
            AbstainCause::Partitioned
        } else {
            AbstainCause::ShardUnavailable
        };
        self.push_router_abstain(a, now, home, cause);
    }

    /// Whether `shard`'s first router-visible member looks overloaded to
    /// the spill policy (no visible member counts as overloaded). Queue
    /// depth is live; the latency half is the hysteretic slow state
    /// maintained by [`refresh_windows_if_due`](Self::refresh_windows_if_due).
    fn is_overloaded(&self, shard: u32, policy: &SpillPolicy) -> bool {
        let Some(group) = self.groups.iter().find(|g| g.shard == shard) else {
            return true;
        };
        let first_up = group.members.iter().enumerate().find(|(ridx, _)| {
            self.detector.is_up(MemberId {
                shard,
                replica: *ridx as u32,
            })
        });
        let Some((_, member)) = first_up else {
            return true;
        };
        if member.runtime.queue_len() >= policy.queue_depth {
            return true;
        }
        self.spill_states.get(&shard).is_some_and(|s| s.slow)
    }

    /// Advance every member to the current virtual time (fixed order) and
    /// lift their finished outcomes into cluster outcomes.
    fn pump_and_collect(&mut self) {
        for gidx in 0..self.groups.len() {
            let shard = self.groups[gidx].shard;
            for ridx in 0..self.groups[gidx].members.len() {
                self.groups[gidx].members[ridx].runtime.pump();
                let finished = self.groups[gidx].members[ridx].runtime.drain_outcomes();
                for o in finished {
                    let key = (shard, ridx as u32, o.id);
                    let Some(p) = self.pending.remove(&key) else {
                        debug_assert!(false, "member outcome without a pending route: {key:?}");
                        continue;
                    };
                    let disposition = match o.disposition {
                        Disposition::Completed(answer) => ClusterDisposition::Completed(answer),
                        Disposition::Shed(reason) => ClusterDisposition::Shed(reason),
                        Disposition::Failed(err) => ClusterDisposition::Failed(err),
                    };
                    self.push_outcome(ClusterOutcome {
                        id: p.cluster_id,
                        question: o.question,
                        priority: o.priority,
                        submitted_at_ms: p.submitted_at_ms,
                        finished_at_ms: o.finished_at_ms,
                        home_shard: p.home_shard,
                        route: p.route,
                        served_by: o.served_by,
                        disposition,
                    });
                }
            }
        }
    }

    /// Type an aborted (crashed/removed member) request's outcome through
    /// its pending route.
    fn resolve_aborted(
        &mut self,
        shard: u32,
        replica: u32,
        ticket: u64,
        now: f64,
        build: impl Fn(&PendingRoute) -> ClusterOutcome,
    ) {
        let _ = now;
        let Some(p) = self.pending.remove(&(shard, replica, ticket)) else {
            debug_assert!(false, "aborted request without a pending route");
            return;
        };
        let outcome = build(&p);
        self.push_outcome(outcome);
    }

    /// The router could not place this request at all: one typed abstain
    /// outcome, decided immediately.
    fn push_router_abstain(
        &mut self,
        a: ClusterArrival,
        now: f64,
        home_shard: u32,
        cause: AbstainCause,
    ) {
        self.push_outcome(ClusterOutcome {
            id: a.id,
            question: a.question,
            priority: a.priority,
            submitted_at_ms: a.at_ms,
            finished_at_ms: now,
            home_shard,
            route: RouteKind::Unrouted,
            served_by: None,
            disposition: ClusterDisposition::Abstained(cause),
        });
    }

    /// Record one decided cluster outcome and mirror it into the registry,
    /// the request's trace root, and the SLO engine.
    fn push_outcome(&mut self, outcome: ClusterOutcome) {
        if let Some(ctx) = self.trace_ctx(outcome.id) {
            if self.obs.enabled() {
                let mut fields = vec![
                    ("outcome".to_string(), outcome.label().to_string()),
                    ("route".to_string(), outcome.route.label().to_string()),
                ];
                if let Some(by) = outcome.served_by {
                    fields.push((
                        "served_by".to_string(),
                        format!("s{}r{}", by.shard, by.replica),
                    ));
                }
                self.obs.record_span(SpanRecord {
                    id: ctx.span_id,
                    parent: 0,
                    name: "request".to_string(),
                    start_ms: outcome.submitted_at_ms,
                    end_ms: outcome.finished_at_ms,
                    events: vec![EventRecord {
                        name: "decided".to_string(),
                        at_ms: outcome.finished_at_ms,
                        fields,
                    }],
                    trace_id: ctx.trace_id,
                    source: String::new(),
                });
            }
        }
        if let Some(slo) = &mut self.slo {
            let ok = matches!(outcome.disposition, ClusterDisposition::Completed(_));
            let latency = ok.then_some(outcome.finished_at_ms - outcome.submitted_at_ms);
            slo.record(outcome.finished_at_ms, ok, latency);
        }
        if self.obs.enabled() {
            self.obs
                .counter(
                    "hallu_cluster_outcomes_total",
                    "Request dispositions decided by the cluster",
                    &[("outcome", outcome.label())],
                )
                .inc();
            if let ClusterDisposition::Abstained(cause) = &outcome.disposition {
                self.obs
                    .counter(
                        "hallu_cluster_abstained_total",
                        "Cluster-level abstentions, by cause",
                        &[("cause", abstain_cause_label(*cause))],
                    )
                    .inc();
            }
            if let ClusterDisposition::Shed(reason) = &outcome.disposition {
                self.obs
                    .counter(
                        "hallu_cluster_shed_total",
                        "Member sheds surfaced at cluster scope",
                        &[("reason", shed_reason_label(*reason))],
                    )
                    .inc();
            }
            if let ClusterDisposition::Completed(answer) = &outcome.disposition {
                // Mirror the member verdict under the cluster namespace so
                // dashboards see one series regardless of topology.
                let d = Disposition::Completed(answer.clone());
                self.obs
                    .counter(
                        "hallu_cluster_verdicts_total",
                        "Member verdicts surfaced at cluster scope",
                        &[("verdict", disposition_label(&d))],
                    )
                    .inc();
            }
        }
        self.outcomes.push(outcome);
    }

    fn member_mut(&mut self, shard: u32, replica: u32) -> Option<&mut Member<I>> {
        self.groups
            .iter_mut()
            .find(|g| g.shard == shard)
            .and_then(|g| g.members.get_mut(replica as usize))
    }

    fn mark_down_event(&self, shard: u32, replica: u32, why: &str) {
        self.obs
            .counter(
                "hallu_cluster_marked_down_total",
                "Members marked down by probe timeout or failed delivery",
                &[],
            )
            .inc();
        self.obs.event(
            "cluster_mark_down",
            &[
                ("shard", shard.to_string()),
                ("replica", replica.to_string()),
                ("why", why.to_string()),
            ],
        );
    }

    /// Publish `hallu_cluster_view_up{shard}` — how many of the shard's
    /// members the router currently believes in.
    fn update_view_gauge(&self, gidx: usize) {
        let group = &self.groups[gidx];
        let up = (0..group.members.len())
            .filter(|&r| {
                self.detector.is_up(MemberId {
                    shard: group.shard,
                    replica: r as u32,
                })
            })
            .count();
        let shard = group.shard.to_string();
        self.obs
            .gauge(
                "hallu_cluster_view_up",
                "Members the router currently considers up, per shard",
                &[("shard", shard.as_str())],
            )
            .set(up as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::ServingStats;
    use crate::testkit::{self, QUESTIONS};
    use crate::verified::FailurePolicy;
    use slm_runtime::FaultProfile;
    use vectordb::flat::FlatIndex;

    /// Base of the per-member fault seeds.
    const MEMBER_SEED: u64 = 1000;

    fn submit_load(cluster: &mut ClusterRuntime<FlatIndex>, n: u32, spacing_ms: f64) -> Vec<u64> {
        (0..n)
            .map(|i| {
                let (question, priority) = testkit::request(i);
                cluster.submit_at(spacing_ms * f64::from(i), question, priority)
            })
            .collect()
    }

    #[test]
    fn healthy_cluster_gives_every_request_exactly_one_outcome() {
        let mut cluster =
            ClusterRuntime::new(4, ClusterConfig::default(), testkit::member(MEMBER_SEED));
        let tickets = submit_load(&mut cluster, 24, 10.0);
        cluster.run_until_idle();
        let outcomes = cluster.drain_outcomes();
        assert_eq!(outcomes.len(), tickets.len());
        let mut seen: Vec<u64> = outcomes.iter().map(|o| o.id).collect();
        seen.sort_unstable();
        let mut expected = tickets;
        expected.sort_unstable();
        assert_eq!(seen, expected, "exactly one outcome per ticket");
        for o in &outcomes {
            assert!(
                matches!(o.disposition, ClusterDisposition::Completed(_)),
                "healthy cluster completes everything: {o:?}"
            );
            let served_by = o.served_by.expect("completed outcomes name their member");
            assert_eq!(served_by.shard, o.home_shard, "no chaos, no failover");
            assert_eq!(o.route, RouteKind::Primary);
        }
    }

    #[test]
    fn routing_is_sticky_per_question() {
        let mut cluster =
            ClusterRuntime::new(4, ClusterConfig::default(), testkit::member(MEMBER_SEED));
        for round in 0..3u32 {
            for (i, q) in QUESTIONS.iter().enumerate() {
                cluster.submit_at(f64::from(round) * 100.0 + i as f64, q, Priority::Normal);
            }
        }
        cluster.run_until_idle();
        let outcomes = cluster.drain_outcomes();
        for q in QUESTIONS {
            let shards: Vec<u32> = outcomes
                .iter()
                .filter(|o| o.question == q)
                .map(|o| o.home_shard)
                .collect();
            assert_eq!(shards.len(), 3);
            assert!(
                shards.windows(2).all(|w| w[0] == w[1]),
                "a question's key must stay on one shard: {q} -> {shards:?}"
            );
        }
    }

    #[test]
    fn crash_fails_over_to_replica_and_restart_recovers() {
        let config = ClusterConfig {
            replicas: 1,
            probe_interval_ms: 20.0,
            probe_timeout_ms: 10.0,
            ..ClusterConfig::default()
        };
        let mut probe = ClusterRuntime::new(2, config, testkit::member(MEMBER_SEED));
        probe.submit_at(0.0, QUESTIONS[0], Priority::Normal);
        probe.run_until_idle();
        let home = probe.drain_outcomes()[0].home_shard;

        // Crash the home shard's primary for a window that covers the next
        // submissions; traffic must fail over to replica 1 and come back.
        let mut cluster = ClusterRuntime::new(2, config, testkit::member(MEMBER_SEED))
            .with_chaos(ChaosPlan::none().crash(home, 0, 50.0, 400.0));
        let during = cluster.submit_at(100.0, QUESTIONS[0], Priority::Normal);
        let after = cluster.submit_at(600.0, QUESTIONS[0], Priority::Normal);
        cluster.run_until_idle();
        let outcomes = cluster.drain_outcomes();
        let by_id = |id: u64| outcomes.iter().find(|o| o.id == id).unwrap();
        let during = by_id(during);
        assert_eq!(
            during.route,
            RouteKind::Failover { replica: 1 },
            "primary is down: {during:?}"
        );
        assert_eq!(
            during.served_by,
            Some(ShardIdentity {
                shard: home,
                replica: 1
            })
        );
        assert!(matches!(
            during.disposition,
            ClusterDisposition::Completed(_)
        ));
        let after = by_id(after);
        assert_eq!(
            after.route,
            RouteKind::Primary,
            "restart + probe must restore the primary: {after:?}"
        );
    }

    #[test]
    fn total_shard_loss_degrades_to_typed_abstention() {
        let config = ClusterConfig {
            replicas: 0,
            probe_interval_ms: 20.0,
            probe_timeout_ms: 10.0,
            ..ClusterConfig::default()
        };
        let mut probe = ClusterRuntime::new(2, config, testkit::member(MEMBER_SEED));
        probe.submit_at(0.0, QUESTIONS[0], Priority::Normal);
        probe.run_until_idle();
        let home = probe.drain_outcomes()[0].home_shard;

        let mut cluster = ClusterRuntime::new(2, config, testkit::member(MEMBER_SEED))
            .with_chaos(ChaosPlan::none().crash(home, 0, 10.0, f64::INFINITY));
        let lost = cluster.submit_at(100.0, QUESTIONS[0], Priority::Normal);
        cluster.run_until_idle();
        let outcomes = cluster.drain_outcomes();
        let lost = outcomes.iter().find(|o| o.id == lost).unwrap();
        assert_eq!(
            lost.disposition,
            ClusterDisposition::Abstained(AbstainCause::ShardUnavailable),
            "no member left: abstain, don't hang"
        );
        assert_eq!(lost.route, RouteKind::Unrouted);
        assert_eq!(lost.served_by, None);
    }

    #[test]
    fn partition_abstains_but_accepted_work_completes() {
        let config = ClusterConfig {
            replicas: 1,
            probe_interval_ms: 20.0,
            probe_timeout_ms: 10.0,
            ..ClusterConfig::default()
        };
        let mut probe = ClusterRuntime::new(2, config, testkit::member(MEMBER_SEED));
        probe.submit_at(0.0, QUESTIONS[0], Priority::Normal);
        probe.run_until_idle();
        let home = probe.drain_outcomes()[0].home_shard;

        let mut cluster = ClusterRuntime::new(2, config, testkit::member(MEMBER_SEED))
            .with_chaos(ChaosPlan::none().partition(home, 5.0, 500.0));
        let accepted = cluster.submit_at(0.0, QUESTIONS[0], Priority::Normal);
        let cut_off = cluster.submit_at(100.0, QUESTIONS[0], Priority::Normal);
        let healed = cluster.submit_at(700.0, QUESTIONS[0], Priority::Normal);
        cluster.run_until_idle();
        let outcomes = cluster.drain_outcomes();
        let by_id = |id: u64| outcomes.iter().find(|o| o.id == id).unwrap();
        assert!(
            matches!(
                by_id(accepted).disposition,
                ClusterDisposition::Completed(_)
            ),
            "work accepted before the partition completes: {:?}",
            by_id(accepted)
        );
        assert_eq!(
            by_id(cut_off).disposition,
            ClusterDisposition::Abstained(AbstainCause::Partitioned),
            "a partitioned shard's traffic abstains instead of hanging"
        );
        assert!(
            matches!(by_id(healed).disposition, ClusterDisposition::Completed(_)),
            "after heal + probe the shard serves again: {:?}",
            by_id(healed)
        );
    }

    #[test]
    fn crash_aborts_queued_work_with_typed_outcomes() {
        // Slow serving + tight arrivals: the primary has queued work when
        // it crashes with no replica to fail over to.
        let config = ClusterConfig {
            replicas: 0,
            probe_interval_ms: 20.0,
            probe_timeout_ms: 10.0,
            ..ClusterConfig::default()
        };
        let mut cluster = ClusterRuntime::new(1, config, testkit::member(MEMBER_SEED))
            .with_chaos(ChaosPlan::none().crash(0, 0, 150.0, f64::INFINITY));
        let tickets = submit_load(&mut cluster, 12, 5.0);
        cluster.run_until_idle();
        let outcomes = cluster.drain_outcomes();
        assert_eq!(outcomes.len(), tickets.len(), "no request may vanish");
        let crashed = outcomes
            .iter()
            .filter(|o| o.disposition == ClusterDisposition::Abstained(AbstainCause::ShardCrashed))
            .count();
        assert!(crashed > 0, "queued work must abort as shard_crashed");
        let unavailable = outcomes
            .iter()
            .filter(|o| {
                o.disposition == ClusterDisposition::Abstained(AbstainCause::ShardUnavailable)
            })
            .count();
        assert!(
            crashed + unavailable < outcomes.len(),
            "work finished before the crash must have completed"
        );
    }

    #[test]
    fn spill_moves_load_off_a_slow_shard() {
        let config = ClusterConfig {
            replicas: 0,
            spill: Some(SpillPolicy {
                queue_depth: 2,
                ..SpillPolicy::default()
            }),
            ..ClusterConfig::default()
        };
        // Slow every shard's primary except let the ring successor absorb:
        // slow factor applies to shard that owns the repeated question.
        let mut probe = ClusterRuntime::new(3, config, testkit::member(MEMBER_SEED));
        probe.submit_at(0.0, QUESTIONS[0], Priority::Normal);
        probe.run_until_idle();
        let home = probe.drain_outcomes()[0].home_shard;

        let mut cluster = ClusterRuntime::new(3, config, testkit::member(MEMBER_SEED))
            .with_chaos(ChaosPlan::none().slow(home, 0, 50.0, 0.0, f64::INFINITY));
        for i in 0..10u32 {
            cluster.submit_at(5.0 * f64::from(i), QUESTIONS[0], Priority::Normal);
        }
        cluster.run_until_idle();
        let outcomes = cluster.drain_outcomes();
        let stats = ClusterStats::from_outcomes(&outcomes);
        assert!(
            stats.spills > 0,
            "a slow home shard must spill to its ring successor: {stats:?}"
        );
        let spilled = outcomes
            .iter()
            .find(|o| matches!(o.route, RouteKind::Spill { .. }))
            .unwrap();
        if let RouteKind::Spill { to } = spilled.route {
            assert_ne!(to, spilled.home_shard);
            assert_eq!(spilled.served_by.unwrap().shard, to);
        }
    }

    #[test]
    fn add_and_remove_shard_rebalance_within_bounds() {
        let mut cluster =
            ClusterRuntime::new(4, ClusterConfig::default(), testkit::member(MEMBER_SEED));
        let before: Vec<Option<u32>> = QUESTIONS
            .iter()
            .map(|q| cluster.ring().shard_for(q))
            .collect();
        let mut f = testkit::member(MEMBER_SEED);
        let report = cluster.add_shard(&mut f);
        assert!(report.within_bound());
        assert_eq!(report.shards_after, 5);
        let after: Vec<Option<u32>> = QUESTIONS
            .iter()
            .map(|q| cluster.ring().shard_for(q))
            .collect();
        for (b, a) in before.iter().zip(&after) {
            if b != a {
                assert_eq!(*a, Some(report.shard), "moved keys go to the new shard");
            }
        }
        let removed = cluster.remove_shard(report.shard).unwrap();
        assert!(removed.within_bound());
        // New shard's keys must be re-homed; requests still complete.
        cluster.submit_at(0.0, QUESTIONS[0], Priority::Normal);
        cluster.run_until_idle();
        let outcomes = cluster.drain_outcomes();
        assert!(matches!(
            outcomes[0].disposition,
            ClusterDisposition::Completed(_)
        ));
        assert_eq!(
            cluster.remove_shard(99).unwrap_err(),
            RingError::UnknownShard(99)
        );
    }

    #[test]
    fn member_sheds_surface_as_cluster_outcomes() {
        let config = ClusterConfig {
            replicas: 0,
            serving: ServingConfig {
                queue_bound: Some(1),
                default_deadline_ms: 80.0,
                ..ServingConfig::default()
            },
            ..ClusterConfig::default()
        };
        let mut cluster = ClusterRuntime::new(1, config, testkit::member(MEMBER_SEED));
        let tickets = submit_load(&mut cluster, 16, 1.0);
        cluster.run_until_idle();
        let outcomes = cluster.drain_outcomes();
        assert_eq!(outcomes.len(), tickets.len());
        let stats = ClusterStats::from_outcomes(&outcomes);
        assert!(
            stats.shed > 0,
            "bounded queue under burst must shed: {stats:?}"
        );
        assert!(
            outcomes.iter().any(|o| matches!(
                o.disposition,
                ClusterDisposition::Shed(ShedReason::QueueFull)
            )),
            "shed reasons stay typed at cluster scope"
        );
    }

    #[test]
    fn member_health_reflects_probe_lag() {
        let config = ClusterConfig {
            replicas: 0,
            probe_interval_ms: 50.0,
            probe_timeout_ms: 25.0,
            ..ClusterConfig::default()
        };
        let mut cluster = ClusterRuntime::new(2, config, testkit::member(MEMBER_SEED))
            .with_chaos(ChaosPlan::none().crash(0, 0, 10.0, f64::INFINITY));
        // Keep the loop alive past the probe timeout with a late request.
        cluster.submit_at(200.0, QUESTIONS[1], Priority::Normal);
        cluster.run_until_idle();
        let health = cluster.member_health();
        let dead = health
            .iter()
            .find(|h| {
                h.identity
                    == ShardIdentity {
                        shard: 0,
                        replica: 0,
                    }
            })
            .unwrap();
        assert!(!dead.alive);
        assert!(
            !dead.router_view_up,
            "probe timeout must have marked the crashed member down"
        );
        drop(cluster.drain_outcomes());
    }

    #[test]
    fn single_shard_cluster_matches_standalone_serving_runtime() {
        let mut standalone = ServingRuntime::new(
            testkit::guarded(
                [
                    FaultProfile::none(MEMBER_SEED),
                    FaultProfile::none(MEMBER_SEED + 1),
                ],
                FailurePolicy::Abstain,
            ),
            ServingConfig::default(),
        );
        let config = ClusterConfig {
            replicas: 0,
            ..ClusterConfig::default()
        };
        let mut cluster = ClusterRuntime::new(1, config, testkit::member(MEMBER_SEED));
        for (i, q) in QUESTIONS.iter().enumerate() {
            standalone.submit_at(10.0 * i as f64, q, Priority::Normal);
            cluster.submit_at(10.0 * i as f64, q, Priority::Normal);
        }
        standalone.run_until_idle();
        cluster.run_until_idle();
        let base = standalone.drain_outcomes();
        let clustered = cluster.drain_outcomes();
        assert_eq!(base.len(), clustered.len());
        for (b, c) in base.iter().zip(&clustered) {
            let ClusterDisposition::Completed(ca) = &c.disposition else {
                panic!("expected completion: {c:?}");
            };
            let Disposition::Completed(ba) = &b.disposition else {
                panic!("expected completion: {b:?}");
            };
            assert_eq!(ba, ca, "a 1-shard cluster is a transparent wrapper");
            assert_eq!(b.finished_at_ms, c.finished_at_ms);
        }
        // Sanity: the serving stats view agrees.
        assert!(ServingStats::from_outcomes(&base).served > 0);
    }

    #[test]
    fn seeded_chaos_plans_are_reproducible_and_seed_sensitive() {
        let a = ChaosPlan::seeded(7, 8, 1, 1000.0, 6);
        let b = ChaosPlan::seeded(7, 8, 1, 1000.0, 6);
        let c = ChaosPlan::seeded(8, 8, 1, 1000.0, 6);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, c, "different seed, different plan");
        assert!(!a.events().is_empty());
        for e in a.events() {
            assert!(e.at_ms >= 0.0 && e.at_ms <= 1000.0);
        }
    }

    #[test]
    fn gossip_detector_fails_over_and_restart_recovers() {
        let config = ClusterConfig {
            replicas: 1,
            detector: DetectorKind::Gossip(GossipConfig::default()),
            ..ClusterConfig::default()
        };
        let mut probe = ClusterRuntime::new(2, config, testkit::member(MEMBER_SEED));
        probe.submit_at(0.0, QUESTIONS[0], Priority::Normal);
        probe.run_until_idle();
        let home = probe.drain_outcomes()[0].home_shard;

        let mut cluster = ClusterRuntime::new(2, config, testkit::member(MEMBER_SEED))
            .with_chaos(ChaosPlan::none().crash(home, 0, 50.0, 400.0));
        let during = cluster.submit_at(200.0, QUESTIONS[0], Priority::Normal);
        let after = cluster.submit_at(900.0, QUESTIONS[0], Priority::Normal);
        cluster.run_until_idle();
        let outcomes = cluster.drain_outcomes();
        let by_id = |id: u64| outcomes.iter().find(|o| o.id == id).unwrap();
        let during = by_id(during);
        assert_eq!(
            during.route,
            RouteKind::Failover { replica: 1 },
            "primary is down under gossip: {during:?}"
        );
        assert!(matches!(
            during.disposition,
            ClusterDisposition::Completed(_)
        ));
        let after = by_id(after);
        assert_eq!(
            after.route,
            RouteKind::Primary,
            "the restarted primary's incarnation bump must reach the router: {after:?}"
        );
        assert!(
            !cluster.membership_timeline().is_empty(),
            "gossip transitions must be recorded"
        );
    }

    #[test]
    fn gossip_timeline_is_bitwise_reproducible_and_seed_sensitive() {
        let run = |gossip_seed: u64| {
            let config = ClusterConfig {
                replicas: 1,
                detector: DetectorKind::Gossip(GossipConfig {
                    seed: gossip_seed,
                    ..GossipConfig::default()
                }),
                ..ClusterConfig::default()
            };
            let mut cluster = ClusterRuntime::new(2, config, testkit::member(MEMBER_SEED))
                .with_chaos(
                    ChaosPlan::none()
                        .crash(0, 0, 50.0, 300.0)
                        .partition(1, 400.0, 600.0),
                );
            cluster.submit_at(900.0, QUESTIONS[2], Priority::Normal);
            cluster.run_until_idle();
            drop(cluster.drain_outcomes());
            cluster.membership_timeline().to_vec()
        };
        let a = run(11);
        let b = run(11);
        let c = run(12);
        assert_eq!(a, b, "same gossip seed, same membership timeline");
        assert!(!a.is_empty());
        assert_ne!(a, c, "different gossip seed must reshuffle probe order");
    }

    #[test]
    fn replication_warms_failover_targets() {
        let config = ClusterConfig {
            replicas: 1,
            probe_interval_ms: 20.0,
            probe_timeout_ms: 10.0,
            replication: Some(ReplicationConfig::default()),
            ..ClusterConfig::default()
        };
        let mut probe = ClusterRuntime::new(2, config, testkit::member(MEMBER_SEED));
        probe.submit_at(0.0, QUESTIONS[0], Priority::Normal);
        probe.run_until_idle();
        let home = probe.drain_outcomes()[0].home_shard;

        // Warm the primary, let sync rounds run, then crash it: the
        // replica must serve cache hits on entries it never computed.
        let mut cluster = ClusterRuntime::new(2, config, testkit::member(MEMBER_SEED))
            .with_chaos(ChaosPlan::none().crash(home, 0, 1200.0, f64::INFINITY));
        for i in 0..6u32 {
            cluster.submit_at(150.0 * f64::from(i), QUESTIONS[0], Priority::Normal);
        }
        for i in 0..4u32 {
            cluster.submit_at(
                1300.0 + 150.0 * f64::from(i),
                QUESTIONS[0],
                Priority::Normal,
            );
        }
        cluster.run_until_idle();
        let outcomes = cluster.drain_outcomes();
        for o in &outcomes {
            assert!(
                matches!(o.disposition, ClusterDisposition::Completed(_)),
                "replicated failover must keep serving: {o:?}"
            );
        }
        let failovers = outcomes
            .iter()
            .filter(|o| matches!(o.route, RouteKind::Failover { .. }))
            .count();
        assert!(failovers > 0, "the crash must actually fail over");
        let stats = cluster.cache_stats_total();
        assert!(
            stats.replicated_inserts > 0,
            "sync rounds must ship entries: {stats:?}"
        );
        assert!(
            stats.replicated_hits > 0,
            "the failover target must serve hits it never computed: {stats:?}"
        );
    }

    #[test]
    fn hysteresis_cuts_routing_flaps_from_a_flapping_member() {
        let flaps = |hysteresis: HysteresisConfig| {
            let config = ClusterConfig {
                replicas: 1,
                probe_interval_ms: 10.0,
                probe_timeout_ms: 5.0,
                hysteresis,
                ..ClusterConfig::default()
            };
            let mut cluster = ClusterRuntime::new(2, config, testkit::member(MEMBER_SEED))
                .with_chaos(ChaosPlan::none().flap(0, 0, 100.0, 60.0, 8));
            cluster.submit_at(900.0, QUESTIONS[1], Priority::Normal);
            cluster.run_until_idle();
            drop(cluster.drain_outcomes());
            cluster
                .membership_timeline()
                .iter()
                .filter(|ev| {
                    ev.member
                        == MemberId {
                            shard: 0,
                            replica: 0,
                        }
                })
                .count()
        };
        let raw = flaps(HysteresisConfig::passthrough());
        let damped = flaps(HysteresisConfig::default());
        assert!(
            raw >= 8,
            "passthrough must echo most flap cycles, got {raw}"
        );
        assert!(
            damped <= raw / 2,
            "damping must absorb flaps: damped {damped} vs raw {raw}"
        );
        assert!(damped >= 1, "the first crash must still be detected");
    }

    #[test]
    fn spill_slow_state_flips_respect_the_dwell_window() {
        let policy = SpillPolicy {
            queue_depth: 1000,
            slow_service_ms: 300.0,
            latency_quantile: 0.9,
            min_observations: 0.5,
            window_decay: 0.95,
            min_dwell_ms: 150.0,
        };
        let config = ClusterConfig {
            replicas: 0,
            probe_interval_ms: 25.0,
            spill: Some(policy),
            ..ClusterConfig::default()
        };
        let mut probe = ClusterRuntime::new(3, config, testkit::member(MEMBER_SEED));
        probe.submit_at(0.0, QUESTIONS[0], Priority::Normal);
        probe.run_until_idle();
        let home = probe.drain_outcomes()[0].home_shard;

        // Oscillate the home shard between slow and fast faster than the
        // dwell window, under steady traffic (healthy service ≈ 140 ms).
        let mut plan = ChaosPlan::none();
        for c in 0..6 {
            let at = 100.0 + 400.0 * f64::from(c);
            plan = plan.slow(home, 0, 4.0, at, at + 200.0);
        }
        let mut cluster =
            ClusterRuntime::new(3, config, testkit::member(MEMBER_SEED)).with_chaos(plan);
        for i in 0..40u32 {
            cluster.submit_at(150.0 * f64::from(i), QUESTIONS[0], Priority::Normal);
        }
        cluster.run_until_idle();
        drop(cluster.drain_outcomes());
        let timeline = cluster.spill_timeline();
        assert!(
            !timeline.is_empty(),
            "a genuinely slow shard must flip the slow state at least once"
        );
        let mut last_flip: BTreeMap<u32, f64> = BTreeMap::new();
        for tr in timeline {
            if let Some(prev) = last_flip.insert(tr.shard, tr.at_ms) {
                assert!(
                    tr.at_ms - prev >= policy.min_dwell_ms,
                    "shard {} flipped twice inside the dwell window: {timeline:?}",
                    tr.shard
                );
            }
        }
    }
}
