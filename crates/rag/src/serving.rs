//! Overload-resilient serving runtime for guarded QA.
//!
//! [`ResilientVerifiedPipeline`] makes a single request robust to *backend*
//! failures (crashes, stalls, garbage scores). This module makes the system
//! robust to *load*: when requests arrive faster than verification can score
//! them, an unprotected server queues without bound, every request blows its
//! latency budget, and goodput collapses — the classic overload failure mode.
//!
//! [`ServingRuntime`] wraps the pipeline in a deterministic single-server
//! queueing loop with three defenses:
//!
//! 1. **Admission control** — a bounded queue with a configurable
//!    [`ShedPolicy`]. A request that cannot be admitted is not dropped on
//!    the floor: it gets an explicit [`Disposition::Shed`] outcome naming
//!    the reason, so callers can distinguish "your answer was blocked as a
//!    hallucination" from "the system was too busy to look".
//! 2. **Deadline budgets** — each request carries a relative deadline.
//!    Whatever queueing delay it suffers is subtracted from the budget the
//!    verifier gets ([`ResilientVerifiedPipeline::ask_deadline`] →
//!    `ResilientDetector::score_within`), so a near-expired request scores
//!    the sentences it can afford and degrades honestly instead of
//!    overshooting. A request whose deadline passes while still queued is
//!    shed without wasting verifier time on it.
//! 3. **Graceful drain** — [`ServingRuntime::begin_drain`] stops admitting
//!    new work (typed as [`ShedReason::Draining`]) while every
//!    already-admitted request is still served to completion.
//!
//! All time is virtual ([`slm_runtime::VirtualClock`]): the queue dynamics,
//! deadline expiries, and shed decisions are a discrete-event simulation
//! over the same simulated milliseconds the fault-injection layer charges,
//! which makes every overload scenario in the test suite and the `overload`
//! benchmark bitwise reproducible.
//!
//! **Zero-pressure transparency.** With an unbounded queue, infinite
//! deadlines, and no drain, the runtime serves submissions in order with an
//! infinite budget — bitwise identical to calling
//! [`ResilientVerifiedPipeline::ask`] directly. The overload machinery is
//! pay-for-what-you-use; it cannot perturb an unloaded system.
//!
//! **Observability.** [`ServingRuntime::with_obs`] connects the loop to a
//! `hallu-obs` sink: queue depth, shed decisions (by reason and priority),
//! queue-wait / service / deadline-slack histograms, and a per-request
//! flight record capturing the decision trail — admission context, every
//! detector event, the guard decision, and the final disposition — stamped
//! in the runtime's own virtual milliseconds. Instrumentation never
//! perturbs the queue dynamics: outcomes are bitwise identical with or
//! without a sink.

use std::fmt;
use std::sync::Arc;

use hallu_core::ResilienceTelemetry;
use hallu_obs::{
    Counter, EventRecord, Gauge, Histogram, Obs, SpanRecord, TraceContext,
    DEFAULT_LATENCY_BUCKETS_MS,
};
use slm_runtime::{Clock, PagedKvPool, VerificationCache, VirtualClock};
use vectordb::index::VectorIndex;

use crate::verified::{ResilientAnswer, ResilientVerifiedPipeline};

/// Which serving node produced an outcome. `shard` is the consistent-hash
/// ring position; `replica` is the node's index inside that shard's replica
/// group (0 = primary). A standalone [`ServingRuntime`] has no identity and
/// stamps [`RequestOutcome::served_by`] with `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardIdentity {
    /// Ring shard id.
    pub shard: u32,
    /// Replica index within the shard's group (0 = primary).
    pub replica: u32,
}

impl fmt::Display for ShardIdentity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}r{}", self.shard, self.replica)
    }
}

/// Request importance class. Ordering is semantic: `Low < Normal < High`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Shed first under pressure (e.g. batch/backfill traffic).
    Low,
    /// Default interactive traffic.
    Normal,
    /// Shed last (e.g. operator or safety-critical queries).
    High,
}

/// What to do when a request arrives at a full queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Reject the arriving request ([`ShedReason::QueueFull`]). Queued work
    /// is never disturbed; service order stays FIFO within a priority class.
    RejectNewest,
    /// If the arriving request outranks the lowest-priority queued one,
    /// evict that victim ([`ShedReason::Displaced`]) to make room;
    /// otherwise reject the newcomer. Protects high-priority goodput.
    ShedLowestPriority,
    /// Admit like [`ShedPolicy::RejectNewest`], but once the queue is at
    /// least half its bound, serve newest-first within a priority class.
    /// Under sustained overload FIFO serves only stale, about-to-expire
    /// requests; LIFO serves fresh ones that can still meet their deadline.
    LifoUnderOverload,
}

/// Why a request was shed instead of served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Arrived at a full queue and the policy rejected it.
    QueueFull,
    /// Was queued, but evicted to admit a higher-priority arrival
    /// (only under [`ShedPolicy::ShedLowestPriority`]).
    Displaced,
    /// Its deadline passed while it was still waiting in the queue.
    DeadlineExpired,
    /// Submitted after [`ServingRuntime::begin_drain`].
    Draining,
    /// The attached paged KV pool cannot fit the prompt's page need
    /// (only with [`ServingRuntime::with_pool_admission`]). Shedding at
    /// admission turns a mid-prefill `PoolExhausted` abort into a typed,
    /// observable outcome the client can retry against another replica.
    PoolSaturated,
}

/// The single typed disposition every submitted request receives.
#[derive(Debug, Clone, PartialEq)]
pub enum Disposition {
    /// Verification ran; the pipeline's own verdict
    /// (served / blocked / unverified / abstained) is inside. Boxed: the
    /// answer dwarfs the shed variants and most outcomes shed under load.
    Completed(Box<ResilientAnswer>),
    /// Admission control or deadline enforcement dropped the request
    /// before (or instead of) verification.
    Shed(ShedReason),
    /// Retrieval failed; the error is reported, not swallowed.
    Failed(String),
}

/// One request's complete serving record. Exactly one of these is produced
/// per [`ServingRuntime::submit_at`] call — never zero, never two.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// Ticket returned by `submit_at`.
    pub id: u64,
    /// The submitted question.
    pub question: String,
    /// The submitted priority class.
    pub priority: Priority,
    /// Virtual arrival time.
    pub submitted_at_ms: f64,
    /// Virtual time the disposition was decided.
    pub finished_at_ms: f64,
    /// Time spent queued before service began (0 for admission-time sheds).
    pub queue_wait_ms: f64,
    /// How many *other* requests were waiting in the queue at the instant
    /// the disposition was decided. Together with `priority` this makes
    /// every outcome (and its flight record) self-contained: a shed can be
    /// interpreted without replaying the queue that caused it.
    pub queue_depth_at_decision: usize,
    /// The node that decided this outcome (served it, or shed it at its
    /// admission gate). `None` for a standalone runtime outside a cluster.
    pub served_by: Option<ShardIdentity>,
    /// What happened.
    pub disposition: Disposition,
}

impl RequestOutcome {
    /// End-to-end sojourn time (decision minus arrival).
    pub fn latency_ms(&self) -> f64 {
        self.finished_at_ms - self.submitted_at_ms
    }

    /// Whether an answer actually reached the user.
    pub fn is_served(&self) -> bool {
        matches!(&self.disposition, Disposition::Completed(a) if a.is_served())
    }
}

/// Admission and deadline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingConfig {
    /// Maximum queued (admitted, not yet served) requests. `None` is an
    /// unbounded queue — no admission sheds ever happen.
    pub queue_bound: Option<usize>,
    /// Full-queue behavior.
    pub shed_policy: ShedPolicy,
    /// Relative deadline applied to requests submitted without one.
    /// `f64::INFINITY` disables deadline enforcement.
    pub default_deadline_ms: f64,
}

impl Default for ServingConfig {
    /// Zero-pressure defaults: unbounded queue, no deadlines. Under this
    /// configuration the runtime is a transparent wrapper.
    fn default() -> Self {
        Self {
            queue_bound: None,
            shed_policy: ShedPolicy::RejectNewest,
            default_deadline_ms: f64::INFINITY,
        }
    }
}

/// Aggregate view of a batch of outcomes (see the `overload` benchmark for
/// goodput/latency analysis built on top of this).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServingStats {
    /// Total outcomes summarized.
    pub total: usize,
    /// Verified and served.
    pub served: usize,
    /// Verified and blocked as hallucinated.
    pub blocked: usize,
    /// Verification abstained; [`crate::verified::FailurePolicy`] decided.
    pub unverified: usize,
    /// Explicit abstentions surfaced to the caller.
    pub abstained: usize,
    /// Shed at admission or by deadline enforcement.
    pub shed: usize,
    /// Retrieval failures.
    pub failed: usize,
}

impl ServingStats {
    /// Tally dispositions over `outcomes`.
    pub fn from_outcomes(outcomes: &[RequestOutcome]) -> Self {
        let mut s = Self {
            total: outcomes.len(),
            ..Self::default()
        };
        for o in outcomes {
            match &o.disposition {
                Disposition::Completed(a) => match a.as_ref() {
                    ResilientAnswer::Served { .. } => s.served += 1,
                    ResilientAnswer::Blocked { .. } => s.blocked += 1,
                    ResilientAnswer::Unverified { .. } => s.unverified += 1,
                    ResilientAnswer::Abstained { .. } => s.abstained += 1,
                },
                Disposition::Shed(_) => s.shed += 1,
                Disposition::Failed(_) => s.failed += 1,
            }
        }
        s
    }
}

/// A request admitted to the queue.
#[derive(Debug, Clone)]
struct QueuedRequest {
    id: u64,
    question: String,
    priority: Priority,
    submitted_at_ms: f64,
    /// Absolute expiry (arrival + relative deadline; may be infinite).
    deadline_at_ms: f64,
    /// Cluster trace context (root span to attach under), if traced.
    trace: Option<TraceContext>,
}

/// Stable label for a priority class (metric labels and flight fields).
pub(crate) fn priority_label(p: Priority) -> &'static str {
    match p {
        Priority::Low => "low",
        Priority::Normal => "normal",
        Priority::High => "high",
    }
}

/// Stable label for a shed reason (metric labels and flight fields).
pub(crate) fn shed_reason_label(r: ShedReason) -> &'static str {
    match r {
        ShedReason::QueueFull => "queue_full",
        ShedReason::Displaced => "displaced",
        ShedReason::DeadlineExpired => "deadline_expired",
        ShedReason::Draining => "draining",
        ShedReason::PoolSaturated => "pool_saturated",
    }
}

/// Stable label for a disposition (metric labels and flight outcomes).
pub(crate) fn disposition_label(d: &Disposition) -> &'static str {
    match d {
        Disposition::Completed(a) => match a.as_ref() {
            ResilientAnswer::Served { .. } => "served",
            ResilientAnswer::Blocked { .. } => "blocked",
            ResilientAnswer::Unverified { .. } => "unverified",
            ResilientAnswer::Abstained { .. } => "abstained",
        },
        Disposition::Shed(_) => "shed",
        Disposition::Failed(_) => "failed",
    }
}

/// Registry handles the serving loop writes. Every handle is disconnected
/// (a free no-op) until [`ServingRuntime::with_obs`] registers them.
#[derive(Debug, Clone, Default)]
struct ServingMetrics {
    submitted: Counter,
    coalesced: Counter,
    queue_depth: Gauge,
    queue_wait_ms: Histogram,
    service_ms: Histogram,
    deadline_slack_ms: Histogram,
}

impl ServingMetrics {
    /// Register the serving series, labeled `{shard, replica}` when the
    /// runtime has a cluster identity so per-shard views (and the cluster
    /// router's slow-shard detection) can tell members apart.
    fn register(obs: &Obs, identity: Option<ShardIdentity>) -> Self {
        let (shard_s, replica_s);
        let labels: Vec<(&str, &str)> = match identity {
            Some(id) => {
                shard_s = id.shard.to_string();
                replica_s = id.replica.to_string();
                vec![("shard", shard_s.as_str()), ("replica", replica_s.as_str())]
            }
            None => Vec::new(),
        };
        Self {
            submitted: obs.counter(
                "hallu_serving_submitted_total",
                "Requests submitted to the serving runtime",
                &labels,
            ),
            coalesced: obs.counter(
                "hallu_serving_coalesced_total",
                "Queued requests whose question was being served when dispatch \
                 began — their sentence scores land as cache hits",
                &labels,
            ),
            queue_depth: obs.gauge(
                "hallu_serving_queue_depth",
                "Admitted requests currently waiting for service",
                &labels,
            ),
            queue_wait_ms: obs.histogram(
                "hallu_serving_queue_wait_ms",
                "Virtual time spent queued before the disposition was decided",
                &labels,
                &DEFAULT_LATENCY_BUCKETS_MS,
            ),
            service_ms: obs.histogram(
                "hallu_serving_service_ms",
                "Charged verification time per request that reached service",
                &labels,
                &DEFAULT_LATENCY_BUCKETS_MS,
            ),
            deadline_slack_ms: obs.histogram(
                "hallu_serving_deadline_slack_ms",
                "Remaining deadline budget at the moment service began",
                &labels,
                &DEFAULT_LATENCY_BUCKETS_MS,
            ),
        }
    }
}

/// A submission not yet processed by the event loop.
#[derive(Debug, Clone)]
struct PendingArrival {
    id: u64,
    question: String,
    priority: Priority,
    at_ms: f64,
    deadline_ms: f64,
    /// Submitted after [`ServingRuntime::begin_drain`]; refused on arrival.
    refused_by_drain: bool,
    /// Cluster trace context (root span to attach under), if traced.
    trace: Option<TraceContext>,
}

/// A dispatched request whose (virtual) service interval is still open.
/// The outcome — disposition included — is decided at dispatch; it is
/// published when the clock reaches `outcome.finished_at_ms`, or discarded
/// by [`ServingRuntime::abort_pending`] if the node dies first.
#[derive(Debug, Clone)]
struct InFlight {
    outcome: RequestOutcome,
}

/// A request a dying node never finished: returned by
/// [`ServingRuntime::abort_pending`] so a cluster can give it a typed
/// outcome (the one-outcome invariant survives node loss).
#[derive(Debug, Clone, PartialEq)]
pub struct AbortedRequest {
    /// Ticket from `submit_at`.
    pub id: u64,
    /// The submitted question.
    pub question: String,
    /// The submitted priority class.
    pub priority: Priority,
    /// Virtual arrival time.
    pub submitted_at_ms: f64,
    /// Whether the request was being served (vs. still queued or not yet
    /// delivered) when the node went down.
    pub was_in_flight: bool,
}

/// Deterministic single-server serving loop around a
/// [`ResilientVerifiedPipeline`]. See the module docs for the model.
///
/// The loop has two drivers. [`run_until_idle`](Self::run_until_idle) owns
/// the clock and plays every submission to completion — the standalone
/// mode. A cluster instead drives members incrementally through
/// [`deliver_now`](Self::deliver_now) / [`pump`](Self::pump) /
/// [`next_wake_ms`](Self::next_wake_ms) on a *shared* clock
/// ([`with_shared_clock`](Self::with_shared_clock)), so many members
/// advance through the same virtual milliseconds without any member
/// unilaterally jumping time. Both drivers run the same dispatch core.
pub struct ServingRuntime<I> {
    pipeline: ResilientVerifiedPipeline<I>,
    /// Admission and deadline configuration.
    pub config: ServingConfig,
    /// Shared so [`with_obs`](Self::with_obs) can bind it as the sink's
    /// time source; in standalone mode the loop is the only writer, in
    /// cluster mode the cluster event loop is.
    clock: Arc<VirtualClock>,
    obs: Obs,
    metrics: ServingMetrics,
    /// Shared with the pipeline's detector so the runtime can report cache
    /// stats; `None` means every request scores its sentences from scratch.
    cache: Option<Arc<VerificationCache>>,
    /// Cluster position, stamped on outcomes and metric labels.
    identity: Option<ShardIdentity>,
    /// Multiplier on charged service time (chaos: a slow shard runs the
    /// same verification but takes longer to do it).
    service_factor: f64,
    /// Paged KV pool consulted at admission
    /// ([`with_pool_admission`](Self::with_pool_admission)); `None` skips
    /// the check entirely.
    pool: Option<Arc<PagedKvPool>>,
    /// Flat token overhead added to the prompt estimate (verification
    /// template, answer headroom) before converting to a page need.
    pool_overhead_tokens: usize,
    next_id: u64,
    arrivals: Vec<PendingArrival>,
    queue: Vec<QueuedRequest>,
    in_flight: Option<InFlight>,
    outcomes: Vec<RequestOutcome>,
    draining: bool,
}

impl<I: VectorIndex> ServingRuntime<I> {
    /// Wrap `pipeline` under `config`, starting the virtual clock at 0.
    pub fn new(pipeline: ResilientVerifiedPipeline<I>, config: ServingConfig) -> Self {
        Self {
            pipeline,
            config,
            clock: Arc::new(VirtualClock::new()),
            obs: Obs::off(),
            metrics: ServingMetrics::default(),
            cache: None,
            identity: None,
            service_factor: 1.0,
            pool: None,
            pool_overhead_tokens: 0,
            next_id: 0,
            arrivals: Vec::new(),
            queue: Vec::new(),
            in_flight: None,
            outcomes: Vec::new(),
            draining: false,
        }
    }

    /// Replace the runtime's private clock with a shared one, so several
    /// runtimes (a cluster's members) advance through the same virtual
    /// time. Apply before [`with_obs`](Self::with_obs) — the sink binds
    /// whichever clock the runtime holds at that point.
    #[must_use]
    pub fn with_shared_clock(mut self, clock: Arc<VirtualClock>) -> Self {
        self.clock = clock;
        self
    }

    /// Stamp this runtime with its cluster position. Outcomes carry it in
    /// [`RequestOutcome::served_by`], flight records switch to
    /// `req-s{shard}r{replica}-{id}` names, and metric series gain
    /// `{shard, replica}` labels. Apply before [`with_obs`](Self::with_obs)
    /// so the labels land on the registered series.
    #[must_use]
    pub fn with_identity(mut self, shard: u32, replica: u32) -> Self {
        self.identity = Some(ShardIdentity { shard, replica });
        self
    }

    /// Connect the runtime — and, through it, the wrapped pipeline and its
    /// detector — to an observability sink. The runtime's virtual clock
    /// becomes the sink's time source, so every metric, span, and flight
    /// record is stamped in the same simulated milliseconds the queueing
    /// model runs on. Queue dynamics and verdicts are bitwise unaffected.
    #[must_use]
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.set_obs(obs);
        self
    }

    /// Non-consuming [`with_obs`](Self::with_obs): re-registers every
    /// metric handle (with identity labels when present) against `obs` and
    /// rebinds its time source to this runtime's clock.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.obs = obs.clone();
        obs.bind_time(self.clock.clone());
        self.metrics = ServingMetrics::register(obs, self.identity);
        self.pipeline.set_obs(obs);
    }

    /// Share `cache` between the wrapped pipeline's detector and the
    /// runtime. Duplicate questions that queue up behind one another then
    /// coalesce: the first dispatch scores each (model, sentence) cell once
    /// and every follower replays the memoized outcomes — same verdicts,
    /// same virtual-time charges, less recomputation. Outcomes are bitwise
    /// identical with or without the cache.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<VerificationCache>) -> Self {
        self.pipeline.set_cache(cache.clone());
        self.cache = Some(cache);
        self
    }

    /// Non-consuming form of [`Self::with_cache`], for hosts (the cluster)
    /// that attach or re-attach a cache to an already-built runtime — e.g.
    /// when rebinding cache telemetry to a new observability sink.
    pub fn set_cache(&mut self, cache: Arc<VerificationCache>) {
        self.pipeline.set_cache(cache.clone());
        self.cache = Some(cache);
    }

    /// The shared verification cache, when one was attached.
    pub fn cache(&self) -> Option<&VerificationCache> {
        self.cache.as_deref()
    }

    /// Gate admission on `pool` headroom: an arrival whose estimated page
    /// need exceeds [`PagedKvPool::pages_available`] is shed with the typed
    /// [`ShedReason::PoolSaturated`] instead of aborting mid-prefill on
    /// `PoolExhausted`. The prompt estimate is the question's whitespace
    /// token count plus `overhead_tokens` (verification template and
    /// decode headroom), rounded up to whole pages of
    /// `pool.config().block_tokens`.
    #[must_use]
    pub fn with_pool_admission(mut self, pool: Arc<PagedKvPool>, overhead_tokens: usize) -> Self {
        self.pool = Some(pool);
        self.pool_overhead_tokens = overhead_tokens;
        self
    }

    /// Pages the arrival's prompt would need from the attached pool, or
    /// `None` when no pool is attached (check disabled).
    fn pool_page_need(&self, question: &str) -> Option<usize> {
        let pool = self.pool.as_ref()?;
        let tokens = question.split_whitespace().count() + self.pool_overhead_tokens;
        let block = pool.config().block_tokens.max(1);
        Some(tokens.div_ceil(block))
    }

    /// The wrapped pipeline (e.g. for health inspection).
    pub fn pipeline(&self) -> &ResilientVerifiedPipeline<I> {
        &self.pipeline
    }

    /// This runtime's cluster position, if any.
    pub fn identity(&self) -> Option<ShardIdentity> {
        self.identity
    }

    /// Set the service-time multiplier (chaos: `> 1.0` models a slow node
    /// that verifies correctly but charges more virtual time). Verdicts are
    /// unaffected; only the charged interval stretches.
    pub fn set_service_factor(&mut self, factor: f64) {
        self.service_factor = if factor.is_finite() && factor > 0.0 {
            factor
        } else {
            1.0
        };
    }

    /// Admitted requests currently waiting (excludes any in-flight one).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Current virtual time.
    pub fn now_ms(&self) -> f64 {
        self.clock.now_ms()
    }

    /// Whether [`begin_drain`](Self::begin_drain) has been called.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Schedule a question to arrive at virtual time `at_ms` with the
    /// configured default deadline. Returns the request's ticket.
    pub fn submit_at(&mut self, at_ms: f64, question: &str, priority: Priority) -> u64 {
        self.submit_at_with_deadline(at_ms, question, priority, self.config.default_deadline_ms)
    }

    /// [`submit_at`](Self::submit_at) with an explicit relative deadline:
    /// the request expires `deadline_ms` after its arrival.
    pub fn submit_at_with_deadline(
        &mut self,
        at_ms: f64,
        question: &str,
        priority: Priority,
        deadline_ms: f64,
    ) -> u64 {
        self.submit_traced(at_ms, question, priority, deadline_ms, None)
    }

    /// [`submit_at_with_deadline`](Self::submit_at_with_deadline) carrying
    /// a cluster [`TraceContext`]: the request's queue wait and scoring
    /// interval are recorded as spans attached under `trace.span_id`, so
    /// the cluster stitcher can assemble a cross-member causal tree.
    pub fn submit_traced(
        &mut self,
        at_ms: f64,
        question: &str,
        priority: Priority,
        deadline_ms: f64,
        trace: Option<TraceContext>,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.metrics.submitted.inc();
        self.arrivals.push(PendingArrival {
            id,
            question: question.to_string(),
            priority,
            // arrivals cannot predate the clock
            at_ms: at_ms.max(self.clock.now_ms()),
            deadline_ms: deadline_ms.max(0.0),
            refused_by_drain: self.draining,
            trace,
        });
        id
    }

    /// Stop accepting new work: everything submitted so far (queued or
    /// still scheduled to arrive) is served to completion, while later
    /// submissions are refused with [`ShedReason::Draining`] — a typed
    /// outcome, not a silent drop.
    pub fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// Run the discrete-event loop until every submission has an outcome
    /// and the queue is empty, then return how many outcomes are waiting
    /// in [`drain_outcomes`](Self::drain_outcomes).
    ///
    /// Events are processed in virtual-time order (ties broken by
    /// submission order), so interleavings — and therefore every shed and
    /// every deadline miss — are deterministic.
    pub fn run_until_idle(&mut self) -> usize {
        loop {
            let now = self.clock.now_ms();
            self.deliver_due(now);
            if let Some(finish) = self.in_flight.as_ref().map(|i| i.outcome.finished_at_ms) {
                self.clock.advance_to_ms(finish);
                // requests landing while the server was busy queue behind it
                // (and their admission sheds are decided) before its outcome
                // is published, matching arrival order
                self.deliver_due(finish);
                self.finish_in_flight();
                continue;
            }
            if self.dispatch_next() {
                continue;
            }
            // idle and empty-queued: jump to the next scheduled arrival
            match self.arrivals.iter().map(|a| a.at_ms).min_by(f64::total_cmp) {
                Some(at) => self.clock.advance_to_ms(at),
                None => break,
            }
        }
        self.outcomes.len()
    }

    /// Admit (or shed at admission) every pending arrival due at the
    /// current virtual time. Cluster driver: the event loop calls this
    /// after advancing the shared clock.
    pub fn deliver_now(&mut self) {
        self.deliver_due(self.clock.now_ms());
    }

    /// Advance this member's state to the current virtual time without
    /// touching the clock: publish an in-flight outcome whose service
    /// interval has closed, then keep dispatching queued work (deadline
    /// sheds cost nothing; a started service makes the member busy until
    /// its finish time). Cluster driver.
    pub fn pump(&mut self) {
        let now = self.clock.now_ms();
        self.deliver_due(now);
        loop {
            if let Some(inf) = &self.in_flight {
                if inf.outcome.finished_at_ms <= now {
                    self.finish_in_flight();
                    continue;
                }
                break;
            }
            if !self.dispatch_next() {
                break;
            }
        }
    }

    /// The next virtual time at which this member has work to do: the
    /// in-flight finish, the earliest scheduled arrival, or "now" if the
    /// server is idle with a non-empty queue. `None` means fully idle.
    pub fn next_wake_ms(&self) -> Option<f64> {
        let mut wake: Option<f64> = self.in_flight.as_ref().map(|i| i.outcome.finished_at_ms);
        if let Some(at) = self.arrivals.iter().map(|a| a.at_ms).min_by(f64::total_cmp) {
            wake = Some(wake.map_or(at, |w| w.min(at)));
        }
        if self.in_flight.is_none() && !self.queue.is_empty() {
            let now = self.clock.now_ms();
            wake = Some(wake.map_or(now, |w| w.min(now)));
        }
        wake
    }

    /// Kill this node: every request it holds — in flight, queued, or not
    /// yet delivered — is returned *without* an outcome, in-flight first,
    /// then queue order, then arrival order. The caller (a cluster) owns
    /// typing their outcomes; a standalone runtime should let
    /// [`run_until_idle`](Self::run_until_idle) finish instead.
    pub fn abort_pending(&mut self) -> Vec<AbortedRequest> {
        let mut aborted = Vec::new();
        if let Some(inf) = self.in_flight.take() {
            let o = inf.outcome;
            aborted.push(AbortedRequest {
                id: o.id,
                question: o.question,
                priority: o.priority,
                submitted_at_ms: o.submitted_at_ms,
                was_in_flight: true,
            });
        }
        let now = self.clock.now_ms();
        for r in std::mem::take(&mut self.queue) {
            // The wait ends here: a crashed node's queued requests still
            // get their queue time attributed in the stitched trace.
            if let Some(ctx) = r.trace {
                self.record_trace_span(ctx, "queue", 0, r.submitted_at_ms, now, Vec::new());
            }
            aborted.push(AbortedRequest {
                id: r.id,
                question: r.question,
                priority: r.priority,
                submitted_at_ms: r.submitted_at_ms,
                was_in_flight: false,
            });
        }
        let mut pending = std::mem::take(&mut self.arrivals);
        pending.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms));
        for a in pending {
            if let Some(ctx) = a.trace {
                self.record_trace_span(ctx, "queue", 0, a.at_ms, now.max(a.at_ms), Vec::new());
            }
            aborted.push(AbortedRequest {
                id: a.id,
                question: a.question,
                priority: a.priority,
                submitted_at_ms: a.at_ms,
                was_in_flight: false,
            });
        }
        if self.obs.enabled() {
            self.metrics.queue_depth.set(0.0);
        }
        aborted
    }

    /// Admit every arrival scheduled at or before `t`, earliest first
    /// (ties keep submission order).
    fn deliver_due(&mut self, t: f64) {
        if self.arrivals.is_empty() {
            return;
        }
        // Stable sort: simultaneous arrivals keep submission order.
        self.arrivals.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms));
        while self.arrivals.first().is_some_and(|a| a.at_ms <= t) {
            let a = self.arrivals.remove(0);
            self.admit(a);
        }
    }

    /// Publish the in-flight request's prebuilt outcome.
    fn finish_in_flight(&mut self) {
        if let Some(inf) = self.in_flight.take() {
            self.push_outcome(inf.outcome);
        }
    }

    /// Dispatch the highest-priority queued request at the current virtual
    /// time: a deadline-expired one is shed on the spot (no service time);
    /// otherwise verification runs and the node becomes busy until
    /// `now + service_ms × service_factor`. The complete outcome —
    /// disposition, finish time, queue statistics — is decided here; only
    /// its publication waits for the clock. Returns whether any request
    /// was taken.
    fn dispatch_next(&mut self) -> bool {
        if self.in_flight.is_some() {
            return false;
        }
        let now = self.clock.now_ms();
        let Some(req) = self.take_next() else {
            return false;
        };
        let depth = self.queue.len();
        if req.deadline_at_ms <= now {
            // expired while queued; deciding that costs no service time
            if self.obs.enabled() {
                self.obs.begin_flight(&self.flight_name(req.id));
                self.obs.flight(
                    "shed",
                    &[
                        ("reason", "deadline_expired".to_string()),
                        ("priority", priority_label(req.priority).to_string()),
                        ("queue_depth", depth.to_string()),
                        ("waited_ms", format!("{:.3}", now - req.submitted_at_ms)),
                    ],
                );
                self.obs.end_flight("shed:deadline_expired");
            }
            if let Some(ctx) = req.trace {
                self.record_trace_span(ctx, "queue", 0, req.submitted_at_ms, now, Vec::new());
            }
            self.push_outcome(RequestOutcome {
                id: req.id,
                question: req.question,
                priority: req.priority,
                submitted_at_ms: req.submitted_at_ms,
                finished_at_ms: now,
                queue_wait_ms: now - req.submitted_at_ms,
                queue_depth_at_decision: depth,
                served_by: self.identity,
                disposition: Disposition::Shed(ShedReason::DeadlineExpired),
            });
            return true;
        }
        let budget_ms = req.deadline_at_ms - now;
        if self.obs.enabled() {
            self.obs.begin_flight(&self.flight_name(req.id));
            self.obs.flight(
                "service_start",
                &[
                    ("priority", priority_label(req.priority).to_string()),
                    ("queue_depth", depth.to_string()),
                    ("queue_wait_ms", format!("{:.3}", now - req.submitted_at_ms)),
                    ("deadline_slack_ms", format!("{budget_ms:.3}")),
                ],
            );
            if budget_ms.is_finite() {
                self.metrics.deadline_slack_ms.observe(budget_ms);
            }
            // Telemetry only: queued duplicates of the question being
            // dispatched will score their sentences against warm cache
            // entries (when a cache is attached). The queue itself is
            // untouched — dispatch order, sheds, and verdicts are the
            // same with or without a cache, which is what the parity
            // suite pins down.
            let coalesced = self
                .queue
                .iter()
                .filter(|r| r.question == req.question)
                .count();
            if coalesced > 0 {
                self.metrics.coalesced.add(coalesced as u64);
                self.obs
                    .flight("coalesce", &[("queued_duplicates", coalesced.to_string())]);
            }
        }
        // Tracing: seal the queue span, then make the scoring context
        // ambient so detector spans opened inside `ask_deadline` (score,
        // probe, replay, hedge) nest under this request's trace.
        if let Some(ctx) = req.trace {
            self.record_trace_span(ctx, "queue", 0, req.submitted_at_ms, now, Vec::new());
        }
        let cache_before = match req.trace {
            Some(_) => self.cache.as_ref().map(|c| c.stats()),
            None => None,
        };
        let scoring_ctx = req.trace.map(|ctx| ctx.child("scoring", 0));
        let prev_ambient = scoring_ctx.map(|c| self.obs.set_trace(c));
        let (disposition, service_ms) = match self.pipeline.ask_deadline(&req.question, budget_ms) {
            Ok(answer) => {
                let cost = answer.telemetry().simulated_ms;
                (Disposition::Completed(Box::new(answer)), cost)
            }
            Err(e) => (Disposition::Failed(e.to_string()), 0.0),
        };
        let charged_ms = service_ms * self.service_factor;
        if let Some(scope) = scoring_ctx {
            self.obs.restore_trace(prev_ambient.flatten());
            if let Some(ctx) = req.trace {
                let mut events = vec![EventRecord {
                    name: "flight".to_string(),
                    at_ms: now,
                    fields: vec![("request".to_string(), self.flight_name(req.id))],
                }];
                if let (Some(before), Some(cache)) = (cache_before, self.cache.as_ref()) {
                    let after = cache.stats();
                    let replicated = after.replicated_hits - before.replicated_hits;
                    if replicated > 0 {
                        // A replication-warmed lookup: this member served
                        // scores it never computed. Zero-width by design —
                        // cache reads cost no virtual time.
                        self.record_trace_span(
                            scope,
                            "replication",
                            0,
                            now,
                            now,
                            vec![EventRecord {
                                name: "replicated_hits".to_string(),
                                at_ms: now,
                                fields: vec![("count".to_string(), replicated.to_string())],
                            }],
                        );
                    }
                    let hits = after.hits - before.hits;
                    if hits > 0 {
                        events.push(EventRecord {
                            name: "cache".to_string(),
                            at_ms: now,
                            fields: vec![("hits".to_string(), hits.to_string())],
                        });
                    }
                }
                self.record_trace_span(ctx, "scoring", 0, now, now + charged_ms, events);
            }
        }
        // Seal this request's flight record at dispatch: the disposition is
        // already decided, and leaving it open would let another node's (or
        // an admission shed's) record interrupt it.
        if self.obs.enabled() {
            self.metrics.service_ms.observe(charged_ms);
            self.obs.end_flight(disposition_label(&disposition));
        }
        self.in_flight = Some(InFlight {
            outcome: RequestOutcome {
                id: req.id,
                question: req.question,
                priority: req.priority,
                submitted_at_ms: req.submitted_at_ms,
                finished_at_ms: now + charged_ms,
                queue_wait_ms: now - req.submitted_at_ms,
                queue_depth_at_decision: depth,
                served_by: self.identity,
                disposition,
            },
        });
        true
    }

    /// Flight-record name for ticket `id`, qualified by cluster identity
    /// when present so records from different members never collide.
    fn flight_name(&self, id: u64) -> String {
        match self.identity {
            Some(ident) => format!("req-{ident}-{id}"),
            None => format!("req-{id}"),
        }
    }

    /// Record a synthesized trace span with an explicit interval and a
    /// `(trace, parent, name, ordinal)`-derived id, attached under `ctx`'s
    /// span. No-op without a sink; never touches queue dynamics.
    fn record_trace_span(
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

    /// Take ownership of every decided outcome, in decision order. Each
    /// outcome is delivered exactly once.
    pub fn drain_outcomes(&mut self) -> Vec<RequestOutcome> {
        std::mem::take(&mut self.outcomes)
    }

    /// Apply admission control to one arrival.
    fn admit(&mut self, a: PendingArrival) {
        if a.refused_by_drain {
            self.shed_arrival(a, ShedReason::Draining);
            return;
        }
        if let Some(need) = self.pool_page_need(&a.question) {
            let available = self
                .pool
                .as_ref()
                .map(|p| p.pages_available())
                .unwrap_or(usize::MAX);
            if need > available {
                self.shed_arrival(a, ShedReason::PoolSaturated);
                return;
            }
        }
        if let Some(bound) = self.config.queue_bound {
            if self.queue.len() >= bound {
                match self.config.shed_policy {
                    ShedPolicy::RejectNewest | ShedPolicy::LifoUnderOverload => {
                        self.shed_arrival(a, ShedReason::QueueFull);
                        return;
                    }
                    ShedPolicy::ShedLowestPriority => {
                        let victim_idx = self.lowest_priority_victim();
                        match victim_idx {
                            Some(idx) if self.queue[idx].priority < a.priority => {
                                // depth of the full queue that forced the
                                // displacement, victim still included
                                let depth = self.queue.len();
                                let victim = self.queue.remove(idx);
                                if self.obs.enabled() {
                                    self.obs.begin_flight(&self.flight_name(victim.id));
                                    self.obs.flight(
                                        "shed",
                                        &[
                                            ("reason", "displaced".to_string()),
                                            (
                                                "priority",
                                                priority_label(victim.priority).to_string(),
                                            ),
                                            ("queue_depth", depth.to_string()),
                                            ("displaced_by", format!("req-{}", a.id)),
                                        ],
                                    );
                                    self.obs.end_flight("shed:displaced");
                                }
                                if let Some(ctx) = victim.trace {
                                    self.record_trace_span(
                                        ctx,
                                        "queue",
                                        0,
                                        victim.submitted_at_ms,
                                        a.at_ms,
                                        Vec::new(),
                                    );
                                }
                                self.push_outcome(RequestOutcome {
                                    id: victim.id,
                                    question: victim.question,
                                    priority: victim.priority,
                                    submitted_at_ms: victim.submitted_at_ms,
                                    finished_at_ms: a.at_ms,
                                    queue_wait_ms: a.at_ms - victim.submitted_at_ms,
                                    queue_depth_at_decision: depth,
                                    served_by: self.identity,
                                    disposition: Disposition::Shed(ShedReason::Displaced),
                                });
                            }
                            _ => {
                                self.shed_arrival(a, ShedReason::QueueFull);
                                return;
                            }
                        }
                    }
                }
            }
        }
        self.queue.push(QueuedRequest {
            id: a.id,
            question: a.question,
            priority: a.priority,
            submitted_at_ms: a.at_ms,
            deadline_at_ms: a.at_ms + a.deadline_ms,
            trace: a.trace,
        });
        self.metrics.queue_depth.set(self.queue.len() as f64);
    }

    /// The queued request to evict for a higher-priority arrival: lowest
    /// priority, ties broken by *latest* arrival (preserve the oldest work,
    /// which has waited longest).
    fn lowest_priority_victim(&self) -> Option<usize> {
        (0..self.queue.len()).min_by(|&i, &j| {
            let (a, b) = (&self.queue[i], &self.queue[j]);
            a.priority.cmp(&b.priority).then(b.id.cmp(&a.id))
        })
    }

    /// Pick the next request to serve: highest priority class first; within
    /// the class, FIFO — or LIFO when [`ShedPolicy::LifoUnderOverload`] is
    /// active and the queue has reached half its bound.
    fn take_next(&mut self) -> Option<QueuedRequest> {
        if self.queue.is_empty() {
            return None;
        }
        let lifo = self.config.shed_policy == ShedPolicy::LifoUnderOverload
            && self
                .config
                .queue_bound
                .is_some_and(|b| self.queue.len() * 2 >= b);
        let idx = (0..self.queue.len()).max_by(|&i, &j| {
            let (a, b) = (&self.queue[i], &self.queue[j]);
            let order = a.priority.cmp(&b.priority);
            if lifo {
                order.then(a.id.cmp(&b.id))
            } else {
                order.then(b.id.cmp(&a.id))
            }
        })?;
        Some(self.queue.remove(idx))
    }

    /// Record an admission-time shed for `a`.
    fn shed_arrival(&mut self, a: PendingArrival, reason: ShedReason) {
        let depth = self.queue.len();
        if self.obs.enabled() {
            let label = shed_reason_label(reason);
            self.obs.begin_flight(&self.flight_name(a.id));
            self.obs.flight(
                "shed",
                &[
                    ("reason", label.to_string()),
                    ("priority", priority_label(a.priority).to_string()),
                    ("queue_depth", depth.to_string()),
                ],
            );
            self.obs.end_flight(&format!("shed:{label}"));
        }
        if let Some(ctx) = a.trace {
            // Zero-width queue span: refused at the door, waited nothing.
            self.record_trace_span(ctx, "queue", 0, a.at_ms, a.at_ms, Vec::new());
        }
        self.push_outcome(RequestOutcome {
            id: a.id,
            question: a.question,
            priority: a.priority,
            submitted_at_ms: a.at_ms,
            finished_at_ms: a.at_ms,
            queue_wait_ms: 0.0,
            queue_depth_at_decision: depth,
            served_by: self.identity,
            disposition: Disposition::Shed(reason),
        });
    }

    /// Append a decided outcome, mirroring it into the registry when a
    /// sink is attached: one `hallu_serving_outcomes_total{outcome}`
    /// increment, a `hallu_serving_shed_total{reason, priority}` increment
    /// for sheds, the queue-wait observation, and the current queue depth.
    fn push_outcome(&mut self, outcome: RequestOutcome) {
        if self.obs.enabled() {
            self.obs
                .counter(
                    "hallu_serving_outcomes_total",
                    "Request dispositions decided by the serving loop",
                    &[("outcome", disposition_label(&outcome.disposition))],
                )
                .inc();
            if let Disposition::Shed(reason) = &outcome.disposition {
                self.obs
                    .counter(
                        "hallu_serving_shed_total",
                        "Requests shed by admission control or deadline enforcement",
                        &[
                            ("reason", shed_reason_label(*reason)),
                            ("priority", priority_label(outcome.priority)),
                        ],
                    )
                    .inc();
            }
            self.metrics.queue_wait_ms.observe(outcome.queue_wait_ms);
            self.metrics.queue_depth.set(self.queue.len() as f64);
        }
        self.outcomes.push(outcome);
    }
}

/// Accessor used by serving consumers that only need the degradation story.
pub fn outcome_telemetry(outcome: &RequestOutcome) -> Option<&ResilienceTelemetry> {
    match &outcome.disposition {
        Disposition::Completed(a) => Some(a.telemetry()),
        Disposition::Shed(_) | Disposition::Failed(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{self, guarded, QUESTIONS};
    use crate::verified::FailurePolicy;
    use slm_runtime::FaultProfile;
    use vectordb::flat::FlatIndex;

    fn healthy() -> ResilientVerifiedPipeline<FlatIndex> {
        guarded(
            [FaultProfile::none(1), FaultProfile::none(2)],
            FailurePolicy::Abstain,
        )
    }

    #[test]
    fn zero_pressure_is_bitwise_identical_to_direct_calls() {
        let mut direct = healthy();
        let mut rt = ServingRuntime::new(healthy(), ServingConfig::default());
        for (i, q) in QUESTIONS.iter().enumerate() {
            rt.submit_at(i as f64, q, Priority::Normal);
        }
        rt.run_until_idle();
        let outcomes = rt.drain_outcomes();
        assert_eq!(outcomes.len(), QUESTIONS.len());
        for (o, q) in outcomes.iter().zip(QUESTIONS) {
            let expected = direct.ask(q).unwrap();
            assert_eq!(
                o.disposition,
                Disposition::Completed(Box::new(expected)),
                "{q}"
            );
            assert_eq!(o.question, q);
        }
    }

    #[test]
    fn every_request_gets_exactly_one_outcome_under_overload() {
        let run = || {
            let mut rt = ServingRuntime::new(
                guarded(
                    [FaultProfile::uniform(7, 0.2), FaultProfile::uniform(8, 0.2)],
                    FailurePolicy::Abstain,
                ),
                ServingConfig {
                    queue_bound: Some(2),
                    shed_policy: ShedPolicy::RejectNewest,
                    default_deadline_ms: 150.0,
                },
            );
            let mut tickets = Vec::new();
            for i in 0..30u32 {
                let (question, priority) = testkit::request(i);
                tickets.push(rt.submit_at(5.0 * f64::from(i), question, priority));
            }
            rt.run_until_idle();
            (tickets, rt.drain_outcomes())
        };
        let (tickets, outcomes) = run();
        assert_eq!(outcomes.len(), tickets.len());
        let mut seen: Vec<u64> = outcomes.iter().map(|o| o.id).collect();
        seen.sort_unstable();
        let mut expected = tickets.clone();
        expected.sort_unstable();
        assert_eq!(seen, expected, "exactly one outcome per ticket");
        let stats = ServingStats::from_outcomes(&outcomes);
        assert_eq!(stats.total, 30);
        assert!(stats.shed > 0, "this load must shed: {stats:?}");
        assert!(
            stats.served + stats.blocked + stats.unverified + stats.abstained > 0,
            "some requests must complete: {stats:?}"
        );
        assert_eq!(run().1, outcomes, "overload runs are deterministic");
    }

    #[test]
    fn reject_newest_sheds_arrivals_at_a_full_queue() {
        let mut rt = ServingRuntime::new(
            healthy(),
            ServingConfig {
                queue_bound: Some(1),
                shed_policy: ShedPolicy::RejectNewest,
                default_deadline_ms: f64::INFINITY,
            },
        );
        let first = rt.submit_at(0.0, QUESTIONS[0], Priority::Normal);
        let second = rt.submit_at(0.0, QUESTIONS[1], Priority::Normal);
        rt.run_until_idle();
        let outcomes = rt.drain_outcomes();
        let by_id = |id: u64| outcomes.iter().find(|o| o.id == id).unwrap();
        assert!(matches!(
            by_id(first).disposition,
            Disposition::Completed(_)
        ));
        assert_eq!(
            by_id(second).disposition,
            Disposition::Shed(ShedReason::QueueFull)
        );
        assert_eq!(by_id(second).finished_at_ms, 0.0, "decided on arrival");
        assert_eq!(
            by_id(second).queue_depth_at_decision,
            1,
            "the shed outcome names the full queue that refused it"
        );
    }

    #[test]
    fn pool_admission_sheds_typed_outcome_when_pool_cannot_fit_prompt() {
        use slm_runtime::PagedPoolConfig;
        let pool = Arc::new(PagedKvPool::new(PagedPoolConfig {
            n_layers: 1,
            kv_dim: 4,
            block_tokens: 4,
            max_pages: 2,
        }));
        // 64 overhead tokens over 4-token pages need 16+ pages; 2 exist.
        let mut rt =
            ServingRuntime::new(healthy(), ServingConfig::default()).with_pool_admission(pool, 64);
        let id = rt.submit_at(0.0, QUESTIONS[0], Priority::Normal);
        rt.run_until_idle();
        let outcomes = rt.drain_outcomes();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].id, id);
        assert_eq!(
            outcomes[0].disposition,
            Disposition::Shed(ShedReason::PoolSaturated),
            "saturated pool must shed, not panic mid-prefill"
        );
        assert_eq!(outcomes[0].finished_at_ms, 0.0, "decided on arrival");
        assert_eq!(
            shed_reason_label(ShedReason::PoolSaturated),
            "pool_saturated"
        );
    }

    #[test]
    fn pool_admission_admits_when_headroom_suffices_and_tracks_live_pages() {
        use slm_runtime::PagedPoolConfig;
        let pool = Arc::new(PagedKvPool::new(PagedPoolConfig {
            n_layers: 1,
            kv_dim: 4,
            block_tokens: 4,
            max_pages: 8,
        }));
        let mut rt = ServingRuntime::new(healthy(), ServingConfig::default())
            .with_pool_admission(pool.clone(), 8);
        let ok = rt.submit_at(0.0, QUESTIONS[0], Priority::Normal);
        rt.run_until_idle();
        let outcomes = rt.drain_outcomes();
        assert!(
            matches!(
                outcomes.iter().find(|o| o.id == ok).unwrap().disposition,
                Disposition::Completed(_)
            ),
            "a prompt within headroom is served normally"
        );

        // Occupy most of the pool: headroom drops below the same prompt's
        // page need, so what was admitted above now sheds.
        let mut cache = pool.new_cache(64);
        cache.try_reserve(6 * 4).unwrap();
        assert!(pool.pages_available() < 3);
        let shed = rt.submit_at(1.0, QUESTIONS[0], Priority::Normal);
        rt.run_until_idle();
        let outcomes = rt.drain_outcomes();
        assert_eq!(
            outcomes.iter().find(|o| o.id == shed).unwrap().disposition,
            Disposition::Shed(ShedReason::PoolSaturated)
        );
    }

    #[test]
    fn shed_lowest_priority_displaces_for_a_higher_priority_arrival() {
        let mut rt = ServingRuntime::new(
            healthy(),
            ServingConfig {
                queue_bound: Some(1),
                shed_policy: ShedPolicy::ShedLowestPriority,
                default_deadline_ms: f64::INFINITY,
            },
        );
        let low = rt.submit_at(0.0, QUESTIONS[0], Priority::Low);
        let high = rt.submit_at(0.0, QUESTIONS[1], Priority::High);
        let late_low = rt.submit_at(0.0, QUESTIONS[2], Priority::Low);
        rt.run_until_idle();
        let outcomes = rt.drain_outcomes();
        let by_id = |id: u64| outcomes.iter().find(|o| o.id == id).unwrap();
        assert_eq!(
            by_id(low).disposition,
            Disposition::Shed(ShedReason::Displaced),
            "low-priority work yields its slot"
        );
        assert_eq!(
            by_id(low).queue_depth_at_decision,
            1,
            "the victim's outcome records the queue it was evicted from"
        );
        assert!(matches!(by_id(high).disposition, Disposition::Completed(_)));
        assert_eq!(
            by_id(late_low).disposition,
            Disposition::Shed(ShedReason::QueueFull),
            "a low arrival cannot displace queued high-priority work"
        );
    }

    #[test]
    fn lifo_under_overload_serves_newest_first() {
        let mut rt = ServingRuntime::new(
            healthy(),
            ServingConfig {
                queue_bound: Some(2),
                shed_policy: ShedPolicy::LifoUnderOverload,
                default_deadline_ms: f64::INFINITY,
            },
        );
        let older = rt.submit_at(0.0, QUESTIONS[0], Priority::Normal);
        let newer = rt.submit_at(0.0, QUESTIONS[1], Priority::Normal);
        rt.run_until_idle();
        let outcomes = rt.drain_outcomes();
        assert_eq!(
            outcomes.iter().map(|o| o.id).collect::<Vec<_>>(),
            vec![newer, older],
            "half-full queue flips to newest-first"
        );
    }

    #[test]
    fn deadline_expired_in_queue_is_shed_without_service() {
        let mut rt = ServingRuntime::new(
            healthy(),
            ServingConfig {
                queue_bound: None,
                shed_policy: ShedPolicy::RejectNewest,
                default_deadline_ms: 10.0,
            },
        );
        let first = rt.submit_at(0.0, QUESTIONS[0], Priority::Normal);
        let starved = rt.submit_at(0.0, QUESTIONS[1], Priority::Normal);
        rt.run_until_idle();
        let outcomes = rt.drain_outcomes();
        let by_id = |id: u64| outcomes.iter().find(|o| o.id == id).unwrap();
        assert!(matches!(
            by_id(first).disposition,
            Disposition::Completed(_)
        ));
        let starved = by_id(starved);
        assert_eq!(
            starved.disposition,
            Disposition::Shed(ShedReason::DeadlineExpired),
            "serving the first request must outlast the second's 10ms budget"
        );
        assert!(starved.queue_wait_ms > 10.0);
    }

    #[test]
    fn near_expired_request_degrades_instead_of_overshooting() {
        let mut rt = ServingRuntime::new(healthy(), ServingConfig::default());
        let id = rt.submit_at_with_deadline(0.0, QUESTIONS[0], Priority::Normal, 1.0);
        rt.run_until_idle();
        let outcomes = rt.drain_outcomes();
        assert_eq!(outcomes[0].id, id);
        let telemetry =
            outcome_telemetry(&outcomes[0]).expect("a positive budget reaches the verifier");
        assert!(
            telemetry.deadline_skips > 0,
            "a 1ms budget cannot cover every sentence: {telemetry:?}"
        );
    }

    #[test]
    fn drain_refuses_new_work_and_finishes_submitted_work() {
        let mut rt = ServingRuntime::new(healthy(), ServingConfig::default());
        let before = rt.submit_at(0.0, QUESTIONS[0], Priority::Normal);
        assert!(!rt.is_draining());
        rt.begin_drain();
        assert!(rt.is_draining());
        let after = rt.submit_at(0.0, QUESTIONS[1], Priority::Normal);
        rt.run_until_idle();
        let outcomes = rt.drain_outcomes();
        let by_id = |id: u64| outcomes.iter().find(|o| o.id == id).unwrap();
        assert!(
            matches!(by_id(before).disposition, Disposition::Completed(_)),
            "pre-drain submissions are served to completion"
        );
        assert_eq!(
            by_id(after).disposition,
            Disposition::Shed(ShedReason::Draining)
        );
    }

    #[test]
    fn instrumentation_is_bitwise_neutral_and_flights_are_self_contained() {
        let config = ServingConfig {
            queue_bound: Some(2),
            shed_policy: ShedPolicy::RejectNewest,
            default_deadline_ms: 150.0,
        };
        let profiles = || [FaultProfile::uniform(7, 0.2), FaultProfile::uniform(8, 0.2)];
        let load = |rt: &mut ServingRuntime<FlatIndex>| {
            for i in 0..20u32 {
                let (question, priority) = testkit::request(i);
                rt.submit_at(4.0 * f64::from(i), question, priority);
            }
            rt.run_until_idle();
            rt.drain_outcomes()
        };
        let mut bare = ServingRuntime::new(guarded(profiles(), FailurePolicy::Abstain), config);
        let obs = hallu_obs::Obs::new();
        let mut instrumented =
            ServingRuntime::new(guarded(profiles(), FailurePolicy::Abstain), config).with_obs(&obs);
        let plain_outcomes = load(&mut bare);
        let obs_outcomes = load(&mut instrumented);
        assert_eq!(
            plain_outcomes, obs_outcomes,
            "observability must not perturb serving decisions"
        );

        // Satellite: every shed flight record is self-contained — it names
        // its reason, the request's priority class, and the queue depth at
        // decision time, without replaying the queue.
        let records = obs.flight_records();
        let sheds: Vec<_> = records
            .iter()
            .filter(|r| r.outcome.starts_with("shed:"))
            .collect();
        assert!(!sheds.is_empty(), "this load must shed");
        for r in &sheds {
            assert!(r.field("shed", "reason").is_some(), "{r:?}");
            assert!(r.field("shed", "priority").is_some(), "{r:?}");
            assert!(r.field("shed", "queue_depth").is_some(), "{r:?}");
        }

        // The registry tally agrees with the outcome structs.
        let snap = obs.metrics_snapshot();
        let stats = ServingStats::from_outcomes(&obs_outcomes);
        assert_eq!(
            snap.total("hallu_serving_outcomes_total") as usize,
            stats.total
        );
        assert_eq!(snap.total("hallu_serving_shed_total") as usize, stats.shed);
        assert_eq!(
            snap.total("hallu_serving_submitted_total") as usize,
            stats.total
        );
        assert_eq!(
            snap.value("hallu_serving_queue_depth", &[]),
            Some(0.0),
            "an idle runtime reports an empty queue"
        );
    }

    #[test]
    fn cached_runtime_matches_uncached_bitwise_and_reports_coalescing() {
        use slm_runtime::{CacheConfig, VerificationCache};
        let config = ServingConfig {
            queue_bound: Some(4),
            shed_policy: ShedPolicy::RejectNewest,
            default_deadline_ms: 400.0,
        };
        let profiles = || [FaultProfile::uniform(7, 0.2), FaultProfile::uniform(8, 0.2)];
        // Duplicate-heavy load: the same two questions over and over, close
        // enough together that duplicates queue behind the request being
        // served.
        let load = |rt: &mut ServingRuntime<FlatIndex>| {
            for i in 0..16u32 {
                rt.submit_at(
                    2.0 * f64::from(i),
                    QUESTIONS[i as usize % 2],
                    Priority::Normal,
                );
            }
            rt.run_until_idle();
            rt.drain_outcomes()
        };
        let mut plain = ServingRuntime::new(guarded(profiles(), FailurePolicy::Abstain), config);
        let obs = hallu_obs::Obs::new();
        let cache = Arc::new(VerificationCache::new(CacheConfig::default()));
        let mut cached = ServingRuntime::new(guarded(profiles(), FailurePolicy::Abstain), config)
            .with_cache(cache)
            .with_obs(&obs);
        let plain_outcomes = load(&mut plain);
        let cached_outcomes = load(&mut cached);
        assert_eq!(
            plain_outcomes, cached_outcomes,
            "the cache must not perturb serving decisions"
        );
        let stats = cached.cache().expect("cache attached").stats();
        assert!(
            stats.hits > 0,
            "repeated questions must hit the cache: {stats:?}"
        );
        let snap = obs.metrics_snapshot();
        let coalesced = snap
            .value("hallu_serving_coalesced_total", &[])
            .unwrap_or(0.0);
        assert!(
            coalesced > 0.0,
            "queued duplicates of a dispatched question must be counted"
        );
    }

    #[test]
    fn outcomes_are_delivered_exactly_once() {
        let mut rt = ServingRuntime::new(healthy(), ServingConfig::default());
        rt.submit_at(0.0, QUESTIONS[0], Priority::Normal);
        assert_eq!(rt.run_until_idle(), 1);
        assert_eq!(rt.drain_outcomes().len(), 1);
        assert!(rt.drain_outcomes().is_empty(), "no double delivery");
    }

    #[test]
    fn virtual_time_advances_with_simulated_service() {
        let mut rt = ServingRuntime::new(healthy(), ServingConfig::default());
        rt.submit_at(0.0, QUESTIONS[0], Priority::Normal);
        assert_eq!(rt.now_ms(), 0.0);
        rt.run_until_idle();
        let outcomes = rt.drain_outcomes();
        assert!(rt.now_ms() > 0.0, "service must charge virtual time");
        assert_eq!(rt.now_ms(), outcomes[0].finished_at_ms);
        assert_eq!(
            outcomes[0].latency_ms(),
            outcome_telemetry(&outcomes[0]).unwrap().simulated_ms,
            "an unqueued request's latency is exactly its verification cost"
        );
    }
}
