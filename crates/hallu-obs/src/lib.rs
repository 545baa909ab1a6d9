//! # hallu-obs — unified observability for the detection + serving stack
//!
//! Three complementary views of one run, all behind a single cheap-clone
//! [`Obs`] handle:
//!
//! - **Metrics** ([`metrics`]): a lock-cheap registry of counters, gauges,
//!   and fixed-bucket histograms with label sets, rendered as a
//!   Prometheus-style text page or a deterministic JSON snapshot. Answers
//!   "how often / how much, in aggregate".
//! - **Spans** ([`span`]): structured begin/end regions with nested
//!   parentage and point-in-time events, timestamped by a host-bound
//!   [`TimeSource`] so virtual-clock runs stay deterministic. Answers
//!   "where did the time go on this path".
//! - **Flight recorder** ([`flight`]): a bounded per-request ring of typed
//!   events capturing the full decision trail — per-sentence per-model
//!   scores, z-score inputs, retries, breaker trips, hedges, admission and
//!   shed decisions — sealed with the final outcome and dumpable as JSON.
//!   Answers "why did *this* request abstain and what did it cost".
//!
//! Three cluster-scale planes build on those primitives:
//!
//! - **Tracing** ([`trace`]): deterministic [`TraceContext`]s propagated
//!   across member boundaries, a stitcher assembling per-member span
//!   fragments into one causal tree per request, and a critical-path
//!   extractor decomposing request latency into named segments.
//! - **Federation** ([`federate`]): merge per-member metric snapshots
//!   into one fleet-level Prometheus page / JSON snapshot.
//! - **SLOs** ([`slo`]): availability/latency objectives with
//!   multi-window burn-rate alerting on the virtual clock, emitting
//!   golden-testable alert timelines.
//!
//! ## Contract
//!
//! 1. **Zero overhead off**: `Obs::off()` makes every call a branch on a
//!    `None`; nothing allocates, nothing locks.
//! 2. **Bitwise neutral**: instrumentation never influences scores or
//!    verdicts; instrumented and uninstrumented runs are bit-identical.
//! 3. **Deterministic**: under a virtual clock, two identical runs produce
//!    identical exposition pages, snapshots, span trees, and flight
//!    records. Hot-path metric updates commute (integer atomics,
//!    fixed-point histogram sums); spans and flight events are only
//!    recorded on sequential code paths.
//!
//! There is no process-global sink — hosts thread an [`Obs`] handle through
//! `with_obs` builders, which is what keeps concurrent tests isolated.

pub mod federate;
pub mod flight;
pub mod metrics;
pub mod sink;
pub mod slo;
pub mod span;
pub mod time;
pub mod trace;

pub use federate::FederatedRegistry;
pub use flight::{Field, FlightEvent, FlightRecord, MAX_FLIGHT_EVENTS, MAX_FLIGHT_RECORDS};
pub use metrics::{
    BucketCount, Counter, DecayedWindow, Gauge, Histogram, Label, MetricKind, MetricsRegistry,
    MetricsSnapshot, SeriesSnapshot, DEFAULT_LATENCY_BUCKETS_MS, SCORE_BUCKETS,
};
pub use sink::{Obs, SpanGuard};
pub use slo::{AlertEvent, AlertKind, AlertSeverity, BurnWindow, SloConfig, SloEngine, SloKind};
pub use span::{span_tree, EventRecord, SpanRecord, MAX_SPANS};
pub use time::{TimeSource, ZeroTime};
pub use trace::{
    critical_path, render_trace_tree, splitmix64, stitch, CriticalPath, Segment, SegmentKind,
    SpanNode, TraceContext, TraceTree,
};
