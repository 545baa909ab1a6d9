//! The observability sink and the cheap-clone [`Obs`] handle.
//!
//! [`Obs`] is what instrumented components hold. It is either *off*
//! (`Obs::off()`, the default everywhere) — in which case every call is a
//! single branch on a `None` and allocates nothing — or connected to its
//! private sink, which owns the metrics registry, span store, flight store,
//! and the bound [`TimeSource`].
//!
//! There is deliberately no process-global sink: tests and benchmarks
//! construct their own, so concurrent tests cannot cross-contaminate and
//! two virtual-clock runs compare bitwise.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use crate::flight::{FlightRecord, FlightStore};
use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
use crate::span::{SpanRecord, SpanStore};
use crate::time::{TimeSource, ZeroTime};
use crate::trace::TraceContext;

/// The sink: one registry + span store + flight store + time source.
/// Stamped by [`ZeroTime`] until a clock is bound.
#[derive(Debug)]
struct ObsSink {
    registry: MetricsRegistry,
    spans: Mutex<SpanStore>,
    flights: Mutex<FlightStore>,
    time: RwLock<Arc<dyn TimeSource>>,
}

impl std::fmt::Debug for dyn TimeSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TimeSource")
    }
}

impl Default for ObsSink {
    fn default() -> Self {
        Self {
            registry: MetricsRegistry::new(),
            spans: Mutex::new(SpanStore::default()),
            flights: Mutex::new(FlightStore::default()),
            time: RwLock::new(Arc::new(ZeroTime)),
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ObsSink {
    fn now_ms(&self) -> f64 {
        match self.time.read() {
            Ok(t) => t.now_ms(),
            Err(poisoned) => poisoned.into_inner().now_ms(),
        }
    }
}

/// Cheap-clone observability handle. `Obs::off()` (also `Obs::default()`)
/// is disconnected: every operation is a branch-and-return.
#[derive(Debug, Clone, Default)]
pub struct Obs(Option<Arc<ObsSink>>);

/// RAII guard returned by [`Obs::span`]; closes the span on drop.
#[derive(Debug)]
pub struct SpanGuard {
    obs: Obs,
    id: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(sink) = &self.obs.0 {
            let now = sink.now_ms();
            lock(&sink.spans).close(self.id, now);
        }
    }
}

impl Obs {
    /// The disabled handle: zero-overhead, records nothing.
    pub fn off() -> Self {
        Self(None)
    }

    /// A handle connected to a fresh sink.
    pub fn new() -> Self {
        Self(Some(Arc::new(ObsSink::default())))
    }

    /// A fresh sink whose spans are stamped with a source identity (e.g.
    /// `s3r1` for shard 3 replica 1, `router`) — the member identity the
    /// trace stitcher reports.
    pub fn new_with_source(source: &str) -> Self {
        let obs = Self::new();
        if let Some(sink) = &obs.0 {
            lock(&sink.spans).source = source.to_string();
        }
        obs
    }

    /// Whether this handle records anything.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Bind the time source used to stamp spans, events, and flight
    /// records. No-op when disabled.
    pub fn bind_time(&self, time: Arc<dyn TimeSource>) {
        if let Some(sink) = &self.0 {
            match sink.time.write() {
                Ok(mut slot) => *slot = time,
                Err(poisoned) => *poisoned.into_inner() = time,
            }
        }
    }

    /// Current time from the bound source (0.0 when disabled).
    pub fn now_ms(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |s| s.now_ms())
    }

    // --- metrics ---

    /// Register (or look up) a counter series. Returns a disconnected
    /// handle when disabled.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        self.0
            .as_ref()
            .map_or_else(Counter::default, |s| s.registry.counter(name, help, labels))
    }

    /// Register (or look up) a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        self.0
            .as_ref()
            .map_or_else(Gauge::default, |s| s.registry.gauge(name, help, labels))
    }

    /// Register (or look up) a histogram series.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        self.0.as_ref().map_or_else(Histogram::default, |s| {
            s.registry.histogram(name, help, labels, bounds)
        })
    }

    /// Prometheus-style exposition page (empty when disabled).
    pub fn render_prometheus(&self) -> String {
        self.0
            .as_ref()
            .map_or_else(String::new, |s| s.registry.render_prometheus())
    }

    /// Deterministic metrics snapshot (empty when disabled).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.0
            .as_ref()
            .map_or_else(MetricsSnapshot::default, |s| s.registry.snapshot())
    }

    // --- spans ---

    /// Open a span; it closes when the guard drops. Spans must only be
    /// opened on sequential code paths (see module docs in [`crate::span`]).
    pub fn span(&self, name: &str) -> SpanGuard {
        let id = match &self.0 {
            Some(sink) => {
                let now = sink.now_ms();
                lock(&sink.spans).open(name, now)
            }
            None => 0,
        };
        SpanGuard {
            obs: self.clone(),
            id,
        }
    }

    /// Record a point-in-time event on the innermost open span.
    pub fn event(&self, name: &str, fields: &[(&str, String)]) {
        if let Some(sink) = &self.0 {
            let now = sink.now_ms();
            lock(&sink.spans).event(name, now, fields);
        }
    }

    /// Set the ambient trace context: stack-rooted spans opened while it
    /// is set join that trace under its span id. Returns the previous
    /// ambient so nested scopes can restore it.
    pub fn set_trace(&self, ctx: TraceContext) -> Option<TraceContext> {
        self.0
            .as_ref()
            .and_then(|s| lock(&s.spans).ambient.replace(ctx))
    }

    /// Clear (or restore) the ambient trace context.
    pub fn restore_trace(&self, prev: Option<TraceContext>) {
        if let Some(sink) = &self.0 {
            lock(&sink.spans).ambient = prev;
        }
    }

    /// Record a pre-built span with explicit ids and timestamps — the
    /// cross-member tracing path, where ids come from a [`TraceContext`]
    /// derivation instead of this sink's allocator. The span's `source`
    /// defaults to the sink's source when empty.
    pub fn record_span(&self, span: SpanRecord) {
        if let Some(sink) = &self.0 {
            lock(&sink.spans).record(span);
        }
    }

    /// All finished spans, oldest first.
    pub fn finished_spans(&self) -> Vec<SpanRecord> {
        self.0
            .as_ref()
            .map_or_else(Vec::new, |s| lock(&s.spans).finished())
    }

    /// Indented rendering of the finished-span forest.
    pub fn span_tree(&self) -> String {
        crate::span::span_tree(&self.finished_spans())
    }

    // --- flight recorder ---

    /// Begin a flight record for `request`.
    pub fn begin_flight(&self, request: &str) {
        if let Some(sink) = &self.0 {
            let now = sink.now_ms();
            lock(&sink.flights).begin(request, now);
        }
    }

    /// Append an event to the in-progress flight record (no-op if none).
    pub fn flight(&self, what: &str, fields: &[(&str, String)]) {
        if let Some(sink) = &self.0 {
            let now = sink.now_ms();
            lock(&sink.flights).push(what, now, fields);
        }
    }

    /// Seal the in-progress flight record with its final outcome.
    pub fn end_flight(&self, outcome: &str) {
        if let Some(sink) = &self.0 {
            let now = sink.now_ms();
            lock(&sink.flights).end(outcome, now);
        }
    }

    /// Completed flight records, oldest first.
    pub fn flight_records(&self) -> Vec<FlightRecord> {
        self.0
            .as_ref()
            .map_or_else(Vec::new, |s| lock(&s.flights).completed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct StepTime(AtomicU64);

    impl TimeSource for StepTime {
        fn now_ms(&self) -> f64 {
            self.0.fetch_add(1, Ordering::Relaxed) as f64
        }
    }

    #[test]
    fn off_handle_records_nothing() {
        let obs = Obs::off();
        assert!(!obs.enabled());
        obs.counter("hallu_c_total", "c", &[]).inc();
        let _span = obs.span("s");
        obs.event("e", &[]);
        obs.begin_flight("r");
        obs.flight("x", &[]);
        obs.end_flight("served");
        assert!(obs.render_prometheus().is_empty());
        assert!(obs.metrics_snapshot().series.is_empty());
        assert!(obs.finished_spans().is_empty());
        assert!(obs.flight_records().is_empty());
        assert_eq!(obs.now_ms(), 0.0);
    }

    #[test]
    fn clones_share_one_sink() {
        let obs = Obs::new();
        let other = obs.clone();
        obs.counter("hallu_shared_total", "s", &[]).add(2);
        other.counter("hallu_shared_total", "s", &[]).inc();
        assert_eq!(obs.metrics_snapshot().total("hallu_shared_total"), 3.0);
    }

    #[test]
    fn spans_use_bound_time_source() {
        let obs = Obs::new();
        obs.bind_time(Arc::new(StepTime(AtomicU64::new(10))));
        {
            let _request = obs.span("request");
            obs.event("mid", &[("k", "v".to_string())]);
        }
        let spans = obs.finished_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].start_ms, 10.0);
        assert_eq!(spans[0].events[0].at_ms, 11.0);
        assert_eq!(spans[0].end_ms, 12.0);
    }

    #[test]
    fn flight_records_flow_through_handle() {
        let obs = Obs::new();
        obs.begin_flight("req-1");
        obs.flight("admission", &[("queue_depth", "0".to_string())]);
        obs.end_flight("served");
        let records = obs.flight_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].outcome, "served");
        assert_eq!(records[0].field("admission", "queue_depth"), Some("0"));
    }

    #[test]
    fn unbound_sink_stamps_zero() {
        let obs = Obs::new();
        let _s = obs.span("s");
        drop(_s);
        assert_eq!(obs.finished_spans()[0].start_ms, 0.0);
    }
}
