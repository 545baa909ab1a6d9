//! Registry-backed views of the resilient detector's telemetry.
//!
//! [`ResilienceTelemetry`] is the per-call counter struct. That struct
//! stays — it is the compatibility
//! facade every existing caller and test relies on — but the counts now
//! *also* flow into a `hallu-obs` registry when the detector is built with
//! an [`Obs`] handle, so aggregate questions ("how many breaker trips
//! across the whole run?") are answered by one snapshot instead of by
//! summing structs by hand. [`ResilienceTotals`] is that derived view.
//!
//! Metric families written here (see DESIGN.md §9 for the scheme):
//!
//! - `hallu_detector_events_total{event}` — attempts, retries, timeouts,
//!   quarantined, breaker_trips, breaker_skips, sentences_dropped,
//!   deadline_skips; each increment equals the facade's per-call delta.
//! - `hallu_detector_verdicts_total{degradation}` — one per scoring call.
//! - `hallu_detector_simulated_ms` — histogram of per-call charged cost.
//! - `hallu_detector_cell_outcomes_total{model, outcome}` — ok /
//!   quarantined / failed / breaker_skip per (sentence, model) cell.
//! - `hallu_breaker_trips_total{model}` — breaker transitions to open.

use hallu_obs::{Counter, Histogram, MetricsSnapshot, Obs, DEFAULT_LATENCY_BUCKETS_MS};

use crate::resilience::{DegradationLevel, ResilienceTelemetry};

/// Fixed-point quantum for charging fractional simulated milliseconds to a
/// counter (1 unit = 1 µs), so the registry total reconstructs the facade's
/// f64 sum without drift.
const MS_TO_MICROS: f64 = 1000.0;

/// Per-model counter handles, slot-indexed like the detector's verifiers.
#[derive(Debug, Clone, Default)]
pub(crate) struct ModelCells {
    pub(crate) ok: Counter,
    pub(crate) quarantined: Counter,
    pub(crate) failed: Counter,
    pub(crate) breaker_skip: Counter,
    pub(crate) breaker_trips: Counter,
}

/// All registry handles one detector writes. Every handle is disconnected
/// (free to bump) until registered against a live sink.
#[derive(Debug, Clone, Default)]
pub(crate) struct DetectorMetrics {
    pub(crate) attempts: Counter,
    pub(crate) retries: Counter,
    pub(crate) timeouts: Counter,
    pub(crate) quarantined: Counter,
    pub(crate) breaker_trips: Counter,
    pub(crate) breaker_skips: Counter,
    pub(crate) sentences_dropped: Counter,
    pub(crate) deadline_skips: Counter,
    /// Charged simulated time in whole microseconds (fixed-point so the
    /// registry view reconstructs the facade's f64 sum exactly).
    pub(crate) simulated_us: Counter,
    pub(crate) simulated_ms: Histogram,
    pub(crate) verdicts: [Counter; 4],
    pub(crate) models: Vec<ModelCells>,
}

fn verdict_slot(level: DegradationLevel) -> usize {
    match level {
        DegradationLevel::Full => 0,
        DegradationLevel::Degraded => 1,
        DegradationLevel::Partial => 2,
        DegradationLevel::Abstained => 3,
    }
}

const DEGRADATION_LABELS: [&str; 4] = ["full", "degraded", "partial", "abstained"];

impl DetectorMetrics {
    pub(crate) fn register(obs: &Obs, model_names: &[&str]) -> Self {
        let event = |name: &str| {
            obs.counter(
                "hallu_detector_events_total",
                "Resilience events in the detector, by kind",
                &[("event", name)],
            )
        };
        let verdicts = DEGRADATION_LABELS.map(|level| {
            obs.counter(
                "hallu_detector_verdicts_total",
                "Scoring calls by degradation level of the verdict",
                &[("degradation", level)],
            )
        });
        let models = model_names
            .iter()
            .map(|model| {
                let cell = |outcome: &str| {
                    obs.counter(
                        "hallu_detector_cell_outcomes_total",
                        "(sentence, model) cell outcomes after retries and quarantine",
                        &[("model", model), ("outcome", outcome)],
                    )
                };
                ModelCells {
                    ok: cell("ok"),
                    quarantined: cell("quarantined"),
                    failed: cell("failed"),
                    breaker_skip: cell("breaker_skip"),
                    breaker_trips: obs.counter(
                        "hallu_breaker_trips_total",
                        "Circuit-breaker transitions to open, per model",
                        &[("model", model)],
                    ),
                }
            })
            .collect();
        Self {
            attempts: event("attempts"),
            retries: event("retries"),
            timeouts: event("timeouts"),
            quarantined: event("quarantined"),
            breaker_trips: event("breaker_trips"),
            breaker_skips: event("breaker_skips"),
            sentences_dropped: event("sentences_dropped"),
            deadline_skips: event("deadline_skips"),
            simulated_us: obs.counter(
                "hallu_detector_simulated_us_total",
                "Charged simulated time in microseconds (fixed-point)",
                &[],
            ),
            simulated_ms: obs.histogram(
                "hallu_detector_simulated_ms",
                "Charged simulated time per scoring call",
                &[],
                &DEFAULT_LATENCY_BUCKETS_MS,
            ),
            verdicts,
            models,
        }
    }

    /// Slot-indexed model handles; out-of-range (the disconnected default
    /// has none) yields a shared disconnected set, so call sites never
    /// branch on whether a sink is attached.
    pub(crate) fn model(&self, mi: usize) -> &ModelCells {
        static DISCONNECTED: std::sync::OnceLock<ModelCells> = std::sync::OnceLock::new();
        self.models
            .get(mi)
            .unwrap_or_else(|| DISCONNECTED.get_or_init(ModelCells::default))
    }

    /// Flush one call's facade telemetry into the registry. The facade is
    /// the source of truth; the registry mirrors its deltas, which is what
    /// keeps the two views provably consistent (see
    /// `totals_equal_summed_telemetry` in `resilient.rs`).
    pub(crate) fn flush(&self, tele: &ResilienceTelemetry) {
        self.attempts.add(tele.attempts);
        self.retries.add(tele.retries);
        self.timeouts.add(tele.timeouts);
        self.quarantined.add(tele.quarantined);
        self.breaker_trips.add(tele.breaker_trips);
        self.breaker_skips.add(tele.breaker_skips);
        self.sentences_dropped.add(tele.sentences_dropped);
        self.deadline_skips.add(tele.deadline_skips);
        self.simulated_us
            .add((tele.simulated_ms * MS_TO_MICROS).round() as u64);
        self.simulated_ms.observe(tele.simulated_ms);
        self.verdicts[verdict_slot(tele.degradation)].inc();
    }
}

/// Aggregate resilience counts reconstructed from a registry snapshot —
/// the registry-derived equivalent of summing every per-call
/// [`ResilienceTelemetry`] a run produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResilienceTotals {
    /// Scoring calls observed (sum over degradation levels).
    pub calls: u64,
    /// Calls per degradation level: `[full, degraded, partial, abstained]`.
    pub by_degradation: [u64; 4],
    /// Verifier attempts, including retries.
    pub attempts: u64,
    /// Retries after transient failures.
    pub retries: u64,
    /// Calls abandoned at the per-call deadline.
    pub timeouts: u64,
    /// Garbage scores quarantined.
    pub quarantined: u64,
    /// Breaker transitions to open.
    pub breaker_trips: u64,
    /// Calls skipped by an open breaker.
    pub breaker_skips: u64,
    /// Sentences with no usable score.
    pub sentences_dropped: u64,
    /// Sentences never attempted due to an exhausted budget.
    pub deadline_skips: u64,
    /// Total charged simulated time, reconstructed from the fixed-point
    /// microsecond counter.
    pub simulated_ms: f64,
}

impl ResilienceTotals {
    /// Derive totals from a snapshot taken on the detector's sink.
    pub fn from_snapshot(snap: &MetricsSnapshot) -> Self {
        let event = |name: &str| {
            snap.value("hallu_detector_events_total", &[("event", name)])
                .unwrap_or(0.0) as u64
        };
        let mut by_degradation = [0u64; 4];
        for (slot, label) in DEGRADATION_LABELS.iter().enumerate() {
            by_degradation[slot] = snap
                .value("hallu_detector_verdicts_total", &[("degradation", label)])
                .unwrap_or(0.0) as u64;
        }
        Self {
            calls: by_degradation.iter().sum(),
            by_degradation,
            attempts: event("attempts"),
            retries: event("retries"),
            timeouts: event("timeouts"),
            quarantined: event("quarantined"),
            breaker_trips: event("breaker_trips"),
            breaker_skips: event("breaker_skips"),
            sentences_dropped: event("sentences_dropped"),
            deadline_skips: event("deadline_skips"),
            simulated_ms: snap.total("hallu_detector_simulated_us_total") / MS_TO_MICROS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tele(level: DegradationLevel) -> ResilienceTelemetry {
        let mut t = ResilienceTelemetry::empty();
        t.attempts = 4;
        t.retries = 1;
        t.timeouts = 2;
        t.quarantined = 1;
        t.breaker_trips = 1;
        t.breaker_skips = 3;
        t.sentences_dropped = 1;
        t.deadline_skips = 2;
        t.simulated_ms = 12.625;
        t.degradation = level;
        t
    }

    #[test]
    fn flush_then_totals_round_trips() {
        let obs = Obs::new();
        let metrics = DetectorMetrics::register(&obs, &["m0", "m1"]);
        metrics.flush(&sample_tele(DegradationLevel::Degraded));
        metrics.flush(&sample_tele(DegradationLevel::Abstained));
        let totals = ResilienceTotals::from_snapshot(&obs.metrics_snapshot());
        assert_eq!(totals.calls, 2);
        assert_eq!(totals.by_degradation, [0, 1, 0, 1]);
        assert_eq!(totals.attempts, 8);
        assert_eq!(totals.retries, 2);
        assert_eq!(totals.timeouts, 4);
        assert_eq!(totals.quarantined, 2);
        assert_eq!(totals.breaker_trips, 2);
        assert_eq!(totals.breaker_skips, 6);
        assert_eq!(totals.sentences_dropped, 2);
        assert_eq!(totals.deadline_skips, 4);
        assert_eq!(totals.simulated_ms, 25.25, "µs fixed-point is exact here");
    }

    #[test]
    fn disconnected_metrics_flush_is_free_and_silent() {
        let metrics = DetectorMetrics::default();
        metrics.flush(&sample_tele(DegradationLevel::Full));
        let totals = ResilienceTotals::from_snapshot(&MetricsSnapshot::default());
        assert_eq!(totals, ResilienceTotals::default());
    }
}
