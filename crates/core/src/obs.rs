//! The resilient detector's registry export.
//!
//! [`ResilienceTelemetry`] is the per-call record every verdict carries,
//! and `DetectorMetrics::flush` is its one export: when the detector has
//! an [`Obs`] sink, each call's record is added into `hallu-obs` registry
//! series, so run-wide questions ("how many breaker trips across the whole
//! run?") are answered by one snapshot instead of by summing records by
//! hand.
//!
//! Metric families written here (see DESIGN.md §9 for the scheme):
//!
//! - `hallu_detector_events_total{event}` — attempts, retries, timeouts,
//!   quarantined, breaker_trips, breaker_skips, sentences_dropped,
//!   deadline_skips; each increment equals the record's per-call count.
//! - `hallu_detector_verdicts_total{degradation}` — one per scoring call.
//! - `hallu_detector_simulated_us_total` — charged simulated time in whole
//!   microseconds, and `hallu_detector_simulated_ms`, its per-call
//!   histogram.
//! - `hallu_detector_cell_outcomes_total{model, outcome}` — ok /
//!   quarantined / failed / breaker_skip per (sentence, model) cell.
//! - `hallu_breaker_trips_total{model}` — breaker transitions to open.

use hallu_obs::{Counter, Histogram, Obs, DEFAULT_LATENCY_BUCKETS_MS};

use crate::resilience::{DegradationLevel, ResilienceTelemetry};

/// Fixed-point quantum for charging fractional simulated milliseconds to a
/// counter (1 unit = 1 µs), so the registry total reconstructs the records'
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
    /// registry total reconstructs the records' f64 sum exactly).
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

    /// Add one call's telemetry record into the registry. The registry only
    /// ever sums records, so its series equal the summed records of a run
    /// (see `totals_equal_summed_telemetry` in `resilient.rs`).
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
        let snap = obs.metrics_snapshot();
        let event = |name: &str| snap.value("hallu_detector_events_total", &[("event", name)]);
        let verdicts = DEGRADATION_LABELS
            .map(|level| snap.value("hallu_detector_verdicts_total", &[("degradation", level)]));
        assert_eq!(snap.total("hallu_detector_verdicts_total"), 2.0);
        assert_eq!(verdicts, [Some(0.0), Some(1.0), Some(0.0), Some(1.0)]);
        assert_eq!(event("attempts"), Some(8.0));
        assert_eq!(event("retries"), Some(2.0));
        assert_eq!(event("timeouts"), Some(4.0));
        assert_eq!(event("quarantined"), Some(2.0));
        assert_eq!(event("breaker_trips"), Some(2.0));
        assert_eq!(event("breaker_skips"), Some(6.0));
        assert_eq!(event("sentences_dropped"), Some(2.0));
        assert_eq!(event("deadline_skips"), Some(4.0));
        assert_eq!(
            snap.total("hallu_detector_simulated_us_total") / MS_TO_MICROS,
            25.25,
            "µs fixed-point is exact here"
        );
    }

    #[test]
    fn disconnected_metrics_flush_is_free_and_silent() {
        // Handles that were never registered take a flush without panicking.
        let metrics = DetectorMetrics::default();
        metrics.flush(&sample_tele(DegradationLevel::Full));
    }
}
