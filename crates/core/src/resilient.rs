//! The detector: the paper's framework (Fig. 2b) executed against
//! verifiers that can time out, fail, or return garbage.
//!
//! [`ResilientDetector`] runs the Splitter → M SLMs → Checker pipeline
//! through the fallible interface ([`FallibleVerifier`]) with a full
//! resilience policy: bounded retry with deterministic exponential backoff,
//! a per-call latency deadline, per-model circuit breakers, score
//! quarantine, and graceful ensemble degradation (Eq. 5 renormalized over
//! surviving models). When nothing at all survives it returns
//! [`Verdict::Abstain`] — never a fabricated score. Infallible verifiers
//! enter through [`ResilientDetector::reliable`].
//!
//! # Determinism
//!
//! Scoring runs in two phases so that `config.parallel` cannot change any
//! result bit:
//!
//! 1. **Probe** — every (sentence, model) cell is attempted (with retries and
//!    deadlines) independently. All randomness in fault injection and backoff
//!    jitter is keyed by (seed, model, request text, attempt), never by call
//!    order, so this phase is embarrassingly parallel.
//! 2. **Replay** — cell outcomes are folded through the circuit breakers in
//!    canonical order (sentences in response order, models in slot order) and
//!    combined. Breaker state transitions therefore see the identical outcome
//!    sequence regardless of thread interleaving in phase 1.
//!
//! Phase 1 reads no breaker and no normalizer, so it need not run per
//! response: [`ResilientDetector::score_all`] splits a whole batch once,
//! probes every cell of it in one batch-engine pass, and replays each
//! response's slice of outcomes in input order — the same replay
//! [`ResilientDetector::score`] runs on its own one-response pass, hence
//! the same bits.
//!
//! The only deliberate asymmetry with a real deployment: a cell that the
//! breaker skips in phase 2 was speculatively probed in phase 1, but its cost
//! is *not* charged to the telemetry — exactly as if the call had never been
//! issued, which is what an open breaker buys you.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use hallu_obs::Obs;
use slm_runtime::batch::{host_parallelism, BatchEngine, BatchJob, BatchReport, ProbeOutcome};
use slm_runtime::cache::{CacheKeyRef, VerificationCache};
use slm_runtime::fallible::{FallibleVerifier, Reliable};
use slm_runtime::verifier::{VerificationRequest, YesNoVerifier};
use text_engine::sentence::SentenceSplitter;

use crate::detector::{DetectionResult, DetectorConfig, DetectorError, SentenceDetail};
use crate::ensemble::{combine_surviving, squash};
use crate::obs::DetectorMetrics;
use crate::resilience::{
    call_key, BreakerConfig, CircuitBreaker, DegradationLevel, ModelHealth, ResilienceTelemetry,
    RetryPolicy,
};
use crate::score::valid_probability;
use crate::zscore::ModelNormalizer;

/// Sentinel stored in [`SentenceDetail::raw`] for a model that produced no
/// usable score for that sentence (error, timeout, quarantine, or breaker
/// skip). A real probability is never negative, so the sentinel cannot
/// collide; NaN is not used because it would break `PartialEq` on results.
pub const MISSING_SCORE: f64 = -1.0;

/// Run the bounded-retry loop for one cell.
///
/// Attempts are named explicitly
/// ([`FallibleVerifier::try_p_yes_attempt`]), so the whole episode is a pure
/// function of `(verifier, policy, request)` — re-running it reproduces the
/// same [`ProbeOutcome`] bit-for-bit regardless of what was probed before.
/// That purity is what makes the verification cache and duplicate-job
/// coalescing semantically invisible.
fn probe_cell(
    verifier: &dyn FallibleVerifier,
    policy: &RetryPolicy,
    req: &VerificationRequest<'_>,
    key: u64,
) -> ProbeOutcome {
    let mut out = ProbeOutcome::default();
    loop {
        let attempt = out.attempts as u32;
        out.attempts += 1;
        let retryable = match verifier.try_p_yes_attempt(req, attempt) {
            Ok(probe) => {
                if probe.latency_ms > policy.deadline_ms {
                    // we stop waiting at the deadline, so that is the cost
                    out.timeouts += 1;
                    out.simulated_ms += policy.deadline_ms;
                    true
                } else {
                    out.simulated_ms += probe.latency_ms;
                    out.score = Some(probe.p_yes);
                    return out;
                }
            }
            Err(e) => {
                out.simulated_ms += policy.failure_cost_ms;
                e.is_retryable()
            }
        };
        if !retryable || out.attempts >= u64::from(policy.max_attempts) {
            return out;
        }
        out.retries += 1;
        out.simulated_ms += policy.backoff_ms(attempt, key);
    }
}

/// [`probe_cell`] behind the verification cache: a hit replays the memoized
/// episode (including its simulated cost — a pure function of the cell, so
/// downstream virtual-time dynamics are bitwise-unchanged); a miss runs the
/// episode and memoizes it iff it settled on a valid probability.
fn probe_cell_cached(
    cache: Option<&VerificationCache>,
    verifier: &dyn FallibleVerifier,
    policy: &RetryPolicy,
    req: &VerificationRequest<'_>,
    key: u64,
) -> ProbeOutcome {
    let Some(cache) = cache else {
        return probe_cell(verifier, policy, req, key);
    };
    let cache_key = CacheKeyRef::new(verifier.name(), req.question, req.context, req.response);
    if let Some(hit) = cache.get(&cache_key) {
        return hit;
    }
    let out = probe_cell(verifier, policy, req, key);
    cache.insert(&cache_key, out);
    out
}

/// A detection verdict that admits failure.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Detection ran; the result's `resilience` field reports how degraded
    /// the execution was.
    Scored(DetectionResult),
    /// No model produced a usable score for any sentence. The system
    /// explicitly declines to answer rather than fabricating a score.
    Abstain(ResilienceTelemetry),
}

impl Verdict {
    /// The response-level score, if one was produced.
    pub fn score(&self) -> Option<f64> {
        match self {
            Self::Scored(r) => Some(r.score),
            Self::Abstain(_) => None,
        }
    }

    /// Whether the detector abstained.
    pub fn is_abstain(&self) -> bool {
        matches!(self, Self::Abstain(_))
    }

    /// Execution telemetry (present on both variants).
    pub fn telemetry(&self) -> &ResilienceTelemetry {
        match self {
            Self::Scored(r) => &r.resilience,
            Self::Abstain(t) => t,
        }
    }

    /// The full result, if one was produced.
    pub fn into_result(self) -> Option<DetectionResult> {
        match self {
            Self::Scored(r) => Some(r),
            Self::Abstain(_) => None,
        }
    }
}

/// The fault-tolerant detector: Splitter → M fallible SLMs → Checker, with
/// retries, deadlines, circuit breakers, quarantine, and graceful ensemble
/// degradation.
pub struct ResilientDetector {
    verifiers: Vec<Box<dyn FallibleVerifier>>,
    /// Configuration: the ablation axes and scheduling knobs.
    pub config: DetectorConfig,
    /// Retry/deadline policy applied to every verification call.
    pub policy: RetryPolicy,
    normalizer: ModelNormalizer,
    breakers: Mutex<Vec<CircuitBreaker>>,
    cache: Option<Arc<VerificationCache>>,
    obs: Obs,
    metrics: DetectorMetrics,
}

impl ResilientDetector {
    /// Build a resilient detector over fallible verifiers with default
    /// retry and breaker policies.
    pub fn try_new(
        verifiers: Vec<Box<dyn FallibleVerifier>>,
        config: DetectorConfig,
    ) -> Result<Self, DetectorError> {
        Self::with_policies(
            verifiers,
            config,
            RetryPolicy::default(),
            BreakerConfig::default(),
        )
    }

    /// Build with explicit retry and breaker tuning.
    pub fn with_policies(
        verifiers: Vec<Box<dyn FallibleVerifier>>,
        config: DetectorConfig,
        policy: RetryPolicy,
        breaker: BreakerConfig,
    ) -> Result<Self, DetectorError> {
        if verifiers.is_empty() {
            return Err(DetectorError::NoVerifiers);
        }
        let normalizer = ModelNormalizer::new(verifiers.len());
        let breakers = Mutex::new(
            verifiers
                .iter()
                .map(|_| CircuitBreaker::new(breaker.clone()))
                .collect(),
        );
        Ok(Self {
            verifiers,
            config,
            policy,
            normalizer,
            breakers,
            cache: None,
            obs: Obs::off(),
            metrics: DetectorMetrics::default(),
        })
    }

    /// Attach a verification cache shared with other detectors or the
    /// serving layer. Under the episode-purity contract the cache only saves
    /// wall-clock work — every score, verdict, and telemetry field stays
    /// bitwise-identical to the uncached run (the golden parity suite
    /// asserts this).
    pub fn set_cache(&mut self, cache: Arc<VerificationCache>) {
        self.cache = Some(cache);
    }

    /// Builder-style [`ResilientDetector::set_cache`].
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<VerificationCache>) -> Self {
        self.set_cache(cache);
        self
    }

    /// The attached verification cache, if any.
    pub fn cache(&self) -> Option<&Arc<VerificationCache>> {
        self.cache.as_ref()
    }

    /// Attach an observability sink: each call's [`ResilienceTelemetry`]
    /// record is also added into registry counters, phase 2 records spans,
    /// and the decision trail — per-cell scores, z-inputs, breaker trips,
    /// the verdict — goes to the in-flight flight record. Instrumentation
    /// is strictly observational: scores and verdicts are bitwise-identical
    /// with or without it.
    pub fn set_obs(&mut self, obs: &Obs) {
        let names: Vec<&str> = self.verifiers.iter().map(|v| v.name()).collect();
        self.metrics = DetectorMetrics::register(obs, &names);
        self.obs = obs.clone();
    }

    /// Builder-style [`ResilientDetector::set_obs`].
    #[must_use]
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.set_obs(obs);
        self
    }

    /// Wrap infallible verifiers in [`Reliable`] adapters: the fault-free
    /// detector. A reliable verifier never errors and answers inside the
    /// default deadline, so every cell scores on its first attempt and no
    /// breaker trips; a verdict is only ever `Scored`.
    pub fn reliable(
        verifiers: Vec<Box<dyn YesNoVerifier>>,
        config: DetectorConfig,
    ) -> Result<Self, DetectorError> {
        let fallible: Vec<Box<dyn FallibleVerifier>> = verifiers
            .into_iter()
            .map(|v| Box::new(Reliable::new(v)) as Box<dyn FallibleVerifier>)
            .collect();
        Self::try_new(fallible, config)
    }

    /// Model names, in slot order.
    pub fn model_names(&self) -> Vec<&str> {
        self.verifiers.iter().map(|v| v.name()).collect()
    }

    /// Number of ensembled models M.
    pub fn num_models(&self) -> usize {
        self.verifiers.len()
    }

    /// Access the fitted normalizer.
    pub fn normalizer(&self) -> &ModelNormalizer {
        &self.normalizer
    }

    /// Restore previously persisted calibration statistics.
    pub fn try_set_normalizer(&mut self, normalizer: ModelNormalizer) -> Result<(), DetectorError> {
        if normalizer.num_models() != self.verifiers.len() {
            return Err(DetectorError::ModelCountMismatch {
                expected: self.verifiers.len(),
                got: normalizer.num_models(),
            });
        }
        self.normalizer = normalizer;
        Ok(())
    }

    /// Per-model breaker health, in slot order.
    pub fn health(&self) -> Vec<ModelHealth> {
        self.lock_breakers().iter().map(|b| b.health()).collect()
    }

    /// Breaker state survives a panicked holder: the counters inside stay
    /// consistent (every mutation is a single-field update), so poisoning
    /// is recovered rather than propagated as a panic.
    fn lock_breakers(&self) -> MutexGuard<'_, Vec<CircuitBreaker>> {
        self.breakers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Split per the active config; no-split mode scores the response as one
    /// unit, even when empty.
    fn split(&self, response: &str) -> Vec<String> {
        if self.config.split {
            SentenceSplitter::new()
                .split(response)
                .into_iter()
                .map(|s| s.text.to_string())
                .collect()
        } else {
            vec![response.to_string()]
        }
    }

    /// Feed one triple into the Eq. 4 statistics. Only valid probabilities
    /// are observed — a faulty model cannot poison calibration. Breaker state
    /// is not consulted or updated here (calibration is a warm-up activity).
    pub fn calibrate(&mut self, question: &str, context: &str, response: &str) {
        for sentence in self.split(response) {
            let req = VerificationRequest::new(question, context, &sentence);
            for (m, v) in self.verifiers.iter().enumerate() {
                let key = call_key(&[v.name(), question, context, &sentence]);
                let cell =
                    probe_cell_cached(self.cache.as_deref(), v.as_ref(), &self.policy, &req, key);
                match cell.score {
                    Some(p) if valid_probability(p) => self.normalizer.observe(m, p),
                    _ => {}
                }
            }
        }
    }

    /// Calibrate on a batch of triples through the batch engine: every
    /// (item, sentence, model) cell is probed (in parallel when
    /// `config.parallel`, warming the cache when one is attached), then each
    /// model's valid probabilities are folded into the Eq. 4 statistics in
    /// **submission order** — item-major, sentence within item — restored
    /// explicitly via [`ModelNormalizer::observe_completions`]. The running
    /// mean/variance fold is order-sensitive in floating point, so this
    /// restoration is what makes the result bitwise-identical to calling
    /// [`ResilientDetector::calibrate`] on each item in turn.
    pub fn calibrate_batch(&mut self, items: &[(&str, &str, &str)]) -> BatchReport {
        let (outcomes, report) = self.probe_batch(items, &self.split_all(items));
        let m = self.verifiers.len();
        let mut per_model: Vec<Vec<(u64, f64)>> = vec![Vec::new(); m];
        for (i, cell) in outcomes.iter().enumerate() {
            if let Some(p) = cell.score {
                if valid_probability(p) {
                    // i / m is the flattened (item, sentence) cell ordinal —
                    // the submission index the fold must respect.
                    per_model[i % m].push(((i / m) as u64, p));
                }
            }
        }
        for (mi, completions) in per_model.iter_mut().enumerate() {
            self.normalizer.observe_completions(mi, completions);
        }
        report
    }

    /// Combine one sentence's surviving `(model, score)` pairs per the active
    /// config.
    fn combine(&self, survivors: &[(usize, f64)]) -> f64 {
        if !self.config.normalize {
            return survivors.iter().map(|&(_, s)| s).sum::<f64>() / survivors.len() as f64;
        }
        if let Some(margin) = self.config.gate_margin {
            // the gate can only speak for model 0; if that model is among the
            // fallen, every survivor votes
            if let Some(&(0, s0)) = survivors.first() {
                let z0 = self.normalizer.normalize(0, s0);
                if z0.abs() >= margin || survivors.len() == 1 {
                    return squash(z0);
                }
            }
        }
        squash(combine_surviving(&self.normalizer, survivors))
    }

    /// Evaluate one batch job: the cached retry loop for its cell.
    fn probe_job(&self, job: &BatchJob<'_>) -> ProbeOutcome {
        let v = &self.verifiers[job.model];
        let key = call_key(&[
            v.name(),
            job.request.question,
            job.request.context,
            job.request.response,
        ]);
        probe_cell_cached(
            self.cache.as_deref(),
            v.as_ref(),
            &self.policy,
            &job.request,
            key,
        )
    }

    /// Pick an engine for `jobs` pending cells: parallel (workers claiming
    /// whole prefix groups) when the config asks for it, inline otherwise
    /// (the caller claiming them, with a helper while a core is idle).
    /// Which threads claim shapes wall-clock only — the engine's ordered
    /// merge plus episode purity keep outputs bitwise-identical either way.
    fn engine(&self, jobs: usize) -> BatchEngine {
        if self.config.parallel && jobs > 1 {
            BatchEngine::parallel(host_parallelism().min(jobs))
        } else {
            BatchEngine::sequential()
        }
    }

    /// Split every item's response once, per the active config.
    fn split_all(&self, items: &[(&str, &str, &str)]) -> Vec<Vec<String>> {
        items.iter().map(|(_, _, r)| self.split(r)).collect()
    }

    /// Probe every (item, sentence, model) cell of a batch of triples on one
    /// batch engine — phase 1. `split[i]` holds item `i`'s sentences. Jobs
    /// are submitted item-major, sentence within item, models in slot order,
    /// so outcome `j` belongs to model `j % M` of the `j / M`-th flattened
    /// sentence, and each item owns one contiguous run of outcomes;
    /// duplicate cells coalesce to one evaluation.
    fn probe_batch(
        &self,
        items: &[(&str, &str, &str)],
        split: &[Vec<String>],
    ) -> (Vec<ProbeOutcome>, BatchReport) {
        let mut jobs: Vec<BatchJob<'_>> = Vec::new();
        for ((q, c, _), sentences) in items.iter().zip(split) {
            for sentence in sentences {
                for mi in 0..self.verifiers.len() {
                    jobs.push(BatchJob::new(mi, VerificationRequest::new(q, c, sentence)));
                }
            }
        }
        self.engine(jobs.len())
            .run(&jobs, |job| self.probe_job(job))
    }

    /// Warm the attached cache with every (item, sentence, model) cell of a
    /// batch of triples, coalescing duplicates across items. No-op without a
    /// cache (the probes would be discarded). Never touches breakers, the
    /// normalizer, or telemetry — prefetching is pure speculation, so a
    /// subsequent [`ResilientDetector::score`] sequence is bitwise-identical
    /// to one that never prefetched. For callers that score each item
    /// separately afterwards (`ResilientVerifiedPipeline::ask_batch`);
    /// [`ResilientDetector::score_all`] needs no prefetch or cache.
    pub fn prefetch(&self, items: &[(&str, &str, &str)]) -> BatchReport {
        if self.cache.is_none() {
            return BatchReport::default();
        }
        self.probe_batch(items, &self.split_all(items)).1
    }

    /// Score a response through the full resilience policy.
    pub fn score(&self, question: &str, context: &str, response: &str) -> Verdict {
        self.score_within(question, context, response, f64::INFINITY)
    }

    /// Deadline-aware scoring: like [`ResilientDetector::score`], but the
    /// whole call carries a simulated-time budget. Sentences are scored in
    /// response order until the accumulated charged cost reaches
    /// `budget_ms`; the rest are *deadline skips* — dropped without being
    /// attempted (no breaker updates, no charged time), reported in
    /// [`ResilienceTelemetry::deadline_skips`]. A request that can score
    /// only some sentences degrades to `Partial`; one that can score none
    /// degrades to [`Verdict::Abstain`] — it never blows the budget and
    /// never fabricates a score.
    ///
    /// `budget_ms = f64::INFINITY` is exactly `score` (bitwise-identical);
    /// `budget_ms <= 0` abstains immediately on any non-empty response.
    pub fn score_within(
        &self,
        question: &str,
        context: &str,
        response: &str,
        budget_ms: f64,
    ) -> Verdict {
        let _span = self.obs.span("detector.score");
        let sentences = self.split(response);
        let cells = if sentences.is_empty() {
            Vec::new()
        } else {
            let _probe_span = self.obs.span("detector.probe");
            self.probe_batch(
                &[(question, context, response)],
                std::slice::from_ref(&sentences),
            )
            .0
        };
        self.replay(&sentences, &cells, budget_ms)
    }

    /// Phase 2 for one response: fold its phase-1 outcomes through the
    /// breakers in canonical order (sentences in response order, models in
    /// slot order), quarantine invalid scores, combine per Eq. 4–6, flush
    /// the call's telemetry and record its flight events. `cells` holds
    /// `M` outcomes per sentence, sentence-major — the response's run of a
    /// [`ResilientDetector::probe_batch`] result. Sentences past
    /// `budget_ms` of charged time are deadline skips.
    fn replay(&self, sentences: &[String], cells: &[ProbeOutcome], budget_ms: f64) -> Verdict {
        let m = self.verifiers.len();
        debug_assert_eq!(cells.len(), sentences.len() * m);
        if sentences.is_empty() {
            // nothing verifiable was said, which in a high-precision QA
            // system must not pass as correct: score 0, not a failure of
            // the ensemble
            let tele = ResilienceTelemetry::empty();
            self.metrics.flush(&tele);
            self.obs
                .flight("verdict", &[("outcome", "scored_empty".to_string())]);
            return Verdict::Scored(DetectionResult {
                score: 0.0,
                sentences: Vec::new(),
                resilience: tele,
            });
        }

        let mut tele = ResilienceTelemetry::empty();
        let mut model_contributed = vec![false; m];
        let mut any_cell_lost = false;
        let mut details: Vec<SentenceDetail> = Vec::new();

        let mut breakers = self.lock_breakers();
        let replay_span = self.obs.span("detector.replay");
        let trips_before: Vec<u64> = breakers.iter().map(|b| b.trips()).collect();
        for (si, (sentence, row)) in sentences.iter().zip(cells.chunks(m)).enumerate() {
            if tele.simulated_ms >= budget_ms {
                // Budget exhausted: the remaining sentences are never
                // attempted, exactly as if the caller had hung up — no
                // breaker updates, no charged time.
                tele.deadline_skips += 1;
                tele.sentences_dropped += 1;
                if self.obs.enabled() {
                    self.obs
                        .flight("deadline_skip", &[("sentence", si.to_string())]);
                }
                continue;
            }
            let mut raw = vec![MISSING_SCORE; m];
            let mut survivors: Vec<(usize, f64)> = Vec::new();
            for (mi, cell) in row.iter().enumerate() {
                if !breakers[mi].preflight() {
                    tele.breaker_skips += 1;
                    self.metrics.model(mi).breaker_skip.inc();
                    any_cell_lost = true;
                    if self.obs.enabled() {
                        self.obs.flight(
                            "breaker_skip",
                            &[
                                ("sentence", si.to_string()),
                                ("model", self.verifiers[mi].name().to_string()),
                            ],
                        );
                    }
                    continue;
                }
                tele.attempts += cell.attempts;
                tele.retries += cell.retries;
                tele.timeouts += cell.timeouts;
                tele.simulated_ms += cell.simulated_ms;
                match cell.score {
                    Some(p) if valid_probability(p) => {
                        breakers[mi].record_success();
                        self.metrics.model(mi).ok.inc();
                        raw[mi] = p;
                        survivors.push((mi, p));
                        model_contributed[mi] = true;
                        if self.obs.enabled() {
                            // z is the Eq. 4 input the combine step will
                            // see — a pure read of the fitted normalizer
                            self.obs.flight(
                                "cell_score",
                                &[
                                    ("sentence", si.to_string()),
                                    ("model", self.verifiers[mi].name().to_string()),
                                    ("raw", p.to_string()),
                                    ("z", self.normalizer.normalize(mi, p).to_string()),
                                    ("attempts", cell.attempts.to_string()),
                                ],
                            );
                        }
                    }
                    Some(garbage) => {
                        tele.quarantined += 1;
                        breakers[mi].record_failure();
                        self.metrics.model(mi).quarantined.inc();
                        any_cell_lost = true;
                        if self.obs.enabled() {
                            self.obs.flight(
                                "cell_quarantined",
                                &[
                                    ("sentence", si.to_string()),
                                    ("model", self.verifiers[mi].name().to_string()),
                                    ("raw", garbage.to_string()),
                                ],
                            );
                        }
                    }
                    None => {
                        breakers[mi].record_failure();
                        self.metrics.model(mi).failed.inc();
                        any_cell_lost = true;
                        if self.obs.enabled() {
                            self.obs.flight(
                                "cell_failed",
                                &[
                                    ("sentence", si.to_string()),
                                    ("model", self.verifiers[mi].name().to_string()),
                                    ("attempts", cell.attempts.to_string()),
                                ],
                            );
                        }
                    }
                }
            }
            if survivors.is_empty() {
                tele.sentences_dropped += 1;
                if self.obs.enabled() {
                    self.obs
                        .flight("sentence_dropped", &[("sentence", si.to_string())]);
                }
            } else {
                let combined = self.combine(&survivors);
                if self.obs.enabled() {
                    self.obs.flight(
                        "sentence_scored",
                        &[
                            ("sentence", si.to_string()),
                            ("combined", combined.to_string()),
                            ("survivors", survivors.len().to_string()),
                        ],
                    );
                }
                details.push(SentenceDetail {
                    sentence: sentence.clone(),
                    raw,
                    combined,
                });
            }
        }
        for (mi, breaker) in breakers.iter().enumerate() {
            let delta = breaker.trips() - trips_before[mi];
            tele.breaker_trips += delta;
            if delta > 0 {
                self.metrics.model(mi).breaker_trips.add(delta);
                if self.obs.enabled() {
                    self.obs.flight(
                        "breaker_trip",
                        &[
                            ("model", self.verifiers[mi].name().to_string()),
                            ("trips", delta.to_string()),
                        ],
                    );
                }
            }
        }
        drop(replay_span);
        drop(breakers);

        for (mi, v) in self.verifiers.iter().enumerate() {
            if model_contributed[mi] {
                tele.models_consulted.push(v.name().to_string());
            } else {
                tele.models_failed.push(v.name().to_string());
            }
        }

        if details.is_empty() {
            tele.degradation = DegradationLevel::Abstained;
            self.metrics.flush(&tele);
            if self.obs.enabled() {
                self.obs.flight(
                    "verdict",
                    &[
                        ("outcome", "abstain".to_string()),
                        ("degradation", tele.degradation.to_string()),
                        ("simulated_ms", tele.simulated_ms.to_string()),
                    ],
                );
            }
            return Verdict::Abstain(tele);
        }
        tele.degradation = if tele.sentences_dropped > 0 {
            DegradationLevel::Partial
        } else if any_cell_lost {
            DegradationLevel::Degraded
        } else {
            DegradationLevel::Full
        };
        let scores: Vec<f64> = details.iter().map(|s| s.combined).collect();
        let score = self.config.mean.aggregate(&scores);
        self.metrics.flush(&tele);
        if self.obs.enabled() {
            self.obs.flight(
                "verdict",
                &[
                    ("outcome", "scored".to_string()),
                    ("score", score.to_string()),
                    ("degradation", tele.degradation.to_string()),
                    ("simulated_ms", tele.simulated_ms.to_string()),
                ],
            );
        }
        Verdict::Scored(DetectionResult {
            score,
            sentences: details,
            resilience: tele,
        })
    }

    /// Score a batch, in input order, one [`ResilientDetector::score`] call
    /// per item.
    ///
    /// Breaker state evolves across items, so item order is semantic.
    /// Within-item cell probing still parallelizes via `config.parallel`;
    /// [`ResilientDetector::score_all`] probes the whole batch at once.
    pub fn score_batch(&self, items: &[(&str, &str, &str)]) -> Vec<Verdict> {
        items.iter().map(|(q, c, r)| self.score(q, c, r)).collect()
    }

    /// Batch-aware scoring in one probe pass: split every item once, run
    /// phase 1 for every (item, sentence, model) cell of the batch on one
    /// batch engine (duplicate cells across items coalesce to one
    /// evaluation, through the cache when one is attached), then replay each
    /// item's run of outcomes through phase 2 in input order.
    ///
    /// Bitwise-identical to [`ResilientDetector::score_batch`]: phase 1
    /// never reads the breakers or the normalizer and every probe episode
    /// is a pure function of its cell, so probing the whole batch up front
    /// hands each item's replay exactly the outcomes its own `score` call
    /// would have produced, and the replays see the breakers in the same
    /// order. Needs no cache.
    pub fn score_all(&self, items: &[(&str, &str, &str)]) -> Vec<Verdict> {
        let _span = self.obs.span("detector.score");
        let split = self.split_all(items);
        let outcomes = {
            let _probe_span = self.obs.span("detector.probe");
            self.probe_batch(items, &split).0
        };
        let m = self.verifiers.len();
        let mut rest = outcomes.as_slice();
        split
            .iter()
            .map(|sentences| {
                let (cells, tail) = rest.split_at(sentences.len() * m);
                rest = tail;
                self.replay(sentences, cells, f64::INFINITY)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::BreakerState;
    use slm_runtime::faults::{FaultInjector, FaultProfile};
    use slm_runtime::profiles::{minicpm_sim, qwen2_sim};

    const CTX: &str = "The store operates from 9 AM to 5 PM, from Sunday to Saturday. \
                       There should be at least three shopkeepers to run a shop.";
    const Q: &str = "What are the working hours?";
    const CORRECT: &str =
        "The working hours are 9 AM to 5 PM. The store is open from Sunday to Saturday.";
    const PARTIAL: &str =
        "The working hours are 9 AM to 5 PM. The store is open from Monday to Friday.";
    const WRONG: &str = "The working hours are 9 AM to 9 PM. You do not need to work on weekends.";
    const CAL: [&str; 5] = [
        CORRECT,
        PARTIAL,
        WRONG,
        "The store is large.",
        "Staff wear uniforms.",
    ];

    fn reliable(
        verifiers: Vec<Box<dyn YesNoVerifier>>,
        config: DetectorConfig,
    ) -> ResilientDetector {
        let mut d = ResilientDetector::reliable(verifiers, config).unwrap();
        for r in CAL {
            d.calibrate(Q, CTX, r);
        }
        d
    }

    fn faulty(config: DetectorConfig, profiles: [FaultProfile; 2]) -> ResilientDetector {
        let [p0, p1] = profiles;
        let verifiers: Vec<Box<dyn FallibleVerifier>> = vec![
            Box::new(FaultInjector::new(Reliable::new(qwen2_sim()), p0)),
            Box::new(FaultInjector::new(Reliable::new(minicpm_sim()), p1)),
        ];
        let mut d = ResilientDetector::try_new(verifiers, config).unwrap();
        for r in CAL {
            d.calibrate(Q, CTX, r);
        }
        d
    }

    fn resilient(config: DetectorConfig) -> ResilientDetector {
        faulty(config, [FaultProfile::none(11), FaultProfile::none(12)])
    }

    /// `(score, [combined per sentence])` bits for CORRECT, PARTIAL, WRONG
    /// and the empty response, as the crate's earlier infallible ("plain")
    /// detector scored them.
    type Golden = [(u64, &'static [u64]); 4];

    #[test]
    fn zero_faults_reproduces_plain_scores_bitwise() {
        const DEFAULT: Golden = [
            (
                0x3fe8_13c5_8d6b_7203,
                &[0x3fe7_cbd4_bb7d_1fbe, 0x3fe8_5d6e_8d8b_4ab8],
            ),
            (
                0x3fd7_baae_a7cd_4333,
                &[0x3fe7_cbd4_bb7d_1fbe, 0x3fcf_9bfb_b63d_9b83],
            ),
            (
                0x3fcf_163f_b7a1_1443,
                &[0x3fd6_8506_39a3_9318, 0x3fc7_bc02_d0cd_a2e7],
            ),
            (0, &[]),
        ];
        let cases: [(DetectorConfig, Golden); 5] = [
            (DetectorConfig::default(), DEFAULT),
            (
                DetectorConfig {
                    parallel: true,
                    ..Default::default()
                },
                DEFAULT,
            ),
            (
                DetectorConfig {
                    normalize: false,
                    ..Default::default()
                },
                [
                    (
                        0x3fe8_221d_1172_c75d,
                        &[0x3fe7_d661_920e_cca3, 0x3fe8_6fbf_d282_a1f4],
                    ),
                    (
                        0x3fc6_f235_1a06_1ebc,
                        &[0x3fe7_d661_920e_cca3, 0x3fba_15b5_e472_432c],
                    ),
                    (
                        0x3f73_6c55_deff_6e86,
                        &[0x3fce_09fb_5f31_2b06, 0x3f63_9f15_8ee1_2598],
                    ),
                    (0, &[]),
                ],
            ),
            (
                DetectorConfig {
                    split: false,
                    ..Default::default()
                },
                [
                    (0x3fea_3a56_d0ce_09e4, &[0x3fea_3a56_d0ce_09e4]),
                    (0x3fd5_2969_4194_c218, &[0x3fd5_2969_4194_c218]),
                    (0x3fbf_e125_936c_451c, &[0x3fbf_e125_936c_451c]),
                    // no-split scores the empty response as one unit
                    (0x3fd8_1b72_5317_267e, &[0x3fd8_1b72_5317_267e]),
                ],
            ),
            (
                DetectorConfig {
                    gate_margin: Some(0.5),
                    ..Default::default()
                },
                [
                    (
                        0x3fe7_d8f1_4b01_0a8b,
                        &[0x3fe7_f6b2_f626_bc83, 0x3fe7_bb79_2ac8_5ba0],
                    ),
                    (
                        0x3fd7_1d73_ba5b_a7f5,
                        &[0x3fe7_f6b2_f626_bc83, 0x3fce_75e3_3f04_bb95],
                    ),
                    (
                        0x3fcd_f708_fd15_06c8,
                        &[0x3fd2_db84_92a7_0bf0, 0x3fc8_db6c_6e6b_3fe3],
                    ),
                    (0, &[]),
                ],
            ),
        ];
        for (config, golden) in cases {
            let r = reliable(
                vec![Box::new(qwen2_sim()), Box::new(minicpm_sim())],
                config.clone(),
            );
            // the fault injector at zero faults is a bitwise no-op over it
            let injected = resilient(config.clone());
            for (resp, (score, combined)) in [CORRECT, PARTIAL, WRONG, ""].into_iter().zip(golden) {
                let verdict = r.score(Q, CTX, resp);
                assert_eq!(
                    verdict,
                    injected.score(Q, CTX, resp),
                    "{config:?} / {resp:?}"
                );
                let got = verdict.into_result().expect("no abstain at 0 faults");
                assert_eq!(got.score.to_bits(), score, "{config:?} / {resp:?}");
                let got_combined: Vec<u64> =
                    got.sentences.iter().map(|s| s.combined.to_bits()).collect();
                assert_eq!(got_combined, combined, "{config:?} / {resp:?}");
            }
        }
    }

    #[test]
    fn zero_faults_reports_full_degradation_and_all_models() {
        let r = resilient(DetectorConfig::default());
        let v = r.score(Q, CTX, PARTIAL);
        let t = v.telemetry();
        assert_eq!(t.degradation, DegradationLevel::Full);
        assert_eq!(t.models_consulted, ["qwen2-1.5b-sim", "minicpm-2b-sim"]);
        assert!(t.models_failed.is_empty());
        assert_eq!(t.retries + t.timeouts + t.quarantined + t.breaker_skips, 0);
        assert_eq!(t.attempts, 4, "2 sentences x 2 models, one attempt each");
        assert!(t.simulated_ms > 0.0);
    }

    #[test]
    fn one_model_down_degrades_to_surviving_model() {
        let r = faulty(
            DetectorConfig::default(),
            [FaultProfile::none(11), FaultProfile::down(12)],
        );
        let v = r.score(Q, CTX, PARTIAL);
        let result = v
            .clone()
            .into_result()
            .expect("one live model must still score");
        let t = v.telemetry();
        assert_eq!(t.models_consulted, ["qwen2-1.5b-sim"]);
        assert_eq!(t.models_failed, ["minicpm-2b-sim"]);
        assert_eq!(t.degradation, DegradationLevel::Degraded);
        // the dead model's slots carry the sentinel, the live model's are real
        for s in &result.sentences {
            assert!(valid_probability(s.raw[0]));
            assert_eq!(s.raw[1], MISSING_SCORE);
        }
        // and the verdict equals what a single-model detector (same
        // calibration data) would say
        let single = reliable(vec![Box::new(qwen2_sim())], DetectorConfig::default());
        assert_eq!(
            Some(result.score.to_bits()),
            single.score(Q, CTX, PARTIAL).score().map(f64::to_bits)
        );
    }

    #[test]
    fn all_models_down_abstains_never_fabricates() {
        let r = faulty(
            DetectorConfig::default(),
            [FaultProfile::down(11), FaultProfile::down(12)],
        );
        let v = r.score(Q, CTX, PARTIAL);
        assert!(v.is_abstain());
        assert_eq!(v.score(), None);
        let t = v.telemetry();
        assert_eq!(t.degradation, DegradationLevel::Abstained);
        assert_eq!(t.models_consulted, Vec::<String>::new());
        assert_eq!(t.sentences_dropped, 2);
    }

    #[test]
    fn outages_trip_the_breaker_and_later_calls_are_skipped() {
        let r = faulty(
            DetectorConfig::default(),
            [FaultProfile::none(11), FaultProfile::down(12)],
        );
        // default breaker trips after 4 consecutive failures; 2 sentences per
        // call = 2 failures per response for the dead model
        let mut trips = 0;
        let mut skips = 0;
        for _ in 0..4 {
            let v = r.score(Q, CTX, PARTIAL);
            let t = v.telemetry();
            trips += t.breaker_trips;
            skips += t.breaker_skips;
        }
        assert!(trips >= 1, "dead model must trip its breaker");
        assert!(skips >= 1, "open breaker must skip calls");
        let health = r.health();
        assert_eq!(health[0].state, BreakerState::Closed);
        assert!(health[0].failures == 0);
        assert!(health[1].failures > 0);
    }

    #[test]
    fn transient_faults_are_retried_and_scores_survive() {
        let r = faulty(
            DetectorConfig::default(),
            [
                FaultProfile {
                    transient_rate: 0.5,
                    ..FaultProfile::none(7)
                },
                FaultProfile::none(12),
            ],
        );
        let mut retries = 0;
        let mut scored = 0;
        for resp in [CORRECT, PARTIAL, WRONG] {
            let v = r.score(Q, CTX, resp);
            retries += v.telemetry().retries;
            if !v.is_abstain() {
                scored += 1;
            }
        }
        assert!(retries > 0, "50% transient rate must cause retries");
        assert_eq!(scored, 3, "retries should rescue transient failures");
    }

    #[test]
    fn garbage_scores_are_quarantined() {
        let r = faulty(
            DetectorConfig::default(),
            [
                FaultProfile {
                    garbage_rate: 1.0,
                    ..FaultProfile::none(7)
                },
                FaultProfile::none(12),
            ],
        );
        let v = r.score(Q, CTX, PARTIAL);
        let t = v.telemetry();
        assert!(t.quarantined > 0);
        // every surviving raw score is a valid probability or the sentinel
        if let Verdict::Scored(result) = &v {
            for s in &result.sentences {
                for &p in &s.raw {
                    assert!(p == MISSING_SCORE || valid_probability(p), "{p}");
                }
            }
        }
    }

    #[test]
    fn stalled_calls_time_out() {
        let r = faulty(
            DetectorConfig::default(),
            [
                FaultProfile {
                    stall_rate: 1.0,
                    ..FaultProfile::none(7)
                },
                FaultProfile::none(12),
            ],
        );
        let v = r.score(Q, CTX, PARTIAL);
        let t = v.telemetry();
        assert!(t.timeouts > 0, "a 40x stall must blow the 120ms deadline");
        // model 1 still carries the verdict
        assert!(!v.is_abstain());
    }

    #[test]
    fn parallel_matches_sequential_under_faults() {
        let profiles = || {
            [
                FaultProfile::uniform(31, 0.3),
                FaultProfile {
                    transient_rate: 0.2,
                    ..FaultProfile::none(32)
                },
            ]
        };
        let seq = faulty(DetectorConfig::default(), profiles());
        let par = faulty(
            DetectorConfig {
                parallel: true,
                ..Default::default()
            },
            profiles(),
        );
        for resp in [CORRECT, PARTIAL, WRONG] {
            assert_eq!(seq.score(Q, CTX, resp), par.score(Q, CTX, resp), "{resp:?}");
        }
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let build = || {
            faulty(
                DetectorConfig::default(),
                [FaultProfile::uniform(5, 0.4), FaultProfile::uniform(6, 0.4)],
            )
        };
        let a = build();
        let b = build();
        for resp in [CORRECT, PARTIAL, WRONG] {
            assert_eq!(a.score(Q, CTX, resp), b.score(Q, CTX, resp));
        }
    }

    #[test]
    fn infinite_budget_is_bitwise_identical_to_score() {
        let a = resilient(DetectorConfig::default());
        let b = resilient(DetectorConfig::default());
        for resp in [CORRECT, PARTIAL, WRONG, ""] {
            assert_eq!(
                a.score(Q, CTX, resp),
                b.score_within(Q, CTX, resp, f64::INFINITY),
                "{resp:?}"
            );
        }
    }

    #[test]
    fn zero_budget_abstains_with_deadline_skips() {
        let r = resilient(DetectorConfig::default());
        let v = r.score_within(Q, CTX, PARTIAL, 0.0);
        assert!(v.is_abstain(), "no budget, no fabricated score");
        let t = v.telemetry();
        assert_eq!(t.deadline_skips, 2, "both sentences skipped");
        assert_eq!(t.sentences_dropped, 2);
        assert_eq!(t.attempts, 0, "nothing was attempted");
        assert_eq!(t.simulated_ms, 0.0, "nothing was charged");
        assert_eq!(t.degradation, DegradationLevel::Abstained);
    }

    #[test]
    fn tight_budget_scores_a_prefix_and_degrades_partially() {
        // A positive-but-negligible budget admits the first sentence (cost
        // accrues only after an attempt) and expires before the second, so
        // the verdict is a deterministic one-sentence prefix.
        let r = resilient(DetectorConfig::default());
        let v = r.score_within(Q, CTX, PARTIAL, 0.001);
        let t = v.telemetry().clone();
        let result = v.into_result().expect("prefix must be scored");
        assert_eq!(result.sentences.len(), 1, "only the first sentence fits");
        assert_eq!(t.deadline_skips, 1);
        assert_eq!(t.degradation, DegradationLevel::Partial);
    }

    #[test]
    fn deadline_scoring_is_deterministic() {
        let run = || {
            let r = faulty(
                DetectorConfig::default(),
                [FaultProfile::uniform(5, 0.3), FaultProfile::uniform(6, 0.3)],
            );
            [40.0, 80.0, 200.0].map(|budget| r.score_within(Q, CTX, PARTIAL, budget))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn breakers_are_untouched_by_deadline_skips() {
        let r = faulty(
            DetectorConfig::default(),
            [FaultProfile::none(11), FaultProfile::down(12)],
        );
        let before = r.health();
        let v = r.score_within(Q, CTX, PARTIAL, 0.0);
        assert!(v.is_abstain());
        assert_eq!(
            r.health(),
            before,
            "skipped sentences must not feed breaker state"
        );
    }

    #[test]
    fn batch_processes_in_order() {
        let r = resilient(DetectorConfig::default());
        let out = r.score_batch(&[(Q, CTX, CORRECT), (Q, CTX, WRONG)]);
        assert_eq!(out.len(), 2);
        assert!(out[0].score().unwrap() > out[1].score().unwrap());
    }

    #[test]
    fn cached_scoring_is_bitwise_identical_under_faults() {
        use slm_runtime::cache::{CacheConfig, VerificationCache};
        let profiles = || {
            [
                FaultProfile::uniform(31, 0.3),
                FaultProfile::uniform(32, 0.2),
            ]
        };
        let plain = faulty(DetectorConfig::default(), profiles());
        let mut cached = faulty(DetectorConfig::default(), profiles());
        let cache = Arc::new(VerificationCache::new(CacheConfig::default()));
        cached.set_cache(Arc::clone(&cache));
        // Score the same responses repeatedly: the second pass is served
        // from cache yet must reproduce every bit, including telemetry.
        for _ in 0..2 {
            for resp in [CORRECT, PARTIAL, WRONG] {
                assert_eq!(
                    plain.score(Q, CTX, resp),
                    cached.score(Q, CTX, resp),
                    "{resp:?}"
                );
            }
        }
        let stats = cache.stats();
        assert!(stats.hits > 0, "second pass must hit the cache");
    }

    /// The distinct (model, sentence) cells of `items`, which all share one
    /// (question, context) prefix.
    fn distinct_cells(
        d: &ResilientDetector,
        items: &[(&str, &str, &str)],
    ) -> std::collections::HashSet<(usize, String)> {
        items
            .iter()
            .flat_map(|(_, _, r)| d.split(r))
            .flat_map(|s| (0..d.num_models()).map(move |m| (m, s.clone())))
            .collect()
    }

    #[test]
    fn score_all_matches_score_batch_bitwise() {
        use slm_runtime::cache::{CacheConfig, VerificationCache};
        let profiles = || [FaultProfile::uniform(41, 0.3), FaultProfile::none(42)];
        let items: Vec<(&str, &str, &str)> = vec![
            (Q, CTX, CORRECT),
            (Q, CTX, WRONG),
            (Q, CTX, CORRECT), // duplicate item: coalesced by the engine
            (Q, CTX, PARTIAL),
        ];
        let sequential = faulty(DetectorConfig::default(), profiles());
        let mut batched = faulty(
            DetectorConfig {
                parallel: true,
                ..Default::default()
            },
            profiles(),
        );
        let cache = Arc::new(VerificationCache::new(CacheConfig::default()));
        batched.set_cache(Arc::clone(&cache));
        let unique = distinct_cells(&sequential, &items).len() as u64;
        assert_eq!(sequential.score_batch(&items), batched.score_all(&items));
        // One lookup per distinct cell, none twice: duplicates coalesced in
        // the engine, and there is no second pass to hit the cache.
        let first = cache.stats();
        assert_eq!(first.hits, 0, "{first:?}");
        assert_eq!(first.misses, unique, "{first:?}");
        assert_eq!(first.inserts + first.rejected, unique, "{first:?}");
        // The same batch again (breakers have moved on, identically on both
        // sides): every memoized cell hits, only the uncacheable re-probe.
        assert_eq!(sequential.score_batch(&items), batched.score_all(&items));
        let second = cache.stats();
        assert_eq!(second.hits, first.inserts, "{second:?}");
        assert_eq!(second.misses - first.misses, first.rejected, "{second:?}");
    }

    /// A verifier that counts its probes per (model, sentence) cell.
    struct Counting {
        inner: Box<dyn YesNoVerifier>,
        probes: Arc<Mutex<std::collections::HashMap<(String, String), usize>>>,
    }

    impl YesNoVerifier for Counting {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn p_yes(&self, request: &VerificationRequest<'_>) -> f64 {
            let cell = (self.name().to_string(), request.response.to_string());
            *self
                .probes
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(cell)
                .or_default() += 1;
            self.inner.p_yes(request)
        }
    }

    #[test]
    fn uncached_score_all_probes_each_distinct_cell_once() {
        let probes = Arc::new(Mutex::new(std::collections::HashMap::new()));
        let counting = |inner: Box<dyn YesNoVerifier>| -> Box<dyn YesNoVerifier> {
            Box::new(Counting {
                inner,
                probes: Arc::clone(&probes),
            })
        };
        let batched = reliable(
            vec![
                counting(Box::new(qwen2_sim())),
                counting(Box::new(minicpm_sim())),
            ],
            DetectorConfig {
                parallel: true,
                ..Default::default()
            },
        );
        let sequential = reliable(
            vec![Box::new(qwen2_sim()), Box::new(minicpm_sim())],
            DetectorConfig::default(),
        );
        let items: Vec<(&str, &str, &str)> = [CORRECT, PARTIAL, WRONG, CORRECT, "", PARTIAL]
            .iter()
            .map(|&r| (Q, CTX, r))
            .collect();
        // forget the calibration probes
        probes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        assert!(batched.cache().is_none());
        assert_eq!(sequential.score_batch(&items), batched.score_all(&items));
        let names = batched.model_names();
        let want: std::collections::HashMap<(String, String), usize> =
            distinct_cells(&batched, &items)
                .into_iter()
                .map(|(m, s)| ((names[m].to_string(), s), 1))
                .collect();
        let got = probes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        assert_eq!(got, want, "each distinct cell probed exactly once");
    }

    #[test]
    fn calibrate_batch_matches_sequential_calibration_bitwise() {
        let profiles = || {
            [
                FaultProfile::uniform(51, 0.25),
                FaultProfile::uniform(52, 0.25),
            ]
        };
        let build = || {
            let [p0, p1] = profiles();
            let verifiers: Vec<Box<dyn FallibleVerifier>> = vec![
                Box::new(FaultInjector::new(Reliable::new(qwen2_sim()), p0)),
                Box::new(FaultInjector::new(Reliable::new(minicpm_sim()), p1)),
            ];
            ResilientDetector::try_new(verifiers, DetectorConfig::default()).unwrap()
        };
        let mut sequential = build();
        for r in CAL {
            sequential.calibrate(Q, CTX, r);
        }
        let mut batched = build();
        batched.config.parallel = true;
        let items: Vec<(&str, &str, &str)> = CAL.iter().map(|&r| (Q, CTX, r)).collect();
        let report = batched.calibrate_batch(&items);
        assert_eq!(
            batched.normalizer(),
            sequential.normalizer(),
            "z-score state must match bitwise"
        );
        assert!(
            report.jobs >= CAL.len() * 2,
            "at least one sentence x 2 models per item"
        );
        // Identical verdicts afterwards.
        for resp in [CORRECT, PARTIAL, WRONG] {
            assert_eq!(sequential.score(Q, CTX, resp), batched.score(Q, CTX, resp));
        }
    }

    #[test]
    fn prefetch_never_touches_breakers_or_normalizer() {
        use slm_runtime::cache::{CacheConfig, VerificationCache};
        let mut r = faulty(
            DetectorConfig::default(),
            [FaultProfile::uniform(61, 0.4), FaultProfile::down(62)],
        );
        r.set_cache(Arc::new(VerificationCache::new(CacheConfig::default())));
        let health_before = r.health();
        let normalizer_before = r.normalizer().clone();
        let report = r.prefetch(&[(Q, CTX, CORRECT), (Q, CTX, PARTIAL)]);
        assert!(report.jobs > 0);
        assert_eq!(r.health(), health_before);
        assert_eq!(r.normalizer(), &normalizer_before);
    }

    #[test]
    fn empty_verifier_set_is_rejected() {
        let Err(err) = ResilientDetector::try_new(Vec::new(), DetectorConfig::default()) else {
            panic!("empty verifier set must be rejected")
        };
        assert_eq!(err, DetectorError::NoVerifiers);
    }

    #[test]
    fn instrumentation_is_bitwise_neutral() {
        let profiles = || [FaultProfile::uniform(5, 0.4), FaultProfile::uniform(6, 0.4)];
        let bare = faulty(DetectorConfig::default(), profiles());
        let obs = Obs::new();
        let mut instrumented = faulty(DetectorConfig::default(), profiles());
        instrumented.set_obs(&obs);
        obs.begin_flight("neutrality");
        for resp in [CORRECT, PARTIAL, WRONG, ""] {
            assert_eq!(
                bare.score(Q, CTX, resp),
                instrumented.score(Q, CTX, resp),
                "{resp:?}"
            );
            assert_eq!(
                bare.score_within(Q, CTX, resp, 60.0),
                instrumented.score_within(Q, CTX, resp, 60.0),
                "{resp:?} budgeted"
            );
        }
        let items: Vec<(&str, &str, &str)> = [WRONG, "", CORRECT, PARTIAL, WRONG]
            .iter()
            .map(|&r| (Q, CTX, r))
            .collect();
        assert_eq!(
            bare.score_all(&items),
            instrumented.score_all(&items),
            "batched"
        );
        obs.end_flight("done");
        assert!(
            !obs.flight_records()[0].events.is_empty(),
            "instrumented run must actually record"
        );
    }

    #[test]
    fn totals_equal_summed_telemetry() {
        const EVENTS: [&str; 8] = [
            "attempts",
            "retries",
            "timeouts",
            "quarantined",
            "breaker_trips",
            "breaker_skips",
            "sentences_dropped",
            "deadline_skips",
        ];
        let obs = Obs::new();
        let mut r = faulty(
            DetectorConfig::default(),
            [FaultProfile::uniform(5, 0.4), FaultProfile::down(12)],
        );
        r.set_obs(&obs);
        let mut want_events = [0u64; 8];
        let mut want_by_degradation = [0u64; 4];
        let mut want_simulated_ms = 0.0;
        for resp in [CORRECT, PARTIAL, WRONG, CORRECT, WRONG] {
            for budget in [f64::INFINITY, 40.0] {
                let v = r.score_within(Q, CTX, resp, budget);
                let t = v.telemetry();
                let counts = [
                    t.attempts,
                    t.retries,
                    t.timeouts,
                    t.quarantined,
                    t.breaker_trips,
                    t.breaker_skips,
                    t.sentences_dropped,
                    t.deadline_skips,
                ];
                for (sum, n) in want_events.iter_mut().zip(counts) {
                    *sum += n;
                }
                want_simulated_ms += (t.simulated_ms * 1000.0).round() / 1000.0;
                let slot = match t.degradation {
                    DegradationLevel::Full => 0,
                    DegradationLevel::Degraded => 1,
                    DegradationLevel::Partial => 2,
                    DegradationLevel::Abstained => 3,
                };
                want_by_degradation[slot] += 1;
            }
        }
        let snap = obs.metrics_snapshot();
        let series =
            |name: &str, labels: &[(&str, &str)]| snap.value(name, labels).unwrap_or(0.0) as u64;
        let got_events =
            EVENTS.map(|event| series("hallu_detector_events_total", &[("event", event)]));
        let got_by_degradation = ["full", "degraded", "partial", "abstained"]
            .map(|level| series("hallu_detector_verdicts_total", &[("degradation", level)]));
        // simulated_ms goes through µs fixed-point on both sides; compare
        // with that quantization applied
        let got_simulated_ms = snap.total("hallu_detector_simulated_us_total") / 1000.0;
        assert!(
            (got_simulated_ms - want_simulated_ms).abs() < 0.002,
            "{got_simulated_ms} vs {want_simulated_ms}"
        );
        assert_eq!(
            snap.total("hallu_detector_verdicts_total") as u64,
            10,
            "one verdict per scoring call"
        );
        assert_eq!(
            (got_events, got_by_degradation),
            (want_events, want_by_degradation),
            "registry series must equal the summed telemetry records"
        );
    }

    #[test]
    fn normalizer_transplant_respects_model_count() {
        let mut r = resilient(DetectorConfig::default());
        assert!(r.try_set_normalizer(ModelNormalizer::new(3)).is_err());
        assert!(r.try_set_normalizer(ModelNormalizer::new(2)).is_ok());
    }
}
