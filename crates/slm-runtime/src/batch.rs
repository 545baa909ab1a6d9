//! Batched multi-model scoring: deterministic fan-out with an ordered merge.
//!
//! The paper's hot path (Eq. 2–6) scores every sentence of every response
//! with every SLM in the ensemble, so an N-response workload is a flat list
//! of (model, question, context, sentence) probe jobs — most of them
//! near-duplicates. [`BatchEngine`] turns that list into per-model batches
//! ([`BatchEngine::plan`]), coalesces exact-duplicate jobs so each unique
//! cell is evaluated once, and executes the unique jobs on a
//! work-partitioned pool of scoped threads.
//!
//! **Determinism contract.** The engine never changes *what* is computed,
//! only *where*: results are written into a slot array indexed by submission
//! position (the ordered merge), so the output vector is bitwise-identical to
//! evaluating jobs one by one in submission order — provided the evaluator
//! is a pure function of the job. That is exactly the contract
//! [`crate::fallible::FallibleVerifier::try_p_yes_attempt`] provides; probe
//! episodes built on it are safe to batch, reorder across workers, coalesce,
//! and memoize (see [`crate::cache`]) without the ensemble ever observing a
//! difference. Worker count affects wall-clock time only, never output bits.

use crate::verifier::VerificationRequest;

/// The result of one probe episode (a retry loop around a fallible verifier)
/// for a single (model, sentence) cell.
///
/// This is the unit the batch engine evaluates and the verification cache
/// memoizes. All fields are pure functions of the cell under the
/// episode-purity contract, including `simulated_ms` — replaying a cached
/// outcome reproduces the virtual-time cost of recomputing it, which keeps
/// deadline and shedding decisions downstream bitwise-identical.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProbeOutcome {
    /// The probability the episode settled on, if any attempt succeeded.
    /// May be garbage (non-finite, outside `[0, 1]`); the scoring layer
    /// quarantines such values, and the cache refuses to memoize them.
    pub score: Option<f64>,
    /// Attempts made (1 = first try succeeded).
    pub attempts: u64,
    /// Retries after retryable errors.
    pub retries: u64,
    /// Attempts that exceeded the latency budget.
    pub timeouts: u64,
    /// Total simulated milliseconds consumed: latencies, timeout costs,
    /// backoff sleeps.
    pub simulated_ms: f64,
}

impl ProbeOutcome {
    /// Whether this outcome is a valid, memoizable verification score: an
    /// episode that settled on a finite probability in `[0, 1]`. Failed and
    /// garbage episodes are not cacheable — re-probing them is byte-identical
    /// anyway (episode purity), and refusing them keeps fault payloads from
    /// ever poisoning the cache.
    pub fn is_cacheable(&self) -> bool {
        matches!(self.score, Some(p) if p.is_finite() && (0.0..=1.0).contains(&p))
    }
}

/// One pending verification job: which model slot should score which
/// (question, context, sentence) cell.
#[derive(Debug, Clone)]
pub struct BatchJob<'a> {
    /// Index of the model in the caller's verifier ensemble.
    pub model: usize,
    /// The cell to score.
    pub request: VerificationRequest<'a>,
}

impl<'a> BatchJob<'a> {
    /// Build a job.
    pub fn new(model: usize, request: VerificationRequest<'a>) -> Self {
        Self { model, request }
    }

    /// The dedup identity of this job: two jobs with equal identity would
    /// produce bitwise-equal outcomes under a pure evaluator, so only the
    /// first needs to run.
    fn identity(&self) -> (usize, &'a str, &'a str, &'a str) {
        (
            self.model,
            self.request.question,
            self.request.context,
            self.request.response,
        )
    }
}

/// The jobs assigned to one model, in submission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelBatch {
    /// Model slot this batch targets.
    pub model: usize,
    /// Indices into the submitted job list, ascending.
    pub jobs: Vec<usize>,
}

/// The jobs of one model sharing one `(question, context)` prefix, in
/// submission order. This is the granularity the shared-prefix KV cache
/// ([`crate::paged::PagedPrefixCache`]) exploits: every job in a group prefills
/// the same prompt prefix, so evaluating a group contiguously makes its first
/// job build the snapshot and the rest fork it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixGroup {
    /// Model slot all jobs in this group target.
    pub model: usize,
    /// Indices into the submitted job list, ascending.
    pub jobs: Vec<usize>,
}

/// What one [`BatchEngine::run`] call did, for telemetry and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchReport {
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs that were actually evaluated after coalescing duplicates.
    pub unique_jobs: usize,
    /// Per-model batches formed.
    pub batches: usize,
    /// Jobs answered by copying another job's result (`jobs - unique_jobs`).
    pub coalesced: usize,
    /// Worker threads the unique jobs were partitioned across.
    pub workers: usize,
    /// Distinct (model, question, context) prefix groups in the plan.
    pub prefix_groups: usize,
}

/// Deterministic batched executor for verification jobs.
///
/// See the module docs for the determinism contract. The engine is
/// configuration-only (no queues, no state), so it is cheap to construct per
/// call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchEngine {
    workers: usize,
}

impl BatchEngine {
    /// An engine that evaluates everything inline on the caller's thread.
    pub fn sequential() -> Self {
        Self { workers: 1 }
    }

    /// An engine that partitions unique jobs across up to `workers` scoped
    /// threads (clamped to at least 1).
    pub fn parallel(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// Configured worker cap.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Group jobs into per-model batches, preserving submission order within
    /// each batch. Batches are emitted in order of each model's first
    /// appearance, so planning is itself deterministic.
    pub fn plan(jobs: &[BatchJob<'_>]) -> Vec<ModelBatch> {
        let mut batches: Vec<ModelBatch> = Vec::new();
        for (idx, job) in jobs.iter().enumerate() {
            match batches.iter_mut().find(|b| b.model == job.model) {
                Some(batch) => batch.jobs.push(idx),
                None => batches.push(ModelBatch {
                    model: job.model,
                    jobs: vec![idx],
                }),
            }
        }
        batches
    }

    /// Refine [`BatchEngine::plan`] one level: within each model's batch,
    /// group jobs by `(question, context)` prefix in first-appearance order.
    /// The order is model-major and prefix-contiguous — flattening the groups
    /// gives the evaluation order [`BatchEngine::run`] uses, so same-prefix
    /// cells land adjacent (and therefore, chunk boundaries aside, on the
    /// same worker, where the first probe builds the prefix KV snapshot and
    /// the rest hit it).
    pub fn plan_prefix_groups(jobs: &[BatchJob<'_>]) -> Vec<PrefixGroup> {
        let mut out: Vec<PrefixGroup> = Vec::new();
        for batch in Self::plan(jobs) {
            let start = out.len();
            for &idx in &batch.jobs {
                let key = (jobs[idx].request.question, jobs[idx].request.context);
                let existing = out[start..].iter_mut().find(|g| {
                    let first = g.jobs[0];
                    (jobs[first].request.question, jobs[first].request.context) == key
                });
                match existing {
                    Some(group) => group.jobs.push(idx),
                    None => out.push(PrefixGroup {
                        model: batch.model,
                        jobs: vec![idx],
                    }),
                }
            }
        }
        out
    }

    /// Evaluate all jobs and return their results in submission order,
    /// coalescing exact-duplicate jobs (same model, question, context,
    /// sentence) so each unique cell is evaluated exactly once.
    ///
    /// `eval` must be pure per the module determinism contract; under that
    /// contract the returned vector is bitwise-identical to
    /// `jobs.iter().map(eval).collect()` regardless of worker count.
    pub fn run<R, F>(&self, jobs: &[BatchJob<'_>], eval: F) -> (Vec<R>, BatchReport)
    where
        R: Send + Clone,
        F: Fn(&BatchJob<'_>) -> R + Sync,
    {
        let batches = Self::plan(jobs);
        let groups = Self::plan_prefix_groups(jobs);

        // Coalesce duplicates: rep[i] is the position in `unique` of the
        // first submitted job with the same identity as job i. Evaluation
        // order walks the prefix-group plan (model-major,
        // prefix-contiguous), so each model's unique jobs stay contiguous
        // AND cells sharing a (question, context) prefix sit adjacent — the
        // order that lets a shared-prefix KV cache prefill each prefix
        // once. Reordering evaluation is output-invariant: the
        // representative fan-out below restores submission order.
        let mut rep: Vec<usize> = vec![0; jobs.len()];
        let mut covered = 0usize;
        let mut unique: Vec<usize> = Vec::with_capacity(jobs.len());
        for group in &groups {
            for &idx in &group.jobs {
                covered += 1;
                let identity = jobs[idx].identity();
                match unique.iter().position(|&u| jobs[u].identity() == identity) {
                    Some(pos) => rep[idx] = pos,
                    None => {
                        rep[idx] = unique.len();
                        unique.push(idx);
                    }
                }
            }
        }
        debug_assert_eq!(covered, jobs.len(), "prefix groups must cover every job");

        let workers = self.workers.min(unique.len()).max(1);
        let report = BatchReport {
            jobs: jobs.len(),
            unique_jobs: unique.len(),
            batches: batches.len(),
            coalesced: jobs.len() - unique.len(),
            workers,
            prefix_groups: groups.len(),
        };

        if jobs.is_empty() {
            return (Vec::new(), report);
        }

        // Evaluate unique jobs: inline when there is no parallelism to
        // exploit, otherwise contiguous index chunks on scoped threads. Each
        // chunk returns results in chunk order; concatenation restores the
        // unique-list order, and the slot scatter below restores submission
        // order — the ordered merge.
        let evaluated: Vec<R> = if workers <= 1 {
            unique.iter().map(|&idx| eval(&jobs[idx])).collect()
        } else {
            let chunk_len = unique.len().div_ceil(workers);
            let chunks: Vec<&[usize]> = unique.chunks(chunk_len).collect();
            std::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .into_iter()
                    .map(|chunk| {
                        scope.spawn(|| {
                            chunk
                                .iter()
                                .map(|&idx| eval(&jobs[idx]))
                                .collect::<Vec<R>>()
                        })
                    })
                    .collect();
                let mut out = Vec::with_capacity(unique.len());
                for handle in handles {
                    match handle.join() {
                        Ok(part) => out.extend(part),
                        Err(panic) => std::panic::resume_unwind(panic),
                    }
                }
                out
            })
        };

        // Fan out to submission order: every job clones its
        // representative's result straight from the unique evaluation.
        let results: Vec<R> = rep.iter().map(|&pos| evaluated[pos].clone()).collect();
        (results, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs_from<'a>(cells: &'a [(usize, &'a str)]) -> Vec<BatchJob<'a>> {
        cells
            .iter()
            .map(|&(m, r)| BatchJob::new(m, VerificationRequest::new("q", "c", r)))
            .collect()
    }

    /// A pure evaluator whose output encodes the job, so reordering or
    /// miscounting evaluations is visible in the result bits.
    fn tag(job: &BatchJob<'_>) -> String {
        format!("{}:{}", job.model, job.request.response)
    }

    #[test]
    fn plan_groups_by_model_preserving_order() {
        let jobs = jobs_from(&[(1, "a"), (0, "b"), (1, "c"), (2, "d"), (0, "e")]);
        let batches = BatchEngine::plan(&jobs);
        assert_eq!(
            batches,
            vec![
                ModelBatch {
                    model: 1,
                    jobs: vec![0, 2]
                },
                ModelBatch {
                    model: 0,
                    jobs: vec![1, 4]
                },
                ModelBatch {
                    model: 2,
                    jobs: vec![3]
                },
            ]
        );
    }

    #[test]
    fn prefix_groups_are_model_major_and_prefix_contiguous() {
        let mk = |m: usize, q: &'static str, r: &'static str| {
            BatchJob::new(m, VerificationRequest::new(q, "c", r))
        };
        let jobs = vec![
            mk(0, "q1", "a"),
            mk(1, "q1", "b"),
            mk(0, "q2", "c"),
            mk(0, "q1", "d"),
            mk(1, "q1", "e"),
        ];
        let groups = BatchEngine::plan_prefix_groups(&jobs);
        assert_eq!(
            groups,
            vec![
                PrefixGroup {
                    model: 0,
                    jobs: vec![0, 3]
                },
                PrefixGroup {
                    model: 0,
                    jobs: vec![2]
                },
                PrefixGroup {
                    model: 1,
                    jobs: vec![1, 4]
                },
            ]
        );
    }

    #[test]
    fn evaluation_order_keeps_same_prefix_cells_adjacent() {
        use std::sync::Mutex;
        let mk = |m: usize, q: &'static str, r: &'static str| {
            BatchJob::new(m, VerificationRequest::new(q, "c", r))
        };
        // Submission interleaves two prefixes of one model.
        let jobs = vec![
            mk(0, "q1", "a"),
            mk(0, "q2", "b"),
            mk(0, "q1", "c"),
            mk(0, "q2", "d"),
        ];
        let order: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let (results, report) = BatchEngine::sequential().run(&jobs, |job| {
            order
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(job.request.question.to_string());
            tag(job)
        });
        // Output stays in submission order ...
        assert_eq!(results, vec!["0:a", "0:b", "0:c", "0:d"]);
        // ... but evaluation visits each prefix's jobs back to back.
        assert_eq!(
            order.into_inner().unwrap_or_default(),
            vec!["q1", "q1", "q2", "q2"]
        );
        assert_eq!(report.prefix_groups, 2);
    }

    #[test]
    fn run_returns_results_in_submission_order() {
        let jobs = jobs_from(&[(1, "a"), (0, "b"), (1, "c"), (2, "d")]);
        let (results, report) = BatchEngine::sequential().run(&jobs, tag);
        assert_eq!(results, vec!["1:a", "0:b", "1:c", "2:d"]);
        assert_eq!(report.jobs, 4);
        assert_eq!(report.unique_jobs, 4);
        assert_eq!(report.batches, 3);
        assert_eq!(report.coalesced, 0);
    }

    #[test]
    fn duplicates_are_coalesced_to_one_evaluation() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let jobs = jobs_from(&[(0, "a"), (0, "a"), (1, "a"), (0, "a"), (1, "b")]);
        for engine in [BatchEngine::sequential(), BatchEngine::parallel(4)] {
            let evals = AtomicUsize::new(0);
            let (results, report) = engine.run(&jobs, |job| {
                evals.fetch_add(1, Ordering::Relaxed);
                tag(job)
            });
            assert_eq!(
                results,
                vec!["0:a", "0:a", "1:a", "0:a", "1:b"],
                "{engine:?}"
            );
            assert_eq!(evals.load(Ordering::Relaxed), 3, "{engine:?}");
            assert_eq!(report.unique_jobs, 3, "{engine:?}");
            assert_eq!(report.coalesced, 2, "{engine:?}");
        }
    }

    #[test]
    fn parallel_output_is_bitwise_identical_to_sequential() {
        // 97 distinct cells, and 131 cells over 4 models and 23 sentences
        // of which 39 repeat an earlier cell, so the fan-out from coalesced
        // representatives runs across workers too.
        let distinct: Vec<(usize, String)> = (0..97)
            .map(|i| (i % 5, format!("sentence number {i}")))
            .collect();
        let repeating: Vec<(usize, String)> = (0..131)
            .map(|i| (i % 4, format!("cell {}", i % 23)))
            .collect();
        // f64 output so "bitwise" means float bits, like real scores.
        let eval = |job: &BatchJob<'_>| {
            let mut acc = 0.017_f64;
            for (i, b) in job.request.response.bytes().enumerate() {
                acc = (acc + f64::from(b) * 1e-3).sin() + job.model as f64 * 1e-2 + i as f64 * 1e-6;
            }
            acc
        };
        for (cells, coalesced) in [(&distinct, 0), (&repeating, 39)] {
            let borrowed: Vec<(usize, &str)> =
                cells.iter().map(|(m, r)| (*m, r.as_str())).collect();
            let jobs = jobs_from(&borrowed);
            let (seq, seq_report) = BatchEngine::sequential().run(&jobs, eval);
            assert_eq!(seq_report.coalesced, coalesced);
            let seq_bits: Vec<u64> = seq.iter().map(|s| s.to_bits()).collect();
            for workers in [1, 2, 3, 7, 8, 32, 64] {
                let (par, report) = BatchEngine::parallel(workers).run(&jobs, eval);
                let par_bits: Vec<u64> = par.iter().map(|s| s.to_bits()).collect();
                assert_eq!(seq_bits, par_bits, "workers = {workers}");
                assert!(report.workers <= workers);
                // The worker count never changes the dedup plan.
                assert_eq!(
                    BatchReport {
                        workers: seq_report.workers,
                        ..report
                    },
                    seq_report,
                    "workers = {workers}"
                );
            }
        }
    }

    #[test]
    fn empty_and_single_job_edge_cases() {
        let (results, report) = BatchEngine::parallel(8).run(&[], tag);
        assert!(results.is_empty());
        assert_eq!(report.jobs, 0);
        assert_eq!(report.unique_jobs, 0);

        let jobs = jobs_from(&[(3, "only")]);
        let (results, report) = BatchEngine::parallel(8).run(&jobs, tag);
        assert_eq!(results, vec!["3:only"]);
        assert_eq!(report.workers, 1);
    }

    #[test]
    fn probe_outcome_cacheability() {
        let ok = ProbeOutcome {
            score: Some(0.5),
            attempts: 1,
            ..ProbeOutcome::default()
        };
        assert!(ok.is_cacheable());
        for bad in [f64::NAN, f64::INFINITY, -0.25, 1.5] {
            let out = ProbeOutcome {
                score: Some(bad),
                ..ok
            };
            assert!(!out.is_cacheable(), "{bad} must not be cacheable");
        }
        assert!(!ProbeOutcome::default().is_cacheable());
        // Boundary probabilities are valid scores.
        for p in [0.0, 1.0] {
            let out = ProbeOutcome {
                score: Some(p),
                ..ok
            };
            assert!(out.is_cacheable(), "{p} is a valid probability");
        }
    }
}
