//! Batched multi-model scoring: deterministic fan-out with an ordered merge.
//!
//! The paper's hot path (Eq. 2–6) scores every sentence of every response
//! with every SLM in the ensemble, so an N-response workload is a flat list
//! of (model, question, context, sentence) probe jobs — most of them
//! near-duplicates. [`BatchEngine`] turns that list into per-model batches
//! ([`BatchEngine::plan`]) and, within each, prefix groups
//! ([`BatchEngine::plan_prefix_groups`]), coalesces exact-duplicate jobs so
//! each unique cell is evaluated once, and executes the unique jobs on scoped
//! worker threads that claim whole prefix groups, in plan order, from one
//! shared cursor. A group never straddles two workers, so its first job
//! builds the prefix KV snapshot and the rest fork it on the same thread; a
//! worker that finishes early takes the next group instead of idling.
//!
//! **Determinism contract.** The engine never changes *what* is computed,
//! only *where*: every result is tagged with its position in the unique list
//! and merged back by that position (the ordered merge), so the output
//! vector is bitwise-identical to evaluating jobs one by one in submission
//! order — provided the evaluator is a pure function of the job. That is
//! exactly the contract
//! [`crate::fallible::FallibleVerifier::try_p_yes_attempt`] provides; probe
//! episodes built on it are safe to batch, reorder across workers, coalesce,
//! and memoize (see [`crate::cache`]) without the ensemble ever observing a
//! difference. Worker count and claim order affect wall-clock time only,
//! never output bits.
//!
//! **Lending idle cores.** [`BatchEngine::run`] is the one scheduler of
//! probe threads, so it also decides when a probe's forward pass may take a
//! helper thread (the engine's two-span forward, in
//! [`crate::model::Transformer`]). One process-wide count holds the threads
//! probing for runs plus the helpers their forwards borrowed: the caller
//! while it evaluates inline, and each worker while it claims groups. Only
//! the inline caller lends: a thread-local flag marks it, and a forward on
//! it borrows a helper only while the count is below [`host_parallelism`],
//! with a compare-and-swap, and returns it on drop, unwinding included. So
//! an inline run on a two-core host splits every large enough forward,
//! while a run's workers never split: they already share the cores, and a
//! lone worker at the end of a call measured no gain from a helper. A
//! forward outside any run (a sweep, a bench, a direct `prefill`) never
//! splits either. The split moves no bit.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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
    /// Worker threads that claimed prefix groups: the configured cap, but
    /// never more than there are groups.
    pub workers: usize,
    /// Distinct (model, question, context) prefix groups in the plan.
    pub prefix_groups: usize,
}

/// The host's available parallelism, read once per process:
/// `available_parallelism` re-reads the cgroup limits on every call. Sizes
/// the detector's batch workers, the engine's LM-head threads and the cores
/// a run's forwards may borrow.
pub fn host_parallelism() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// A count of the cores probing threads hold, against a capacity: each
/// thread probing for a run, and each helper its forwards borrowed. The
/// count publishes no other data; its atomics only keep it exact.
pub(crate) struct Cores {
    busy: AtomicUsize,
    capacity: usize,
}

impl Cores {
    pub(crate) const fn new(capacity: usize) -> Self {
        Self {
            busy: AtomicUsize::new(0),
            capacity,
        }
    }

    /// The process-wide count, of capacity [`host_parallelism`].
    fn host() -> &'static Cores {
        static HOST: OnceLock<Cores> = OnceLock::new();
        HOST.get_or_init(|| Cores::new(host_parallelism()))
    }

    /// Count one more core held: a prober runs whether or not one is free.
    fn hold(&self) -> Held<'_> {
        self.busy.fetch_add(1, Ordering::AcqRel);
        Held(self)
    }

    /// Claim one more core, if fewer than the capacity are held.
    fn lend(&self) -> Option<Held<'_>> {
        let mut busy = self.busy.load(Ordering::Acquire);
        while busy < self.capacity {
            match self.busy.compare_exchange_weak(
                busy,
                busy + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(Held(self)),
                Err(now) => busy = now,
            }
        }
        None
    }
}

/// One core counted in a [`Cores`], released on drop (unwinding included).
struct Held<'a>(&'a Cores);

impl Drop for Held<'_> {
    fn drop(&mut self) {
        self.0.busy.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Why a thread may lend cores to its forwards.
#[derive(Clone, Copy)]
enum Prober {
    /// It evaluates a run inline, counted in these cores.
    Run(&'static Cores),
    /// A test forces every forward of two rows or more to split.
    #[cfg(test)]
    Forced,
}

thread_local! {
    /// Set while this thread evaluates a run inline (or a test forces
    /// splits).
    static PROBER: Cell<Option<Prober>> = const { Cell::new(None) };
}

/// Marks the current thread as a prober until dropped, holding its seat
/// in its run's cores.
struct Probing {
    _seat: Option<Held<'static>>,
    was: Option<Prober>,
}

impl Probing {
    fn enter(prober: Prober, seat: Option<Held<'static>>) -> Self {
        let was = PROBER.replace(Some(prober));
        Self { _seat: seat, was }
    }
}

/// A seat in `cores` for the current thread, unless it already evaluates
/// a run inline: an inline run nested in another's evaluation counts its
/// thread once. (A worker's seat is not marked, so an inline run nested in
/// a worker counts it twice, which can only stop a lend.)
fn seat(cores: &'static Cores) -> Option<Held<'static>> {
    PROBER.get().is_none().then(|| cores.hold())
}

impl Drop for Probing {
    fn drop(&mut self) {
        PROBER.set(self.was);
    }
}

/// A helper core lent to one block forward, returned on drop.
pub(crate) struct Lent {
    _held: Option<Held<'static>>,
}

/// Lend the current thread's forward of a `rows`-row block a helper core:
/// only on a thread evaluating a run inline, only for at least `min_rows`
/// rows, and only while its run's count is below capacity. A test that forces
/// the split gets one for any block of two rows or more.
pub(crate) fn lend_core(rows: usize, min_rows: usize) -> Option<Lent> {
    match PROBER.get()? {
        Prober::Run(cores) if rows >= min_rows => {
            cores.lend().map(|held| Lent { _held: Some(held) })
        }
        Prober::Run(_) => None,
        #[cfg(test)]
        Prober::Forced => (rows >= 2).then_some(Lent { _held: None }),
    }
}

/// Run `f` with every block forward of two rows or more on this thread
/// split, on any host: the parity tests' entry to the two-span forward.
#[cfg(test)]
pub(crate) fn forcing_split<R>(f: impl FnOnce() -> R) -> R {
    let _forced = Probing::enter(Prober::Forced, None);
    f()
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

    /// An engine that runs unique jobs on up to `workers` scoped threads
    /// (clamped to at least 1), each claiming whole prefix groups.
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
    /// The order is model-major and prefix-contiguous. It is the order in
    /// which [`BatchEngine::run`]'s workers claim groups, and a group is the
    /// unit they claim, so same-prefix cells always run back to back on one
    /// worker, where the first probe builds the prefix KV snapshot and the
    /// rest hit it.
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
    /// With more than one worker, each worker repeatedly claims the next
    /// whole prefix group of [`BatchEngine::plan_prefix_groups`] from a
    /// shared atomic cursor and evaluates its unique jobs in order. There is
    /// no cost model: plan order plus first-free-takes-next is the whole
    /// schedule.
    ///
    /// `eval` must be pure per the module determinism contract; under that
    /// contract the returned vector is bitwise-identical to
    /// `jobs.iter().map(eval).collect()` regardless of worker count.
    ///
    /// The threads that evaluate (the caller inline, or each worker) hold a
    /// core while they do; an inline caller's forwards may also borrow an
    /// idle one (see the module docs).
    pub fn run<R, F>(&self, jobs: &[BatchJob<'_>], eval: F) -> (Vec<R>, BatchReport)
    where
        R: Send + Clone,
        F: Fn(&BatchJob<'_>) -> R + Sync,
    {
        self.run_on(Cores::host(), jobs, eval)
    }

    /// [`BatchEngine::run`], its probing threads counted in `cores`.
    fn run_on<R, F>(
        &self,
        cores: &'static Cores,
        jobs: &[BatchJob<'_>],
        eval: F,
    ) -> (Vec<R>, BatchReport)
    where
        R: Send + Clone,
        F: Fn(&BatchJob<'_>) -> R + Sync,
    {
        let batches = Self::plan(jobs);
        let groups = Self::plan_prefix_groups(jobs);
        debug_assert_eq!(
            groups.iter().map(|g| g.jobs.len()).sum::<usize>(),
            jobs.len(),
            "prefix groups must cover every job"
        );

        // Coalesce duplicates: rep[i] is the position in `unique` of the
        // first submitted job with the same identity as job i. `unique`
        // walks the prefix-group plan, so each group's unique jobs form one
        // contiguous span, `spans[g]`. A duplicate shares its group's
        // (model, question, context), so only that group's span is searched.
        let mut rep: Vec<usize> = vec![0; jobs.len()];
        let mut unique: Vec<usize> = Vec::with_capacity(jobs.len());
        let mut spans: Vec<Range<usize>> = Vec::with_capacity(groups.len());
        for group in &groups {
            let start = unique.len();
            for &idx in &group.jobs {
                let identity = jobs[idx].identity();
                match unique[start..]
                    .iter()
                    .position(|&u| jobs[u].identity() == identity)
                {
                    Some(pos) => rep[idx] = start + pos,
                    None => {
                        rep[idx] = unique.len();
                        unique.push(idx);
                    }
                }
            }
            spans.push(start..unique.len());
        }

        let workers = self.workers.min(groups.len()).max(1);
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
        // exploit, otherwise on scoped threads that claim whole groups. Each
        // result carries its position in `unique`; sorting by it restores
        // the unique-list order, and the fan-out below restores submission
        // order — the ordered merge.
        let evaluated: Vec<R> = if workers <= 1 {
            let _probing = Probing::enter(Prober::Run(cores), seat(cores));
            unique.iter().map(|&idx| eval(&jobs[idx])).collect()
        } else {
            let next = AtomicUsize::new(0);
            let claim = || {
                let _seat = cores.hold();
                let mut done: Vec<(usize, R)> = Vec::new();
                while let Some(span) = spans.get(next.fetch_add(1, Ordering::Relaxed)) {
                    done.extend(span.clone().map(|pos| (pos, eval(&jobs[unique[pos]]))));
                }
                done
            };
            let mut claimed: Vec<(usize, R)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(claim)).collect();
                let mut out = Vec::with_capacity(unique.len());
                for handle in handles {
                    match handle.join() {
                        Ok(part) => out.extend(part),
                        Err(panic) => std::panic::resume_unwind(panic),
                    }
                }
                out
            });
            claimed.sort_unstable_by_key(|&(pos, _)| pos);
            claimed.into_iter().map(|(_, r)| r).collect()
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
    fn workers_never_split_a_prefix_group() {
        use std::collections::{HashMap, HashSet};
        use std::sync::{Barrier, Mutex};
        use std::thread::ThreadId;
        // 12 prefixes x 2 models = 24 groups of 3, 2 or 1 sentences, plus
        // one duplicate cell each, submitted sentence-major so every group
        // is interleaved with the others. The first group has more cells
        // than one, so a scheduler that hands out single cells splits it
        // at any worker count; the sizes are uneven, so contiguous chunks
        // of the unique list cut groups too.
        let questions: Vec<String> = (0..12).map(|i| format!("q{i}")).collect();
        let mut jobs: Vec<BatchJob<'_>> = Vec::new();
        for round in 0..4 {
            for (i, q) in questions.iter().enumerate() {
                let sentence = match round {
                    3 => "a",
                    r if r < 3 - i % 3 => ["a", "b", "c"][r],
                    _ => continue,
                };
                for model in 0..2 {
                    jobs.push(BatchJob::new(
                        model,
                        VerificationRequest::new(q, "c", sentence),
                    ));
                }
            }
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let eval = |job: &BatchJob<'_>| {
            let text = format!("{}{}", job.request.question, job.request.response);
            text.bytes().fold(0.3_f64, |acc, b| {
                (acc + f64::from(b)).sqrt() + job.model as f64
            })
        };
        let (seq, seq_report) = BatchEngine::sequential().run(&jobs, eval);
        assert_eq!(seq_report.prefix_groups, 24);
        assert_eq!(
            seq_report.coalesced, 24,
            "the repeated \"a\" of every group"
        );
        for workers in [2, 3, 8] {
            // Every thread's first evaluation waits until all `workers`
            // threads hold a group, so each worker provably takes part.
            let barrier = Barrier::new(workers);
            let started: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
            let owners: Mutex<HashMap<(usize, String), HashSet<ThreadId>>> =
                Mutex::new(HashMap::new());
            let (par, report) = BatchEngine::parallel(workers).run(&jobs, |job| {
                let me = std::thread::current().id();
                let first = started.lock().unwrap_or_else(|e| e.into_inner()).insert(me);
                owners
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .entry((
                        job.model,
                        format!("{}/{}", job.request.question, job.request.context),
                    ))
                    .or_default()
                    .insert(me);
                if first {
                    barrier.wait();
                }
                eval(job)
            });
            assert_eq!(report.workers, workers);
            assert_eq!(
                started.into_inner().unwrap_or_default().len(),
                workers,
                "workers = {workers}"
            );
            let owners = owners.into_inner().unwrap_or_default();
            assert_eq!(owners.len(), 24);
            for (group, threads) in &owners {
                assert_eq!(
                    threads.len(),
                    1,
                    "workers = {workers}: group {group:?} ran on {} threads",
                    threads.len()
                );
            }
            assert_eq!(bits(&par), bits(&seq), "workers = {workers}");
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

    /// A core count of capacity 2, like two pinned CPUs, on any host.
    fn two_cores() -> &'static Cores {
        Box::leak(Box::new(Cores::new(2)))
    }

    fn busy(cores: &Cores) -> usize {
        cores.busy.load(Ordering::Acquire)
    }

    /// Whether a forward of a 64-row block on this thread may split now.
    fn may_split() -> bool {
        lend_core(64, 8).is_some()
    }

    #[test]
    fn inline_runs_lend_a_core_and_threads_outside_never_borrow() {
        let cores = two_cores();
        assert!(!may_split(), "a thread outside any run");
        let jobs = jobs_from(&[(0, "a"), (1, "b")]);
        let (lent, _) = BatchEngine::sequential().run_on(cores, &jobs, |job| {
            let outside = std::thread::scope(|s| s.spawn(may_split).join().unwrap_or(true));
            assert!(!outside, "a thread the evaluator starts is outside the run");
            assert!(lend_core(4, 8).is_none(), "a block below the minimum");
            (job.model, may_split(), busy(cores))
        });
        assert_eq!(lent, vec![(0, true, 1), (1, true, 1)]);
        assert_eq!(busy(cores), 0, "the evaluator's seat is returned");
        assert!(!may_split(), "the run is over");
    }

    #[test]
    fn workers_hold_both_cores_and_never_borrow() {
        use std::sync::Barrier;
        let cores = two_cores();
        let mk = |q: &'static str| BatchJob::new(0, VerificationRequest::new(q, "c", "s"));
        let jobs = vec![mk("short"), mk("long")];
        // Both workers hold a group before either asks for a core, and
        // neither leaves before both asked.
        let both = Barrier::new(2);
        let (lent, report) = BatchEngine::parallel(2).run_on(cores, &jobs, |job| {
            both.wait();
            let while_both = (busy(cores), may_split());
            both.wait();
            if job.request.question == "short" {
                return (while_both, false);
            }
            // The other worker finds no group left and returns its core;
            // a lone worker still does not borrow it.
            while busy(cores) > 1 {
                std::thread::yield_now();
            }
            (while_both, may_split())
        });
        assert_eq!(report.workers, 2);
        assert_eq!(lent, vec![((2, false), false); 2]);
        assert_eq!(busy(cores), 0);
    }

    #[test]
    fn an_inline_run_borrows_the_core_another_run_returns() {
        use std::sync::Barrier;
        let cores = two_cores();
        let jobs = jobs_from(&[(0, "a")]);
        // Two inline runs on two threads hold both cores; neither may
        // borrow until the one that leaves first has returned its seat.
        let both = Barrier::new(2);
        let run = |stays: bool| {
            let (lent, _) = BatchEngine::sequential().run_on(cores, &jobs, |_| {
                both.wait();
                let while_both = may_split();
                both.wait();
                if !stays {
                    return (while_both, false);
                }
                while busy(cores) > 1 {
                    std::thread::yield_now();
                }
                (while_both, may_split())
            });
            lent
        };
        std::thread::scope(|s| {
            let leaves = s.spawn(|| run(false));
            let stays = s.spawn(|| run(true));
            assert_eq!(leaves.join().unwrap(), vec![(false, false)]);
            assert_eq!(stays.join().unwrap(), vec![(false, true)]);
        });
        assert_eq!(busy(cores), 0);
    }

    #[test]
    fn lent_cores_never_exceed_the_capacity_and_unwinding_returns_them() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        let cores = two_cores();
        let threads = 4;
        let start = Barrier::new(threads);
        let over = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..2000 {
                        if let Some(held) = cores.lend() {
                            over.fetch_or(busy(cores) > 2, Ordering::Relaxed);
                            drop(held);
                        }
                    }
                });
            }
        });
        assert!(!over.load(Ordering::Relaxed), "more cores lent than exist");
        assert_eq!(busy(cores), 0);

        let jobs = jobs_from(&[(0, "a")]);
        let unwound = std::panic::catch_unwind(|| {
            BatchEngine::sequential().run_on(cores, &jobs, |_| {
                let _helper = lend_core(64, 8);
                assert_eq!(busy(cores), 2);
                panic!("probe failed");
            })
        });
        assert!(unwound.is_err());
        assert_eq!(busy(cores), 0, "seats are returned on unwind");
        assert!(!may_split(), "the thread no longer probes");
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
