//! Batched multi-model scoring: deterministic fan-out with an ordered merge.
//!
//! The paper's hot path (Eq. 2–6) scores every sentence of every response
//! with every SLM in the ensemble, so an N-response workload is a flat list
//! of (model, question, context, sentence) probe jobs — most of them
//! near-duplicates. [`BatchEngine`] turns that list into per-model batches
//! ([`BatchEngine::plan`]) and, within each, prefix groups
//! ([`BatchEngine::plan_prefix_groups`]), coalesces exact-duplicate jobs so
//! each unique cell is evaluated once, and executes the unique jobs on the
//! calling thread and scoped threads beside it that claim whole prefix
//! groups, in plan order, from one shared cursor. A group never straddles
//! two threads, so its first job builds the prefix KV snapshot and the rest
//! fork it on the same thread; a thread that finishes early takes the next
//! group instead of idling.
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
//! **Idle cores.** [`BatchEngine::run`] is the one place that puts a
//! second core to work on probes, and a prefix group is the unit it moves:
//! the paper scores each member's cells on their own (Eq. 2–3) and combines
//! them only afterwards (Eq. 4–6), so one member's group is a whole piece
//! of work, and a forward pass stays on the thread that starts it. In every
//! run the calling thread claims groups itself. Beside it run either the
//! engine's other `workers − 1` scoped threads, or, for an inline engine
//! whose plan has at least two groups, one helper lent while a core is
//! idle. A process-wide count holds the threads claiming groups for runs:
//! each caller and worker, and each lent helper. The caller takes its seat
//! first and then asks for the helper's once, with a compare-and-swap that
//! succeeds only while the count is below [`host_parallelism`], so a
//! one-core host never lends. A thread holds its seat only while it claims,
//! and returns it when its claim loop ends, unwinding included. Neither
//! the helper nor the count moves a bit.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

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
    /// The engine's claiming threads, the caller among them: the
    /// configured cap, but never more than there are groups, so 1 for an
    /// inline run. A helper that an inline run borrows for an idle core is
    /// not counted, so the report depends on the jobs and the engine alone,
    /// never on the machine's load.
    pub workers: usize,
    /// Distinct (model, question, context) prefix groups in the plan.
    pub prefix_groups: usize,
}

/// The host's available parallelism, read once per process:
/// `available_parallelism` re-reads the cgroup limits on every call. Sizes
/// the detector's batch workers and the engine's LM-head threads, and caps
/// the threads that claim groups for runs, so an inline run borrows a
/// helper only for a core no claiming thread holds.
pub fn host_parallelism() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// A count of the cores that threads claiming groups for runs hold, against
/// a capacity: each run's caller and workers, and each helper an inline run
/// borrowed. A thread holds its seat only while it claims. The count
/// publishes no other data; its atomics only keep it exact.
struct Cores {
    busy: AtomicUsize,
    capacity: usize,
}

impl Cores {
    const fn new(capacity: usize) -> Self {
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

    /// Count one more core held: a caller or a worker claims whether or not
    /// one is free.
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
    /// An inline engine: the caller claims the groups itself, with one
    /// helper beside it while its plan has at least two groups and a core
    /// is idle (see the module docs).
    pub fn sequential() -> Self {
        Self { workers: 1 }
    }

    /// An engine that runs unique jobs on up to `workers` threads (clamped
    /// to at least 1), the caller and `workers − 1` scoped threads, each
    /// claiming whole prefix groups.
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
    /// which [`BatchEngine::run`]'s threads claim groups, and a group is the
    /// unit they claim, so same-prefix cells always run back to back on one
    /// thread, where the first probe builds the prefix KV snapshot and the
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
    /// The calling thread claims the next whole prefix group of
    /// [`BatchEngine::plan_prefix_groups`] from a shared atomic cursor and
    /// evaluates its unique jobs in order, until no group is left. Beside it
    /// run the engine's other `workers − 1` scoped threads, or, for an
    /// inline engine whose plan has at least two groups, one helper while a
    /// core is idle (see the module docs). There is no cost model: plan
    /// order plus first-free-takes-next is the whole schedule. A thread the
    /// OS refuses to start costs time, never a job: the others drain the
    /// cursor without it.
    ///
    /// `eval` must be pure per the module determinism contract; under that
    /// contract the returned vector is bitwise-identical to
    /// `jobs.iter().map(eval).collect()` whichever threads claim. A panic in
    /// `eval`, on any thread, reaches the caller with its own payload.
    pub fn run<R, F>(&self, jobs: &[BatchJob<'_>], eval: F) -> (Vec<R>, BatchReport)
    where
        R: Send + Clone,
        F: Fn(&BatchJob<'_>) -> R + Sync,
    {
        self.run_on(Cores::host(), jobs, eval)
    }

    /// [`BatchEngine::run`], its claiming threads counted in `cores`.
    fn run_on<R, F>(&self, cores: &Cores, jobs: &[BatchJob<'_>], eval: F) -> (Vec<R>, BatchReport)
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

        // Every claiming thread takes whole groups until the cursor runs
        // out. Each result carries its position in `unique`; sorting by it
        // restores the unique-list order, and the fan-out below restores
        // submission order — the ordered merge.
        let next = AtomicUsize::new(0);
        let claim = || {
            let mut done: Vec<(usize, R)> = Vec::new();
            while let Some(span) = spans.get(next.fetch_add(1, Ordering::Relaxed)) {
                done.extend(span.clone().map(|pos| (pos, eval(&jobs[unique[pos]]))));
            }
            done
        };
        let claim = &claim;
        let mut claimed: Vec<(usize, R)> = thread::scope(|scope| {
            // The caller's seat is taken before a helper's is asked for, so
            // a count of capacity 1 never lends.
            let mine = cores.hold();
            let seats: Vec<Held<'_>> = if self.workers > 1 {
                (1..workers).map(|_| cores.hold()).collect()
            } else if groups.len() > 1 {
                cores.lend().into_iter().collect()
            } else {
                Vec::new()
            };
            // A helper's seat moves into its thread and is returned when its
            // claim loop ends or unwinds, or at once if the OS refuses it.
            let helpers: Vec<_> = seats
                .into_iter()
                .filter_map(|seat| {
                    thread::Builder::new()
                        .spawn_scoped(scope, move || {
                            let _seat = seat;
                            claim()
                        })
                        .ok()
                })
                .collect();
            let mut out = claim();
            drop(mine);
            for helper in helpers {
                match helper.join() {
                    Ok(part) => out.extend(part),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            out
        });
        claimed.sort_unstable_by_key(|&(pos, _)| pos);
        let evaluated: Vec<R> = claimed.into_iter().map(|(_, r)| r).collect();

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
        // On a count of capacity 1 the caller claims every group alone, so
        // there is one global order; with a helper, each thread keeps it
        // (`an_inline_run_of_two_groups_runs_on_the_caller_and_one_helper`).
        let one_core = Cores::new(1);
        let (results, report) = BatchEngine::sequential().run_on(&one_core, &jobs, |job| {
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
        let caller = std::thread::current().id();
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
            let started = started.into_inner().unwrap_or_default();
            assert_eq!(started.len(), workers, "workers = {workers}");
            assert!(
                started.contains(&caller),
                "workers = {workers}: the caller claims groups too"
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

    fn busy(cores: &Cores) -> usize {
        cores.busy.load(Ordering::Acquire)
    }

    /// What [`Claimers`] saw: each evaluating thread with the cells it
    /// evaluated, in order, threads in the order they began; and the cores
    /// held when the `meet`-th thread began.
    #[derive(Default)]
    struct Claims {
        threads: Vec<(std::thread::ThreadId, Vec<String>)>,
        busy_when_met: Option<usize>,
    }

    /// Records which thread evaluates each job of a run on `cores`. A
    /// thread's first evaluation waits until `meet` threads have begun one
    /// (or ten seconds have passed, so a run that never starts them fails
    /// instead of hanging): every thread `meet` counts provably takes part,
    /// and the count read by the last to arrive is the seats held while all
    /// of them claim.
    struct Claimers<'a> {
        cores: &'a Cores,
        meet: usize,
        claims: std::sync::Mutex<Claims>,
        arrived: std::sync::Condvar,
    }

    impl<'a> Claimers<'a> {
        fn new(cores: &'a Cores, meet: usize) -> Self {
            Self {
                cores,
                meet,
                claims: std::sync::Mutex::new(Claims::default()),
                arrived: std::sync::Condvar::new(),
            }
        }

        /// Note that the current thread evaluates `job`.
        fn note(&self, job: &BatchJob<'_>) {
            let me = std::thread::current().id();
            let cell = format!("{}{}", job.request.question, job.request.response);
            let mut claims = self.claims.lock().unwrap_or_else(|e| e.into_inner());
            if let Some((_, cells)) = claims.threads.iter_mut().find(|(id, _)| *id == me) {
                cells.push(cell);
                return;
            }
            claims.threads.push((me, vec![cell]));
            if claims.threads.len() == self.meet {
                claims.busy_when_met = Some(busy(self.cores));
                self.arrived.notify_all();
            }
            let wait = std::time::Duration::from_secs(10);
            drop(
                self.arrived
                    .wait_timeout_while(claims, wait, |c| c.threads.len() < self.meet)
                    .unwrap_or_else(|e| e.into_inner()),
            );
        }

        fn into_claims(self) -> Claims {
            self.claims.into_inner().unwrap_or_else(|e| e.into_inner())
        }
    }

    /// Two jobs of each of two prefix groups of one model, submitted
    /// interleaved.
    fn two_groups() -> Vec<BatchJob<'static>> {
        let mk = |q: &'static str, r: &'static str| {
            BatchJob::new(0, VerificationRequest::new(q, "c", r))
        };
        vec![mk("q1", "a"), mk("q2", "b"), mk("q1", "c"), mk("q2", "d")]
    }

    #[test]
    fn an_inline_run_of_two_groups_runs_on_the_caller_and_one_helper() {
        let jobs = two_groups();
        let (alone, alone_report) = BatchEngine::sequential().run_on(&Cores::new(1), &jobs, tag);
        let caller = std::thread::current().id();
        let cells = |v: &[&str]| v.iter().map(|c| c.to_string()).collect::<Vec<_>>();
        // On three cores as on two, an inline run lends one helper.
        for capacity in [2, 3] {
            let cores = Cores::new(capacity);
            let claimers = Claimers::new(&cores, 2);
            let (results, report) = BatchEngine::sequential().run_on(&cores, &jobs, |job| {
                claimers.note(job);
                tag(job)
            });
            assert_eq!(
                results, alone,
                "capacity {capacity}: the helper moves no result"
            );
            assert_eq!(
                report, alone_report,
                "capacity {capacity}: nor the report, as a lent helper is no worker"
            );
            assert_eq!(
                busy(&cores),
                0,
                "capacity {capacity}: both seats are returned"
            );
            let mut claims = claimers.into_claims();
            assert_eq!(claims.busy_when_met, Some(2), "capacity {capacity}");
            // The caller and one other thread each run one group whole, in
            // submission order within it.
            assert_eq!(claims.threads.len(), 2, "capacity {capacity}");
            assert_eq!(
                claims
                    .threads
                    .iter()
                    .filter(|(id, _)| *id == caller)
                    .count(),
                1,
                "capacity {capacity}"
            );
            claims.threads.sort_by(|a, b| a.1.cmp(&b.1));
            let groups: Vec<Vec<String>> = claims.threads.into_iter().map(|(_, c)| c).collect();
            assert_eq!(groups, [cells(&["q1a", "q1c"]), cells(&["q2b", "q2d"])]);
        }
    }

    #[test]
    fn a_caller_returns_its_seat_before_it_waits_for_its_helper() {
        let cores = Cores::new(2);
        let jobs = jobs_from(&[(0, "a"), (1, "b")]);
        let caller = std::thread::current().id();
        let claimers = Claimers::new(&cores, 2);
        let seen = AtomicUsize::new(0);
        BatchEngine::sequential().run_on(&cores, &jobs, |job| {
            claimers.note(job);
            if std::thread::current().id() != caller {
                // The caller's one group is done and no group is left:
                // wait (ten seconds at most) until it gives its seat back.
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while busy(&cores) > 1 && std::time::Instant::now() < deadline {
                    std::thread::yield_now();
                }
                seen.store(busy(&cores), Ordering::Relaxed);
            }
            tag(job)
        });
        assert_eq!(
            seen.load(Ordering::Relaxed),
            1,
            "while its helper finishes, the caller holds no seat"
        );
    }

    #[test]
    fn an_inline_run_stays_on_the_caller_with_one_group_or_one_core() {
        let caller = std::thread::current().id();
        let one_group = jobs_from(&[(0, "a"), (0, "b"), (0, "c")]);
        let two_groups = two_groups();
        for (capacity, jobs) in [(2, &one_group), (1, &two_groups)] {
            let cores = Cores::new(capacity);
            let claimers = Claimers::new(&cores, 1);
            let (results, _) = BatchEngine::sequential().run_on(&cores, jobs, |job| {
                claimers.note(job);
                tag(job)
            });
            assert_eq!(results, jobs.iter().map(tag).collect::<Vec<_>>());
            let claims = claimers.into_claims();
            let case = format!("capacity {capacity}, {} jobs", jobs.len());
            assert_eq!(claims.busy_when_met, Some(1), "{case}: no helper's seat");
            assert_eq!(claims.threads.len(), 1, "{case}");
            assert_eq!(claims.threads[0].0, caller, "{case}");
            assert_eq!(busy(&cores), 0, "{case}");
        }
    }

    #[test]
    fn an_inline_run_borrows_the_core_another_run_returns() {
        use std::sync::Barrier;
        let cores = Cores::new(2);
        let jobs = two_groups();
        // A parallel run's two claimers each hold a one-job group until the
        // inline run below has finished.
        let other_jobs = jobs_from(&[(0, "a"), (1, "b")]);
        let holding = Barrier::new(3);
        let (held, claims) = std::thread::scope(|s| {
            let other = s.spawn(|| {
                BatchEngine::parallel(2).run_on(&cores, &other_jobs, |job| {
                    holding.wait();
                    holding.wait();
                    tag(job)
                })
            });
            holding.wait();
            let held = busy(&cores);
            let claimers = Claimers::new(&cores, 1);
            BatchEngine::sequential().run_on(&cores, &jobs, |job| {
                claimers.note(job);
                tag(job)
            });
            holding.wait();
            assert!(other.join().is_ok());
            (held, claimers.into_claims())
        });
        assert_eq!(held, 2, "the other run's claimers hold both cores");
        assert_eq!(claims.busy_when_met, Some(3), "so no helper is lent");
        assert_eq!(claims.threads.len(), 1);
        assert_eq!(busy(&cores), 0, "the other run has returned its cores");

        let claimers = Claimers::new(&cores, 2);
        BatchEngine::sequential().run_on(&cores, &jobs, |job| {
            claimers.note(job);
            tag(job)
        });
        let claims = claimers.into_claims();
        assert_eq!(claims.busy_when_met, Some(2), "the next run borrows one");
        assert_eq!(claims.threads.len(), 2);
    }

    #[test]
    fn workers_hold_both_cores_and_never_borrow() {
        // Three groups for two claimers. On two cores they hold both; on
        // three, the idle third is not lent to a parallel run.
        let caller = std::thread::current().id();
        let jobs = jobs_from(&[(0, "a"), (1, "b"), (2, "c")]);
        for capacity in [2, 3] {
            let cores = Cores::new(capacity);
            let claimers = Claimers::new(&cores, 2);
            let (results, report) = BatchEngine::parallel(2).run_on(&cores, &jobs, |job| {
                claimers.note(job);
                tag(job)
            });
            assert_eq!(results, vec!["0:a", "1:b", "2:c"]);
            assert_eq!(report.workers, 2);
            let claims = claimers.into_claims();
            assert_eq!(claims.busy_when_met, Some(2), "capacity {capacity}");
            assert_eq!(claims.threads.len(), 2, "capacity {capacity}");
            assert!(
                claims.threads.iter().any(|(id, _)| *id == caller),
                "capacity {capacity}: the caller is one of the two"
            );
            assert_eq!(busy(&cores), 0, "capacity {capacity}");
        }
    }

    #[test]
    fn lent_cores_never_exceed_the_capacity_and_unwinding_returns_them() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        let cores = Cores::new(2);
        let threads = 4;
        let start = Barrier::new(threads);
        let over = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..2000 {
                        if let Some(held) = cores.lend() {
                            over.fetch_or(busy(&cores) > 2, Ordering::Relaxed);
                            drop(held);
                        }
                    }
                });
            }
        });
        assert!(!over.load(Ordering::Relaxed), "more cores lent than exist");
        assert_eq!(busy(&cores), 0);

        let unwound = std::panic::catch_unwind(|| {
            let _seat = cores.hold();
            let _lent = cores.lend();
            assert_eq!(busy(&cores), 2);
            panic!("probe failed");
        });
        assert!(unwound.is_err());
        assert_eq!(busy(&cores), 0, "seats are returned on unwind");
    }

    #[test]
    fn a_panic_in_either_threads_group_reaches_the_caller_and_every_seat_comes_back() {
        let cores = Cores::new(2);
        let jobs = two_groups();
        let caller = std::thread::current().id();
        for (in_caller, payload) in [(false, "the helper's group"), (true, "the caller's group")] {
            let claimers = Claimers::new(&cores, 2);
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                BatchEngine::sequential().run_on(&cores, &jobs, |job| {
                    claimers.note(job);
                    if (std::thread::current().id() == caller) == in_caller {
                        std::panic::panic_any(payload);
                    }
                    tag(job)
                })
            }));
            let panic = unwound.expect_err("the panic reaches the caller");
            assert_eq!(panic.downcast_ref::<&str>(), Some(&payload));
            assert_eq!(claimers.into_claims().threads.len(), 2, "{payload}");
            assert_eq!(busy(&cores), 0, "{payload}: every seat comes back");
        }
    }

    #[test]
    fn engine_probes_with_a_lent_helper_match_a_lone_caller() {
        use std::sync::Arc;

        use crate::bpe::Bpe;
        use crate::config::ModelConfig;
        use crate::engine_verifier::EngineVerifier;
        use crate::model::{InferenceModel, TransformerLM};
        use crate::paged::{PagedKvPool, PagedPoolConfig, PagedPrefixCache, PrefixCacheConfig};
        use crate::quant::QuantizedLM;
        use crate::verifier::YesNoVerifier;

        let bpe = Bpe::train(
            &[
                "the store operates from 9 am to 5 pm",
                "working hours are from sunday to saturday",
                "is the answer correct according to the context reply yes or no",
            ],
            200,
        );
        // Both benchmark shapes at both precisions, each member on a
        // prefix cache of its own.
        fn member<M: InferenceModel + Send + Sync + 'static>(
            name: &str,
            model: M,
            bpe: &Bpe,
        ) -> (Box<dyn YesNoVerifier>, Arc<PagedPrefixCache>) {
            let pool = PagedKvPool::new(PagedPoolConfig::for_model(model.config(), 64));
            let cache = Arc::new(PagedPrefixCache::new(
                Arc::new(pool),
                PrefixCacheConfig::default(),
            ));
            let verifier =
                EngineVerifier::new(name, model, bpe.clone()).with_paged_cache(Arc::clone(&cache));
            (Box::new(verifier), cache)
        }
        let members = || {
            let vocab = bpe.vocab_size();
            let (qwen2, minicpm) = (
                ModelConfig::qwen2_like(vocab),
                ModelConfig::minicpm_like(vocab),
            );
            vec![
                member(
                    "qwen2 f32",
                    TransformerLM::synthetic(qwen2.clone(), 5),
                    &bpe,
                ),
                member("qwen2 int8", QuantizedLM::synthetic(qwen2, 5), &bpe),
                member(
                    "minicpm f32",
                    TransformerLM::synthetic(minicpm.clone(), 6),
                    &bpe,
                ),
                member("minicpm int8", QuantizedLM::synthetic(minicpm, 6), &bpe),
            ]
        };
        // Two prefixes per member, three sentences each, one of them twice.
        let prefixes = [
            (
                "what are the hours?",
                "the store operates from 9 am to 5 pm",
            ),
            ("which days?", "working hours are from sunday to saturday"),
        ];
        let sentences = ["9 am", "5 pm on sunday", "the store operates", "9 am"];
        let mut jobs = Vec::new();
        for &(q, c) in &prefixes {
            for r in sentences {
                for model in 0..4 {
                    jobs.push(BatchJob::new(model, VerificationRequest::new(q, c, r)));
                }
            }
        }

        let probe_on = |cores: &Cores, meet: usize| {
            let members = members();
            let claimers = Claimers::new(cores, meet);
            let (scores, report) = BatchEngine::sequential().run_on(cores, &jobs, |job| {
                claimers.note(job);
                members[job.model].0.p_yes(&job.request).to_bits()
            });
            let stats: Vec<_> = members.iter().map(|(_, cache)| cache.stats()).collect();
            (scores, report, stats, claimers.into_claims().threads.len())
        };
        let (alone, alone_report, alone_stats, alone_threads) = probe_on(&Cores::new(1), 1);
        let (lent, lent_report, lent_stats, lent_threads) = probe_on(&Cores::new(2), 2);
        assert_eq!((alone_threads, lent_threads), (1, 2));
        assert_eq!(alone_report.prefix_groups, 8);
        assert_eq!(alone_report.coalesced, 8);
        assert_eq!(lent, alone, "score bits");
        assert_eq!(lent_report, alone_report);
        for (member, (lent, alone)) in lent_stats.iter().zip(&alone_stats).enumerate() {
            assert_eq!(lent, alone, "prefix-cache stats of member {member}");
            assert_eq!((alone.inserts, alone.hits), (2, 4), "member {member}");
        }
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
