//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Sets the detector stack up several times (reporting the median set-up
//! time), scores whole passes over the seed's request list, checks every
//! verdict, and prints a report whose last line is one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! End-to-end timings are scaled to the reference pace of [`perfbench::pace`],
//! sampled next to every set-up and every call; per-layer timings are wall
//! times. The traced run alternates traced and untraced calls, so the
//! tracing overhead is measured inside one process.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use hallu_core::{ResilientDetector, Verdict};
use perfbench::pace::{at_reference_pace, Pace, NOMINAL_S};
use perfbench::stack::{Inputs, Models, Stack, Workload};
use perfbench::trace::{covered_ns, self_time_ns, Layer, Recorder, Span};
use perfbench::{digest, quantile};
use slm_runtime::bpe::Bpe;
use slm_runtime::prob::{prefix_prompt, suffix_prompt};
use slm_runtime::{
    InferenceModel, PagedKvPool, PagedPoolConfig, PagedPrefixCache, PrefixCacheConfig,
    PREFILL_BLOCK,
};
use text_engine::sentence::SentenceSplitter;

/// Stacks built per run; `setup_s` is the median of their set-up times.
const SETUP_REPEATS: usize = 3;
/// Pace samples taken before and after each set-up; the set-up is scaled
/// by the mean of the two medians.
const SETUP_PACE_SAMPLES: usize = 9;
/// Passes per latency sample: a call's latency is its median over a group
/// of this many consecutive passes, so a call that met a slow stretch of the
/// machine in one pass is outvoted by the other two.
const PASS_GROUP: usize = 3;
/// Fewest latency samples per run, so at least ten lie beyond p90.
const MIN_LATENCY_SAMPLES: usize = 100;
/// Responses re-scored through the uncached sequential reference.
const SAMPLE: usize = 6;
/// Largest change in a cache's hit ratio between the first and the last
/// fifth of the timed passes before the run counts as non-stationary.
const DRIFT_TOLERANCE: f64 = 0.05;
/// Where the traced run writes its spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if ["--workload", "--seed", "--seconds", "--trace"].contains(&k.as_str()) => {
                map.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Cache counters summed over both members' prefix caches and pools, plus
/// the verification cache.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    prefix_hits: u64,
    prefix_misses: u64,
    prefix_inserts: u64,
    prefix_evictions: u64,
    prefix_rejected: u64,
    cow_copies: u64,
    pool_rejected: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    cache_rejected: u64,
}

impl Counters {
    fn read(stack: &Stack) -> Self {
        let mut c = Counters::default();
        for pc in &stack.prefix_caches {
            let s = pc.stats();
            let p = pc.pool().stats();
            c.prefix_hits += s.hits;
            c.prefix_misses += s.misses;
            c.prefix_inserts += s.inserts;
            c.prefix_evictions += s.evictions;
            c.prefix_rejected += s.rejected;
            c.cow_copies += p.cow_copies;
            c.pool_rejected += p.rejected;
        }
        if let Some(cache) = &stack.cache {
            let s = cache.stats();
            c.cache_hits = s.hits;
            c.cache_misses = s.misses;
            c.cache_evictions = s.evictions;
            c.cache_rejected = s.rejected;
        }
        c
    }

    /// Field-wise `f` of two snapshots.
    fn zip(self, o: Self, f: fn(u64, u64) -> u64) -> Self {
        Counters {
            prefix_hits: f(self.prefix_hits, o.prefix_hits),
            prefix_misses: f(self.prefix_misses, o.prefix_misses),
            prefix_inserts: f(self.prefix_inserts, o.prefix_inserts),
            prefix_evictions: f(self.prefix_evictions, o.prefix_evictions),
            prefix_rejected: f(self.prefix_rejected, o.prefix_rejected),
            cow_copies: f(self.cow_copies, o.cow_copies),
            pool_rejected: f(self.pool_rejected, o.pool_rejected),
            cache_hits: f(self.cache_hits, o.cache_hits),
            cache_misses: f(self.cache_misses, o.cache_misses),
            cache_evictions: f(self.cache_evictions, o.cache_evictions),
            cache_rejected: f(self.cache_rejected, o.cache_rejected),
        }
    }

    fn minus(self, o: Self) -> Self {
        self.zip(o, |a, b| a - b)
    }

    fn plus(self, o: Self) -> Self {
        self.zip(o, |a, b| a + b)
    }

    fn prefix_hit_ratio(&self) -> Option<f64> {
        ratio(self.prefix_hits, self.prefix_hits + self.prefix_misses)
    }

    fn cache_hit_ratio(&self) -> Option<f64> {
        ratio(self.cache_hits, self.cache_hits + self.cache_misses)
    }
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// What the timed passes produced.
struct Timed {
    /// Wall latency of every untraced call, in ms.
    latencies_ms: Vec<f64>,
    /// The pace sample taken right after each untraced call, in seconds.
    pace_s: Vec<f64>,
    /// Wall seconds of all passes.
    wall_s: f64,
    /// Wall seconds of the untraced and of the traced calls.
    untraced_s: f64,
    traced_s: f64,
    /// Responses in traced calls.
    traced_responses: usize,
    /// Per pass: every response's verdict score in list order (NaN when it
    /// was not scored).
    scores: Vec<Vec<f64>>,
    /// Responses that abstained, or whose call did not return exactly one
    /// verdict per response.
    unscored: usize,
    /// Counters over the traced calls only.
    traced_counters: Counters,
    /// Counters at the start, one fifth, four fifths and end of the calls.
    fifths: [Counters; 4],
}

fn score_call(
    detector: &ResilientDetector,
    stack: &Stack,
    call: &[(usize, usize)],
    index: usize,
) -> Vec<Verdict> {
    let items = stack.inputs.call_items(call);
    if let [(q, c, r)] = items[..] {
        stack.obs.begin_flight(&format!("req-{index}"));
        let verdict = detector.score(q, c, r);
        stack.obs.end_flight(if verdict.is_abstain() {
            "abstain"
        } else {
            "scored"
        });
        vec![verdict]
    } else {
        detector.score_all(&items)
    }
}

/// Score `passes` whole passes over the list, sampling the machine's pace
/// after every call. With a traced twin, calls alternate between
/// the twin and the plain detector, swapping parity every pass, so over an
/// even number of passes both see every call equally often and the overhead
/// compares identical work at the same moments.
fn run_passes(stack: &Stack, passes: usize, pace: &Pace) -> Timed {
    let calls = &stack.inputs.calls;
    let total = passes * calls.len();
    let marks = [0, total / 5, total - total / 5];
    let mut timed = Timed {
        latencies_ms: Vec::with_capacity(total),
        pace_s: Vec::with_capacity(total),
        wall_s: 0.0,
        untraced_s: 0.0,
        traced_s: 0.0,
        traced_responses: 0,
        scores: Vec::with_capacity(passes),
        unscored: 0,
        traced_counters: Counters::default(),
        fifths: [Counters::default(); 4],
    };
    let mut global = 0usize;
    let wall = Instant::now();
    for pass in 0..passes {
        let mut scores = Vec::with_capacity(stack.inputs.responses_per_pass());
        for (ci, call) in calls.iter().enumerate() {
            if let Some(slot) = marks.iter().position(|&m| m == global) {
                timed.fifths[slot] = Counters::read(stack);
            }
            let traced = stack.traced.as_ref().filter(|_| (ci + pass) % 2 == 1);
            let before = traced.map(|_| Counters::read(stack));
            let start = Instant::now();
            let verdicts = match traced {
                Some((detector, recorder)) => {
                    let _call = recorder.call(u32::try_from(ci).unwrap_or(u32::MAX));
                    score_call(detector, stack, call, ci)
                }
                None => score_call(&stack.detector, stack, call, ci),
            };
            let elapsed = start.elapsed().as_secs_f64();
            // After every call, so traced and untraced calls follow the same
            // work; only the untraced calls' samples are kept.
            let pace_s = pace.sample();
            match before {
                Some(before) => {
                    timed.traced_s += elapsed;
                    timed.traced_responses += call.len();
                    timed.traced_counters = timed
                        .traced_counters
                        .plus(Counters::read(stack).minus(before));
                }
                None => {
                    timed.untraced_s += elapsed;
                    timed.latencies_ms.push(elapsed * 1e3);
                    timed.pace_s.push(pace_s);
                }
            }
            let one_each = verdicts.len() == call.len();
            for k in 0..call.len() {
                match verdicts
                    .get(k)
                    .and_then(Verdict::score)
                    .filter(|_| one_each)
                {
                    Some(s) => scores.push(s),
                    None => {
                        timed.unscored += 1;
                        scores.push(f64::NAN);
                    }
                }
            }
            global += 1;
        }
        timed.scores.push(scores);
    }
    timed.wall_s = wall.elapsed().as_secs_f64();
    timed.fifths[3] = Counters::read(stack);
    timed
}

/// Per-call work of the isolated layer timings, in ns per call.
#[derive(Debug, Default, Clone, Copy)]
struct Isolated {
    splitter_ns: f64,
    sentences_per_response: f64,
    encode_prefix_ns: f64,
    encode_suffix_ns: f64,
    fork_ns: f64,
    reserve_ns: f64,
    softmax_ns: f64,
}

/// Sets the paged and softmax timings use.
const ISOLATION_SETS: usize = 8;

/// Time the splitter, tokenizer, paged and softmax calls a probe makes, in
/// isolation, on the workload's own inputs.
fn isolate(stack: &Stack) -> Isolated {
    let inputs = &stack.inputs;
    let bpe = &stack.bpe;
    let mut iso = Isolated::default();

    let splitter = SentenceSplitter::new();
    let (mut ns, mut responses, mut sentences) = (0u128, 0usize, 0usize);
    for _ in 0..10 {
        for set in &inputs.sets {
            for r in &set.responses {
                let t = Instant::now();
                let split = std::hint::black_box(SentenceSplitter::new().split(r));
                ns += t.elapsed().as_nanos();
                responses += 1;
                sentences += split.len();
            }
        }
    }
    iso.splitter_ns = ns as f64 / responses as f64;
    iso.sentences_per_response = sentences as f64 / responses as f64;

    let (mut pre_ns, mut pre_n, mut suf_ns, mut suf_n) = (0u128, 0usize, 0u128, 0usize);
    for _ in 0..5 {
        for set in &inputs.sets {
            let prompt = prefix_prompt(&set.question, &set.context);
            let t = Instant::now();
            std::hint::black_box(bpe.encode(&prompt, true));
            pre_ns += t.elapsed().as_nanos();
            pre_n += 1;
            for r in &set.responses {
                for s in splitter.split(r) {
                    let prompt = suffix_prompt(s.text);
                    let t = Instant::now();
                    std::hint::black_box(bpe.encode(&prompt, false));
                    suf_ns += t.elapsed().as_nanos();
                    suf_n += 1;
                }
            }
        }
    }
    iso.encode_prefix_ns = pre_ns as f64 / pre_n as f64;
    iso.encode_suffix_ns = suf_ns as f64 / suf_n as f64;

    let labels = stack.models.labels();
    let per_member = match &stack.models {
        Models::F32(m) => [0, 1].map(|i| isolate_paged(&m[i], labels[i], bpe, inputs)),
        Models::Int8(m) => [0, 1].map(|i| isolate_paged(&m[i], labels[i], bpe, inputs)),
    };
    iso.fork_ns = (per_member[0].0 + per_member[1].0) / 2.0;
    iso.reserve_ns = (per_member[0].1 + per_member[1].1) / 2.0;
    iso.softmax_ns = (per_member[0].2 + per_member[1].2) / 2.0;
    iso
}

/// Fork, tail reservation and softmax of one member, each in ns per call,
/// against a private cache holding the first sets' prefixes.
fn isolate_paged<M: InferenceModel>(
    model: &M,
    label: &str,
    bpe: &Bpe,
    inputs: &Inputs,
) -> (f64, f64, f64) {
    let sets = &inputs.sets[..ISOLATION_SETS.min(inputs.sets.len())];
    let pool = Arc::new(PagedKvPool::new(PagedPoolConfig::for_model(
        model.config(),
        (sets.len() + 4) * (model.config().max_seq_len / PREFILL_BLOCK + 1),
    )));
    let cache = PagedPrefixCache::new(
        Arc::clone(&pool),
        PrefixCacheConfig {
            max_entries: sets.len(),
            max_bytes: usize::MAX,
        },
    );
    let splitter = SentenceSplitter::new();
    let (mut fork_ns, mut reserve_ns, mut softmax_ns, mut n) = (0u128, 0u128, 0u128, 0usize);
    for set in sets {
        let prefix = bpe.encode(&prefix_prompt(&set.question, &set.context), true);
        let mut built = pool.new_cache(prefix.len());
        built
            .try_reserve(prefix.len())
            .expect("the isolation pool is sized for its prefixes");
        model.prefill_cache_only(&prefix, &mut built);
        cache.insert(label, &prefix, &built);
        drop(built);
        for r in &set.responses {
            for s in splitter.split(r) {
                let suffix = bpe.encode(&suffix_prompt(s.text), false);
                let need = prefix.len() + suffix.len();
                let t0 = Instant::now();
                let mut kv = cache
                    .fork(label, &prefix, need)
                    .expect("the prefix was just inserted");
                let t1 = Instant::now();
                kv.try_reserve(suffix.len())
                    .expect("the isolation pool is sized for its forks");
                let t2 = Instant::now();
                let logits = model.prefill(&suffix, &mut kv);
                let t3 = Instant::now();
                drop(kv);
                let t4 = Instant::now();
                std::hint::black_box(tensor::nn::softmax(&logits));
                let t5 = Instant::now();
                fork_ns += (t1 - t0).as_nanos() + (t4 - t3).as_nanos();
                reserve_ns += (t2 - t1).as_nanos();
                softmax_ns += (t5 - t4).as_nanos();
                n += 1;
            }
        }
    }
    let n = n.max(1) as f64;
    (
        fork_ns as f64 / n,
        reserve_ns as f64 / n,
        softmax_ns as f64 / n,
    )
}

/// Per-layer numbers from the traced calls' spans.
fn layer_metrics(
    stack: &Stack,
    recorder: &Recorder,
    timed: &Timed,
    iso: &Isolated,
) -> Vec<(&'static str, f64, &'static str)> {
    let spans = recorder.spans();
    let responses = timed.traced_responses.max(1) as f64;
    let us = |ns: f64| ns / 1e3;
    let of = |layer: Layer| spans.iter().filter(move |s| s.layer == layer);
    let total_ns = |layer: Layer| of(layer).map(|s| s.duration_ns() as f64).sum::<f64>();
    let calls: Vec<&Span> = of(Layer::Call).collect();
    let probes: Vec<Span> = of(Layer::Probe).copied().collect();
    let model_spans: Vec<Span> = spans
        .iter()
        .filter(|s| {
            matches!(
                s.layer,
                Layer::PrefixForward | Layer::BlockForward | Layer::LmHead
            )
        })
        .copied()
        .collect();
    let n_probes = probes.len().max(1) as f64;

    let mut probes_by_call: BTreeMap<u32, Vec<Span>> = BTreeMap::new();
    for p in &probes {
        probes_by_call.entry(p.parent).or_default().push(*p);
    }
    let mut call_ns = 0.0;
    let mut covered = 0.0;
    let mut self_ns = 0.0;
    let mut workers = 0.0;
    let mut prefetch_ns = 0.0;
    let mut busy_ns = 0.0;
    let mut busy_den = 0.0;
    let offline = stack.inputs.calls[0].len() > 1;
    for call in &calls {
        let children = probes_by_call.get(&call.id).map_or(&[][..], Vec::as_slice);
        let mut intervals: Vec<(u64, u64)> =
            children.iter().map(|c| (c.start_ns, c.end_ns)).collect();
        let cov = covered_ns(call.start_ns, call.end_ns, &mut intervals) as f64;
        call_ns += call.duration_ns() as f64;
        covered += cov;
        self_ns += self_time_ns(call, children) as f64;
        let threads: BTreeSet<u32> = children.iter().map(|c| c.thread).collect();
        workers += threads.len().max(1) as f64;
        if offline {
            let last_end = children
                .iter()
                .map(|c| c.end_ns)
                .max()
                .unwrap_or(call.start_ns);
            let wall = (last_end - call.start_ns) as f64;
            prefetch_ns += wall;
            busy_ns += children.iter().map(|c| c.duration_ns() as f64).sum::<f64>();
            busy_den += wall * threads.len().max(1) as f64;
        }
    }
    let n_calls = calls.len().max(1) as f64;

    let member_mean = |prefix: &str| {
        let d: Vec<f64> = probes
            .iter()
            .filter(|p| p.member.starts_with(prefix))
            .map(|p| p.duration_ns() as f64)
            .collect();
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64
        }
    };
    let probe_self: f64 = probes
        .iter()
        .map(|p| self_time_ns(p, &model_spans) as f64)
        .sum::<f64>()
        / n_probes;
    let prefix_n = of(Layer::PrefixForward).count().max(1) as f64;
    let fwd_tokens: f64 = spans
        .iter()
        .filter(|s| matches!(s.layer, Layer::PrefixForward | Layer::BlockForward))
        .map(|s| f64::from(s.tokens))
        .sum();
    let fwd_ns = total_ns(Layer::PrefixForward) + total_ns(Layer::BlockForward);
    let model_ns: f64 = model_spans.iter().map(|s| s.duration_ns() as f64).sum();
    let int8_ns: f64 = model_spans
        .iter()
        .filter(|s| s.member.ends_with("int8"))
        .map(|s| s.duration_ns() as f64)
        .sum();
    // Cells submitted by the traced calls: sentences × members.
    let cells: usize = calls
        .iter()
        .flat_map(|call| &stack.inputs.calls[call.request as usize])
        .map(|&i| {
            let (_, _, r) = stack.inputs.item(i);
            SentenceSplitter::new().split(r).len() * 2
        })
        .sum();
    let c = &timed.traced_counters;
    let all = timed.fifths[3];
    let per_response = |n: u64| n as f64 / responses;
    let pages_peak: usize = stack
        .prefix_caches
        .iter()
        .map(|pc| pc.pool().stats().peak_live)
        .sum();

    vec![
        (
            "detector.self_us_per_response",
            us(self_ns) / responses,
            "us",
        ),
        (
            "detector.probes_per_response",
            probes.len() as f64 / responses,
            "count",
        ),
        ("splitter.us_per_response", us(iso.splitter_ns), "us"),
        (
            "splitter.sentences_per_response",
            iso.sentences_per_response,
            "count",
        ),
        ("probe.qwen2_us", us(member_mean("qwen2")), "us"),
        ("probe.minicpm_us", us(member_mean("minicpm")), "us"),
        ("probe.self_us", us(probe_self), "us"),
        ("bpe.encode_prefix_us", us(iso.encode_prefix_ns), "us"),
        ("bpe.encode_suffix_us", us(iso.encode_suffix_ns), "us"),
        ("paged.fork_us", us(iso.fork_ns), "us"),
        ("paged.reserve_us", us(iso.reserve_ns), "us"),
        ("prob.softmax_us", us(iso.softmax_ns), "us"),
        (
            "paged.prefix_hit_ratio",
            c.prefix_hit_ratio().unwrap_or(0.0),
            "ratio",
        ),
        (
            "paged.misses_per_response",
            per_response(c.prefix_misses),
            "count",
        ),
        (
            "paged.inserts_per_response",
            per_response(c.prefix_inserts),
            "count",
        ),
        (
            "paged.evictions_per_response",
            per_response(c.prefix_evictions),
            "count",
        ),
        (
            "paged.cow_copies_per_probe",
            c.cow_copies as f64 / n_probes,
            "count",
        ),
        ("paged.pages_peak", pages_peak as f64, "count"),
        (
            "paged.rejected",
            (all.prefix_rejected + all.pool_rejected) as f64,
            "count",
        ),
        (
            "model.prefix_forward_us_per_miss",
            us(total_ns(Layer::PrefixForward)) / prefix_n,
            "us",
        ),
        (
            "model.suffix_forward_us_per_probe",
            us(total_ns(Layer::BlockForward)) / n_probes,
            "us",
        ),
        (
            "model.lm_head_us_per_probe",
            us(total_ns(Layer::LmHead)) / n_probes,
            "us",
        ),
        (
            "model.tokens_per_s",
            fwd_tokens / (fwd_ns / 1e9).max(1e-12),
            "1/s",
        ),
        ("model.int8_share", int8_ns / model_ns.max(1.0), "ratio"),
        ("batch.workers", workers / n_calls, "count"),
        (
            "batch.coalesced_ratio",
            1.0 - probes.len() as f64 / cells.max(1) as f64,
            "ratio",
        ),
        (
            "batch.prefetch_ms_per_batch",
            if offline {
                prefetch_ns / n_calls / 1e6
            } else {
                0.0
            },
            "ms",
        ),
        (
            "batch.worker_busy_ratio",
            if offline {
                busy_ns / busy_den.max(1.0)
            } else {
                0.0
            },
            "ratio",
        ),
        (
            "cache.lookups_per_response",
            per_response(c.cache_hits + c.cache_misses),
            "count",
        ),
        (
            "cache.hit_ratio",
            c.cache_hit_ratio().unwrap_or(0.0),
            "ratio",
        ),
        (
            "cache.evictions_per_response",
            per_response(c.cache_evictions),
            "count",
        ),
        ("cache.rejected", all.cache_rejected as f64, "count"),
        (
            "trace.overhead",
            timed.traced_s / timed.untraced_s - 1.0,
            "ratio",
        ),
        (
            "trace.attributed_ratio",
            covered / call_ns.max(1.0),
            "ratio",
        ),
    ]
}

fn median<'a>(values: impl Iterator<Item = &'a f64>) -> f64 {
    let mut v: Vec<f64> = values.copied().collect();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns the -0.0 of an empty f64 sum into 0.
        format!("{}", v + 0.0)
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let spec = args.workload.spec();

    let pace = Pace::new();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut stack = None;
    for i in 0..SETUP_REPEATS {
        // Drop the previous stack first so peak RSS reflects one stack.
        drop(stack.take());
        let before = pace.median(SETUP_PACE_SAMPLES);
        let s = Stack::build(
            args.workload,
            args.seed,
            args.trace && i + 1 == SETUP_REPEATS,
        );
        let after = pace.median(SETUP_PACE_SAMPLES);
        setups.push((s.setup, (before + after) / 2.0));
        stack = Some(s);
    }
    let stack = stack.expect("SETUP_REPEATS > 0");
    let mut setup_totals: Vec<f64> = setups
        .iter()
        .map(|(s, pace_s)| s.total() * NOMINAL_S / pace_s)
        .collect();
    setup_totals.sort_by(f64::total_cmp);
    let setup_s = setup_totals[setup_totals.len() / 2];

    let calls_per_pass = stack.inputs.calls.len();
    let per_pass = stack.inputs.responses_per_pass();
    let wanted = args.seconds * spec.nominal_responses_per_s / per_pass as f64;
    // Whole groups, and enough of them for MIN_LATENCY_SAMPLES.
    let groups = ((wanted / PASS_GROUP as f64).round() as usize)
        .max(MIN_LATENCY_SAMPLES.div_ceil(calls_per_pass));
    let mut passes = groups * PASS_GROUP;
    if args.trace {
        // Even, so traced and untraced calls cover the list equally.
        passes = passes.next_multiple_of(2);
    }

    let sizes = stack.sizes;
    println!(
        "workload {} seed {} trace {} passes {passes} × {calls_per_pass} calls ({per_pass} responses)",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!(
        "inputs: {} distinct prefixes, {:.1} prefix tokens, {:.1} suffix tokens, {:.2} sentences/response, \
         prefix cache {} entries/member, verification cache {} entries, vocab {}",
        stack.inputs.sets.len(),
        sizes.prefix_tokens,
        sizes.suffix_tokens,
        sizes.sentences_per_response,
        spec.prefix_capacity,
        spec.cache_entries,
        stack.bpe.vocab_size()
    );
    for (i, (s, pace_s)) in setups.iter().enumerate() {
        println!(
            "setup {i}: tokenizer {:.3}s weights {:.3}s calibrate {:.3}s warm {:.3}s total {:.3}s, pace {:.1}us",
            s.tokenizer_s,
            s.weights_s,
            s.calibrate_s,
            s.warm_s,
            s.total(),
            pace_s * 1e6
        );
    }

    let timed = run_passes(&stack, passes, &pace);

    // ---- output check ----
    let mut failed = timed.unscored;
    let first = &timed.scores[0];
    let mut digests = Vec::new();
    for (p, scores) in timed.scores.iter().enumerate() {
        let d = digest(scores);
        digests.push(d);
        let mismatched = scores
            .iter()
            .zip(first)
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
        if mismatched > 0 {
            println!("pass {p}: {mismatched} verdicts differ from pass 0");
            failed += mismatched;
        }
    }
    let flat: Vec<(usize, usize)> = stack.inputs.calls.iter().flatten().copied().collect();
    let reference = stack.reference();
    let mut sample_mismatch = 0;
    for k in 0..SAMPLE.min(flat.len()) {
        let pos = k * flat.len() / SAMPLE;
        let (q, c, r) = stack.inputs.item(flat[pos]);
        let want = reference.score(q, c, r).score();
        if want.map(f64::to_bits) != Some(first[pos].to_bits()) {
            println!(
                "sample response {pos}: reference {want:?} vs timed {}",
                first[pos]
            );
            sample_mismatch += 1;
        }
    }
    failed += sample_mismatch;
    println!(
        "digest {:016x} (passes agree: {}), reference sample {}/{} bit-identical",
        digests[0],
        digests.iter().all(|&d| d == digests[0]),
        SAMPLE - sample_mismatch,
        SAMPLE
    );

    // ---- stationarity ----
    let [f0, f1, f4, f5] = timed.fifths;
    let mut stationary = true;
    for (name, first_ratio, last_ratio) in [
        (
            "prefix cache",
            f1.minus(f0).prefix_hit_ratio(),
            f5.minus(f4).prefix_hit_ratio(),
        ),
        (
            "verification cache",
            f1.minus(f0).cache_hit_ratio(),
            f5.minus(f4).cache_hit_ratio(),
        ),
    ] {
        match (first_ratio, last_ratio) {
            (Some(a), Some(b)) => {
                let ok = (a - b).abs() <= DRIFT_TOLERANCE;
                stationary &= ok;
                println!(
                    "stationarity {name}: hit ratio first fifth {a:.4}, last fifth {b:.4} {}",
                    if ok { "ok" } else { "DRIFTS" }
                );
            }
            _ => println!("stationarity {name}: not attached"),
        }
    }

    let responses = passes * per_pass;
    let correct = failed == 0 && stationary;
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let (_, recorder) = stack.traced.as_ref().expect("built with trace");
        let iso = isolate(&stack);
        metrics = layer_metrics(&stack, recorder, &timed, &iso);
        let path = format!(
            "{TRACE_DIR}/trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        );
        let written = std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, recorder.to_jsonl()));
        match written {
            Ok(()) => println!("spans: {} written to {path}", recorder.spans().len()),
            Err(e) => println!("spans: could not write {path}: {e}"),
        }
    } else {
        // Every call is untraced here, so the samples run in list order.
        let scaled_ms = at_reference_pace(&timed.latencies_ms, &timed.pace_s);
        let mut lat: Vec<f64> = scaled_ms
            .chunks_exact(PASS_GROUP * calls_per_pass)
            .flat_map(|group| {
                (0..calls_per_pass)
                    .map(move |i| median(group.iter().skip(i).step_by(calls_per_pass)))
            })
            .collect();
        lat.sort_by(f64::total_cmp);
        let mut wall = timed.latencies_ms.clone();
        wall.sort_by(f64::total_cmp);
        metrics.push(("setup_s", setup_s, "s"));
        metrics.push((
            "responses_per_s",
            responses as f64 * 1e3 / scaled_ms.iter().sum::<f64>(),
            "1/s",
        ));
        metrics.push(("latency_p50_ms", quantile(&lat, 0.5), "ms"));
        metrics.push(("latency_p90_ms", quantile(&lat, 0.9), "ms"));
        metrics.push(("peak_rss_mb", peak_rss_mb(), "MB"));
        println!(
            "latency samples {} ({} beyond p90), timed wall {:.3}s",
            lat.len(),
            lat.len() - (0.9 * lat.len() as f64).ceil() as usize,
            timed.wall_s
        );
        println!(
            "at wall pace: {:.3} responses/s, call p50 {:.3} ms, p90 {:.3} ms; \
             pace median {:.1}us (reference {:.1}us)",
            responses as f64 / timed.untraced_s,
            quantile(&wall, 0.5),
            quantile(&wall, 0.9),
            median(timed.pace_s.iter()) * 1e6,
            NOMINAL_S * 1e6
        );
    }
    for (name, value, unit) in &metrics {
        println!("{name:<36} {:>14.4} {unit}", value + 0.0);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {responses}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
