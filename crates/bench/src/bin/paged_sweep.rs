//! Paged KV pool experiment: COW fork cost and bitwise parity — the
//! serving-side half of the prefix-sharing story.
//!
//! Four claims, each checked with `assert!` so the sweep doubles as a
//! regression gate (the `fork_speedup ...` / `fork_flatness ...` /
//! `paged_pool ...` lines are grepped by the CI `paged-smoke` job):
//!
//! 1. **Parity** — a paged probe (pooled prefill, COW fork, suffix-only
//!    extend) returns bitwise-identical logits to a cold contiguous
//!    full-prompt prefill at every prefix length swept, and a full rerun
//!    of the sweep reproduces the exact same bits.
//! 2. **Fork speedup** — a paged fork clones one `Arc` per resident page
//!    instead of memcpying every prefix row: ≥ 3× faster than the
//!    contiguous fork at realistic prefix lengths (≥ 128 tokens).
//! 3. **Flat fork cost** — paged fork time grows with *pages touched*, not
//!    tokens: the 224-token fork costs at most a small multiple of the
//!    4-token fork, while the contiguous fork grows linearly.
//! 4. **Pool economics** — the sweep completes with zero rejected
//!    reservations and zero leaked pages, with COW copies and page reuse
//!    both actually observed.
//!
//! The ratios of claims 2 and 3 are medians of per-pair ratios over
//! alternating samples ([`bench::sweep::paired`]), so a change in the
//! machine's speed between samples cancels out of them.

use std::sync::Arc;

use bench::sweep::{bits, paired, tokens};
use bench::{save_record, RESULTS_PATH};
use eval::report::ExperimentRecord;
use slm_runtime::{
    InferenceModel, ModelConfig, PagedKvCache, PagedKvPool, PagedPoolConfig, TransformerLM,
};

const VOCAB: usize = 8192;
const MODEL_SEED: u64 = 0xF222;
const PREFIX_LENS: [usize; 4] = [4, 32, 128, 224];
const SUFFIX_LEN: usize = 16;
/// Forks per timing sample: a single paged fork is nanoseconds-scale, so
/// timing batches keeps the clock granularity out of the ratio.
const FORK_REPS: usize = 1024;

/// [`FORK_REPS`] calls of `fork`, one timing sample.
fn forks<T>(fork: impl Fn() -> T) {
    for _ in 0..FORK_REPS {
        std::hint::black_box(fork());
    }
}

/// A pooled snapshot of `prefix`, with room for one suffix.
fn snapshot(model: &TransformerLM, pool: &Arc<PagedKvPool>, prefix: &[u32]) -> PagedKvCache {
    let mut warm = pool.new_cache(prefix.len() + SUFFIX_LEN);
    warm.try_reserve(prefix.len())
        .expect("pool sized for the sweep");
    model.prefill_cache_only(prefix, &mut warm);
    warm
}

/// One full paged probe pass: pooled prefix prefill, one COW fork per
/// suffix, suffix-only extend. Returns the logit bits of every probe — the
/// fingerprint the rerun must reproduce exactly.
fn paged_probe_pass(model: &TransformerLM, pool: &Arc<PagedKvPool>) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    for &plen in &PREFIX_LENS {
        let warm = snapshot(model, pool, &tokens(plen as u64, plen, VOCAB));
        for s in 0..4u64 {
            let suffix = tokens(0xA0 + s, SUFFIX_LEN, VOCAB);
            let mut fork = warm.fork_with_capacity(plen + SUFFIX_LEN);
            fork.try_reserve(SUFFIX_LEN)
                .expect("pool sized for the sweep");
            out.push(bits(&model.prefill(&suffix, &mut fork)));
        }
    }
    out
}

fn main() {
    let model = TransformerLM::synthetic(ModelConfig::qwen2_like(VOCAB), MODEL_SEED);
    let pool_config = PagedPoolConfig::for_model(model.config(), 128);
    let pool = Arc::new(PagedKvPool::new(pool_config));
    let mut record = ExperimentRecord::new(
        "ext-paged",
        "Paged KV pool: COW fork cost x prefix length, parity rerun",
    );

    // ---- Part 1: parity + fork cost, per prefix length ----
    println!(
        "{:>6}  {:>5}  {:>12}  {:>12}  {:>8}",
        "prefix", "pages", "contig ns", "paged ns", "speedup"
    );
    let mut speedup_at_realistic = f64::INFINITY;
    let mut paged_ns_long = 0.0f64;
    let mut contig_ns_long = 0.0f64;
    for &plen in &PREFIX_LENS {
        let prefix = tokens(plen as u64, plen, VOCAB);
        let suffix = tokens(0xA0, SUFFIX_LEN, VOCAB);
        let need = plen + SUFFIX_LEN;

        // Cold contiguous truth: one full-prompt prefill.
        let full: Vec<u32> = prefix.iter().chain(&suffix).copied().collect();
        let mut cold = model.new_cache_with_capacity(need);
        let want = bits(&model.prefill(&full, &mut cold));

        // Contiguous warm path: snapshot + memcpy fork + suffix extend.
        let mut contig_warm = model.new_cache_with_capacity(need);
        model.prefill_cache_only(&prefix, &mut contig_warm);
        let mut contig_fork = contig_warm.fork_with_capacity(need);
        let got_contig = bits(&model.prefill(&suffix, &mut contig_fork));

        // Paged warm path: pooled snapshot + Arc-clone fork + COW extend.
        let paged_warm = snapshot(&model, &pool, &prefix);
        let mut paged_fork = paged_warm.fork_with_capacity(need);
        paged_fork
            .try_reserve(SUFFIX_LEN)
            .expect("pool sized for the sweep");
        let got_paged = bits(&model.prefill(&suffix, &mut paged_fork));

        assert_eq!(
            want, got_contig,
            "prefix={plen}: contiguous fork must be bit-identical to cold prefill"
        );
        assert_eq!(
            want, got_paged,
            "prefix={plen}: paged COW fork must be bit-identical to cold prefill"
        );

        // Fork cost alone: what a sentence probe pays before its suffix runs.
        let timed = paired(
            || forks(|| contig_warm.fork_with_capacity(need)),
            || forks(|| paged_warm.fork_with_capacity(need)),
        );
        let contig_ns = timed.a_s * 1e9 / FORK_REPS as f64;
        let paged_ns = timed.b_s * 1e9 / FORK_REPS as f64;
        let speedup = timed.ratio;
        if plen >= 128 {
            speedup_at_realistic = speedup_at_realistic.min(speedup);
        }
        if plen == 224 {
            paged_ns_long = paged_ns;
            contig_ns_long = contig_ns;
        }
        let pages = plen.div_ceil(pool.config().block_tokens);
        println!("{plen:>6}  {pages:>5}  {contig_ns:>12.0}  {paged_ns:>12.0}  {speedup:>7.2}x");
        // Stable grep target for the CI paged-smoke job.
        println!("fork_speedup prefix={plen} {speedup:.2}");
        record.measure(format!("fork speedup prefix={plen}"), speedup);
        record.measure(format!("paged fork ns prefix={plen}"), paged_ns);
        record.measure(format!("contiguous fork ns prefix={plen}"), contig_ns);
    }
    assert!(
        speedup_at_realistic >= 3.0,
        "headline claim failed: paged fork must be >= 3x contiguous at prefix >= 128 \
         (got {speedup_at_realistic:.2}x)"
    );
    // Flatness: 224 tokens is 4 pages, so the paged fork may cost a few
    // page-clones more than the 4-token fork — but never the 56x a
    // row-proportional copy would cost. Timed in pairs like the speedups,
    // on the two snapshots built again.
    let [(short, short_need), (long, long_need)] = [PREFIX_LENS[0], 224].map(|plen| {
        let prefix = tokens(plen as u64, plen, VOCAB);
        (snapshot(&model, &pool, &prefix), plen + SUFFIX_LEN)
    });
    let flatness = paired(
        || forks(|| long.fork_with_capacity(long_need)),
        || forks(|| short.fork_with_capacity(short_need)),
    )
    .ratio;
    drop((short, long));
    println!("fork_flatness paged_224_over_4 {flatness:.2}");
    assert!(
        flatness <= 16.0,
        "headline claim failed: paged fork cost must be flat in prefix length \
         (224-token fork is {flatness:.2}x the 4-token fork)"
    );
    record.measure("fork flatness 224/4", flatness);

    // ---- Part 2: bitwise-identical rerun of the whole probe matrix ----
    let pass1 = paged_probe_pass(&model, &pool);
    let rerun_pool = Arc::new(PagedKvPool::new(pool_config));
    let pass2 = paged_probe_pass(&model, &rerun_pool);
    assert_eq!(
        pass1, pass2,
        "a rerun of the paged sweep on a fresh pool must reproduce every logit bit"
    );
    println!(
        "\nrerun: {} probes reproduced bit-for-bit on a fresh pool",
        pass1.len()
    );

    // ---- Part 3: pool economics — no rejection, no leak, real sharing ----
    let stats = pool.stats();
    assert!(
        stats.cow_copies > 0,
        "suffix extends on shared snapshots must have copied-on-write: {stats:?}"
    );
    assert!(
        stats.allocs > stats.created as u64,
        "dropped forks must have recycled pages through the free list: {stats:?}"
    );
    assert_eq!(
        stats.pages_live, 0,
        "with every cache dropped, no page may stay live: {stats:?}"
    );
    println!(
        "paged_pool rejected={} cow={} created={} peak_live={} free={}",
        stats.rejected, stats.cow_copies, stats.created, stats.peak_live, stats.pages_free
    );
    assert_eq!(
        stats.rejected, 0,
        "a generously sized pool must complete the sweep without rejecting: {stats:?}"
    );
    record.measure("pool cow copies", stats.cow_copies as f64);
    record.measure("pool peak pages", stats.peak_live as f64);

    println!(
        "\nheadline: paged COW fork {speedup_at_realistic:.1}x contiguous at prefix >= 128 \
         ({contig_ns_long:.0} ns -> {paged_ns_long:.0} ns at 224 tokens), flat in prefix \
         length, zero rejections, bitwise-identical logits throughout"
    );
    record.measure("headline fork speedup", speedup_at_realistic);

    save_record(&record, std::path::Path::new(RESULTS_PATH)).expect("write results");
    println!("record appended to {RESULTS_PATH}");
}
