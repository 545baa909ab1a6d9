//! Prefix-sharing prefill experiment: prefix length × sentences-per-response
//! × prefix-cache capacity.
//!
//! Three claims, each checked with `assert!` so the sweep doubles as a
//! regression gate (the `prefill_speedup ...` / `probe_speedup ...` /
//! `prefix_cache cap=...` lines are grepped by the CI `prefill-smoke` job):
//!
//! 1. **Parity** — the blocked GEMM [`TransformerLM::prefill`] returns
//!    bitwise-identical logits to the token-at-a-time
//!    `prefill_sequential`, and a prefix-cache hit (fork + suffix-only
//!    prefill) returns bitwise-identical logits to a cold full-prompt
//!    prefill, at every configuration swept.
//! 2. **GEMM prefill throughput** — ≥ 3× tokens/s over sequential at
//!    realistic prefix lengths (≥ 128 tokens), as the median of per-pair
//!    ratios over alternating samples ([`bench::sweep::paired`]). Short
//!    prompts are reported too, honestly: blocking cannot amortize
//!    anything at 4 tokens.
//! 3. **Warm-probe speedup** — with a warm paged prefix cache, scoring a
//!    sentence costs one page-handle fork, a copy-on-write of a partial tail
//!    page and a suffix-only prefill: ≥ 5× over re-prefilling the full
//!    prompt per sentence at prefix 224 × 16 sentences, as the median of
//!    per-pair ratios like claim 2.
//!
//! The capacity sweep cycles probes over 4 distinct prefixes through caches
//! of 1/2/8 entries: an undersized cache thrashes (low hit rate, high
//! evictions) but — because hits are semantically invisible — never changes
//! a logit.

use std::sync::Arc;

use bench::sweep::{bits, paired, tokens};
use bench::{save_record, RESULTS_PATH};
use eval::report::ExperimentRecord;
use slm_runtime::model::prefill_sequential;
use slm_runtime::{
    InferenceModel, ModelConfig, PagedKvPool, PagedPoolConfig, PagedPrefixCache, PrefixCacheConfig,
    TransformerLM, PREFILL_BLOCK,
};

const VOCAB: usize = 8192;
const MODEL_SEED: u64 = 0xF111;
const PREFIX_LENS: [usize; 4] = [4, 32, 128, 224];
const SENTENCE_COUNTS: [usize; 2] = [4, 16];
const SUFFIX_LEN: usize = 16;
const CACHE_CAPS: [usize; 3] = [1, 2, 8];

/// A prefix cache over its own pool, with pages for every entry at the
/// model's full context plus one fork in flight, so no reservation is ever
/// rejected.
fn prefix_cache(model: &TransformerLM, config: PrefixCacheConfig) -> PagedPrefixCache {
    let pages_per_seq = model.config().max_seq_len.div_ceil(PREFILL_BLOCK);
    let max_pages = (config.max_entries + 1) * pages_per_seq;
    let pool = PagedKvPool::new(PagedPoolConfig::for_model(model.config(), max_pages));
    PagedPrefixCache::new(Arc::new(pool), config)
}

/// One sentence probe through `cache`: fork the prefix snapshot (building
/// and admitting it on a miss), then prefill only the suffix.
fn cached_probe(
    model: &TransformerLM,
    cache: &PagedPrefixCache,
    prefix: &[u32],
    suffix: &[u32],
) -> Vec<f32> {
    let mut kv = cache
        .fork_or_build("sweep", prefix, prefix.len() + suffix.len(), |kv| {
            model.prefill_cache_only(prefix, kv)
        })
        .expect("the pool is sized for every entry");
    kv.try_reserve(suffix.len())
        .expect("the pool is sized for a fork in flight");
    model.prefill(suffix, &mut kv)
}

fn main() {
    let model = TransformerLM::synthetic(ModelConfig::qwen2_like(VOCAB), MODEL_SEED);
    let mut record = ExperimentRecord::new(
        "ext-prefill",
        "GEMM prefill + shared-prefix KV cache: prefix len x sentences x cache capacity",
    );

    // ---- Part 1: GEMM prefill vs token-at-a-time, per prefix length ----
    println!(
        "{:>6}  {:>10}  {:>10}  {:>11}  {:>11}  {:>8}",
        "prefix", "seq ms", "gemm ms", "seq tok/s", "gemm tok/s", "speedup"
    );
    let mut speedup_at_realistic = f64::INFINITY;
    for &plen in &PREFIX_LENS {
        let prompt = tokens(plen as u64, plen, VOCAB);

        let mut kv_seq = model.new_cache();
        let want = prefill_sequential(&model, &prompt, &mut kv_seq);
        let mut kv_gemm = model.new_cache();
        let got = model.prefill(&prompt, &mut kv_gemm);
        assert_eq!(
            bits(&want),
            bits(&got),
            "prefix={plen}: GEMM prefill must be bit-identical to sequential"
        );

        let timed = paired(
            || {
                let mut kv = model.new_cache();
                std::hint::black_box(prefill_sequential(&model, &prompt, &mut kv));
            },
            || {
                let mut kv = model.new_cache();
                std::hint::black_box(model.prefill(&prompt, &mut kv));
            },
        );
        let (seq_s, gemm_s, speedup) = (timed.a_s, timed.b_s, timed.ratio);
        if plen >= 128 {
            speedup_at_realistic = speedup_at_realistic.min(speedup);
        }
        println!(
            "{plen:>6}  {:>10.2}  {:>10.2}  {:>11.0}  {:>11.0}  {speedup:>7.2}x",
            seq_s * 1e3,
            gemm_s * 1e3,
            plen as f64 / seq_s,
            plen as f64 / gemm_s,
        );
        // Stable grep target for the CI prefill-smoke job.
        println!("prefill_speedup prefix={plen} {speedup:.2}");
        record.measure(format!("gemm speedup prefix={plen}"), speedup);
        record.measure(format!("gemm tok/s prefix={plen}"), plen as f64 / gemm_s);
    }
    assert!(
        speedup_at_realistic >= 3.0,
        "headline claim failed: GEMM prefill must be >= 3x sequential at prefix >= 128 \
         (got {speedup_at_realistic:.2}x)"
    );

    // ---- Part 2: warm prefix cache vs cold full-prompt probes ----
    println!(
        "\n{:>6}  {:>9}  {:>10}  {:>10}  {:>8}",
        "prefix", "sentences", "cold ms", "warm ms", "speedup"
    );
    let mut warm_speedup_headline = 0.0f64;
    for &plen in &PREFIX_LENS {
        let prefix = tokens(plen as u64, plen, VOCAB);
        for &n_sent in &SENTENCE_COUNTS {
            let suffixes: Vec<Vec<u32>> = (0..n_sent)
                .map(|i| tokens(0xA0 + i as u64, SUFFIX_LEN, VOCAB))
                .collect();

            // Cold: every sentence re-prefills (prefix ++ suffix) from scratch
            // — what the engine does without a prefix cache.
            let cold_probe = |suffix: &[u32]| {
                let full: Vec<u32> = prefix.iter().chain(suffix).copied().collect();
                let mut kv = model.new_cache();
                model.prefill(&full, &mut kv)
            };
            // Warm: fork the shared snapshot, prefill only the suffix.
            let cache = prefix_cache(&model, PrefixCacheConfig::default());
            let warm_probe = |suffix: &[u32]| cached_probe(&model, &cache, &prefix, suffix);

            // Parity first: a cache hit must not move a single logit bit.
            for suffix in &suffixes {
                let cold = cold_probe(suffix);
                let warm = warm_probe(suffix);
                assert_eq!(
                    bits(&cold),
                    bits(&warm),
                    "prefix={plen}: prefix-cache hit must be bit-identical to cold prefill"
                );
            }

            // The snapshot is already resident (built during the parity
            // pass), so the warm side times the steady state: fork + suffix
            // prefill.
            let timed = paired(
                || {
                    for suffix in &suffixes {
                        std::hint::black_box(cold_probe(suffix));
                    }
                },
                || {
                    for suffix in &suffixes {
                        std::hint::black_box(warm_probe(suffix));
                    }
                },
            );
            let (cold_s, warm_s, speedup) = (timed.a_s, timed.b_s, timed.ratio);
            if plen == 224 && n_sent == 16 {
                warm_speedup_headline = speedup;
            }
            println!(
                "{plen:>6}  {n_sent:>9}  {:>10.2}  {:>10.2}  {speedup:>7.2}x",
                cold_s * 1e3,
                warm_s * 1e3,
            );
            println!("probe_speedup prefix={plen} sentences={n_sent} {speedup:.2}");
            record.measure(
                format!("warm probe speedup prefix={plen} sentences={n_sent}"),
                speedup,
            );
        }
    }
    assert!(
        warm_speedup_headline >= 5.0,
        "headline claim failed: warm prefix-cache probes must be >= 5x cold at prefix=224 \
         x 16 sentences (got {warm_speedup_headline:.2}x)"
    );

    // ---- Part 3: capacity — an undersized cache thrashes but stays correct ----
    println!("\ncapacity sweep: 4 distinct prefixes x 4 sentences, round-robin");
    let cap_prefixes: Vec<Vec<u32>> = (0..4).map(|i| tokens(0xC0 + i as u64, 64, VOCAB)).collect();
    let cap_suffixes: Vec<Vec<u32>> = (0..4)
        .map(|i| tokens(0xD0 + i as u64, SUFFIX_LEN, VOCAB))
        .collect();
    let cold_logits: Vec<Vec<Vec<u32>>> = cap_prefixes
        .iter()
        .map(|prefix| {
            cap_suffixes
                .iter()
                .map(|suffix| {
                    let full: Vec<u32> = prefix.iter().chain(suffix).copied().collect();
                    let mut kv = model.new_cache();
                    bits(&model.prefill(&full, &mut kv))
                })
                .collect()
        })
        .collect();
    for &cap in &CACHE_CAPS {
        let cache = prefix_cache(&model, PrefixCacheConfig::with_max_entries(cap));
        // Round-robin over prefixes (the worst case for LRU at cap < 4:
        // each prefix is evicted before its next use).
        for (si, suffix) in cap_suffixes.iter().enumerate() {
            for (pi, prefix) in cap_prefixes.iter().enumerate() {
                let logits = cached_probe(&model, &cache, prefix, suffix);
                assert_eq!(
                    cold_logits[pi][si],
                    bits(&logits),
                    "cap={cap}: eviction pressure must never change a logit"
                );
            }
        }
        let stats = cache.stats();
        let hit_rate = stats.hit_rate();
        println!(
            "prefix_cache cap={cap} hit_rate={hit_rate:.2} hits={} misses={} evictions={}",
            stats.hits, stats.misses, stats.evictions
        );
        record.measure(format!("capacity hit-rate cap={cap}"), hit_rate);
    }

    println!(
        "\nheadline: GEMM prefill {speedup_at_realistic:.1}x sequential at prefix >= 128; \
         warm prefix-cache probes {warm_speedup_headline:.1}x cold at prefix=224 x 16 \
         sentences (bitwise-identical logits throughout)"
    );
    record.measure("headline gemm speedup", speedup_at_realistic);
    record.measure("headline warm probe speedup", warm_speedup_headline);

    save_record(&record, std::path::Path::new(RESULTS_PATH)).expect("write results");
    println!("record appended to {RESULTS_PATH}");
}
