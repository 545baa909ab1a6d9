//! Prompt-processing latency: token-at-a-time vs blocked GEMM vs prefix-hit.
//!
//! Three ways to reach the same logits (bitwise — see
//! `gemm_prefill_is_bit_identical_to_sequential` in `slm-runtime`):
//! `sequential` feeds the 144-token prompt through `model::prefill_sequential`
//! (one `forward_token` per position, lm_head every step); `gemm` runs the
//! blocked multi-token `prefill` (lm_head only on the last row); `prefix_hit`
//! forks a warm 128-token prefix snapshot from a [`PagedPrefixCache`] and
//! prefills only the 16-token suffix — the steady state when many sentence
//! probes share one (question, context) cell. Record the headline numbers in
//! EXPERIMENTS.md.

use std::sync::Arc;

use bench::sweep::tokens;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use slm_runtime::model::prefill_sequential;
use slm_runtime::{
    InferenceModel, ModelConfig, PagedKvPool, PagedPoolConfig, PagedPrefixCache, PrefixCacheConfig,
    TransformerLM,
};

const VOCAB: usize = 2048;
const PREFIX_LEN: usize = 128;
const SUFFIX_LEN: usize = 16;

fn bench_prefill(c: &mut Criterion) {
    let model = TransformerLM::synthetic(ModelConfig::qwen2_like(VOCAB), 0xF111);
    let prefix = tokens(1, PREFIX_LEN, VOCAB);
    let suffix = tokens(2, SUFFIX_LEN, VOCAB);
    let full: Vec<u32> = prefix.iter().chain(&suffix).copied().collect();

    let mut group = c.benchmark_group("prefill_144_tokens");

    group.bench_function("sequential", |b| {
        b.iter(|| {
            let mut kv = model.new_cache();
            prefill_sequential(&model, black_box(&full), &mut kv)
        })
    });

    group.bench_function("gemm", |b| {
        b.iter(|| {
            let mut kv = model.new_cache();
            model.prefill(black_box(&full), &mut kv)
        })
    });

    // Warm path: the prefix snapshot exists; a probe pays one fork (page
    // handle clones) plus a suffix-only GEMM prefill into a fresh tail page.
    let pool = PagedKvPool::new(PagedPoolConfig::for_model(model.config(), 16));
    let cache = PagedPrefixCache::new(Arc::new(pool), PrefixCacheConfig::default());
    let probe = || {
        let mut kv = cache
            .fork_or_build("bench", black_box(&prefix), full.len(), |kv| {
                model.prefill_cache_only(&prefix, kv)
            })
            .expect("the pool holds the snapshot");
        kv.try_reserve(SUFFIX_LEN)
            .expect("the pool holds a fork in flight");
        model.prefill(black_box(&suffix), &mut kv)
    };
    probe(); // builds the snapshot
    group.bench_function("prefix_hit", |b| b.iter(&probe));

    group.finish();
}

criterion_group!(benches, bench_prefill);
criterion_main!(benches);
