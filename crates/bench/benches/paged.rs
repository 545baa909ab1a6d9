//! Sentence-fork cost: contiguous KV snapshot clone vs paged COW fork.
//!
//! A contiguous fork memcpys every prefix row, so its cost grows linearly
//! in prefix length; a paged fork clones one `Arc` per resident page, so
//! its cost is flat in tokens (O(blocks touched)). The hard assertions
//! behind this claim live in `paged_sweep` — this bench produces the
//! per-length latency curves recorded in EXPERIMENTS.md.

use std::sync::Arc;

use bench::sweep::tokens;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use slm_runtime::{InferenceModel, ModelConfig, PagedKvPool, PagedPoolConfig, TransformerLM};

const VOCAB: usize = 2048;
const PREFIX_LENS: [usize; 3] = [32, 128, 224];
const SUFFIX_LEN: usize = 16;

fn bench_fork(c: &mut Criterion) {
    let model = TransformerLM::synthetic(ModelConfig::qwen2_like(VOCAB), 0xF222);
    let pool = Arc::new(PagedKvPool::new(PagedPoolConfig::for_model(
        model.config(),
        64,
    )));

    let mut group = c.benchmark_group("kv_fork");
    for &plen in &PREFIX_LENS {
        let prefix = tokens(plen as u64, plen, VOCAB);
        let need = plen + SUFFIX_LEN;

        let mut warm = model.new_cache_with_capacity(need);
        model.prefill_cache_only(&prefix, &mut warm);
        group.bench_function(format!("contiguous_{plen}"), |b| {
            b.iter(|| black_box(warm.fork_with_capacity(need)))
        });

        let mut paged = pool.new_cache(need);
        paged.try_reserve(plen).expect("pool sized for the sweep");
        model.prefill_cache_only(&prefix, &mut paged);
        group.bench_function(format!("paged_{plen}"), |b| {
            b.iter(|| black_box(paged.fork_with_capacity(need)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fork);
criterion_main!(benches);
