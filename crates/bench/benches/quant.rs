//! Int8 vs f32 engine throughput: blocked prefill.
//!
//! Both engines reach equivalent verdicts (the AUC eval gate in `quant_sweep`
//! bounds the drift); this bench quantifies what the int8 path buys. Measured
//! on [`ModelConfig::qwen2_wide`] — the GEMM-bound shape real SLM serving
//! lives in; at the miniature `hidden = 96` profile, precision-independent
//! work (softmax, RoPE, norms) dominates and flattens the comparison. Record
//! the headline numbers in EXPERIMENTS.md.

use bench::sweep::tokens;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use slm_runtime::{InferenceModel, ModelConfig, Precision, QuantizedLM, TransformerLM};

const VOCAB: usize = 2048;
const PREFIX_LEN: usize = 64;

fn bench_quant(c: &mut Criterion) {
    let cfg = ModelConfig::qwen2_wide(VOCAB);
    let f32_model = TransformerLM::synthetic(cfg.clone(), 0xF111);
    let int8_model = QuantizedLM::synthetic(cfg.with_precision(Precision::Int8), 0xF111);
    let prompt = tokens(1, PREFIX_LEN, VOCAB);

    let mut group = c.benchmark_group(format!("quant_prefill_{PREFIX_LEN}_tokens"));
    group.bench_function("f32", |b| {
        b.iter(|| {
            let mut kv = f32_model.new_cache_with_capacity(prompt.len());
            f32_model.prefill(black_box(&prompt), &mut kv)
        })
    });
    group.bench_function("int8", |b| {
        b.iter(|| {
            let mut kv = int8_model.new_cache_with_capacity(prompt.len());
            int8_model.prefill(black_box(&prompt), &mut kv)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_quant);
criterion_main!(benches);
