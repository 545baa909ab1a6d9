//! Transformer engine: prefill latency and first-token P(yes) extraction —
//! the cost of one verification call on a locally deployed SLM.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use slm_runtime::bpe::Bpe;
use slm_runtime::config::ModelConfig;
use slm_runtime::model::{InferenceModel, TransformerLM};
use slm_runtime::prob::p_yes;
use slm_runtime::quant::QuantizedLM;

fn setup() -> (TransformerLM, TransformerLM, Bpe) {
    let corpus = [
        "the store operates from 9 am to 5 pm from sunday to saturday",
        "context question answer is the answer correct according to the context reply yes or no",
        "annual leave is 14 days per year and probation lasts three months",
    ];
    let bpe = Bpe::train(&corpus, 300);
    let tiny = TransformerLM::synthetic(ModelConfig::tiny(bpe.vocab_size()), 7);
    let qwen_like = TransformerLM::synthetic(ModelConfig::qwen2_like(bpe.vocab_size()), 7);
    (tiny, qwen_like, bpe)
}

fn bench_engine(c: &mut Criterion) {
    let (tiny, qwen_like, bpe) = setup();
    let prompt = bpe.encode(
        "context: the store operates from 9 am to 5 pm question: what are the working hours \
         answer: 9 am to 5 pm reply yes or no:",
        true,
    );

    let mut group = c.benchmark_group("engine");
    group.sample_size(20);
    group.bench_function("prefill_tiny", |b| {
        b.iter(|| {
            let mut cache = tiny.new_cache();
            tiny.prefill(black_box(&prompt), &mut cache)
        })
    });
    group.bench_function("prefill_qwen2_like", |b| {
        b.iter(|| {
            let mut cache = qwen_like.new_cache();
            qwen_like.prefill(black_box(&prompt), &mut cache)
        })
    });
    let (q, ctx, r) = (
        "what are the working hours?",
        "the store operates from 9 am to 5 pm",
        "9 am to 5 pm",
    );
    group.bench_function("p_yes_qwen2_like", |b| {
        b.iter(|| p_yes(&qwen_like, &bpe, black_box(q), ctx, r, None))
    });
    let minicpm_int8 = QuantizedLM::synthetic(ModelConfig::minicpm_like(bpe.vocab_size()), 7);
    group.bench_function("p_yes_quantized_minicpm_like", |b| {
        b.iter(|| p_yes(&minicpm_int8, &bpe, black_box(q), ctx, r, None))
    });
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
