//! Edge deployment walkthrough: quantize a model to int8, persist the f32
//! weights, reload them, and confirm the verification behaviour survives —
//! the MiniCPM "runs on the device" story end to end.
//!
//! ```text
//! cargo run -p bench --example edge_deployment --release
//! ```

use slm_runtime::bpe::Bpe;
use slm_runtime::config::ModelConfig;
use slm_runtime::model::TransformerLM;
use slm_runtime::prob::p_yes;
use slm_runtime::quant::{QuantizedLM, QuantizedWeights};
use slm_runtime::weights::ModelWeights;
use slm_runtime::weights_io;

fn main() {
    // A tokenizer trained on the target domain and a (synthetic) checkpoint.
    let corpus = [
        "the store operates from 9 am to 5 pm from sunday to saturday",
        "is the answer correct according to the context reply yes or no",
        "annual leave is 14 days per calendar year",
    ];
    let bpe = Bpe::train(&corpus, 300);
    let cfg = ModelConfig::minicpm_like(bpe.vocab_size());
    let weights = ModelWeights::synthetic(&cfg, 2024);
    let f32_model = TransformerLM::new(cfg.clone(), weights.clone());
    println!(
        "model: {} parameters ({} layers)",
        cfg.num_parameters(),
        cfg.n_layers
    );

    // 1. Quantize to int8 and compare memory.
    let quantized = QuantizedWeights::quantize(&weights);
    let f32_bytes = cfg.num_parameters() * 4;
    println!(
        "weights: {:.1} MiB f32  ->  {:.1} MiB int8 matrices",
        f32_bytes as f64 / (1024.0 * 1024.0),
        quantized.quantized_bytes() as f64 / (1024.0 * 1024.0),
    );

    // 2. The verification probability survives quantization: the same
    // prompt through the same probe, so the drift is quantization error only.
    let q_model = QuantizedLM::new(cfg.clone(), &quantized);
    let question = "what are the working hours?";
    let context = "the store operates from 9 am to 5 pm from sunday to saturday";
    let response = "9 am to 5 pm";
    let p_f32 = p_yes(&f32_model, &bpe, question, context, response, None);
    let p_int8 = p_yes(&q_model, &bpe, question, context, response, None);
    println!(
        "P(yes): f32 {p_f32:.4}  int8 {p_int8:.4}  (drift {:.4})",
        (p_f32 - p_int8).abs()
    );

    // 3. Ship the weights as a file and reload them bit-exactly.
    let path = std::env::temp_dir().join("edge-deployment-weights.bin");
    weights_io::save_file(&path, &cfg, &weights).expect("save weights");
    let size = std::fs::metadata(&path).expect("stat").len();
    let (cfg2, weights2) = weights_io::load_file(&path).expect("load weights");
    std::fs::remove_file(&path).ok();
    let reloaded = TransformerLM::new(cfg2, weights2);
    let p_reloaded = p_yes(&reloaded, &bpe, question, context, response, None);
    println!(
        "weights file: {:.1} MiB on disk; reloaded P(yes) {p_reloaded:.4} (exact: {})",
        size as f64 / (1024.0 * 1024.0),
        p_reloaded == p_f32,
    );
}
