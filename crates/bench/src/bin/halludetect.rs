//! `halludetect` — command-line hallucination scoring.
//!
//! Reads JSON requests from stdin (one object per line) and writes one JSON
//! verdict per line to stdout — the shape a sidecar guardrail process needs.
//!
//! ```text
//! echo '{"question":"What are the working hours?",
//!        "context":"The store operates from 9 AM to 5 PM, from Sunday to Saturday.",
//!        "response":"The working hours are 9 AM to 9 PM."}' \
//!   | cargo run -p bench --release --bin halludetect -- --threshold 0.45
//! ```
//!
//! Flags: `--threshold <f64>` (default 0.45), `--mean harmonic|arithmetic|
//! geometric|min|max`, `--single` (Qwen2 only instead of the two-SLM
//! ensemble), `--no-split`, `--explain`.

use std::io::{BufRead, Write};

use hallu_core::{explain, AggregationMean, DetectorConfig, ResilientDetector};
use slm_runtime::profiles::{minicpm_sim, qwen2_sim};
use slm_runtime::verifier::YesNoVerifier;

#[derive(serde::Deserialize)]
struct Request {
    question: String,
    context: String,
    response: String,
}

#[derive(serde::Serialize)]
struct Verdict {
    score: f64,
    accepted: bool,
    #[serde(skip_serializing_if = "Option::is_none")]
    weakest_sentence: Option<String>,
    #[serde(skip_serializing_if = "Vec::is_empty")]
    sentence_scores: Vec<f64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    explanation: Option<String>,
}

fn parse_args() -> (f64, AggregationMean, bool, bool, bool) {
    let mut threshold = 0.45;
    let mut mean = AggregationMean::Harmonic;
    let mut single = false;
    let mut no_split = false;
    let mut want_explain = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threshold" => {
                threshold = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--threshold needs a number"));
            }
            "--mean" => {
                let name = args.next().unwrap_or_else(|| die("--mean needs a value"));
                mean = AggregationMean::ALL
                    .into_iter()
                    .find(|m| m.as_str() == name)
                    .unwrap_or_else(|| die("unknown mean (harmonic/arithmetic/geometric/max/min)"));
            }
            "--single" => single = true,
            "--no-split" => no_split = true,
            "--explain" => want_explain = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: halludetect [--threshold F] [--mean NAME] [--single] [--no-split] [--explain]\n\
                     reads {{question, context, response}} JSON lines from stdin"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    (threshold, mean, single, no_split, want_explain)
}

fn die(msg: &str) -> ! {
    eprintln!("halludetect: {msg}");
    std::process::exit(2);
}

fn main() {
    let (threshold, mean, single, no_split, want_explain) = parse_args();
    let mut verifiers: Vec<Box<dyn YesNoVerifier>> = vec![Box::new(qwen2_sim())];
    if !single {
        verifiers.push(Box::new(minicpm_sim()));
    }
    let mut detector = ResilientDetector::reliable(
        verifiers,
        DetectorConfig {
            mean,
            split: !no_split,
            parallel: true,
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| die(&e.to_string()));

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) if !l.trim().is_empty() => l,
            Ok(_) => continue,
            Err(e) => die(&format!("stdin error: {e}")),
        };
        let request: Request = match serde_json::from_str(&line) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("halludetect: skipping malformed line: {e}");
                continue;
            }
        };
        // Online calibration: every request also feeds Eq. 4's statistics.
        detector.calibrate(&request.question, &request.context, &request.response);
        let result = detector
            .score(&request.question, &request.context, &request.response)
            .into_result()
            .unwrap_or_else(|| die("verification abstained"));
        let e = explain(&result, threshold);
        let verdict = Verdict {
            score: result.score,
            accepted: e.accepted,
            weakest_sentence: e.weakest_sentence.as_ref().map(|(s, _)| s.clone()),
            sentence_scores: result.sentences.iter().map(|s| s.combined).collect(),
            explanation: want_explain.then(|| e.summary()),
        };
        serde_json::to_writer(&mut out, &verdict).expect("stdout");
        writeln!(out).expect("stdout");
    }
}
