//! Quickstart: score one RAG answer for hallucinations.
//!
//! ```text
//! cargo run -p bench --example quickstart
//! ```
//!
//! Builds the proposed two-SLM detector, calibrates it on a handful of
//! previous responses (Eq. 4's running statistics), and scores the paper's
//! own running example: correct, partially-correct and wrong answers about
//! store working hours.

use hallu_core::{DetectorConfig, ResilientDetector};
use slm_runtime::profiles::{minicpm_sim, qwen2_sim};
use slm_runtime::verifier::YesNoVerifier;

fn main() {
    // The retrieved context and user question (§V-A's example).
    let context = "The store operates from 9 AM to 5 PM, from Sunday to Saturday. \
                   There should be at least three shopkeepers to run a shop.";
    let question = "What are the working hours?";

    // The proposed framework: Qwen2 + MiniCPM, sentence splitting, per-model
    // normalization, harmonic-mean checker. `reliable` wraps verifiers that
    // cannot fail; fallible ones go through `ResilientDetector::try_new`.
    let mut detector = ResilientDetector::reliable(
        vec![
            Box::new(qwen2_sim()) as Box<dyn YesNoVerifier>,
            Box::new(minicpm_sim()) as Box<dyn YesNoVerifier>,
        ],
        DetectorConfig::default(),
    )
    .expect("two verifiers");

    // Calibrate the per-model score statistics on previous traffic.
    for previous in [
        "The store opens at 9 AM.",
        "The store is open every day of the week.",
        "There are three shopkeepers per shop.",
        "The store closes at 5 PM sharp.",
        "Shops run from Sunday to Saturday.",
        "The store closes at midnight.",
        "Only one shopkeeper is required.",
        "Stores are closed on Sundays.",
    ] {
        detector.calibrate(question, context, previous);
    }

    let answers = [
        (
            "correct",
            "The working hours are 9 AM to 5 PM. The store is open from Sunday to Saturday.",
        ),
        (
            "partial",
            "The working hours are 9 AM to 5 PM. The store is open from Monday to Friday.",
        ),
        (
            "wrong",
            "The working hours are 9 AM to 9 PM. You do not need to work on weekends.",
        ),
    ];

    println!("question: {question}\ncontext:  {context}\n");
    for (label, answer) in answers {
        let result = detector
            .score(question, context, answer)
            .into_result()
            .expect("fault-free verifiers never abstain");
        println!("[{label}] s_i = {:.3}   {answer}", result.score);
        for s in &result.sentences {
            println!("         {:.3}  <- {}", s.combined, s.sentence);
        }
        println!();
    }
    println!("higher s_i = more likely correct; threshold it to flag hallucinations");
}
