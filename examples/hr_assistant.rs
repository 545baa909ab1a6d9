//! End-to-end HR assistant: ingest a handbook into the vector database,
//! answer questions with RAG, and verify every answer before serving it.
//!
//! ```text
//! cargo run -p bench --example hr_assistant
//! ```
//!
//! This is the full Fig. 2 flow through the high-level
//! [`rag::ResilientVerifiedPipeline`] API: (a) vector-DB retrieval +
//! generation, then (b) the proposed verification framework deciding whether
//! each generated answer is safe to show. The guard fails closed: an answer
//! no verifier could check is withheld, never served unverified.
//! Hallucinations are injected into some answers to demonstrate the
//! guardrail firing with its explanation.

use hallu_core::{DetectorConfig, ResilientDetector};
use rag::generate::GenerationMode;
use rag::pipeline::RagPipeline;
use rag::verified::{FailurePolicy, ResilientAnswer, ResilientVerifiedPipeline};
use slm_runtime::profiles::{minicpm_sim, qwen2_sim};
use slm_runtime::verifier::YesNoVerifier;
use vectordb::collection::Collection;
use vectordb::embed::HashingEmbedder;
use vectordb::hnsw::HnswIndex;
use vectordb::metric::Metric;

const HANDBOOK: &[(&str, &str)] = &[
    (
        "hours",
        "The store operates from 9 AM to 5 PM, from Sunday to Saturday. There should be at \
         least three shopkeepers to run a shop. Staff lockers are available in the back office.",
    ),
    (
        "leave",
        "Full-time employees are entitled to 14 days of annual leave per calendar year. Unused \
         leave can be carried over for three months into the next year. Requests go through \
         the portal.",
    ),
    (
        "uniform",
        "Uniforms must be worn at all times on the shop floor. A uniform allowance of $300 is \
         provided every year. Damaged uniforms are replaced at no cost after inspection.",
    ),
    (
        "media",
        "All media requests must be forwarded to the communications team. Employees must not \
         speak to journalists on behalf of the company.",
    ),
];

fn main() {
    // 1. Ingest the handbook into an HNSW-indexed vector collection.
    let collection = Collection::new(
        Box::new(HashingEmbedder::new(256, 7)),
        HnswIndex::new(256, Metric::Cosine, 8, 64, 7),
    );
    // Cap answers at two sentences so the extractive generator stays on
    // topic even when retrieval returns more than one chunk.
    let rag = RagPipeline::new(collection, 42).with_llm(rag::generate::SimulatedLlm::new(2));
    for (topic, text) in HANDBOOK {
        let chunks = rag.ingest(text, topic).expect("ingest");
        println!("ingested {topic}: {chunks} chunk(s)");
    }

    // 2. The verification guardrail, wrapped with the RAG pipeline.
    let detector = ResilientDetector::reliable(
        vec![
            Box::new(qwen2_sim()) as Box<dyn YesNoVerifier>,
            Box::new(minicpm_sim()) as Box<dyn YesNoVerifier>,
        ],
        DetectorConfig {
            parallel: true,
            ..Default::default()
        },
    )
    .expect("two verifiers");
    let mut assistant =
        ResilientVerifiedPipeline::new(rag, detector, 0.40, FailurePolicy::FailClosed);
    assistant
        .warm_up(&[
            "From what time does the store operate?",
            "How many days of annual leave do employees get?",
            "Is a uniform required on the shop floor?",
            "How should employees handle media requests?",
        ])
        .expect("warm-up");

    // 3. Serve faithful answers; inject failures for two questions to show
    //    the guardrail catching them.
    println!(
        "\n--- guarded Q&A (threshold {}) ---\n",
        assistant.threshold
    );
    let traffic = [
        (
            "From what time does the store operate?",
            GenerationMode::Correct,
        ),
        (
            "How many days of annual leave do employees get?",
            GenerationMode::Correct,
        ),
        (
            "Is a uniform required on the shop floor?",
            GenerationMode::Wrong,
        ),
        (
            "How should employees handle media requests?",
            GenerationMode::Partial,
        ),
    ];
    for (question, mode) in traffic {
        let answer = assistant.rag().answer(question, mode).expect("rag answer");
        match assistant.ask_with(answer) {
            ResilientAnswer::Served {
                answer,
                score,
                confidence,
                ..
            } => {
                println!("SERVE  (s={score:.3}, {confidence:?}) Q: {question}");
                println!("        A: {}", answer.response);
            }
            ResilientAnswer::Blocked {
                answer,
                score,
                suspected_sentence,
                ..
            } => {
                println!("BLOCK  (s={score:.3}) Q: {question}");
                println!("        withheld: {}", answer.response);
                if let Some(s) = suspected_sentence {
                    println!("        suspected hallucination: \"{s}\"");
                }
            }
            // fail-closed: an answer no verifier could score is withheld
            ResilientAnswer::Unverified { answer, .. }
            | ResilientAnswer::Abstained { answer, .. } => {
                println!("BLOCK  (unverified) Q: {question}");
                println!("        withheld: {}", answer.response);
            }
        }
        println!();
    }
}
