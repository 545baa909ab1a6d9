//! Cross-crate integration tests for the substrates: the transformer engine
//! with its tokenizer, the vector database inside the RAG pipeline, and the
//! splitter feeding the detector.

use hallu_core::{DetectorConfig, ResilientDetector};
use rag::generate::GenerationMode;
use rag::pipeline::RagPipeline;
use slm_runtime::bpe::Bpe;
use slm_runtime::config::ModelConfig;
use slm_runtime::model::TransformerLM;
use slm_runtime::prob::p_yes;
use slm_runtime::profiles::{minicpm_sim, qwen2_sim};
use slm_runtime::verifier::YesNoVerifier;
use vectordb::collection::Collection;
use vectordb::embed::HashingEmbedder;
use vectordb::flat::FlatIndex;
use vectordb::hnsw::HnswIndex;
use vectordb::index::VectorIndex;
use vectordb::ivf::IvfIndex;
use vectordb::metric::Metric;

/// The engine path of Eq. 2: tokenizer + transformer + first-token P(yes).
#[test]
fn engine_extracts_first_token_probability_end_to_end() {
    let corpus = [
        "the store operates from 9 am to 5 pm from sunday to saturday",
        "context question answer is the answer correct according to the context reply yes or no",
        "working hours are 9 am to 5 pm",
    ];
    let bpe = Bpe::train(&corpus, 300);
    let model = TransformerLM::synthetic(ModelConfig::qwen2_like(bpe.vocab_size()), 7);

    let question = "what are the working hours?";
    let p1 = p_yes(&model, &bpe, question, corpus[0], "9 am to 5 pm", None);
    let p2 = p_yes(&model, &bpe, question, corpus[0], "9 am to 9 pm", None);
    assert!((0.0..=1.0).contains(&p1));
    assert!((0.0..=1.0).contains(&p2));
    // Synthetic weights are uninformative, but the probability must be a
    // real function of the input, computed in one forward pass.
    assert_ne!(p1, p2);
}

/// All three index types retrieve the same top hit on a small corpus.
#[test]
fn flat_ivf_hnsw_agree_on_clear_queries() {
    let docs = [
        "annual leave entitlement is 14 days per calendar year",
        "the probation period lasts three months for new employees",
        "uniforms must be worn at all times inside the store",
        "salaries are paid on day 25 of each month",
        "expense claims must be submitted within 30 days",
    ];
    let embedder = HashingEmbedder::new(128, 5);
    let mut flat = FlatIndex::new(128, Metric::Cosine);
    let mut ivf = IvfIndex::new(128, Metric::Cosine, 2, 2, 5);
    let mut hnsw = HnswIndex::new(128, Metric::Cosine, 8, 32, 5);
    use vectordb::embed::Embedder;
    for (i, d) in docs.iter().enumerate() {
        let v = embedder.embed(d);
        flat.insert(i as u64, v.clone()).unwrap();
        ivf.insert(i as u64, v.clone()).unwrap();
        hnsw.insert(i as u64, v).unwrap();
    }
    ivf.build(10);
    for (query, expect) in [
        ("how long is probation for a new employee?", 1u64),
        ("when are salaries paid?", 3),
        ("how many days of annual leave?", 0),
    ] {
        let q = embedder.embed(query);
        assert_eq!(flat.search(&q, 1).unwrap()[0].0, expect, "flat: {query}");
        assert_eq!(ivf.search(&q, 1).unwrap()[0].0, expect, "ivf: {query}");
        assert_eq!(hnsw.search(&q, 1).unwrap()[0].0, expect, "hnsw: {query}");
    }
}

/// RAG answers feed straight into the detector; grounded answers pass,
/// injected ones fail.
#[test]
fn rag_to_detector_roundtrip() {
    let collection = Collection::new(
        Box::new(HashingEmbedder::new(256, 9)),
        FlatIndex::new(256, Metric::Cosine),
    );
    let pipeline = RagPipeline::new(collection, 1).with_llm(rag::generate::SimulatedLlm::new(2));
    pipeline
        .ingest(
            "The store operates from 9 AM to 5 PM, from Sunday to Saturday. There should be \
             at least three shopkeepers to run a shop.",
            "hours",
        )
        .unwrap();

    let mut detector = ResilientDetector::reliable(
        vec![
            Box::new(qwen2_sim()) as Box<dyn YesNoVerifier>,
            Box::new(minicpm_sim()) as Box<dyn YesNoVerifier>,
        ],
        DetectorConfig::default(),
    )
    .unwrap();

    let question = "From what time does the store operate?";
    let good = pipeline.answer(question, GenerationMode::Correct).unwrap();
    let bad = pipeline.answer(question, GenerationMode::Wrong).unwrap();
    for a in [&good, &bad] {
        detector.calibrate(&a.question, &a.context, &a.response);
    }
    // pad calibration with neutral variants
    for i in 0..8 {
        detector.calibrate(
            question,
            &good.context,
            &format!("The store runs shifts, case {i}."),
        );
    }

    let sg = detector
        .score(&good.question, &good.context, &good.response)
        .score()
        .unwrap();
    let sb = detector
        .score(&bad.question, &bad.context, &bad.response)
        .score()
        .unwrap();
    assert!(sg > sb, "grounded {sg} vs injected {sb}");
}

/// Hybrid (dense + BM25) retrieval feeds the RAG pipeline: the fused ids
/// resolve back to documents that answer the question.
#[test]
fn hybrid_retrieval_end_to_end() {
    use vectordb::embed::Embedder;
    use vectordb::hybrid::HybridSearcher;
    use vectordb::store::{DocStore, Document};

    let embedder = HashingEmbedder::new(128, 11);
    let mut searcher = HybridSearcher::new(FlatIndex::new(128, Metric::Cosine));
    let mut store = DocStore::new();
    for text in [
        "The store operates from 9 AM to 5 PM from Sunday to Saturday.",
        "Annual leave entitlement is 14 days per calendar year.",
        "Expense claims must be submitted within 30 days with original receipts.",
    ] {
        let id = store.insert(Document::new(text));
        searcher.insert(id, text, embedder.embed(text)).unwrap();
    }
    let q = "how soon must expense claims with receipts be submitted?";
    let hits = searcher.search(q, &embedder.embed(q), 1).unwrap();
    let doc = store.get(hits[0].0).unwrap();
    assert!(doc.text.contains("Expense claims"), "{}", doc.text);
}

/// The splitter's sentence count drives the detector's per-sentence report.
#[test]
fn splitter_and_detector_agree_on_sentence_counts() {
    let mut detector = ResilientDetector::reliable(
        vec![Box::new(qwen2_sim()) as Box<dyn YesNoVerifier>],
        DetectorConfig::default(),
    )
    .unwrap();
    let ctx = "The store opens at 9 AM. Dr. Lee manages the floor.";
    detector.calibrate("q", ctx, "The store opens at 9 AM.");
    let response = "The store opens at 9 AM. Dr. Lee manages the floor. Ask at the desk.";
    let result = detector
        .score("who manages the floor?", ctx, response)
        .into_result()
        .unwrap();
    assert_eq!(
        result.sentences.len(),
        text_engine::split_sentences(response).len()
    );
    assert_eq!(result.sentences.len(), 3); // "Dr." must not split
}

/// Persistence: a vector snapshot restored into a fresh HNSW index serves
/// the RAG pipeline identically.
#[test]
fn snapshot_restore_preserves_retrieval() {
    let collection = Collection::new(
        Box::new(HashingEmbedder::new(64, 3)),
        FlatIndex::new(64, Metric::Cosine),
    );
    for text in [
        "alpha policy on leave",
        "beta policy on uniforms",
        "gamma policy on email",
    ] {
        collection
            .add(vectordb::store::Document::new(text))
            .unwrap();
    }
    let before = collection.query("uniform policy", 1).unwrap()[0].id;

    let snap = vectordb::persist::snapshot_flat(&collection);
    let mut restored = HnswIndex::new(64, Metric::Cosine, 4, 16, 3);
    let mut store = vectordb::store::DocStore::new();
    vectordb::persist::restore_into(snap, &mut restored, |id, doc| store.put(id, doc)).unwrap();

    use vectordb::embed::Embedder;
    let q = HashingEmbedder::new(64, 3).embed("uniform policy");
    let after = restored.search(&q, 1).unwrap()[0].0;
    assert_eq!(before, after);
    assert!(store.get(after).unwrap().text.contains("uniform"));
}
