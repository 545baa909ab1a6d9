//! Fixtures shared by this crate's unit tests: the guarded HR-handbook
//! pipeline, its cluster member factory and its request cycle.
//!
//! The experiments build the same pipeline in `bench::handbook`; rag's own
//! tests cannot depend on `bench`, so they share this one copy. It is
//! compiled only for tests and is not part of the crate's API.

use hallu_core::{DetectorConfig, ResilientDetector};
use slm_runtime::profiles::{minicpm_sim, qwen2_sim};
use slm_runtime::{FallibleVerifier, FaultInjector, FaultProfile, Reliable};
use vectordb::collection::Collection;
use vectordb::embed::HashingEmbedder;
use vectordb::flat::FlatIndex;
use vectordb::metric::Metric;

use crate::generate::SimulatedLlm;
use crate::pipeline::RagPipeline;
use crate::serving::{Priority, ShardIdentity};
use crate::verified::{FailurePolicy, ResilientVerifiedPipeline};

/// The four handbook questions: the warm-up set and the request cycle.
pub(crate) const QUESTIONS: [&str; 4] = [
    "From what time does the store operate?",
    "How many days of annual leave per year?",
    "How many shopkeepers run a shop?",
    "Can unused leave be carried over?",
];

/// The handbook RAG pipeline guarded by `detector` at threshold 0.45 under
/// `policy`, warmed up on [`QUESTIONS`].
pub(crate) fn pipeline(
    detector: ResilientDetector,
    policy: FailurePolicy,
) -> ResilientVerifiedPipeline<FlatIndex> {
    let collection = Collection::new(
        Box::new(HashingEmbedder::new(128, 3)),
        FlatIndex::new(128, Metric::Cosine),
    );
    let rag = RagPipeline::new(collection, 7).with_llm(SimulatedLlm::new(2));
    rag.ingest(
        "The store operates from 9 AM to 5 PM, from Sunday to Saturday. There should be \
         at least three shopkeepers to run a shop.",
        "hours",
    )
    .unwrap();
    rag.ingest(
        "Annual leave entitlement is 14 days per calendar year. Unused leave carries over \
         for three months.",
        "leave",
    )
    .unwrap();
    let mut p = ResilientVerifiedPipeline::new(rag, detector, 0.45, policy);
    p.warm_up(&QUESTIONS).unwrap();
    p
}

/// [`pipeline`] guarded by the two-SLM detector (`qwen2_sim`,
/// `minicpm_sim`) with each member behind a fault injector running
/// `profiles[i]`.
pub(crate) fn guarded(
    profiles: [FaultProfile; 2],
    policy: FailurePolicy,
) -> ResilientVerifiedPipeline<FlatIndex> {
    let [p0, p1] = profiles;
    let verifiers: Vec<Box<dyn FallibleVerifier>> = vec![
        Box::new(FaultInjector::new(Reliable::new(qwen2_sim()), p0)),
        Box::new(FaultInjector::new(Reliable::new(minicpm_sim()), p1)),
    ];
    let detector = ResilientDetector::try_new(verifiers, DetectorConfig::default()).unwrap();
    pipeline(detector, policy)
}

/// The healthy cluster member factory: member `(shard, replica)` runs an
/// [`FailurePolicy::Abstain`] pipeline on fault-free injectors seeded
/// `seed` and `seed + 1`, with `seed = seed_base + 10·shard + replica`.
pub(crate) fn member(
    seed_base: u64,
) -> impl FnMut(ShardIdentity) -> ResilientVerifiedPipeline<FlatIndex> {
    move |identity| {
        let seed = seed_base + u64::from(identity.shard) * 10 + u64::from(identity.replica);
        guarded(
            [FaultProfile::none(seed), FaultProfile::none(seed + 1)],
            FailurePolicy::Abstain,
        )
    }
}

/// Request `i` of the handbook workload: it asks `QUESTIONS[i % 4]` at
/// priority Low, Normal or High by `i % 3`.
pub(crate) fn request(i: u32) -> (&'static str, Priority) {
    let priority = match i % 3 {
        0 => Priority::Low,
        1 => Priority::Normal,
        _ => Priority::High,
    };
    (QUESTIONS[i as usize % QUESTIONS.len()], priority)
}
