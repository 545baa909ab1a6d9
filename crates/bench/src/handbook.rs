//! The guarded HR-handbook pipeline and the seeded workload that drives it.
//!
//! Every serving, cluster and observability experiment runs the paper's
//! detector (Splitter → M SLMs → Checker, Fig. 2b) as a guard on RAG
//! answers drawn from a two-document HR handbook, with the simulated
//! Qwen2 and MiniCPM members behind fault injectors. This module builds
//! that pipeline, its detector and its per-member cluster factory, and
//! draws the request stream: a fixed question and priority cycle, arriving
//! evenly or as a seeded Poisson process. Construction is identical on
//! every call, so two pipelines built from the same arguments decide
//! bitwise-identically.

use hallu_core::{DetectorConfig, ResilientDetector};
use hallu_obs::{splitmix64, Obs};
use rag::serving::ShardIdentity;
use rag::{FailurePolicy, Priority, RagPipeline, ResilientVerifiedPipeline, SimulatedLlm};
use slm_runtime::profiles::{minicpm_sim, qwen2_sim};
use slm_runtime::{FallibleVerifier, FaultInjector, FaultProfile, Reliable};
use vectordb::collection::Collection;
use vectordb::embed::HashingEmbedder;
use vectordb::flat::FlatIndex;
use vectordb::metric::Metric;

/// The four handbook questions: the warm-up set and the request cycle.
pub const QUESTIONS: [&str; 4] = [
    "From what time does the store operate?",
    "How many days of annual leave per year?",
    "How many shopkeepers run a shop?",
    "Can unused leave be carried over?",
];

/// The two-SLM detector (`qwen2_sim`, `minicpm_sim`) with each member
/// behind a [`FaultInjector`] running `profiles[i]`. With `obs`, the
/// injectors count their faults on that sink.
pub fn detector(profiles: [FaultProfile; 2], obs: Option<&Obs>) -> ResilientDetector {
    let [p0, p1] = profiles;
    let mut i0 = FaultInjector::new(Reliable::new(qwen2_sim()), p0);
    let mut i1 = FaultInjector::new(Reliable::new(minicpm_sim()), p1);
    if let Some(obs) = obs {
        i0 = i0.with_obs(obs);
        i1 = i1.with_obs(obs);
    }
    let verifiers: Vec<Box<dyn FallibleVerifier>> = vec![Box::new(i0), Box::new(i1)];
    ResilientDetector::try_new(verifiers, DetectorConfig::default()).expect("two verifiers")
}

/// The handbook RAG pipeline guarded by `detector` at threshold 0.45 under
/// `policy`, with retrieval warmed on [`QUESTIONS`].
pub fn pipeline(
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
    .expect("ingest hours doc");
    rag.ingest(
        "Annual leave entitlement is 14 days per calendar year. Unused leave carries over \
         for three months.",
        "leave",
    )
    .expect("ingest leave doc");
    let mut p = ResilientVerifiedPipeline::new(rag, detector, 0.45, policy);
    p.warm_up(&QUESTIONS).expect("warm-up retrieval");
    p
}

/// The cluster member factory: member `(shard, replica)` runs an
/// [`FailurePolicy::Abstain`] pipeline whose two injectors are the
/// fault-free `FaultProfile::none(seed)` and `none(seed + 1)`, with
/// `seed = seed_base + 10·shard + replica`.
pub fn member(seed_base: u64) -> impl FnMut(ShardIdentity) -> ResilientVerifiedPipeline<FlatIndex> {
    move |identity| {
        let seed = seed_base + u64::from(identity.shard) * 10 + u64::from(identity.replica);
        let profiles = [FaultProfile::none(seed), FaultProfile::none(seed + 1)];
        pipeline(detector(profiles, None), FailurePolicy::Abstain)
    }
}

/// Request `i` of every handbook workload: it asks `QUESTIONS[i % 4]` at
/// priority Low, Normal or High by `i % 3`.
pub fn request(i: u64) -> (&'static str, Priority) {
    let priority = match i % 3 {
        0 => Priority::Low,
        1 => Priority::Normal,
        _ => Priority::High,
    };
    (QUESTIONS[(i % QUESTIONS.len() as u64) as usize], priority)
}

/// `n` requests of the [`request`] cycle as a seeded Poisson process at
/// `rate_per_s`, yielded as `(arrival ms, question, priority)`. Each gap is
/// an inverse-CDF exponential draw keyed by `(seed, i)`, so the stream is
/// a pure function of its arguments.
pub fn arrivals(
    seed: u64,
    n: u64,
    rate_per_s: f64,
) -> impl Iterator<Item = (f64, &'static str, Priority)> {
    let rate_per_ms = rate_per_s / 1000.0;
    let mut t = 0.0;
    (0..n).map(move |i| {
        let h = splitmix64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        t += -(1.0 - unit).max(f64::MIN_POSITIVE).ln() / rate_per_ms;
        let (question, priority) = request(i);
        (t, question, priority)
    })
}

/// Nearest-rank p99 of `values` (unsorted input); 0 when empty.
pub fn p99(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((0.99 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_cycle_questions_and_priorities_in_increasing_time() {
        let stream: Vec<_> = arrivals(7, 12, 30.0).collect();
        assert_eq!(stream.len(), 12);
        for (i, (at_ms, question, priority)) in stream.iter().enumerate() {
            assert_eq!((*question, *priority), request(i as u64));
            assert!(*at_ms > 0.0);
        }
        assert!(stream.windows(2).all(|w| w[0].0 < w[1].0));
        let again: Vec<_> = arrivals(7, 12, 30.0).collect();
        assert_eq!(stream, again, "the stream is a pure function of its seed");
    }

    #[test]
    fn p99_is_the_nearest_rank() {
        assert_eq!(p99(&[]), 0.0);
        assert_eq!(p99(&[3.0]), 3.0);
        let values: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(p99(&values), 198.0);
    }
}
