//! Golden bitwise-parity suite for the batched scoring engine and the
//! sharded verification cache.
//!
//! The claim under test: batching, parallel probe execution, and memoized
//! verification are *performance* features — they must never change a
//! single decision. Every test here runs the same workload down two paths
//! (sequential/uncached vs batched/cached) and demands `==` on the typed
//! outcomes, which for the f64-carrying types below means bitwise equality
//! of every score, latency charge, and telemetry field.
//!
//! Coverage:
//! - zero load: a cached serving runtime is a transparent wrapper;
//! - overload: all three [`ShedPolicy`]s × all three [`FailurePolicy`]s
//!   under chaos faults, queue bound 2, 150 ms deadlines;
//! - `ask_batch` vs per-question `ask`, including the Eq. 4 normalizer;
//! - `score_all` (one parallel, cached probe pass) vs `score_batch`
//!   (sequential) under injected faults, twice;
//! - fault isolation: injected garbage, transients, and a hard-down model
//!   never leave an invalid entry in the cache.
//! - paged KV pool: copy-on-write sentence forks, LRU evict-then-refault,
//!   and pool exhaustion all score bitwise-identically to the contiguous
//!   uncached path;
//! - parallel serving: a runtime probing on worker threads decides exactly
//!   what the inline runtime decides under chaos overload, down to
//!   identical telemetry snapshots.

use std::collections::HashSet;
use std::sync::Arc;

use bench::handbook::{self, QUESTIONS};
use hallu_core::{DetectorConfig, ResilientDetector};
use hallu_obs::Obs;
use rag::serving::{Priority, ServingConfig, ServingRuntime, ShedPolicy};
use rag::FailurePolicy;
use slm_runtime::bpe::Bpe;
use slm_runtime::{
    CacheConfig, EngineVerifier, FallibleVerifier, FaultInjector, FaultProfile, ModelConfig,
    PagedKvPool, PagedPoolConfig, PagedPrefixCache, PrefixCacheConfig, Reliable, TransformerLM,
    VerificationCache,
};
use text_engine::sentence::SentenceSplitter;
use vectordb::flat::FlatIndex;

/// The chaos profiles used throughout: both models flaky at a 20% mixed
/// fault rate (transients + stalls + garbage).
fn chaos() -> [FaultProfile; 2] {
    [FaultProfile::uniform(7, 0.2), FaultProfile::uniform(8, 0.2)]
}

/// Submit the standard overload workload: 30 requests, 5 ms apart, on the
/// handbook cycle of priorities Low/Normal/High and the four questions (so
/// every question repeats ~7x — plenty of cache reuse).
fn submit_overload(rt: &mut ServingRuntime<FlatIndex>) {
    for i in 0..30u32 {
        let (question, priority) = handbook::request(u64::from(i));
        rt.submit_at(5.0 * f64::from(i), question, priority);
    }
}

/// The golden test: under overload (queue bound 2, 150 ms deadlines, chaos
/// faults) the batched+cached runtime decides *exactly* what the sequential
/// uncached runtime decides — same sheds, same deadline misses, same
/// verdicts, same virtual timestamps — across every shed policy × failure
/// policy combination.
#[test]
fn overload_outcomes_are_bitwise_identical_across_all_policies() {
    let shed_policies = [
        ShedPolicy::RejectNewest,
        ShedPolicy::ShedLowestPriority,
        ShedPolicy::LifoUnderOverload,
    ];
    let failure_policies = [
        FailurePolicy::Abstain,
        FailurePolicy::FailOpen,
        FailurePolicy::FailClosed,
    ];
    let mut total_hits = 0u64;
    for shed_policy in shed_policies {
        for failure_policy in failure_policies {
            let config = ServingConfig {
                queue_bound: Some(2),
                shed_policy,
                default_deadline_ms: 150.0,
            };
            let mut plain = ServingRuntime::new(
                handbook::pipeline(handbook::detector(chaos(), None), failure_policy),
                config,
            );
            let cache = Arc::new(VerificationCache::new(CacheConfig::default()));
            let mut batched = ServingRuntime::new(
                handbook::pipeline(handbook::detector(chaos(), None), failure_policy),
                config,
            )
            .with_cache(cache);
            submit_overload(&mut plain);
            submit_overload(&mut batched);
            plain.run_until_idle();
            batched.run_until_idle();
            assert_eq!(
                plain.drain_outcomes(),
                batched.drain_outcomes(),
                "{shed_policy:?} x {failure_policy:?}: caching must not move a single decision"
            );
            total_hits += batched.cache().unwrap().stats().hits;
        }
    }
    assert!(
        total_hits > 0,
        "repeated questions under overload must actually exercise the cache"
    );
}

/// Zero-pressure sanity: with no queue bound, no deadlines, and no faults, a
/// cached runtime is a transparent wrapper — bitwise identical to calling
/// the pipeline directly.
#[test]
fn zero_load_cached_runtime_is_a_transparent_wrapper() {
    let healthy = || {
        let detector = handbook::detector([FaultProfile::none(1), FaultProfile::none(2)], None);
        handbook::pipeline(detector, FailurePolicy::Abstain)
    };
    let mut direct = healthy();
    let cache = Arc::new(VerificationCache::new(CacheConfig::default()));
    let mut rt = ServingRuntime::new(healthy(), ServingConfig::default()).with_cache(cache);
    for (i, q) in QUESTIONS.iter().enumerate() {
        rt.submit_at(i as f64, q, Priority::Normal);
    }
    rt.run_until_idle();
    let outcomes = rt.drain_outcomes();
    assert_eq!(outcomes.len(), QUESTIONS.len());
    for (o, q) in outcomes.iter().zip(QUESTIONS) {
        let expected = direct.ask(q).unwrap();
        match &o.disposition {
            rag::Disposition::Completed(got) => assert_eq!(**got, expected, "{q}"),
            other => panic!("{q}: unexpected disposition {other:?}"),
        }
    }
}

/// `ask_batch` (generate-all, prefetch-all, then guard each) returns exactly
/// what per-question `ask` calls return, and leaves the Eq. 4 normalizer in
/// the same state — the prefetch must not observe a single score.
#[test]
fn ask_batch_matches_sequential_asks_under_chaos() {
    let questions = [QUESTIONS[0], QUESTIONS[1], QUESTIONS[0], QUESTIONS[3]];
    let mut sequential =
        handbook::pipeline(handbook::detector(chaos(), None), FailurePolicy::Abstain);
    let cache = Arc::new(VerificationCache::new(CacheConfig::default()));
    let mut batched = handbook::pipeline(handbook::detector(chaos(), None), FailurePolicy::Abstain)
        .with_cache(cache.clone());

    let want: Vec<_> = questions
        .iter()
        .map(|q| sequential.ask(q).unwrap())
        .collect();
    let got = batched.ask_batch(&questions).unwrap();
    assert_eq!(want, got, "batched answers must match sequential answers");
    assert_eq!(
        sequential.detector().normalizer(),
        batched.detector().normalizer(),
        "prefetching must leave calibration statistics untouched"
    );
    assert!(
        cache.stats().hits > 0,
        "the duplicate question must resolve from the cache: {:?}",
        cache.stats()
    );
}

/// Detector-level parity: `score_all` (one parallel probe pass through a
/// cache) on a duplicate-heavy item list equals `score_batch` on a
/// sequential uncached detector, verdict for verdict, under injected faults
/// — first with a cold cache, then with a warm one.
#[test]
fn score_all_matches_sequential_score_batch_under_chaos() {
    const CTX: &str = "The store operates from 9 AM to 5 PM, from Sunday to Saturday. \
                       There should be at least three shopkeepers to run a shop.";
    const Q: &str = "What are the working hours?";
    let responses = [
        "The working hours are 9 AM to 5 PM. The store is open from Sunday to Saturday.",
        "The working hours are 9 AM to 5 PM. The store is open from Monday to Friday.",
        "The working hours are 9 AM to 9 PM. You do not need to work on weekends.",
        // duplicate of the first item: must coalesce in the batch plan
        "The working hours are 9 AM to 5 PM. The store is open from Sunday to Saturday.",
    ];
    let items: Vec<(&str, &str, &str)> = responses.iter().map(|r| (Q, CTX, *r)).collect();

    let build = |parallel: bool| {
        let mut d = handbook::detector(chaos(), None);
        d.config.parallel = parallel;
        for r in responses {
            d.calibrate(Q, CTX, r);
        }
        d
    };

    let sequential = build(false);
    let cache = Arc::new(VerificationCache::new(CacheConfig::default()));
    let batched = build(true).with_cache(cache.clone());
    // Every distinct (model, sentence) cell of the batch; the duplicate item
    // adds none.
    let unique = responses
        .iter()
        .flat_map(|r| SentenceSplitter::new().split(r))
        .map(|s| s.text.to_string())
        .collect::<HashSet<String>>()
        .len() as u64
        * 2;

    let want = sequential.score_batch(&items);
    let got = batched.score_all(&items);
    assert_eq!(
        want, got,
        "score_all must be bitwise-identical to score_batch"
    );
    // One probe pass: each distinct cell is looked up once (the duplicate
    // item coalesces in the batch engine, before the cache) and never again.
    let first = cache.stats();
    assert_eq!(first.hits, 0, "{first:?}");
    assert_eq!(first.misses, unique, "{first:?}");
    assert_eq!(first.inserts + first.rejected, unique, "{first:?}");

    // The same batch again: identical verdicts, and every memoized cell
    // resolves from the cache while fault outcomes (never cached) re-probe.
    assert_eq!(
        sequential.score_batch(&items),
        batched.score_all(&items),
        "a cache-served score_all must stay bitwise-identical"
    );
    let second = cache.stats();
    assert_eq!(second.hits, first.inserts, "{second:?}");
    assert_eq!(second.misses - first.misses, first.rejected, "{second:?}");
}

/// Fault isolation: a backend spewing garbage scores and transients — plus
/// one model that is completely down — must never poison the cache. Every
/// memoized entry holds a valid probability, and the dead model contributes
/// no entries at all.
#[test]
fn injected_faults_never_poison_the_cache() {
    const CTX: &str = "Annual leave entitlement is 14 days per calendar year. Unused leave \
                       carries over for three months.";
    const Q: &str = "How many days of annual leave per year?";
    let responses = [
        "Annual leave is 14 days per year. Unused leave carries over for three months.",
        "Annual leave is 30 days per year. Unused leave never carries over.",
        "Leave policy is generous.",
    ];
    let garbage_heavy = FaultProfile {
        transient_rate: 0.3,
        garbage_rate: 0.5,
        ..FaultProfile::none(41)
    };
    let cache = Arc::new(VerificationCache::new(CacheConfig::default()));
    let detector =
        handbook::detector([garbage_heavy, FaultProfile::down(42)], None).with_cache(cache.clone());

    let items: Vec<(&str, &str, &str)> = responses.iter().map(|r| (Q, CTX, *r)).collect();
    let _ = detector.score_all(&items);
    // a second pass maximizes the chance a poisoned entry would be replayed
    let _ = detector.score_all(&items);

    let entries = cache.entries_snapshot();
    assert!(
        !entries.is_empty(),
        "the surviving model must have produced cacheable outcomes"
    );
    for (key, outcome) in &entries {
        let p = outcome
            .score
            .expect("only outcomes carrying a score are cacheable");
        assert!(
            p.is_finite() && (0.0..=1.0).contains(&p),
            "cached entry for {key:?} holds an invalid probability {p}"
        );
        assert_ne!(
            key.model, "minicpm-2b-sim",
            "a hard-down model can never contribute a cache entry"
        );
    }
    let stats = cache.stats();
    assert!(
        stats.rejected > 0,
        "garbage scores must have been offered to — and refused by — the cache: {stats:?}"
    );
}

// ---------------------------------------------------------------------------
// Paged KV pool parity wall
// ---------------------------------------------------------------------------

const PAGED_CTX: &str = "the store operates from 9 am to 5 pm from sunday to saturday. there \
                         should be at least three shopkeepers to run a shop.";
const PAGED_Q: &str = "what are the working hours?";

/// Multi-sentence responses for the paged chain: every sentence probes with
/// the same `(question, context)` prefix, so one response exercises
/// prefill → fork → extend several times per model.
const PAGED_RESPONSES: [&str; 3] = [
    "the store operates from 9 am. the store operates to 5 pm. open from sunday to saturday.",
    "the store operates from 9 am to 9 pm. the shop runs with three shopkeepers.",
    "working hours are from sunday to saturday. the store operates from 9 am to 5 pm.",
];

/// One fault-injected engine, identical per seed, optionally wired to a
/// shared paged prefix cache.
fn paged_engine(seed: u64, paged: &Option<Arc<PagedPrefixCache>>) -> EngineVerifier {
    let bpe = Bpe::train(
        &[
            PAGED_CTX,
            PAGED_Q,
            "working hours open shop runs with",
            "is the answer correct according to the context reply yes or no",
            "context question answer",
        ],
        250,
    );
    let model = TransformerLM::synthetic(ModelConfig::tiny(bpe.vocab_size()), seed);
    let mut v = EngineVerifier::new(format!("engine-{seed}"), model, bpe);
    if let Some(cache) = paged {
        v = v.with_paged_cache(cache.clone());
    }
    v
}

/// A calibrated two-engine chaos ensemble; construction is identical on
/// every call, so two ensembles differing only in the paged cache start
/// from bitwise-identical weights and fault streams.
fn paged_ensemble(paged: Option<Arc<PagedPrefixCache>>) -> ResilientDetector {
    let [p0, p1] = chaos();
    let verifiers: Vec<Box<dyn FallibleVerifier>> = vec![
        Box::new(FaultInjector::new(
            Reliable::new(paged_engine(41, &paged)),
            p0,
        )),
        Box::new(FaultInjector::new(
            Reliable::new(paged_engine(43, &paged)),
            p1,
        )),
    ];
    let mut d = ResilientDetector::try_new(verifiers, DetectorConfig::default()).unwrap();
    for r in PAGED_RESPONSES {
        d.calibrate(PAGED_Q, PAGED_CTX, r);
    }
    d
}

/// The pool geometry for [`paged_engine`] models. `ModelConfig::tiny`'s
/// layer count and head width do not depend on the vocabulary size, so a
/// placeholder vocab yields the same page shape as the trained engines.
fn paged_geometry() -> ModelConfig {
    ModelConfig::tiny(64)
}

/// Tentpole chain under chaos: an ensemble that prefills each prefix once
/// into pooled pages and copy-on-write-forks the snapshot per sentence
/// scores bitwise-identically to the contiguous from-scratch ensemble —
/// and the warm path is really taken (hits and COW copies both observed).
#[test]
fn paged_forks_are_bitwise_invisible_under_chaos() {
    let plain = paged_ensemble(None);
    let pool = Arc::new(PagedKvPool::new(PagedPoolConfig::for_model(
        &paged_geometry(),
        256,
    )));
    let cache = Arc::new(PagedPrefixCache::new(
        pool.clone(),
        PrefixCacheConfig::default(),
    ));
    let paged = paged_ensemble(Some(cache.clone()));

    let items: Vec<(&str, &str, &str)> = PAGED_RESPONSES
        .iter()
        .map(|r| (PAGED_Q, PAGED_CTX, *r))
        .collect();
    let want = plain.score_batch(&items);
    let got = paged.score_batch(&items);
    assert_eq!(
        want, got,
        "a pooled COW fork must never change a verdict or a score"
    );

    let stats = cache.stats();
    assert!(
        stats.hits > 0,
        "same-prefix sentence probes must resolve from pooled forks: {stats:?}"
    );
    assert!(
        stats.inserts >= 2,
        "each model keys its own pooled snapshot: {stats:?}"
    );
    let pool_stats = pool.stats();
    assert!(
        pool_stats.cow_copies > 0,
        "extending a shared snapshot must copy-on-write its tail page: {pool_stats:?}"
    );
    assert_eq!(
        pool_stats.rejected, 0,
        "a generously sized pool must never reject: {pool_stats:?}"
    );
}

/// Evict-then-refault: with room for a single entry, the two engines evict
/// each other's snapshot on every insert, so warm probes keep refaulting
/// back through the cold path into recycled pages. Scores stay bitwise
/// identical, and once the ensemble and cache drop, every page returns to
/// the pool.
#[test]
fn paged_evict_then_refault_keeps_parity_and_returns_pages() {
    let plain = paged_ensemble(None);
    let pool = Arc::new(PagedKvPool::new(PagedPoolConfig::for_model(
        &paged_geometry(),
        256,
    )));
    let cache = Arc::new(PagedPrefixCache::new(
        pool.clone(),
        PrefixCacheConfig::with_max_entries(1),
    ));
    let paged = paged_ensemble(Some(cache.clone()));

    let items: Vec<(&str, &str, &str)> = PAGED_RESPONSES
        .iter()
        .map(|r| (PAGED_Q, PAGED_CTX, *r))
        .collect();
    let want = plain.score_batch(&items);
    let got = paged.score_batch(&items);
    assert_eq!(
        want, got,
        "evicting and refaulting a pooled snapshot must not move a score"
    );

    let stats = cache.stats();
    assert!(
        stats.evictions > 0,
        "two engines sharing one slot must thrash the LRU: {stats:?}"
    );
    assert!(
        stats.inserts > 2,
        "a refault re-inserts the prefix it just lost: {stats:?}"
    );
    assert!(
        pool.stats().releases > 0,
        "evicted snapshots must hand their pages back: {:?}",
        pool.stats()
    );

    drop(paged);
    drop(cache);
    let end = pool.stats();
    assert_eq!(
        end.pages_live, 0,
        "after the ensemble and cache drop, no page may stay live: {end:?}"
    );
}

/// Exhaustion degradation: a pool too small to hold even one prefix rejects
/// every reservation with a typed error, the engines fall back to the
/// contiguous uncached path, and the verdicts stay bitwise identical — no
/// panic, no torn state, no leaked page.
#[test]
fn starved_paged_pool_degrades_without_changing_verdicts() {
    let plain = paged_ensemble(None);
    // Two 8-token pages cannot hold the (context, question) prefix, so
    // every pooled prefill is rejected up front.
    let mut config = PagedPoolConfig::for_model(&paged_geometry(), 2);
    config.block_tokens = 8;
    let pool = Arc::new(PagedKvPool::new(config));
    let cache = Arc::new(PagedPrefixCache::new(
        pool.clone(),
        PrefixCacheConfig::default(),
    ));
    let paged = paged_ensemble(Some(cache.clone()));

    let items: Vec<(&str, &str, &str)> = PAGED_RESPONSES
        .iter()
        .map(|r| (PAGED_Q, PAGED_CTX, *r))
        .collect();
    let want = plain.score_batch(&items);
    let got = paged.score_batch(&items);
    assert_eq!(
        want, got,
        "pool exhaustion must degrade to the uncached path, not change scores"
    );

    let stats = pool.stats();
    assert!(
        stats.rejected > 0,
        "the starved pool must actually have refused reservations: {stats:?}"
    );
    assert_eq!(
        stats.pages_live, 0,
        "a rejected reservation must not leave pages live: {stats:?}"
    );
    assert_eq!(
        cache.stats().inserts,
        0,
        "nothing can be cached when no prefix ever fits: {:?}",
        cache.stats()
    );
}

/// Serving-level parallel scoring: under chaos overload, a runtime whose
/// detector probes on the batch engine's worker threads decides exactly
/// what the inline runtime decides — same verdicts, sheds, and virtual
/// timestamps.
#[test]
fn parallel_serving_matches_sequential_serving_bitwise() {
    let config = ServingConfig {
        queue_bound: Some(2),
        shed_policy: ShedPolicy::ShedLowestPriority,
        default_deadline_ms: 150.0,
    };
    let run = |parallel: bool, obs: &Obs| {
        let mut pipeline =
            handbook::pipeline(handbook::detector(chaos(), None), FailurePolicy::Abstain);
        pipeline.detector_mut().config.parallel = parallel;
        let mut rt = ServingRuntime::new(pipeline, config).with_obs(obs);
        submit_overload(&mut rt);
        rt.run_until_idle();
        rt.drain_outcomes()
    };

    let obs_sequential = Obs::new();
    let obs_parallel = Obs::new();
    let sequential = run(false, &obs_sequential);
    let parallel = run(true, &obs_parallel);

    assert_eq!(
        sequential, parallel,
        "parallel probing must not move a verdict, shed, or timestamp"
    );
    assert_eq!(
        obs_sequential.metrics_snapshot(),
        obs_parallel.metrics_snapshot(),
        "parallel and inline runs must emit identical telemetry"
    );
}
