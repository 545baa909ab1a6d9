//! Workload inputs and the detector stacks the benchmark drives.
//!
//! Every input comes from the seed: `hallu-dataset` generates the sets and a
//! `Bpe` is trained on their text. The ensemble is the paper's proposed pair,
//! a Qwen2-shaped and a MiniCPM-shaped engine, each an `EngineVerifier` over
//! its own `PagedPrefixCache`, combined by `ResilientDetector::reliable`.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use hallu_core::{DetectorConfig, ResilientDetector};
use hallu_dataset::DatasetBuilder;
use hallu_obs::Obs;
use slm_runtime::bpe::Bpe;
use slm_runtime::prob::{prefix_prompt, suffix_prompt};
use slm_runtime::{
    CacheConfig, EngineVerifier, InferenceModel, ModelConfig, PagedKvPool, PagedPoolConfig,
    PagedPrefixCache, Precision, PrefixCacheConfig, QuantizedLM, TransformerLM, VerificationCache,
    YesNoVerifier, PREFILL_BLOCK,
};
use text_engine::sentence::SentenceSplitter;

use crate::trace::{Recorder, TracedModel, TracedVerifier};

/// Target vocabulary for `Bpe::train`; the dataset's word list saturates it
/// at about 1.4k pieces.
const BPE_VOCAB: usize = 4000;
/// Synthetic-weight seeds of the two members (member identity, not input).
const QWEN2_SEED: u64 = 0x51;
const MINICPM_SEED: u64 = 0x52;
/// Held-out sets fed to the Eq. 4 calibration pass, never scored again.
const CALIBRATION_SETS: usize = 4;
/// Most dataset sets generated while collecting distinct prefixes.
const MAX_GENERATED_SETS: usize = 4000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmPrefix,
    OfflineInt8,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::WarmPrefix, Workload::OfflineInt8];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmPrefix => "warm_prefix",
            Workload::OfflineInt8 => "offline_int8",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Shape of the workload: list size, cache capacities, batching.
    pub fn spec(self) -> Spec {
        match self {
            // Every prefix stays cached, so each probe forks.
            Workload::WarmPrefix => Spec {
                distinct_sets: 48,
                prefix_capacity: 48,
                batch_sets: 0,
                cache_entries: 0,
                precision: Precision::F32,
                obs: true,
                nominal_responses_per_s: 24.0,
            },
            // 4-set batches over a 96-set cycle; the verification cache holds
            // two to three batches of cells, an eighth of the cycle.
            Workload::OfflineInt8 => Spec {
                distinct_sets: 96,
                prefix_capacity: 8,
                batch_sets: 4,
                cache_entries: 128,
                precision: Precision::Int8,
                obs: false,
                nominal_responses_per_s: 80.0,
            },
        }
    }
}

/// Sizes and switches of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Distinct (question, context) prefixes in the request list.
    pub distinct_sets: usize,
    /// Paged prefix-cache entries per member.
    pub prefix_capacity: usize,
    /// Sets per offline batch; 0 for an online closed loop.
    pub batch_sets: usize,
    /// Verification-cache entries; 0 leaves the cache detached.
    pub cache_entries: usize,
    pub precision: Precision,
    /// Connect a `hallu_obs` sink to the detector.
    pub obs: bool,
    /// Throughput on the reference machine, used only to turn `--seconds`
    /// into a whole number of passes over the list.
    pub nominal_responses_per_s: f64,
}

impl Spec {
    pub fn online(&self) -> bool {
        self.batch_sets == 0
    }
}

/// One (question, context) set with its three labelled responses.
#[derive(Debug, Clone)]
pub struct Set {
    pub question: String,
    pub context: String,
    pub responses: [String; 3],
}

/// Seed-generated inputs: calibration sets, the request list's sets, and the
/// calls that make up one pass.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub calibration: Vec<Set>,
    pub sets: Vec<Set>,
    /// One pass: each call is a list of (set, response) indices. Online
    /// calls hold one response; offline calls hold a batch.
    pub calls: Vec<Vec<(usize, usize)>>,
}

impl Inputs {
    /// `CALIBRATION_SETS + spec.distinct_sets` sets with pairwise distinct
    /// (question, context) prefixes, in generation order.
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let spec = workload.spec();
        let want = CALIBRATION_SETS + spec.distinct_sets;
        let mut n = want * 2;
        let distinct = loop {
            let dataset = DatasetBuilder::new(seed, n).build();
            let mut seen = HashSet::new();
            let distinct: Vec<Set> = dataset
                .sets
                .into_iter()
                .filter(|s| seen.insert((s.question.clone(), s.context.clone())))
                .take(want)
                .map(|s| Set {
                    question: s.question,
                    context: s.context,
                    responses: [0, 1, 2].map(|i| s.responses[i].text.clone()),
                })
                .collect();
            if distinct.len() == want || n >= MAX_GENERATED_SETS {
                break distinct;
            }
            n *= 2;
        };
        assert_eq!(
            distinct.len(),
            want,
            "the generator yields too few distinct prefixes"
        );
        let (calibration, sets) = distinct.split_at(CALIBRATION_SETS);
        let calls = match workload {
            // A set's three responses arrive back to back.
            Workload::WarmPrefix => (0..sets.len())
                .flat_map(|s| (0..3).map(move |r| vec![(s, r)]))
                .collect(),
            Workload::OfflineInt8 => (0..sets.len())
                .collect::<Vec<_>>()
                .chunks(spec.batch_sets)
                .map(|chunk| {
                    chunk
                        .iter()
                        .flat_map(|&s| (0..3).map(move |r| (s, r)))
                        .collect()
                })
                .collect(),
        };
        Self {
            calibration: calibration.to_vec(),
            sets: sets.to_vec(),
            calls,
        }
    }

    /// Text the tokenizer is trained on.
    pub fn corpus(&self) -> Vec<&str> {
        self.calibration
            .iter()
            .chain(&self.sets)
            .flat_map(|s| {
                [s.context.as_str(), s.question.as_str()]
                    .into_iter()
                    .chain(s.responses.iter().map(String::as_str))
            })
            .collect()
    }

    pub fn item(&self, (s, r): (usize, usize)) -> (&str, &str, &str) {
        let set = &self.sets[s];
        (&set.question, &set.context, &set.responses[r])
    }

    pub fn call_items(&self, call: &[(usize, usize)]) -> Vec<(&str, &str, &str)> {
        call.iter().map(|&i| self.item(i)).collect()
    }

    pub fn responses_per_pass(&self) -> usize {
        self.calls.iter().map(Vec::len).sum()
    }
}

/// Measured input sizes, for the report.
#[derive(Debug, Clone, Copy, Default)]
pub struct InputSizes {
    pub prefix_tokens: f64,
    pub suffix_tokens: f64,
    pub sentences_per_response: f64,
    pub max_prefix_tokens: usize,
}

pub fn input_sizes(inputs: &Inputs, bpe: &Bpe) -> InputSizes {
    let splitter = SentenceSplitter::new();
    let prefixes: Vec<usize> = inputs
        .sets
        .iter()
        .map(|s| {
            bpe.encode(&prefix_prompt(&s.question, &s.context), true)
                .len()
        })
        .collect();
    let mut suffix_tokens = 0usize;
    let mut sentences = 0usize;
    let mut responses = 0usize;
    for set in &inputs.sets {
        for r in &set.responses {
            responses += 1;
            for s in splitter.split(r) {
                sentences += 1;
                suffix_tokens += bpe.encode(&suffix_prompt(s.text), false).len();
            }
        }
    }
    InputSizes {
        prefix_tokens: prefixes.iter().sum::<usize>() as f64 / prefixes.len() as f64,
        suffix_tokens: suffix_tokens as f64 / sentences as f64,
        sentences_per_response: sentences as f64 / responses as f64,
        max_prefix_tokens: prefixes.iter().copied().max().unwrap_or(0),
    }
}

/// The two members' weights at the workload's precision.
#[derive(Debug, Clone)]
pub enum Models {
    F32([TransformerLM; 2]),
    Int8([QuantizedLM; 2]),
}

impl Models {
    pub fn synthesize(precision: Precision, vocab: usize) -> Self {
        let configs = [
            ModelConfig::qwen2_like(vocab).with_precision(precision),
            ModelConfig::minicpm_like(vocab).with_precision(precision),
        ];
        let [qwen2, minicpm] = configs;
        match precision {
            Precision::F32 => Models::F32([
                TransformerLM::synthetic(qwen2, QWEN2_SEED),
                TransformerLM::synthetic(minicpm, MINICPM_SEED),
            ]),
            Precision::Int8 => Models::Int8([
                QuantizedLM::synthetic(qwen2, QWEN2_SEED),
                QuantizedLM::synthetic(minicpm, MINICPM_SEED),
            ]),
        }
    }

    pub fn configs(&self) -> [&ModelConfig; 2] {
        match self {
            Models::F32([a, b]) => [a.config(), b.config()],
            Models::Int8([a, b]) => [a.config(), b.config()],
        }
    }

    /// One paged prefix cache per member holding `capacity` snapshots, over
    /// a pool with room for every snapshot plus the forks in flight, so no
    /// reservation is ever rejected.
    pub fn prefix_caches(
        &self,
        capacity: usize,
        max_prefix_tokens: usize,
    ) -> [Arc<PagedPrefixCache>; 2] {
        let pages_per_prefix = max_prefix_tokens.div_ceil(PREFILL_BLOCK) + 1;
        self.configs().map(|cfg| {
            let max_pages = (capacity + 4) * pages_per_prefix;
            let pool = Arc::new(PagedKvPool::new(PagedPoolConfig::for_model(cfg, max_pages)));
            Arc::new(PagedPrefixCache::new(
                pool,
                PrefixCacheConfig {
                    max_entries: capacity,
                    max_bytes: usize::MAX,
                },
            ))
        })
    }

    /// Member names (also the prefix-cache keys) and span labels.
    pub fn labels(&self) -> [&'static str; 2] {
        match self {
            Models::F32(_) => ["qwen2-f32", "minicpm-f32"],
            Models::Int8(_) => ["qwen2-int8", "minicpm-int8"],
        }
    }

    /// Ensemble members over `caches` (one per member), traced through
    /// `recorder` when given.
    pub fn members(
        &self,
        bpe: &Bpe,
        caches: Option<&[Arc<PagedPrefixCache>; 2]>,
        recorder: Option<&Arc<Recorder>>,
    ) -> Vec<Box<dyn YesNoVerifier>> {
        let labels = self.labels();
        match self {
            Models::F32(models) => (0..2)
                .map(|i| member(labels[i], &models[i], bpe, caches.map(|c| &c[i]), recorder))
                .collect(),
            Models::Int8(models) => (0..2)
                .map(|i| member(labels[i], &models[i], bpe, caches.map(|c| &c[i]), recorder))
                .collect(),
        }
    }
}

fn member<M>(
    label: &'static str,
    model: &M,
    bpe: &Bpe,
    cache: Option<&Arc<PagedPrefixCache>>,
    recorder: Option<&Arc<Recorder>>,
) -> Box<dyn YesNoVerifier>
where
    M: InferenceModel + Clone + Send + Sync + 'static,
{
    fn attach<M: InferenceModel>(
        v: EngineVerifier<M>,
        cache: Option<&Arc<PagedPrefixCache>>,
    ) -> EngineVerifier<M> {
        match cache {
            Some(c) => v.with_paged_cache(Arc::clone(c)),
            None => v,
        }
    }
    match recorder {
        None => Box::new(attach(
            EngineVerifier::new(label, model.clone(), bpe.clone()),
            cache,
        )),
        Some(rec) => {
            let traced = TracedModel::new(model.clone(), label, Arc::clone(rec));
            let verifier = attach(EngineVerifier::new(label, traced, bpe.clone()), cache);
            Box::new(TracedVerifier::new(verifier, label, Arc::clone(rec)))
        }
    }
}

/// Wall seconds of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Dataset generation and `Bpe::train`.
    pub tokenizer_s: f64,
    /// Weight synthesis (and int8 quantization) of both members.
    pub weights_s: f64,
    /// The Eq. 4 calibration pass.
    pub calibrate_s: f64,
    /// Cache warm-up up to the first timed request.
    pub warm_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.tokenizer_s + self.weights_s + self.calibrate_s + self.warm_s
    }
}

/// Everything one run measures against.
pub struct Stack {
    pub inputs: Inputs,
    pub bpe: Bpe,
    pub models: Models,
    pub prefix_caches: [Arc<PagedPrefixCache>; 2],
    pub cache: Option<Arc<VerificationCache>>,
    pub obs: Obs,
    pub detector: ResilientDetector,
    /// The same members behind tracing delegates, sharing every cache.
    pub traced: Option<(ResilientDetector, Arc<Recorder>)>,
    pub setup: SetupTimes,
    pub sizes: InputSizes,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

impl Stack {
    /// Build and warm the stack for `workload`. With `trace`, also build the
    /// delegate-wrapped twin of the detector.
    pub fn build(workload: Workload, seed: u64, trace: bool) -> Self {
        let spec = workload.spec();
        let mut setup = SetupTimes::default();

        let t = Instant::now();
        let inputs = Inputs::generate(workload, seed);
        let bpe = Bpe::train(&inputs.corpus(), BPE_VOCAB);
        setup.tokenizer_s = secs(t);

        let t = Instant::now();
        let models = Models::synthesize(spec.precision, bpe.vocab_size());
        setup.weights_s = secs(t);

        let sizes = input_sizes(&inputs, &bpe);
        let prefix_caches = models.prefix_caches(spec.prefix_capacity, sizes.max_prefix_tokens);
        let cache = (spec.cache_entries > 0).then(|| {
            Arc::new(VerificationCache::new(CacheConfig {
                max_entries: spec.cache_entries,
                max_bytes: usize::MAX,
                shards: 1,
            }))
        });
        let obs = if spec.obs { Obs::new() } else { Obs::off() };
        let config = DetectorConfig {
            parallel: !spec.online(),
            ..DetectorConfig::default()
        };
        let assemble = |members: Vec<Box<dyn YesNoVerifier>>| {
            let mut d = ResilientDetector::reliable(members, config.clone())
                .expect("the ensemble has two members");
            if let Some(c) = &cache {
                d.set_cache(Arc::clone(c));
            }
            d.set_obs(&obs);
            d
        };

        let t = Instant::now();
        let mut detector = assemble(models.members(&bpe, Some(&prefix_caches), None));
        let calibration: Vec<(&str, &str, &str)> = inputs
            .calibration
            .iter()
            .flat_map(|s| {
                s.responses
                    .iter()
                    .map(move |r| (s.question.as_str(), s.context.as_str(), r.as_str()))
            })
            .collect();
        detector.calibrate_batch(&calibration);
        setup.calibrate_s = secs(t);

        let t = Instant::now();
        warm(workload, &inputs, &detector);
        setup.warm_s = secs(t);

        let traced = trace.then(|| {
            let recorder = Arc::new(Recorder::new());
            let mut d = assemble(models.members(&bpe, Some(&prefix_caches), Some(&recorder)));
            d.try_set_normalizer(detector.normalizer().clone())
                .expect("same member count");
            (d, recorder)
        });

        Self {
            inputs,
            bpe,
            models,
            prefix_caches,
            cache,
            obs,
            detector,
            traced,
            setup,
            sizes,
        }
    }

    /// The uncached sequential reference: the same members with no prefix
    /// cache, no verification cache and `parallel: false`, carrying the
    /// fitted normalizer.
    pub fn reference(&self) -> ResilientDetector {
        let mut d = ResilientDetector::reliable(
            self.models.members(&self.bpe, None, None),
            DetectorConfig::default(),
        )
        .expect("the ensemble has two members");
        d.try_set_normalizer(self.detector.normalizer().clone())
            .expect("same member count");
        d
    }
}

/// Bring the caches to the state the timed passes keep them in.
fn warm(workload: Workload, inputs: &Inputs, detector: &ResilientDetector) {
    match workload {
        // One short probe per prefix prefills and inserts it.
        Workload::WarmPrefix => {
            let splitter = SentenceSplitter::new();
            for set in &inputs.sets {
                let first = splitter
                    .split(&set.responses[0])
                    .first()
                    .map_or_else(|| set.responses[0].clone(), |s| s.text.to_string());
                detector.score(&set.question, &set.context, &first);
            }
        }
        // The pass's last batch precedes its first in the cycle.
        Workload::OfflineInt8 => {
            if let Some(last) = inputs.calls.last() {
                detector.score_all(&inputs.call_items(last));
            }
        }
    }
}
