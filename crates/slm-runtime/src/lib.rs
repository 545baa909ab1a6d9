//! # slm-runtime
//!
//! Small-language-model substrate for the hallucination-detection framework.
//!
//! The paper deploys Qwen2-1.5B-Instruct and MiniCPM-2B locally so it can
//! read the probability of the first generated token being "yes" (Eq. 2–3)
//! instead of paying for repeated API sampling. This crate reproduces that
//! capability in two layers (see DESIGN.md for the substitution argument):
//!
//! 1. **Engine** ([`model`], [`attention`], [`bpe`], [`prob`]) — a
//!    probe-only decoder-only transformer written from scratch: BPE
//!    tokenizer, RoPE attention with KV cache, SwiGLU MLPs, RMSNorm, and
//!    first-token probability extraction ([`prob::p_yes`]). It prefills a
//!    prompt and reads one next-token distribution; it does not generate.
//!    It runs on deterministic synthetic weights (real checkpoints are not
//!    available offline) and demonstrates the exact code path the paper's
//!    local deployment relies on.
//! 2. **Behavioral verifiers** ([`sim`], [`profiles`]) — calibrated models of
//!    how instruction-tuned SLMs answer yes/no verification prompts: a
//!    feature-based entailment score (entity agreement, content containment,
//!    negation) pushed through per-model calibration (bias, temperature,
//!    noise). These supply the score *distributions* the framework's checker
//!    consumes, with distinct per-model means and variances as Eq. 4 assumes.
//! 3. **Scoring throughput** ([`batch`], [`cache`], [`paged`]) — a
//!    deterministic batched executor for per-model probe jobs, a sharded
//!    memoizing verification cache, and a paged shared-prefix KV cache that
//!    prefills each `(question, context)` prefix once and forks it per
//!    sentence, all semantically invisible to the ensemble under the
//!    episode-purity contract
//!    ([`fallible::FallibleVerifier::try_p_yes_attempt`]): batched, cached,
//!    and sequential runs produce bitwise-identical scores. The engine's
//!    prompt processing itself runs as a blocked GEMM prefill
//!    ([`InferenceModel::prefill`]) that is bit-identical to the
//!    token-at-a-time loop ([`model::prefill_sequential`]).
//!
//! All verifier layers implement the common [`verifier::YesNoVerifier`] trait,
//! so the framework in `hallu-core` is agnostic to which one backs a model
//! slot.

pub mod attention;
pub mod batch;
pub mod bpe;
pub mod cache;
pub mod clock;
pub mod config;
pub mod engine_verifier;
pub mod fallible;
pub mod faults;
pub mod ffn;
pub mod gossip;
pub mod hedge;
pub mod kv;
pub mod limit;
mod lru;
pub mod model;
pub mod paged;
pub mod prob;
pub mod profiles;
pub mod quant;
pub mod ring;
pub mod rope;
pub mod sim;
pub mod verifier;
pub mod weights;
pub mod weights_io;

pub use batch::{BatchEngine, BatchJob, BatchReport, ModelBatch, PrefixGroup, ProbeOutcome};
pub use cache::{CacheConfig, CacheKey, CacheKeyRef, CacheStats, VerificationCache};
pub use clock::{Clock, VirtualClock, WallClock};
pub use config::{ModelConfig, Precision};
pub use engine_verifier::EngineVerifier;
pub use fallible::{FallibleVerifier, Reliable, ScoredProbe, VerifierError};
pub use faults::{FaultInjector, FaultProfile};
pub use gossip::{
    CentralDetector, FailureDetector, GossipConfig, HysteresisConfig, LinkOracle, MemberId,
    SwimDetector, ViewEvent, ViewState,
};
pub use hedge::{HedgeConfig, HedgeHandle, HedgeStats, HedgedVerifier};
pub use kv::{KvCache, KvStore};
pub use limit::{ConcurrencyGate, GateStats};
pub use model::{InferenceModel, TransformerLM, PREFILL_BLOCK};
pub use paged::{
    PagedKvCache, PagedKvPool, PagedPoolConfig, PagedPrefixCache, PoolExhausted, PoolStats,
    PrefixCacheConfig, PrefixStats,
};
pub use profiles::{chatgpt_sim, engine_profile, minicpm_sim, qwen2_sim};
pub use quant::{QuantizedLM, QuantizedWeights};
pub use ring::{HashRing, RebalanceReport, RingError, RingOp, DEFAULT_RING_SLOTS};
pub use verifier::{VerificationRequest, YesNoVerifier};
