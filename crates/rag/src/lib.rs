//! # rag
//!
//! Retrieval-augmented question answering (§III of the paper).
//!
//! The paper's flow (Fig. 2a): a question is embedded, the vectorised
//! database returns the relevant context, an LLM answers from that context —
//! and the answer may still hallucinate, which is what the framework in
//! `hallu-core` detects. This crate provides that pipeline:
//!
//! * [`chunk`] — sentence-aware document chunking for ingestion.
//! * [`retrieve`] — top-k retrieval and context assembly over a
//!   `vectordb::Collection`.
//! * [`prompt`] — the generation prompt (role + context + question).
//! * [`generate`] — a simulated LLM (no API access offline): extractive
//!   generation from context plus controllable hallucination injection, the
//!   operators that manufacture Table I's contradiction types and the
//!   dataset's *partial*/*wrong* responses.
//! * [`pipeline`] — ingestion + retrieval + generation glued together.
//! * [`verified`] — the guarded-QA loop: answers are verified before they
//!   are served, degrading gracefully when verifiers fail.
//! * [`serving`] — the overload-resilient serving runtime: admission
//!   control, deadline budgets, load shedding, and graceful drain on a
//!   deterministic virtual clock.
//! * [`cluster`] — the sharded verification cluster: consistent-hash
//!   routing over replica groups with probe-driven failover, overload
//!   spilling, bounded rebalancing, and bit-reproducible chaos.

pub mod chunk;
pub mod cluster;
pub mod generate;
pub mod pipeline;
pub mod prompt;
pub mod retrieve;
pub mod selfcheck;
pub mod serving;
#[cfg(test)]
mod testkit;
pub mod verified;

pub use chunk::{chunk_text, ChunkConfig};
pub use cluster::{
    AbstainCause, ChaosEvent, ChaosKind, ChaosPlan, ClusterConfig, ClusterDisposition,
    ClusterOutcome, ClusterRuntime, ClusterStats, DetectorKind, MemberHealth, ReplicationConfig,
    RouteKind, SpillPolicy, SpillTransition,
};
pub use generate::{HallucinationOp, SimulatedLlm};
pub use pipeline::RagPipeline;
pub use retrieve::Retriever;
pub use selfcheck::{SelfCheckConfig, SelfChecker};
pub use serving::{
    AbortedRequest, Disposition, Priority, RequestOutcome, ServingConfig, ServingRuntime,
    ServingStats, ShardIdentity, ShedPolicy, ShedReason,
};
pub use verified::{FailurePolicy, ResilientAnswer, ResilientVerifiedPipeline};
