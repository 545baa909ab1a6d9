//! Bench-side tracing: delegates that time calls into the program's public
//! layer boundaries, and an in-memory span store written out at exit.
//!
//! The delegates wrap the two seams the detector exposes without any change
//! to the program: the [`InferenceModel`] each `EngineVerifier` runs and the
//! [`YesNoVerifier`] each ensemble member presents. Every call is forwarded to
//! the wrapped value, so a traced run executes the program's own `p_yes`
//! path; the delegates only add a clock read on each side.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use slm_runtime::bpe::TokenId;
use slm_runtime::verifier::{VerificationRequest, YesNoVerifier};
use slm_runtime::{InferenceModel, KvCache, KvStore, ModelConfig};
use tensor::Matrix;

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One detector call as the caller sees it: a response online, a batch
    /// offline. The root of every request's span tree.
    Call,
    /// One `YesNoVerifier::p_yes` of an ensemble member.
    Probe,
    /// `InferenceModel::prefill_cache_only`: the prefix forward on a miss.
    PrefixForward,
    /// `InferenceModel::forward_block_states` outside a prefix build: the
    /// suffix forward of a probe.
    BlockForward,
    /// `InferenceModel::finish_logits`: final norm and LM head.
    LmHead,
}

impl Layer {
    /// Stable label used in the span file.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Call => "call",
            Layer::Probe => "probe",
            Layer::PrefixForward => "model.prefix_forward",
            Layer::BlockForward => "model.block_forward",
            Layer::LmHead => "model.lm_head",
        }
    }
}

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    /// Ensemble member label (`""` on call spans).
    pub member: &'static str,
    pub id: u32,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u32,
    pub request: u32,
    /// Small per-thread index, to count the workers a batch ran on.
    pub thread: u32,
    /// Tokens processed, for model spans.
    pub tokens: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD_INDEX: Cell<u32> = const { Cell::new(0) };
    /// Open span ids on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn thread_index() -> u32 {
    THREAD_INDEX.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// In-memory span store shared by every delegate of one detector stack.
///
/// A span opened on a thread with no open span of its own (a batch worker)
/// is parented to the current root call, so probes that run on worker
/// threads still nest under the batch that submitted them.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
    root: AtomicU32,
    request: AtomicU32,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU32::new(1),
            root: AtomicU32::new(0),
            request: AtomicU32::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicked probe")
    }

    /// Open a root call span for `request`; probes on any thread nest under
    /// it until the guard drops.
    pub fn call(&self, request: u32) -> SpanGuard<'_> {
        self.request.store(request, Ordering::SeqCst);
        let guard = self.open(Layer::Call, "", 0);
        self.root.store(guard.id, Ordering::SeqCst);
        guard
    }

    /// Open a span on the current thread.
    pub fn open(&self, layer: Layer, member: &'static str, tokens: usize) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open
                .last()
                .copied()
                .unwrap_or_else(|| self.root.load(Ordering::SeqCst));
            open.push(id);
            parent
        });
        SpanGuard {
            recorder: self,
            layer,
            member,
            id,
            parent,
            tokens: u32::try_from(tokens).unwrap_or(u32::MAX),
            start_ns: self.now_ns(),
        }
    }

    /// Every finished span, in finish order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.lock().iter() {
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"member\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\
                 \"thread\":{},\"tokens\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.layer.label(),
                s.member,
                s.id,
                s.parent,
                s.request,
                s.thread,
                s.tokens,
                s.start_ns,
                s.end_ns
            ));
        }
        out
    }
}

/// An open span; records itself when dropped.
pub struct SpanGuard<'a> {
    recorder: &'a Recorder,
    layer: Layer,
    member: &'static str,
    id: u32,
    parent: u32,
    tokens: u32,
    start_ns: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.recorder.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&id| id == self.id) {
                open.remove(pos);
            }
        });
        if self.layer == Layer::Call {
            self.recorder.root.store(0, Ordering::SeqCst);
        }
        let span = Span {
            layer: self.layer,
            member: self.member,
            id: self.id,
            parent: self.parent,
            request: self.recorder.request.load(Ordering::SeqCst),
            thread: thread_index(),
            tokens: self.tokens,
            start_ns: self.start_ns,
            end_ns,
        };
        // A poisoned store only loses this span; never panic in drop.
        if let Ok(mut spans) = self.recorder.spans.lock() {
            spans.push(span);
        }
    }
}

/// Delegate around the [`InferenceModel`] an `EngineVerifier` runs.
///
/// `prefill` is deliberately not overridden: the trait's own blocked prefill
/// then drives this delegate's `forward_block_states` and `finish_logits`,
/// which splits a probe's suffix forward from its LM head. The prefix build
/// (`prefill_cache_only`) is forwarded whole, so the program's own
/// implementation runs and is timed as one span.
#[derive(Debug, Clone)]
pub struct TracedModel<M> {
    inner: M,
    member: &'static str,
    recorder: Arc<Recorder>,
}

impl<M: InferenceModel> TracedModel<M> {
    pub fn new(inner: M, member: &'static str, recorder: Arc<Recorder>) -> Self {
        Self {
            inner,
            member,
            recorder,
        }
    }
}

impl<M: InferenceModel> InferenceModel for TracedModel<M> {
    fn config(&self) -> &ModelConfig {
        self.inner.config()
    }

    fn forward_token<C: KvStore>(&self, token: TokenId, cache: &mut C) -> Vec<f32> {
        self.inner.forward_token(token, cache)
    }

    fn forward_block_states<C: KvStore>(&self, tokens: &[TokenId], cache: &mut C) -> Matrix {
        let _span = self
            .recorder
            .open(Layer::BlockForward, self.member, tokens.len());
        self.inner.forward_block_states(tokens, cache)
    }

    fn finish_logits(&self, last_residual: &[f32]) -> Vec<f32> {
        let _span = self.recorder.open(Layer::LmHead, self.member, 1);
        self.inner.finish_logits(last_residual)
    }

    fn new_cache(&self) -> KvCache {
        self.inner.new_cache()
    }

    fn new_cache_with_capacity(&self, max_seq: usize) -> KvCache {
        self.inner.new_cache_with_capacity(max_seq)
    }

    fn prefill_cache_only<C: KvStore>(&self, prompt: &[TokenId], cache: &mut C) {
        let _span = self
            .recorder
            .open(Layer::PrefixForward, self.member, prompt.len());
        self.inner.prefill_cache_only(prompt, cache)
    }
}

/// Delegate around the [`YesNoVerifier`] an ensemble member exposes: one
/// probe span per `p_yes`.
pub struct TracedVerifier<V> {
    inner: V,
    member: &'static str,
    recorder: Arc<Recorder>,
}

impl<V: YesNoVerifier> TracedVerifier<V> {
    pub fn new(inner: V, member: &'static str, recorder: Arc<Recorder>) -> Self {
        Self {
            inner,
            member,
            recorder,
        }
    }
}

impl<V: YesNoVerifier> YesNoVerifier for TracedVerifier<V> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn p_yes(&self, request: &VerificationRequest<'_>) -> f64 {
        let _span = self.recorder.open(Layer::Probe, self.member, 0);
        self.inner.p_yes(request)
    }

    fn exposes_probabilities(&self) -> bool {
        self.inner.exposes_probabilities()
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`
/// (clipped to that window).
pub fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_time_ns(parent: &Span, children: &[Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .filter(|c| c.parent == parent.id)
        .map(|c| (c.start_ns, c.end_ns))
        .collect();
    parent.duration_ns() - covered_ns(parent.start_ns, parent.end_ns, &mut intervals)
}
