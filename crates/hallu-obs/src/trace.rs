//! Distributed tracing across the cluster: deterministic trace contexts,
//! a stitcher that reassembles per-member span fragments into one causal
//! tree per request, and a critical-path extractor that decomposes a
//! request's wall time into named segments.
//!
//! ## Determinism
//!
//! Trace and span ids are **pure functions of the seeded request**, never
//! of wall clocks or allocation order across sinks:
//!
//! - [`TraceContext::root`] derives the trace id and the root span id from
//!   `(trace_seed, request_id)` via the splitmix64 finalizer.
//! - [`TraceContext::child_id`] derives each synthesized span's id from
//!   `(trace_id, parent span id, span name, ordinal)`.
//!
//! Derived ids always carry the high bit, while store-allocated span ids
//! (the open-stack path in [`crate::span`]) are small sequential integers —
//! the two id spaces cannot collide, so a stitched tree mixing explicit
//! cross-member spans with stack-opened detector spans is well-formed.
//! Two runs from the same `(seed, config)` therefore stitch into
//! bitwise-identical trees.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::flight::FlightRecord;
use crate::span::SpanRecord;

/// Derived span ids carry this bit so they can never collide with the
/// store-allocated sequential ids used by stack-opened spans.
const DERIVED_BIT: u64 = 1 << 63;

/// SplitMix64 finalizer: a full-avalanche bijection on u64. The one
/// scrambler behind the workspace's seeded derivations: trace and span ids
/// here, and in the crates above, fault schedules, gossip probe order,
/// backoff jitter, chaos plans and arrival streams.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over a span name, so sibling spans with different names get
/// different derived ids.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The propagated trace context: which trace a unit of work belongs to and
/// which span is its parent. `Copy`, 16 bytes — cheap to thread through
/// queues and route tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceContext {
    /// Trace id shared by every span of one request (never 0).
    pub trace_id: u64,
    /// The span id new children should attach under.
    pub span_id: u64,
}

impl TraceContext {
    /// Root context for a request: ids derived from `(seed, request_id)`
    /// alone, so any component can re-derive the same context from the
    /// request id without carrying state.
    pub fn root(seed: u64, request_id: u64) -> Self {
        let trace_id = splitmix64(seed ^ splitmix64(request_id.wrapping_add(1))).max(1);
        let span_id = splitmix64(trace_id ^ fnv1a("request")) | DERIVED_BIT;
        Self { trace_id, span_id }
    }

    /// Deterministic id for a child span named `name`; `ordinal`
    /// disambiguates same-named siblings (e.g. probe hops per replica).
    pub fn child_id(&self, name: &str, ordinal: u64) -> u64 {
        splitmix64(
            self.trace_id
                ^ self.span_id.rotate_left(17)
                ^ fnv1a(name)
                ^ splitmix64(ordinal.wrapping_add(0x5EED)),
        ) | DERIVED_BIT
    }

    /// The child context: same trace, parent advanced to the child span.
    pub fn child(&self, name: &str, ordinal: u64) -> Self {
        Self {
            trace_id: self.trace_id,
            span_id: self.child_id(name, ordinal),
        }
    }
}

/// One span plus its children, sorted by `(start_ms, source, id)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanNode {
    /// The span itself.
    pub span: SpanRecord,
    /// Child spans in deterministic order.
    pub children: Vec<SpanNode>,
}

/// One stitched causal tree for a single traced request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceTree {
    /// The trace id all member spans share.
    pub trace_id: u64,
    /// Root node (the router's `request` span when intact).
    pub root: SpanNode,
    /// True when the tree is known incomplete: no proper root survived,
    /// orphaned spans had to be re-parented, or a correlated flight
    /// record wrapped its ring and dropped events.
    pub truncated: bool,
    /// Flight-recorder events dropped by ring wrap across all flight
    /// records correlated with this trace.
    pub dropped_events: u64,
}

/// Assemble per-member span fragments into one [`TraceTree`] per trace id,
/// ordered by trace id. Spans with `trace_id == 0` (untraced) are ignored.
///
/// Flight records are correlated through span events named `flight` whose
/// `request` field names the flight; their `dropped_events` counts surface
/// on the tree and mark it truncated, so a ring wrap during a failover hop
/// cannot silently pass for a complete causal story.
pub fn stitch(spans: &[SpanRecord], flights: &[FlightRecord]) -> Vec<TraceTree> {
    let mut by_trace: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.trace_id != 0) {
        by_trace
            .entry(span.trace_id)
            .or_default()
            .push(span.clone());
    }
    let mut trees = Vec::with_capacity(by_trace.len());
    for (trace_id, mut members) in by_trace {
        members.sort_by(|a, b| {
            a.start_ms
                .total_cmp(&b.start_ms)
                .then_with(|| a.source.cmp(&b.source))
                .then_with(|| a.id.cmp(&b.id))
        });
        let ids: BTreeSet<u64> = members.iter().map(|s| s.id).collect();
        let mut truncated = false;

        // The root is the span without a parent; when it was dropped (ring
        // wrap) the earliest surviving span stands in and the tree is
        // marked truncated.
        let root_pos = members.iter().position(|s| s.parent == 0).unwrap_or(0);
        let root_span = members.remove(root_pos);
        truncated |= root_span.parent != 0;
        let root_id = root_span.id;

        // Orphans (parent missing from this trace) re-parent under the
        // root; extra parentless spans count as orphans too.
        let mut children: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
        for span in members {
            let parent = if span.parent != 0 && ids.contains(&span.parent) {
                span.parent
            } else {
                truncated = true;
                root_id
            };
            children.entry(parent).or_default().push(span);
        }

        let mut dropped_events = 0u64;
        let mut root = build_node(root_span, &mut children);
        collect_flight_drops(&root, flights, &mut dropped_events);
        truncated |= dropped_events > 0;
        annotate_truncation(&mut root, truncated, dropped_events);
        trees.push(TraceTree {
            trace_id,
            root,
            truncated,
            dropped_events,
        });
    }
    trees
}

fn build_node(span: SpanRecord, children: &mut BTreeMap<u64, Vec<SpanRecord>>) -> SpanNode {
    let kids = children.remove(&span.id).unwrap_or_default();
    SpanNode {
        span,
        children: kids.into_iter().map(|c| build_node(c, children)).collect(),
    }
}

/// Sum `dropped_events` of every flight record named by a `flight` event
/// anywhere in the tree.
fn collect_flight_drops(node: &SpanNode, flights: &[FlightRecord], dropped: &mut u64) {
    for event in node.span.events.iter().filter(|e| e.name == "flight") {
        for (key, value) in &event.fields {
            if key == "request" {
                *dropped += flights
                    .iter()
                    .filter(|f| &f.request == value)
                    .map(|f| f.dropped_events)
                    .sum::<u64>();
            }
        }
    }
    for child in &node.children {
        collect_flight_drops(child, flights, dropped);
    }
}

/// Surface truncation on the root span so serialized trees carry the flag
/// even through span-only consumers.
fn annotate_truncation(root: &mut SpanNode, truncated: bool, dropped_events: u64) {
    if truncated {
        root.span.events.push(crate::span::EventRecord {
            name: "truncated".to_string(),
            at_ms: root.span.end_ms,
            fields: vec![("dropped_events".to_string(), dropped_events.to_string())],
        });
    }
}

/// What a slice of a request's wall time was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SegmentKind {
    /// Waiting in a member's admission queue.
    Queue,
    /// Verification work: per-sentence scoring, detector probes, hedges.
    Scoring,
    /// Router slot-table routing (a route-time decision, zero-width).
    Route,
    /// A failover hop to a non-primary replica.
    Failover,
    /// A data-path liveness probe against a dead/partitioned member.
    Probe,
    /// Cache replication lookups (journal/anti-entropy warmed entries).
    Replication,
    /// Wall time no named span covers.
    Unattributed,
}

impl SegmentKind {
    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Self::Queue => "queue",
            Self::Scoring => "scoring",
            Self::Route => "route",
            Self::Failover => "failover",
            Self::Probe => "probe",
            Self::Replication => "replication",
            Self::Unattributed => "unattributed",
        }
    }
}

/// Span name → segment kind; `None` inherits the parent's kind, so
/// `detector.*` spans nested under `scoring` stay scoring even when a new
/// detector span name appears.
fn kind_for(name: &str) -> Option<SegmentKind> {
    if name.starts_with("detector.") || name == "scoring" || name == "hedge" {
        return Some(SegmentKind::Scoring);
    }
    match name {
        "queue" => Some(SegmentKind::Queue),
        "route" | "spill" => Some(SegmentKind::Route),
        "failover" => Some(SegmentKind::Failover),
        "probe" => Some(SegmentKind::Probe),
        "replication" => Some(SegmentKind::Replication),
        _ => None,
    }
}

/// One merged critical-path segment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// What this slice of wall time was spent on.
    pub kind: SegmentKind,
    /// Segment start.
    pub start_ms: f64,
    /// Segment end.
    pub end_ms: f64,
}

impl Segment {
    /// Segment width in milliseconds.
    pub fn width_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// A request's latency decomposed into named segments over the root span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalPath {
    /// Root span width (the request's wall time).
    pub total_ms: f64,
    /// Merged segments covering the root interval in order.
    pub segments: Vec<Segment>,
}

impl CriticalPath {
    /// Wall time covered by named (non-[`SegmentKind::Unattributed`])
    /// segments.
    pub fn attributed_ms(&self) -> f64 {
        self.segments
            .iter()
            .filter(|s| s.kind != SegmentKind::Unattributed)
            .map(Segment::width_ms)
            .sum()
    }

    /// Fraction of the request's wall time attributed to named segments
    /// (1.0 for zero-width requests — nothing left to explain).
    pub fn attributed_fraction(&self) -> f64 {
        if self.total_ms <= 0.0 {
            return 1.0;
        }
        self.attributed_ms() / self.total_ms
    }

    /// Total width of every segment of `kind`.
    pub fn ms_in(&self, kind: SegmentKind) -> f64 {
        self.segments
            .iter()
            .filter(|s| s.kind == kind)
            .map(Segment::width_ms)
            .sum()
    }
}

/// Decompose the root span's wall time: an elementary-interval sweep picks
/// the deepest covering span for every slice (spans inherit their parent's
/// kind when unnamed), adjacent same-kind slices merge, and anything only
/// the root covers is [`SegmentKind::Unattributed`].
pub fn critical_path(tree: &TraceTree) -> CriticalPath {
    struct Flat {
        start_ms: f64,
        end_ms: f64,
        depth: usize,
        seq: usize,
        kind: Option<SegmentKind>,
    }
    fn flatten(
        node: &SpanNode,
        depth: usize,
        inherited: Option<SegmentKind>,
        seq: &mut usize,
        out: &mut Vec<Flat>,
    ) {
        let kind = kind_for(&node.span.name).or(inherited);
        *seq += 1;
        out.push(Flat {
            start_ms: node.span.start_ms,
            end_ms: node.span.end_ms,
            depth,
            seq: *seq,
            kind,
        });
        for child in &node.children {
            flatten(child, depth + 1, kind, seq, out);
        }
    }

    let root = &tree.root.span;
    let total_ms = (root.end_ms - root.start_ms).max(0.0);
    let mut flat = Vec::new();
    let mut seq = 0usize;
    flatten(&tree.root, 0, None, &mut seq, &mut flat);

    let mut bounds: Vec<f64> = flat
        .iter()
        .flat_map(|f| [f.start_ms, f.end_ms])
        .filter(|t| *t >= root.start_ms && *t <= root.end_ms)
        .collect();
    bounds.sort_by(f64::total_cmp);
    bounds.dedup();

    let mut segments: Vec<Segment> = Vec::new();
    for pair in bounds.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if b <= a {
            continue;
        }
        let kind = flat
            .iter()
            .filter(|f| f.start_ms <= a && f.end_ms >= b)
            .max_by_key(|f| (f.depth, f.seq))
            .and_then(|f| f.kind)
            .unwrap_or(SegmentKind::Unattributed);
        match segments.last_mut() {
            Some(last) if last.kind == kind && last.end_ms == a => last.end_ms = b,
            _ => segments.push(Segment {
                kind,
                start_ms: a,
                end_ms: b,
            }),
        }
    }
    CriticalPath { total_ms, segments }
}

/// Render a stitched tree as an indented, bitwise-stable text block:
/// one line per span — `name [start..end ms] @source`, events as `!name`.
pub fn render_trace_tree(tree: &TraceTree) -> String {
    fn walk(node: &SpanNode, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!(
            "{} [{}..{}ms] @{}",
            node.span.name,
            node.span.start_ms,
            node.span.end_ms,
            if node.span.source.is_empty() {
                "?"
            } else {
                &node.span.source
            }
        ));
        for event in &node.span.events {
            out.push_str(&format!(" !{}", event.name));
        }
        out.push('\n');
        for child in &node.children {
            walk(child, depth + 1, out);
        }
    }
    let mut out = format!(
        "trace {:016x}{}\n",
        tree.trace_id,
        if tree.truncated {
            format!(" (truncated, dropped_events={})", tree.dropped_events)
        } else {
            String::new()
        }
    );
    walk(&tree.root, 1, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::EventRecord;

    fn span(
        id: u64,
        parent: u64,
        trace_id: u64,
        name: &str,
        start: f64,
        end: f64,
        source: &str,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_ms: start,
            end_ms: end,
            events: Vec::new(),
            trace_id,
            source: source.to_string(),
        }
    }

    #[test]
    fn trace_ids_are_pure_functions_of_seed_and_request() {
        let a = TraceContext::root(7, 42);
        let b = TraceContext::root(7, 42);
        assert_eq!(a, b);
        assert_ne!(a.trace_id, TraceContext::root(7, 43).trace_id);
        assert_ne!(a.trace_id, TraceContext::root(8, 42).trace_id);
        assert_ne!(a.trace_id, 0, "0 is the untraced marker");
        assert_ne!(
            a.child_id("queue", 0),
            a.child_id("scoring", 0),
            "sibling names must not collide"
        );
        assert_ne!(
            a.child_id("probe", 0),
            a.child_id("probe", 1),
            "ordinals must not collide"
        );
        assert!(
            a.span_id & DERIVED_BIT != 0 && a.child_id("queue", 0) & DERIVED_BIT != 0,
            "derived ids live above the store-allocated id space"
        );
    }

    #[test]
    fn stitch_assembles_cross_member_fragments_into_one_tree() {
        let ctx = TraceContext::root(1, 1);
        let t = ctx.trace_id;
        let root = span(ctx.span_id, 0, t, "request", 0.0, 50.0, "router");
        let queue = span(
            ctx.child_id("queue", 0),
            ctx.span_id,
            t,
            "queue",
            0.0,
            10.0,
            "s0r0",
        );
        let scoring = span(
            ctx.child_id("scoring", 0),
            ctx.span_id,
            t,
            "scoring",
            10.0,
            50.0,
            "s0r0",
        );
        // A stack-opened detector span under the scoring context.
        let detector = span(
            3,
            ctx.child_id("scoring", 0),
            t,
            "detector.score",
            12.0,
            40.0,
            "s0r0",
        );
        let trees = stitch(&[scoring, root, detector, queue], &[]);
        assert_eq!(trees.len(), 1);
        let tree = &trees[0];
        assert!(!tree.truncated);
        assert_eq!(tree.root.span.name, "request");
        assert_eq!(tree.root.children.len(), 2);
        assert_eq!(tree.root.children[0].span.name, "queue");
        assert_eq!(tree.root.children[1].span.name, "scoring");
        assert_eq!(
            tree.root.children[1].children[0].span.name,
            "detector.score"
        );
    }

    #[test]
    fn orphaned_spans_reparent_under_root_and_mark_truncation() {
        let ctx = TraceContext::root(2, 9);
        let t = ctx.trace_id;
        let root = span(ctx.span_id, 0, t, "request", 0.0, 20.0, "router");
        // Parent id that no longer exists (dropped from the span ring).
        let stray = span(5, 0xDEAD_BEEF | DERIVED_BIT, t, "queue", 1.0, 4.0, "s1r0");
        let trees = stitch(&[root, stray], &[]);
        assert!(trees[0].truncated);
        assert_eq!(trees[0].root.children[0].span.name, "queue");
        assert!(
            trees[0]
                .root
                .span
                .events
                .iter()
                .any(|e| e.name == "truncated"),
            "truncation must be visible on the serialized root"
        );
    }

    #[test]
    fn missing_root_falls_back_to_earliest_span_truncated() {
        let ctx = TraceContext::root(3, 4);
        let t = ctx.trace_id;
        let queue = span(
            ctx.child_id("queue", 0),
            ctx.span_id,
            t,
            "queue",
            2.0,
            6.0,
            "s2r1",
        );
        let scoring = span(
            ctx.child_id("scoring", 0),
            ctx.span_id,
            t,
            "scoring",
            6.0,
            9.0,
            "s2r1",
        );
        let trees = stitch(&[scoring, queue], &[]);
        assert_eq!(trees.len(), 1);
        assert!(trees[0].truncated);
        assert_eq!(trees[0].root.span.name, "queue", "earliest span stands in");
    }

    /// Satellite: flight-recorder ring wrap during a failover hop — the
    /// stitcher still produces a tree, marked truncated, with the dropped
    /// event count surfaced.
    #[test]
    fn flight_ring_wrap_surfaces_dropped_events_on_the_tree() {
        let ctx = TraceContext::root(4, 11);
        let t = ctx.trace_id;
        let root = span(ctx.span_id, 0, t, "request", 0.0, 30.0, "router");
        let hop = span(
            ctx.child_id("failover", 1),
            ctx.span_id,
            t,
            "failover",
            5.0,
            5.0,
            "router",
        );
        let mut scoring = span(
            ctx.child_id("scoring", 0),
            ctx.span_id,
            t,
            "scoring",
            5.0,
            30.0,
            "s3r1",
        );
        scoring.events.push(EventRecord {
            name: "flight".to_string(),
            at_ms: 5.0,
            fields: vec![("request".to_string(), "req-s3r1-11".to_string())],
        });
        let flight = FlightRecord {
            request: "req-s3r1-11".to_string(),
            opened_ms: 5.0,
            closed_ms: 30.0,
            outcome: "served".to_string(),
            events: Vec::new(),
            dropped_events: 17,
        };
        let trees = stitch(&[root, hop, scoring], &[flight]);
        assert_eq!(trees.len(), 1);
        assert!(trees[0].truncated);
        assert_eq!(trees[0].dropped_events, 17);
        let rendered = render_trace_tree(&trees[0]);
        assert!(rendered.contains("dropped_events=17"), "{rendered}");
        assert!(rendered.contains("failover"), "{rendered}");
    }

    #[test]
    fn critical_path_attributes_queue_and_scoring_fully() {
        let ctx = TraceContext::root(5, 2);
        let t = ctx.trace_id;
        let root = span(ctx.span_id, 0, t, "request", 0.0, 100.0, "router");
        let queue = span(
            ctx.child_id("queue", 0),
            ctx.span_id,
            t,
            "queue",
            0.0,
            30.0,
            "s0r0",
        );
        let scoring = span(
            ctx.child_id("scoring", 0),
            ctx.span_id,
            t,
            "scoring",
            30.0,
            100.0,
            "s0r0",
        );
        // Unknown-named child inherits scoring.
        let inner = span(
            7,
            ctx.child_id("scoring", 0),
            t,
            "combine",
            40.0,
            60.0,
            "s0r0",
        );
        let trees = stitch(&[root, queue, scoring, inner], &[]);
        let path = critical_path(&trees[0]);
        assert_eq!(path.total_ms, 100.0);
        assert_eq!(path.attributed_ms(), 100.0);
        assert_eq!(path.attributed_fraction(), 1.0);
        assert_eq!(path.ms_in(SegmentKind::Queue), 30.0);
        assert_eq!(path.ms_in(SegmentKind::Scoring), 70.0);
        assert_eq!(
            path.segments.len(),
            2,
            "same-kind slices merge: {:?}",
            path.segments
        );
    }

    #[test]
    fn critical_path_reports_uncovered_time_as_unattributed() {
        let ctx = TraceContext::root(6, 3);
        let t = ctx.trace_id;
        let root = span(ctx.span_id, 0, t, "request", 0.0, 10.0, "router");
        let queue = span(
            ctx.child_id("queue", 0),
            ctx.span_id,
            t,
            "queue",
            0.0,
            4.0,
            "s0r0",
        );
        let trees = stitch(&[root, queue], &[]);
        let path = critical_path(&trees[0]);
        assert_eq!(path.ms_in(SegmentKind::Queue), 4.0);
        assert_eq!(path.ms_in(SegmentKind::Unattributed), 6.0);
        assert!((path.attributed_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn stitching_is_input_order_insensitive() {
        let ctx = TraceContext::root(9, 8);
        let t = ctx.trace_id;
        let spans = vec![
            span(ctx.span_id, 0, t, "request", 0.0, 9.0, "router"),
            span(
                ctx.child_id("queue", 0),
                ctx.span_id,
                t,
                "queue",
                0.0,
                3.0,
                "s1r1",
            ),
            span(
                ctx.child_id("scoring", 0),
                ctx.span_id,
                t,
                "scoring",
                3.0,
                9.0,
                "s1r1",
            ),
        ];
        let mut reversed = spans.clone();
        reversed.reverse();
        assert_eq!(stitch(&spans, &[]), stitch(&reversed, &[]));
    }
}
