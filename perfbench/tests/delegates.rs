//! The tracing delegates must be invisible to scores and must nest their
//! spans so self times add up.

use std::sync::Arc;

use perfbench::stack::Models;
use perfbench::trace::{covered_ns, self_time_ns, Layer, Recorder, Span};
use slm_runtime::bpe::Bpe;
use slm_runtime::{PagedPrefixCache, Precision, VerificationRequest, YesNoVerifier};

const Q: &str = "What are the working hours?";
const CTX: &str = "The store operates from 9 AM to 5 PM, from Sunday to Saturday. \
                   There should be at least three shopkeepers to run a shop.";
const SENTENCES: [&str; 3] = [
    "The working hours are 9 AM to 5 PM.",
    "The store is open from Monday to Friday.",
    "Staff wear uniforms.",
];

fn tokenizer() -> Bpe {
    let mut corpus = vec![
        Q,
        CTX,
        "is the answer correct according to the context? reply yes or no",
    ];
    corpus.extend(SENTENCES);
    Bpe::train(&corpus, 300)
}

/// Score every sentence through plain, traced and uncached members of
/// `precision`; return the traced run's recorder and prefix caches.
fn score_all_ways(precision: Precision) -> (Arc<Recorder>, [Arc<PagedPrefixCache>; 2]) {
    let bpe = tokenizer();
    let models = Models::synthesize(precision, bpe.vocab_size());
    let plain_caches = models.prefix_caches(4, 64);
    let traced_caches = models.prefix_caches(4, 64);
    let recorder = Arc::new(Recorder::new());
    let plain = models.members(&bpe, Some(&plain_caches), None);
    let traced = models.members(&bpe, Some(&traced_caches), Some(&recorder));
    let uncached = models.members(&bpe, None, None);
    for (request, sentence) in SENTENCES.iter().enumerate() {
        let req = VerificationRequest::new(Q, CTX, sentence);
        let _call = recorder.call(request as u32);
        for m in 0..2 {
            let want = uncached[m].p_yes(&req).to_bits();
            assert_eq!(plain[m].p_yes(&req).to_bits(), want, "plain {m} {sentence}");
            assert_eq!(
                traced[m].p_yes(&req).to_bits(),
                want,
                "traced {m} {sentence}"
            );
        }
    }
    for cache in &traced_caches {
        // The first sentence takes the miss path, the others fork a hit.
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 2));
    }
    (recorder, traced_caches)
}

#[test]
fn f32_scores_are_bit_identical_through_the_delegates() {
    score_all_ways(Precision::F32);
}

#[test]
fn int8_scores_are_bit_identical_through_the_delegates() {
    let (recorder, _) = score_all_ways(Precision::Int8);
    assert!(recorder
        .spans()
        .iter()
        .all(|s| s.member.ends_with("int8") || s.layer == Layer::Call));
}

fn children<'a>(spans: &'a [Span], parent: &Span) -> Vec<&'a Span> {
    spans.iter().filter(|s| s.parent == parent.id).collect()
}

#[test]
fn spans_nest_and_self_times_sum_to_the_parent() {
    let (recorder, _) = score_all_ways(Precision::F32);
    let spans = recorder.spans();
    let calls: Vec<&Span> = spans.iter().filter(|s| s.layer == Layer::Call).collect();
    assert_eq!(calls.len(), SENTENCES.len());
    let mut prefix_forwards = 0;
    for call in &calls {
        let probes = children(&spans, call);
        assert_eq!(probes.len(), 2, "one probe per member");
        for probe in &probes {
            assert_eq!(probe.layer, Layer::Probe);
            assert!(call.start_ns <= probe.start_ns && probe.end_ns <= call.end_ns);
            let model = children(&spans, probe);
            assert!(model.iter().any(|s| s.layer == Layer::BlockForward));
            assert_eq!(
                model.iter().filter(|s| s.layer == Layer::LmHead).count(),
                1,
                "one LM head per probe"
            );
            prefix_forwards += model
                .iter()
                .filter(|s| s.layer == Layer::PrefixForward)
                .count();
            for s in &model {
                assert!(probe.start_ns <= s.start_ns && s.end_ns <= probe.end_ns);
                assert!(children(&spans, s).is_empty(), "model spans are leaves");
            }
            // Sequential children: self time plus child time is the parent.
            let child_ns: u64 = model.iter().map(|s| s.duration_ns()).sum();
            assert_eq!(self_time_ns(probe, &spans) + child_ns, probe.duration_ns());
        }
        let probe_ns: u64 = probes.iter().map(|s| s.duration_ns()).sum();
        assert_eq!(self_time_ns(call, &spans) + probe_ns, call.duration_ns());
    }
    assert_eq!(prefix_forwards, 2, "one prefix build per member");
}

#[test]
fn worker_thread_spans_nest_under_the_open_call() {
    let recorder = Recorder::new();
    let call_id = {
        let _call = recorder.call(7);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let _probe = recorder.open(Layer::Probe, "worker", 0);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                });
            }
        });
        recorder.spans()[0].parent
    };
    let spans = recorder.spans();
    let call = spans
        .iter()
        .find(|s| s.layer == Layer::Call)
        .expect("call recorded");
    assert_eq!(call.id, call_id);
    let probes = children(&spans, call);
    assert_eq!(probes.len(), 2);
    assert!(probes.iter().all(|p| p.request == 7));
    assert_ne!(probes[0].thread, probes[1].thread);
    // Overlapping children count once toward the parent's covered time.
    let mut intervals: Vec<(u64, u64)> = probes.iter().map(|p| (p.start_ns, p.end_ns)).collect();
    let covered = covered_ns(call.start_ns, call.end_ns, &mut intervals);
    assert!(covered <= call.duration_ns());
    assert_eq!(self_time_ns(call, &spans), call.duration_ns() - covered);
}
