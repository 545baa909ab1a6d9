//! Causal multi-head attention with grouped-query KV sharing.
//!
//! The score, softmax and value-sum loops run at the widest SIMD level the
//! host supports ([`tensor::simd`]). The score and value-sum lanes span only
//! independent outputs, positions for the scores and head dimensions for the
//! value sum, so each output keeps the exact operation sequence of the
//! scalar loop; the softmax ([`tensor::nn::softmax_inplace`]) reduces in
//! its one pinned lane order. So every level produces the same bits.

use tensor::nn::softmax_inplace;
use tensor::simd::{self, SimdLevel, LANES};
use tensor::{Linear, Matrix};

use crate::config::ModelConfig;
use crate::kv::KvStore;
use crate::rope::RopeTable;
use crate::weights::LayerView;

/// Query heads per register group of the value sum: four independent
/// accumulator chains per position.
const VALUE_HEADS: usize = 4;

/// Shape of one layer's attention over the gathered positions.
#[derive(Clone, Copy)]
struct Geometry {
    head_dim: usize,
    /// Query heads per KV head.
    group: usize,
    kv_dim: usize,
    /// Floats per transposed key column and per head's score row: the
    /// gathered position count rounded up to [`LANES`], so every query row
    /// runs whole lane groups in the score kernel; scores past the row's
    /// causal width are computed and never read.
    stride: usize,
    /// `1 / sqrt(head_dim)`.
    scale: f32,
}

impl Geometry {
    fn new(cfg: &ModelConfig, total: usize) -> Self {
        let head_dim = cfg.head_dim();
        Self {
            head_dim,
            group: cfg.group_size(),
            kv_dim: cfg.n_kv_heads * head_dim,
            stride: total.next_multiple_of(LANES),
            scale: 1.0 / (head_dim as f32).sqrt(),
        }
    }
}

/// One layer's keys and values for positions `0..total`, copied out of
/// the cache in one pass and shared by every head and query row: keys
/// transposed (`kt[d * stride + t]`, zero past `total`) so the score
/// kernel runs contiguously over positions, values row-major
/// (`v[t * kv_dim + d]`) so the value sum reads them without a page-table
/// lookup per position.
struct GatheredKv {
    geo: Geometry,
    kt: Vec<f32>,
    v: Vec<f32>,
}

impl GatheredKv {
    fn new<C: KvStore>(cfg: &ModelConfig, cache: &C, layer: usize, total: usize) -> Self {
        let geo = Geometry::new(cfg, total);
        let mut kt = vec![0.0f32; geo.kv_dim * geo.stride];
        let mut v = Vec::with_capacity(geo.kv_dim * total);
        for t in 0..total {
            for (d, &kv) in cache.key(layer, t).iter().enumerate() {
                kt[d * geo.stride + t] = kv;
            }
            v.extend_from_slice(cache.value(layer, t));
        }
        Self { geo, kt, v }
    }

    /// Causal attention of one query row over positions `0..width`, before
    /// the output projection: scaled scores per head, softmax per head,
    /// then the softmax-weighted sum of values into `out`. `scores` is
    /// scratch of `n_heads * geo.stride` floats. Shared by
    /// [`attention_step`] and [`attention_block`], so both run the same
    /// arithmetic per row.
    fn attend_row(
        &self,
        level: SimdLevel,
        q_row: &[f32],
        width: usize,
        scores: &mut [f32],
        out: &mut [f32],
    ) {
        scores_at(level, self.geo, q_row, &self.kt, width, scores);
        for head_scores in scores.chunks_exact_mut(self.geo.stride) {
            softmax_inplace(&mut head_scores[..width]);
        }
        values_at(level, self.geo, scores, &self.v, width, out);
    }
}

fn scores_at(
    level: SimdLevel,
    geo: Geometry,
    q_row: &[f32],
    kt: &[f32],
    width: usize,
    scores: &mut [f32],
) {
    match level {
        // SAFETY: an Avx512 level carries the `tensor::simd` proof that the
        // CPU reported avx512f.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512(_) => unsafe { x86::scores_avx512(geo, q_row, kt, width, scores) },
        // SAFETY: an Avx2 level carries the `tensor::simd` proof that the
        // CPU reported avx2.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2(_) => unsafe { x86::scores_avx2(geo, q_row, kt, width, scores) },
        SimdLevel::Scalar => scores_body(geo, q_row, kt, width, scores),
    }
}

fn values_at(
    level: SimdLevel,
    geo: Geometry,
    scores: &[f32],
    v: &[f32],
    width: usize,
    out: &mut [f32],
) {
    match level {
        // SAFETY: an Avx512 level carries the `tensor::simd` proof that the
        // CPU reported avx512f.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512(_) => unsafe { x86::values_avx512(geo, scores, v, width, out) },
        // SAFETY: an Avx2 level carries the `tensor::simd` proof that the
        // CPU reported avx2.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2(_) => unsafe { x86::values_avx2(geo, scores, v, width, out) },
        SimdLevel::Scalar => values_body(geo, scores, v, width, out),
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The attention kernel bodies instantiated for AVX-512F and AVX2.
    //! Neither feature set enables fused multiply-add contraction.

    use super::{scores_body, values_body, Geometry};

    #[target_feature(enable = "avx512f")]
    pub fn scores_avx512(geo: Geometry, q: &[f32], kt: &[f32], width: usize, scores: &mut [f32]) {
        scores_body(geo, q, kt, width, scores);
    }

    #[target_feature(enable = "avx2")]
    pub fn scores_avx2(geo: Geometry, q: &[f32], kt: &[f32], width: usize, scores: &mut [f32]) {
        scores_body(geo, q, kt, width, scores);
    }

    #[target_feature(enable = "avx512f")]
    pub fn values_avx512(geo: Geometry, scores: &[f32], v: &[f32], width: usize, out: &mut [f32]) {
        values_body(geo, scores, v, width, out);
    }

    #[target_feature(enable = "avx2")]
    pub fn values_avx2(geo: Geometry, scores: &[f32], v: &[f32], width: usize, out: &mut [f32]) {
        values_body(geo, scores, v, width, out);
    }
}

/// Scaled causal scores of every query head over positions `0..width`:
/// `scores[head * stride + t]`, read from the transposed keys.
///
/// Per position this computes exactly the 4-lane reduction of
/// [`tensor::ops::dot`]: lane `l` accumulates dimensions `4c + l` in
/// ascending chunk order, the lanes combine as `((s0 + s1) + s2) + s3`, the
/// tail dimensions add sequentially, and the scale multiplies last. The
/// vector lanes span positions, so no output bit differs from a
/// per-position `dot`.
#[inline(always)]
fn scores_body(geo: Geometry, q_row: &[f32], kt: &[f32], width: usize, scores: &mut [f32]) {
    let hd = geo.head_dim;
    let heads = q_row
        .chunks_exact(hd)
        .zip(scores.chunks_exact_mut(geo.stride));
    for (head, (q_head, head_scores)) in heads.enumerate() {
        let kt_head = &kt[(head / geo.group) * hd * geo.stride..][..hd * geo.stride];
        for t0 in (0..width).step_by(LANES) {
            let column = |d: usize| -> &[f32; LANES] {
                kt_head[d * geo.stride + t0..][..LANES]
                    .try_into()
                    .expect("slice of LANES")
            };
            let chunks = hd / 4;
            let mut lanes = [[0.0f32; LANES]; 4];
            for c in 0..chunks {
                for (l, acc) in lanes.iter_mut().enumerate() {
                    let qd = q_head[4 * c + l];
                    for (s, &k) in acc.iter_mut().zip(column(4 * c + l)) {
                        *s += qd * k;
                    }
                }
            }
            let [s0, s1, s2, s3] = lanes;
            let out = &mut head_scores[t0..t0 + LANES];
            for (j, o) in out.iter_mut().enumerate() {
                *o = ((s0[j] + s1[j]) + s2[j]) + s3[j];
            }
            for (d, &qd) in q_head.iter().enumerate().skip(chunks * 4) {
                for (o, &k) in out.iter_mut().zip(column(d)) {
                    *o += qd * k;
                }
            }
            for o in out.iter_mut() {
                *o *= geo.scale;
            }
        }
    }
}

/// The softmax-weighted value sum of one query row: for every head,
/// `out_head = Σ_t p[head][t] · v_t[kv_head]` over positions `0..width`,
/// starting from zero and adding one product at a time in ascending `t`.
///
/// The vector lanes span head dimensions: each head splits into 16-wide,
/// then 8-wide, then single-dimension slices, and slices of the same width
/// run [`VALUE_HEADS`] at a time with their accumulators in registers
/// across every position.
#[inline(always)]
fn values_body(geo: Geometry, scores: &[f32], v: &[f32], width: usize, out: &mut [f32]) {
    let hd = geo.head_dim;
    let wide = hd - hd % 16;
    let narrow = hd - hd % 8;
    value_slices::<16>(geo, scores, v, width, out, (0, wide));
    value_slices::<8>(geo, scores, v, width, out, (wide, narrow));
    value_slices::<1>(geo, scores, v, width, out, (narrow, hd));
}

/// The `L`-wide slices at head dimensions `dims.0..dims.1` of every head.
#[inline(always)]
fn value_slices<const L: usize>(
    geo: Geometry,
    scores: &[f32],
    v: &[f32],
    width: usize,
    out: &mut [f32],
    dims: (usize, usize),
) {
    let per_head = (dims.1 - dims.0) / L;
    let count = per_head * (out.len() / geo.head_dim);
    // Slice `i` is head `i / per_head`, dimensions from `start(i)`.
    let start = |i: usize| (i / per_head, dims.0 + (i % per_head) * L);
    let mut i = 0;
    while i + VALUE_HEADS <= count {
        let slices = std::array::from_fn(|g| start(i + g));
        value_group::<L, VALUE_HEADS>(geo, scores, v, width, out, slices);
        i += VALUE_HEADS;
    }
    while i < count {
        value_group::<L, 1>(geo, scores, v, width, out, [start(i)]);
        i += 1;
    }
}

/// `G` slices of `L` output dimensions, each `(head, first dimension)`,
/// accumulated in registers over positions `0..width`.
#[inline(always)]
fn value_group<const L: usize, const G: usize>(
    geo: Geometry,
    scores: &[f32],
    v: &[f32],
    width: usize,
    out: &mut [f32],
    slices: [(usize, usize); G],
) {
    let hd = geo.head_dim;
    let probs = slices.map(|(head, _)| &scores[head * geo.stride..][..width]);
    let offsets = slices.map(|(head, d)| (head / geo.group) * hd + d);
    let mut acc = [[0.0f32; L]; G];
    for (t, v_t) in v.chunks_exact(geo.kv_dim).take(width).enumerate() {
        for ((acc_g, p), &off) in acc.iter_mut().zip(&probs).zip(&offsets) {
            let p_t = p[t];
            let v_slice: &[f32; L] = v_t[off..off + L].try_into().expect("slice of L");
            for (a, &x) in acc_g.iter_mut().zip(v_slice) {
                *a += p_t * x;
            }
        }
    }
    for ((head, d), acc_g) in slices.into_iter().zip(acc) {
        out[head * hd + d..][..L].copy_from_slice(&acc_g);
    }
}

/// One attention step for a single token at position `pos` (== `cache.len()`).
///
/// `x` is the normalized hidden state of the current token. Keys/values for
/// the token are appended to `cache` (the caller advances the cache after all
/// layers ran). Returns the attention output after the `wo` projection.
///
/// Generic over [`KvStore`], so contiguous and paged caches run the exact
/// same arithmetic in the exact same order — the structural basis of the
/// paged-parity suite. Generic over [`LayerView`], so the f32 and int8
/// engines share this exact attention core: only the four projections go
/// through the precision-specific [`Linear`] kernels, while RoPE, the causal
/// score/softmax/weighted-sum loop, and the KV cache stay f32.
pub fn attention_step<C: KvStore, L: LayerView>(
    cfg: &ModelConfig,
    weights: &L,
    rope: &RopeTable,
    cache: &mut C,
    layer: usize,
    x: &[f32],
) -> Vec<f32> {
    let pos = cache.len();

    // Project.
    let mut q = weights.wq().apply(x); // n_heads * head_dim
    let mut k = weights.wk().apply(x); // n_kv_heads * head_dim
    let v = weights.wv().apply(x);

    // Rotate queries and keys.
    rope.apply_all_heads(&mut q, pos);
    rope.apply_all_heads(&mut k, pos);

    // Store this position's K/V.
    cache.write(layer, &k, &v);

    // Attend: causal, so positions 0..=pos.
    let total = pos + 1;
    let kv = GatheredKv::new(cfg, cache, layer, total);
    let mut scores = vec![0.0f32; cfg.n_heads * kv.geo.stride];
    let mut out = vec![0.0f32; cfg.hidden];
    kv.attend_row(simd::detect(), &q, total, &mut scores, &mut out);

    weights.wo().apply(&out)
}

/// Multi-token attention over a block of `xs.rows()` normalized hidden states
/// occupying positions `cache.len()..cache.len() + xs.rows()`.
///
/// The Q/K/V and output projections run as blocked GEMMs over the whole block
/// ([`Linear::apply_block`] rows are bit-identical to [`Linear::apply`]); the causal
/// score/softmax/weighted-sum core runs per row in exactly the order
/// [`attention_step`] uses, so row `i` of the result carries the same bits the
/// sequential path would produce at position `cache.len() + i`.
///
/// K/V rows for the block are *staged* via [`KvStore::write_at`]; the caller
/// commits them with [`KvStore::advance_by`] once every layer has run.
pub fn attention_block<C: KvStore, L: LayerView>(
    cfg: &ModelConfig,
    weights: &L,
    rope: &RopeTable,
    cache: &mut C,
    layer: usize,
    xs: &Matrix,
) -> Matrix {
    let block = xs.rows();
    let start = cache.len();

    // Project the whole block at once.
    let mut q = weights.wq().apply_block(xs);
    let mut k = weights.wk().apply_block(xs);
    let v = weights.wv().apply_block(xs);

    // Rotate and stage K/V for every position in the block.
    for i in 0..block {
        rope.apply_all_heads(q.row_mut(i), start + i);
        rope.apply_all_heads(k.row_mut(i), start + i);
        cache.write_at(layer, start + i, k.row(i), v.row(i));
    }

    // Causal attention per row: position start + i sees 0..=start + i,
    // which includes the staged rows of this block that precede it. Keys
    // and values are gathered once for the whole block, and each row runs
    // the same core as [`attention_step`].
    let total = start + block;
    let kv = GatheredKv::new(cfg, cache, layer, total);
    let level = simd::detect();
    let mut scores = vec![0.0f32; cfg.n_heads * kv.geo.stride];
    let mut out = Matrix::zeros(block, cfg.hidden);
    for i in 0..block {
        kv.attend_row(level, q.row(i), start + i + 1, &mut scores, out.row_mut(i));
    }

    weights.wo().apply_block(&out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::KvCache;
    use crate::weights::ModelWeights;
    use tensor::ops::vecmat;

    fn setup() -> (ModelConfig, ModelWeights, RopeTable) {
        let cfg = ModelConfig::tiny(32);
        let w = ModelWeights::synthetic(&cfg, 7);
        let rope = RopeTable::new(cfg.head_dim(), cfg.max_seq_len, cfg.rope_theta);
        (cfg, w, rope)
    }

    #[test]
    fn output_has_hidden_dim() {
        let (cfg, w, rope) = setup();
        let mut cache = KvCache::new(
            cfg.n_layers,
            cfg.max_seq_len,
            cfg.n_kv_heads * cfg.head_dim(),
        );
        let x = vec![0.1; cfg.hidden];
        let out = attention_step(&cfg, &w.layers[0], &rope, &mut cache, 0, &x);
        assert_eq!(out.len(), cfg.hidden);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn first_token_attends_only_to_itself() {
        // With one position the attention weights are [1.0], so the output is
        // exactly wo·(v broadcast over heads).
        let (cfg, w, rope) = setup();
        let mut cache = KvCache::new(
            cfg.n_layers,
            cfg.max_seq_len,
            cfg.n_kv_heads * cfg.head_dim(),
        );
        let x: Vec<f32> = (0..cfg.hidden).map(|i| (i as f32 * 0.13).sin()).collect();
        let out = attention_step(&cfg, &w.layers[0], &rope, &mut cache, 0, &x);

        let v = vecmat(&x, &w.layers[0].wv);
        let head_dim = cfg.head_dim();
        let mut expected_pre = vec![0.0; cfg.hidden];
        for head in 0..cfg.n_heads {
            let kv_head = head / cfg.group_size();
            expected_pre[head * head_dim..(head + 1) * head_dim]
                .copy_from_slice(&v[kv_head * head_dim..(kv_head + 1) * head_dim]);
        }
        let expected = vecmat(&expected_pre, &w.layers[0].wo);
        for (g, e) in out.iter().zip(&expected) {
            assert!((g - e).abs() < 1e-5, "{g} vs {e}");
        }
    }

    #[test]
    fn later_tokens_see_earlier_context() {
        let (cfg, w, rope) = setup();
        let kv_dim = cfg.n_kv_heads * cfg.head_dim();

        // Same final token, different first tokens → different outputs.
        let run = |first: f32| {
            let mut cache = KvCache::new(cfg.n_layers, cfg.max_seq_len, kv_dim);
            let x1 = vec![first; cfg.hidden];
            attention_step(&cfg, &w.layers[0], &rope, &mut cache, 0, &x1);
            cache.advance();
            let x2 = vec![0.2; cfg.hidden];
            attention_step(&cfg, &w.layers[0], &rope, &mut cache, 0, &x2)
        };
        let a = run(0.5);
        let b = run(-0.5);
        let diff: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(
            diff > 1e-4,
            "second token's output must depend on the first token"
        );
    }

    #[test]
    fn block_is_bit_identical_to_sequential_steps() {
        // Parity core for the GEMM prefill: attention_block must reproduce
        // attention_step exactly, including when the block starts
        // mid-sequence, for the test shape and the two benchmark shapes
        // (GQA group 3 at head_dim 16, MHA at head_dim 8). Twenty tokens
        // straddle the score kernel's 16-position lane groups.
        for cfg in [
            ModelConfig::tiny(32),
            ModelConfig::qwen2_like(32),
            ModelConfig::minicpm_like(32),
        ] {
            let w = ModelWeights::synthetic(&cfg, 7);
            let rope = RopeTable::new(cfg.head_dim(), cfg.max_seq_len, cfg.rope_theta);
            let kv_dim = cfg.n_kv_heads * cfg.head_dim();
            let tokens: Vec<Vec<f32>> = (0..20)
                .map(|t| {
                    (0..cfg.hidden)
                        .map(|i| ((t * 17 + i * 5) % 13) as f32 * 0.11 - 0.6)
                        .collect()
                })
                .collect();

            for split in [0usize, 1, 3, 17] {
                let mut seq_cache = KvCache::new(cfg.n_layers, cfg.max_seq_len, kv_dim);
                let mut blk_cache = KvCache::new(cfg.n_layers, cfg.max_seq_len, kv_dim);

                // Shared warm-up prefix processed token-at-a-time in both caches.
                for x in &tokens[..split] {
                    let a = attention_step(&cfg, &w.layers[0], &rope, &mut seq_cache, 0, x);
                    let b = attention_step(&cfg, &w.layers[0], &rope, &mut blk_cache, 0, x);
                    assert_eq!(a, b);
                    seq_cache.advance();
                    blk_cache.advance();
                }

                let seq_outs: Vec<Vec<f32>> = tokens[split..]
                    .iter()
                    .map(|x| {
                        let o = attention_step(&cfg, &w.layers[0], &rope, &mut seq_cache, 0, x);
                        seq_cache.advance();
                        o
                    })
                    .collect();

                let block = tokens.len() - split;
                let xs = Matrix::from_fn(block, cfg.hidden, |r, c| tokens[split + r][c]);
                let blk_out = attention_block(&cfg, &w.layers[0], &rope, &mut blk_cache, 0, &xs);
                blk_cache.advance_by(block);

                let shape = format!("hidden {} heads {}", cfg.hidden, cfg.n_heads);
                for (i, seq) in seq_outs.iter().enumerate() {
                    assert_eq!(
                        blk_out.row(i),
                        seq.as_slice(),
                        "{shape} split {split} row {i}"
                    );
                }
                // Staged K/V must match what the sequential path committed.
                for t in 0..tokens.len() {
                    assert_eq!(
                        seq_cache.key(0, t),
                        blk_cache.key(0, t),
                        "{shape} key pos {t}"
                    );
                    assert_eq!(
                        seq_cache.value(0, t),
                        blk_cache.value(0, t),
                        "{shape} value pos {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernels_match_reference_at_every_simd_level() {
        // At every SIMD level the host supports, the score kernel must equal
        // `dot(q_head, k_t) * scale` and the value sum the textbook
        // ascending-position sum, bit for bit. Head dims cover the 16-, 8-
        // and single-lane value slices and the dot's tail dimensions; widths
        // straddle the 16-position lane groups; inputs mix ±0 and
        // subnormals into normal values. Probabilities hold NaN past
        // `width`, so a value sum that read the padding would fail.
        let value = |i: usize| match i % 9 {
            0 => 0.0,
            1 => -0.0,
            2 => 2.0e-39,
            _ => ((i * 37) % 29) as f32 * 0.07 - 1.0,
        };
        for head_dim in [1, 3, 4, 8, 12, 16, 24, 40] {
            for (n_heads, n_kv_heads) in [(1, 1), (3, 1), (4, 2), (6, 2), (8, 8)] {
                for width in [1usize, 15, 16, 17, 33, 70] {
                    let kv_dim = n_kv_heads * head_dim;
                    let group = n_heads / n_kv_heads;
                    let geo = Geometry {
                        head_dim,
                        group,
                        kv_dim,
                        stride: width.next_multiple_of(LANES),
                        scale: 1.0 / (head_dim as f32).sqrt(),
                    };
                    let v: Vec<f32> = (0..width * kv_dim).map(|i| value(i * 5 + 2)).collect();
                    let keys: Vec<f32> = (0..width * kv_dim).map(|i| value(i * 7 + 1)).collect();
                    let mut kt = vec![0.0; kv_dim * geo.stride];
                    for (i, &key) in keys.iter().enumerate() {
                        kt[(i % kv_dim) * geo.stride + i / kv_dim] = key;
                    }
                    let q: Vec<f32> = (0..n_heads * head_dim).map(|i| value(i * 11 + 4)).collect();
                    let probs: Vec<f32> = (0..n_heads * geo.stride)
                        .map(|i| {
                            if i % geo.stride < width {
                                value(i * 13 + 5).abs()
                            } else {
                                f32::NAN
                            }
                        })
                        .collect();

                    let mut want_scores = Vec::new();
                    let mut want_out = Vec::new();
                    for head in 0..n_heads {
                        let q_head = &q[head * head_dim..(head + 1) * head_dim];
                        let off = (head / group) * head_dim;
                        for t in 0..width {
                            let key = &keys[t * kv_dim + off..t * kv_dim + off + head_dim];
                            want_scores.push((tensor::ops::dot(q_head, key) * geo.scale).to_bits());
                        }
                        for d in 0..head_dim {
                            let mut s = 0.0f32;
                            for t in 0..width {
                                s += probs[head * geo.stride + t] * v[t * kv_dim + off + d];
                            }
                            want_out.push(s.to_bits());
                        }
                    }

                    let shape =
                        format!("head_dim {head_dim} heads {n_heads}/{n_kv_heads} width {width}");
                    for level in simd::supported() {
                        let mut scores = vec![f32::NAN; n_heads * geo.stride];
                        scores_at(level, geo, &q, &kt, width, &mut scores);
                        let got: Vec<u32> = scores
                            .chunks_exact(geo.stride)
                            .flat_map(|row| row[..width].iter().map(|s| s.to_bits()))
                            .collect();
                        assert_eq!(got, want_scores, "scores {level:?} {shape}");

                        let mut out = vec![f32::NAN; n_heads * head_dim];
                        values_at(level, geo, &probs, &v, width, &mut out);
                        let got: Vec<u32> = out.iter().map(|s| s.to_bits()).collect();
                        assert_eq!(got, want_out, "values {level:?} {shape}");
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let (cfg, w, rope) = setup();
        let kv_dim = cfg.n_kv_heads * cfg.head_dim();
        let x = vec![0.3; cfg.hidden];
        let mut c1 = KvCache::new(cfg.n_layers, cfg.max_seq_len, kv_dim);
        let mut c2 = KvCache::new(cfg.n_layers, cfg.max_seq_len, kv_dim);
        let a = attention_step(&cfg, &w.layers[0], &rope, &mut c1, 0, &x);
        let b = attention_step(&cfg, &w.layers[0], &rope, &mut c2, 0, &x);
        assert_eq!(a, b);
    }
}
