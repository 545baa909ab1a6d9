//! Causal multi-head attention with grouped-query KV sharing.
//!
//! The score, softmax and value-sum loops run at the widest SIMD level the
//! host supports ([`tensor::simd`]). The causal core runs over tiles of
//! consecutive query rows: each transposed key lane group and each value
//! slice is loaded once per tile and serves every row of it. The score and
//! value-sum lanes span only independent outputs, positions for the scores
//! and head dimensions for the value sum, and the rows of a tile only share
//! loads, so each output keeps the exact operation sequence of the scalar
//! loop; the softmax ([`tensor::nn::softmax_inplace`]) reduces in its one
//! pinned lane order. So every level and every tile height produces the
//! same bits.

use tensor::nn::softmax_inplace;
use tensor::simd::{self, SimdLevel, LANES};
use tensor::{Linear, Matrix};

use crate::config::ModelConfig;
use crate::kv::KvStore;
use crate::rope::RopeTable;
use crate::weights::LayerView;

/// Query heads per register group of the value sum. With a tile of `R`
/// query rows, a group keeps `R × VALUE_HEADS` independent accumulator
/// chains per position, and each of its value slices is loaded once per
/// position for all of them.
const VALUE_HEADS: usize = 4;

/// Shape of one layer's attention over the gathered positions.
#[derive(Clone, Copy)]
struct Geometry {
    head_dim: usize,
    /// Query heads per KV head.
    group: usize,
    kv_dim: usize,
    /// Floats per transposed key column and per head's score row: the
    /// gathered position count rounded up to [`LANES`], so every tile of
    /// query rows runs whole lane groups up to its widest row in the score
    /// kernel; scores past a row's own causal width are computed and never
    /// read.
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

    /// Query heads.
    fn heads(self) -> usize {
        self.kv_dim / self.head_dim * self.group
    }

    /// Floats per query row.
    fn q_dim(self) -> usize {
        self.kv_dim * self.group
    }

    /// The widest row of an `R`-row tile whose first row is `first`
    /// positions wide, after checking that the tile fits: `rows` (the query
    /// rows or the output rows) holds exactly `R` rows, `scores` an
    /// `R`-row score block, and `stride` a whole number of lane groups at
    /// least that wide. The kernels' unchecked loads rely on this check.
    fn check_tile<const R: usize>(self, first: usize, rows: &[f32], scores: &[f32]) -> usize {
        let widest = first + R - 1;
        assert!(
            self.head_dim > 0
                && self.stride.is_multiple_of(LANES)
                && widest <= self.stride
                && rows.len() == R * self.q_dim()
                && scores.len() >= R * self.heads() * self.stride,
            "attention tile out of bounds"
        );
        widest
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

    /// Causal attention of consecutive query rows, before the output
    /// projection: scaled scores per head, softmax per head, then the
    /// softmax-weighted sum of values into `out`. `q` and `out` hold the
    /// rows back to back, and row `i` sees positions `0..first + i`.
    ///
    /// Rows run in tiles of the level's tile height, like the GEMM's panel
    /// width: 4 at AVX-512, whose 32 vector registers hold four rows' score
    /// accumulators; 2 at AVX2, whose 16 registers spill at 4 rows; 1 at
    /// the baseline, where one row's 16-lane score accumulators fill all 16
    /// SSE registers. The rows left below a whole tile run the one-row
    /// instance of the same kernels. Shared by [`attention_step`] and
    /// [`attention_block`], so both run the same arithmetic per row.
    fn attend(&self, level: SimdLevel, q: &[f32], first: usize, out: &mut [f32]) {
        match level {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512(_) => self.attend_tiles::<4>(level, q, first, out),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2(_) => self.attend_tiles::<2>(level, q, first, out),
            SimdLevel::Scalar => self.attend_tiles::<1>(level, q, first, out),
        }
    }

    fn attend_tiles<const T: usize>(
        &self,
        level: SimdLevel,
        q: &[f32],
        first: usize,
        out: &mut [f32],
    ) {
        let q_dim = self.geo.q_dim();
        let rows = q.len() / q_dim;
        let tiled = rows - rows % T;
        let mut scores = vec![0.0f32; T.min(rows) * self.geo.heads() * self.geo.stride];
        let tiles = q
            .chunks_exact(T * q_dim)
            .zip(out.chunks_exact_mut(T * q_dim));
        for (i, (q_tile, out_tile)) in tiles.enumerate() {
            self.attend_tile::<T>(level, q_tile, first + i * T, &mut scores, out_tile);
        }
        for i in tiled..rows {
            let (q_row, out_row) = (&q[i * q_dim..][..q_dim], &mut out[i * q_dim..][..q_dim]);
            self.attend_tile::<1>(level, q_row, first + i, &mut scores, out_row);
        }
    }

    /// One tile of `R` query rows, the first `first` positions wide.
    fn attend_tile<const R: usize>(
        &self,
        level: SimdLevel,
        q: &[f32],
        first: usize,
        scores: &mut [f32],
        out: &mut [f32],
    ) {
        let heads = self.geo.heads();
        scores_at::<R>(level, self.geo, q, &self.kt, first, scores);
        let rows = scores.chunks_exact_mut(self.geo.stride).take(R * heads);
        for (i, head_scores) in rows.enumerate() {
            softmax_inplace(&mut head_scores[..first + i / heads]);
        }
        values_at::<R>(level, self.geo, scores, &self.v, first, out);
    }
}

fn scores_at<const R: usize>(
    level: SimdLevel,
    geo: Geometry,
    q: &[f32],
    kt: &[f32],
    first: usize,
    scores: &mut [f32],
) {
    match level {
        // SAFETY: an Avx512 level carries the `tensor::simd` proof that the
        // CPU reported avx512f.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512(_) => unsafe { x86::scores_avx512::<R>(geo, q, kt, first, scores) },
        // SAFETY: an Avx2 level carries the `tensor::simd` proof that the
        // CPU reported avx2.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2(_) => unsafe { x86::scores_avx2::<R>(geo, q, kt, first, scores) },
        SimdLevel::Scalar => scores_tile::<R>(geo, q, kt, first, scores),
    }
}

fn values_at<const R: usize>(
    level: SimdLevel,
    geo: Geometry,
    probs: &[f32],
    v: &[f32],
    first: usize,
    out: &mut [f32],
) {
    match level {
        // SAFETY: an Avx512 level carries the `tensor::simd` proof that the
        // CPU reported avx512f.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512(_) => unsafe { x86::values_avx512::<R>(geo, probs, v, first, out) },
        // SAFETY: an Avx2 level carries the `tensor::simd` proof that the
        // CPU reported avx2.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2(_) => unsafe { x86::values_avx2::<R>(geo, probs, v, first, out) },
        SimdLevel::Scalar => values_tile::<R>(geo, probs, v, first, out),
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The attention kernel bodies instantiated for AVX-512F and AVX2.
    //! Neither feature set enables fused multiply-add contraction.

    use super::{scores_tile, values_tile, Geometry};

    #[target_feature(enable = "avx512f")]
    pub fn scores_avx512<const R: usize>(
        geo: Geometry,
        q: &[f32],
        kt: &[f32],
        first: usize,
        scores: &mut [f32],
    ) {
        scores_tile::<R>(geo, q, kt, first, scores);
    }

    #[target_feature(enable = "avx2")]
    pub fn scores_avx2<const R: usize>(
        geo: Geometry,
        q: &[f32],
        kt: &[f32],
        first: usize,
        scores: &mut [f32],
    ) {
        scores_tile::<R>(geo, q, kt, first, scores);
    }

    #[target_feature(enable = "avx512f")]
    pub fn values_avx512<const R: usize>(
        geo: Geometry,
        probs: &[f32],
        v: &[f32],
        first: usize,
        out: &mut [f32],
    ) {
        values_tile::<R>(geo, probs, v, first, out);
    }

    #[target_feature(enable = "avx2")]
    pub fn values_avx2<const R: usize>(
        geo: Geometry,
        probs: &[f32],
        v: &[f32],
        first: usize,
        out: &mut [f32],
    ) {
        values_tile::<R>(geo, probs, v, first, out);
    }
}

/// The `N` floats of `data` from index `at`, loaded without a bounds check.
///
/// # Safety
/// `at + N <= data.len()`.
#[inline(always)]
unsafe fn lanes<const N: usize>(data: &[f32], at: usize) -> &[f32; N] {
    debug_assert!(at + N <= data.len());
    // SAFETY: the caller guarantees `at + N <= data.len()`, so the `N`
    // floats from `at` lie inside `data`.
    unsafe { &*data.as_ptr().add(at).cast::<[f32; N]>() }
}

/// Scaled causal scores of a tile of `R` query rows, back to back in `q`,
/// over the positions of its widest row, `first + R - 1`: row `r`, head
/// `head` goes to `scores[(r * heads + head) * stride + t]`, read from the
/// transposed keys. A narrower row also gets scores up to the tile's widest
/// row, which are never read.
///
/// Per position this computes exactly the 4-lane reduction of
/// [`tensor::ops::dot`]: lane `l` accumulates dimensions `4c + l` in
/// ascending chunk order, the lanes combine as `((s0 + s1) + s2) + s3`, the
/// tail dimensions add sequentially, and the scale multiplies last. The
/// vector lanes span positions and each key lane group is loaded once for
/// every row of the tile, so no output bit differs from a per-position
/// `dot`.
#[inline(always)]
fn scores_tile<const R: usize>(
    geo: Geometry,
    q: &[f32],
    kt: &[f32],
    first: usize,
    scores: &mut [f32],
) {
    let Geometry {
        head_dim: hd,
        group,
        kv_dim,
        stride,
        scale,
    } = geo;
    let widest = geo.check_tile::<R>(first, q, scores);
    assert!(kt.len() >= kv_dim * stride, "attention keys out of bounds");
    let (q_dim, heads) = (geo.q_dim(), geo.heads());
    let chunks = hd / 4;
    for kv_head in 0..kv_dim / hd {
        for head in kv_head * group..(kv_head + 1) * group {
            // SAFETY: `check_tile` checked `q.len() == R * q_dim`, and
            // `r < R`, `head < heads`, `d < hd`, so the index is below it.
            let q_at = |r: usize, d: usize| unsafe { *q.get_unchecked(r * q_dim + head * hd + d) };
            for t0 in (0..widest).step_by(LANES) {
                // SAFETY: `check_tile` and the assert above checked that
                // `stride` is a multiple of LANES at least `widest` wide and
                // that `kt` holds `kv_dim * stride` floats; `t0 < widest` is
                // a multiple of LANES, so `t0 + LANES <= stride`, and
                // `kv_head * hd + d < kv_dim`.
                let column =
                    |d: usize| unsafe { lanes::<LANES>(kt, (kv_head * hd + d) * stride + t0) };
                let mut acc = [[[0.0f32; LANES]; 4]; R];
                for c in 0..chunks {
                    for l in 0..4 {
                        let k = column(4 * c + l);
                        for (r, acc_r) in acc.iter_mut().enumerate() {
                            let qd = q_at(r, 4 * c + l);
                            for (s, &kd) in acc_r[l].iter_mut().zip(k) {
                                *s += qd * kd;
                            }
                        }
                    }
                }
                let mut sums = [[0.0f32; LANES]; R];
                for (sum, [s0, s1, s2, s3]) in sums.iter_mut().zip(&acc) {
                    for (j, s) in sum.iter_mut().enumerate() {
                        *s = ((s0[j] + s1[j]) + s2[j]) + s3[j];
                    }
                }
                for d in chunks * 4..hd {
                    let k = column(d);
                    for (r, sum) in sums.iter_mut().enumerate() {
                        let qd = q_at(r, d);
                        for (s, &kd) in sum.iter_mut().zip(k) {
                            *s += qd * kd;
                        }
                    }
                }
                for (r, sum) in sums.iter().enumerate() {
                    let out = &mut scores[(r * heads + head) * stride + t0..][..LANES];
                    for (o, &s) in out.iter_mut().zip(sum) {
                        *o = s * scale;
                    }
                }
            }
        }
    }
}

/// The softmax-weighted value sums of a tile of `R` query rows: for row `r`
/// and every head, `out_head = Σ_t p[r][head][t] · v_t[kv_head]` over
/// positions `0..first + r`, starting from zero and adding one product at a
/// time in ascending `t`.
///
/// The vector lanes span head dimensions: each head splits into 16-wide,
/// then 8-wide, then single-dimension slices, and slices of the same width
/// run [`VALUE_HEADS`] at a time with their accumulators in registers
/// across every position. Each value slice is loaded once per position for
/// every row of the tile: the rows share that chain up to `first`, the
/// tile's narrowest width, then each row continues alone to its own width.
#[inline(always)]
fn values_tile<const R: usize>(
    geo: Geometry,
    probs: &[f32],
    v: &[f32],
    first: usize,
    out: &mut [f32],
) {
    let widest = geo.check_tile::<R>(first, out, probs);
    assert!(
        v.len() >= widest * geo.kv_dim,
        "attention values out of bounds"
    );
    let hd = geo.head_dim;
    let wide = hd - hd % 16;
    let narrow = hd - hd % 8;
    // SAFETY: `check_tile` and the assert above are the checks every
    // `value_width` call requires, and the three ranges lie within `hd`.
    unsafe {
        value_width::<R, 16>(geo, probs, v, first, out, (0, wide));
        value_width::<R, 8>(geo, probs, v, first, out, (wide, narrow));
        value_width::<R, 1>(geo, probs, v, first, out, (narrow, hd));
    }
}

/// The `L`-wide slices at head dimensions `dims.0..dims.1` of every head,
/// in groups of [`VALUE_HEADS`] slices and then one at a time.
///
/// # Safety
/// As for [`value_sums`], with `dims.1 <= head_dim`.
#[inline(always)]
unsafe fn value_width<const R: usize, const L: usize>(
    geo: Geometry,
    probs: &[f32],
    v: &[f32],
    first: usize,
    out: &mut [f32],
    dims: (usize, usize),
) {
    let per_head = (dims.1 - dims.0) / L;
    let count = per_head * geo.heads();
    // Slice `i` is head `i / per_head`, dimensions from `start(i)`.
    let start = |i: usize| (i / per_head, dims.0 + (i % per_head) * L);
    let mut i = 0;
    while i + VALUE_HEADS <= count {
        let mut slices = [(0, 0); VALUE_HEADS];
        for (g, slice) in slices.iter_mut().enumerate() {
            *slice = start(i + g);
        }
        // SAFETY: the caller's guarantee; each slice is a head below
        // `heads` and `L` dimensions ending by `dims.1 <= head_dim`.
        unsafe { value_sums::<R, L, VALUE_HEADS>(geo, probs, v, first, out, slices) };
        i += VALUE_HEADS;
    }
    while i < count {
        // SAFETY: as above.
        unsafe { value_sums::<R, L, 1>(geo, probs, v, first, out, [start(i)]) };
        i += 1;
    }
}

/// `G` slices of `L` output dimensions, each `(head, first dimension)`, for
/// all `R` rows of a tile, accumulated in registers over the positions.
///
/// # Safety
/// `geo.check_tile::<R>(first, out, probs)` passed, `v` holds
/// `first + R - 1` positions of `kv_dim` floats, and every slice is a head
/// below `heads` whose `L` dimensions end within `head_dim`.
#[inline(always)]
unsafe fn value_sums<const R: usize, const L: usize, const G: usize>(
    geo: Geometry,
    probs: &[f32],
    v: &[f32],
    first: usize,
    out: &mut [f32],
    slices: [(usize, usize); G],
) {
    let Geometry {
        head_dim: hd,
        group,
        kv_dim,
        stride,
        ..
    } = geo;
    let row_probs = geo.heads() * stride;
    let mut p_at = [0; G];
    let mut v_at = [0; G];
    for ((p_g, v_g), &(head, d)) in p_at.iter_mut().zip(&mut v_at).zip(&slices) {
        *p_g = head * stride;
        *v_g = (head / group) * hd + d;
    }
    // SAFETY: the caller checked that `v` holds the `widest` positions of
    // `kv_dim` floats; `t < widest` and a slice ends within its head, so
    // within `kv_dim`.
    let v_slice = |t: usize, g: usize| unsafe { lanes::<L>(v, t * kv_dim + v_at[g]) };
    // SAFETY: the caller's `check_tile` checked that `probs` holds `R` rows
    // of `heads * stride` floats, and `t < first + r <= widest <= stride`.
    let p =
        |r: usize, g: usize, t: usize| unsafe { *probs.get_unchecked(r * row_probs + p_at[g] + t) };
    let mut acc = [[[0.0f32; L]; R]; G];
    for t in 0..first {
        for (g, acc_g) in acc.iter_mut().enumerate() {
            let x = v_slice(t, g);
            for (r, acc_r) in acc_g.iter_mut().enumerate() {
                let p_t = p(r, g, t);
                for (a, &x) in acc_r.iter_mut().zip(x) {
                    *a += p_t * x;
                }
            }
        }
    }
    for r in 1..R {
        for t in first..first + r {
            for (g, acc_g) in acc.iter_mut().enumerate() {
                let p_t = p(r, g, t);
                for (a, &x) in acc_g[r].iter_mut().zip(v_slice(t, g)) {
                    *a += p_t * x;
                }
            }
        }
    }
    let q_dim = geo.q_dim();
    for (&(head, d), acc_g) in slices.iter().zip(&acc) {
        for (r, sums) in acc_g.iter().enumerate() {
            out[r * q_dim + head * hd + d..][..L].copy_from_slice(sums);
        }
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
    let mut out = vec![0.0f32; cfg.hidden];
    kv.attend(simd::detect(), &q, total, &mut out);

    weights.wo().apply(&out)
}

/// Multi-token attention over a block of `xs.rows()` normalized hidden states
/// occupying positions `cache.len()..cache.len() + xs.rows()`.
///
/// The Q/K/V and output projections run as blocked GEMMs over the whole block
/// ([`Linear::apply_block`] rows are bit-identical to [`Linear::apply`]); the causal
/// score/softmax/weighted-sum core runs over tiles of rows that keep, per row,
/// exactly the operation sequence [`attention_step`] uses, so row `i` of the
/// result carries the same bits the sequential path would produce at position
/// `cache.len() + i`.
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
    // and values are gathered once for the whole block, and the rows run
    // the same core as [`attention_step`], in tiles of consecutive rows.
    let total = start + block;
    let kv = GatheredKv::new(cfg, cache, layer, total);
    let mut out = Matrix::zeros(block, cfg.hidden);
    kv.attend(simd::detect(), q.as_slice(), start + 1, out.as_mut_slice());

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
        // (GQA group 3 at head_dim 16, MHA at head_dim 8). Blocks of 20, 19,
        // 17, 6 and 3 rows leave every remainder below a 4-row tile and
        // straddle the score kernel's 16-position lane groups; the last
        // case is a full PREFILL_BLOCK after a 76-position warm-up, the
        // benchmark's prefix geometry.
        for cfg in [
            ModelConfig::tiny(32),
            ModelConfig::qwen2_like(32),
            ModelConfig::minicpm_like(32),
        ] {
            let w = ModelWeights::synthetic(&cfg, 7);
            let rope = RopeTable::new(cfg.head_dim(), cfg.max_seq_len, cfg.rope_theta);
            let kv_dim = cfg.n_kv_heads * cfg.head_dim();
            let token = |t: usize| -> Vec<f32> {
                (0..cfg.hidden)
                    .map(|i| ((t * 17 + i * 5) % 13) as f32 * 0.11 - 0.6)
                    .collect()
            };

            let cases = [
                (0, 20),
                (1, 19),
                (3, 17),
                (14, 6),
                (17, 3),
                (76, crate::PREFILL_BLOCK),
            ];
            for (split, block) in cases {
                let tokens: Vec<Vec<f32>> = (0..split + block).map(token).collect();
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

                let xs = Matrix::from_fn(block, cfg.hidden, |r, c| tokens[split + r][c]);
                let blk_out = attention_block(&cfg, &w.layers[0], &rope, &mut blk_cache, 0, &xs);
                blk_cache.advance_by(block);

                let shape = format!("hidden {} heads {}", cfg.hidden, cfg.n_heads);
                for (i, seq) in seq_outs.iter().enumerate() {
                    assert_eq!(
                        blk_out.row(i),
                        seq.as_slice(),
                        "{shape} split {split} block {block} row {i}"
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

    /// Scores and value sums of one tile of `R` query rows whose first row
    /// is `first` positions wide, at `level`, against `dot(q_head, k_t) *
    /// scale` and the textbook ascending-position sum, bit for bit.
    fn check_tile<const R: usize>(
        level: SimdLevel,
        head_dim: usize,
        (n_heads, n_kv_heads): (usize, usize),
        first: usize,
    ) {
        let value = |i: usize| match i % 9 {
            0 => 0.0,
            1 => -0.0,
            2 => 2.0e-39,
            _ => ((i * 37) % 29) as f32 * 0.07 - 1.0,
        };
        let widest = first + R - 1;
        let kv_dim = n_kv_heads * head_dim;
        let group = n_heads / n_kv_heads;
        let geo = Geometry {
            head_dim,
            group,
            kv_dim,
            stride: widest.next_multiple_of(LANES),
            scale: 1.0 / (head_dim as f32).sqrt(),
        };
        let q_dim = n_heads * head_dim;
        let v: Vec<f32> = (0..widest * kv_dim).map(|i| value(i * 5 + 2)).collect();
        let keys: Vec<f32> = (0..widest * kv_dim).map(|i| value(i * 7 + 1)).collect();
        let mut kt = vec![0.0; kv_dim * geo.stride];
        for (i, &key) in keys.iter().enumerate() {
            kt[(i % kv_dim) * geo.stride + i / kv_dim] = key;
        }
        let q: Vec<f32> = (0..R * q_dim).map(|i| value(i * 11 + 4)).collect();
        // Row r's probabilities are NaN past its own width, so a row that
        // read a wider row's positions would fail.
        let probs: Vec<f32> = (0..R * n_heads * geo.stride)
            .map(|i| {
                let r = i / (n_heads * geo.stride);
                if i % geo.stride < first + r {
                    value(i * 13 + 5).abs()
                } else {
                    f32::NAN
                }
            })
            .collect();

        let mut want_scores = Vec::new();
        let mut want_out = Vec::new();
        for r in 0..R {
            let width = first + r;
            for head in 0..n_heads {
                let q_head = &q[r * q_dim + head * head_dim..][..head_dim];
                let p = &probs[(r * n_heads + head) * geo.stride..][..width];
                let off = (head / group) * head_dim;
                for t in 0..width {
                    let key = &keys[t * kv_dim + off..][..head_dim];
                    want_scores.push((tensor::ops::dot(q_head, key) * geo.scale).to_bits());
                }
                for d in 0..head_dim {
                    let mut s = 0.0f32;
                    for (t, &p_t) in p.iter().enumerate() {
                        s += p_t * v[t * kv_dim + off + d];
                    }
                    want_out.push(s.to_bits());
                }
            }
        }

        let shape = format!(
            "{level:?} rows {R} head_dim {head_dim} heads {n_heads}/{n_kv_heads} first {first}"
        );
        let mut scores = vec![f32::NAN; R * n_heads * geo.stride];
        scores_at::<R>(level, geo, &q, &kt, first, &mut scores);
        let got: Vec<u32> = scores
            .chunks_exact(geo.stride)
            .enumerate()
            .flat_map(|(i, row)| row[..first + i / n_heads].iter().map(|s| s.to_bits()))
            .collect();
        assert_eq!(got, want_scores, "scores {shape}");

        let mut out = vec![f32::NAN; R * q_dim];
        values_at::<R>(level, geo, &probs, &v, first, &mut out);
        let got: Vec<u32> = out.iter().map(|s| s.to_bits()).collect();
        assert_eq!(got, want_out, "values {shape}");
    }

    #[test]
    fn kernels_match_reference_at_every_simd_level() {
        // At every SIMD level the host supports, the tiles of query rows
        // with consecutive widths (4 rows at AVX-512, 2 at AVX2) and the
        // one-row instance must match the references bit for bit. Head dims cover the 16-, 8- and
        // single-lane value slices and the dot's tail dimensions; first
        // widths put a tile's rows on both sides of a 16-position lane
        // group; inputs mix ±0 and subnormals into normal values.
        for level in simd::supported() {
            for head_dim in [1, 3, 4, 8, 12, 16, 24, 40] {
                for heads in [(1, 1), (3, 1), (4, 2), (6, 2), (8, 8)] {
                    for first in [1usize, 13, 15, 16, 17, 33, 70] {
                        check_tile::<4>(level, head_dim, heads, first);
                        check_tile::<2>(level, head_dim, heads, first);
                        check_tile::<1>(level, head_dim, heads, first);
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
