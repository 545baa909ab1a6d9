//! Per-layer key/value cache for prompt prefill.
//!
//! The paper's efficiency argument for local SLM deployment is that the
//! yes-probability falls out of a *single* forward pass over the prompt; the
//! KV cache is what makes that pass linear instead of quadratic re-reading.

use tensor::Matrix;

/// The storage contract the attention/model layers run against.
///
/// Two implementations exist: the contiguous [`KvCache`] (one dense buffer
/// per layer) and the paged [`crate::paged::PagedKvCache`] (fixed-size
/// refcounted blocks with copy-on-write forks). The forward passes in
/// [`crate::attention`] and [`crate::model`] are generic over this trait, so
/// both backends run *the same* compute code — which is what makes the
/// paged-vs-contiguous bitwise-parity claim structural rather than
/// coincidental: only the bytes' addresses differ, never the arithmetic or
/// its order.
///
/// Semantics every implementation must uphold:
/// - `write`/`advance` append one position at a time; `write_at`/`advance_by`
///   stage a multi-token block before committing it.
/// - `key`/`value` return the row for any position `< len()` plus staged
///   (written but uncommitted) positions.
/// - `remaining()` is how many positions may currently be written. For the
///   contiguous cache that is simply `max_seq - len`; the paged cache
///   additionally requires capacity to have been reserved
///   ([`crate::paged::PagedKvCache::try_reserve`]) so writes are infallible
///   once admitted.
pub trait KvStore {
    /// Number of committed positions.
    fn len(&self) -> usize;

    /// True when nothing has been committed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Positions that may currently be written (see trait docs).
    fn remaining(&self) -> usize;

    /// Capacity bound in positions.
    fn max_seq(&self) -> usize;

    /// K/V vector width (`n_kv_heads * head_dim`).
    fn kv_dim(&self) -> usize;

    /// Number of layers served.
    fn n_layers(&self) -> usize;

    /// Write the current position's K/V for `layer` (then [`KvStore::advance`]).
    fn write(&mut self, layer: usize, k: &[f32], v: &[f32]);

    /// Commit the current position after all layers wrote.
    fn advance(&mut self);

    /// Stage K/V for an explicit position (then [`KvStore::advance_by`]).
    fn write_at(&mut self, layer: usize, pos: usize, k: &[f32], v: &[f32]);

    /// Commit `n` staged positions.
    fn advance_by(&mut self, n: usize);

    /// Key row for `layer` at `pos` (committed or staged).
    fn key(&self, layer: usize, pos: usize) -> &[f32];

    /// Value row for `layer` at `pos` (committed or staged).
    fn value(&self, layer: usize, pos: usize) -> &[f32];
}

/// KV cache for one model: `n_layers` ring-less append-only buffers of
/// `(max_seq, kv_dim)` keys and values.
#[derive(Debug, Clone)]
pub struct KvCache {
    keys: Vec<Matrix>,
    values: Vec<Matrix>,
    len: usize,
    max_seq: usize,
    kv_dim: usize,
}

impl KvCache {
    /// Allocate a cache for `n_layers` layers with `kv_dim = n_kv_heads * head_dim`.
    pub fn new(n_layers: usize, max_seq: usize, kv_dim: usize) -> Self {
        Self {
            keys: (0..n_layers)
                .map(|_| Matrix::zeros(max_seq, kv_dim))
                .collect(),
            values: (0..n_layers)
                .map(|_| Matrix::zeros(max_seq, kv_dim))
                .collect(),
            len: 0,
            max_seq,
            kv_dim,
        }
    }

    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remaining capacity in positions.
    pub fn remaining(&self) -> usize {
        self.max_seq - self.len
    }

    /// Write the K/V vectors of the current position into `layer`'s buffers.
    /// Call once per layer per position, then [`KvCache::advance`].
    ///
    /// # Panics
    /// Panics when full or on dimension mismatch.
    pub fn write(&mut self, layer: usize, k: &[f32], v: &[f32]) {
        assert!(
            self.len < self.max_seq,
            "KV cache full ({} positions)",
            self.max_seq
        );
        assert_eq!(k.len(), self.kv_dim, "key dim mismatch");
        assert_eq!(v.len(), self.kv_dim, "value dim mismatch");
        self.keys[layer].row_mut(self.len).copy_from_slice(k);
        self.values[layer].row_mut(self.len).copy_from_slice(v);
    }

    /// Commit the current position after all layers have written.
    pub fn advance(&mut self) {
        assert!(self.len < self.max_seq, "KV cache full");
        self.len += 1;
    }

    /// Write K/V for an explicit position, staging a multi-token block: the
    /// GEMM prefill writes positions `len..len + block` for one layer before
    /// any of them are committed, then calls [`KvCache::advance_by`] once
    /// after every layer has run.
    ///
    /// # Panics
    /// Panics when `pos` is beyond capacity or on dimension mismatch.
    pub fn write_at(&mut self, layer: usize, pos: usize, k: &[f32], v: &[f32]) {
        assert!(
            pos < self.max_seq,
            "position {pos} beyond KV capacity ({} positions)",
            self.max_seq
        );
        assert_eq!(k.len(), self.kv_dim, "key dim mismatch");
        assert_eq!(v.len(), self.kv_dim, "value dim mismatch");
        self.keys[layer].row_mut(pos).copy_from_slice(k);
        self.values[layer].row_mut(pos).copy_from_slice(v);
    }

    /// Commit `n` staged positions at once (the block analogue of
    /// [`KvCache::advance`]).
    ///
    /// # Panics
    /// Panics when fewer than `n` positions remain.
    pub fn advance_by(&mut self, n: usize) {
        assert!(
            self.len + n <= self.max_seq,
            "KV cache full ({} positions)",
            self.max_seq
        );
        self.len += n;
    }

    /// Cached key row for `layer` at `pos`. Staged (written but not yet
    /// advanced) positions are readable: block attention reads keys of the
    /// in-flight token block.
    pub fn key(&self, layer: usize, pos: usize) -> &[f32] {
        debug_assert!(pos < self.max_seq);
        self.keys[layer].row(pos)
    }

    /// Cached value row for `layer` at `pos`.
    pub fn value(&self, layer: usize, pos: usize) -> &[f32] {
        debug_assert!(pos < self.max_seq);
        self.values[layer].row(pos)
    }

    /// Number of layers this cache serves.
    pub fn n_layers(&self) -> usize {
        self.keys.len()
    }

    /// K/V vector width (`n_kv_heads * head_dim`).
    pub fn kv_dim(&self) -> usize {
        self.kv_dim
    }

    /// Capacity in positions.
    pub fn max_seq(&self) -> usize {
        self.max_seq
    }

    /// Bytes held by the *filled* K/V rows (the prefix-cache byte model:
    /// `2 buffers · n_layers · len · kv_dim · 4 bytes`). Staged rows and
    /// unused capacity are not counted.
    pub fn kv_bytes(&self) -> usize {
        2 * self.keys.len() * self.len * self.kv_dim * std::mem::size_of::<f32>()
    }

    /// Bytes held by the *allocation* — every row, filled or not:
    /// `2 buffers · n_layers · max_seq · kv_dim · 4 bytes`. This is what a
    /// fork actually costs in memory, so it is the number the
    /// fork-capacity regression tests pin: a per-sentence fork must
    /// allocate for `prefix + suffix` positions, not for the model's whole
    /// context window.
    pub fn allocated_bytes(&self) -> usize {
        2 * self.keys.len() * self.max_seq * self.kv_dim * std::mem::size_of::<f32>()
    }

    /// Copy the filled rows into a fresh cache with `max_seq` capacity — the
    /// copy-on-extend fork: the returned cache continues from position `len`
    /// and is fully independent of `self`.
    ///
    /// # Panics
    /// Panics when `max_seq < len`.
    pub fn fork_with_capacity(&self, max_seq: usize) -> KvCache {
        assert!(
            max_seq >= self.len,
            "fork capacity {max_seq} below filled length {}",
            self.len
        );
        let mut out = KvCache::new(self.keys.len(), max_seq, self.kv_dim);
        let filled = self.len * self.kv_dim;
        for layer in 0..self.keys.len() {
            out.keys[layer].as_mut_slice()[..filled]
                .copy_from_slice(&self.keys[layer].as_slice()[..filled]);
            out.values[layer].as_mut_slice()[..filled]
                .copy_from_slice(&self.values[layer].as_slice()[..filled]);
        }
        out.len = self.len;
        out
    }
}

impl KvStore for KvCache {
    fn len(&self) -> usize {
        KvCache::len(self)
    }

    fn remaining(&self) -> usize {
        KvCache::remaining(self)
    }

    fn max_seq(&self) -> usize {
        KvCache::max_seq(self)
    }

    fn kv_dim(&self) -> usize {
        KvCache::kv_dim(self)
    }

    fn n_layers(&self) -> usize {
        KvCache::n_layers(self)
    }

    fn write(&mut self, layer: usize, k: &[f32], v: &[f32]) {
        KvCache::write(self, layer, k, v);
    }

    fn advance(&mut self) {
        KvCache::advance(self);
    }

    fn write_at(&mut self, layer: usize, pos: usize, k: &[f32], v: &[f32]) {
        KvCache::write_at(self, layer, pos, k, v);
    }

    fn advance_by(&mut self, n: usize) {
        KvCache::advance_by(self, n);
    }

    fn key(&self, layer: usize, pos: usize) -> &[f32] {
        KvCache::key(self, layer, pos)
    }

    fn value(&self, layer: usize, pos: usize) -> &[f32] {
        KvCache::value(self, layer, pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty() {
        let c = KvCache::new(2, 8, 4);
        assert!(c.is_empty());
        assert_eq!(c.remaining(), 8);
    }

    #[test]
    fn write_then_advance_accumulates() {
        let mut c = KvCache::new(2, 8, 4);
        for pos in 0..3 {
            for layer in 0..2 {
                let k = [pos as f32; 4];
                let v = [pos as f32 + 10.0; 4];
                c.write(layer, &k, &v);
            }
            c.advance();
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.key(1, 2), &[2.0; 4]);
        assert_eq!(c.value(0, 1), &[11.0; 4]);
    }

    #[test]
    #[should_panic(expected = "full")]
    fn overflow_panics() {
        let mut c = KvCache::new(1, 1, 2);
        c.write(0, &[0.0; 2], &[0.0; 2]);
        c.advance();
        c.advance();
    }

    #[test]
    #[should_panic(expected = "dim mismatch")]
    fn wrong_dim_panics() {
        let mut c = KvCache::new(1, 4, 2);
        c.write(0, &[0.0; 3], &[0.0; 3]);
    }

    /// Regression for the fork over-allocation bug: a fork's allocation must
    /// be exactly what was asked for, so peak bytes scale with
    /// `prefix + suffix`, never with the model's context window.
    #[test]
    fn fork_allocates_exactly_the_requested_capacity() {
        let mut c = KvCache::new(2, 256, 4);
        for _ in 0..10 {
            for layer in 0..2 {
                c.write(layer, &[1.0; 4], &[2.0; 4]);
            }
            c.advance();
        }
        let per_row = 2 * 2 * 4 * std::mem::size_of::<f32>();
        // Full-window allocation: the shape the latent bug produced.
        assert_eq!(c.allocated_bytes(), 256 * per_row);
        // A fork sized for prefix (10) + suffix (6) allocates 16 rows, flat.
        let forked = c.fork_with_capacity(16);
        assert_eq!(forked.allocated_bytes(), 16 * per_row);
        assert_eq!(forked.kv_bytes(), 10 * per_row);
    }

    /// The generic attention/model layers run through this trait; make sure
    /// the contiguous impl round-trips both the per-token and the staged
    /// block protocols under trait dispatch.
    #[test]
    fn kv_store_trait_matches_inherent_behavior() {
        fn fill<C: KvStore>(c: &mut C) {
            c.write(0, &[1.0, 2.0], &[3.0, 4.0]);
            c.advance();
            c.write_at(0, 1, &[5.0, 6.0], &[7.0, 8.0]);
            c.write_at(0, 2, &[9.0, 10.0], &[11.0, 12.0]);
            c.advance_by(2);
        }
        let mut c = KvCache::new(1, 4, 2);
        fill(&mut c);
        let store: &dyn Fn(&KvCache) = &|c| {
            assert_eq!(KvStore::len(c), 3);
            assert_eq!(KvStore::remaining(c), 1);
            assert_eq!(KvStore::key(c, 0, 1), &[5.0, 6.0]);
            assert_eq!(KvStore::value(c, 0, 2), &[11.0, 12.0]);
            assert_eq!(KvStore::n_layers(c), 1);
            assert_eq!(KvStore::kv_dim(c), 2);
            assert_eq!(KvStore::max_seq(c), 4);
        };
        store(&c);
    }
}
