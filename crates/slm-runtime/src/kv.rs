//! Per-layer key/value cache for prompt prefill.
//!
//! The paper's efficiency argument for local SLM deployment is that the
//! yes-probability falls out of a *single* forward pass over the prompt; the
//! KV cache is what makes that pass linear instead of quadratic re-reading.
//!
//! [`KvStore`] is the one contract both cache backends implement: stage K/V
//! rows at explicit positions, commit them in blocks, read any staged or
//! committed row. [`KvCache`] is the contiguous backend; it has no inherent
//! accessors, so callers bring the trait into scope.

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
/// - Writes are staged: `write_at` fills K/V for one layer at an explicit
///   position, and `advance_by` commits positions once every layer wrote
///   them. The sequential reference stages one position
///   (`write_at(layer, len, ..)`, then `advance_by(1)`); the GEMM prefill
///   stages a whole block.
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

    /// Stage K/V for `layer` at an explicit position (then
    /// [`KvStore::advance_by`]).
    fn write_at(&mut self, layer: usize, pos: usize, k: &[f32], v: &[f32]);

    /// Commit `n` staged positions.
    fn advance_by(&mut self, n: usize);

    /// Key row for `layer` at `pos` (committed or staged).
    fn key(&self, layer: usize, pos: usize) -> &[f32];

    /// Value row for `layer` at `pos` (committed or staged).
    fn value(&self, layer: usize, pos: usize) -> &[f32];
}

/// KV cache for one model: `n_layers` ring-less append-only buffers of
/// `(max_seq, kv_dim)` keys and values. Read and written through
/// [`KvStore`].
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
        self.len
    }

    fn remaining(&self) -> usize {
        self.max_seq - self.len
    }

    /// # Panics
    /// Panics when `pos` is beyond capacity or on dimension mismatch.
    fn write_at(&mut self, layer: usize, pos: usize, k: &[f32], v: &[f32]) {
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

    /// # Panics
    /// Panics when fewer than `n` positions remain.
    fn advance_by(&mut self, n: usize) {
        assert!(
            self.len + n <= self.max_seq,
            "KV cache full ({} positions)",
            self.max_seq
        );
        self.len += n;
    }

    fn key(&self, layer: usize, pos: usize) -> &[f32] {
        debug_assert!(pos < self.max_seq);
        self.keys[layer].row(pos)
    }

    fn value(&self, layer: usize, pos: usize) -> &[f32] {
        debug_assert!(pos < self.max_seq);
        self.values[layer].row(pos)
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
                c.write_at(layer, pos, &k, &v);
            }
            c.advance_by(1);
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.key(1, 2), &[2.0; 4]);
        assert_eq!(c.value(0, 1), &[11.0; 4]);
    }

    #[test]
    #[should_panic(expected = "full")]
    fn overflow_panics() {
        let mut c = KvCache::new(1, 1, 2);
        c.write_at(0, 0, &[0.0; 2], &[0.0; 2]);
        c.advance_by(1);
        c.advance_by(1);
    }

    #[test]
    #[should_panic(expected = "dim mismatch")]
    fn wrong_dim_panics() {
        let mut c = KvCache::new(1, 4, 2);
        c.write_at(0, 0, &[0.0; 3], &[0.0; 3]);
    }

    /// Regression for the fork over-allocation bug: a fork's allocation must
    /// be exactly what was asked for, so peak bytes scale with
    /// `prefix + suffix`, never with the model's context window.
    #[test]
    fn fork_allocates_exactly_the_requested_capacity() {
        let mut c = KvCache::new(2, 256, 4);
        for pos in 0..10 {
            for layer in 0..2 {
                c.write_at(layer, pos, &[1.0; 4], &[2.0; 4]);
            }
            c.advance_by(1);
        }
        let per_row = 2 * 2 * 4 * std::mem::size_of::<f32>();
        // Full-window allocation: the shape the latent bug produced.
        assert_eq!(c.allocated_bytes(), 256 * per_row);
        // A fork sized for prefix (10) + suffix (6) allocates 16 rows, flat.
        let forked = c.fork_with_capacity(16);
        assert_eq!(forked.allocated_bytes(), 16 * per_row);
        assert_eq!(forked.kv_bytes(), 10 * per_row);
    }
}
