//! Paged KV pool: fixed-size refcounted blocks and copy-on-write sentence
//! forks.
//!
//! The contiguous [`crate::kv::KvCache`] allocates one dense `(max_seq,
//! kv_dim)` buffer per layer, so forking a shared `(question, context)` prefix
//! for a sentence probe copies every filled row — `O(prefix_len)` floats per
//! sentence. This module replaces that with a vLLM-style pool:
//!
//! - One [`PagedKvPool`] owns every page. A page holds `block_tokens`
//!   positions across *all* layers (position-major layout, see below) and is
//!   handed out behind an `Arc`, so the `Arc` strong count *is* the page's
//!   reference count.
//! - [`PagedKvCache`] is a table of page handles. A fork
//!   ([`PagedKvCache::fork_with_capacity`]) clones `O(len / block_tokens)`
//!   handles and copies **zero** floats — fork cost is flat in prefix length.
//! - Writes require a prior [`PagedKvCache::try_reserve`], which performs all
//!   allocation *and* copy-on-write atomically under one pool lock: either the
//!   whole reservation succeeds or the cache is left untouched (no torn
//!   forks). Exhaustion is the typed [`PoolExhausted`] error, never a panic.
//! - Free pages return to a free list on drop and are zeroed on reuse, so a
//!   refaulted prefix recomputes into deterministic memory.
//!
//! **Page layout.** A page is one `Vec<f32>` of
//! `block_tokens · n_layers · 2 · kv_dim` floats, position-major:
//! `[slot][layer][K|V][kv_dim]`. The per-`(layer, K|V)` plane of a page is a
//! genuinely strided matrix (`stride = n_layers · 2 · kv_dim`), accessed
//! through [`tensor::StridedRows`] — filled positions occupy a contiguous
//! buffer prefix, which is what lets COW copy a partial page with one
//! `copy_from_slice`.
//!
//! **Why paged == contiguous, bitwise.** The attention/model layers are
//! generic over [`KvStore`]; both backends execute identical arithmetic in
//! identical order and differ only in where a `(layer, pos)` row lives. The
//! parity wall in `tests/batch_parity.rs` asserts the consequence: identical
//! logits across prefill → fork → extend → evict-then-refault.
//!
//! **Prefix cache.** [`PagedPrefixCache`] is the crate's one shared-prefix
//! cache: it keeps the post-prefix KV state of each `(model, prefix tokens)`
//! pair as a page-handle table, so every sentence probe against the same
//! `(question, context)` cell forks it instead of prefilling the prefix
//! again.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hallu_obs::{Counter, Gauge, Obs};
use tensor::{StridedRows, StridedRowsMut};

use crate::bpe::TokenId;
use crate::config::ModelConfig;
use crate::kv::KvStore;
use crate::model::PREFILL_BLOCK;

/// Typed pool-exhaustion error: the reservation would push the pool past its
/// page budget. The failed cache is left exactly as it was (no torn fork);
/// callers degrade to the uncached path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolExhausted {
    /// Pages the reservation needed.
    pub requested: usize,
    /// Distinct live pages at the time of the request.
    pub live: usize,
    /// The pool's page budget.
    pub max_pages: usize,
}

impl std::fmt::Display for PoolExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "paged KV pool exhausted: {} page(s) requested, {} live of {} max",
            self.requested, self.live, self.max_pages
        )
    }
}

impl std::error::Error for PoolExhausted {}

/// Shape and budget of a [`PagedKvPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagedPoolConfig {
    /// Transformer layers a page spans.
    pub n_layers: usize,
    /// K/V vector width (`n_kv_heads * head_dim`).
    pub kv_dim: usize,
    /// Positions per page. [`PREFILL_BLOCK`] aligns pages with GEMM prefill
    /// chunks, so each full chunk fills whole pages.
    pub block_tokens: usize,
    /// Hard budget on distinct live pages; reservations beyond it fail with
    /// [`PoolExhausted`].
    pub max_pages: usize,
}

impl PagedPoolConfig {
    /// Pool shaped for `model`, with [`PREFILL_BLOCK`]-sized pages.
    pub fn for_model(cfg: &ModelConfig, max_pages: usize) -> Self {
        Self {
            n_layers: cfg.n_layers,
            kv_dim: cfg.n_kv_heads * cfg.head_dim(),
            block_tokens: PREFILL_BLOCK,
            max_pages,
        }
    }

    /// Floats per page: `block_tokens · n_layers · 2 · kv_dim`.
    pub fn page_floats(&self) -> usize {
        self.block_tokens * self.n_layers * 2 * self.kv_dim
    }

    /// Bytes per page.
    pub fn page_bytes(&self) -> usize {
        self.page_floats() * std::mem::size_of::<f32>()
    }

    /// Position-major stride between consecutive slots of a page.
    fn slot_stride(&self) -> usize {
        self.n_layers * 2 * self.kv_dim
    }

    /// Float offset of the `(layer, K|V)` plane within a slot.
    fn plane_base(&self, layer: usize, kv: usize) -> usize {
        (layer * 2 + kv) * self.kv_dim
    }
}

/// Everything the pool mutates, behind one mutex. Serializing `release` —
/// including the `Arc::try_unwrap` — under this lock is what makes concurrent
/// drops of a shared page race-free: exactly one caller observes the count
/// hit one and returns the buffer to the free list.
#[derive(Debug, Default)]
struct PoolState {
    /// Reusable page buffers (zeroed on reuse, not on return).
    free: Vec<Vec<f32>>,
    /// Distinct pages currently held by at least one cache.
    live: usize,
    /// Outstanding page handles (`Arc` clones) across all live caches.
    handles: usize,
    /// Pages ever created (== `live + free.len()` at all times).
    created: usize,
    peak_live: usize,
    cow_copies: u64,
    allocs: u64,
    releases: u64,
    rejected: u64,
}

/// Point-in-time pool statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Distinct pages currently held by at least one cache.
    pub pages_live: usize,
    /// Pages sitting on the free list.
    pub pages_free: usize,
    /// Outstanding page handles; `handles - pages_live` handles are shares.
    pub handles: usize,
    /// Pages ever created; conservation: `pages_live + pages_free == created`.
    pub created: usize,
    /// High-water mark of `pages_live`.
    pub peak_live: usize,
    /// Copy-on-write page copies performed.
    pub cow_copies: u64,
    /// Pages handed out (fresh or reused) over the pool's lifetime.
    pub allocs: u64,
    /// Handles returned over the pool's lifetime.
    pub releases: u64,
    /// Reservations refused with [`PoolExhausted`].
    pub rejected: u64,
}

impl PoolStats {
    /// Handles beyond one per live page — the number of active shares.
    pub fn shared(&self) -> usize {
        self.handles.saturating_sub(self.pages_live)
    }

    /// Bytes held by live pages.
    pub fn live_bytes(&self, config: &PagedPoolConfig) -> usize {
        self.pages_live * config.page_bytes()
    }
}

/// Registry handles for the pool; disconnected (free) unless
/// [`PagedKvPool::with_obs`] is used.
#[derive(Debug, Clone, Default)]
struct PoolTelemetry {
    pages: Gauge,
    pages_free: Gauge,
    shared: Gauge,
    bytes: Gauge,
    cow: Counter,
    rejected: Counter,
}

impl PoolTelemetry {
    fn register(obs: &Obs) -> Self {
        Self {
            pages: obs.gauge("hallu_paged_pages", "Live paged-KV pool pages", &[]),
            pages_free: obs.gauge(
                "hallu_paged_pages_free",
                "Paged-KV pool pages on the free list",
                &[],
            ),
            shared: obs.gauge(
                "hallu_paged_shared",
                "Paged-KV page handles beyond one per live page (active shares)",
                &[],
            ),
            bytes: obs.gauge(
                "hallu_paged_bytes",
                "Bytes held by live paged-KV pages",
                &[],
            ),
            cow: obs.counter(
                "hallu_paged_cow_total",
                "Copy-on-write paged-KV page copies",
                &[],
            ),
            rejected: obs.counter(
                "hallu_paged_rejected_total",
                "Paged-KV reservations refused with PoolExhausted",
                &[],
            ),
        }
    }
}

/// The single fixed-size-block KV pool. Every [`PagedKvCache`] built from a
/// pool borrows pages from it and returns them on drop.
pub struct PagedKvPool {
    config: PagedPoolConfig,
    state: Mutex<PoolState>,
    obs: PoolTelemetry,
}

impl std::fmt::Debug for PagedKvPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedKvPool")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

impl PagedKvPool {
    /// Build a pool. Dimensions and the page budget are clamped to ≥ 1.
    pub fn new(config: PagedPoolConfig) -> Self {
        Self {
            config: PagedPoolConfig {
                n_layers: config.n_layers.max(1),
                kv_dim: config.kv_dim.max(1),
                block_tokens: config.block_tokens.max(1),
                max_pages: config.max_pages.max(1),
            },
            state: Mutex::new(PoolState::default()),
            obs: PoolTelemetry::default(),
        }
    }

    /// Mirror pool occupancy and events into `obs` as `hallu_paged_*`.
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.obs = PoolTelemetry::register(obs);
        self
    }

    /// The pool's shape (after the ≥ 1 clamps).
    pub fn config(&self) -> &PagedPoolConfig {
        &self.config
    }

    /// An empty cache bounded at `max_seq` positions. Allocates nothing; the
    /// first [`PagedKvCache::try_reserve`] fetches pages.
    pub fn new_cache(self: &Arc<Self>, max_seq: usize) -> PagedKvCache {
        PagedKvCache {
            pool: Arc::clone(self),
            blocks: Vec::new(),
            len: 0,
            reserved: 0,
            max_seq: max_seq.max(1),
        }
    }

    /// Pages an `allocate_n` call could still hand out
    /// right now: the budget headroom `max_pages − pages_live`. Free-list
    /// buffers are already counted — they are recycled storage, not extra
    /// capacity. This is the admission-control number: a prompt needing more
    /// pages than this is guaranteed to hit [`PoolExhausted`].
    pub fn pages_available(&self) -> usize {
        let s = self.lock();
        self.config.max_pages.saturating_sub(s.live)
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> PoolStats {
        let s = self.lock();
        PoolStats {
            pages_live: s.live,
            pages_free: s.free.len(),
            handles: s.handles,
            created: s.created,
            peak_live: s.peak_live,
            cow_copies: s.cow_copies,
            allocs: s.allocs,
            releases: s.releases,
            rejected: s.rejected,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn publish(&self, s: &PoolState) {
        self.obs.pages.set(s.live as f64);
        self.obs.pages_free.set(s.free.len() as f64);
        self.obs.shared.set(s.handles.saturating_sub(s.live) as f64);
        self.obs
            .bytes
            .set((s.live * self.config.page_bytes()) as f64);
    }

    /// Hand out `n` pages, reusing (and zeroing) free-list buffers first. All
    /// `n` succeed or none do — the atomicity behind torn-fork freedom.
    fn allocate_n(&self, n: usize) -> Result<Vec<Arc<Vec<f32>>>, PoolExhausted> {
        let mut s = self.lock();
        if s.live + n > self.config.max_pages {
            s.rejected += 1;
            self.obs.rejected.inc();
            return Err(PoolExhausted {
                requested: n,
                live: s.live,
                max_pages: self.config.max_pages,
            });
        }
        let floats = self.config.page_floats();
        let pages: Vec<Arc<Vec<f32>>> = (0..n)
            .map(|_| {
                let buf = match s.free.pop() {
                    Some(mut buf) => {
                        buf.fill(0.0);
                        buf
                    }
                    None => {
                        s.created += 1;
                        vec![0.0f32; floats]
                    }
                };
                Arc::new(buf)
            })
            .collect();
        s.live += n;
        s.handles += n;
        s.allocs += n as u64;
        s.peak_live = s.peak_live.max(s.live);
        self.publish(&s);
        Ok(pages)
    }

    /// Return one handle. The last handle of a page puts its buffer back on
    /// the free list; runs entirely under the pool lock so concurrent drops
    /// of a shared page cannot both miss the unwrap and leak the buffer.
    fn release(&self, page: Arc<Vec<f32>>) {
        let mut s = self.lock();
        s.handles -= 1;
        s.releases += 1;
        match Arc::try_unwrap(page) {
            Ok(buf) => {
                s.live -= 1;
                s.free.push(buf);
            }
            Err(still_shared) => drop(still_shared),
        }
        self.publish(&s);
    }

    /// Account `k` new handles created by cloning existing page `Arc`s.
    fn note_clones(&self, k: usize) {
        if k == 0 {
            return;
        }
        let mut s = self.lock();
        s.handles += k;
        self.publish(&s);
    }

    fn note_cow(&self, k: u64) {
        if k == 0 {
            return;
        }
        let mut s = self.lock();
        s.cow_copies += k;
        drop(s);
        self.obs.cow.add(k);
    }
}

/// A sequence's view onto pool pages: a handle table plus a write reservation.
///
/// Not `Clone` — copies are explicit ([`PagedKvCache::fork_with_capacity`] to
/// continue a sequence, [`PagedKvCache::share_clone`] to snapshot it) because
/// both mutate pool accounting. Writes target positions `< reserved`, so the
/// mutation window is `len..reserved` and every page in it is exclusively
/// owned (COW happens inside [`PagedKvCache::try_reserve`]); `Arc::get_mut`
/// in the write path is the panic backstop for a missed reservation, never an
/// expected branch.
pub struct PagedKvCache {
    pool: Arc<PagedKvPool>,
    blocks: Vec<Arc<Vec<f32>>>,
    /// Committed positions.
    len: usize,
    /// Positions writable without further reservation (`len <= reserved`).
    reserved: usize,
    /// Sequence-length bound, independent of the pool's page budget.
    max_seq: usize,
}

impl std::fmt::Debug for PagedKvCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedKvCache")
            .field("len", &self.len)
            .field("reserved", &self.reserved)
            .field("max_seq", &self.max_seq)
            .field("blocks", &self.blocks.len())
            .finish()
    }
}

impl PagedKvCache {
    /// The pool this cache borrows from.
    pub fn pool(&self) -> &Arc<PagedKvPool> {
        &self.pool
    }

    /// Pages currently held (shared or exclusive).
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Bytes of pages this cache holds handles to. A fork reports the same
    /// pages as its parent (they are shared, not copied) — the pool's
    /// [`PoolStats::live_bytes`] is the deduplicated truth.
    pub fn allocated_bytes(&self) -> usize {
        self.blocks.len() * self.pool.config.page_bytes()
    }

    /// Bytes of *filled* K/V rows, the same byte model as the contiguous
    /// [`crate::kv::KvCache::kv_bytes`]. [`PagedPrefixCache`] charges its
    /// byte budget with this number.
    pub fn kv_bytes(&self) -> usize {
        2 * self.pool.config.n_layers
            * self.len
            * self.pool.config.kv_dim
            * std::mem::size_of::<f32>()
    }

    /// Make positions `len..len + extra` writable. One pool-lock transaction
    /// allocates every page the window needs — copy-on-write replacements for
    /// shared pages the window touches, plus fresh tail pages — so the cache
    /// is either fully reserved or (on [`PoolExhausted`]) untouched.
    ///
    /// # Panics
    /// Panics when the window would exceed `max_seq`.
    pub fn try_reserve(&mut self, extra: usize) -> Result<(), PoolExhausted> {
        assert!(
            self.len + extra <= self.max_seq,
            "reservation {} past max_seq {}",
            self.len + extra,
            self.max_seq
        );
        let bt = self.pool.config.block_tokens;
        let target_blocks = (self.len + extra).div_ceil(bt);
        // Shared pages at or after the first written block must be replaced:
        // the write window starts at position `len`, i.e. block `len / bt`.
        let first_written = self.len / bt;
        let cow_idx: Vec<usize> = (first_written..self.blocks.len())
            .filter(|&i| Arc::strong_count(&self.blocks[i]) > 1)
            .collect();
        let fresh = target_blocks.saturating_sub(self.blocks.len());
        let mut pages = self.pool.allocate_n(cow_idx.len() + fresh)?;
        // COW: copy the shared page's floats into the fresh page, swap the
        // handle, release the share. Filled slots are a buffer prefix, but a
        // whole-page copy is branch-free and pages are small.
        for &i in &cow_idx {
            let mut page = pages.remove(0);
            Arc::get_mut(&mut page)
                .expect("freshly allocated page is exclusive")
                .copy_from_slice(&self.blocks[i]);
            let old = std::mem::replace(&mut self.blocks[i], page);
            self.pool.release(old);
        }
        self.blocks.extend(pages);
        self.pool.note_cow(cow_idx.len() as u64);
        self.reserved = (self.blocks.len() * bt)
            .min(self.max_seq)
            .max(self.len + extra);
        Ok(())
    }

    /// Fork for continuation: clone the page handles covering the committed
    /// prefix — `O(len / block_tokens)` work, zero float copies — with a new
    /// sequence bound of `capacity`. The fork starts with `reserved == len`;
    /// extend it via [`PagedKvCache::try_reserve`], which copy-on-writes any
    /// page still shared with the parent.
    ///
    /// # Panics
    /// Panics when `capacity < len`.
    pub fn fork_with_capacity(&self, capacity: usize) -> PagedKvCache {
        assert!(
            capacity >= self.len,
            "fork capacity {capacity} below filled length {}",
            self.len
        );
        let bt = self.pool.config.block_tokens;
        let keep = self.len.div_ceil(bt);
        let blocks: Vec<Arc<Vec<f32>>> = self.blocks[..keep].iter().map(Arc::clone).collect();
        self.pool.note_clones(blocks.len());
        PagedKvCache {
            pool: Arc::clone(&self.pool),
            blocks,
            len: self.len,
            reserved: self.len,
            max_seq: capacity.max(1),
        }
    }

    /// Snapshot for storage: shares the committed pages, keeps the current
    /// `max_seq`.
    pub fn share_clone(&self) -> PagedKvCache {
        self.fork_with_capacity(self.max_seq.max(self.len))
    }

    fn row(&self, layer: usize, pos: usize, kv: usize) -> &[f32] {
        debug_assert!(pos < self.reserved, "read at {pos} beyond reservation");
        let cfg = &self.pool.config;
        let block = &self.blocks[pos / cfg.block_tokens];
        let plane = StridedRows::new(
            &block[cfg.plane_base(layer, kv)..],
            cfg.block_tokens,
            cfg.kv_dim,
            cfg.slot_stride(),
        );
        plane.row(pos % cfg.block_tokens)
    }

    fn row_write(&mut self, layer: usize, pos: usize, kv: usize, data: &[f32]) {
        assert!(
            pos < self.reserved,
            "write at {pos} beyond reservation {} — call try_reserve first",
            self.reserved
        );
        assert_eq!(data.len(), self.pool.config.kv_dim, "kv dim mismatch");
        let cfg = self.pool.config;
        let block = Arc::get_mut(&mut self.blocks[pos / cfg.block_tokens])
            .expect("write to shared paged block — try_reserve must copy-on-write first");
        let base = cfg.plane_base(layer, kv);
        let mut plane = StridedRowsMut::new(
            &mut block[base..],
            cfg.block_tokens,
            cfg.kv_dim,
            cfg.slot_stride(),
        );
        plane.row_mut(pos % cfg.block_tokens).copy_from_slice(data);
    }
}

impl KvStore for PagedKvCache {
    fn len(&self) -> usize {
        self.len
    }

    fn remaining(&self) -> usize {
        self.reserved - self.len
    }

    fn max_seq(&self) -> usize {
        self.max_seq
    }

    fn kv_dim(&self) -> usize {
        self.pool.config.kv_dim
    }

    fn n_layers(&self) -> usize {
        self.pool.config.n_layers
    }

    fn write(&mut self, layer: usize, k: &[f32], v: &[f32]) {
        self.row_write(layer, self.len, 0, k);
        self.row_write(layer, self.len, 1, v);
    }

    fn advance(&mut self) {
        assert!(self.len < self.reserved, "advance beyond reservation");
        self.len += 1;
    }

    fn write_at(&mut self, layer: usize, pos: usize, k: &[f32], v: &[f32]) {
        self.row_write(layer, pos, 0, k);
        self.row_write(layer, pos, 1, v);
    }

    fn advance_by(&mut self, n: usize) {
        assert!(self.len + n <= self.reserved, "advance beyond reservation");
        self.len += n;
    }

    fn key(&self, layer: usize, pos: usize) -> &[f32] {
        self.row(layer, pos, 0)
    }

    fn value(&self, layer: usize, pos: usize) -> &[f32] {
        self.row(layer, pos, 1)
    }
}

impl Drop for PagedKvCache {
    fn drop(&mut self) {
        for page in self.blocks.drain(..) {
            self.pool.release(page);
        }
    }
}

/// Fixed accounting overhead per cached prefix, covering the entry struct,
/// recency tick, and map bookkeeping. Part of the deterministic byte model,
/// not a measurement.
pub const PREFIX_ENTRY_OVERHEAD_BYTES: usize = 96;

/// Capacity knobs for [`PagedPrefixCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixCacheConfig {
    /// Bound on cached prefixes. Never exceeded.
    pub max_entries: usize,
    /// Bound on accounted bytes (filled KV rows + token ids + model name +
    /// [`PREFIX_ENTRY_OVERHEAD_BYTES`] per entry). Never exceeded.
    pub max_bytes: usize,
}

impl Default for PrefixCacheConfig {
    fn default() -> Self {
        Self {
            max_entries: 64,
            // Snapshots are charged their filled K/V rows, so the byte budget
            // is the binding bound in practice: a 224-token qwen2-like prefix
            // costs ~230 KiB.
            max_bytes: 32 << 20,
        }
    }
}

impl PrefixCacheConfig {
    /// A config with `max_entries` entries and a non-binding byte budget,
    /// convenient for tests and sweeps.
    pub fn with_max_entries(max_entries: usize) -> Self {
        Self {
            max_entries,
            ..Self::default()
        }
    }
}

/// FNV-1a over the model name and the prefix token ids (with a separator so
/// the two fields cannot alias).
fn prefix_hash(model: &str, tokens: &[TokenId]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in model.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h ^= 0xff;
    h = h.wrapping_mul(PRIME);
    for &t in tokens {
        for b in t.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// Point-in-time prefix-cache statistics. Counters are cumulative since
/// construction; `entries`/`bytes` are current occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefixStats {
    /// Forks served from a cached snapshot.
    pub hits: u64,
    /// Lookups that found no snapshot.
    pub misses: u64,
    /// New snapshots admitted.
    pub inserts: u64,
    /// Inserts that overwrote an existing prefix in place.
    pub updates: u64,
    /// Snapshots removed by LRU pressure.
    pub evictions: u64,
    /// Inserts refused (empty prefix, token/KV length mismatch, or a
    /// snapshot from another pool).
    pub rejected: u64,
    /// Current snapshot count.
    pub entries: u64,
    /// Current accounted bytes.
    pub bytes: u64,
}

impl PrefixStats {
    /// Fraction of lookups served from cache; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Shared-prefix KV cache: a bounded LRU of post-prefix snapshots keyed by
/// `(model, prefix tokens)`, whose entries are page-handle tables.
///
/// The paper scores every sentence `r_{i,j}` with one forward pass over the
/// prompt `(q_i, c_i, r_{i,j})` (Eq. 2–3). The `(q_i, c_i)` prefix, by far
/// the longest part, is identical across all sentences of a response, so a
/// probe forks its snapshot and prefills only the sentence. A hit forks in
/// `O(blocks)` and copies zero floats; an insert stores a
/// [`PagedKvCache::share_clone`]; eviction drops the snapshot, returning its
/// pages to the pool the moment the last sharer goes.
///
/// **Why a hit cannot change scores.** The transformer is causal: the KV rows
/// of prefix positions depend only on prefix tokens, so a forked snapshot
/// extended with suffix tokens walks through bit-for-bit the same states as a
/// fresh prefill of `prefix ++ suffix` (asserted by the fork-then-extend
/// parity tests). Copy-on-write leaves the snapshot's pages untouched while a
/// fork extends its tail. Combined with the episode-purity contract
/// ([`crate::fallible::FallibleVerifier::try_p_yes_attempt`]), prefix reuse
/// is semantically invisible — it only saves wall-clock work.
///
/// Eviction is LRU under two bounds, entry count and accounted bytes,
/// mirroring [`crate::cache::VerificationCache`]. KV bytes count *filled
/// rows*, not pages, so pages shared between snapshots are not
/// double-counted.
pub struct PagedPrefixCache {
    pool: Arc<PagedKvPool>,
    inner: Mutex<PagedPrefixInner>,
    config: PrefixCacheConfig,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    updates: AtomicU64,
    evictions: AtomicU64,
    rejected: AtomicU64,
}

struct PagedEntry {
    model: String,
    tokens: Vec<TokenId>,
    kv: PagedKvCache,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct PagedPrefixInner {
    buckets: HashMap<u64, Vec<PagedEntry>>,
    entries: usize,
    bytes: usize,
    tick: u64,
}

impl PagedPrefixInner {
    fn evict_lru(&mut self) -> bool {
        let Some((&hash, pos)) = self
            .buckets
            .iter()
            .flat_map(|(hash, bucket)| {
                bucket
                    .iter()
                    .enumerate()
                    .map(move |(pos, entry)| ((hash, pos), entry.last_used))
            })
            .min_by_key(|&(_, last_used)| last_used)
            .map(|((hash, pos), _)| (hash, pos))
        else {
            return false;
        };
        let Some(bucket) = self.buckets.get_mut(&hash) else {
            return false;
        };
        let entry = bucket.remove(pos);
        if bucket.is_empty() {
            self.buckets.remove(&hash);
        }
        self.entries -= 1;
        self.bytes -= entry.bytes;
        true
    }
}

impl std::fmt::Debug for PagedPrefixCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedPrefixCache")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

impl PagedPrefixCache {
    /// Build a prefix cache over `pool` with the given bounds.
    pub fn new(pool: Arc<PagedKvPool>, config: PrefixCacheConfig) -> Self {
        Self {
            pool,
            inner: Mutex::new(PagedPrefixInner::default()),
            config: PrefixCacheConfig {
                max_entries: config.max_entries.max(1),
                max_bytes: config.max_bytes.max(1),
            },
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// The pool backing this cache's snapshots.
    pub fn pool(&self) -> &Arc<PagedKvPool> {
        &self.pool
    }

    /// The configuration the cache was built with (after the ≥1 clamps).
    pub fn config(&self) -> &PrefixCacheConfig {
        &self.config
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PagedPrefixInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fork the snapshot for `(model, tokens)` with a `capacity` sequence
    /// bound, refreshing recency. `None` on miss. The fork is `O(blocks)`: it
    /// clones page handles and copies no floats.
    ///
    /// # Panics
    /// Panics when `capacity` is smaller than the cached prefix length.
    pub fn fork(&self, model: &str, tokens: &[TokenId], capacity: usize) -> Option<PagedKvCache> {
        let hash = prefix_hash(model, tokens);
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let forked = inner
            .buckets
            .get_mut(&hash)
            .and_then(|bucket| {
                bucket
                    .iter_mut()
                    .find(|e| e.model == model && e.tokens == tokens)
            })
            .map(|entry| {
                entry.last_used = tick;
                entry.kv.fork_with_capacity(capacity)
            });
        drop(inner);
        match forked {
            Some(kv) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(kv)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Admit a post-prefix snapshot (stored as a zero-copy share). Returns
    /// `false` when the prefix is empty or `kv.len()` disagrees with the
    /// token count, or when `kv` borrows from a different pool.
    pub fn insert(&self, model: &str, tokens: &[TokenId], kv: &PagedKvCache) -> bool {
        if tokens.is_empty() || kv.len != tokens.len() || !Arc::ptr_eq(&kv.pool, &self.pool) {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let snapshot = kv.share_clone();
        let bytes = snapshot.kv_bytes()
            + std::mem::size_of_val(tokens)
            + model.len()
            + PREFIX_ENTRY_OVERHEAD_BYTES;
        let hash = prefix_hash(model, tokens);
        let mut evicted = 0u64;
        let updated;
        {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            let existing = inner.buckets.get_mut(&hash).and_then(|b| {
                b.iter_mut()
                    .find(|e| e.model == model && e.tokens == tokens)
            });
            if let Some(entry) = existing {
                let old = entry.bytes;
                entry.kv = snapshot;
                entry.bytes = bytes;
                entry.last_used = tick;
                updated = true;
                inner.bytes = inner.bytes - old + bytes;
            } else {
                updated = false;
                inner.bytes += bytes;
                inner.entries += 1;
                inner.buckets.entry(hash).or_default().push(PagedEntry {
                    model: model.to_string(),
                    tokens: tokens.to_vec(),
                    kv: snapshot,
                    bytes,
                    last_used: tick,
                });
            }
            while inner.entries > self.config.max_entries || inner.bytes > self.config.max_bytes {
                if !inner.evict_lru() {
                    break;
                }
                evicted += 1;
            }
        }
        if updated {
            self.updates.fetch_add(1, Ordering::Relaxed);
        } else {
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        true
    }

    /// Fork the snapshot for `(model, tokens)` on a hit. On a miss, reserve
    /// `tokens.len()` positions in a fresh pool cache bounded at `capacity`,
    /// let `fill` prefill exactly `tokens` into it, admit it, and return the
    /// builder itself. Either way the cache holds the prefix and is extended
    /// through [`PagedKvCache::try_reserve`], which copy-on-writes any page
    /// it still shares with the snapshot.
    ///
    /// A miss whose prefix does not fit in the pool returns
    /// [`PoolExhausted`] before `fill` runs, and caches nothing.
    ///
    /// # Panics
    /// Panics when `capacity < tokens.len()`.
    pub fn fork_or_build(
        &self,
        model: &str,
        tokens: &[TokenId],
        capacity: usize,
        fill: impl FnOnce(&mut PagedKvCache),
    ) -> Result<PagedKvCache, PoolExhausted> {
        if let Some(kv) = self.fork(model, tokens, capacity) {
            return Ok(kv);
        }
        let mut built = self.pool.new_cache(capacity);
        built.try_reserve(tokens.len())?;
        fill(&mut built);
        self.insert(model, tokens, &built);
        Ok(built)
    }

    /// Current snapshot count.
    pub fn len(&self) -> usize {
        self.lock().entries
    }

    /// Whether the cache holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current accounted bytes.
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Counters plus current occupancy.
    pub fn stats(&self) -> PrefixStats {
        let (entries, bytes) = {
            let inner = self.lock();
            (inner.entries as u64, inner.bytes as u64)
        };
        PrefixStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::KvCache;
    use crate::model::TransformerLM;

    fn tiny_pool(max_pages: usize) -> Arc<PagedKvPool> {
        Arc::new(PagedKvPool::new(PagedPoolConfig {
            n_layers: 2,
            kv_dim: 3,
            block_tokens: 4,
            max_pages,
        }))
    }

    /// Append `n` positions with recognizable per-(pos, layer) rows.
    fn push<C: KvStore>(c: &mut C, n: usize, salt: f32) {
        for _ in 0..n {
            let pos = c.len() as f32;
            for layer in 0..c.n_layers() {
                let b = salt + pos * 10.0 + layer as f32;
                let k: Vec<f32> = (0..c.kv_dim()).map(|j| b + j as f32 * 0.1).collect();
                let v: Vec<f32> = (0..c.kv_dim()).map(|j| -b - j as f32 * 0.1).collect();
                c.write(layer, &k, &v);
            }
            c.advance();
        }
    }

    fn assert_rows_match(a: &dyn Fn(usize, usize) -> Vec<f32>, b: &PagedKvCache, len: usize) {
        for layer in 0..b.pool().config().n_layers {
            for pos in 0..len {
                assert_eq!(a(layer, pos), b.key(layer, pos), "key L{layer} p{pos}");
            }
        }
    }

    #[test]
    fn reserve_write_read_roundtrip_and_conservation() {
        let pool = tiny_pool(8);
        let mut c = pool.new_cache(16);
        assert_eq!(c.n_blocks(), 0, "empty cache holds no pages");
        c.try_reserve(6).unwrap();
        assert_eq!(c.remaining(), 8, "reservation rounds up to page boundary");
        push(&mut c, 6, 0.0);
        assert_eq!(c.len(), 6);
        assert_eq!(c.key(1, 5)[0], 51.0);
        assert_eq!(c.value(0, 3), &[-30.0, -30.1, -30.2]);
        let stats = pool.stats();
        assert_eq!((stats.pages_live, stats.handles, stats.created), (2, 2, 2));
        assert_eq!(stats.pages_live + stats.pages_free, stats.created);
        drop(c);
        let stats = pool.stats();
        assert_eq!(
            (stats.pages_live, stats.handles, stats.pages_free),
            (0, 0, 2)
        );
    }

    #[test]
    fn freed_pages_are_reused_and_zeroed() {
        let pool = tiny_pool(4);
        let mut c = pool.new_cache(8);
        c.try_reserve(4).unwrap();
        push(&mut c, 4, 7.0);
        drop(c);
        let mut c2 = pool.new_cache(8);
        c2.try_reserve(1).unwrap();
        assert_eq!(
            pool.stats().created,
            1,
            "free-list page reused, not created"
        );
        assert_eq!(c2.key(0, 0), &[0.0, 0.0, 0.0], "reused page zeroed");
    }

    #[test]
    fn paged_matches_contiguous_rows_bitwise() {
        let pool = tiny_pool(8);
        let mut paged = pool.new_cache(16);
        paged.try_reserve(10).unwrap();
        let mut dense = KvCache::new(2, 16, 3);
        push(&mut paged, 10, 3.25);
        push(&mut dense, 10, 3.25);
        for layer in 0..2 {
            for pos in 0..10 {
                assert_eq!(dense.key(layer, pos), paged.key(layer, pos));
                assert_eq!(dense.value(layer, pos), paged.value(layer, pos));
            }
        }
    }

    #[test]
    fn fork_shares_pages_then_cow_on_divergence() {
        let pool = tiny_pool(8);
        let mut parent = pool.new_cache(16);
        parent.try_reserve(6).unwrap();
        push(&mut parent, 6, 0.0);
        let parent_rows: Vec<Vec<Vec<f32>>> = (0..2)
            .map(|l| (0..6).map(|p| parent.key(l, p).to_vec()).collect())
            .collect();

        let fork = parent.fork_with_capacity(10);
        // Fork allocated nothing: same pages, two handles each.
        assert_eq!(pool.stats().pages_live, 2);
        assert_eq!(pool.stats().handles, 4);
        assert_eq!(fork.len(), 6);
        assert_eq!(fork.remaining(), 0, "fork must reserve before writing");

        let mut fork = fork;
        fork.try_reserve(4).unwrap();
        let stats = pool.stats();
        assert_eq!(stats.cow_copies, 1, "partial tail page copied on write");
        assert_eq!(stats.pages_live, 4, "COW copy + one fresh tail page");
        push(&mut fork, 4, 100.0);

        // Parent bits untouched; fork sees parent prefix + its own suffix.
        assert_rows_match(&|l, p| parent_rows[l][p].clone(), &parent, 6);
        assert_rows_match(&|l, p| parent_rows[l][p].clone(), &fork, 6);
        assert_eq!(fork.key(0, 6)[0], 160.0);
        // Block 0 still shared, block 1 diverged.
        assert_eq!(pool.stats().shared(), 1);
    }

    #[test]
    fn fork_cost_is_flat_in_prefix_length() {
        // The structural claim behind the bench: a fork clones page handles,
        // never floats, so its allocation count scales with len / block, and
        // no pool pages are added at fork time at all.
        let pool = tiny_pool(64);
        for len in [4usize, 16, 32] {
            let mut parent = pool.new_cache(64);
            parent.try_reserve(len).unwrap();
            push(&mut parent, len, 0.0);
            let before = pool.stats();
            let fork = parent.fork_with_capacity(len + 4);
            let after = pool.stats();
            assert_eq!(
                before.pages_live, after.pages_live,
                "fork allocates no pages"
            );
            assert_eq!(after.allocs, before.allocs, "len {len}");
            assert_eq!(fork.n_blocks(), len.div_ceil(4));
        }
    }

    #[test]
    fn exhaustion_is_typed_and_leaves_no_torn_state() {
        let pool = tiny_pool(2);
        let mut a = pool.new_cache(8);
        a.try_reserve(8).unwrap(); // takes both pages
        let mut b = pool.new_cache(8);
        let err = b.try_reserve(1).unwrap_err();
        assert_eq!(
            err,
            PoolExhausted {
                requested: 1,
                live: 2,
                max_pages: 2
            }
        );
        assert!(err.to_string().contains("exhausted"));
        // b untouched: no pages, no reservation.
        assert_eq!((b.n_blocks(), b.remaining(), b.len()), (0, 0, 0));
        assert_eq!(pool.stats().rejected, 1);
        // A partially-filled fork that fails to reserve is also untouched.
        push(&mut a, 6, 0.0);
        let mut f = a.fork_with_capacity(8);
        assert!(f.try_reserve(2).is_err(), "COW page unavailable");
        assert_eq!(f.len(), 6);
        assert_eq!(f.remaining(), 0);
        assert_rows_match(&|l, p| a.key(l, p).to_vec(), &f, 6);
        // Freeing capacity makes the same reservation succeed.
        drop(b);
        drop(a);
        f.try_reserve(2).unwrap();
        push(&mut f, 2, 50.0);
        assert_eq!(f.len(), 8);
    }

    #[test]
    fn pool_telemetry_publishes_gauges_and_counters() {
        let obs = Obs::new();
        let pool = Arc::new(
            PagedKvPool::new(PagedPoolConfig {
                n_layers: 2,
                kv_dim: 3,
                block_tokens: 4,
                max_pages: 3,
            })
            .with_obs(&obs),
        );
        let mut parent = pool.new_cache(8);
        parent.try_reserve(6).unwrap();
        push(&mut parent, 6, 0.0);
        let mut fork = parent.fork_with_capacity(8);
        fork.try_reserve(1).unwrap(); // COWs the partial page
        let mut starved = pool.new_cache(8);
        assert!(starved.try_reserve(5).is_err());
        let snap = obs.metrics_snapshot();
        let stats = pool.stats();
        assert_eq!(
            snap.value("hallu_paged_pages", &[]),
            Some(stats.pages_live as f64)
        );
        assert_eq!(
            snap.value("hallu_paged_bytes", &[]),
            Some(stats.live_bytes(pool.config()) as f64)
        );
        assert_eq!(
            snap.value("hallu_paged_shared", &[]),
            Some(stats.shared() as f64)
        );
        assert_eq!(snap.value("hallu_paged_cow_total", &[]), Some(1.0));
        assert_eq!(snap.value("hallu_paged_rejected_total", &[]), Some(1.0));
        drop(fork);
        drop(parent);
        let snap = obs.metrics_snapshot();
        assert_eq!(snap.value("hallu_paged_pages", &[]), Some(0.0));
        assert_eq!(
            snap.value("hallu_paged_pages_free", &[]),
            Some(pool.stats().pages_free as f64)
        );
    }

    #[test]
    fn model_prefill_on_paged_cache_is_bit_identical_to_contiguous() {
        let cfg = ModelConfig::tiny(48);
        let model = TransformerLM::synthetic(cfg.clone(), 11);
        let tokens: Vec<TokenId> = (0..90u32).map(|i| (i * 7 + 3) % 48).collect();
        let mut dense = model.new_cache();
        let dense_logits = model.prefill(&tokens, &mut dense);
        let pool = Arc::new(PagedKvPool::new(PagedPoolConfig::for_model(&cfg, 64)));
        let mut paged = pool.new_cache(cfg.max_seq_len);
        paged.try_reserve(tokens.len()).unwrap();
        let paged_logits = model.prefill(&tokens, &mut paged);
        assert_eq!(dense_logits, paged_logits, "logit bits differ");
        let kv_dim = cfg.n_kv_heads * cfg.head_dim();
        for layer in 0..cfg.n_layers {
            for pos in 0..tokens.len() {
                assert_eq!(dense.key(layer, pos), paged.key(layer, pos));
                assert_eq!(dense.value(layer, pos), paged.value(layer, pos));
            }
        }
        assert_eq!(
            paged.kv_bytes(),
            2 * cfg.n_layers * tokens.len() * kv_dim * 4
        );
    }

    #[test]
    fn prefix_cache_roundtrip_lru_and_page_return() {
        let pool = tiny_pool(64);
        let cache =
            PagedPrefixCache::new(Arc::clone(&pool), PrefixCacheConfig::with_max_entries(2));
        let toks = |salt: u32| -> Vec<TokenId> { (0..5u32).map(|i| i * 3 + salt).collect() };
        let build = |salt: f32| {
            let mut kv = pool.new_cache(8);
            kv.try_reserve(5).unwrap();
            push(&mut kv, 5, salt);
            kv
        };
        assert!(cache.fork("m", &toks(0), 8).is_none());
        let built = build(1.0);
        assert!(cache.insert("m", &toks(0), &built));
        // Snapshot shares the builder's pages: no new live pages.
        assert_eq!(pool.stats().pages_live, 2);
        drop(built);
        let f = cache.fork("m", &toks(0), 8).expect("hit");
        assert_eq!(f.len(), 5);
        assert_rows_match(&|l, p| build(1.0).key(l, p).to_vec(), &f, 5);
        // Rejections: empty, length mismatch, foreign pool.
        assert!(!cache.insert("m", &[], &build(0.0)));
        let other = tiny_pool(4);
        let mut foreign = other.new_cache(8);
        foreign.try_reserve(5).unwrap();
        push(&mut foreign, 5, 0.0);
        assert!(!cache.insert("m", &toks(0), &foreign));
        assert_eq!(cache.stats().rejected, 2);
        // LRU eviction returns the evicted snapshot's pages once unshared.
        cache.insert("m", &toks(100), &build(2.0));
        let live_before = pool.stats().pages_live;
        assert!(cache.fork("m", &toks(0), 8).is_some(), "refresh key 0");
        drop(f);
        cache.insert("m", &toks(200), &build(3.0));
        assert_eq!(cache.len(), 2);
        assert!(cache.fork("m", &toks(100), 8).is_none(), "LRU evicted");
        assert!(
            pool.stats().pages_live <= live_before + 2,
            "evicted pages freed"
        );
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn prefix_cache_fork_then_extend_matches_fresh_prefill() {
        // The paged analogue of the contiguous fork-then-extend parity test:
        // serving a suffix from a cached paged prefix is bitwise invisible.
        let cfg = ModelConfig::tiny(48);
        let model = TransformerLM::synthetic(cfg.clone(), 5);
        let pool = Arc::new(PagedKvPool::new(PagedPoolConfig::for_model(&cfg, 64)));
        let cache = PagedPrefixCache::new(Arc::clone(&pool), PrefixCacheConfig::default());
        let prefix: Vec<TokenId> = (0..70u32).map(|i| (i * 5 + 1) % 48).collect();
        let suffix: Vec<TokenId> = (0..9u32).map(|i| (i * 11 + 2) % 48).collect();
        let need = prefix.len() + suffix.len();

        let mut fresh = model.new_cache_with_capacity(need);
        let full: Vec<TokenId> = prefix.iter().chain(&suffix).copied().collect();
        let fresh_logits = model.prefill(&full, &mut fresh);

        // Miss path: build and admit the snapshot, then extend the builder.
        let mut built = cache
            .fork_or_build("m", &prefix, need, |kv| {
                model.prefill_cache_only(&prefix, kv)
            })
            .unwrap();
        assert_eq!(cache.stats().inserts, 1);
        built.try_reserve(suffix.len()).unwrap(); // COWs the shared tail
        let miss_logits = model.prefill(&suffix, &mut built);
        assert_eq!(fresh_logits, miss_logits, "miss path diverged");

        // Hit path: fork the snapshot, extend.
        let mut forked = cache
            .fork_or_build("m", &prefix, need, |_| unreachable!("prefix is cached"))
            .unwrap();
        forked.try_reserve(suffix.len()).unwrap();
        let hit_logits = model.prefill(&suffix, &mut forked);
        assert_eq!(fresh_logits, hit_logits, "hit path diverged");
        assert_eq!(cache.stats().hits, 1);
    }

    /// `len` recognizable positions in a fresh cache from `pool`.
    fn snapshot(pool: &Arc<PagedKvPool>, len: usize, salt: f32) -> PagedKvCache {
        let mut kv = pool.new_cache(len);
        kv.try_reserve(len).unwrap();
        push(&mut kv, len, salt);
        kv
    }

    fn prefix_tokens(n: usize, salt: u32) -> Vec<TokenId> {
        (0..n as u32).map(|i| i * 7 + salt).collect()
    }

    /// Accounted bytes of one `len`-token snapshot of model `"m"` in a
    /// [`tiny_pool`].
    fn entry_bytes(pool: &Arc<PagedKvPool>, len: usize) -> usize {
        snapshot(pool, len, 0.0).kv_bytes()
            + len * std::mem::size_of::<TokenId>()
            + 1
            + PREFIX_ENTRY_OVERHEAD_BYTES
    }

    #[test]
    fn prefix_cache_miss_then_insert_then_hit_roundtrip() {
        let pool = tiny_pool(16);
        let cache = PagedPrefixCache::new(Arc::clone(&pool), PrefixCacheConfig::default());
        let toks = prefix_tokens(5, 1);
        let want = snapshot(&pool, 5, 0.25);
        assert!(cache.fork("m", &toks, 8).is_none());
        assert!(cache.insert("m", &toks, &want));
        let forked = cache.fork("m", &toks, 8).expect("hit");
        assert_eq!((forked.len(), forked.max_seq()), (5, 8));
        assert_rows_match(&|l, p| want.key(l, p).to_vec(), &forked, 5);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn prefix_cache_rejects_mismatched_snapshots() {
        let pool = tiny_pool(16);
        let cache = PagedPrefixCache::new(Arc::clone(&pool), PrefixCacheConfig::default());
        assert!(
            !cache.insert("m", &[], &snapshot(&pool, 2, 0.0)),
            "empty prefix"
        );
        assert!(
            !cache.insert("m", &prefix_tokens(3, 0), &snapshot(&pool, 2, 0.0)),
            "length mismatch"
        );
        assert_eq!(cache.stats().rejected, 2);
        assert!(cache.is_empty());
        assert_eq!(pool.stats().pages_live, 0, "nothing was kept");
    }

    #[test]
    fn prefix_cache_entry_bound_evicts_lru() {
        let pool = tiny_pool(16);
        let cache =
            PagedPrefixCache::new(Arc::clone(&pool), PrefixCacheConfig::with_max_entries(2));
        cache.insert("m", &prefix_tokens(2, 0), &snapshot(&pool, 2, 0.0));
        cache.insert("m", &prefix_tokens(2, 100), &snapshot(&pool, 2, 1.0));
        // Touch the first so the second becomes LRU.
        assert!(cache.fork("m", &prefix_tokens(2, 0), 4).is_some());
        cache.insert("m", &prefix_tokens(2, 200), &snapshot(&pool, 2, 2.0));
        assert_eq!(cache.len(), 2);
        assert!(
            cache.fork("m", &prefix_tokens(2, 100), 4).is_none(),
            "LRU evicted"
        );
        assert!(cache.fork("m", &prefix_tokens(2, 0), 4).is_some());
        assert!(cache.fork("m", &prefix_tokens(2, 200), 4).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(
            pool.stats().pages_live,
            2,
            "the evicted snapshot's page went back"
        );
    }

    #[test]
    fn prefix_cache_keys_separate_models_and_tokens() {
        let pool = tiny_pool(16);
        let cache = PagedPrefixCache::new(Arc::clone(&pool), PrefixCacheConfig::default());
        assert!(cache.insert("m1", &prefix_tokens(4, 1), &snapshot(&pool, 4, 1.0)));
        assert!(cache.fork("m2", &prefix_tokens(4, 1), 8).is_none());
        assert!(cache.fork("m1", &prefix_tokens(4, 2), 8).is_none());
        assert!(cache.fork("m1", &prefix_tokens(3, 1), 8).is_none());
        assert!(cache.fork("m1", &prefix_tokens(4, 1), 8).is_some());
    }

    #[test]
    fn prefix_cache_reinsert_replaces_in_place() {
        let pool = tiny_pool(16);
        let cache = PagedPrefixCache::new(Arc::clone(&pool), PrefixCacheConfig::default());
        let toks = prefix_tokens(3, 9);
        cache.insert("m", &toks, &snapshot(&pool, 3, 1.0));
        cache.insert("m", &toks, &snapshot(&pool, 3, 2.0));
        let forked = cache.fork("m", &toks, 4).expect("hit");
        assert_eq!(forked.key(0, 0)[0], 2.0);
        let stats = cache.stats();
        assert_eq!((stats.inserts, stats.updates, stats.entries), (1, 1, 1));
        drop(forked);
        assert_eq!(
            pool.stats().pages_live,
            1,
            "the replaced snapshot's page went back"
        );
    }

    #[test]
    fn prefix_cache_byte_bound_is_never_exceeded() {
        let pool = tiny_pool(64);
        let config = PrefixCacheConfig {
            max_entries: usize::MAX >> 1,
            max_bytes: 3 * entry_bytes(&pool, 4),
        };
        let cache = PagedPrefixCache::new(Arc::clone(&pool), config);
        for i in 0..16 {
            cache.insert(
                "m",
                &prefix_tokens(4, i * 1000),
                &snapshot(&pool, 4, i as f32),
            );
            assert!(cache.bytes() <= config.max_bytes, "violated at insert {i}");
        }
        assert_eq!(cache.len(), 3);
        assert!(cache.stats().evictions > 0);
        assert_eq!(
            pool.stats().pages_live,
            3,
            "evicted snapshots freed their pages"
        );
    }

    #[test]
    fn prefix_cache_drops_an_entry_larger_than_the_whole_budget() {
        let pool = tiny_pool(64);
        let cache = PagedPrefixCache::new(
            Arc::clone(&pool),
            PrefixCacheConfig {
                max_entries: 8,
                max_bytes: 16,
            },
        );
        assert!(cache.insert("m", &prefix_tokens(64, 0), &snapshot(&pool, 64, 0.0)));
        assert!(cache.is_empty(), "entry above the whole budget evicted");
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(pool.stats().pages_live, 0);
    }

    #[test]
    fn prefix_cache_fork_or_build_builds_once_then_hits() {
        let pool = tiny_pool(16);
        let cache = PagedPrefixCache::new(Arc::clone(&pool), PrefixCacheConfig::default());
        let toks = prefix_tokens(6, 5);
        let want = snapshot(&pool, 6, 7.0);
        let mut builds = 0;
        for round in 0..3 {
            let mut kv = cache
                .fork_or_build("m", &toks, 10, |kv| {
                    builds += 1;
                    push(kv, 6, 7.0);
                })
                .unwrap();
            assert_eq!((kv.len(), kv.max_seq()), (6, 10));
            assert_rows_match(&|l, p| want.key(l, p).to_vec(), &kv, 6);
            // Extending copies the shared tail page on write, so the
            // snapshot keeps its rows (checked below).
            kv.try_reserve(4).unwrap();
            push(&mut kv, 4, 100.0 * (round + 1) as f32);
        }
        assert_eq!(builds, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (2, 1, 1));
        let snap = cache.fork("m", &toks, 6).expect("hit");
        assert_rows_match(&|l, p| want.key(l, p).to_vec(), &snap, 6);
        drop((want, snap, cache));
        assert_eq!(pool.stats().pages_live, 0);

        // A miss the pool cannot hold fails before `fill` runs.
        let pool = tiny_pool(1);
        let cache = PagedPrefixCache::new(Arc::clone(&pool), PrefixCacheConfig::default());
        let err = cache
            .fork_or_build("m", &toks, 10, |_| unreachable!("nothing reserved"))
            .unwrap_err();
        assert_eq!(err.requested, 2);
        assert!(cache.is_empty());
        assert_eq!(pool.stats().pages_live, 0);
    }

    proptest::proptest! {
        /// Random alloc/extend/fork/drop op logs uphold the pool invariants:
        /// page conservation (live + free == created, so the free list can
        /// never double-free), handle accounting (pool handles == Σ blocks
        /// across live caches), the page budget, byte-gauge consistency, and
        /// value integrity — after any COW chain, every cache still reads
        /// exactly the rows its own op history wrote (no aliasing).
        #[test]
        fn pool_op_logs_conserve_pages_and_never_alias(
            ops in proptest::collection::vec((0usize..4, 0u8..4, 1usize..6), 1..80),
        ) {
            let obs = Obs::new();
            let config = PagedPoolConfig {
                n_layers: 1,
                kv_dim: 2,
                block_tokens: 4,
                max_pages: 10,
            };
            let pool = Arc::new(PagedKvPool::new(config).with_obs(&obs));
            // Slot model: the cache plus the per-position fill values its
            // history dictates.
            let mut slots: Vec<Option<(PagedKvCache, Vec<f32>)>> =
                (0..4).map(|_| None).collect();
            for (step, &(slot, op, n)) in ops.iter().enumerate() {
                match op {
                    0 => slots[slot] = Some((pool.new_cache(20), Vec::new())),
                    1 => {
                        if let Some((c, vals)) = slots[slot].as_mut() {
                            let n = n.min(c.max_seq() - c.len());
                            if n > 0 && c.try_reserve(n).is_ok() {
                                for i in 0..n {
                                    let fill = (step * 8 + i) as f32 + 0.5;
                                    c.write(0, &[fill, fill + 0.25], &[-fill, -fill - 0.25]);
                                    c.advance();
                                    vals.push(fill);
                                }
                            }
                        }
                    }
                    2 => {
                        if let Some((c, vals)) = slots[slot].as_ref() {
                            let fork = c.fork_with_capacity(c.max_seq());
                            let vals = vals.clone();
                            slots[(slot + 1) % 4] = Some((fork, vals));
                        }
                    }
                    _ => slots[slot] = None,
                }
                let stats = pool.stats();
                proptest::prop_assert_eq!(
                    stats.pages_live + stats.pages_free,
                    stats.created,
                    "page conservation broken at step {}", step
                );
                proptest::prop_assert!(stats.pages_live <= config.max_pages);
                proptest::prop_assert!(stats.peak_live >= stats.pages_live);
                let held: usize = slots
                    .iter()
                    .flatten()
                    .map(|(c, _)| c.n_blocks())
                    .sum();
                proptest::prop_assert_eq!(stats.handles, held, "handle leak at step {}", step);
                for (c, vals) in slots.iter().flatten() {
                    proptest::prop_assert_eq!(c.len(), vals.len());
                    for (pos, &fill) in vals.iter().enumerate() {
                        proptest::prop_assert_eq!(c.key(0, pos), &[fill, fill + 0.25][..]);
                        proptest::prop_assert_eq!(c.value(0, pos), &[-fill, -fill - 0.25][..]);
                    }
                }
            }
            let stats = pool.stats();
            let snap = obs.metrics_snapshot();
            proptest::prop_assert_eq!(
                snap.value("hallu_paged_bytes", &[]),
                Some((stats.pages_live * config.page_bytes()) as f64)
            );
            proptest::prop_assert_eq!(
                snap.value("hallu_paged_pages", &[]),
                Some(stats.pages_live as f64)
            );
            for s in slots.iter_mut() {
                *s = None;
            }
            let stats = pool.stats();
            proptest::prop_assert_eq!(stats.handles, 0);
            proptest::prop_assert_eq!(stats.pages_live, 0);
            proptest::prop_assert_eq!(stats.pages_free, stats.created);
        }

        /// Under any interleaving of forks and inserts over a small key
        /// space: both prefix-cache bounds hold after every op, a fork never
        /// returns a snapshot other than the last one stored for that key,
        /// the counters reconcile with the op log, and every page returns to
        /// the pool once the cache and the forks still held drop.
        #[test]
        fn prefix_cache_op_logs_preserve_bounds_values_and_counters(
            max_entries in 1usize..6,
            byte_slots in 1usize..6,
            ops in proptest::collection::vec((0usize..8, 0u8..3), 1..120),
        ) {
            // All keys cost the same, so the byte budget admits exactly
            // `byte_slots` entries; the binding bound varies per case.
            let pool = tiny_pool(256);
            let prefix_len = 3usize;
            let per_entry = entry_bytes(&pool, prefix_len);
            let config = PrefixCacheConfig {
                max_entries,
                max_bytes: byte_slots * per_entry,
            };
            let cache = PagedPrefixCache::new(Arc::clone(&pool), config);
            let mut model: HashMap<usize, f32> = HashMap::new();
            let mut held = Vec::new();
            let (mut forks, mut inserts) = (0u64, 0u64);
            for (i, &(key_idx, op)) in ops.iter().enumerate() {
                let toks = prefix_tokens(prefix_len, key_idx as u32 * 100);
                match op {
                    0 => {
                        forks += 1;
                        if let Some(kv) = cache.fork("m", &toks, prefix_len + 2) {
                            proptest::prop_assert_eq!(kv.len(), prefix_len);
                            proptest::prop_assert_eq!(
                                Some(kv.key(0, 0)[0]),
                                model.get(&key_idx).copied(),
                                "stale snapshot for key {}",
                                key_idx
                            );
                            // Outlive the snapshot's eviction or update.
                            held.push(kv);
                        }
                    }
                    _ => {
                        let fill = (i % 13) as f32 + 0.25;
                        proptest::prop_assert!(
                            cache.insert("m", &toks, &snapshot(&pool, prefix_len, fill))
                        );
                        inserts += 1;
                        // The new entry may itself be evicted when it exceeds
                        // the byte budget alone; the model tracks residency.
                        forks += 1;
                        if cache.fork("m", &toks, prefix_len).is_some() {
                            model.insert(key_idx, fill);
                        } else {
                            model.remove(&key_idx);
                        }
                    }
                }
                proptest::prop_assert!(cache.len() <= max_entries);
                proptest::prop_assert!(cache.bytes() <= config.max_bytes);
                // Eviction only ever removes whole entries, so len and bytes
                // agree with the per-entry cost.
                proptest::prop_assert_eq!(cache.bytes(), cache.len() * per_entry);
            }
            let stats = cache.stats();
            proptest::prop_assert_eq!(stats.hits + stats.misses, forks);
            proptest::prop_assert_eq!(stats.inserts + stats.updates, inserts);
            proptest::prop_assert_eq!(stats.entries as usize, cache.len());
            drop(held);
            drop(cache);
            proptest::prop_assert_eq!(pool.stats().pages_live, 0);
        }
    }
}
