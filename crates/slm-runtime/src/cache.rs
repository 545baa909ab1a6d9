//! Sharded memoizing verification cache.
//!
//! [`VerificationCache`] memoizes completed probe episodes — one
//! [`ProbeOutcome`] per (model, question, context, sentence) cell — behind a
//! fixed set of FNV-keyed shards, each guarded by its own mutex so the
//! parallel batch executor's workers rarely contend. Each shard is one of
//! the crate's bounded LRU maps, holding its share of two global bounds: an
//! entry count and a byte budget (key text plus a fixed per-entry overhead).
//! A hit or an insert refreshes an entry's recency; the replication plane's
//! reads (`contains`, the resident check of `insert_replicated`, the
//! journal and page walks, `entries_snapshot`) never do.
//!
//! **Why a hit cannot change behavior.** Under the episode-purity contract
//! ([`crate::fallible::FallibleVerifier::try_p_yes_attempt`]) a probe episode
//! is a pure function of its cell, so the cached outcome is bit-for-bit the
//! outcome a recomputation would produce — including `simulated_ms`, which
//! means virtual-clock dynamics (deadlines, shedding, telemetry) replay
//! identically. The cache therefore only ever saves wall-clock work; it is
//! semantically invisible, which is what the golden parity suite asserts.
//!
//! **Why a fault cannot poison it.** Only outcomes with a valid probability
//! ([`ProbeOutcome::is_cacheable`]) are admitted: failed episodes and
//! garbage scores are recomputed every time — harmless, because recomputing
//! them is also bit-identical.
//!
//! **Replication.** The cluster layer copies warm entries between peer
//! caches so a failover target serves hits it never computed. Two transport
//! primitives support it: a bounded *journal* of recently-inserted keys
//! ([`VerificationCache::recent_since`]) for the cheap steady-state path,
//! and a sorted page walk ([`VerificationCache::sync_page`]) as the
//! anti-entropy fallback once the journal has rotated past a peer's cursor.
//! Replicated entries land through [`VerificationCache::insert_replicated`],
//! which re-applies the `is_cacheable` gate — a peer can never launder a
//! poisoned outcome past the no-poisoning guarantee — and which skips keys
//! the local cache already holds, so replication never clobbers local work.
//! Because episodes are pure functions of their cell, a replicated value is
//! bit-identical to what local recomputation would produce; replication
//! changes *where* the work happened, never *what* the answer is.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use hallu_obs::{splitmix64, Counter, Gauge, Obs};

use crate::batch::ProbeOutcome;
use crate::lru::Lru;
use crate::sim::fnv1a;

/// Fixed accounting overhead per cached entry, covering the stored outcome,
/// recency tick, and map bookkeeping. The exact value only shapes eviction
/// pressure; it is part of the deterministic byte model, not a measurement.
pub const ENTRY_OVERHEAD_BYTES: usize = 96;

/// Capacity and sharding knobs for [`VerificationCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Global bound on cached entries. Never exceeded.
    pub max_entries: usize,
    /// Global bound on accounted bytes (key text + [`ENTRY_OVERHEAD_BYTES`]
    /// per entry). Never exceeded.
    pub max_bytes: usize,
    /// Requested shard count; rounded down to a power of two and clamped so
    /// every shard can hold at least one entry.
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            max_entries: 4096,
            max_bytes: 4 << 20,
            shards: 16,
        }
    }
}

impl CacheConfig {
    /// A small config convenient for tests: `max_entries` entries, a byte
    /// budget generous enough to be non-binding, default sharding.
    pub fn with_max_entries(max_entries: usize) -> Self {
        Self {
            max_entries,
            ..Self::default()
        }
    }
}

/// Borrowed view of a cache key; avoids allocating on lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheKeyRef<'a> {
    /// Verifier model name.
    pub model: &'a str,
    /// The question under verification.
    pub question: &'a str,
    /// Retrieved context.
    pub context: &'a str,
    /// The sentence (response fragment) being scored.
    pub response: &'a str,
}

impl<'a> CacheKeyRef<'a> {
    /// Build a key view.
    pub fn new(model: &'a str, question: &'a str, context: &'a str, response: &'a str) -> Self {
        Self {
            model,
            question,
            context,
            response,
        }
    }

    fn hash(&self) -> u64 {
        fnv1a(
            0x5ca1_ab1e,
            &[self.model, self.question, self.context, self.response],
        )
    }

    fn byte_cost(&self) -> usize {
        ENTRY_OVERHEAD_BYTES
            + self.model.len()
            + self.question.len()
            + self.context.len()
            + self.response.len()
    }
}

/// Owned cache key, as stored in shards and returned by snapshots.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// Verifier model name.
    pub model: String,
    /// The question under verification.
    pub question: String,
    /// Retrieved context.
    pub context: String,
    /// The sentence (response fragment) being scored.
    pub response: String,
}

impl CacheKey {
    fn from_ref(key: &CacheKeyRef<'_>) -> Self {
        Self {
            model: key.model.to_string(),
            question: key.question.to_string(),
            context: key.context.to_string(),
            response: key.response.to_string(),
        }
    }

    fn matches(&self, key: &CacheKeyRef<'_>) -> bool {
        self.model == key.model
            && self.question == key.question
            && self.context == key.context
            && self.response == key.response
    }

    /// Borrow this owned key as a [`CacheKeyRef`] view.
    pub fn as_key_ref(&self) -> CacheKeyRef<'_> {
        CacheKeyRef::new(&self.model, &self.question, &self.context, &self.response)
    }
}

/// A memoized episode, as a shard stores it.
#[derive(Clone, Copy)]
struct Cached {
    outcome: ProbeOutcome,
    /// Whether the entry arrived via [`VerificationCache::insert_replicated`]
    /// rather than local computation; hits on such entries are the proof the
    /// heal sweep looks for ("hits it never computed").
    replicated: bool,
}

type Shard = Lru<CacheKey, Cached>;

/// Point-in-time cache statistics. Counters are cumulative since
/// construction; `entries`/`bytes` are current occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found their key.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// New entries admitted.
    pub inserts: u64,
    /// Inserts that overwrote an existing key in place.
    pub updates: u64,
    /// Entries removed by LRU pressure.
    pub evictions: u64,
    /// Inserts refused because the outcome was not a valid probability.
    pub rejected: u64,
    /// Entries admitted from a replication peer rather than local work.
    pub replicated_inserts: u64,
    /// Hits served from entries this cache never computed itself.
    pub replicated_hits: u64,
    /// Current entry count.
    pub entries: u64,
    /// Current accounted bytes.
    pub bytes: u64,
}

impl CacheStats {
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

/// Registry handles mirroring the cache counters; disconnected (free)
/// unless [`VerificationCache::with_obs`] is used.
#[derive(Debug, Clone, Default)]
struct CacheTelemetry {
    hits: Counter,
    misses: Counter,
    inserts: Counter,
    updates: Counter,
    evictions: Counter,
    rejected: Counter,
    replicated_inserts: Counter,
    replicated_hits: Counter,
    entries: Gauge,
    bytes: Gauge,
}

impl CacheTelemetry {
    fn register(obs: &Obs) -> Self {
        let event = |kind: &str, help: &str| {
            obs.counter("hallu_cache_events_total", help, &[("kind", kind)])
        };
        let help = "Verification cache events by kind";
        Self {
            hits: event("hit", help),
            misses: event("miss", help),
            inserts: event("insert", help),
            updates: event("update", help),
            evictions: event("eviction", help),
            rejected: event("rejected", help),
            replicated_inserts: event("replicated_insert", help),
            replicated_hits: event("replicated_hit", help),
            entries: obs.gauge(
                "hallu_cache_entries",
                "Current verification cache entry count",
                &[],
            ),
            bytes: obs.gauge(
                "hallu_cache_bytes",
                "Current verification cache accounted bytes",
                &[],
            ),
        }
    }
}

/// Sharded, bounded, LRU-evicting memo table for probe episodes.
///
/// Thread-safe; lookups and inserts lock only the owning shard. See the
/// module docs for the semantic-invisibility argument.
pub struct VerificationCache {
    /// Each shard is bounded by its share of the global bounds, so the
    /// global bound holds by construction even when shards fill unevenly.
    shards: Vec<Mutex<Shard>>,
    config: CacheConfig,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    updates: AtomicU64,
    evictions: AtomicU64,
    rejected: AtomicU64,
    replicated_inserts: AtomicU64,
    replicated_hits: AtomicU64,
    /// Global insert sequence; the journal below records `(seq, key)` for
    /// the most recent admissions so peers can pull deltas by cursor.
    seq: AtomicU64,
    journal: Mutex<VecDeque<(u64, CacheKey)>>,
    journal_capacity: usize,
    obs: CacheTelemetry,
}

impl VerificationCache {
    /// Build a cache with the given bounds.
    pub fn new(config: CacheConfig) -> Self {
        let max_entries = config.max_entries.max(1);
        // Largest power of two that is both <= the requested shard count and
        // <= max_entries, so every shard can hold at least one entry and the
        // hash-to-shard map is a mask.
        let mut shards = 1usize;
        while shards * 2 <= config.shards.max(1) && shards * 2 <= max_entries {
            shards *= 2;
        }
        let shard_max_bytes = (config.max_bytes / shards).max(1);
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(Lru::new(max_entries / shards, shard_max_bytes)))
                .collect(),
            config,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            replicated_inserts: AtomicU64::new(0),
            replicated_hits: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            journal: Mutex::new(VecDeque::new()),
            journal_capacity: max_entries.clamp(64, 4096),
            obs: CacheTelemetry::default(),
        }
    }

    /// Mirror cache counters into `obs` as
    /// `hallu_cache_events_total{kind}` plus occupancy gauges. Counter
    /// increments commute and gauges only report occupancy, so telemetry
    /// stays bitwise-neutral to scoring.
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.obs = CacheTelemetry::register(obs);
        self
    }

    /// The configuration the cache was built with (as requested, before
    /// shard rounding).
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Actual shard count in use (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Lock the shard owning `hash`.
    fn shard(&self, hash: u64) -> MutexGuard<'_, Shard> {
        // Rehash before masking: FNV's low bits are fine, but mixing costs
        // one multiply and keeps shard balance independent of key shape.
        let idx = (splitmix64(hash) as usize) & (self.shards.len() - 1);
        self.shards[idx].lock().unwrap_or_else(|e| e.into_inner())
    }

    fn publish_occupancy(&self) {
        // Cheap no-ops when obs is disconnected; exact values matter only
        // for dashboards, so a racy read across shards is acceptable.
        self.obs.entries.set(self.len() as f64);
        self.obs.bytes.set(self.bytes() as f64);
    }

    /// Look up a cell. A hit refreshes the entry's recency.
    pub fn get(&self, key: &CacheKeyRef<'_>) -> Option<ProbeOutcome> {
        let hash = key.hash();
        let found = self.shard(hash).get(hash, |k| k.matches(key)).copied();
        match found {
            Some(Cached {
                outcome,
                replicated,
            }) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.obs.hits.inc();
                if replicated {
                    self.replicated_hits.fetch_add(1, Ordering::Relaxed);
                    self.obs.replicated_hits.inc();
                }
                Some(outcome)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.obs.misses.inc();
                None
            }
        }
    }

    /// Record an admission in the replication journal, rotating out the
    /// oldest entries past the capacity bound (peers whose cursor falls off
    /// the rotated prefix fall back to [`Self::sync_page`]).
    fn journal_admission(&self, key: &CacheKeyRef<'_>) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mut journal = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        journal.push_back((seq, CacheKey::from_ref(key)));
        while journal.len() > self.journal_capacity {
            journal.pop_front();
        }
    }

    /// Admit a completed probe episode. Returns `false` (and caches nothing)
    /// unless the outcome carries a valid probability — the no-poisoning
    /// guarantee. Existing keys are overwritten in place; new entries may
    /// evict least-recently-used ones to respect the bounds.
    pub fn insert(&self, key: &CacheKeyRef<'_>, value: ProbeOutcome) -> bool {
        if !value.is_cacheable() {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            self.obs.rejected.inc();
            return false;
        }
        let hash = key.hash();
        // Locally computed: an overwritten entry no longer owes its
        // existence to a peer.
        let put = self.shard(hash).put(
            hash,
            |k| k.matches(key),
            || CacheKey::from_ref(key),
            Cached {
                outcome: value,
                replicated: false,
            },
            key.byte_cost(),
        );
        if put.replaced {
            self.updates.fetch_add(1, Ordering::Relaxed);
            self.obs.updates.inc();
            self.publish_occupancy();
        } else {
            self.admitted(key, put.evicted);
            self.inserts.fetch_add(1, Ordering::Relaxed);
            self.obs.inserts.inc();
        }
        true
    }

    /// Admit an entry copied from a replication peer. Unlike [`Self::insert`]
    /// this never overwrites: if the key is already resident (computed
    /// locally or replicated earlier) the call is a no-op returning `false`.
    /// The `is_cacheable` gate is re-applied, so a peer cannot launder a
    /// poisoned outcome into this cache. Returns `true` when the entry was
    /// admitted.
    pub fn insert_replicated(&self, key: &CacheKeyRef<'_>, value: ProbeOutcome) -> bool {
        if !value.is_cacheable() {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            self.obs.rejected.inc();
            return false;
        }
        let hash = key.hash();
        let mut shard = self.shard(hash);
        if shard.peek(hash, |k| k.matches(key)).is_some() {
            return false;
        }
        let put = shard.put(
            hash,
            |k| k.matches(key),
            || CacheKey::from_ref(key),
            Cached {
                outcome: value,
                replicated: true,
            },
            key.byte_cost(),
        );
        drop(shard);
        self.admitted(key, put.evicted);
        self.replicated_inserts.fetch_add(1, Ordering::Relaxed);
        self.obs.replicated_inserts.inc();
        true
    }

    /// What both inserts do once a new key is admitted and its shard lock is
    /// released: count the evictions the admission caused, journal it and
    /// publish occupancy. Replicated admissions are journaled too, so a
    /// peer-of-a-peer (e.g. the ring successor chain) can pick them up;
    /// `insert_replicated`'s skip-if-resident rule keeps the exchange from
    /// ping-ponging.
    fn admitted(&self, key: &CacheKeyRef<'_>, evicted: u64) {
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            self.obs.evictions.add(evicted);
        }
        self.journal_admission(key);
        self.publish_occupancy();
    }

    /// Whether `key` is resident, without touching recency or hit/miss
    /// counters. Replication-plane lookup.
    pub fn contains(&self, key: &CacheKeyRef<'_>) -> bool {
        self.peek(key).is_some()
    }

    /// Read a resident value without touching recency or hit/miss counters.
    /// Replication-plane lookup: shipping an entry to a peer must not
    /// distort the LRU order or the hit-rate telemetry.
    fn peek(&self, key: &CacheKeyRef<'_>) -> Option<ProbeOutcome> {
        let hash = key.hash();
        self.shard(hash)
            .peek(hash, |k| k.matches(key))
            .map(|cached| cached.outcome)
    }

    /// The most recently issued admission-journal sequence number (0 before
    /// any admission). A replication peer whose cursor rotated out of the
    /// journal rejoins it at this head after its anti-entropy walk.
    pub fn journal_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// The steady-state replication pull: every admission after `cursor`
    /// still present in the journal, oldest first, bounded by `max_bytes` of
    /// accounted key cost (at least one entry ships even if oversized, so a
    /// small budget still makes progress). Returns the advanced cursor to
    /// pass next round. Returns `None` when the journal has rotated past
    /// `cursor` — admissions were lost and the caller must fall back to the
    /// [`Self::sync_page`] anti-entropy walk. Entries evicted since being
    /// journaled are skipped (the cursor still advances past them).
    pub fn recent_since(
        &self,
        cursor: u64,
        max_bytes: usize,
    ) -> Option<(u64, Vec<(CacheKey, ProbeOutcome)>)> {
        // Clone the journaled tail out under the lock, then peek values
        // lock-free of it (peek takes shard locks).
        let pending: Vec<(u64, CacheKey)> = {
            let journal = self.journal.lock().unwrap_or_else(|e| e.into_inner());
            match journal.front() {
                Some(&(head_seq, _)) => {
                    if cursor + 1 < head_seq {
                        return None;
                    }
                }
                None => {
                    if self.seq.load(Ordering::Relaxed) > cursor {
                        return None;
                    }
                }
            }
            journal
                .iter()
                .filter(|(seq, _)| *seq > cursor)
                .cloned()
                .collect()
        };
        let mut out = Vec::new();
        let mut new_cursor = cursor;
        let mut spent = 0usize;
        for (seq, key) in pending {
            let key_ref = CacheKeyRef::new(&key.model, &key.question, &key.context, &key.response);
            let cost = key_ref.byte_cost();
            if !out.is_empty() && spent + cost > max_bytes {
                break;
            }
            if let Some(value) = self.peek(&key_ref) {
                spent += cost;
                out.push((key, value));
            }
            new_cursor = seq;
        }
        Some((new_cursor, out))
    }

    /// One page of the anti-entropy walk: resident entries in sorted key
    /// order starting at index `cursor`, bounded by `max_bytes` of accounted
    /// key cost (at least one entry ships). Returns the next cursor, which
    /// wraps to 0 when the walk completes a full pass. The fallback path for
    /// peers whose [`Self::recent_since`] cursor rotated out of the journal.
    pub fn sync_page(
        &self,
        cursor: usize,
        max_bytes: usize,
    ) -> (Vec<(CacheKey, ProbeOutcome)>, usize) {
        let snapshot = self.entries_snapshot();
        if snapshot.is_empty() {
            return (Vec::new(), 0);
        }
        let start = cursor.min(snapshot.len());
        let mut out = Vec::new();
        let mut spent = 0usize;
        let mut next = start;
        for (key, value) in snapshot.iter().skip(start) {
            let key_ref = CacheKeyRef::new(&key.model, &key.question, &key.context, &key.response);
            let cost = key_ref.byte_cost();
            if !out.is_empty() && spent + cost > max_bytes {
                break;
            }
            spent += cost;
            out.push((key.clone(), *value));
            next += 1;
        }
        if next >= snapshot.len() {
            next = 0;
        }
        (out, next)
    }

    /// Current entry count across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current accounted bytes across all shards.
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).bytes())
            .sum()
    }

    /// Counters plus current occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            replicated_inserts: self.replicated_inserts.load(Ordering::Relaxed),
            replicated_hits: self.replicated_hits.load(Ordering::Relaxed),
            entries: self.len() as u64,
            bytes: self.bytes() as u64,
        }
    }

    /// Every resident entry, sorted by key for deterministic iteration.
    /// Test and debugging aid — this walks all shards under their locks.
    pub fn entries_snapshot(&self) -> Vec<(CacheKey, ProbeOutcome)> {
        let mut out: Vec<(CacheKey, ProbeOutcome)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            out.extend(
                shard
                    .iter()
                    .map(|(key, cached)| (key.clone(), cached.outcome)),
            );
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    fn outcome(p: f64) -> ProbeOutcome {
        ProbeOutcome {
            score: Some(p),
            attempts: 1,
            retries: 0,
            timeouts: 0,
            simulated_ms: 10.0,
        }
    }

    fn key(s: &str) -> CacheKeyRef<'_> {
        CacheKeyRef::new("model", "question", "context", s)
    }

    #[test]
    fn get_miss_then_insert_then_hit_roundtrip() {
        let cache = VerificationCache::new(CacheConfig::default());
        let k = key("a sentence");
        assert_eq!(cache.get(&k), None);
        assert!(cache.insert(&k, outcome(0.7)));
        assert_eq!(cache.get(&k), Some(outcome(0.7)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes as usize >= ENTRY_OVERHEAD_BYTES);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let cache = VerificationCache::new(CacheConfig::default());
        for (field, a, b) in [
            (
                "model",
                CacheKeyRef::new("m1", "q", "c", "r"),
                CacheKeyRef::new("m2", "q", "c", "r"),
            ),
            (
                "question",
                CacheKeyRef::new("m", "q1", "c", "r"),
                CacheKeyRef::new("m", "q2", "c", "r"),
            ),
            (
                "context",
                CacheKeyRef::new("m", "q", "c1", "r"),
                CacheKeyRef::new("m", "q", "c2", "r"),
            ),
            (
                "response",
                CacheKeyRef::new("m", "q", "c", "r1"),
                CacheKeyRef::new("m", "q", "c", "r2"),
            ),
        ] {
            assert!(cache.insert(&a, outcome(0.25)));
            assert_eq!(cache.get(&b), None, "{field} must separate keys");
            assert_eq!(cache.get(&a), Some(outcome(0.25)));
        }
    }

    #[test]
    fn reinsert_updates_in_place() {
        let cache = VerificationCache::new(CacheConfig::default());
        let k = key("x");
        cache.insert(&k, outcome(0.2));
        cache.insert(&k, outcome(0.9));
        assert_eq!(cache.get(&k), Some(outcome(0.9)));
        let stats = cache.stats();
        assert_eq!((stats.inserts, stats.updates, stats.entries), (1, 1, 1));
    }

    #[test]
    fn invalid_outcomes_are_rejected() {
        let cache = VerificationCache::new(CacheConfig::default());
        for (label, value) in [
            ("error episode", ProbeOutcome::default()),
            ("nan", outcome(f64::NAN)),
            ("negative", outcome(-0.1)),
            ("above one", outcome(1.5)),
            ("infinite", outcome(f64::INFINITY)),
        ] {
            assert!(!cache.insert(&key(label), value), "{label}");
            assert_eq!(cache.get(&key(label)), None, "{label}");
        }
        let stats = cache.stats();
        assert_eq!(stats.rejected, 5);
        assert_eq!(stats.inserts, 0);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn entry_bound_is_never_exceeded_and_lru_is_evicted() {
        // Single shard so recency ordering is fully observable.
        let config = CacheConfig {
            max_entries: 4,
            max_bytes: usize::MAX,
            shards: 1,
        };
        let cache = VerificationCache::new(config);
        assert_eq!(cache.shard_count(), 1);
        for i in 0..4 {
            cache.insert(&key(&format!("k{i}")), outcome(0.5));
        }
        // Touch k0 so k1 becomes the LRU victim.
        assert!(cache.get(&key("k0")).is_some());
        cache.insert(&key("k4"), outcome(0.5));
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.get(&key("k1")), None, "LRU entry evicted");
        for live in ["k0", "k2", "k3", "k4"] {
            assert!(cache.get(&key(live)).is_some(), "{live} survives");
        }
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn byte_bound_is_never_exceeded() {
        let config = CacheConfig {
            max_entries: usize::MAX >> 1,
            max_bytes: 4 * (ENTRY_OVERHEAD_BYTES + 64),
            shards: 1,
        };
        let cache = VerificationCache::new(config);
        for i in 0..64 {
            cache.insert(&key(&format!("padding-{i:04}")), outcome(0.5));
            assert!(
                cache.bytes() <= config.max_bytes,
                "byte bound violated at insert {i}: {} > {}",
                cache.bytes(),
                config.max_bytes
            );
        }
        assert!(cache.stats().evictions > 0);
        assert!(!cache.is_empty());
    }

    #[test]
    fn shard_count_is_power_of_two_and_respects_capacity() {
        let cache = VerificationCache::new(CacheConfig {
            max_entries: 6,
            max_bytes: 1 << 20,
            shards: 16,
        });
        // 16 requested, but only 4 shards fit 6 entries at >=1 entry each.
        assert_eq!(cache.shard_count(), 4);
        let big = VerificationCache::new(CacheConfig::default());
        assert_eq!(big.shard_count(), 16);
        let one = VerificationCache::new(CacheConfig {
            max_entries: 1,
            max_bytes: 1 << 20,
            shards: 16,
        });
        assert_eq!(one.shard_count(), 1);
    }

    #[test]
    fn global_bound_holds_across_shards() {
        let config = CacheConfig {
            max_entries: 32,
            max_bytes: 1 << 20,
            shards: 8,
        };
        let cache = VerificationCache::new(config);
        for i in 0..500 {
            cache.insert(&key(&format!("entry number {i}")), outcome(0.5));
            assert!(cache.len() <= 32, "entry bound violated at {i}");
        }
        assert!(!cache.is_empty());
        let stats = cache.stats();
        assert_eq!(stats.inserts - stats.evictions, stats.entries);
    }

    #[test]
    fn obs_counters_mirror_stats() {
        let obs = Obs::new();
        let cache = VerificationCache::new(CacheConfig::with_max_entries(8)).with_obs(&obs);
        for i in 0..20 {
            let k = format!("k{i}");
            cache.insert(&key(&k), outcome(0.5));
            let _ = cache.get(&key(&k));
            let _ = cache.get(&key("never inserted"));
        }
        cache.insert(&key("bad"), outcome(f64::NAN));
        let stats = cache.stats();
        let snap = obs.metrics_snapshot();
        for (kind, count) in [
            ("hit", stats.hits),
            ("miss", stats.misses),
            ("insert", stats.inserts),
            ("update", stats.updates),
            ("eviction", stats.evictions),
            ("rejected", stats.rejected),
        ] {
            assert_eq!(
                snap.value("hallu_cache_events_total", &[("kind", kind)]),
                Some(count as f64),
                "kind {kind}"
            );
        }
        assert_eq!(
            snap.value("hallu_cache_entries", &[]),
            Some(stats.entries as f64)
        );
        assert_eq!(
            snap.value("hallu_cache_bytes", &[]),
            Some(stats.bytes as f64)
        );
    }

    proptest::proptest! {
        /// Under ANY interleaving of lookups, valid inserts, and invalid
        /// inserts: capacity bounds hold after every op, a lookup never
        /// returns a value that was not the last one stored for that key,
        /// and the counters reconcile exactly with the op log.
        #[test]
        fn arbitrary_op_logs_preserve_bounds_values_and_counters(
            max_entries in 1usize..12,
            ops in proptest::collection::vec((0usize..24, 0u8..4), 1..200),
        ) {
            let config = CacheConfig {
                max_entries,
                max_bytes: 1 << 16,
                shards: 4,
            };
            let cache = VerificationCache::new(config);
            let mut model: HashMap<usize, ProbeOutcome> = HashMap::new();
            let (mut gets, mut valid_inserts, mut invalid_inserts) = (0u64, 0u64, 0u64);
            for (i, &(key_idx, op)) in ops.iter().enumerate() {
                let sentence = format!("sentence number {key_idx}");
                let k = CacheKeyRef::new("m", "q", "c", &sentence);
                match op {
                    0 => {
                        gets += 1;
                        if let Some(v) = cache.get(&k) {
                            proptest::prop_assert_eq!(
                                Some(v),
                                model.get(&key_idx).copied(),
                                "stale or aliased value for key {}",
                                key_idx
                            );
                        }
                    }
                    1 | 2 => {
                        let v = outcome(0.05 * (1 + i % 19) as f64);
                        proptest::prop_assert!(cache.insert(&k, v));
                        model.insert(key_idx, v);
                        valid_inserts += 1;
                    }
                    _ => {
                        proptest::prop_assert!(!cache.insert(&k, outcome(f64::NAN)));
                        invalid_inserts += 1;
                    }
                }
                proptest::prop_assert!(cache.len() <= max_entries);
                proptest::prop_assert!(cache.bytes() <= config.max_bytes);
            }
            let stats = cache.stats();
            proptest::prop_assert_eq!(stats.hits + stats.misses, gets);
            proptest::prop_assert_eq!(stats.inserts + stats.updates, valid_inserts);
            proptest::prop_assert_eq!(stats.rejected, invalid_inserts);
            proptest::prop_assert_eq!(stats.inserts - stats.evictions, stats.entries);
            proptest::prop_assert_eq!(stats.entries as usize, cache.len());
            proptest::prop_assert_eq!(stats.bytes as usize, cache.bytes());
        }
    }

    #[test]
    fn replication_journal_ships_deltas_and_detects_truncation() {
        let source = VerificationCache::new(CacheConfig::default());
        let target = VerificationCache::new(CacheConfig::default());
        for i in 0..5 {
            source.insert(&key(&format!("k{i}")), outcome(0.1 * (i + 1) as f64));
        }
        // Pull everything with a roomy budget.
        let (cursor, batch) = source.recent_since(0, 1 << 20).expect("journal intact");
        assert_eq!(batch.len(), 5);
        for (k, v) in &batch {
            let kr = CacheKeyRef::new(&k.model, &k.question, &k.context, &k.response);
            assert!(target.insert_replicated(&kr, *v));
        }
        // The warm target serves hits it never computed, and says so.
        assert_eq!(target.get(&key("k3")), Some(outcome(0.4)));
        let stats = target.stats();
        assert_eq!(stats.replicated_inserts, 5);
        assert_eq!(stats.replicated_hits, 1);
        assert_eq!(stats.inserts, 0, "replication is not a local insert");
        // Caught-up cursor yields an empty delta, not a restart.
        let (cursor2, rest) = source.recent_since(cursor, 1 << 20).expect("intact");
        assert_eq!(cursor2, cursor);
        assert!(rest.is_empty());
        // Shipping must not distort the source's hit/miss telemetry.
        assert_eq!(source.stats().hits + source.stats().misses, 0);
        // A cursor older than the rotated journal reports truncation.
        assert_eq!(
            source.recent_since(0, 1 << 20).map(|(c, _)| c),
            Some(cursor)
        );
        let small = VerificationCache::new(CacheConfig {
            max_entries: 64,
            max_bytes: 1 << 20,
            shards: 1,
        });
        for i in 0..200 {
            small.insert(&key(&format!("rotate-{i}")), outcome(0.5));
        }
        assert_eq!(
            small.recent_since(0, 1 << 20),
            None,
            "rotated past cursor 0"
        );
    }

    #[test]
    fn replication_budget_bounds_each_round_but_makes_progress() {
        let source = VerificationCache::new(CacheConfig::default());
        for i in 0..10 {
            source.insert(&key(&format!("budget-{i}")), outcome(0.5));
        }
        let mut cursor = 0u64;
        let mut rounds = 0;
        let mut shipped = 0;
        // A budget of ~2 entries per round must drain in ~5 rounds, one
        // entry minimum even if the budget is tiny.
        let per_round = 2 * (ENTRY_OVERHEAD_BYTES + 64);
        loop {
            let (next, batch) = source.recent_since(cursor, per_round).expect("intact");
            if batch.is_empty() {
                break;
            }
            assert!(batch.len() <= 2, "budget bounds the round");
            shipped += batch.len();
            cursor = next;
            rounds += 1;
            assert!(rounds <= 10, "must terminate");
        }
        assert_eq!(shipped, 10);
        let (_, one) = source.recent_since(0, 1).expect("intact journal");
        assert_eq!(one.len(), 1, "tiny budget still ships one entry");
    }

    #[test]
    fn replicated_insert_never_clobbers_and_never_launders_poison() {
        let cache = VerificationCache::new(CacheConfig::default());
        let k = key("precious");
        assert!(cache.insert(&k, outcome(0.9)));
        // A peer's copy of the same key is a no-op, not an overwrite.
        assert!(!cache.insert_replicated(&k, outcome(0.1)));
        assert_eq!(cache.get(&k), Some(outcome(0.9)));
        // The no-poisoning gate applies to the replication plane too.
        assert!(!cache.insert_replicated(&key("poison"), outcome(f64::NAN)));
        assert_eq!(cache.get(&key("poison")), None);
        assert_eq!(cache.stats().replicated_inserts, 0);
        // A locally recomputed entry stops counting as replicated.
        assert!(cache.insert_replicated(&key("borrowed"), outcome(0.3)));
        assert!(cache.insert(&key("borrowed"), outcome(0.3)));
        let before = cache.stats().replicated_hits;
        let _ = cache.get(&key("borrowed"));
        assert_eq!(cache.stats().replicated_hits, before);
    }

    #[test]
    fn anti_entropy_page_walk_covers_everything_and_wraps() {
        let source = VerificationCache::new(CacheConfig::default());
        let target = VerificationCache::new(CacheConfig::default());
        for i in 0..7 {
            source.insert(&key(&format!("page-{i}")), outcome(0.5));
        }
        let mut cursor = 0usize;
        let mut seen = 0;
        loop {
            let (page, next) = source.sync_page(cursor, 3 * (ENTRY_OVERHEAD_BYTES + 64));
            for (k, v) in &page {
                let kr = CacheKeyRef::new(&k.model, &k.question, &k.context, &k.response);
                target.insert_replicated(&kr, *v);
            }
            seen += page.len();
            cursor = next;
            if cursor == 0 {
                break;
            }
        }
        assert_eq!(seen, 7, "one full pass covers every entry");
        assert_eq!(target.len(), 7);
        assert_eq!(
            target.entries_snapshot(),
            source.entries_snapshot(),
            "anti-entropy converges the replica to the source"
        );
        let empty = VerificationCache::new(CacheConfig::default());
        assert_eq!(empty.sync_page(0, 1 << 20), (Vec::new(), 0));
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let cache = VerificationCache::new(CacheConfig::default());
        for s in ["zeta", "alpha", "mid"] {
            cache.insert(&key(s), outcome(0.5));
        }
        let snap = cache.entries_snapshot();
        assert_eq!(snap.len(), 3);
        let responses: Vec<&str> = snap.iter().map(|(k, _)| k.response.as_str()).collect();
        assert_eq!(responses, vec!["alpha", "mid", "zeta"]);
    }
}
