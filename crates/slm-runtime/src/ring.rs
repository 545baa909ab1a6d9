//! Consistent-hash slot ring for the sharded verification cluster.
//!
//! [`HashRing`] maps request keys to shard ids with the two properties the
//! cluster layer needs:
//!
//! 1. **Locality** — a key always hashes to the same slot, and a slot moves
//!    between shards only when membership changes, so per-shard prefix and
//!    verification caches stay warm across unrelated topology changes.
//! 2. **Bounded rebalancing** — the ring is a fixed table of `S` slots
//!    (Redis-cluster style) whose ownership is *stateful*: adding the
//!    `N`-th shard moves exactly `⌊S/N⌋` slots (all to the new shard, each
//!    taken from the currently most-loaded shard), and removing a shard
//!    moves exactly that shard's slots (spread over the least-loaded
//!    survivors). Keys on unaffected slots never move, which is the exact
//!    form of the "≤ K/N keys move" guarantee: slot movement is bounded by
//!    `⌈S/N⌉` and keys follow their slots.
//!
//! Shard ownership stays balanced within one slot after every operation, so
//! no shard can silently accumulate a disproportionate key range.
//!
//! Everything is a pure function of `(seed, operation sequence)`: no
//! randomness, no wall clock, no iteration-order dependence — the same
//! discipline as [`crate::faults`].

use std::collections::BTreeMap;
use std::fmt;

use hallu_obs::splitmix64;

use crate::sim::fnv1a;

/// Default slot count. Large enough that per-slot balance (±1 slot) keeps
/// per-shard key load within a few percent at cluster sizes of interest.
pub const DEFAULT_RING_SLOTS: usize = 512;

/// Membership errors. Typed so callers can distinguish a topology bug from
/// an empty ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingError {
    /// `add_shard` with an id already on the ring.
    DuplicateShard(u32),
    /// `remove_shard` with an id not on the ring.
    UnknownShard(u32),
}

impl fmt::Display for RingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RingError::DuplicateShard(s) => write!(f, "shard {s} is already on the ring"),
            RingError::UnknownShard(s) => write!(f, "shard {s} is not on the ring"),
        }
    }
}

impl std::error::Error for RingError {}

/// Which membership operation a [`RebalanceReport`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingOp {
    /// A shard joined the ring.
    Added,
    /// A shard left the ring.
    Removed,
}

/// What a membership change actually moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceReport {
    /// The shard that joined or left.
    pub shard: u32,
    /// The operation.
    pub op: RingOp,
    /// Slots whose owner changed.
    pub moved_slots: usize,
    /// Total slots on the ring.
    pub slot_count: usize,
    /// Shard count after the operation.
    pub shards_after: usize,
}

impl RebalanceReport {
    /// The bounded-rebalance contract, in slot space:
    /// adding the `N`-th shard moves at most `⌊S/N⌋` slots; removing one of
    /// `N` shards moves at most `⌈S/N⌉` (the departing shard's balanced
    /// ownership). The cluster asserts this after every topology change.
    pub fn within_bound(&self) -> bool {
        match self.op {
            RingOp::Added => self.moved_slots <= self.slot_count / self.shards_after.max(1),
            RingOp::Removed => self.moved_slots <= self.slot_count.div_ceil(self.shards_after + 1),
        }
    }
}

/// A fixed-slot consistent-hash ring with stateful, minimally-moving slot
/// ownership. See the module docs for the model.
#[derive(Debug, Clone, PartialEq)]
pub struct HashRing {
    seed: u64,
    /// Slot → owning shard (`None` only while the ring is empty).
    slots: Vec<Option<u32>>,
    /// Shard → owned slot indices, each ascending. Source of truth for
    /// load accounting; `slots` is the routing view of the same state.
    owned: BTreeMap<u32, Vec<usize>>,
}

impl HashRing {
    /// An empty ring of `slot_count` slots (clamped to at least 1),
    /// hashing keys with `seed`.
    pub fn new(seed: u64, slot_count: usize) -> Self {
        Self {
            seed,
            slots: vec![None; slot_count.max(1)],
            owned: BTreeMap::new(),
        }
    }

    /// A ring pre-populated with shards `0..shards`.
    pub fn with_shards(seed: u64, slot_count: usize, shards: u32) -> Self {
        let mut ring = Self::new(seed, slot_count);
        for s in 0..shards {
            // ids 0..shards are distinct by construction
            let _ = ring.add_shard(s);
        }
        ring
    }

    /// Total slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Current shard count.
    pub fn shard_count(&self) -> usize {
        self.owned.len()
    }

    /// Whether any shard is on the ring.
    pub fn is_empty(&self) -> bool {
        self.owned.is_empty()
    }

    /// Member shard ids, ascending.
    pub fn shards(&self) -> Vec<u32> {
        self.owned.keys().copied().collect()
    }

    /// Whether `shard` is on the ring.
    pub fn contains(&self, shard: u32) -> bool {
        self.owned.contains_key(&shard)
    }

    /// Slots currently owned by `shard` (0 for non-members).
    pub fn load(&self, shard: u32) -> usize {
        self.owned.get(&shard).map_or(0, Vec::len)
    }

    /// The slot `key` hashes to.
    pub fn key_slot(&self, key: &str) -> usize {
        (splitmix64(fnv1a(self.seed, &[key])) % self.slots.len() as u64) as usize
    }

    /// The shard responsible for `key` (`None` on an empty ring).
    pub fn shard_for(&self, key: &str) -> Option<u32> {
        self.slots[self.key_slot(key)]
    }

    /// The first `extra + 1` distinct shards encountered walking the ring
    /// forward from `key`'s slot: the primary first, then the successor
    /// shards a router spills or replicates to. Shorter than `extra + 1`
    /// when the ring has fewer shards; the successor set is disjoint from
    /// the primary by construction.
    pub fn route(&self, key: &str, extra: usize) -> Vec<u32> {
        let want = extra.saturating_add(1).min(self.owned.len());
        let mut out: Vec<u32> = Vec::with_capacity(want);
        if want == 0 {
            return out;
        }
        let start = self.key_slot(key);
        for i in 0..self.slots.len() {
            if let Some(owner) = self.slots[(start + i) % self.slots.len()] {
                if !out.contains(&owner) {
                    out.push(owner);
                    if out.len() == want {
                        break;
                    }
                }
            }
        }
        out
    }

    /// The next distinct shard after `key`'s primary — where an overloaded
    /// primary spills. `None` when fewer than two shards are up.
    pub fn spill_target(&self, key: &str) -> Option<u32> {
        self.route(key, 1).get(1).copied()
    }

    /// The shard that inherits most of `shard`'s keyspace if it leaves: for
    /// each slot `shard` owns, walk forward to the next slot owned by a
    /// different shard and tally the owner; the most frequent successor
    /// wins, ties broken by smallest id. This is the natural cross-shard
    /// cache-replication target — it is where failed-over keys re-route.
    /// `None` when `shard` is unknown or has no distinct successor.
    pub fn successor_of(&self, shard: u32) -> Option<u32> {
        let owned = self.owned.get(&shard)?;
        let mut tally: BTreeMap<u32, usize> = BTreeMap::new();
        for &slot in owned {
            for i in 1..self.slots.len() {
                if let Some(owner) = self.slots[(slot + i) % self.slots.len()] {
                    if owner != shard {
                        *tally.entry(owner).or_insert(0) += 1;
                        break;
                    }
                }
            }
        }
        tally
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(s, _)| s)
    }

    /// Add `shard`, stealing exactly `⌊S/N⌋` slots (N = new shard count)
    /// from the most-loaded members, highest slot index first. The first
    /// shard takes the whole ring.
    ///
    /// # Errors
    /// [`RingError::DuplicateShard`] if `shard` is already a member.
    pub fn add_shard(&mut self, shard: u32) -> Result<RebalanceReport, RingError> {
        if self.owned.contains_key(&shard) {
            return Err(RingError::DuplicateShard(shard));
        }
        let moved_slots = if self.owned.is_empty() {
            for slot in &mut self.slots {
                *slot = Some(shard);
            }
            self.owned.insert(shard, (0..self.slots.len()).collect());
            self.slots.len()
        } else {
            self.owned.insert(shard, Vec::new());
            let target = self.slots.len() / self.owned.len();
            for _ in 0..target {
                let Some(donor) = self.most_loaded_excluding(shard) else {
                    break;
                };
                let Some(slot) = self.owned.get_mut(&donor).and_then(Vec::pop) else {
                    break;
                };
                self.assign(slot, shard);
            }
            self.owned.get(&shard).map_or(0, Vec::len)
        };
        let report = RebalanceReport {
            shard,
            op: RingOp::Added,
            moved_slots,
            slot_count: self.slots.len(),
            shards_after: self.owned.len(),
        };
        debug_assert!(report.within_bound(), "add rebalance bound: {report:?}");
        Ok(report)
    }

    /// Remove `shard`, handing each of its slots (ascending index order) to
    /// the least-loaded survivor. Only the departing shard's keys move.
    ///
    /// # Errors
    /// [`RingError::UnknownShard`] if `shard` is not a member.
    pub fn remove_shard(&mut self, shard: u32) -> Result<RebalanceReport, RingError> {
        let Some(freed) = self.owned.remove(&shard) else {
            return Err(RingError::UnknownShard(shard));
        };
        let moved_slots = freed.len();
        for slot in freed {
            match self.least_loaded() {
                Some(heir) => self.assign(slot, heir),
                None => self.slots[slot] = None,
            }
        }
        let report = RebalanceReport {
            shard,
            op: RingOp::Removed,
            moved_slots,
            slot_count: self.slots.len(),
            shards_after: self.owned.len(),
        };
        debug_assert!(report.within_bound(), "remove rebalance bound: {report:?}");
        Ok(report)
    }

    /// Point `slot` at `owner`, keeping the ownership index sorted.
    fn assign(&mut self, slot: usize, owner: u32) {
        self.slots[slot] = Some(owner);
        if let Some(list) = self.owned.get_mut(&owner) {
            if let Err(pos) = list.binary_search(&slot) {
                list.insert(pos, slot);
            }
        }
    }

    /// Most-loaded member other than `except` (ties → smallest id).
    fn most_loaded_excluding(&self, except: u32) -> Option<u32> {
        self.owned
            .iter()
            .filter(|(&s, _)| s != except)
            .max_by(|(a, la), (b, lb)| la.len().cmp(&lb.len()).then(b.cmp(a)))
            .map(|(&s, _)| s)
    }

    /// Least-loaded member (ties → smallest id).
    fn least_loaded(&self) -> Option<u32> {
        self.owned
            .iter()
            .min_by(|(a, la), (b, lb)| la.len().cmp(&lb.len()).then(a.cmp(b)))
            .map(|(&s, _)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("question-{i}")).collect()
    }

    fn primaries(ring: &HashRing, keys: &[String]) -> Vec<Option<u32>> {
        keys.iter().map(|k| ring.shard_for(k.as_str())).collect()
    }

    #[test]
    fn empty_ring_routes_nothing() {
        let ring = HashRing::new(1, 64);
        assert!(ring.is_empty());
        assert_eq!(ring.shard_for("q"), None);
        assert_eq!(ring.route("q", 2), Vec::<u32>::new());
        assert_eq!(ring.spill_target("q"), None);
    }

    #[test]
    fn single_shard_owns_everything() {
        let ring = HashRing::with_shards(1, 64, 1);
        assert_eq!(ring.load(0), 64);
        for k in keys(50) {
            assert_eq!(ring.shard_for(&k), Some(0));
        }
    }

    #[test]
    fn successor_is_stable_and_distinct() {
        let ring = HashRing::with_shards(7, 256, 4);
        for s in ring.shards() {
            let succ = ring.successor_of(s).expect("4-shard ring has successors");
            assert_ne!(succ, s, "successor must be a different shard");
            assert_eq!(ring.successor_of(s), Some(succ), "deterministic");
        }
        let solo = HashRing::with_shards(7, 64, 1);
        assert_eq!(solo.successor_of(0), None, "no distinct successor");
        assert_eq!(solo.successor_of(9), None, "unknown shard");
    }

    #[test]
    fn key_to_slot_is_stable_and_seeded() {
        let a = HashRing::with_shards(7, 256, 4);
        let b = HashRing::with_shards(7, 256, 4);
        let c = HashRing::with_shards(8, 256, 4);
        let ks = keys(100);
        assert_eq!(
            primaries(&a, &ks),
            primaries(&b, &ks),
            "same seed, same map"
        );
        assert_ne!(
            primaries(&a, &ks),
            primaries(&c, &ks),
            "seed changes the map"
        );
    }

    #[test]
    fn balance_stays_within_one_slot_through_membership_churn() {
        let mut ring = HashRing::new(3, 512);
        for s in 0..9 {
            ring.add_shard(s).unwrap();
            let loads: Vec<usize> = ring.shards().iter().map(|&x| ring.load(x)).collect();
            let (min, max) = (loads.iter().min().unwrap(), loads.iter().max().unwrap());
            assert!(max - min <= 1, "after add {s}: {loads:?}");
        }
        for s in [4u32, 0, 7] {
            ring.remove_shard(s).unwrap();
            let loads: Vec<usize> = ring.shards().iter().map(|&x| ring.load(x)).collect();
            let (min, max) = (loads.iter().min().unwrap(), loads.iter().max().unwrap());
            assert!(max - min <= 1, "after remove {s}: {loads:?}");
        }
    }

    #[test]
    fn add_moves_at_most_one_nth_of_the_keyspace_to_the_new_shard() {
        let ks = keys(1024);
        let mut ring = HashRing::new(11, 512);
        for s in 0..7 {
            ring.add_shard(s).unwrap();
        }
        let before = primaries(&ring, &ks);
        let report = ring.add_shard(7).unwrap();
        let after = primaries(&ring, &ks);
        assert_eq!(report.moved_slots, 512 / 8, "exactly ⌊S/N⌋ slots move");
        assert!(report.within_bound());
        let mut moved_keys = 0usize;
        for (b, a) in before.iter().zip(&after) {
            if b != a {
                assert_eq!(*a, Some(7), "a moved key may only land on the new shard");
                moved_keys += 1;
            }
        }
        // Slot movement is exactly S/N here; with this seed the hashed key
        // movement lands at or under the K/N budget too.
        assert!(
            moved_keys <= ks.len() / 8,
            "moved {moved_keys} of {} keys, budget {}",
            ks.len(),
            ks.len() / 8
        );
    }

    #[test]
    fn remove_moves_only_the_departing_shards_keys() {
        let ks = keys(600);
        let mut ring = HashRing::with_shards(5, 256, 6);
        let before = primaries(&ring, &ks);
        let report = ring.remove_shard(2).unwrap();
        let after = primaries(&ring, &ks);
        assert!(report.within_bound());
        for (b, a) in before.iter().zip(&after) {
            if b != a {
                assert_eq!(*b, Some(2), "only keys of the removed shard move");
            }
            assert_ne!(*a, Some(2), "no key may still map to the removed shard");
        }
    }

    #[test]
    fn duplicate_and_unknown_shards_are_typed_errors() {
        let mut ring = HashRing::with_shards(1, 64, 2);
        assert_eq!(ring.add_shard(1), Err(RingError::DuplicateShard(1)));
        assert_eq!(ring.remove_shard(9), Err(RingError::UnknownShard(9)));
        assert_eq!(
            ring.remove_shard(9).unwrap_err().to_string(),
            "shard 9 is not on the ring"
        );
    }

    #[test]
    fn route_returns_distinct_shards_primary_first() {
        let ring = HashRing::with_shards(13, 256, 5);
        for k in keys(64) {
            let primary = ring.shard_for(&k).unwrap();
            let route = ring.route(&k, 2);
            assert_eq!(route.len(), 3);
            assert_eq!(route[0], primary);
            let mut sorted = route.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "route must be distinct: {route:?}");
            assert_eq!(ring.spill_target(&k), Some(route[1]));
        }
    }

    #[test]
    fn route_is_capped_by_membership() {
        let ring = HashRing::with_shards(13, 64, 2);
        let route = ring.route("q", 5);
        assert_eq!(route.len(), 2, "cannot route to more shards than exist");
    }

    proptest::proptest! {
        /// Ring invariants under arbitrary membership churn:
        /// - unrelated keys never move (stability),
        /// - adds move keys only onto the new shard, removes move only the
        ///   departing shard's keys,
        /// - slot movement respects the ⌈S/N⌉ rebalance bound exactly, and
        ///   key movement stays within twice the K/N budget (hash variance
        ///   over a finite key set),
        /// - ownership stays balanced within one slot,
        /// - routes are distinct and primary-first.
        #[test]
        fn membership_churn_preserves_ring_invariants(
            ops in proptest::collection::vec((0u8..2, 0u32..10), 1..40),
            seed in 0u64..1000,
        ) {
            let ks = keys(256);
            let mut ring = HashRing::new(seed, 128);
            for (kind, shard) in ops {
                let before = primaries(&ring, &ks);
                let n_before = ring.shard_count();
                let report = match kind {
                    0 => match ring.add_shard(shard) {
                        Ok(r) => r,
                        Err(RingError::DuplicateShard(_)) => continue,
                        Err(e) => panic!("unexpected {e}"),
                    },
                    _ => match ring.remove_shard(shard) {
                        Ok(r) => r,
                        Err(RingError::UnknownShard(_)) => continue,
                        Err(e) => panic!("unexpected {e}"),
                    },
                };
                let after = primaries(&ring, &ks);
                proptest::prop_assert!(report.within_bound(), "slot bound: {:?}", report);
                let mut moved_keys = 0usize;
                for (b, a) in before.iter().zip(&after) {
                    if b == a {
                        continue;
                    }
                    moved_keys += 1;
                    match report.op {
                        RingOp::Added => proptest::prop_assert_eq!(
                            *a, Some(shard), "moved keys must land on the new shard"
                        ),
                        RingOp::Removed => proptest::prop_assert_eq!(
                            *b, Some(shard), "only the removed shard's keys may move"
                        ),
                    }
                }
                // Key movement tracks slot movement: bounded by the K/N
                // budget with 2x slack for hash variance plus a small
                // additive floor for tiny clusters.
                let n = match report.op {
                    RingOp::Added => ring.shard_count(),
                    RingOp::Removed => n_before,
                };
                let budget = 2 * ks.len() / n.max(1) + 8;
                proptest::prop_assert!(
                    moved_keys <= budget,
                    "moved {} keys, budget {}", moved_keys, budget
                );
                if !ring.is_empty() {
                    let loads: Vec<usize> =
                        ring.shards().iter().map(|&x| ring.load(x)).collect();
                    let (min, max) =
                        (*loads.iter().min().unwrap(), *loads.iter().max().unwrap());
                    proptest::prop_assert!(max - min <= 1, "balance: {:?}", loads);
                    for k in ks.iter().take(16) {
                        let route = ring.route(k, 2);
                        proptest::prop_assert_eq!(route[0], ring.shard_for(k).unwrap());
                        let mut sorted = route.clone();
                        sorted.sort_unstable();
                        sorted.dedup();
                        proptest::prop_assert_eq!(sorted.len(), route.len());
                    }
                }
            }
        }
    }
}
