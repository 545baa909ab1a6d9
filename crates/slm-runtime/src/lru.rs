//! The bounded LRU map behind both of the crate's caches: each shard of the
//! verification cache and the prefix-snapshot cache.
//!
//! Entries are bucketed by a caller-computed hash; the caller's key
//! predicate resolves collisions, so a lookup builds no owned key. `get` and
//! `put` stamp their entry from a monotonic tick and `peek` does not. After
//! each `put`, the entry with the smallest stamp is evicted while either
//! bound is exceeded, so an entry whose charge alone exceeds the byte bound
//! is evicted by its own `put`. Replaced and evicted values drop inside the
//! call, under whatever lock the caller holds.

use std::collections::HashMap;

struct Entry<K, V> {
    key: K,
    value: V,
    bytes: usize,
    stamp: u64,
}

/// What one [`Lru::put`] did.
#[derive(Debug, PartialEq)]
pub(crate) struct Put {
    /// The key was resident; its value and charge were replaced in place.
    pub(crate) replaced: bool,
    /// Entries evicted to restore the bounds.
    pub(crate) evicted: u64,
}

/// A hash-bucketed map bounded by entry count and accounted bytes, evicting
/// the least recently used entry.
pub(crate) struct Lru<K, V> {
    buckets: HashMap<u64, Vec<Entry<K, V>>>,
    entries: usize,
    bytes: usize,
    /// Monotonic recency clock, bumped by every `get` and `put`.
    tick: u64,
    max_entries: usize,
    max_bytes: usize,
}

impl<K, V> Lru<K, V> {
    /// An empty map holding at most `max_entries` entries and `max_bytes`
    /// accounted bytes.
    pub(crate) fn new(max_entries: usize, max_bytes: usize) -> Self {
        Self {
            buckets: HashMap::new(),
            entries: 0,
            bytes: 0,
            tick: 0,
            max_entries,
            max_bytes,
        }
    }

    /// The value stored under `hash` whose key satisfies `is_key`, marked
    /// most recently used.
    pub(crate) fn get(&mut self, hash: u64, is_key: impl Fn(&K) -> bool) -> Option<&V> {
        self.tick += 1;
        let entry = self
            .buckets
            .get_mut(&hash)?
            .iter_mut()
            .find(|e| is_key(&e.key))?;
        entry.stamp = self.tick;
        Some(&entry.value)
    }

    /// Like [`Lru::get`], with recency untouched.
    pub(crate) fn peek(&self, hash: u64, is_key: impl Fn(&K) -> bool) -> Option<&V> {
        self.buckets
            .get(&hash)?
            .iter()
            .find(|e| is_key(&e.key))
            .map(|e| &e.value)
    }

    /// Store `value` charged `bytes` as the most recently used entry: in
    /// place when a key satisfying `is_key` is resident (no owned key is
    /// built), else under `make_key()`. Then evict least recently used
    /// entries while either bound is exceeded.
    pub(crate) fn put(
        &mut self,
        hash: u64,
        is_key: impl Fn(&K) -> bool,
        make_key: impl FnOnce() -> K,
        value: V,
        bytes: usize,
    ) -> Put {
        self.tick += 1;
        let stamp = self.tick;
        let bucket = self.buckets.entry(hash).or_default();
        let replaced = match bucket.iter_mut().find(|e| is_key(&e.key)) {
            Some(entry) => {
                entry.value = value;
                self.bytes = self.bytes - entry.bytes + bytes;
                entry.bytes = bytes;
                entry.stamp = stamp;
                true
            }
            None => {
                bucket.push(Entry {
                    key: make_key(),
                    value,
                    bytes,
                    stamp,
                });
                self.entries += 1;
                self.bytes += bytes;
                false
            }
        };
        let mut evicted = 0;
        while self.entries > self.max_entries || self.bytes > self.max_bytes {
            self.evict_lru();
            evicted += 1;
        }
        Put { replaced, evicted }
    }

    /// Remove the entry with the smallest stamp (stamps are unique).
    fn evict_lru(&mut self) {
        let (_, hash, pos) = self
            .buckets
            .iter()
            .flat_map(|(&hash, bucket)| {
                bucket
                    .iter()
                    .enumerate()
                    .map(move |(pos, entry)| (entry.stamp, hash, pos))
            })
            .min()
            .expect("a bound is exceeded only while entries remain");
        let bucket = self.buckets.get_mut(&hash).expect("the victim's bucket");
        let entry = bucket.remove(pos);
        if bucket.is_empty() {
            self.buckets.remove(&hash);
        }
        self.entries -= 1;
        self.bytes -= entry.bytes;
    }

    /// Resident entries.
    pub(crate) fn len(&self) -> usize {
        self.entries
    }

    /// Accounted bytes of the resident entries.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// Every resident `(key, value)`, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.buckets
            .values()
            .flatten()
            .map(|entry| (&entry.key, &entry.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys collide in pairs, so the key predicate is what tells them apart.
    fn hash(key: u8) -> u64 {
        u64::from(key / 2)
    }

    fn put(lru: &mut Lru<u8, u32>, key: u8, value: u32, bytes: usize) -> Put {
        lru.put(hash(key), |k| *k == key, || key, value, bytes)
    }

    fn resident(lru: &Lru<u8, u32>) -> Vec<(u8, u32)> {
        let mut out: Vec<(u8, u32)> = lru.iter().map(|(&k, &v)| (k, v)).collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn get_refreshes_recency_and_peek_does_not() {
        let mut lru = Lru::new(2, usize::MAX);
        put(&mut lru, 1, 10, 1);
        put(&mut lru, 2, 20, 1);
        assert_eq!(lru.get(hash(1), |k| *k == 1), Some(&10));
        assert_eq!(lru.peek(hash(2), |k| *k == 2), Some(&20));
        assert_eq!(put(&mut lru, 3, 30, 1).evicted, 1);
        assert_eq!(
            resident(&lru),
            [(1, 10), (3, 30)],
            "the entry hit by get survives; the one only peeked is the victim"
        );
    }

    /// The naive model: every resident entry as `(key, value, bytes,
    /// stamp)`, the victim found by a linear scan for the smallest stamp.
    #[derive(Default)]
    struct Model {
        entries: Vec<(u8, u32, usize, u64)>,
        tick: u64,
    }

    impl Model {
        fn find(&self, key: u8) -> Option<usize> {
            self.entries.iter().position(|e| e.0 == key)
        }

        fn bytes(&self) -> usize {
            self.entries.iter().map(|e| e.2).sum()
        }

        fn get(&mut self, key: u8) -> Option<u32> {
            self.tick += 1;
            let i = self.find(key)?;
            self.entries[i].3 = self.tick;
            Some(self.entries[i].1)
        }

        fn put(&mut self, key: u8, value: u32, bytes: usize, bounds: (usize, usize)) -> Put {
            self.tick += 1;
            let replaced = match self.find(key) {
                Some(i) => {
                    self.entries[i] = (key, value, bytes, self.tick);
                    true
                }
                None => {
                    self.entries.push((key, value, bytes, self.tick));
                    false
                }
            };
            let mut evicted = 0;
            while self.entries.len() > bounds.0 || self.bytes() > bounds.1 {
                let victim = (0..self.entries.len())
                    .min_by_key(|&i| self.entries[i].3)
                    .expect("a bound is exceeded only while entries remain");
                self.entries.remove(victim);
                evicted += 1;
            }
            Put { replaced, evicted }
        }
    }

    proptest::proptest! {
        /// Any sequence of gets, peeks and puts leaves the map holding
        /// exactly the naive model's entries under both bounds, and every
        /// call returns what the model predicts: the value read, whether a
        /// put replaced, and how many entries it evicted. Charges reach 24,
        /// above every byte bound drawn, and a put on a resident key grows
        /// or shrinks its charge in place.
        #[test]
        fn lru_matches_a_naive_model(
            max_entries in 1usize..5,
            max_bytes in 1usize..20,
            ops in proptest::collection::vec((0u8..3, 0u8..8, 0u32..1000, 0usize..25), 1..120),
        ) {
            let mut lru = Lru::new(max_entries, max_bytes);
            let mut model = Model::default();
            for (step, (op, k, v, b)) in ops.into_iter().enumerate() {
                match op {
                    0 => {
                        let got = lru.get(hash(k), |x| *x == k).copied();
                        proptest::prop_assert_eq!(got, model.get(k), "get at step {}", step);
                    }
                    1 => {
                        let want = model.find(k).map(|i| model.entries[i].1);
                        let got = lru.peek(hash(k), |x| *x == k).copied();
                        proptest::prop_assert_eq!(got, want, "peek at step {}", step);
                    }
                    _ => {
                        let want = model.put(k, v, b, (max_entries, max_bytes));
                        proptest::prop_assert_eq!(put(&mut lru, k, v, b), want, "put at step {}", step);
                    }
                }
                let mut want: Vec<(u8, u32)> = model.entries.iter().map(|e| (e.0, e.1)).collect();
                want.sort_unstable();
                proptest::prop_assert_eq!(resident(&lru), want, "entries at step {}", step);
                proptest::prop_assert_eq!(lru.len(), model.entries.len());
                proptest::prop_assert_eq!(lru.bytes(), model.bytes());
                proptest::prop_assert!(lru.len() <= max_entries);
                proptest::prop_assert!(lru.bytes() <= max_bytes);
            }
        }
    }
}
