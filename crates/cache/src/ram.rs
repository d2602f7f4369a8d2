//! The DRAM cache: an LRU over a slab-allocated doubly linked list.
//!
//! This is the "RAM Cache" of Figure 1: the hottest items live here, and
//! LRU evictions flow down to the flash engines. Size accounting is
//! logical (value length + configured per-item overhead) so experiments
//! can simulate tens-of-GB DRAM caches with synthetic values.
//!
//! ## Lock-free publication
//!
//! Every membership change is mirrored into a [`ReadIndex`] the cache
//! owns: concurrent readers resolve DRAM hits through that index with
//! no lock (DESIGN.md §5.1a). The slab holds the very `Arc<IndexEntry>`
//! the index links into its chains, so the key, value and access flag
//! live in one allocation. The locked [`RamCache::get`] keeps exact
//! LRU promotion; lock-free index hits instead set the entry's
//! `accessed` flag, and eviction grants flagged tail entries a second
//! chance (one rotation) before evicting — CLOCK-style approximation
//! only where lock-free reads actually happened, bit-identical to exact
//! LRU when they didn't.

use std::collections::HashMap;
use std::sync::Arc;

use crate::index::{IndexEntry, ReadIndex};
use crate::value::Value;
use crate::Key;

const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Node {
    /// Shared with the read index; carries the key and value.
    entry: Arc<IndexEntry>,
    charge: u64,
    prev: u32,
    next: u32,
}

/// An evicted item handed to the flash layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted key.
    pub key: Key,
    /// The evicted value.
    pub value: Value,
}

/// LRU DRAM cache with exact byte accounting.
#[derive(Debug)]
pub struct RamCache {
    map: HashMap<Key, u32>,
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
    used_bytes: u64,
    capacity_bytes: u64,
    item_overhead: u32,
    /// Lock-free publication surface; shared with `ConcurrentPool`.
    index: Arc<ReadIndex>,
    /// Cheap placeholder swapped into vacated slab slots so removed
    /// payloads are released immediately, not at slot reuse.
    tombstone: Arc<IndexEntry>,
}

impl RamCache {
    /// Creates a cache with the given byte budget and per-item overhead.
    pub fn new(capacity_bytes: u64, item_overhead: u32) -> Self {
        // Size the index for the resident item count a small-object
        // working set implies (~128 B/item is the profiles' mean).
        let hint = (capacity_bytes / 128).max(1) as usize;
        RamCache {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            used_bytes: 0,
            capacity_bytes,
            item_overhead,
            index: Arc::new(ReadIndex::with_capacity_hint(hint)),
            tombstone: IndexEntry::new(0, Value::Synthetic(0)),
        }
    }

    /// The lock-free read index this cache publishes into. Readers may
    /// probe it from any thread without the owning shard's lock.
    pub fn read_index(&self) -> &Arc<ReadIndex> {
        &self.index
    }

    /// Bytes currently accounted.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Configured byte budget.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Number of cached items.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn charge_of(&self, value: &Value) -> u64 {
        value.len() as u64 + self.item_overhead as u64
    }

    fn detach(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key`, promoting it to most-recently-used on hit.
    ///
    /// Zero-copy: the returned `Value` shares the stored one —
    /// `Value::Real` hits are an `Arc<[u8]>` refcount bump, never a
    /// byte copy (DESIGN.md §5.3).
    pub fn get(&mut self, key: Key) -> Option<Value> {
        let idx = *self.map.get(&key)?;
        self.detach(idx);
        self.attach_front(idx);
        Some(self.nodes[idx as usize].entry.value().clone())
    }

    /// Looks up without promoting (for stats probes).
    pub fn peek(&self, key: Key) -> Option<&Value> {
        let idx = *self.map.get(&key)?;
        Some(self.nodes[idx as usize].entry.value())
    }

    /// Inserts or replaces `key`, evicting LRU items as needed to stay
    /// within budget. Evicted items are returned oldest-first so the
    /// caller can push them to flash.
    ///
    /// An object larger than the whole budget is not cached: it is
    /// returned as if immediately evicted (flash-direct insertion).
    pub fn put(&mut self, key: Key, value: Value) -> Vec<Evicted> {
        let charge = self.charge_of(&value);
        let mut evicted = Vec::new();
        if charge > self.capacity_bytes {
            // The object bypasses DRAM entirely — but any older copy of
            // the key cached here would now be stale and must go.
            self.remove(key);
            evicted.push(Evicted { key, value });
            return evicted;
        }
        // Publish first (replaces any older index entry atomically for
        // lock-free readers); the shard lock hides the moment the local
        // structures lag behind.
        let entry = self.index.insert(key, value);
        // Replace in place if present.
        if let Some(&idx) = self.map.get(&key) {
            let old_charge = self.nodes[idx as usize].charge;
            self.used_bytes = self.used_bytes - old_charge + charge;
            self.nodes[idx as usize].entry = entry;
            self.nodes[idx as usize].charge = charge;
            self.detach(idx);
            self.attach_front(idx);
        } else {
            let node = Node { entry, charge, prev: NIL, next: NIL };
            let idx = match self.free.pop() {
                Some(i) => {
                    self.nodes[i as usize] = node;
                    i
                }
                None => {
                    self.nodes.push(node);
                    (self.nodes.len() - 1) as u32
                }
            };
            self.map.insert(key, idx);
            self.attach_front(idx);
            self.used_bytes += charge;
        }
        // Evict until within budget. A tail entry that lock-free
        // readers flagged since its last consideration gets one second
        // chance (rotate to front); the rotation budget bounds the
        // sweep so concurrent flagging can never livelock eviction.
        let mut chances = self.map.len();
        while self.used_bytes > self.capacity_bytes {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "over budget with empty list");
            let vkey = self.nodes[victim as usize].entry.key();
            if vkey == key {
                // Never evict the item we just inserted; budget check
                // above guarantees it fits alone.
                break;
            }
            if chances > 0 && self.nodes[victim as usize].entry.take_accessed() {
                self.detach(victim);
                self.attach_front(victim);
                chances -= 1;
                continue;
            }
            let removed = self.remove(vkey).expect("tail must be present");
            evicted.push(removed);
        }
        evicted
    }

    /// Removes `key`, returning it if present. Unpublishes the key from
    /// the read index first, so no lock-free reader can hit a value the
    /// locked structures no longer hold.
    pub fn remove(&mut self, key: Key) -> Option<Evicted> {
        let idx = self.map.remove(&key)?;
        self.index.remove(key);
        self.detach(idx);
        let node = &mut self.nodes[idx as usize];
        self.used_bytes -= node.charge;
        let entry = std::mem::replace(&mut node.entry, Arc::clone(&self.tombstone));
        self.free.push(idx);
        Some(Evicted { key, value: entry.value().clone() })
    }

    /// Internal consistency check for tests: list ↔ map agreement and
    /// exact byte accounting.
    ///
    /// # Panics
    ///
    /// Panics on any violated invariant.
    pub fn check_invariants(&self) {
        let mut seen = 0usize;
        let mut bytes = 0u64;
        let mut idx = self.head;
        let mut prev = NIL;
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            let key = n.entry.key();
            assert_eq!(n.prev, prev, "prev link broken at {key}");
            assert_eq!(self.map.get(&key), Some(&idx), "map missing {key}");
            bytes += n.charge;
            seen += 1;
            prev = idx;
            idx = n.next;
        }
        assert_eq!(prev, self.tail, "tail mismatch");
        assert_eq!(seen, self.map.len(), "list/map length mismatch");
        assert_eq!(bytes, self.used_bytes, "byte accounting mismatch");
        assert!(self.used_bytes <= self.capacity_bytes || self.map.len() <= 1);
        // The lock-free index mirrors membership exactly (peek, not
        // get, so the check never perturbs access flags).
        for (&key, &idx) in &self.map {
            let published = self
                .index
                .peek(key)
                .unwrap_or_else(|| panic!("key {key} resident but unpublished in the read index"));
            assert_eq!(
                &published,
                self.nodes[idx as usize].entry.value(),
                "read index publishes a different value for {key}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(n: u32) -> Value {
        Value::synthetic(n)
    }

    #[test]
    fn get_miss_then_hit() {
        let mut c = RamCache::new(1000, 0);
        assert!(c.get(1).is_none());
        c.put(1, val(10));
        assert_eq!(c.get(1).unwrap().len(), 10);
        c.check_invariants();
    }

    #[test]
    fn eviction_is_lru_order() {
        let mut c = RamCache::new(30, 0);
        c.put(1, val(10));
        c.put(2, val(10));
        c.put(3, val(10));
        // Touch 1 so 2 becomes LRU.
        c.get(1);
        let ev = c.put(4, val(10));
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].key, 2);
        c.check_invariants();
    }

    #[test]
    fn replace_updates_charge() {
        let mut c = RamCache::new(100, 0);
        c.put(1, val(40));
        c.put(1, val(10));
        assert_eq!(c.used_bytes(), 10);
        assert_eq!(c.len(), 1);
        c.check_invariants();
    }

    #[test]
    fn oversized_object_bypasses_ram() {
        let mut c = RamCache::new(10, 0);
        let ev = c.put(9, val(100));
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].key, 9);
        assert!(c.is_empty());
        c.check_invariants();
    }

    #[test]
    fn item_overhead_is_charged() {
        let mut c = RamCache::new(100, 30);
        c.put(1, val(10));
        assert_eq!(c.used_bytes(), 40);
        // Second 40-byte item fits; third evicts.
        c.put(2, val(10));
        let ev = c.put(3, val(10));
        assert_eq!(ev.len(), 1);
        c.check_invariants();
    }

    #[test]
    fn remove_returns_value() {
        let mut c = RamCache::new(100, 0);
        c.put(5, val(20));
        let e = c.remove(5).unwrap();
        assert_eq!(e.key, 5);
        assert_eq!(e.value.len(), 20);
        assert!(c.remove(5).is_none());
        assert_eq!(c.used_bytes(), 0);
        c.check_invariants();
    }

    #[test]
    fn multi_eviction_when_big_insert() {
        let mut c = RamCache::new(50, 0);
        for k in 0..5 {
            c.put(k, val(10));
        }
        let ev = c.put(100, val(40));
        assert_eq!(ev.len(), 4, "40-byte insert must evict four 10-byte items");
        // Oldest first.
        assert_eq!(ev[0].key, 0);
        c.check_invariants();
    }

    #[test]
    fn get_hands_back_the_stored_arc_without_copying() {
        let mut c = RamCache::new(1000, 0);
        let stored = Value::real(vec![7u8; 64]);
        let arc = stored.as_real().unwrap().clone();
        c.put(1, stored);
        let hit = c.get(1).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&arc, hit.as_real().unwrap()),
            "DRAM hit must share the inserted buffer (zero-copy)"
        );
    }

    #[test]
    fn peek_does_not_promote() {
        let mut c = RamCache::new(20, 0);
        c.put(1, val(10));
        c.put(2, val(10));
        c.peek(1);
        let ev = c.put(3, val(10));
        assert_eq!(ev[0].key, 1, "peek must not refresh LRU position");
    }

    #[test]
    fn slab_reuse_after_removal() {
        let mut c = RamCache::new(1000, 0);
        for k in 0..10 {
            c.put(k, val(10));
        }
        for k in 0..10 {
            c.remove(k);
        }
        for k in 10..20 {
            c.put(k, val(10));
        }
        assert_eq!(c.nodes.len(), 10, "slab slots must be reused");
        c.check_invariants();
    }

    #[test]
    fn index_mirrors_membership() {
        let mut c = RamCache::new(30, 0);
        c.put(1, val(10));
        c.put(2, val(10));
        assert_eq!(c.read_index().peek(1), Some(val(10)));
        c.put(1, val(15)); // replace: index must follow
        assert_eq!(c.read_index().peek(1), Some(val(15)));
        c.remove(2);
        assert_eq!(c.read_index().peek(2), None, "removed key still published");
        // Eviction unpublishes too.
        let ev = c.put(3, val(25));
        assert!(!ev.is_empty());
        for e in &ev {
            assert_eq!(c.read_index().peek(e.key), None, "evicted {} still published", e.key);
        }
        c.check_invariants();
    }

    #[test]
    fn flagged_tail_gets_a_second_chance() {
        let mut c = RamCache::new(30, 0);
        c.put(1, val(10));
        c.put(2, val(10));
        c.put(3, val(10));
        // A lock-free reader touches key 1 (the LRU tail) through the
        // index — no LRU promotion, only the accessed flag.
        assert_eq!(c.read_index().get(1), Some(val(10)));
        let ev = c.put(4, val(10));
        // Second chance: 1 is rotated to the front, 2 is evicted.
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].key, 2, "flagged tail must survive one round");
        assert!(c.peek(1).is_some());
        // The flag was consumed: the next eviction takes 3 (LRU), and
        // 1 only survives because it was rotated ahead of it.
        let ev = c.put(5, val(10));
        assert_eq!(ev[0].key, 3);
        c.check_invariants();
    }

    #[test]
    fn stress_random_ops_keep_invariants() {
        let mut c = RamCache::new(500, 5);
        let mut x = 88u64;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 50;
            match x % 4 {
                0 => {
                    c.get(k);
                }
                1 => {
                    c.remove(k);
                }
                _ => {
                    c.put(k, val((x % 60) as u32));
                }
            }
        }
        c.check_invariants();
    }
}
