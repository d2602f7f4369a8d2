//! Lock-free DRAM-hit read index (DESIGN.md §5.1a).
//!
//! [`ReadIndex`] is a fixed-bucket hash map from [`Key`] to
//! [`IndexEntry`] that supports **wait-free-in-practice reads from any
//! thread with no lock**, and single-writer mutations. It is the
//! publication surface of the shard's [`crate::ram::RamCache`]: the LRU
//! (still mutated under the shard mutex) publishes every membership
//! change here, and [`crate::ConcurrentPool::get`] probes it *before*
//! touching the mutex — a DRAM hit never serializes behind a writer.
//!
//! Node layout: an [`IndexEntry`] *is* its bucket chain's node — key,
//! `next` link, value and access flag in one `Arc` allocation, which
//! the chain and the `RamCache` slab share. A reader follows bucket →
//! entry and nothing else; a writer retires an unlinked entry by handing
//! the chain's `Arc` reference to the collector, which allocates nothing.
//!
//! Synchronization protocol:
//!
//! - Buckets are `AtomicPtr` chains of `Arc::into_raw` pointers; the
//!   chain owns one strong reference per linked entry. Readers pin an
//!   epoch ([`crossbeam::epoch`]), traverse with `Acquire` loads, clone
//!   the [`Value`] and unpin. The only store a reader can make is the
//!   entry's `accessed` flag (used by the LRU's second-chance eviction),
//!   and only when the flag is clear — a hot entry's line is written
//!   once per eviction round, not once per hit.
//! - The single writer (enforced by the shard mutex above; checked with
//!   a debug-only claim flag here) head-inserts with `Release` stores,
//!   unlinks replaced/removed entries, and retires them through its
//!   epoch guard. Retired entries are released only after a two-epoch
//!   grace period during which no reader remains pinned — a reader that
//!   loaded the pointer before the unlink can finish its traversal
//!   safely.
//! - Per key the chain holds at most one entry: insert unlinks any older
//!   duplicate behind the fresh head, so readers take the first match.
//!
//! Cache lines: the fields a reader loads (bucket array pointer, mask,
//! the collector's global epoch and slot array) never share a 64-byte
//! line with a field a writer stores to (the collector's garbage list
//! and retire counters, the writer claim); see `ReadIndex`'s layout.

use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::Arc;

use crossbeam::epoch::{Collector, Guard};

use crate::value::Value;
use crate::Key;

/// A published cache entry and its bucket-chain node: key, chain link,
/// value, and the read-side access flag the LRU's second-chance
/// eviction consumes.
#[derive(Debug)]
pub struct IndexEntry {
    key: Key,
    next: AtomicPtr<IndexEntry>,
    value: Value,
    accessed: AtomicBool,
}

impl IndexEntry {
    /// An entry that is in no index (a placeholder for vacated slots);
    /// published entries come from [`ReadIndex::insert`].
    pub(crate) fn new(key: Key, value: Value) -> Arc<Self> {
        Arc::new(IndexEntry {
            key,
            next: AtomicPtr::new(std::ptr::null_mut()),
            value,
            accessed: AtomicBool::new(false),
        })
    }

    /// The entry's key.
    pub fn key(&self) -> Key {
        self.key
    }

    /// The published value.
    pub fn value(&self) -> &Value {
        &self.value
    }

    /// Consumes the access flag (used by eviction: a flagged tail entry
    /// gets a second chance instead of eviction). Stores only when the
    /// flag is set.
    pub fn take_accessed(&self) -> bool {
        self.accessed.load(Ordering::Relaxed) && self.accessed.swap(false, Ordering::Relaxed)
    }

    /// Whether a lock-free reader touched this entry since the flag was
    /// last consumed.
    pub fn was_accessed(&self) -> bool {
        self.accessed.load(Ordering::Relaxed)
    }

    /// Test-before-set: a hit on an already-flagged entry leaves its
    /// line clean, so concurrent readers of a hot entry keep sharing it.
    fn mark_accessed(&self) {
        if !self.accessed.load(Ordering::Relaxed) {
            self.accessed.store(true, Ordering::Relaxed);
        }
    }
}

/// The lock-free reader-side hash index of one shard's DRAM cache.
///
/// `repr(C)` fixes the cache-line layout (the struct is 128-byte
/// aligned through the collector): `buckets` and `mask` on line 0, the
/// collector's reader fields on the next line and its writer fields on
/// their own, and the writer claim after the whole collector.
#[repr(C)]
pub struct ReadIndex {
    buckets: Box<[AtomicPtr<IndexEntry>]>,
    mask: u64,
    collector: Collector,
    /// Debug-only single-writer claim: mutations CAS this and panic on
    /// contention, catching callers that bypass the shard mutex.
    writer_claim: AtomicBool,
}

// SAFETY: the only non-`Send`/`Sync` state is the bucket chains' raw
// pointers. Each is an `Arc<IndexEntry>` (itself `Send + Sync`: a key,
// a `Value` and atomics) that the index owns, and they are dereferenced
// only under the epoch discipline in the module docs, so sharing or
// moving the index across threads is sound.
unsafe impl Send for ReadIndex {}
// SAFETY: see `Send` above; `&ReadIndex` mutates only through atomics,
// with writers serialized by the owning shard's mutex.
unsafe impl Sync for ReadIndex {}

impl std::fmt::Debug for ReadIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadIndex")
            .field("buckets", &self.buckets.len())
            .field("collector", &self.collector)
            .finish()
    }
}

/// splitmix64 finalizer — same family as the shard router, different
/// constant stream position is irrelevant here (only dispersion).
fn hash(key: Key) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ReadIndex {
    /// Creates an index sized for roughly `items` resident entries
    /// (buckets = next power of two ≥ items, clamped to [64, 65536]).
    pub fn with_capacity_hint(items: usize) -> Self {
        let buckets = items.clamp(64, 65_536).next_power_of_two();
        ReadIndex {
            buckets: (0..buckets).map(|_| AtomicPtr::new(std::ptr::null_mut())).collect(),
            mask: (buckets - 1) as u64,
            collector: Collector::new(),
            writer_claim: AtomicBool::new(false),
        }
    }

    fn bucket(&self, key: Key) -> &AtomicPtr<IndexEntry> {
        &self.buckets[(hash(key) & self.mask) as usize]
    }

    /// Walks `key`'s chain under a pin and applies `hit` to the first
    /// match while still pinned.
    fn find<R>(&self, key: Key, hit: impl FnOnce(&IndexEntry) -> R) -> Option<R> {
        let _guard = self.collector.pin();
        let mut p = self.bucket(key).load(Ordering::Acquire);
        // SAFETY: every non-null pointer reachable from a bucket is an
        // `Arc::into_raw` entry that was linked when this thread pinned
        // or later. An entry unlinked since then was retired at an epoch
        // no earlier than this pin, so the collector keeps its reference
        // (and the `next` it still holds) alive until `_guard` drops.
        while let Some(entry) = unsafe { p.as_ref() } {
            if entry.key == key {
                return Some(hit(entry));
            }
            p = entry.next.load(Ordering::Acquire);
        }
        None
    }

    /// Lock-free lookup. On a hit, marks the entry accessed (feeding
    /// the LRU's second-chance eviction) and returns a clone of the
    /// value — an `Arc` refcount bump, never a byte copy.
    pub fn get(&self, key: Key) -> Option<Value> {
        self.find(key, |entry| {
            entry.mark_accessed();
            entry.value.clone()
        })
    }

    /// Lock-free lookup that does **not** perturb the access flag —
    /// for invariant checks and tests that must not influence eviction.
    pub fn peek(&self, key: Key) -> Option<Value> {
        self.find(key, |entry| entry.value.clone())
    }

    /// Publishes `value` under `key`, replacing any previous entry (the
    /// older entry is unlinked and retired), and returns the published
    /// entry for the caller's own bookkeeping.
    ///
    /// Writer-side: the caller must hold the shard's write lock — all
    /// mutating calls must be mutually exclusive.
    pub fn insert(&self, key: Key, value: Value) -> Arc<IndexEntry> {
        let _claim = self.claim_writer();
        let guard = self.collector.pin();
        let bucket = self.bucket(key);
        let entry = IndexEntry::new(key, value);
        entry.next.store(bucket.load(Ordering::Acquire), Ordering::Relaxed);
        // Publish first (the `Release` store also publishes `next`):
        // readers arriving now find the fresh value at the head and stop
        // before any stale duplicate. The chain owns this clone.
        bucket.store(Arc::into_raw(Arc::clone(&entry)).cast_mut(), Ordering::Release);
        // Then unlink the shadowed duplicate, if any, behind the head.
        self.unlink(&entry.next, key, &guard);
        entry
    }

    /// Unpublishes `key`; returns whether an entry was present. Same
    /// writer-side contract as [`ReadIndex::insert`].
    pub fn remove(&self, key: Key) -> bool {
        let _claim = self.claim_writer();
        let guard = self.collector.pin();
        self.unlink(self.bucket(key), key, &guard)
    }

    /// Unlinks the first entry keyed `key` at or after `*link` and
    /// retires the chain's reference to it through `guard`.
    fn unlink(&self, mut link: &AtomicPtr<IndexEntry>, key: Key, guard: &Guard<'_>) -> bool {
        let mut p = link.load(Ordering::Acquire);
        // SAFETY: the caller is the single writer and pinned, so every
        // linked entry is alive (the chain holds a reference) and no one
        // else unlinks concurrently.
        while let Some(entry) = unsafe { p.as_ref() } {
            if entry.key == key {
                link.store(entry.next.load(Ordering::Acquire), Ordering::Release);
                // SAFETY: `p` came from `Arc::into_raw` in `insert` and
                // stood for the chain's one reference; now unlinked, that
                // reference moves to the collector exactly once.
                guard.defer_drop_arc(unsafe { Arc::from_raw(p) });
                return true;
            }
            link = &entry.next;
            p = link.load(Ordering::Acquire);
        }
        false
    }

    /// Runs an epoch-reclamation sweep (also triggered automatically
    /// every few dozen retires). Exposed so tests can assert bounded
    /// garbage.
    pub fn collect(&self) {
        self.collector.collect();
    }

    /// Retired entries still awaiting their grace period.
    pub fn garbage_len(&self) -> usize {
        self.collector.garbage_len()
    }

    /// Total entries ever retired (replaced or removed).
    pub fn retired_total(&self) -> u64 {
        self.collector.retired_total()
    }

    fn claim_writer(&self) -> WriterClaim<'_> {
        debug_assert!(
            !self.writer_claim.swap(true, Ordering::Acquire),
            "ReadIndex writer methods called concurrently — the shard mutex must serialize them"
        );
        WriterClaim(&self.writer_claim)
    }
}

struct WriterClaim<'a>(&'a AtomicBool);

impl Drop for WriterClaim<'_> {
    fn drop(&mut self) {
        if cfg!(debug_assertions) {
            self.0.store(false, Ordering::Release);
        }
    }
}

impl Drop for ReadIndex {
    fn drop(&mut self) {
        // Exclusive access (`&mut self`): no readers remain, so the
        // chains' references can be released directly. Retired entries
        // are *not* in the chains anymore; the collector releases them
        // when it drops.
        for bucket in self.buckets.iter() {
            let mut p = bucket.swap(std::ptr::null_mut(), Ordering::Relaxed);
            while !p.is_null() {
                // SAFETY: `p` is a linked entry's `Arc::into_raw`
                // pointer; with the bucket detached, this is the only
                // release of the chain's reference.
                let entry = unsafe { Arc::from_raw(p) };
                p = entry.next.load(Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn real(byte: u8) -> Arc<[u8]> {
        vec![byte; 64].into()
    }

    #[test]
    fn insert_get_replace_remove_roundtrip() {
        let idx = ReadIndex::with_capacity_hint(128);
        assert_eq!(idx.get(7), None);
        idx.insert(7, Value::synthetic(100));
        assert_eq!(idx.get(7), Some(Value::synthetic(100)));
        // Replace: readers see the new value; the old entry is retired.
        idx.insert(7, Value::synthetic(200));
        assert_eq!(idx.get(7), Some(Value::synthetic(200)));
        assert_eq!(idx.retired_total(), 1);
        assert!(idx.remove(7));
        assert!(!idx.remove(7));
        assert_eq!(idx.get(7), None);
        assert_eq!(idx.retired_total(), 2);
    }

    #[test]
    fn colliding_keys_coexist_in_one_bucket() {
        let idx = ReadIndex::with_capacity_hint(1); // clamps to 64 buckets
                                                    // Insert enough keys that several share buckets.
        for k in 0..512u64 {
            idx.insert(k, Value::synthetic(k as u32 + 1));
        }
        for k in 0..512u64 {
            assert_eq!(idx.get(k), Some(Value::synthetic(k as u32 + 1)), "key {k}");
        }
        assert!(idx.remove(300));
        assert_eq!(idx.get(300), None);
        assert_eq!(idx.get(301), Some(Value::synthetic(302)));
    }

    #[test]
    fn get_marks_accessed_and_peek_does_not() {
        let idx = ReadIndex::with_capacity_hint(64);
        let entry = idx.insert(1, Value::synthetic(10));
        assert_eq!(entry.key(), 1);
        assert!(!entry.was_accessed());
        assert!(!entry.take_accessed(), "a clear flag has nothing to take");
        idx.peek(1);
        assert!(!entry.was_accessed(), "peek must not perturb the flag");
        idx.get(1);
        idx.get(1);
        assert!(entry.was_accessed(), "a set flag stays set across hits");
        assert!(entry.take_accessed());
        assert!(!entry.was_accessed(), "take must consume the flag");
    }

    #[test]
    fn real_payloads_share_the_arc() {
        let idx = ReadIndex::with_capacity_hint(64);
        let bytes = real(7);
        idx.insert(9, Value::Real(Arc::clone(&bytes)));
        match idx.get(9) {
            Some(Value::Real(b)) => assert!(Arc::ptr_eq(&b, &bytes), "must be zero-copy"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn the_published_entry_is_the_chain_node() {
        let idx = ReadIndex::with_capacity_hint(64);
        let entry = idx.insert(4, Value::synthetic(8));
        // One reference for the caller, one owned by the chain.
        assert_eq!(Arc::strong_count(&entry), 2);
        idx.get(4);
        assert!(entry.was_accessed(), "the reader flagged the caller's own entry");
        assert!(idx.remove(4));
        for _ in 0..4 {
            idx.collect();
        }
        assert_eq!(Arc::strong_count(&entry), 1, "the retired chain reference must be released");
    }

    #[test]
    fn replaced_and_removed_entries_release_their_payloads() {
        let idx = ReadIndex::with_capacity_hint(64);
        let (old, new) = (real(1), real(2));
        idx.insert(3, Value::Real(Arc::clone(&old)));
        assert_eq!(Arc::strong_count(&old), 2);
        idx.insert(3, Value::Real(Arc::clone(&new)));
        assert_eq!(idx.retired_total(), 1);
        assert!(idx.remove(3));
        assert_eq!(idx.retired_total(), 2);
        // Pinned by nobody: the grace period ends within a few sweeps.
        for _ in 0..4 {
            idx.collect();
        }
        assert_eq!(idx.garbage_len(), 0);
        assert_eq!(Arc::strong_count(&old), 1, "replaced payload leaked");
        assert_eq!(Arc::strong_count(&new), 1, "removed payload leaked");
    }

    #[test]
    fn retired_entries_outlive_a_pinned_reader() {
        let idx = ReadIndex::with_capacity_hint(64);
        let bytes = real(5);
        idx.insert(6, Value::Real(Arc::clone(&bytes)));
        let reader = idx.collector.pin();
        assert!(idx.remove(6));
        for _ in 0..4 {
            idx.collect();
        }
        assert_eq!(Arc::strong_count(&bytes), 2, "released while a reader was pinned");
        drop(reader);
        for _ in 0..4 {
            idx.collect();
        }
        assert_eq!(Arc::strong_count(&bytes), 1);
    }

    #[test]
    fn drop_releases_live_chains() {
        let bytes = real(9);
        let idx = ReadIndex::with_capacity_hint(1);
        // 256 keys over 64 buckets: chains several entries deep.
        for k in 0..256u64 {
            idx.insert(k, Value::Real(Arc::clone(&bytes)));
        }
        assert_eq!(Arc::strong_count(&bytes), 257);
        drop(idx);
        assert_eq!(Arc::strong_count(&bytes), 1, "dropping the index leaked linked entries");
    }

    #[test]
    fn churn_garbage_is_bounded_and_drains() {
        let idx = ReadIndex::with_capacity_hint(64);
        for round in 0..2_000u32 {
            idx.insert(5, Value::synthetic(round));
        }
        // 1999 replacements retired; automatic sweeps (every 64
        // retires, with no readers pinned) keep the backlog bounded.
        assert_eq!(idx.retired_total(), 1_999);
        assert!(idx.garbage_len() < 256, "backlog {} not bounded", idx.garbage_len());
        for _ in 0..4 {
            idx.collect();
        }
        assert_eq!(idx.garbage_len(), 0, "quiescent garbage must drain");
        assert_eq!(idx.get(5), Some(Value::synthetic(1_999)));
    }

    #[test]
    fn concurrent_readers_see_every_published_value() {
        let idx = ReadIndex::with_capacity_hint(64);
        let stop = AtomicBool::new(false);
        idx.insert(1, Value::synthetic(1));
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        let v = idx.get(1).expect("key 1 is always published");
                        assert!(matches!(v, Value::Synthetic(n) if n >= 1));
                    }
                });
            }
            for n in 2..3_000u32 {
                idx.insert(1, Value::synthetic(n));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(idx.retired_total(), 2_998);
    }

    #[test]
    fn reader_fields_never_share_a_line_with_writer_fields() {
        use std::mem::{align_of, offset_of, size_of};
        const LINE: usize = 64;
        let line = |offset: usize| offset / LINE;
        assert!(align_of::<ReadIndex>() >= LINE, "lines must start at the struct's base");
        // Line 0: what every lookup loads before the collector.
        let mask_end = offset_of!(ReadIndex, mask) + size_of::<u64>() - 1;
        assert_eq!(line(offset_of!(ReadIndex, buckets)), 0);
        assert_eq!(line(mask_end), 0);
        // The collector starts a fresh line (its own test pins its
        // reader/writer split), and the writer claim follows all of it.
        let collector = offset_of!(ReadIndex, collector);
        assert_eq!(collector % LINE, 0);
        assert!(line(collector) > line(mask_end));
        assert!(offset_of!(ReadIndex, writer_claim) >= collector + size_of::<Collector>());
        // An entry's chain walk (key, next) stays within one allocation.
        assert!(size_of::<IndexEntry>() <= LINE);
    }
}
