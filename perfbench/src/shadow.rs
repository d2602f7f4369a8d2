//! The shadow of acknowledged writes that every GET hit is checked
//! against.
//!
//! One word per key slot: a lock bit, a 31-bit version and the length of
//! the last acknowledged SET (0 = never set or deleted). A SET holds the
//! slot's lock bit across its cache call, so SETs of one key from
//! different drivers reach the cache in the order the shadow records. A
//! GET reads the word before and after its cache call; if both reads are
//! equal and unlocked, no SET of that key overlapped the GET, and a hit
//! must return exactly the recorded length. Otherwise the GET raced a SET
//! and is counted as unchecked.
//!
//! Keys are `rank + epoch` (see `TraceGen`): a generator never requests
//! a key below its current epoch again, and a feed's fresh generator
//! starts again at key 0. The caller sizes `capacity` so that the keys
//! requested around any moment span fewer consecutive ids; slot
//! `key % capacity` is then never shared by two keys that can both be
//! requested.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use fdpcache_cache::Value;

const LOCK: u64 = 1 << 63;
const VERSION_ONE: u64 = 1 << 32;
const VERSION_MASK: u64 = !LOCK & !0xFFFF_FFFF;

/// What a checked GET found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Consistent with the last acknowledged SET.
    Ok,
    /// A SET of the same key overlapped the GET; not checked.
    Raced,
    /// A hit whose value disagrees with the shadow.
    Mismatch,
}

/// Shadow of the last acknowledged SET per key.
#[derive(Debug)]
pub struct Shadow {
    words: Vec<AtomicU64>,
}

impl Shadow {
    /// A shadow for a key population of `capacity` live ids.
    pub fn new(capacity: u64) -> Self {
        Shadow { words: (0..capacity.max(1)).map(|_| AtomicU64::new(0)).collect() }
    }

    fn slot(&self, key: u64) -> &AtomicU64 {
        &self.words[(key % self.words.len() as u64) as usize]
    }

    /// Runs a SET (or DELETE) of `key` under the slot lock. `f` returns
    /// the key's new length if the cache acknowledged a change, `None`
    /// if the cache refused it and kept the old value.
    pub fn write<R>(&self, key: u64, f: impl FnOnce() -> (R, Option<u32>)) -> R {
        let slot = self.slot(key);
        let mut spins = 0u32;
        let prior = loop {
            let w = slot.load(Ordering::Relaxed);
            if w & LOCK == 0
                && slot
                    .compare_exchange_weak(w, w | LOCK, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                break w;
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        };
        let (r, len) = f();
        let next = match len {
            Some(len) => {
                ((prior & VERSION_MASK).wrapping_add(VERSION_ONE) & VERSION_MASK) | len as u64
            }
            None => prior,
        };
        slot.store(next, Ordering::Release);
        r
    }

    /// Runs a GET of `key` and checks a hit against the shadow.
    pub fn read<R>(&self, key: u64, f: impl FnOnce() -> (R, Option<usize>)) -> (R, Check) {
        let slot = self.slot(key);
        let before = slot.load(Ordering::Acquire);
        let (r, hit_len) = f();
        fence(Ordering::Acquire);
        let after = slot.load(Ordering::Relaxed);
        let check = if before != after || before & LOCK != 0 {
            Check::Raced
        } else {
            match hit_len {
                None => Check::Ok,
                Some(len) if len as u64 == before & 0xFFFF_FFFF && len > 0 => Check::Ok,
                Some(_) => Check::Mismatch,
            }
        };
        (r, check)
    }

    /// The acknowledged length of `key` (0 = absent), read without
    /// synchronisation; only meaningful while no driver runs.
    pub fn len_of(&self, key: u64) -> u32 {
        (self.slot(key).load(Ordering::Acquire) & 0xFFFF_FFFF) as u32
    }
}

/// Whether a returned value carries the bytes a synthetic SET of this
/// key and length produces. Synthetic values are compared by length
/// (the cache hands back the acknowledged object itself); real byte
/// buffers are compared byte for byte.
pub fn value_matches(key: u64, value: &Value) -> bool {
    match value.as_real() {
        None => true,
        Some(bytes) => Value::synthetic(bytes.len() as u32).to_bytes(key)[..] == bytes[..],
    }
}
