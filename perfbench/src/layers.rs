//! Traced clients: the same calls as the plain clients, timed at each
//! layer boundary the program exposes publicly.
//!
//! * `ConcurrentPool::get` is replayed from its parts: the lock-free
//!   `ReadIndex` probe plus `ReadSideStats::record_ram_hit`, and on a
//!   probe miss `with_shard` + `HybridCache::get`. `with_shard` +
//!   `HybridCache::put` is exactly `ConcurrentPool::put`. The time from
//!   calling `with_shard` to entering its closure is the shard-lock wait.
//! * `HybridCache` calls are classified by `GetOutcome` and by whether
//!   `CacheStats::nvm_insert_attempts` moved (the call pushed DRAM
//!   evictions to flash).
//! * Store time inside a call comes from the `TimingStore` tallies of the
//!   calling thread; a flash-touching call's own time minus its store
//!   time is the flash stack's self time (SOC/LOC + `IoManager` +
//!   controller + FTL).

use std::sync::Arc;
use std::time::Instant;

use fdpcache_cache::builder::{build_device, StoreKind};
use fdpcache_cache::{
    CacheConfig, CacheError, ConcurrentPool, GetOutcome, HybridCache, NvmConfig, ReadIndex,
    ReadSideStats, Value,
};
use fdpcache_core::RoundRobinPolicy;
use fdpcache_ftl::FtlConfig;

use crate::drive::Client;
use crate::timing::thread_store_ns;

/// Per-layer time and counts gathered by one traced driver.
#[derive(Debug, Default, Clone, Copy)]
#[allow(missing_docs)]
pub struct LayerAcc {
    /// Wall ns inside all timed entry-point calls.
    pub op_ns: u64,
    pub ram_hit_ns: u64,
    pub ram_hits: u64,
    pub lock_wait_ns: u64,
    pub locked_ops: u64,
    pub put_ram_ns: u64,
    pub put_ram: u64,
    pub put_flash_ns: u64,
    pub put_flash: u64,
    pub get_ram_ns: u64,
    pub get_ram: u64,
    pub get_miss_ns: u64,
    pub get_miss: u64,
    pub get_soc_ns: u64,
    pub get_soc: u64,
    pub get_loc_ns: u64,
    pub get_loc: u64,
    pub inserts_on_puts: u64,
    pub inserts_on_flash_hits: u64,
    pub flash_self_ns: u64,
    pub flash_ops: u64,
}

impl LayerAcc {
    /// Field-wise sum.
    pub fn add(&mut self, o: &LayerAcc) {
        macro_rules! sum {
            ($($f:ident),*) => { $( self.$f += o.$f; )* };
        }
        sum!(
            op_ns,
            ram_hit_ns,
            ram_hits,
            lock_wait_ns,
            locked_ops,
            put_ram_ns,
            put_ram,
            put_flash_ns,
            put_flash,
            get_ram_ns,
            get_ram,
            get_miss_ns,
            get_miss,
            get_soc_ns,
            get_soc,
            get_loc_ns,
            get_loc,
            inserts_on_puts,
            inserts_on_flash_hits,
            flash_self_ns,
            flash_ops
        );
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A traced `HybridCache::get`; returns the call's wall ns.
fn traced_get(
    c: &mut HybridCache,
    key: u64,
    acc: &mut LayerAcc,
) -> (Result<(GetOutcome, Option<Value>), CacheError>, u64) {
    let attempts = c.stats().nvm_insert_attempts;
    let store0 = thread_store_ns();
    let t0 = Instant::now();
    let r = c.get(key);
    let ns = ns_since(t0);
    let store = thread_store_ns() - store0;
    let inserts = c.stats().nvm_insert_attempts - attempts;
    if let Ok((outcome, _)) = &r {
        let (sum, n) = match outcome {
            GetOutcome::RamHit => (&mut acc.get_ram_ns, &mut acc.get_ram),
            GetOutcome::SocHit => (&mut acc.get_soc_ns, &mut acc.get_soc),
            GetOutcome::LocHit => (&mut acc.get_loc_ns, &mut acc.get_loc),
            GetOutcome::Miss => (&mut acc.get_miss_ns, &mut acc.get_miss),
        };
        *sum += ns;
        *n += 1;
        if matches!(outcome, GetOutcome::SocHit | GetOutcome::LocHit) {
            acc.inserts_on_flash_hits += inserts;
        }
        if *outcome != GetOutcome::RamHit || inserts > 0 {
            acc.flash_self_ns += ns.saturating_sub(store);
            acc.flash_ops += 1;
        }
    }
    (r, ns)
}

/// A traced `HybridCache::put`; returns the call's wall ns.
fn traced_put(
    c: &mut HybridCache,
    key: u64,
    value: Value,
    acc: &mut LayerAcc,
) -> (Result<(), CacheError>, u64) {
    let attempts = c.stats().nvm_insert_attempts;
    let store0 = thread_store_ns();
    let t0 = Instant::now();
    let r = c.put(key, value);
    let ns = ns_since(t0);
    let store = thread_store_ns() - store0;
    let inserts = c.stats().nvm_insert_attempts - attempts;
    if r.is_ok() {
        acc.inserts_on_puts += inserts;
        if inserts > 0 {
            acc.put_flash_ns += ns;
            acc.put_flash += 1;
            acc.flash_self_ns += ns.saturating_sub(store);
            acc.flash_ops += 1;
        } else {
            acc.put_ram_ns += ns;
            acc.put_ram += 1;
        }
    }
    (r, ns)
}

/// A traced `HybridCache::delete`; returns the call's wall ns.
fn traced_delete(c: &mut HybridCache, key: u64) -> (Result<bool, CacheError>, u64) {
    let t0 = Instant::now();
    let r = c.delete(key);
    (r, ns_since(t0))
}

/// The virtual host ns `ConcurrentPool::get` charges per lock-free DRAM
/// hit, read off a one-shard pool so the traced replay of that path
/// accrues exactly what the pool itself would.
pub fn lock_free_hit_host_ns() -> u64 {
    let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, true)
        .expect("calibration device must build");
    let config = CacheConfig {
        ram_bytes: 1 << 16,
        ram_item_overhead: 0,
        nvm: NvmConfig { soc_fraction: 0.2, region_bytes: 8 * 4096, ..NvmConfig::default() },
        use_fdp: true,
    };
    let pool = ConcurrentPool::new(&ctrl, &config, 1, 0.9, || Box::new(RoundRobinPolicy::new()))
        .expect("calibration pool must build");
    pool.put(1, Value::synthetic(8)).expect("calibration put");
    let stats = pool.with_shard(0, |c| c.read_stats()).expect("shard 0");
    let before = stats.host_ns();
    let (outcome, _) = pool.get(1).expect("calibration get");
    assert_eq!(outcome, GetOutcome::RamHit, "calibration key must be a DRAM hit");
    stats.host_ns() - before
}

/// Lock-free read handles of every pool shard.
#[derive(Debug, Clone)]
pub struct ReadPath {
    index: Vec<Arc<ReadIndex>>,
    stats: Vec<Arc<ReadSideStats>>,
    host_ns: u64,
}

impl ReadPath {
    /// Clones the shards' read handles out of `pool`.
    pub fn of(pool: &ConcurrentPool, host_ns: u64) -> ReadPath {
        let (index, stats) = (0..pool.shards())
            .map(|i| pool.with_shard(i, |c| (c.read_index(), c.read_stats())).expect("shard"))
            .unzip();
        ReadPath { index, stats, host_ns }
    }
}

/// Traced driver over a shared pool.
#[derive(Debug)]
pub struct TracedPool<'a> {
    /// The pool.
    pub pool: &'a ConcurrentPool,
    /// Its lock-free read handles.
    pub read: &'a ReadPath,
    /// What this driver measured.
    pub acc: LayerAcc,
}

impl TracedPool<'_> {
    fn locked<R>(&mut self, key: u64, f: impl FnOnce(&mut HybridCache, &mut LayerAcc) -> R) -> R {
        let acc = &mut self.acc;
        let t0 = Instant::now();
        self.pool
            .with_shard(self.pool.shard_of(key), |c| {
                acc.lock_wait_ns += ns_since(t0);
                acc.locked_ops += 1;
                f(c, acc)
            })
            .expect("key routes to an existing shard")
    }
}

impl Client for TracedPool<'_> {
    fn get(&mut self, key: u64) -> Result<(GetOutcome, Option<Value>), CacheError> {
        let shard = self.pool.shard_of(key);
        let t0 = Instant::now();
        if let Some(v) = self.read.index[shard].get(key) {
            self.read.stats[shard].record_ram_hit(self.read.host_ns);
            let ns = ns_since(t0);
            self.acc.ram_hit_ns += ns;
            self.acc.ram_hits += 1;
            self.acc.op_ns += ns;
            return Ok((GetOutcome::RamHit, Some(v)));
        }
        let r = self.locked(key, |c, acc| traced_get(c, key, acc).0);
        self.acc.op_ns += ns_since(t0);
        r
    }

    fn put(&mut self, key: u64, value: Value) -> Result<(), CacheError> {
        let t0 = Instant::now();
        let r = self.locked(key, |c, acc| traced_put(c, key, value, acc).0);
        self.acc.op_ns += ns_since(t0);
        r
    }

    fn delete(&mut self, key: u64) -> Result<bool, CacheError> {
        let t0 = Instant::now();
        let r = self.locked(key, |c, _| traced_delete(c, key).0);
        self.acc.op_ns += ns_since(t0);
        r
    }
}

/// Traced driver over one cache instance.
#[derive(Debug)]
pub struct TracedSingle<'a> {
    /// The cache.
    pub cache: &'a mut HybridCache,
    /// What this driver measured.
    pub acc: LayerAcc,
}

impl Client for TracedSingle<'_> {
    fn get(&mut self, key: u64) -> Result<(GetOutcome, Option<Value>), CacheError> {
        let (r, ns) = traced_get(self.cache, key, &mut self.acc);
        self.acc.op_ns += ns;
        r
    }

    fn put(&mut self, key: u64, value: Value) -> Result<(), CacheError> {
        let (r, ns) = traced_put(self.cache, key, value, &mut self.acc);
        self.acc.op_ns += ns;
        r
    }

    fn delete(&mut self, key: u64) -> Result<bool, CacheError> {
        let (r, ns) = traced_delete(self.cache, key);
        self.acc.op_ns += ns;
        r
    }
}
