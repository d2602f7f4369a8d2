//! Builds a workload's stack through the program's public builders and
//! reads its counters.

use std::sync::Arc;

use fdpcache_cache::builder::{build_cache, create_namespace, StoreKind};
use fdpcache_cache::{CacheStats, ConcurrentPool, HybridCache};
use fdpcache_core::{IoStats, RoundRobinPolicy, SharedController};
use fdpcache_ftl::{FtlStats, RuhId};
use fdpcache_metrics::Histogram;
use fdpcache_nvme::{Controller, DataStore, FdpStatsLog, MemStore, NullStore};

use crate::spec::{Spec, Topology};
use crate::timing::{TimingShared, TimingStore};

/// The cache tier the drivers call.
#[derive(Debug)]
pub enum Tier {
    /// A sharded concurrent pool.
    Pool(ConcurrentPool),
    /// One hybrid cache instance.
    Single(Box<HybridCache>),
}

/// A built stack: controller, cache tier and (when traced) the store
/// decorator's shared state.
#[derive(Debug)]
pub struct Stack {
    /// The simulated device.
    pub ctrl: SharedController,
    /// The cache tier.
    pub tier: Tier,
    /// Present when the store is wrapped in a [`TimingStore`].
    pub timing: Option<Arc<TimingShared>>,
    /// Total namespace bytes under the cache tier.
    pub ns_bytes: u64,
}

/// SOC and LOC counters summed over shards (the fields the benchmark
/// reports).
#[derive(Debug, Default, Clone, Copy)]
#[allow(missing_docs)]
pub struct EngineCounters {
    pub soc_lookups: u64,
    pub soc_hits: u64,
    pub soc_bloom_rejects: u64,
    pub soc_inserts: u64,
    pub soc_page_writes: u64,
    pub soc_rmw_reads: u64,
    pub soc_collision_evictions: u64,
    pub loc_lookups: u64,
    pub loc_hits: u64,
    pub loc_seals: u64,
    pub loc_region_evictions: u64,
    pub loc_app_bytes: u64,
}

/// A point-in-time view of every counter the benchmark differences.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    /// Cache counters (pool-merged).
    pub cache: CacheStats,
    /// Engine counters.
    pub engines: EngineCounters,
    /// Queue-pair I/O counters (merged).
    pub io: IoStats,
    /// `(device bytes written, application bytes)` behind ALWA.
    pub amp: (u64, u64),
    /// FDP statistics log page.
    pub fdp: FdpStatsLog,
    /// FTL counters.
    pub ftl: FtlStats,
}

/// `after - before` of the summed IoStats fields the benchmark reports.
pub fn io_delta(after: &IoStats, before: &IoStats) -> IoStats {
    IoStats {
        writes: after.writes - before.writes,
        reads: after.reads - before.reads,
        discards: after.discards - before.discards,
        bytes_written: after.bytes_written - before.bytes_written,
        bytes_read: after.bytes_read - before.bytes_read,
        bytes_discarded: after.bytes_discarded - before.bytes_discarded,
        faults: after.faults - before.faults,
        ..IoStats::default()
    }
}

impl Stack {
    /// Builds `spec`'s stack on a payload store passed through `wrap`
    /// (the benchmark's tests inject a corrupting store there). With
    /// `timed`, the store is wrapped in a [`TimingStore`]; on a device
    /// with FDP off it also records the command stream for the FTL
    /// replay.
    pub fn build_with(
        spec: &Spec,
        seed: u64,
        timed: bool,
        wrap: impl FnOnce(Box<dyn DataStore>) -> Box<dyn DataStore>,
    ) -> Stack {
        let ftl = spec.ftl_config(seed);
        let store: Box<dyn DataStore> = match spec.store {
            StoreKind::Mem => Box::new(MemStore::new()),
            StoreKind::Null => Box::new(NullStore),
        };
        let store = wrap(store);
        let (store, timing): (Box<dyn DataStore>, _) = if timed {
            let (s, shared) = TimingStore::new(store, !spec.fdp);
            (Box::new(s), Some(shared))
        } else {
            (store, None)
        };
        let num_ruhs = ftl.num_ruhs;
        let ctrl = Controller::new(ftl, store).expect("benchmark device must build");
        ctrl.set_fdp_enabled(spec.fdp);
        let ctrl: SharedController = Arc::new(ctrl);
        let exported = ctrl.with_ftl(|f| f.exported_lbas()) * ctrl.lba_bytes() as u64;
        let (tier, ns_bytes) = match spec.topology {
            Topology::Pool { shards } => {
                let ns_total = (exported as f64 * spec.utilization) as u64;
                let pool = ConcurrentPool::new(
                    &ctrl,
                    &spec.cache_config(ns_total),
                    shards,
                    spec.utilization,
                    || Box::new(RoundRobinPolicy::new()),
                )
                .expect("benchmark pool must build");
                let ns = (0..shards)
                    .map(|i| pool.with_shard(i, |c| c.navy().io().capacity_bytes()).unwrap_or(0))
                    .sum();
                (Tier::Pool(pool), ns)
            }
            Topology::Single => {
                // `build_stack`'s recipe, on the store chosen above.
                let ruhs: Vec<RuhId> = (0..num_ruhs).collect();
                let nsid = create_namespace(&ctrl, spec.utilization, ruhs)
                    .expect("benchmark namespace must fit");
                let ns_total = ctrl
                    .namespace(nsid)
                    .map(|n| n.capacity_bytes(ctrl.lba_bytes()))
                    .expect("namespace exists");
                let cache = build_cache(
                    &ctrl,
                    nsid,
                    &spec.cache_config(ns_total),
                    Box::new(RoundRobinPolicy::new()),
                )
                .expect("benchmark cache must build");
                (Tier::Single(Box::new(cache)), ns_total)
            }
        };
        Stack { ctrl, tier, timing, ns_bytes }
    }

    /// Runs `f` on every `HybridCache` of the tier, one at a time.
    pub fn each_cache(&mut self, mut f: impl FnMut(&mut HybridCache)) {
        match &mut self.tier {
            Tier::Pool(p) => {
                for i in 0..p.shards() {
                    p.with_shard(i, &mut f);
                }
            }
            Tier::Single(c) => f(c),
        }
    }

    /// Runs `f` on the `HybridCache` that owns `key`.
    pub fn with_cache_of<R>(&mut self, key: u64, f: impl FnOnce(&mut HybridCache) -> R) -> R {
        match &mut self.tier {
            Tier::Pool(p) => p.with_shard(p.shard_of(key), f).expect("shard exists"),
            Tier::Single(c) => f(c),
        }
    }

    /// Every counter the benchmark differences, read while no driver
    /// runs.
    pub fn snapshot(&mut self) -> Snapshot {
        let mut cache = CacheStats::default();
        let mut e = EngineCounters::default();
        let mut io = IoStats::default();
        let mut amp = (0, 0);
        self.each_cache(|c| {
            cache = cache.merge(&c.stats());
            io = io.merge(&c.navy().io().stats());
            let (d, a) = c.amp_bytes();
            amp = (amp.0 + d, amp.1 + a);
            let s = c.navy().soc().stats();
            let l = c.navy().loc().stats();
            e.soc_lookups += s.lookups;
            e.soc_hits += s.hits;
            e.soc_bloom_rejects += s.bloom_rejects;
            e.soc_inserts += s.inserts;
            e.soc_page_writes += s.page_writes;
            e.soc_rmw_reads += s.rmw_reads;
            e.soc_collision_evictions += s.collision_evictions;
            e.loc_lookups += l.lookups;
            e.loc_hits += l.hits;
            e.loc_seals += l.seals;
            e.loc_region_evictions += l.region_evictions;
            e.loc_app_bytes += l.app_bytes_written;
        });
        Snapshot {
            cache,
            engines: e,
            io,
            amp,
            fdp: self.ctrl.fdp_stats_log(),
            ftl: self.ctrl.with_ftl(|f| f.stats()),
        }
    }

    /// Device read and write latency histograms (virtual ns), merged
    /// over shards, since the stack was built.
    pub fn latency(&mut self) -> (Histogram, Histogram) {
        let mut r = Histogram::new();
        let mut w = Histogram::new();
        self.each_cache(|c| {
            r.merge(c.navy().read_latency());
            w.merge(c.navy().write_latency());
        });
        (r, w)
    }
}
