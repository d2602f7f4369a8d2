//! Real (wall-clock) data-path throughput: the gate guarding the
//! slab-backed zero-copy payload path.
//!
//! Every other gate in this crate measures either host-parallelism
//! scaling (`bench_throughput`, `bench_fullstack`) or *virtual-time*
//! device parallelism (`--qd`). This one measures what none of them
//! do: how many **real** operations and bytes per second a single
//! replay thread pushes through the execution hot path — cache →
//! engines → controller → payload store. That number bounds how many
//! scenarios a sweep can explore per CPU-hour, which is the resource
//! the ROADMAP's "as fast as the hardware allows" north star is about.
//!
//! The benchmark replays the same deterministic trace twice per
//! profile: once on the slab-backed [`fdpcache_nvme::MemStore`] (the
//! production path) and once on [`fdpcache_nvme::HashStore`] — the
//! seed's `HashMap<u64, Box<[u8]>>` store, kept behind the
//! `hashmap-store` feature precisely for this comparison. Identical
//! seeds mean identical command sequences and **bit-identical virtual
//! clocks** (asserted), so the wall-clock ratio isolates the memory
//! path: per-block hashing + boxing vs contiguous slab `memcpy`s.
//!
//! `bench_wallclock --check` requires the slab path to reach ≥ 2.0×
//! the hash-map reference on the `loc_seal_heavy` profile (region
//! seals are pure vectored payload traffic, so this is where the slab
//! must shine) and equal virtual clocks on every profile.

use std::sync::Arc;
use std::time::Instant;

use fdpcache_cache::builder::{build_cache, create_namespace};
use fdpcache_cache::value::Value;
use fdpcache_cache::{CacheConfig, CacheError, HybridCache, NvmConfig};
use fdpcache_core::{RoundRobinPolicy, SharedController};
use fdpcache_ftl::FtlConfig;
use fdpcache_nvme::{Controller, DataStore, HashStore, MemStore};
use fdpcache_workloads::trace::Op;
use fdpcache_workloads::WorkloadProfile;

/// Which payload store backs a wall-clock run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WallclockStore {
    /// The production pre-sized page slab ([`MemStore`]).
    Slab,
    /// The seed's hash-map reference implementation ([`HashStore`]).
    HashRef,
}

impl WallclockStore {
    /// Label used in tables and JSON records.
    pub fn label(self) -> &'static str {
        match self {
            WallclockStore::Slab => "slab",
            WallclockStore::HashRef => "hashmap",
        }
    }
}

/// A named wall-clock profile: a workload shape plus the label the
/// gate and JSON records use.
#[derive(Debug, Clone)]
pub struct WallclockProfile {
    /// Stable label (`read_heavy`, `write_heavy`, `loc_seal_heavy`).
    pub label: &'static str,
    /// The trace shape replayed.
    pub workload: WorkloadProfile,
}

impl WallclockProfile {
    /// GET-dominant KV-cache mix: flash lookups (SOC pages, LOC
    /// covering blocks) dominate the device byte stream.
    pub fn read_heavy() -> Self {
        WallclockProfile { label: "read_heavy", workload: WorkloadProfile::meta_kv_cache() }
    }

    /// SET-only KV-cache mix: SOC bucket rewrites dominate.
    pub fn write_heavy() -> Self {
        WallclockProfile { label: "write_heavy", workload: WorkloadProfile::wo_kv_cache() }
    }

    /// Large-object write stream: device traffic is almost entirely
    /// vectored LOC region seals — the profile the `--check` gate
    /// compares stores on.
    pub fn loc_seal_heavy() -> Self {
        WallclockProfile { label: "loc_seal_heavy", workload: WorkloadProfile::loc_seal_heavy() }
    }

    /// The standard profile set, gate profile last.
    pub fn standard() -> Vec<Self> {
        vec![Self::read_heavy(), Self::write_heavy(), Self::loc_seal_heavy()]
    }
}

/// Configuration for a wall-clock run.
#[derive(Debug, Clone)]
pub struct WallclockConfig {
    /// Device capacity in MiB.
    pub device_mib: u64,
    /// Reclaim-unit size in MiB.
    pub ru_mib: u64,
    /// Operations per run.
    pub ops: u64,
    /// RNG seed (identical across stores so traces match).
    pub seed: u64,
}

impl Default for WallclockConfig {
    fn default() -> Self {
        // Sized so the seal-heavy replay is one *fresh fill* of the
        // LOC (~1.45 GiB of sets against a ~1.6 GiB log, no region
        // evictions, no GC): the regime every sweep's warm-up — and
        // every first pass over a trace — lives in, where the hash-map
        // reference allocates and first-touches a new 4 KiB box per
        // block while the slab writes into its pre-committed buffers.
        WallclockConfig { device_mib: 2048, ru_mib: 16, ops: 45_000, seed: 42 }
    }
}

impl WallclockConfig {
    /// The device configuration for this run.
    pub fn ftl_config(&self) -> FtlConfig {
        crate::throughput::bench_ftl_config(self.device_mib, self.ru_mib, self.seed)
    }

    fn cache_config(&self) -> CacheConfig {
        CacheConfig {
            ram_bytes: 256 << 10,
            ram_item_overhead: 0,
            // 4 MiB regions: a seal is one vectored submission of a
            // whole region, the transfer shape the slab optimizes.
            nvm: NvmConfig { soc_fraction: 0.05, region_bytes: 4 << 20, ..NvmConfig::default() },
            use_fdp: true,
        }
    }
}

/// One wall-clock measurement.
#[derive(Debug, Clone)]
pub struct WallclockResult {
    /// Profile label.
    pub profile: String,
    /// Store label (`slab` / `hashmap`).
    pub store: String,
    /// Operations replayed.
    pub ops: u64,
    /// Wall-clock seconds.
    pub wall_secs: f64,
    /// Thousands of ops per wall-clock second.
    pub kops: f64,
    /// Device payload bytes moved (written + read).
    pub bytes_moved: u64,
    /// Payload bandwidth in MiB per wall-clock second.
    pub mib_per_sec: f64,
    /// Final virtual clock (ns) — must be bit-identical across stores
    /// for the same profile/seed.
    pub now_ns: u64,
}

fn build(cfg: &WallclockConfig, store: WallclockStore) -> (SharedController, HybridCache) {
    let boxed: Box<dyn DataStore> = match store {
        WallclockStore::Slab => Box::new(MemStore::new()),
        WallclockStore::HashRef => Box::new(HashStore::new()),
    };
    let ctrl = Controller::new(cfg.ftl_config(), boxed).expect("wallclock device");
    ctrl.set_fdp_enabled(true);
    let ctrl: SharedController = Arc::new(ctrl);
    let nsid = create_namespace(&ctrl, 0.9, (0..8).collect()).expect("ns");
    let cache = build_cache(&ctrl, nsid, &cfg.cache_config(), Box::new(RoundRobinPolicy::new()))
        .expect("cache");
    (ctrl, cache)
}

/// Rounding step for the pooled payload sizes (see [`run_wallclock`]).
const POOL_SIZE_STEP: u32 = 1024;

/// Returns a pooled shared payload of `size` rounded up to
/// [`POOL_SIZE_STEP`]. Values are `Value::Real` over shared
/// `Arc<[u8]>` buffers, cloned per op — zero per-op allocation, and
/// materialization onto flash is a plain `memcpy`. This keeps the
/// timed loop measuring the *data path* (cache bookkeeping, FTL
/// mapping, payload store) rather than synthetic byte generation, and
/// exercises the zero-copy `Arc` hand-off end to end.
fn pooled_value(pool: &mut std::collections::HashMap<u32, Value>, size: u32) -> Value {
    let rounded = size.div_ceil(POOL_SIZE_STEP).max(1) * POOL_SIZE_STEP;
    pool.entry(rounded).or_insert_with(|| Value::real(vec![0x5Au8; rounded as usize])).clone()
}

/// Replays `cfg.ops` operations of `profile` on the given store and
/// measures real throughput. The op/size stream is deterministic in
/// `cfg.seed`, so two stores replay identical device command
/// sequences.
///
/// # Panics
///
/// Panics if the replay hits a device error (the configuration is
/// sized so the device cannot wear out).
pub fn run_wallclock(
    cfg: &WallclockConfig,
    profile: &WallclockProfile,
    store: WallclockStore,
) -> WallclockResult {
    let (ctrl, mut cache) = build(cfg, store);
    let mut gen = profile.workload.generator(20_000, cfg.seed);
    let mut pool = std::collections::HashMap::new();
    let d0 = ctrl.device_io_stats();
    let start = Instant::now();
    for _ in 0..cfg.ops {
        let req = gen.next_request();
        match req.op {
            Op::Get => {
                cache.get(req.key).expect("get");
            }
            Op::Set => match cache.put(req.key, pooled_value(&mut pool, req.size)) {
                Ok(()) | Err(CacheError::ObjectTooLarge { .. }) => {}
                Err(e) => panic!("put failed: {e}"),
            },
            Op::Delete => {
                cache.delete(req.key).expect("delete");
            }
        }
    }
    cache.drain_io();
    let wall_secs = start.elapsed().as_secs_f64().max(1e-9);
    let d = ctrl.device_io_stats();
    let bytes_moved = (d.bytes_written - d0.bytes_written) + (d.bytes_read - d0.bytes_read);
    ctrl.with_ftl(|f| f.check_invariants());
    WallclockResult {
        profile: profile.label.to_string(),
        store: store.label().to_string(),
        ops: cfg.ops,
        wall_secs,
        kops: cfg.ops as f64 / wall_secs / 1e3,
        bytes_moved,
        mib_per_sec: bytes_moved as f64 / wall_secs / (1 << 20) as f64,
        now_ns: cache.now_ns(),
    }
}

impl WallclockResult {
    /// One-line machine-readable form for the child-process protocol
    /// (`bench_wallclock --one`).
    pub fn record_line(&self) -> String {
        format!(
            "WALLCLOCK {} {} {} {} {} {} {} {}",
            self.profile,
            self.store,
            self.ops,
            self.wall_secs,
            self.kops,
            self.bytes_moved,
            self.mib_per_sec,
            self.now_ns
        )
    }

    /// Parses a [`WallclockResult::record_line`], ignoring unrelated
    /// lines.
    pub fn parse_record_line(line: &str) -> Option<WallclockResult> {
        let mut it = line.split_whitespace();
        if it.next()? != "WALLCLOCK" {
            return None;
        }
        Some(WallclockResult {
            profile: it.next()?.to_string(),
            store: it.next()?.to_string(),
            ops: it.next()?.parse().ok()?,
            wall_secs: it.next()?.parse().ok()?,
            kops: it.next()?.parse().ok()?,
            bytes_moved: it.next()?.parse().ok()?,
            mib_per_sec: it.next()?.parse().ok()?,
            now_ns: it.next()?.parse().ok()?,
        })
    }
}

/// Looks a standard profile up by its label.
pub fn profile_by_label(label: &str) -> Option<WallclockProfile> {
    WallclockProfile::standard().into_iter().find(|p| p.label == label)
}

/// How sweep measurements execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// All runs share this process (tests; fastest).
    InProcess,
    /// Each run re-invokes the current executable (`--one`) so every
    /// measurement starts with a cold allocator and fresh page tables —
    /// without this, whichever store runs *second* inherits a warm heap
    /// from the first and the comparison stops measuring the stores.
    /// Isolation failures fall back to an in-process run with a note;
    /// informational sweeps prefer a degraded number over none.
    Isolated,
    /// As [`RunMode::Isolated`], but an isolation failure aborts the
    /// sweep: a `--check` gate must never compare in-process (warm-
    /// allocator) measurements, where the verdict would be invalid.
    IsolatedStrict,
}

/// Runs one measurement in a fresh child process by re-invoking the
/// current executable with `--one <profile> <store> <device_mib>
/// <ru_mib> <ops> <seed>`.
///
/// # Errors
///
/// The reason the child could not be spawned, failed, or emitted no
/// record — e.g. under a test harness that does not implement the
/// `--one` protocol.
pub fn run_wallclock_isolated(
    cfg: &WallclockConfig,
    profile: &WallclockProfile,
    store: WallclockStore,
) -> Result<WallclockResult, String> {
    let out = std::env::current_exe().map_err(|e| e.to_string()).and_then(|exe| {
        std::process::Command::new(exe)
            .args([
                "--one",
                profile.label,
                store.label(),
                &cfg.device_mib.to_string(),
                &cfg.ru_mib.to_string(),
                &cfg.ops.to_string(),
                &cfg.seed.to_string(),
            ])
            .output()
            .map_err(|e| e.to_string())
    })?;
    if !out.status.success() {
        return Err(format!(
            "child run exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(WallclockResult::parse_record_line)
        .ok_or_else(|| "child run emitted no WALLCLOCK record".to_string())
}

/// One profile's slab-vs-reference pair.
#[derive(Debug, Clone)]
pub struct WallclockComparison {
    /// Slab-store measurement (best of trials).
    pub slab: WallclockResult,
    /// Hash-map reference measurement (best of trials).
    pub hash_ref: WallclockResult,
}

impl WallclockComparison {
    /// Wall-clock ops/s speedup of the slab path over the reference.
    pub fn speedup(&self) -> f64 {
        self.slab.kops / self.hash_ref.kops.max(1e-9)
    }

    /// Whether the two runs finished at the same virtual clock (the
    /// payload store must never affect virtual time).
    pub fn virtual_clocks_match(&self) -> bool {
        self.slab.now_ns == self.hash_ref.now_ns
    }
}

/// Runs every standard profile on both stores, best of `trials` runs
/// per (profile, store) point — wall-clock noise on shared hosts is
/// one-sided, so max kops is the faithful estimate.
///
/// # Panics
///
/// Panics if any replay hits a device error, or — in
/// [`RunMode::IsolatedStrict`] — if a measurement cannot run in an
/// isolated child process.
pub fn sweep_wallclock(
    cfg: &WallclockConfig,
    trials: u64,
    mode: RunMode,
) -> Vec<WallclockComparison> {
    let one = |profile: &WallclockProfile, store: WallclockStore| {
        match mode {
        RunMode::InProcess => run_wallclock(cfg, profile, store),
        RunMode::Isolated => run_wallclock_isolated(cfg, profile, store).unwrap_or_else(|e| {
            eprintln!("note: cannot isolate run ({e}); measuring in-process");
            run_wallclock(cfg, profile, store)
        }),
        RunMode::IsolatedStrict => run_wallclock_isolated(cfg, profile, store).unwrap_or_else(
            |e| panic!("cannot isolate measurement in a child process ({e}); a --check gate must not compare warm in-process runs"),
        ),
    }
    };
    let best = |profile: &WallclockProfile, store: WallclockStore| {
        (0..trials.max(1))
            .map(|_| one(profile, store))
            .max_by(|a, b| a.kops.total_cmp(&b.kops))
            .expect("at least one trial")
    };
    WallclockProfile::standard()
        .iter()
        .map(|p| WallclockComparison {
            slab: best(p, WallclockStore::Slab),
            hash_ref: best(p, WallclockStore::HashRef),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> WallclockConfig {
        WallclockConfig { device_mib: 64, ru_mib: 2, ops: 3_000, seed: 7 }
    }

    #[test]
    fn wallclock_run_completes_and_moves_bytes() {
        let cfg = tiny();
        let r = run_wallclock(&cfg, &WallclockProfile::loc_seal_heavy(), WallclockStore::Slab);
        assert_eq!(r.ops, 3_000);
        assert!(r.kops > 0.0);
        assert!(r.bytes_moved > 0, "seal-heavy replay must move payload bytes");
        assert_eq!(r.profile, "loc_seal_heavy");
    }

    #[test]
    fn stores_replay_to_identical_virtual_clocks() {
        let cfg = tiny();
        for profile in WallclockProfile::standard() {
            let slab = run_wallclock(&cfg, &profile, WallclockStore::Slab);
            let hash = run_wallclock(&cfg, &profile, WallclockStore::HashRef);
            assert_eq!(
                slab.now_ns, hash.now_ns,
                "virtual clock diverged across payload stores on {}",
                profile.label
            );
            assert_eq!(slab.bytes_moved, hash.bytes_moved, "device byte accounting diverged");
        }
    }

    #[test]
    fn record_line_roundtrips() {
        let r = run_wallclock(&tiny(), &WallclockProfile::read_heavy(), WallclockStore::HashRef);
        let parsed = WallclockResult::parse_record_line(&r.record_line()).expect("parse");
        assert_eq!(parsed.profile, r.profile);
        assert_eq!(parsed.store, r.store);
        assert_eq!(parsed.ops, r.ops);
        assert_eq!(parsed.wall_secs, r.wall_secs);
        assert_eq!(parsed.kops, r.kops);
        assert_eq!(parsed.bytes_moved, r.bytes_moved);
        assert_eq!(parsed.mib_per_sec, r.mib_per_sec);
        assert_eq!(parsed.now_ns, r.now_ns);
        // Unrelated output, a truncated record and a non-numeric field
        // are all rejected.
        assert!(WallclockResult::parse_record_line("note: warming up").is_none());
        assert!(WallclockResult::parse_record_line("WALLCLOCK x y 1").is_none());
        let line = r.record_line();
        let (head, _) = line.rsplit_once(' ').expect("multi-field record");
        assert!(WallclockResult::parse_record_line(&format!("{head} soon")).is_none());
    }
}
