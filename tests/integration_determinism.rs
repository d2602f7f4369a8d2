//! Determinism regression: the pool replayer must be a pure function
//! of its seed at one worker, and its aggregate counters must be
//! invariant to the worker count in partitioned mode.
//!
//! Why this holds: in `PoolMode::Partitioned` every worker walks an
//! identical stream and executes exactly the requests whose shard it
//! owns, so each shard sees the same request subsequence in the same
//! order no matter how many threads carry it. Per-shard cache state is
//! therefore bit-identical across worker counts; only device-global
//! side effects that depend on cross-shard interleaving (GC victim
//! choice, hence media bytes and latency) may differ.

use fdpcache::cache::builder::{build_device, build_device_faulted, StoreKind};
use fdpcache::cache::{CacheConfig, CacheStats, ConcurrentPool, NvmConfig};
use fdpcache::ftl::FtlConfig;
use fdpcache::nvme::FaultConfig;
use fdpcache::placement::{RoundRobinPolicy, SharedController};
use fdpcache::workloads::{
    replay_pool, run_pool_round, FaultScenario, PoolMode, PoolReplayConfig, WorkloadProfile,
};

fn stack_on(store: StoreKind, shards: usize) -> (SharedController, ConcurrentPool) {
    let ctrl = build_device(FtlConfig::tiny_test(), store, true).unwrap();
    let config = CacheConfig {
        ram_bytes: 32 << 10,
        ram_item_overhead: 0,
        nvm: NvmConfig { soc_fraction: 0.2, region_bytes: 8 * 4096, ..NvmConfig::default() },
        use_fdp: true,
    };
    let p = ConcurrentPool::new(&ctrl, &config, shards, 0.9, || Box::new(RoundRobinPolicy::new()))
        .unwrap();
    (ctrl, p)
}

fn stack(shards: usize) -> (SharedController, ConcurrentPool) {
    stack_on(StoreKind::Null, shards)
}

fn replay_on(
    store: StoreKind,
    workers: usize,
    queue_depth: usize,
) -> fdpcache::workloads::ExperimentResult {
    let (ctrl, pool) = stack_on(store, 4);
    let profile = WorkloadProfile::meta_kv_cache();
    let cfg = PoolReplayConfig {
        workers,
        warmup_ops: 3_000,
        measure_ops: 12_000,
        seed: 1234,
        mode: PoolMode::Partitioned,
        queue_depth,
        fault: None,
    };
    replay_pool("FDP", profile.name, &pool, &ctrl, &cfg, |seed| profile.generator(5_000, seed))
        .unwrap()
}

fn replay_once(workers: usize) -> fdpcache::workloads::ExperimentResult {
    replay_on(StoreKind::Null, workers, 1)
}

/// Asserts every virtual-time field of two replay results is
/// bit-identical (floats compared by bits, not tolerance).
fn assert_bit_identical(
    a: &fdpcache::workloads::ExperimentResult,
    b: &fdpcache::workloads::ExperimentResult,
    what: &str,
) {
    assert_eq!(a.ops, b.ops, "{what}: ops");
    assert_eq!(a.host_bytes, b.host_bytes, "{what}: host bytes");
    assert_eq!(a.media_bytes, b.media_bytes, "{what}: media bytes");
    assert_eq!(a.gc_events, b.gc_events, "{what}: GC events");
    assert_eq!(a.hit_ratio.to_bits(), b.hit_ratio.to_bits(), "{what}: hit ratio");
    assert_eq!(a.nvm_hit_ratio.to_bits(), b.nvm_hit_ratio.to_bits(), "{what}: nvm hit ratio");
    assert_eq!(a.dlwa.to_bits(), b.dlwa.to_bits(), "{what}: DLWA");
    assert_eq!(a.alwa.to_bits(), b.alwa.to_bits(), "{what}: ALWA");
    assert_eq!(a.kops.to_bits(), b.kops.to_bits(), "{what}: virtual KOPS");
    assert_eq!(a.p99_read_us.to_bits(), b.p99_read_us.to_bits(), "{what}: p99 read");
    assert_eq!(a.p99_write_us.to_bits(), b.p99_write_us.to_bits(), "{what}: p99 write");
    assert_eq!(
        (a.faults, a.retries, a.repairs, a.requeues),
        (b.faults, b.retries, b.repairs, b.requeues),
        "{what}: fault/recovery counters"
    );
}

/// Same seed, two fresh stacks, one worker: every reported metric is
/// bit-identical — hit rate, DLWA, byte counters, op counts.
#[test]
fn same_seed_is_bit_identical_at_one_worker() {
    let a = replay_once(1);
    let b = replay_once(1);
    assert_eq!(a.ops, b.ops);
    assert_eq!(a.host_bytes, b.host_bytes);
    assert_eq!(a.media_bytes, b.media_bytes);
    assert_eq!(a.gc_events, b.gc_events);
    assert_eq!(a.hit_ratio.to_bits(), b.hit_ratio.to_bits(), "hit ratio not bit-identical");
    assert_eq!(a.nvm_hit_ratio.to_bits(), b.nvm_hit_ratio.to_bits());
    assert_eq!(a.dlwa.to_bits(), b.dlwa.to_bits(), "DLWA not bit-identical");
    assert_eq!(a.alwa.to_bits(), b.alwa.to_bits());
}

/// 1 worker vs 4 workers, partitioned: aggregate cache counters (ops,
/// bytes, hits) are invariant to the thread count.
#[test]
fn partitioned_counters_are_thread_count_invariant() {
    let run = |workers: usize| -> (CacheStats, u64) {
        let (ctrl, pool) = stack(4);
        let profile = WorkloadProfile::meta_kv_cache();
        let mut sources: Vec<_> = (0..workers).map(|_| profile.generator(5_000, 77)).collect();
        let reports = run_pool_round(&pool, &mut sources, PoolMode::Partitioned, 15_000);
        for r in &reports {
            assert_eq!(r.error, None, "worker {} failed", r.worker);
        }
        ctrl.with_ftl(|f| f.check_invariants());
        (pool.stats(), ctrl.fdp_stats_log().host_bytes_written)
    };
    let (s1, host1) = run(1);
    let (s4, host4) = run(4);
    // CacheStats is a full field-wise comparison: gets, puts, deletes,
    // per-layer hits, flash insert counts and app bytes all match.
    assert_eq!(s1, s4, "aggregate cache counters changed with the thread count");
    assert_eq!(host1, host4, "host bytes written changed with the thread count");
    assert!(s1.gets > 0 && s1.puts > 0, "workload must exercise the stack");
    assert!(host1 > 0, "workload must reach the device");
}

/// The replayer's rolled-up result is counter-stable across thread
/// counts too (ratios are quotients of invariant counters).
#[test]
fn pool_replay_metrics_are_thread_count_invariant() {
    let one = replay_once(1);
    let four = replay_once(4);
    assert_eq!(one.ops, four.ops);
    assert_eq!(one.host_bytes, four.host_bytes);
    assert_eq!(one.hit_ratio.to_bits(), four.hit_ratio.to_bits());
    assert_eq!(one.nvm_hit_ratio.to_bits(), four.nvm_hit_ratio.to_bits());
}

/// QD-1 and QD-4 replays are each a pure function of the seed: two
/// fresh stacks at the same depth report bit-identical virtual-time
/// results — the pipeline depth must never introduce nondeterminism.
#[test]
fn qd_replays_are_bit_identical_per_depth() {
    for qd in [1usize, 4] {
        let a = replay_on(StoreKind::Null, 1, qd);
        let b = replay_on(StoreKind::Null, 1, qd);
        assert_bit_identical(&a, &b, &format!("QD-{qd} rerun"));
    }
}

/// A replay under an active fault schedule is still a pure function of
/// its seeds: fault decisions key on per-LBA access history, never on
/// thread interleaving, so a faulted QD-4 pool replay is bit-identical
/// across reruns AND thread-count invariant in partitioned mode.
#[test]
fn faulted_qd_pool_replays_are_bit_identical_and_thread_invariant() {
    // Hotter rates than the bench scenarios so a short replay sees a
    // meaningful schedule.
    let scenario = FaultScenario {
        name: "determinism_mix",
        config: FaultConfig {
            seed: 0xD373,
            read_err_ppm: 3_000,
            write_err_ppm: 3_000,
            busy_ppm: 5_000,
            busy_penalty_ns: 400_000,
            ..Default::default()
        },
    };
    let replay = |workers: usize, qd: usize| {
        let ctrl = build_device_faulted(
            FtlConfig::tiny_test(),
            StoreKind::Null,
            true,
            scenario.config.clone(),
        )
        .unwrap();
        let config = CacheConfig {
            ram_bytes: 32 << 10,
            ram_item_overhead: 0,
            nvm: NvmConfig { soc_fraction: 0.2, region_bytes: 8 * 4096, ..NvmConfig::default() },
            use_fdp: true,
        };
        let pool =
            ConcurrentPool::new(&ctrl, &config, 4, 0.9, || Box::new(RoundRobinPolicy::new()))
                .unwrap();
        let profile = WorkloadProfile::meta_kv_cache();
        let cfg = PoolReplayConfig {
            workers,
            warmup_ops: 3_000,
            measure_ops: 12_000,
            seed: 1234,
            mode: PoolMode::Partitioned,
            queue_depth: qd,
            fault: Some(scenario.clone()),
        };
        let r = replay_pool("FDP", profile.name, &pool, &ctrl, &cfg, |seed| {
            profile.generator(5_000, seed)
        })
        .unwrap();
        ctrl.with_ftl(|f| f.check_invariants());
        r
    };
    for qd in [1usize, 4] {
        let a = replay(1, qd);
        let b = replay(1, qd);
        assert_bit_identical(&a, &b, &format!("faulted QD-{qd} rerun"));
        assert!(a.faults > 0, "QD-{qd}: the schedule must actually inject");
        assert_eq!(a.label, "FDP+determinism_mix", "scenario must tag the label");
        // Real worker threads: aggregate counters — including the
        // fault/recovery set — are invariant to the thread count.
        let four = replay(4, qd);
        assert_eq!(a.ops, four.ops, "QD-{qd}: ops changed with workers under faults");
        assert_eq!(a.host_bytes, four.host_bytes, "QD-{qd}: host bytes changed");
        assert_eq!(a.hit_ratio.to_bits(), four.hit_ratio.to_bits(), "QD-{qd}: hit ratio");
        assert_eq!(
            (a.faults, a.retries, a.repairs, a.requeues),
            (four.faults, four.retries, four.repairs, four.requeues),
            "QD-{qd}: fault counters changed with the thread count"
        );
    }
}

/// Replays the read-mostly-hot contended profile (the workload behind
/// the `bench_fullstack --read` gate) through the pool — the lock-free
/// DRAM-hit path is live on every GET — optionally under a fault
/// schedule.
fn replay_read_mostly(
    workers: usize,
    fault: Option<FaultScenario>,
) -> fdpcache::workloads::ExperimentResult {
    let config = CacheConfig {
        ram_bytes: 32 << 10,
        ram_item_overhead: 0,
        nvm: NvmConfig { soc_fraction: 0.2, region_bytes: 8 * 4096, ..NvmConfig::default() },
        use_fdp: true,
    };
    let ctrl = match &fault {
        Some(s) => {
            build_device_faulted(FtlConfig::tiny_test(), StoreKind::Null, true, s.config.clone())
                .unwrap()
        }
        None => build_device(FtlConfig::tiny_test(), StoreKind::Null, true).unwrap(),
    };
    let pool =
        ConcurrentPool::new(&ctrl, &config, 8, 0.9, || Box::new(RoundRobinPolicy::new())).unwrap();
    let profile = WorkloadProfile::read_mostly_hot();
    let cfg = PoolReplayConfig {
        workers,
        warmup_ops: 3_000,
        measure_ops: 12_000,
        seed: 4242,
        mode: PoolMode::Partitioned,
        queue_depth: 1,
        fault,
    };
    let r =
        replay_pool("FDP", profile.name, &pool, &ctrl, &cfg, |seed| profile.generator(5_000, seed))
            .unwrap();
    ctrl.with_ftl(|f| f.check_invariants());
    r
}

/// The lock-free read path must not cost the replayer its determinism:
/// the read-mostly contended profile — nearly every op a lock-free
/// DRAM hit — replays bit-identical across reruns, and its aggregate
/// counters (including the atomic read-side gets/hits and the virtual
/// host time they feed into KOPS) are invariant from 1 to 8 workers in
/// partitioned mode, where each shard's epoch-protected index is read
/// and written by exactly one thread.
#[test]
fn read_mostly_contended_replays_are_bit_identical_and_thread_invariant() {
    let a = replay_read_mostly(1, None);
    let b = replay_read_mostly(1, None);
    assert_bit_identical(&a, &b, "read-mostly rerun");
    assert!(a.hit_ratio > 0.5, "the Zipf head must mostly hit DRAM: {}", a.hit_ratio);
    for workers in [4usize, 8] {
        let w = replay_read_mostly(workers, None);
        assert_eq!(a.ops, w.ops, "{workers} workers: ops");
        assert_eq!(a.host_bytes, w.host_bytes, "{workers} workers: host bytes");
        assert_eq!(a.hit_ratio.to_bits(), w.hit_ratio.to_bits(), "{workers} workers: hit ratio");
        assert_eq!(
            a.nvm_hit_ratio.to_bits(),
            w.nvm_hit_ratio.to_bits(),
            "{workers} workers: nvm hit ratio"
        );
        assert_eq!(a.kops.to_bits(), w.kops.to_bits(), "{workers} workers: virtual KOPS");
    }
}

/// Same profile under an active fault schedule: lock-free DRAM hits
/// never touch the device, so fault decisions still key on per-LBA
/// access history alone — the replay stays bit-identical across reruns
/// and its fault/recovery counters stay thread-count invariant.
#[test]
fn faulted_read_mostly_replays_stay_deterministic() {
    let scenario = FaultScenario {
        name: "read_mostly_mix",
        config: FaultConfig {
            seed: 0x4EAD,
            read_err_ppm: 3_000,
            write_err_ppm: 3_000,
            busy_ppm: 5_000,
            busy_penalty_ns: 400_000,
            ..Default::default()
        },
    };
    let a = replay_read_mostly(1, Some(scenario.clone()));
    let b = replay_read_mostly(1, Some(scenario.clone()));
    assert_bit_identical(&a, &b, "faulted read-mostly rerun");
    assert!(a.faults > 0, "the schedule must actually inject");
    assert_eq!(a.label, "FDP+read_mostly_mix", "scenario must tag the label");
    let eight = replay_read_mostly(8, Some(scenario));
    assert_eq!(a.ops, eight.ops, "8 workers: ops changed under faults");
    assert_eq!(a.host_bytes, eight.host_bytes, "8 workers: host bytes");
    assert_eq!(a.hit_ratio.to_bits(), eight.hit_ratio.to_bits(), "8 workers: hit ratio");
    assert_eq!(
        (a.faults, a.retries, a.repairs, a.requeues),
        (eight.faults, eight.retries, eight.repairs, eight.requeues),
        "8 workers: fault counters changed with the thread count"
    );
}

/// The payload store is invisible to virtual time: swapping the
/// slab-backed `MemStore` for the payload-free `NullStore` leaves
/// every virtual-time field of the QD-1 **and** QD-4 replays
/// bit-identical. This is the regression guard for the slab swap — the
/// seed's virtual-time gates must keep reporting the exact numbers
/// they did on the hash-map store (whose own equivalence is asserted
/// by `bench_wallclock --check` and the wallclock unit tests, which
/// compare slab vs hash-map directly).
#[test]
fn slab_store_never_perturbs_virtual_time_at_any_depth() {
    for qd in [1usize, 4] {
        let null = replay_on(StoreKind::Null, 1, qd);
        let slab = replay_on(StoreKind::Mem, 1, qd);
        assert_bit_identical(&null, &slab, &format!("QD-{qd} Null-vs-Mem"));
        // And with real worker threads on the slab store, counters stay
        // thread-count invariant exactly as on the seed store.
        for workers in [4usize, 8] {
            let w = replay_on(StoreKind::Mem, workers, qd);
            assert_eq!(slab.ops, w.ops, "QD-{qd}: ops changed with {workers} workers on the slab");
            assert_eq!(
                slab.host_bytes, w.host_bytes,
                "QD-{qd}: host bytes changed with {workers} workers on the slab"
            );
            assert_eq!(
                slab.hit_ratio.to_bits(),
                w.hit_ratio.to_bits(),
                "QD-{qd}: hit ratio changed with {workers} workers on the slab"
            );
        }
    }
}
