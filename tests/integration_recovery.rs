//! End-to-end warm-restart integration: a scripted kill at every
//! crash point of a seal-heavy replay, followed by FTL + cache
//! recovery from on-flash evidence alone. The matrix asserts zero lost
//! acknowledged-and-sealed writes, zero resurrected deletes, and
//! bit-identical outcomes across same-seed reruns; the pool test adds
//! invariance to the worker-thread count (per-shard fault schedules
//! key on disjoint namespace LBA ranges).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use fdpcache::cache::builder::{
    build_cache, build_device, build_device_faulted, create_namespace, recover_cache, StoreKind,
};
use fdpcache::cache::value::Value;
use fdpcache::cache::{
    CacheConfig, CacheStats, ConcurrentPool, GetOutcome, HybridCache, NvmConfig,
};
use fdpcache::ftl::FtlConfig;
use fdpcache::nvme::{Controller, FaultConfig, FaultKind, NamespaceId, ScriptedFault};
use fdpcache::placement::{IoStats, RoundRobinPolicy};

const BLOCK: u64 = 4096;

fn cache_config(ram_bytes: u64) -> CacheConfig {
    CacheConfig {
        ram_bytes,
        ram_item_overhead: 0,
        nvm: NvmConfig { soc_fraction: 0.1, region_bytes: 16 * BLOCK, ..NvmConfig::default() },
        use_fdp: true,
    }
}

/// One deterministic scripted operation (no RNG: the trace is a pure
/// function of the index, so reruns and worker partitions agree).
#[derive(Debug, Clone, Copy)]
enum ScriptOp {
    Put(u64, u32),
    Get(u64),
    Delete(u64),
}

/// Seal-heavy script: a small-object prelude (so SOC buckets persist
/// entries before the first LOC seal — no crash point is vacuous),
/// then large LOC-bound puts every third op, a rotating small
/// SOC-bound working set, periodic deletes of older large keys, and
/// gets over both populations.
fn script(i: u64) -> ScriptOp {
    if i < 30 {
        return ScriptOp::Put(500_000 + i % 64, 90);
    }
    match i % 9 {
        0 | 3 | 6 => ScriptOp::Put(i, 12_000 + (i % 5) as u32 * 2_000),
        1 | 4 => ScriptOp::Put(500_000 + i % 64, 90),
        7 => ScriptOp::Delete((i / 9) * 3),
        2 | 5 => ScriptOp::Get((i / 3) * 3),
        _ => ScriptOp::Get(500_000 + i % 64),
    }
}

/// Shadow of acknowledged operations: every size acked for a key since
/// its last acked delete, plus the acked-deleted key set.
#[derive(Debug, Default, Clone)]
struct Shadow {
    acked_sizes: BTreeMap<u64, BTreeSet<u32>>,
    deleted: BTreeSet<u64>,
}

/// Applies one scripted op; returns `false` when the scripted kill
/// fired (the op is unacknowledged). Panics on any other error — a
/// kill-only plan injects nothing recoverable.
fn apply(cache: &mut HybridCache, op: ScriptOp, shadow: &mut Shadow) -> bool {
    let r = match op {
        ScriptOp::Put(k, size) => match cache.put(k, Value::synthetic(size)) {
            Ok(()) => {
                shadow.deleted.remove(&k);
                shadow.acked_sizes.entry(k).or_default().insert(size);
                Ok(())
            }
            Err(e) => Err(e),
        },
        ScriptOp::Get(k) => cache.get(k).map(|_| ()),
        ScriptOp::Delete(k) => match cache.delete(k) {
            Ok(_) => {
                shadow.acked_sizes.remove(&k);
                shadow.deleted.insert(k);
                Ok(())
            }
            Err(e) => Err(e),
        },
    };
    match r {
        Ok(()) => true,
        Err(e) if e.is_kill() => false,
        Err(e) => panic!("non-kill error on {op:?}: {e}"),
    }
}

/// Reattaches the cache, retrying when a still-armed kill fires during
/// the recovery reads (recovery never writes, so the retry reboots
/// from identical flash state).
fn recover_retrying(ctrl: &Arc<Controller>, nsid: NamespaceId, cfg: &CacheConfig) -> HybridCache {
    loop {
        match recover_cache(ctrl, nsid, cfg, Box::new(RoundRobinPolicy::new())) {
            Ok(c) => return c,
            Err(e) if e.is_kill() => continue,
            Err(e) => panic!("recovery: {e}"),
        }
    }
}

/// Everything one matrix run observes; two same-seed runs must be
/// equal in every field.
#[derive(Debug, PartialEq)]
struct MatrixOutcome {
    ops_before_crash: u64,
    crashed: bool,
    now_at_crash_ns: u64,
    ftl_path: String,
    ftl_events_dropped: u64,
    persisted: BTreeSet<u64>,
    lost: u64,
    resurrected: u64,
    final_stats: CacheStats,
    /// Virtual clock and I/O counters after the recovered instance
    /// finishes the script.
    final_now_ns: u64,
    final_io: IoStats,
}

/// Replays the script against a stack armed with one kill, recovers at
/// the crash, verifies survivors and deletes, and finishes the script
/// on the recovered instance.
fn run_matrix_point(lba: u64, at_access: u64, ops: u64) -> MatrixOutcome {
    let fault = FaultConfig {
        scripted: vec![ScriptedFault { kind: FaultKind::Kill, lba, at_access, repeats: 1 }],
        ..Default::default()
    };
    let ctrl = build_device_faulted(FtlConfig::tiny_test(), StoreKind::Mem, true, fault).unwrap();
    let nsid = create_namespace(&ctrl, 0.9, vec![0, 1]).unwrap();
    let config = cache_config(1_000);
    let mut cache = build_cache(&ctrl, nsid, &config, Box::new(RoundRobinPolicy::new())).unwrap();

    let mut shadow = Shadow::default();
    let mut ops_done = 0u64;
    let mut crashed = false;
    for i in 0..ops {
        if apply(&mut cache, script(i), &mut shadow) {
            ops_done += 1;
        } else {
            crashed = true;
            break;
        }
    }
    let now_at_crash_ns = cache.now_ns();
    let persisted: BTreeSet<u64> = cache.persisted_keys().into_iter().collect();
    drop(cache);

    let report = ctrl.recover_ftl(None);
    let mut cache = recover_retrying(&ctrl, nsid, &config);
    cache.set_promote_on_nvm_hit(false);
    let recovered: BTreeSet<u64> = cache.persisted_keys().into_iter().collect();
    assert_eq!(recovered, persisted, "recovery must rebuild exactly the persisted set");
    let mut lost = 0u64;
    for &k in &persisted {
        let (_, v) = cache.get(k).expect("verification read");
        let ok = v.is_some_and(|v| {
            let len = v.len() as u32;
            shadow.acked_sizes.get(&k).is_some_and(|s| s.contains(&len))
                && v.to_bytes(k) == Value::synthetic(len).to_bytes(k)
        });
        if !ok {
            lost += 1;
        }
    }
    let mut resurrected = 0u64;
    for &k in &shadow.deleted {
        let (outcome, _) = cache.get(k).expect("resurrection probe");
        if outcome != GetOutcome::Miss {
            resurrected += 1;
        }
    }
    cache.set_promote_on_nvm_hit(true);
    for i in (ops_done + u64::from(crashed))..ops {
        assert!(apply(&mut cache, script(i), &mut shadow), "kill is one-shot");
    }
    cache.drain_io();
    ctrl.with_ftl(|f| f.check_invariants());
    MatrixOutcome {
        ops_before_crash: ops_done,
        crashed,
        now_at_crash_ns,
        ftl_path: report.path.to_string(),
        ftl_events_dropped: report.events_dropped,
        persisted,
        lost,
        resurrected,
        final_stats: cache.stats(),
        final_now_ns: cache.now_ns(),
        final_io: cache.navy().io().stats(),
    }
}

#[test]
fn crash_matrix_loses_nothing_and_replays_bit_identically() {
    // Crash coordinates probed from a fault-free twin of the stack:
    // the first payload write of LOC regions 0 and 2, region 0's
    // footer block, and a scripted small key's SOC bucket page.
    let ops = 600u64;
    let specs: Vec<(String, u64, u64)> = {
        let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, true).unwrap();
        let nsid = create_namespace(&ctrl, 0.9, vec![0, 1]).unwrap();
        let cache =
            build_cache(&ctrl, nsid, &cache_config(1_000), Box::new(RoundRobinPolicy::new()))
                .unwrap();
        let start = ctrl.namespace(nsid).unwrap().start_lba;
        let loc = cache.navy().loc();
        let soc = cache.navy().soc();
        vec![
            ("loc_region0_payload".into(), start + loc.region_start_block(0), 0),
            ("loc_region2_payload".into(), start + loc.region_start_block(2), 0),
            ("loc_region0_footer".into(), start + loc.meta_start_block(0), 0),
            // The bucket's *second* access: its first write is the
            // first flash write of the whole replay, so killing it
            // would leave nothing persisted (a vacuous crash).
            ("soc_bucket".into(), start + soc.bucket_block(soc.bucket_index(500_000)), 1),
        ]
    };
    for (label, lba, at_access) in specs {
        let first = run_matrix_point(lba, at_access, ops);
        assert!(first.crashed, "{label}: kill never fired — vacuous crash point");
        assert!(first.ops_before_crash < ops, "{label}: crash must interrupt the replay");
        assert!(!first.persisted.is_empty(), "{label}: nothing persisted before the kill");
        assert_eq!(first.lost, 0, "{label}: lost acknowledged-and-sealed writes");
        assert_eq!(first.resurrected, 0, "{label}: acknowledged deletes resurrected");
        if first.ftl_events_dropped > 0 {
            assert_eq!(
                first.ftl_path, "full-scan",
                "{label}: event-ring overflow must force the full scan"
            );
        }
        let rerun = run_matrix_point(lba, at_access, ops);
        assert_eq!(first, rerun, "{label}: crash + recovery diverged across reruns");
    }
}

/// Write-amplification accounting across the crash boundary: recovered
/// engines report **zero** application bytes (rebuilding an index is
/// not application traffic — recounting survivors would deflate ALWA),
/// every ratio denominator degrades to its identity value on the fresh
/// instance, and the device-level identity `nand = host + relocated`
/// survives crash + recovery and keeps holding as the recovered
/// instance takes writes.
#[test]
fn recovered_engines_report_zero_app_bytes_and_wa_identities_hold() {
    let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, true).unwrap();
    let nsid = create_namespace(&ctrl, 0.9, vec![0, 1]).unwrap();
    let config = cache_config(1_000);
    let mut cache = build_cache(&ctrl, nsid, &config, Box::new(RoundRobinPolicy::new())).unwrap();
    let mut shadow = Shadow::default();
    for i in 0..300 {
        assert!(apply(&mut cache, script(i), &mut shadow));
    }
    cache.drain_io();
    let (dev_before, app_before) = cache.amp_bytes();
    assert!(app_before > 0 && dev_before >= app_before);
    drop(cache); // the crash

    ctrl.recover_ftl(None);
    // The FTL's lifetime counters survive in the device (they are the
    // device's own bookkeeping); the identity must hold right after
    // mapping reconstruction.
    ctrl.with_ftl(|f| f.check_invariants());
    let mut cache = recover_retrying(&ctrl, nsid, &config);
    // Host-side counters do NOT survive: the recovered engines start
    // from zero and every ratio sits at its identity value.
    let (dev, app) = cache.amp_bytes();
    assert_eq!(app, 0, "recovered engines must not recount survivors as app bytes");
    assert_eq!(dev, 0, "recovery reads must not count as device writes");
    assert_eq!(cache.alwa(), 1.0, "zero app bytes must degrade ALWA to 1.0, not NaN");
    let fresh = cache.stats();
    assert_eq!((fresh.gets, fresh.puts, fresh.nvm_app_bytes), (0, 0, 0));
    assert_eq!(fresh.hit_ratio(), 0.0);
    assert_eq!(fresh.ram_hit_ratio(), 0.0);
    // Post-recovery traffic rebuilds the ratios from clean denominators
    // and the device identity keeps holding.
    for i in 300..600 {
        assert!(apply(&mut cache, script(i), &mut shadow));
    }
    cache.drain_io();
    let (dev, app) = cache.amp_bytes();
    assert!(app > 0, "continuation must write app bytes");
    let alwa = cache.alwa();
    assert!(alwa >= 1.0 && alwa.is_finite(), "post-recovery ALWA broken: {alwa}");
    assert!(
        (alwa - dev as f64 / app as f64).abs() < 1e-9,
        "ALWA must be dev/app over the \
         recovered instance's own traffic"
    );
    ctrl.with_ftl(|f| {
        f.check_invariants();
        assert!(f.stats().dlwa() >= 1.0);
    });
}

/// Per-shard observables of one pool crash run; equal across reruns
/// *and* worker counts.
#[derive(Debug, PartialEq)]
struct ShardOutcome {
    ops_done: u64,
    crashed: bool,
    persisted: BTreeSet<u64>,
    lost: u64,
    resurrected: u64,
}

/// Partitions the script by owning shard, replays each shard's
/// sub-trace on `workers` threads (a shard is owned by one worker, so
/// per-shard op order never depends on the thread count), crashes
/// shard 0 at its first LOC region write, recovers the pool from the
/// surviving namespaces, and verifies every shard.
fn run_pool_crash(workers: usize, ops: u64, crash_lba: u64) -> Vec<ShardOutcome> {
    let fault = FaultConfig {
        scripted: vec![ScriptedFault {
            kind: FaultKind::Kill,
            lba: crash_lba,
            at_access: 0,
            repeats: 1,
        }],
        ..Default::default()
    };
    let ctrl = build_device_faulted(FtlConfig::tiny_test(), StoreKind::Mem, true, fault).unwrap();
    let config = cache_config(2_000);
    let pool =
        ConcurrentPool::new(&ctrl, &config, 2, 0.9, || Box::new(RoundRobinPolicy::new())).unwrap();
    let shards = pool.shards();
    // Shard-owned sub-traces, in trace order.
    let mut subtraces: Vec<Vec<ScriptOp>> = vec![Vec::new(); shards];
    for i in 0..ops {
        let op = script(i);
        let key = match op {
            ScriptOp::Put(k, _) | ScriptOp::Get(k) | ScriptOp::Delete(k) => k,
        };
        subtraces[pool.shard_of(key)].push(op);
    }

    // Each worker replays the shards it owns; a kill stops only the
    // owning shard's stream (the simulated blast radius of the crash —
    // every shard's flash state is a pure function of its sub-trace).
    let results: Vec<(u64, bool, Shadow)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let pool = &pool;
                let subtraces = &subtraces;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for s in (0..shards).filter(|s| s % workers == w) {
                        let mut shadow = Shadow::default();
                        let mut done = 0u64;
                        let mut crashed = false;
                        for &op in &subtraces[s] {
                            let r = match op {
                                ScriptOp::Put(k, size) => {
                                    pool.put(k, Value::synthetic(size)).map(|()| {
                                        shadow.deleted.remove(&k);
                                        shadow.acked_sizes.entry(k).or_default().insert(size);
                                    })
                                }
                                ScriptOp::Get(k) => pool.get(k).map(|_| ()),
                                ScriptOp::Delete(k) => pool.delete(k).map(|_| {
                                    shadow.acked_sizes.remove(&k);
                                    shadow.deleted.insert(k);
                                }),
                            };
                            match r {
                                Ok(()) => done += 1,
                                Err(e) if e.is_kill() => {
                                    crashed = true;
                                    break;
                                }
                                Err(e) => panic!("shard {s}: non-kill error: {e}"),
                            }
                        }
                        out.push((s, (done, crashed, shadow)));
                    }
                    out
                })
            })
            .collect();
        let mut merged: Vec<Option<(u64, bool, Shadow)>> = (0..shards).map(|_| None).collect();
        for h in handles {
            for (s, r) in h.join().unwrap() {
                merged[s] = Some(r);
            }
        }
        merged.into_iter().map(Option::unwrap).collect()
    });

    let persisted: Vec<BTreeSet<u64>> = (0..shards)
        .map(|s| pool.with_shard(s, |c| c.persisted_keys().into_iter().collect()).unwrap())
        .collect();
    drop(pool);

    ctrl.recover_ftl(None);
    let recovered =
        ConcurrentPool::recover(&ctrl, &config, &[1, 2], || Box::new(RoundRobinPolicy::new()))
            .unwrap();
    recovered.set_promote_on_nvm_hit(false);
    (0..shards)
        .map(|s| {
            let (done, crashed, shadow) = &results[s];
            let got: BTreeSet<u64> =
                recovered.with_shard(s, |c| c.persisted_keys().into_iter().collect()).unwrap();
            assert_eq!(got, persisted[s], "shard {s}: recovered persisted set diverged");
            let mut lost = 0u64;
            for &k in &persisted[s] {
                let (_, v) = recovered.get(k).expect("verification read");
                let ok = v.is_some_and(|v| {
                    let len = v.len() as u32;
                    shadow.acked_sizes.get(&k).is_some_and(|sz| sz.contains(&len))
                        && v.to_bytes(k) == Value::synthetic(len).to_bytes(k)
                });
                if !ok {
                    lost += 1;
                }
            }
            let mut resurrected = 0u64;
            for &k in &shadow.deleted {
                if recovered.get(k).expect("resurrection probe").0 != GetOutcome::Miss {
                    resurrected += 1;
                }
            }
            ShardOutcome {
                ops_done: *done,
                crashed: *crashed,
                persisted: persisted[s].clone(),
                lost,
                resurrected,
            }
        })
        .collect()
}

#[test]
fn pool_crash_recovery_is_worker_count_invariant() {
    let ops = 400u64;
    // Shard 0's first LOC region write, from a fault-free twin.
    let crash_lba = {
        let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, true).unwrap();
        let config = cache_config(2_000);
        let pool =
            ConcurrentPool::new(&ctrl, &config, 2, 0.9, || Box::new(RoundRobinPolicy::new()))
                .unwrap();
        let block = pool.with_shard(0, |c| c.navy().loc().region_start_block(0)).unwrap();
        ctrl.namespace(1).unwrap().start_lba + block
    };
    let single = run_pool_crash(1, ops, crash_lba);
    assert!(single[0].crashed, "shard 0's kill never fired — vacuous crash point");
    for (s, o) in single.iter().enumerate() {
        assert!(!o.persisted.is_empty(), "shard {s}: nothing persisted");
        assert_eq!(o.lost, 0, "shard {s}: lost acknowledged-and-sealed writes");
        assert_eq!(o.resurrected, 0, "shard {s}: resurrected deletes");
    }
    assert!(!single[1].crashed, "the crash must be confined to shard 0's stream");
    let rerun = run_pool_crash(1, ops, crash_lba);
    assert_eq!(single, rerun, "pool crash + recovery diverged across reruns");
    let two = run_pool_crash(2, ops, crash_lba);
    assert_eq!(single, two, "pool crash + recovery must not depend on the worker count");
}
