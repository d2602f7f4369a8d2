//! The CacheBench-equivalent replayer.
//!
//! Drives a [`HybridCache`] with a [`crate::TraceGen`] (or any other
//! [`RequestSource`]), sampling the device's
//! FDP statistics log at fixed host-byte intervals (the simulated
//! counterpart of the paper's 10-minute `nvme get-log` polling, §6.1)
//! to produce interval-DLWA series, and rolls up the CacheBench metrics
//! the paper reports: throughput, hit ratios, p99 latencies, ALWA.
//!
//! [`replay_pool`] is the multi-threaded sibling: M real worker threads
//! drive one [`ConcurrentPool`] (partitioning or contending on the
//! trace, [`crate::concurrent::PoolMode`]) and the same metrics are
//! aggregated mergeably across shards.

use fdpcache_cache::value::Value;
use fdpcache_cache::{ConcurrentPool, HybridCache};
use fdpcache_core::SharedController;
use serde::Serialize;

use crate::concurrent::{run_pool_round, PoolMode};
use crate::trace::Op;
use crate::tracefile::RequestSource;

/// Replay configuration.
///
/// Run length is controlled by *host bytes written to the device* rather
/// than operation counts: DLWA experiments need a fixed number of device
/// turnovers regardless of hit ratio (the paper runs for fixed wall time
/// on fixed hardware, which amounts to the same thing).
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Host bytes to write during warm-up (uncounted; brings the flash
    /// cache and FTL to steady state).
    pub warmup_host_bytes: u64,
    /// Host bytes to write during measurement.
    pub measure_host_bytes: u64,
    /// Sample the FDP statistics log every this many host bytes written
    /// (one "interval" of the DLWA timeline; the simulated counterpart
    /// of the paper's 10-minute windows).
    pub interval_host_bytes: u64,
    /// Safety cap on total operations (guards against workloads that
    /// produce no flash writes, e.g. all-RAM-hit traces).
    pub max_ops: u64,
    /// Worker-thread count to scale the throughput readout by (the
    /// paper's CacheBench runs tens of threads; the simulator is
    /// single-threaded with one virtual clock).
    pub report_workers: u32,
    /// Device queue depth during the replay: how many commands the
    /// cache's I/O path keeps in flight. 1 (the default) is the
    /// synchronous per-command model and is bit-identical to the
    /// pre-batching replayer; higher depths pipeline batched region
    /// seals across device lanes in virtual time.
    pub queue_depth: usize,
    /// Fault scenario the device was built with (see
    /// [`fdpcache_cache::builder::build_device_faulted`]). The replayer
    /// tags the result label with the scenario name and the result
    /// carries the cache's fault/retry/repair/requeue counters either
    /// way; `None` means the plain, fault-free device.
    pub fault: Option<crate::faults::FaultScenario>,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            warmup_host_bytes: 1 << 30,
            measure_host_bytes: 4 << 30,
            interval_host_bytes: 256 << 20,
            max_ops: u64::MAX,
            report_workers: 32,
            queue_depth: 1,
            fault: None,
        }
    }
}

/// Everything an experiment binary needs to print its figure/table.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentResult {
    /// Workload name.
    pub workload: String,
    /// Configuration label (e.g. "FDP" / "Non-FDP").
    pub label: String,
    /// Interval DLWA points: `(host GiB written, interval DLWA)`.
    pub dlwa_series: Vec<(f64, f64)>,
    /// DLWA over the measured portion (post-warmup).
    pub dlwa: f64,
    /// Mean of the last quarter of the interval series (steady state).
    pub dlwa_steady: f64,
    /// Overall cache hit ratio.
    pub hit_ratio: f64,
    /// Flash hit ratio (hits / flash lookups).
    pub nvm_hit_ratio: f64,
    /// Application-level write amplification.
    pub alwa: f64,
    /// Throughput in thousands of operations per simulated second,
    /// scaled by `report_workers`.
    pub kops: f64,
    /// GET throughput (KGET/s), same scaling.
    pub kgets: f64,
    /// p50 device read latency (µs).
    pub p50_read_us: f64,
    /// p99 device read latency (µs).
    pub p99_read_us: f64,
    /// p50 device write latency (µs).
    pub p50_write_us: f64,
    /// p99 device write latency (µs).
    pub p99_write_us: f64,
    /// GC events (Media Relocated) during measurement.
    pub gc_events: u64,
    /// Host bytes written during measurement.
    pub host_bytes: u64,
    /// Media bytes written during measurement.
    pub media_bytes: u64,
    /// Operations replayed (excluding warm-up).
    pub ops: u64,
    /// Device commands that completed with an injected failure status
    /// during measurement (0 on a fault-free device).
    pub faults: u64,
    /// Recovery retries performed during measurement.
    pub retries: u64,
    /// Targeted repair-writes performed during measurement.
    pub repairs: u64,
    /// Objects requeued out of failed region seals during measurement.
    pub requeues: u64,
    /// Per-tenant SLO rollups (empty for single-tenant runs; populated
    /// by the open-loop fleet driver).
    pub tenants: Vec<crate::tenants::TenantSloSummary>,
}

/// Replays traces against a cache.
#[derive(Debug)]
pub struct Replayer {
    config: ReplayConfig,
}

impl Replayer {
    /// Creates a replayer.
    pub fn new(config: ReplayConfig) -> Self {
        Replayer { config }
    }

    /// Runs the replay and returns the rolled-up result.
    ///
    /// `gen` may be a synthetic [`crate::TraceGen`] or a recorded
    /// [`crate::FileReplay`] — anything implementing [`RequestSource`].
    ///
    /// # Errors
    ///
    /// Propagates cache/device errors as strings (experiment binaries
    /// only report them).
    pub fn run(
        &self,
        label: &str,
        workload: &str,
        cache: &mut HybridCache,
        ctrl: &SharedController,
        gen: &mut impl RequestSource,
    ) -> Result<ExperimentResult, String> {
        let step = |cache: &mut HybridCache, req: crate::trace::Request| -> Result<(), String> {
            match req.op {
                Op::Get => {
                    cache.get(req.key).map_err(|e| e.to_string())?;
                }
                Op::Set => {
                    match cache.put(req.key, Value::synthetic(req.size)) {
                        Ok(()) => {}
                        // Objects too large for any engine are simply
                        // not cacheable — CacheBench records these as
                        // failed SETs and continues.
                        Err(fdpcache_cache::CacheError::ObjectTooLarge { .. }) => {}
                        Err(e) => return Err(e.to_string()),
                    }
                }
                Op::Delete => {
                    cache.delete(req.key).map_err(|e| e.to_string())?;
                }
            }
            Ok(())
        };

        cache.set_queue_depth(self.config.queue_depth);

        // Warm-up (uncounted), bounded by host bytes written.
        let mut total_ops = 0u64;
        {
            let start = ctrl.fdp_stats_log().host_bytes_written;
            let target = start + self.config.warmup_host_bytes;
            while total_ops < self.config.max_ops {
                if self.config.warmup_host_bytes == 0
                    || ctrl.fdp_stats_log().host_bytes_written >= target
                {
                    break;
                }
                let req = gen.next_request();
                step(cache, req)?;
                total_ops += 1;
            }
        }

        // Reap in-flight completions so the measurement origin reflects
        // all warm-up work (no-op at queue depth 1).
        cache.drain_io();
        let stats0 = cache.stats();
        let log0 = ctrl.fdp_stats_log();
        let t0 = cache.now_ns();
        let read0 = cache.navy().read_latency().clone();
        let write0 = cache.navy().write_latency().clone();

        let mut dlwa_series = Vec::new();
        let mut last_log = log0;
        let mut next_sample = log0.host_bytes_written + self.config.interval_host_bytes;
        let target = log0.host_bytes_written + self.config.measure_host_bytes;
        let mut measured_ops = 0u64;

        while total_ops < self.config.max_ops {
            let req = gen.next_request();
            step(cache, req)?;
            total_ops += 1;
            measured_ops += 1;
            // Interval sampling by host bytes (cheap check first).
            let log = ctrl.fdp_stats_log();
            if log.host_bytes_written >= next_sample {
                let d = log.delta(&last_log);
                let x =
                    (log.host_bytes_written - log0.host_bytes_written) as f64 / (1u64 << 30) as f64;
                dlwa_series.push((x, d.dlwa()));
                last_log = log;
                next_sample = log.host_bytes_written + self.config.interval_host_bytes;
            }
            if log.host_bytes_written >= target {
                break;
            }
        }

        cache.drain_io();
        let stats = cache.stats().delta(&stats0);
        let log = ctrl.fdp_stats_log();
        let dlog = log.delta(&log0);
        let elapsed_ns = cache.now_ns().saturating_sub(t0).max(1);
        let secs = elapsed_ns as f64 * 1e-9;
        let workers = self.config.report_workers.max(1) as f64;

        // Latency histograms accumulate from construction; subtracting
        // isn't possible, so report the post-warmup view when warmup was
        // requested by comparing counts (approximation documented in
        // EXPERIMENTS.md: percentiles over the whole run).
        let read_hist = cache.navy().read_latency();
        let write_hist = cache.navy().write_latency();
        let _ = (read0, write0);

        let tail = dlwa_series.len().max(4) / 4;
        let dlwa_steady = if dlwa_series.is_empty() {
            dlog.dlwa()
        } else {
            let t: Vec<f64> = dlwa_series.iter().rev().take(tail).map(|&(_, y)| y).collect();
            t.iter().sum::<f64>() / t.len() as f64
        };

        let label = match &self.config.fault {
            Some(s) if s.name != "none" => format!("{label}+{}", s.name),
            _ => label.to_string(),
        };
        Ok(ExperimentResult {
            workload: workload.to_string(),
            label,
            dlwa_series,
            dlwa: dlog.dlwa(),
            dlwa_steady,
            hit_ratio: stats.hit_ratio(),
            nvm_hit_ratio: stats.nvm_hit_ratio(),
            alwa: cache.alwa(),
            kops: (stats.gets + stats.puts + stats.deletes) as f64 / secs / 1e3 * workers,
            kgets: stats.gets as f64 / secs / 1e3 * workers,
            p50_read_us: read_hist.p50() as f64 / 1e3,
            p99_read_us: read_hist.p99() as f64 / 1e3,
            p50_write_us: write_hist.p50() as f64 / 1e3,
            p99_write_us: write_hist.p99() as f64 / 1e3,
            gc_events: dlog.media_relocated_events,
            host_bytes: dlog.host_bytes_written,
            media_bytes: dlog.media_bytes_written,
            ops: measured_ops,
            faults: stats.faults,
            retries: stats.retries,
            repairs: stats.repairs,
            requeues: stats.requeues,
            tenants: Vec::new(),
        })
    }
}

/// Configuration for a multi-threaded replay over a [`ConcurrentPool`].
///
/// Run length is in *operations per stream* rather than host bytes:
/// op-count termination is what keeps the run deterministic (every
/// worker stops at the same stream position no matter how threads
/// interleave), which the determinism regression tests rely on.
#[derive(Debug, Clone)]
pub struct PoolReplayConfig {
    /// Worker thread count.
    pub workers: usize,
    /// Requests drawn per stream during warm-up (uncounted).
    pub warmup_ops: u64,
    /// Requests drawn per stream during measurement.
    pub measure_ops: u64,
    /// Base RNG seed. In [`PoolMode::Partitioned`] every worker's
    /// stream uses this seed verbatim (identical streams, disjoint
    /// shard ownership); in [`PoolMode::Contended`] worker `w` uses
    /// `seed + w` (independent streams).
    pub seed: u64,
    /// How workers divide the trace.
    pub mode: PoolMode,
    /// Device queue depth per shard (commands kept in flight; 1 = the
    /// synchronous per-command model). Shard clocks only reflect reaped
    /// completions, so the driver drains every shard at measurement
    /// boundaries.
    pub queue_depth: usize,
    /// Fault scenario the shared device was built with (label tag +
    /// fault-counter context, as in [`ReplayConfig::fault`]). Fault
    /// decisions key on per-LBA access history and shards own disjoint
    /// LBA ranges, so faulted partitioned replays stay bit-identical
    /// across reruns *and* worker counts.
    pub fault: Option<crate::faults::FaultScenario>,
}

impl Default for PoolReplayConfig {
    fn default() -> Self {
        PoolReplayConfig {
            workers: 4,
            warmup_ops: 0,
            measure_ops: 10_000,
            seed: 42,
            mode: PoolMode::Partitioned,
            queue_depth: 1,
            fault: None,
        }
    }
}

/// Replays a workload over `pool` from `cfg.workers` real OS threads
/// and rolls the run up into an [`ExperimentResult`].
///
/// Stats aggregate mergeably: cache counters and latency histograms
/// are merged across shards on read (per-shard consistent), DLWA comes
/// from the shared device's FDP log, and throughput uses the pool's
/// virtual-time frontier (the slowest shard clock — shards run in
/// parallel, so that is when the submitted work is done). The
/// `dlwa_series` holds the single whole-measurement point: interval
/// sampling during a multi-threaded run would order-couple workers,
/// destroying the determinism this driver exists to provide; timeline
/// experiments stay on the single-threaded [`Replayer`].
///
/// `source_factory` maps a seed to a request stream (e.g.
/// `|seed| profile.generator(keyspace, seed)`).
///
/// # Errors
///
/// The first worker error, as a string (experiment binaries only
/// report them).
pub fn replay_pool<S: RequestSource + Send>(
    label: &str,
    workload: &str,
    pool: &ConcurrentPool,
    ctrl: &SharedController,
    cfg: &PoolReplayConfig,
    source_factory: impl Fn(u64) -> S,
) -> Result<ExperimentResult, String> {
    let check = |reports: Vec<crate::concurrent::PoolWorkerReport>| -> Result<u64, String> {
        let mut executed = 0u64;
        for r in reports {
            if let Some(e) = r.error {
                return Err(format!("pool worker {} failed: {e}", r.worker));
            }
            executed += r.executed;
        }
        Ok(executed)
    };
    let mut sources: Vec<S> = (0..cfg.workers)
        .map(|w| match cfg.mode {
            PoolMode::Partitioned => source_factory(cfg.seed),
            PoolMode::Contended => source_factory(cfg.seed + w as u64),
        })
        .collect();
    pool.set_queue_depth(cfg.queue_depth);
    if cfg.warmup_ops > 0 {
        check(run_pool_round(pool, &mut sources, cfg.mode, cfg.warmup_ops))?;
    }

    pool.drain_io();
    let stats0 = pool.stats();
    let log0 = ctrl.fdp_stats_log();
    let t0 = pool.now_ns();

    let ops = check(run_pool_round(pool, &mut sources, cfg.mode, cfg.measure_ops))?;

    pool.drain_io();
    let stats = pool.stats().delta(&stats0);
    let dlog = ctrl.fdp_stats_log().delta(&log0);
    let elapsed_ns = pool.now_ns().saturating_sub(t0).max(1);
    let secs = elapsed_ns as f64 * 1e-9;
    // Histograms accumulate from construction (same concession as
    // Replayer::run): percentiles cover the whole run, warm-up
    // included.
    let read_hist = pool.read_latency();
    let write_hist = pool.write_latency();
    let dlwa = dlog.dlwa();
    let host_gib = dlog.host_bytes_written as f64 / (1u64 << 30) as f64;
    let label = match &cfg.fault {
        Some(s) if s.name != "none" => format!("{label}+{}", s.name),
        _ => label.to_string(),
    };

    Ok(ExperimentResult {
        workload: workload.to_string(),
        label,
        dlwa_series: vec![(host_gib, dlwa)],
        dlwa,
        dlwa_steady: dlwa,
        hit_ratio: stats.hit_ratio(),
        nvm_hit_ratio: stats.nvm_hit_ratio(),
        alwa: pool.alwa(),
        kops: (stats.gets + stats.puts + stats.deletes) as f64 / secs / 1e3,
        kgets: stats.gets as f64 / secs / 1e3,
        p50_read_us: read_hist.p50() as f64 / 1e3,
        p99_read_us: read_hist.p99() as f64 / 1e3,
        p50_write_us: write_hist.p50() as f64 / 1e3,
        p99_write_us: write_hist.p99() as f64 / 1e3,
        gc_events: dlog.media_relocated_events,
        host_bytes: dlog.host_bytes_written,
        media_bytes: dlog.media_bytes_written,
        ops,
        faults: stats.faults,
        retries: stats.retries,
        repairs: stats.repairs,
        requeues: stats.requeues,
        tenants: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::WorkloadProfile;
    use fdpcache_cache::builder::{build_stack, StoreKind};
    use fdpcache_cache::config::{CacheConfig, NvmConfig};
    use fdpcache_ftl::FtlConfig;

    fn stack(fdp: bool) -> (SharedController, HybridCache) {
        let config = CacheConfig {
            ram_bytes: 64 << 10,
            ram_item_overhead: 31,
            nvm: NvmConfig { soc_fraction: 0.1, region_bytes: 16 * 4096, ..NvmConfig::default() },
            use_fdp: fdp,
        };
        build_stack(FtlConfig::tiny_test(), StoreKind::Null, fdp, 0.9, &config).unwrap()
    }

    #[test]
    fn replay_produces_sane_metrics() {
        let (ctrl, mut cache) = stack(true);
        let profile = WorkloadProfile::meta_kv_cache();
        let mut gen = profile.generator(20_000, 5);
        let replayer = Replayer::new(ReplayConfig {
            warmup_host_bytes: 2 << 20,
            measure_host_bytes: 24 << 20,
            interval_host_bytes: 4 << 20,
            max_ops: 200_000,
            report_workers: 1,
            queue_depth: 1,
            fault: None,
        });
        let r = replayer.run("FDP", profile.name, &mut cache, &ctrl, &mut gen).unwrap();
        assert!(r.dlwa >= 1.0, "dlwa {}", r.dlwa);
        assert!(r.hit_ratio > 0.0 && r.hit_ratio < 1.0, "hit ratio {}", r.hit_ratio);
        assert!(r.kops > 0.0);
        assert!(r.alwa >= 1.0);
        assert!(r.host_bytes > 0);
        assert!(r.media_bytes >= r.host_bytes);
        assert!(!r.dlwa_series.is_empty(), "expected interval samples");
    }

    #[test]
    fn write_only_replay_stresses_flash() {
        let (ctrl, mut cache) = stack(true);
        let profile = WorkloadProfile::wo_kv_cache();
        let mut gen = profile.generator(20_000, 5);
        let replayer = Replayer::new(ReplayConfig {
            warmup_host_bytes: 0,
            measure_host_bytes: 16 << 20,
            interval_host_bytes: 8 << 20,
            max_ops: 100_000,
            report_workers: 1,
            queue_depth: 1,
            fault: None,
        });
        let r = replayer.run("FDP", profile.name, &mut cache, &ctrl, &mut gen).unwrap();
        assert_eq!(r.kgets, 0.0, "write-only trace has no GETs");
        assert!(r.host_bytes > 0);
    }

    #[test]
    fn result_serializes_to_json() {
        let (ctrl, mut cache) = stack(true);
        let profile = WorkloadProfile::twitter_cluster12();
        let mut gen = profile.generator(5_000, 1);
        let replayer = Replayer::new(ReplayConfig {
            warmup_host_bytes: 0,
            measure_host_bytes: 4 << 20,
            interval_host_bytes: 1 << 30,
            max_ops: 20_000,
            report_workers: 1,
            queue_depth: 1,
            fault: None,
        });
        let r = replayer.run("x", profile.name, &mut cache, &ctrl, &mut gen).unwrap();
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"dlwa\""));
    }

    fn pool_stack(shards: usize) -> (SharedController, fdpcache_cache::ConcurrentPool) {
        use fdpcache_cache::builder::build_device;
        let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Null, true).unwrap();
        let config = CacheConfig {
            ram_bytes: 32 << 10,
            ram_item_overhead: 0,
            nvm: NvmConfig { soc_fraction: 0.2, region_bytes: 8 * 4096, ..NvmConfig::default() },
            use_fdp: true,
        };
        let pool = fdpcache_cache::ConcurrentPool::new(&ctrl, &config, shards, 0.9, || {
            Box::new(fdpcache_core::RoundRobinPolicy::new())
        })
        .unwrap();
        (ctrl, pool)
    }

    #[test]
    fn pool_replay_produces_sane_metrics() {
        let (ctrl, pool) = pool_stack(4);
        let profile = WorkloadProfile::meta_kv_cache();
        let cfg = PoolReplayConfig {
            workers: 4,
            warmup_ops: 2_000,
            measure_ops: 10_000,
            seed: 7,
            mode: crate::concurrent::PoolMode::Contended,
            queue_depth: 1,
            fault: None,
        };
        let r = replay_pool("FDP", profile.name, &pool, &ctrl, &cfg, |seed| {
            profile.generator(5_000, seed)
        })
        .unwrap();
        assert!(r.dlwa >= 1.0, "dlwa {}", r.dlwa);
        assert!(r.hit_ratio > 0.0 && r.hit_ratio < 1.0, "hit ratio {}", r.hit_ratio);
        assert!(r.kops > 0.0);
        assert!(r.host_bytes > 0);
        assert!(r.ops > 0);
        assert_eq!(r.dlwa_series.len(), 1);
        ctrl.with_ftl(|f| f.check_invariants());
    }

    #[test]
    fn pool_replay_partitioned_counts_each_request_once() {
        let (ctrl, pool) = pool_stack(4);
        let profile = WorkloadProfile::meta_kv_cache();
        let cfg = PoolReplayConfig {
            workers: 2,
            warmup_ops: 0,
            measure_ops: 6_000,
            seed: 11,
            mode: crate::concurrent::PoolMode::Partitioned,
            queue_depth: 1,
            fault: None,
        };
        let r = replay_pool("FDP", profile.name, &pool, &ctrl, &cfg, |seed| {
            profile.generator(5_000, seed)
        })
        .unwrap();
        assert_eq!(r.ops, 6_000, "partition must cover the stream exactly once");
    }
}
