//! Full-stack cache-tier scaling on one shared concurrent pool — the
//! gate for the sharded cache tier.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin bench_fullstack [-- --check] [--ops N] [--trials N] [--json PATH]
//! cargo run --release --bin bench_fullstack -- --read [--check] [--ops N] [--trials N] [--json PATH]
//! ```
//!
//! Sweeps 1, 2, 4 and 8 worker threads, all calling **one**
//! `ConcurrentPool` (8 shards on one device) through `&self`, and
//! prints aggregate wall-clock cache ops/sec plus speedup vs one
//! worker. Each sweep point takes the best of `--trials` runs (default
//! 3). `--json PATH` writes the `BENCH_throughput.json` trajectory
//! record (documented in the README) so future PRs can track the
//! scaling curve.
//!
//! With `--check`, the run becomes a regression gate that keeps the
//! cache tier off a pool-wide lock. The required speedup adapts to the
//! host's parallelism, mirroring `bench_throughput --check`:
//!
//! * ≥ 4 cores — 4 workers must reach ≥ 2.0× the 1-worker aggregate;
//! * 2–3 cores — 4 workers must reach ≥ 1.4×;
//! * 1 core — the gate degrades to a no-regression bound (< 60% cost
//!   vs single-worker). Unlike the device bench, every cache op holds
//!   its shard lock end to end, so 4 threads time-slicing one core
//!   pay real lock-parking overhead (~40% measured); on one core a
//!   pool-wide lock is indistinguishable by speedup anyway —
//!   everything serializes — so the real assertion runs wherever CI
//!   has cores.
//!
//! With `--read`, the binary instead runs the contended-read scaling
//! gate: the `read-mostly-hot` profile (95/5 GET/SET on a Zipf(1.1)
//! head, keyspace fully DRAM-resident) against one shared pool, GETs
//! going through the lock-free epoch-protected index. The sweep prints
//! a locked 1-thread baseline (`get_locked`) plus lock-free points at
//! 1/2/4/8 readers; `--check` gates:
//!
//! * lock-free @ 1 reader ≥ 0.9× the locked baseline (the index probe
//!   must not tax the uncontended path);
//! * near-linear read scaling, core-adaptive: ≥ 8 cores — 8 readers ≥
//!   6.0× the 1-reader lock-free point; 4–7 cores — ≥ 2.5×; 2–3 cores
//!   — ≥ 1.3×; 1 core — scaling unobservable, the no-regression bound
//!   above is the whole gate;
//! * DRAM hit ratio ≥ 0.5 on every point (otherwise the run measured
//!   flash misses, not read-path synchronization).

use fdpcache_bench::{
    emit_trajectory, host_cores, json_destination, parse_count_flag, sweep_fullstack, sweep_read,
    FullstackConfig, ReadScalingConfig, TrajectoryRecord,
};
use fdpcache_metrics::Table;

/// Contended-read scaling gate (`--read`): exits non-zero on failure
/// when `check` is set.
fn run_read_gate(args: &[String], check: bool, json_path: Option<String>) {
    let mut cfg = ReadScalingConfig::default();
    let mut trials = 3u64;
    parse_count_flag(args, "--ops", &mut cfg.ops_per_worker);
    parse_count_flag(args, "--trials", &mut trials);

    let cores = host_cores();
    eprintln!(
        "contended-read gate: device {} MiB, {} pool shards, {} DRAM-resident keys, \
         {} ops/worker, best of {trials} trial(s), {cores} host core(s)",
        cfg.device_mib, cfg.shards, cfg.keyspace, cfg.ops_per_worker
    );
    let results = sweep_read(&cfg, trials);
    let locked_base =
        results.iter().find(|r| r.locked && r.workers == 1).expect("locked baseline point").kops;
    let lockfree_base = results
        .iter()
        .find(|r| !r.locked && r.workers == 1)
        .expect("1-reader lock-free point")
        .kops;

    let mut table = Table::new(vec![
        "mode",
        "readers",
        "total ops",
        "wall (s)",
        "agg KOPS",
        "RAM hit",
        "speedup",
    ])
    .numeric();
    for r in &results {
        table.row(vec![
            if r.locked { "locked" } else { "lockfree" }.to_string(),
            r.workers.to_string(),
            r.total_ops.to_string(),
            format!("{:.3}", r.wall_secs),
            format!("{:.0}", r.kops),
            format!("{:.3}", r.ram_hit_ratio),
            format!("{:.2}x", r.kops / lockfree_base),
        ]);
    }
    println!("{}", table.render());

    if let Some(path) = json_path {
        let record =
            TrajectoryRecord::new_read(cfg.device_mib, cfg.ops_per_worker, trials, &results);
        match record.write(&path) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if !check {
        return;
    }
    // Premise: the sweep must be measuring DRAM hits, not flash misses.
    for r in &results {
        if r.ram_hit_ratio < 0.5 {
            eprintln!(
                "FAIL: {} @ {} readers hit DRAM on only {:.1}% of GETs — the keyspace \
                 no longer fits in the pool's RAM, so the gate is not measuring the \
                 read path",
                if r.locked { "locked" } else { "lockfree" },
                r.workers,
                r.ram_hit_ratio * 100.0
            );
            std::process::exit(1);
        }
    }
    // No-regression: the uncontended lock-free probe must not tax GETs.
    let ratio = lockfree_base / locked_base;
    if ratio < 0.9 {
        eprintln!(
            "FAIL: 1-reader lock-free GETs run at {ratio:.2}x the locked baseline \
             (needs >= 0.90x) — the index probe added overhead to the uncontended path"
        );
        std::process::exit(1);
    }
    eprintln!("OK: 1-reader lock-free vs locked baseline {ratio:.2}x >= 0.90x");
    // Scaling: near-linear where the host has the cores to show it.
    let eight = results.iter().find(|r| !r.locked && r.workers == 8).expect("8-reader point");
    let speedup = eight.kops / lockfree_base;
    let required = match cores {
        0 | 1 => {
            eprintln!(
                "OK: single core — read scaling unobservable, no-regression bound \
                 is the gate ({speedup:.2}x measured at 8 readers)"
            );
            return;
        }
        2 | 3 => 1.3,
        4..=7 => 2.5,
        _ => 6.0,
    };
    if speedup < required {
        eprintln!(
            "FAIL: 8-reader lock-free throughput is {speedup:.2}x the 1-reader point \
             (needs >= {required:.1}x on {cores} core(s)) — are DRAM hits serializing \
             on the shard lock?"
        );
        std::process::exit(1);
    }
    eprintln!("OK: 8-reader read scaling {speedup:.2}x >= {required:.1}x ({cores} core(s))");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let read_mode = args.iter().any(|a| a == "--read");
    let json_path = json_destination(&args, if read_mode { "read" } else { "throughput" });
    if read_mode {
        run_read_gate(&args, check, json_path);
        return;
    }
    let mut cfg = FullstackConfig::default();
    let mut trials = 3u64;
    parse_count_flag(&args, "--ops", &mut cfg.ops_per_worker);
    parse_count_flag(&args, "--trials", &mut trials);

    let cores = host_cores();
    eprintln!(
        "device {} MiB, RU {} MiB, {} pool shards, {} ops/worker, best of {trials} trial(s), \
         MemStore payloads, {cores} host core(s)",
        cfg.device_mib, cfg.ru_mib, cfg.shards, cfg.ops_per_worker
    );
    let results = sweep_fullstack(&cfg, trials);
    let base_kops = results[0].kops;

    let mut table =
        Table::new(vec!["workers", "total ops", "wall (s)", "agg KOPS", "speedup"]).numeric();
    for r in &results {
        table.row(vec![
            r.workers.to_string(),
            r.total_ops.to_string(),
            format!("{:.3}", r.wall_secs),
            format!("{:.0}", r.kops),
            format!("{:.2}x", r.kops / base_kops),
        ]);
    }
    println!("{}", table.render());

    if let Some(path) = json_path {
        emit_trajectory("fullstack", cfg.device_mib, cfg.ops_per_worker, trials, &results, &path);
    }

    let four = results.iter().find(|r| r.workers == 4).expect("4-worker point");
    let speedup = four.kops / base_kops;
    let required = match cores {
        0 | 1 => 0.4,
        2 | 3 => 1.4,
        _ => 2.0,
    };
    if check {
        if speedup < required {
            eprintln!(
                "FAIL: 4-worker full-stack throughput is {speedup:.2}x the 1-worker baseline \
                 (needs >= {required:.1}x on {cores} core(s)) — is the cache tier behind a \
                 pool-wide lock?"
            );
            std::process::exit(1);
        }
        eprintln!(
            "OK: 4-worker full-stack speedup {speedup:.2}x >= {required:.1}x ({cores} core(s))"
        );
    }
}
