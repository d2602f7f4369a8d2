//! Multi-worker throughput on one shared device — the scaling gates
//! for the fine-grained-concurrency and batched-submission refactors.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin bench_throughput [-- --check] [--qd] [--ops N] [--trials N] [--json PATH]
//! ```
//!
//! `--json PATH` writes the sweep as a `BENCH_throughput.json`
//! trajectory record (documented in the README) for cross-PR tracking.
//!
//! **Worker sweep** (default): 1, 2, 4 and 8 workers (each on its own
//! namespace of one device), aggregate wall-clock ops/sec plus speedup
//! vs one worker, best of `--trials` runs (default 3). With `--check`
//! the 4-worker point must beat the 1-worker aggregate by a
//! core-count-adaptive factor (≥2.0× on ≥4 cores, ≥1.4× on 2–3, a
//! <30% no-regression bound on 1) — the gate that keeps the data path
//! off a global lock.
//!
//! **Queue-depth sweep** (`--qd`): QD 1, 2, 4 and 8 on a single worker
//! replaying the region-seal-heavy workload through the batched
//! submission pipeline. Throughput is measured in **virtual** time
//! (deterministic; host cores cannot touch it). With `--check` the
//! gate asserts (a) QD 4 reaches ≥ 1.3× the QD-1 virtual ops/sec —
//! batched region seals must beat the per-command path — and (b) two
//! QD-1 runs finish at bit-identical virtual clocks, pinning the
//! depth-1 pipeline to the legacy synchronous model.

use fdpcache_bench::{
    emit_trajectory, host_cores, json_destination, parse_count_flag, qd_sweep, run_qd_replay,
    sweep, ThroughputConfig, TrajectoryRecord,
};
use fdpcache_metrics::Table;

/// Required virtual-throughput speedup of the QD-4 batched replay over
/// the QD-1 synchronous path (the acceptance bar of the batching PR).
const QD_REQUIRED_SPEEDUP: f64 = 1.3;

fn run_qd_mode(cfg: &ThroughputConfig, check: bool, json_path: Option<String>) {
    eprintln!(
        "QD sweep: device {} MiB, RU {} MiB, {} ops, loc-seal-heavy workload, \
         single worker, virtual-time throughput",
        cfg.device_mib, cfg.ru_mib, cfg.ops_per_worker
    );
    let results = qd_sweep(cfg);
    let base = results[0].vkops;

    let mut table =
        Table::new(vec!["qd", "ops", "virtual (s)", "virtual KOPS", "wall (s)", "speedup"])
            .numeric();
    for r in &results {
        table.row(vec![
            r.qd.to_string(),
            r.total_ops.to_string(),
            format!("{:.3}", r.virtual_secs),
            format!("{:.0}", r.vkops),
            format!("{:.3}", r.wall_secs),
            format!("{:.2}x", r.vkops / base),
        ]);
    }
    println!("{}", table.render());

    if let Some(path) = json_path {
        let record = TrajectoryRecord::new_qd(cfg.device_mib, cfg.ops_per_worker, &results);
        match record.write(&path) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if check {
        let four = results.iter().find(|r| r.qd == 4).expect("QD-4 point");
        let speedup = four.vkops / base;
        if speedup < QD_REQUIRED_SPEEDUP {
            eprintln!(
                "FAIL: QD-4 batched replay is {speedup:.2}x the QD-1 synchronous path \
                 (needs >= {QD_REQUIRED_SPEEDUP:.1}x) — are region seals still submitting \
                 one command at a time?"
            );
            std::process::exit(1);
        }
        let qd1_again = run_qd_replay(cfg, 1);
        if qd1_again.now_ns != results[0].now_ns {
            eprintln!(
                "FAIL: two QD-1 replays diverged ({} ns vs {} ns) — the depth-1 pipeline \
                 is no longer deterministic/bit-identical to the synchronous path",
                results[0].now_ns, qd1_again.now_ns
            );
            std::process::exit(1);
        }
        eprintln!(
            "OK: QD-4 speedup {speedup:.2}x >= {QD_REQUIRED_SPEEDUP:.1}x, QD-1 bit-identical"
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let qd_mode = args.iter().any(|a| a == "--qd");
    let mut cfg = ThroughputConfig::default();
    let mut trials = 3u64;
    parse_count_flag(&args, "--ops", &mut cfg.ops_per_worker);
    parse_count_flag(&args, "--trials", &mut trials);

    let bench = if qd_mode { "throughput_qd" } else { "throughput_device" };
    let json_path = json_destination(&args, bench);
    if qd_mode {
        run_qd_mode(&cfg, check, json_path);
        return;
    }

    let cores = host_cores();
    eprintln!(
        "device {} MiB, RU {} MiB, {} ops/worker, best of {trials} trial(s), MemStore \
         payloads, {cores} host core(s)",
        cfg.device_mib, cfg.ru_mib, cfg.ops_per_worker
    );
    let results = sweep(&cfg, trials);
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
        emit_trajectory("device", cfg.device_mib, cfg.ops_per_worker, trials, &results, &path);
    }

    let four = results.iter().find(|r| r.workers == 4).expect("4-worker point");
    let speedup = four.kops / base_kops;
    let required = match cores {
        0 | 1 => 0.7,
        2 | 3 => 1.4,
        _ => 2.0,
    };
    if check {
        if speedup < required {
            eprintln!(
                "FAIL: 4-worker aggregate throughput is {speedup:.2}x the 1-worker baseline \
                 (needs >= {required:.1}x on {cores} core(s)) — is the data path behind a \
                 global lock again?"
            );
            std::process::exit(1);
        }
        eprintln!("OK: 4-worker speedup {speedup:.2}x >= {required:.1}x ({cores} core(s))");
    }
}
