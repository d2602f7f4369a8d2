//! Real (wall-clock) data-path throughput — the gate for the
//! slab-backed zero-copy payload path.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin bench_wallclock [-- --check] [--ops N] [--trials N] [--json PATH]
//! ```
//!
//! Replays the `read_heavy`, `write_heavy` and `loc_seal_heavy`
//! profiles twice each — on the production page-slab store and on the
//! seed's hash-map reference (`hashmap-store` feature) — and reports
//! real ops/s and payload MiB/s per run. The traces are deterministic
//! and identical across stores, so both runs issue the same device
//! command sequence and must finish at **bit-identical virtual
//! clocks**; the wall-clock ratio isolates the memory path.
//!
//! With `--check` the gate asserts (a) the slab path reaches ≥ 2.0×
//! the hash-map reference's wall-clock ops/s on `loc_seal_heavy` and
//! (b) every profile's virtual clock matches across stores.
//!
//! `--json PATH` writes the sweep as a `BENCH_wallclock.json`
//! trajectory record (documented in the README) for cross-PR tracking.

use fdpcache_bench::wallclock::{profile_by_label, run_wallclock, RunMode, WallclockStore};
use fdpcache_bench::{
    json_destination, parse_count_flag, sweep_wallclock, TrajectoryRecord, WallclockConfig,
};
use fdpcache_metrics::Table;

/// Required wall-clock ops/s speedup of the slab data path over the
/// seed's hash-map store on the seal-heavy profile (the acceptance bar
/// of the zero-copy slab PR).
const REQUIRED_SPEEDUP: f64 = 2.0;

/// Child-process entry: `--one <profile> <store> <device_mib> <ru_mib>
/// <ops> <seed>` runs a single cold measurement and prints its record
/// line (see `WallclockResult::record_line`).
fn run_one(args: &[String], i: usize) -> ! {
    let usage = || -> ! {
        eprintln!("error: --one requires <profile> <store> <device_mib> <ru_mib> <ops> <seed>");
        std::process::exit(2);
    };
    let arg = |k: usize| args.get(i + k).unwrap_or_else(|| usage());
    let num = |k: usize| arg(k).parse::<u64>().unwrap_or_else(|_| usage());
    let profile = profile_by_label(arg(1)).unwrap_or_else(|| usage());
    let store = match arg(2).as_str() {
        "slab" => WallclockStore::Slab,
        "hashmap" => WallclockStore::HashRef,
        _ => usage(),
    };
    let cfg = WallclockConfig { device_mib: num(3), ru_mib: num(4), ops: num(5), seed: num(6) };
    let r = run_wallclock(&cfg, &profile, store);
    println!("{}", r.record_line());
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--one") {
        run_one(&args, i);
    }
    let check = args.iter().any(|a| a == "--check");
    let json_path = json_destination(&args, "wallclock");
    let mut cfg = WallclockConfig::default();
    let mut trials = 2u64;
    parse_count_flag(&args, "--ops", &mut cfg.ops);
    parse_count_flag(&args, "--trials", &mut trials);

    eprintln!(
        "wallclock sweep: device {} MiB, RU {} MiB, {} ops, slab vs hashmap reference, \
         best of {trials} trial(s), one cold child process per run",
        cfg.device_mib, cfg.ru_mib, cfg.ops
    );
    // A gate verdict on warm in-process runs would be invalid, so
    // --check refuses to fall back when child processes cannot spawn.
    let mode = if check { RunMode::IsolatedStrict } else { RunMode::Isolated };
    let comparisons = sweep_wallclock(&cfg, trials, mode);

    let mut table =
        Table::new(vec!["profile", "store", "ops", "wall (s)", "KOPS", "MiB/s", "speedup"])
            .numeric();
    for c in &comparisons {
        for (r, speedup) in [(&c.slab, c.speedup()), (&c.hash_ref, 1.0)] {
            table.row(vec![
                r.profile.clone(),
                r.store.clone(),
                r.ops.to_string(),
                format!("{:.3}", r.wall_secs),
                format!("{:.0}", r.kops),
                format!("{:.0}", r.mib_per_sec),
                format!("{speedup:.2}x"),
            ]);
        }
    }
    println!("{}", table.render());

    if let Some(path) = json_path {
        let record = TrajectoryRecord::new_wallclock(cfg.device_mib, cfg.ops, trials, &comparisons);
        match record.write(&path) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if check {
        for c in &comparisons {
            if !c.virtual_clocks_match() {
                eprintln!(
                    "FAIL: virtual clocks diverged across payload stores on {} \
                     ({} ns slab vs {} ns hashmap) — the payload store must never \
                     affect virtual-time results",
                    c.slab.profile, c.slab.now_ns, c.hash_ref.now_ns
                );
                std::process::exit(1);
            }
        }
        let seal = comparisons
            .iter()
            .find(|c| c.slab.profile == "loc_seal_heavy")
            .expect("loc_seal_heavy point");
        let speedup = seal.speedup();
        if speedup < REQUIRED_SPEEDUP {
            eprintln!(
                "FAIL: slab data path is {speedup:.2}x the hash-map reference on \
                 loc_seal_heavy (needs >= {REQUIRED_SPEEDUP:.1}x) — is the hot path \
                 allocating per block again?"
            );
            std::process::exit(1);
        }
        eprintln!(
            "OK: slab {speedup:.2}x >= {REQUIRED_SPEEDUP:.1}x on loc_seal_heavy, \
             virtual time bit-identical across stores on every profile"
        );
    }
}
