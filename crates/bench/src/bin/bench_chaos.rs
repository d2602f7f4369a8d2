//! Deterministic chaos-soak gate — device-health state machine,
//! degraded-mode serving and the background scrubber under fault
//! storms.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin bench_chaos [-- --check] [--ops N] [--json PATH]
//! ```
//!
//! Replays every built-in [`fdpcache_workloads::ChaosStorm`] (phased
//! fault schedules retuned at deterministic op boundaries) against the
//! sharded pool twice each, then replays `storm_recover` across worker
//! counts 1/4/8, and finally runs the
//! scrub-precedence scenario (scripted permanently-unreadable flash
//! pages).
//!
//! With `--check` the gate asserts:
//!
//! * same-seed storm reruns are **bit-identical** (per-shard virtual
//!   clocks, cache counters, injection totals, full breaker transition
//!   traces, verification tally);
//! * the topology matrix is **invariant**: the breaker opens and
//!   re-closes at identical virtual times no matter the worker count;
//! * **zero lost acknowledged writes** everywhere — across breaker
//!   open/close cycles, shed evictions and degraded serving;
//! * error-storm scenarios actually open the breaker *and* re-close it
//!   by probe before the replay ends (no vacuous pass, no stuck-open
//!   finish);
//! * the scrubber repairs every scripted bad page **before** any
//!   client read observes the fault.
//!
//! `--json PATH` writes the sweep as a `BENCH_chaos.json` trajectory
//! record (format documented in the README).

use fdpcache_bench::{
    json_destination, parse_count_flag, sweep_chaos, ChaosGateConfig, ChaosRunResult,
    TrajectoryRecord,
};
use fdpcache_metrics::Table;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let json_path = json_destination(&args, "chaos");
    let mut cfg = ChaosGateConfig::default();
    parse_count_flag(&args, "--ops", &mut cfg.ops);

    eprintln!(
        "chaos sweep: device {} MiB, RU {} MiB, {} ops per stream, {} shards, every builtin \
         storm x2 + topology matrix + scrub precedence",
        cfg.device_mib, cfg.ru_mib, cfg.ops, cfg.shards
    );
    let sweep = sweep_chaos(&cfg);

    let mut table = Table::new(vec![
        "storm", "wk", "injected", "surfaced", "opens", "closes", "degraded", "shed", "repairs",
        "acked", "verified", "lost", "det",
    ])
    .numeric();
    let row = |table: &mut Table, r: &ChaosRunResult, det: bool| {
        table.row(vec![
            r.storm.clone(),
            r.workers.to_string(),
            r.injected.total().to_string(),
            r.surfaced.to_string(),
            r.total_opens().to_string(),
            r.total_closes().to_string(),
            r.stats.degraded_misses.to_string(),
            r.stats.shed_evictions.to_string(),
            r.stats.scrub_repairs.to_string(),
            r.acked.to_string(),
            r.verified.to_string(),
            r.lost.to_string(),
            if det { "yes".into() } else { "NO".into() },
        ]);
    };
    for e in &sweep.storms {
        row(&mut table, &e.first, e.deterministic());
    }
    for r in &sweep.topology {
        let det = sweep.topology.first().map(|b| b.matches(r)).unwrap_or(false);
        row(&mut table, r, det);
    }
    println!("{}", table.render());
    let p = &sweep.precedence;
    println!(
        "scrub precedence: {} bad pages, {} acked, {} scrub passes ({} pages, {} repairs), \
         read-back {} hits / {} misses, {} injected during read-back, {} lost",
        p.bad_pages,
        p.acked,
        p.scrub_passes,
        p.scrubbed_pages,
        p.scrub_repairs,
        p.readback_hits,
        p.readback_misses,
        p.readback_injected,
        p.lost
    );

    if let Some(path) = json_path {
        let record = TrajectoryRecord::new_chaos(cfg.device_mib, cfg.ops, &sweep);
        match record.write(&path) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if check {
        let mut failed = false;
        for e in &sweep.storms {
            let r = &e.first;
            if !e.deterministic() {
                eprintln!(
                    "FAIL: storm {} diverged across same-seed reruns — the storm schedule, \
                     breaker and scrubber must be pure functions of their seeds",
                    r.storm
                );
                failed = true;
            }
            if r.injected.total() == 0 {
                eprintln!("FAIL: storm {} injected nothing (vacuous)", r.storm);
                failed = true;
            }
            if r.stats.scrubbed_pages == 0 {
                eprintln!("FAIL: storm {} never ran the patrol scrubber (vacuous)", r.storm);
                failed = true;
            }
        }
        // Error/busy storms must trip the breaker and probe back to
        // Closed; the latent-corruption storm must instead exercise the
        // scrubber (silent corruption never fails a command, so health
        // stays clean by design).
        for name in ["storm_recover", "busy_brownout"] {
            match sweep.storms.iter().find(|e| e.first.storm == name) {
                Some(e) => {
                    let r = &e.first;
                    if r.total_opens() == 0 {
                        eprintln!(
                            "FAIL: storm {name} never opened the breaker — the storm is too \
                             weak to exercise degraded mode (vacuous)"
                        );
                        failed = true;
                    } else if !r.all_reclosed() {
                        eprintln!(
                            "FAIL: storm {name} ended with a breaker stuck open ({} opens, {} \
                             closes) — half-open probes must re-close once the storm clears",
                            r.total_opens(),
                            r.total_closes()
                        );
                        failed = true;
                    }
                }
                None => {
                    eprintln!("FAIL: builtin storm {name} missing from the sweep");
                    failed = true;
                }
            }
        }
        if let Some(e) = sweep.storms.iter().find(|e| e.first.storm == "latent_corruption") {
            if e.first.stats.scrub_repairs == 0 {
                eprintln!(
                    "FAIL: storm latent_corruption produced no scrubber repairs — patrol \
                     reads must find and fix silent corruption"
                );
                failed = true;
            }
        } else {
            eprintln!("FAIL: builtin storm latent_corruption missing from the sweep");
            failed = true;
        }
        for r in sweep.storms.iter().map(|e| &e.first).chain(sweep.topology.iter()) {
            if r.lost > 0 {
                eprintln!(
                    "FAIL: {} ({}w) lost {} acknowledged write(s) — degraded mode must \
                     never serve torn data",
                    r.storm, r.workers, r.lost
                );
                failed = true;
            }
        }
        if let Some(base) = sweep.topology.first() {
            for r in &sweep.topology[1..] {
                if !base.matches(r) {
                    eprintln!(
                        "FAIL: topology {}w diverged from {}w — breaker transitions must \
                         land at identical virtual times for every worker count",
                        r.workers, base.workers
                    );
                    failed = true;
                }
            }
        }
        if p.bad_pages == 0 || p.acked == 0 {
            eprintln!("FAIL: scrub-precedence scenario seeded nothing (vacuous)");
            failed = true;
        }
        if p.scrub_repairs == 0 {
            eprintln!(
                "FAIL: scrub precedence — the scrubber repaired nothing despite {} scripted \
                 bad page(s)",
                p.bad_pages
            );
            failed = true;
        }
        if p.readback_injected > 0 {
            eprintln!(
                "FAIL: scrub precedence — {} client read(s) observed an injected fault; \
                 every bad page must be repaired or invalidated before clients touch it",
                p.readback_injected
            );
            failed = true;
        }
        if p.lost > 0 {
            eprintln!(
                "FAIL: scrub precedence — {} acknowledged write(s) torn after the \
                 repair cycle",
                p.lost
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "OK: {} storms bit-identical across reruns, {} topology runs invariant, breaker \
             opened and re-closed under error storms, zero lost acknowledged writes, \
             scrubber repaired all {} bad pages before any client read",
            sweep.storms.len(),
            sweep.topology.len(),
            p.bad_pages
        );
    }
}
