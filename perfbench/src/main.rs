//! Command line of the fdpcache benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot_read|kv_mixed|twitter_gc|loc_seal> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a provenance line, a line of supporting figures, and as the
//! last line one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`),
//! each with its unit. Exits 1 if any correctness check failed and 2 on
//! bad arguments. A human-readable table goes to standard error.

use std::process::ExitCode;

use fdpcache_perfbench::run::{run, time_setup, Metric, Options};
use fdpcache_perfbench::spec::{Spec, WORKLOADS};

/// Set-ups per untraced run, each in a fresh process (the run's own
/// included); `setup_s` is their median.
const SETUPS: usize = 5;

/// Times `SETUPS - 1` set-ups, each in a child process of this binary
/// started with `--setup-only`, so that every set-up starts from a fresh
/// process's allocator state, as a user's does.
fn child_setups(workload: &str, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (1..SETUPS)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string(), "--setup-only", "1"])
                .output()
                .map_err(|e| format!("set-up child: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            match (out.status.success(), text.trim().parse::<f64>()) {
                (true, Ok(s)) => Ok(s),
                _ => Err(format!("set-up child failed: {}", String::from_utf8_lossy(&out.stderr))),
            }
        })
        .collect()
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>", WORKLOADS.join("|"));
    ExitCode::from(2)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_metrics(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_object(pairs: &[(String, String)]) -> String {
    let body: Vec<String> =
        pairs.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    format!("{{{}}}", body.join(", "))
}

/// The commit of the checkout being measured, read from `.git` in the
/// working directory; "unknown" outside a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or_default()
                        .to_string()
                })
            })
            .unwrap_or_default(),
    };
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0 && s.is_finite())
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--setup-only" => setup_only = true,
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let Some(spec) = workload.as_deref().and_then(Spec::by_name) else {
        return usage("--workload must name a workload");
    };
    if let (true, Some(seed)) = (setup_only, seed) {
        println!("{}", time_setup(&spec, seed));
        return ExitCode::SUCCESS;
    }
    let (Some(seed), Some(seconds), Some(trace)) = (seed, seconds, trace) else {
        return usage("--seed, --seconds and --trace are required");
    };

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let provenance = [
        ("workload".to_string(), spec.name.to_string()),
        ("seed".to_string(), seed.to_string()),
        ("seconds".to_string(), seconds.to_string()),
        ("trace".to_string(), u8::from(trace).to_string()),
        ("nproc".to_string(), nproc.to_string()),
        ("git_rev".to_string(), git_rev()),
        ("rustc".to_string(), env!("PERFBENCH_RUSTC").to_string()),
    ];
    println!("{{\"provenance\": {}}}", json_object(&provenance));

    let extra_setup_s = if trace {
        Vec::new()
    } else {
        match child_setups(spec.name, seed) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(1);
            }
        }
    };
    let opts = Options { seed, seconds, trace, extra_setup_s, window_ops: None };
    let out = run(&spec, &opts);

    let mut notes = out.notes.clone();
    for (name, why) in &out.unmeasured {
        notes.push((format!("unmeasured {name}"), why.clone()));
    }
    for (i, p) in out.problems.iter().enumerate() {
        notes.push((format!("problem {i}"), p.clone()));
    }
    if trace {
        // The virtual-time results of the traced run, for comparison
        // with the untraced run's.
        for m in &out.end_to_end {
            notes.push((m.name.to_string(), format!("{} {}", m.value, m.unit)));
        }
    }
    println!("{{\"info\": {}}}", json_object(&notes));

    eprintln!("{} seed {seed}{}", spec.name, if trace { " (traced)" } else { "" });
    for (k, v) in &notes {
        eprintln!("  {k:<28} {v}");
    }
    let metrics = if trace { &out.per_layer } else { &out.end_to_end };
    for m in metrics {
        eprintln!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct,
        out.attempted,
        out.failed,
        json_metrics(metrics)
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
