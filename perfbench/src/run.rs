//! One benchmark run: set-up, warm-up, the measured window, the checks
//! and the metrics.

use std::time::Instant;

use fdpcache_cache::{FlashVerify, Value};
use fdpcache_metrics::Histogram;
use fdpcache_nvme::DataStore;

use crate::drive::{median, run_phase, Feed, Phase, Stop, Tail, Tally};
use crate::layers::{lock_free_hit_host_ns, LayerAcc, ReadPath, TracedPool, TracedSingle};
use crate::shadow::Shadow;
use crate::spec::Spec;
use crate::stack::{io_delta, Snapshot, Stack, Tier};
use crate::timing::{replay_ftl, StoreTally};

/// How to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed: the request stream and the device's latency
    /// jitter derive from it.
    pub seed: u64,
    /// Measured seconds (split evenly between the untraced and traced
    /// windows of a traced run).
    pub seconds: f64,
    /// Produce the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Set-up times (s) measured elsewhere, e.g. in fresh processes;
    /// `setup_s` is the median of these and this run's own set-up.
    pub extra_setup_s: Vec<f64>,
    /// End the window after this many ops instead of `seconds` (tests).
    pub window_ops: Option<u64>,
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name as listed in BENCHMARK.json.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted in the measured window(s).
    pub attempted: u64,
    /// Of those, failed or refused.
    pub failed: u64,
    /// End-to-end metrics (latency and set-up only in untraced runs;
    /// the virtual-time metrics in both).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Failed checks.
    pub problems: Vec<String>,
    /// Per-layer metrics reported as 0 because they could not be
    /// measured, with the reason.
    pub unmeasured: Vec<(&'static str, String)>,
    /// Supporting figures for the human-readable report.
    pub notes: Vec<(String, String)>,
}

/// Keys the hot_read prefill may use beyond the keyspace.
const PREFILL_MAX: u64 = 1 << 19;
const PREFILL_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
/// Keys of each kind (replayed, prefilled) checked with
/// `verify_flash_key` after the window.
const VERIFY_KEYS: usize = 2000;

struct Prepared {
    stack: Stack,
    feed: Feed,
    shadow: Shadow,
    keys: u64,
    prefilled: u64,
    /// Ops issued during set-up (prefill and DRAM warm).
    setup_tally: Tally,
}

fn put_one(stack: &mut Stack, shadow: &Shadow, t: &mut Tally, key: u64, size: u32) {
    t.sets += 1;
    let r = shadow.write(key, || {
        let r = match &mut stack.tier {
            Tier::Pool(p) => p.put(key, Value::synthetic(size)),
            Tier::Single(c) => c.put(key, Value::synthetic(size)),
        };
        let acked = r.is_ok().then_some(size);
        (r, acked)
    });
    if let Err(e) = r {
        t.errors += 1;
        t.first_problem.get_or_insert_with(|| format!("set-up SET {key}: {e}"));
    }
}

/// Builds the stack, prefills flash with cold keys, generates the first
/// round and warms DRAM with it, as the workload asks.
fn prepare(
    spec: &Spec,
    seed: u64,
    drivers: usize,
    timed: bool,
    wrap: &dyn Fn(Box<dyn DataStore>) -> Box<dyn DataStore>,
) -> Prepared {
    let mut stack = Stack::build_with(spec, seed, timed, wrap);
    let keys = spec.keys(stack.ns_bytes);
    let prefill_room = if spec.hot_set { PREFILL_MAX } else { 0 };
    // Within a round one driver may run ahead of another by up to
    // `round_ops` requests, each of which may advance the generator's
    // epoch once; the keys in flight then span that many more ids. A
    // reseeding feed's fresh generator starts again at id 0 while the
    // cache still holds the ids its predecessor reached, at most one
    // epoch per request of its `reseed_rounds` rounds beyond `keys`.
    let drift = spec.round_ops as u64 * spec.reseed_rounds.max(1);
    let shadow = Shadow::new(keys + drift + prefill_room);
    let mut setup_tally = Tally::default();
    let mut prefilled = 0;
    if spec.hot_set {
        let target = stack.ns_bytes;
        let mut sizes = spec.profile.generator(keys, seed ^ PREFILL_SALT);
        while prefilled < PREFILL_MAX && stack.ctrl.fdp_stats_log().host_bytes_written < target {
            for _ in 0..1024 {
                let size = sizes.next_request().size;
                put_one(&mut stack, &shadow, &mut setup_tally, keys + prefilled, size);
                prefilled += 1;
            }
        }
        if stack.ctrl.fdp_stats_log().host_bytes_written < target {
            setup_tally.errors += 1;
            setup_tally.first_problem.get_or_insert_with(|| {
                format!("prefill stopped after {prefilled} keys short of its flash target")
            });
        }
    }
    let mut feed = Feed::new(
        spec.profile.clone(),
        keys,
        seed,
        spec.reseed_rounds,
        drivers,
        spec.round_ops,
        spec.hot_set,
    );
    feed.advance();
    if spec.hot_set {
        // Every key of the replayed block, coldest first so the Zipf head
        // is most recently used, at the size its SETs will write.
        let mut sizes = vec![0u32; keys as usize];
        for r in feed.blocks.iter().flatten() {
            let s = &mut sizes[r.key as usize];
            if *s == 0 {
                *s = r.size;
            }
        }
        for key in (0..keys).rev() {
            if sizes[key as usize] > 0 {
                put_one(&mut stack, &shadow, &mut setup_tally, key, sizes[key as usize]);
            }
        }
    }
    Prepared { stack, feed, shadow, keys, prefilled, setup_tally }
}

/// Runs a phase with the tier's plain clients.
fn plain_phase(
    p: &mut Prepared,
    drivers: usize,
    stop: Stop,
    seqs: &mut [u64],
    every: u64,
) -> Phase {
    let ctrl = p.stack.ctrl.clone();
    match &mut p.stack.tier {
        Tier::Pool(pool) => {
            let mut clients: Vec<_> = (0..drivers).map(|_| &*pool).collect();
            run_phase(&mut clients, &mut p.feed, &p.shadow, &ctrl, stop, seqs, every)
        }
        Tier::Single(c) => {
            let mut clients = [&mut **c];
            run_phase(&mut clients, &mut p.feed, &p.shadow, &ctrl, stop, seqs, every)
        }
    }
}

/// Runs a phase with traced clients; returns the summed layer figures.
fn traced_phase(
    p: &mut Prepared,
    drivers: usize,
    stop: Stop,
    seqs: &mut [u64],
    read: Option<&ReadPath>,
) -> (Phase, LayerAcc) {
    let ctrl = p.stack.ctrl.clone();
    let mut acc = LayerAcc::default();
    let phase = match &mut p.stack.tier {
        Tier::Pool(pool) => {
            let read = read.expect("pool workloads trace the lock-free path");
            let mut clients: Vec<_> = (0..drivers)
                .map(|_| TracedPool { pool: &*pool, read, acc: LayerAcc::default() })
                .collect();
            let phase = run_phase(&mut clients, &mut p.feed, &p.shadow, &ctrl, stop, seqs, 0);
            clients.iter().for_each(|c| acc.add(&c.acc));
            phase
        }
        Tier::Single(c) => {
            let mut clients = [TracedSingle { cache: c, acc: LayerAcc::default() }];
            let phase = run_phase(&mut clients, &mut p.feed, &p.shadow, &ctrl, stop, seqs, 0);
            acc.add(&clients[0].acc);
            phase
        }
    };
    (phase, acc)
}

/// Measured-window stop for a window of `seconds` (or the test budget).
fn window_stop(opts: &Options, seconds: f64, share: u64) -> Stop {
    match opts.window_ops {
        Some(n) => Stop::Ops(n / share),
        None => Stop::Seconds(seconds),
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `p`-th percentile of a device latency histogram, interpolated
/// within its bucket. `Histogram::percentile` returns the lower bound of
/// the bucket holding the rank; the ranks that bucket holds are found by
/// bisection on rank, and the rank's position among them is mapped
/// linearly onto the bucket's width (32 buckets per power of two, the
/// histogram's documented resolution). `None` for an empty histogram.
pub fn interpolated_percentile(h: &Histogram, p: f64) -> Option<f64> {
    let n = h.count();
    if n == 0 {
        return None;
    }
    let target = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as u64;
    let at = |rank: u64| h.percentile((rank as f64 - 0.5) / n as f64 * 100.0);
    let v = at(target);
    let (mut lo, mut hi) = (1, target);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if at(mid) < v {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (target, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if at(mid) > v {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    let width = if v < 64 { 1 } else { 1u64 << (63 - v.leading_zeros() - 5) };
    let upper = (v + width).min(h.max() + 1);
    let pos = ((target - first) as f64 + 0.5) / (last - first + 1) as f64;
    Some(v as f64 + pos * upper.saturating_sub(v) as f64)
}

/// The virtual-time results over `[a, b]`: DLWA, ALWA and hit ratio, and
/// the mean device read and write latency since the stack was built.
///
/// The means stand in for the device p99s (which the traced run reports
/// as `io.virt_*_p99_us`): a p99 sits on the cliff between reads served
/// at media speed and reads queued behind a program or erase, and which
/// side of it a run lands on flips with the seed, while the mean moves
/// smoothly with the share of queued commands.
fn fidelity(a: &Snapshot, b: &Snapshot, lat: &(Histogram, Histogram)) -> Vec<Metric> {
    let dev = b.amp.0 - a.amp.0;
    let app = b.amp.1 - a.amp.1;
    let alwa = if app == 0 { 1.0 } else { dev as f64 / app as f64 };
    vec![
        Metric { name: "dlwa", value: b.fdp.delta(&a.fdp).dlwa(), unit: "ratio" },
        Metric { name: "alwa", value: alwa, unit: "ratio" },
        Metric { name: "hit_ratio", value: b.cache.delta(&a.cache).hit_ratio(), unit: "ratio" },
        Metric { name: "virt_read_mean_us", value: lat.0.mean() / 1e3, unit: "us" },
        Metric { name: "virt_write_mean_us", value: lat.1.mean() / 1e3, unit: "us" },
    ]
}

/// Checks that the cache counters account for every op the drivers
/// issued between `a` and `b`.
fn check_accounting(a: &Snapshot, b: &Snapshot, t: &Tally, problems: &mut Vec<String>) {
    let d = b.cache.delta(&a.cache);
    let pairs = [
        ("gets", d.gets, t.gets),
        ("puts", d.puts, t.sets - t.refused),
        ("deletes", d.deletes, t.deletes),
        ("ram_hits", d.ram_hits, t.outcomes[0]),
        ("soc_hits", d.soc_hits, t.outcomes[1]),
        ("loc_hits", d.loc_hits, t.outcomes[2]),
    ];
    for (name, counted, issued) in pairs {
        if counted != issued {
            problems.push(format!("cache counted {counted} {name}, drivers saw {issued}"));
        }
    }
}

fn check_tally(what: &str, t: &Tally, problems: &mut Vec<String>) {
    if t.errors > 0 || t.mismatches > 0 {
        problems.push(format!(
            "{what}: {} errors, {} mismatched GETs; first: {}",
            t.errors,
            t.mismatches,
            t.first_problem.as_deref().unwrap_or("-")
        ));
    }
}

/// Verifies a deterministic sample of keys' on-flash bytes.
fn verify_flash(p: &mut Prepared, spec: &Spec, problems: &mut Vec<String>) -> [u64; 4] {
    let mut keys: Vec<u64> = p.feed.blocks.iter().flatten().step_by(97).map(|r| r.key).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.truncate(VERIFY_KEYS);
    if p.prefilled > 0 {
        let step = p.prefilled.div_ceil(VERIFY_KEYS as u64);
        keys.extend((0..p.prefilled).step_by(step as usize).map(|i| p.keys + i));
    }
    // [verified, absent, unverifiable, mismatched]
    let mut counts = [0u64; 4];
    for key in keys {
        match p.stack.with_cache_of(key, |c| c.verify_flash_key(key)) {
            Ok(FlashVerify::Verified) => counts[0] += 1,
            Ok(FlashVerify::Absent) => counts[1] += 1,
            Ok(FlashVerify::Unverifiable) => counts[2] += 1,
            Ok(FlashVerify::Mismatch) => {
                counts[3] += 1;
                if counts[3] == 1 {
                    problems.push(format!(
                        "key {key}: on-flash bytes differ from the acknowledged object"
                    ));
                }
            }
            Err(e) => problems.push(format!("verify key {key}: {e}")),
        }
    }
    let retains = spec.store == fdpcache_cache::builder::StoreKind::Mem;
    if retains && counts[0] + counts[3] == 0 {
        problems.push("no sampled key was on flash to verify".to_string());
    }
    counts
}

fn check_ftl(stack: &Stack, problems: &mut Vec<String>) {
    let ctrl = stack.ctrl.clone();
    let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ctrl.with_ftl(|f| f.check_invariants());
    }));
    if ok.is_err() {
        problems.push("FTL invariants violated".to_string());
    }
}

/// Times one set-up of `spec` (the stack is dropped afterwards).
pub fn time_setup(spec: &Spec, seed: u64) -> f64 {
    let t0 = Instant::now();
    let p = prepare(spec, seed, spec.drivers(), false, &|s| s);
    let s = t0.elapsed().as_secs_f64();
    drop(p);
    s
}

/// Runs `spec` once.
pub fn run(spec: &Spec, opts: &Options) -> Outcome {
    run_with(spec, opts, &|s| s)
}

/// Runs `spec` once with `wrap` applied to the payload store (tests).
pub fn run_with(
    spec: &Spec,
    opts: &Options,
    wrap: &dyn Fn(Box<dyn DataStore>) -> Box<dyn DataStore>,
) -> Outcome {
    let drivers = spec.drivers();
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let mut p = prepare(spec, opts.seed, drivers, opts.trace, wrap);
    let mut setup_s = opts.extra_setup_s.clone();
    setup_s.push(t0.elapsed().as_secs_f64());
    let gen_ns_per_req = p.feed.gen_ns as f64 / p.feed.generated().max(1) as f64;
    let mut problems = Vec::new();
    check_tally("set-up", &p.setup_tally, &mut problems);

    let mut seqs = vec![0u64; drivers];
    let warm_t0 = Instant::now();
    let warm = if spec.warm_turnovers > 0.0 {
        let target = (spec.warm_turnovers * (spec.device_mib << 20) as f64) as u64;
        plain_phase(&mut p, drivers, Stop::HostBytes(target), &mut seqs, 0)
    } else {
        Phase::default()
    };
    let warm_s = warm_t0.elapsed().as_secs_f64();
    check_tally("warm-up", &warm.tally, &mut problems);

    let s0 = p.stack.snapshot();
    // Where the virtual-time metrics end: the untraced window's first
    // `fidelity_rounds` rounds, or the whole window when it is a fixed
    // number of ops already (tests) or traced.
    let mut fixed_work = None;
    let (window, traced) = if opts.trace {
        let read = match &p.stack.tier {
            Tier::Pool(pool) => Some(ReadPath::of(pool, lock_free_hit_host_ns())),
            Tier::Single(_) => None,
        };
        let half = opts.seconds / 2.0;
        let untraced = plain_phase(&mut p, drivers, window_stop(opts, half, 2), &mut seqs, 0);
        let sa = p.stack.snapshot();
        let timing = p.stack.timing.clone().expect("traced runs wrap the store");
        timing.set_timing(true);
        let (traced, acc) =
            traced_phase(&mut p, drivers, window_stop(opts, half, 2), &mut seqs, read.as_ref());
        timing.set_timing(false);
        let sb = p.stack.snapshot();
        (untraced, Some((sa, sb, traced, acc)))
    } else {
        let every = spec.sample_every;
        let w = match opts.window_ops {
            Some(n) => plain_phase(&mut p, drivers, Stop::Ops(n), &mut seqs, every),
            None => {
                let rounds = Stop::Rounds(spec.fidelity_rounds);
                let mut w = plain_phase(&mut p, drivers, rounds, &mut seqs, every);
                fixed_work = Some((p.stack.snapshot(), p.stack.latency(), w.rounds.len()));
                let rest = Stop::Seconds((opts.seconds - w.ns as f64 / 1e9).max(0.0));
                w.extend(plain_phase(&mut p, drivers, rest, &mut seqs, every));
                w
            }
        };
        (w, None)
    };
    let s1 = p.stack.snapshot();
    let (sv, lat, fidelity_rounds) = match fixed_work {
        Some(f) => f,
        None => (s1, p.stack.latency(), window.rounds.len()),
    };

    // Ops and counters over the whole measured window; the virtual-time
    // metrics end at `sv`.
    let mut measured = window.tally.clone();
    if let Some((_, _, t, _)) = &traced {
        measured.absorb(t.tally.clone());
    }
    check_tally("window", &measured, &mut problems);
    check_accounting(&s0, &s1, &measured, &mut problems);
    out.attempted = measured.ops();
    out.failed = measured.failed();
    let fid = fidelity(&s0, &sv, &lat);

    if let Some((sa, sb, phase, acc)) = &traced {
        out.per_layer = per_layer(
            &mut p,
            spec,
            &window,
            sa,
            sb,
            phase,
            acc,
            drivers,
            gen_ns_per_req,
            &mut out.unmeasured,
        );
        out.end_to_end = fid;
    } else {
        // Speed and latency are medians over the window's rounds, so a
        // round disturbed by the host does not move the result.
        let us = |ns: f64| ns / 1e3;
        out.end_to_end = vec![
            Metric { name: "ops_per_s", value: window.median_of(|r| r.ops_per_s), unit: "ops/s" },
            Metric {
                name: "get_p50_us",
                value: us(window.median_of(|r| r.get.0 as f64)),
                unit: "us",
            },
            Metric {
                name: "set_p50_us",
                value: us(window.median_of(|r| r.set.0 as f64)),
                unit: "us",
            },
            Metric {
                name: "set_p99_us",
                value: us(window.median_of(|r| r.set.1 as f64)),
                unit: "us",
            },
            Metric { name: "setup_s", value: median(&mut setup_s.clone()), unit: "s" },
            Metric { name: "peak_rss_mib", value: peak_rss_mib(), unit: "MiB" },
        ];
        out.end_to_end.extend(fid);
        for (name, tails) in [
            ("get", window.rounds.iter().map(|r| r.get_tail).collect::<Vec<Tail>>()),
            ("set", window.rounds.iter().map(|r| r.set_tail).collect()),
        ] {
            let (p, _, samples) = tails.first().copied().unwrap_or_default();
            let value = median(&mut tails.iter().map(|t| t.1 as f64).collect::<Vec<_>>()) / 1e3;
            out.notes.push((
                format!("{name}_tail"),
                format!("p{p} = {value:.3} us (median over rounds of ~{samples} samples each)"),
            ));
        }
        // The GET p99 is reported but not gated: on kv_mixed it sits on
        // the cliff between GETs that get the shard lock at once and GETs
        // queued behind the other driver's flash insert, and it moves with
        // the host's scheduling by more than any bound the benchmark may
        // set (README.md).
        out.notes.push((
            "get_p99_us_ungated".to_string(),
            format!("{:.3}", us(window.median_of(|r| r.get.1 as f64))),
        ));
        out.notes
            .push(("ops_per_s_whole_window".to_string(), format!("{:.1}", window.ops_per_s())));
    }

    check_ftl(&p.stack, &mut problems);
    let [verified, absent, unverifiable, mismatched] = verify_flash(&mut p, spec, &mut problems);
    for m in out.end_to_end.iter().chain(&out.per_layer) {
        if !m.value.is_finite() {
            problems.push(format!("metric {} is not finite", m.name));
        }
    }

    let mut notes = vec![
        ("drivers".to_string(), drivers.to_string()),
        ("keys".to_string(), p.keys.to_string()),
        ("namespace_mib".to_string(), format!("{:.1}", p.stack.ns_bytes as f64 / (1 << 20) as f64)),
        ("prefilled_keys".to_string(), p.prefilled.to_string()),
        ("setup_s_each".to_string(), format!("{setup_s:.4?}")),
        ("warm_s".to_string(), format!("{warm_s:.3}")),
        ("warm_ops".to_string(), warm.tally.ops().to_string()),
        ("window_s".to_string(), format!("{:.3}", window.ns as f64 / 1e9)),
        ("window_rounds".to_string(), window.rounds.len().to_string()),
        ("fidelity_rounds".to_string(), fidelity_rounds.to_string()),
        (
            "fidelity_host_gib".to_string(),
            format!(
                "{:.3}",
                (sv.fdp.host_bytes_written - s0.fdp.host_bytes_written) as f64
                    / (1u64 << 30) as f64
            ),
        ),
        ("gen_ns_per_request".to_string(), format!("{gen_ns_per_req:.1}")),
        ("raced_gets_unchecked".to_string(), measured.raced.to_string()),
        (
            "window_device_commands".to_string(),
            {
                let io = io_delta(&s1.io, &s0.io);
                (io.writes + io.reads + io.discards).to_string()
            },
        ),
        (
            "host_gib_written_total".to_string(),
            format!("{:.3}", s1.fdp.host_bytes_written as f64 / (1u64 << 30) as f64),
        ),
        (
            "flash_verify".to_string(),
            format!(
                "{verified} verified, {absent} absent, {unverifiable} unverifiable, {mismatched} mismatched"
            ),
        ),
    ];
    notes.append(&mut out.notes);
    out.notes = notes;
    out.correct = problems.is_empty();
    out.problems = problems;
    out
}

/// The traced run's per-layer metrics. `untraced` is the untraced
/// window that preceded the traced one in the same process.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    p: &mut Prepared,
    spec: &Spec,
    untraced: &Phase,
    a: &Snapshot,
    b: &Snapshot,
    traced: &Phase,
    acc: &LayerAcc,
    drivers: usize,
    gen_ns: f64,
    unmeasured: &mut Vec<(&'static str, String)>,
) -> Vec<Metric> {
    let t = &traced.tally;
    let ops = t.ops();
    let driver_ns = drivers as u64 * traced.ns;
    let c = b.cache.delta(&a.cache);
    let (e1, e0) = (&b.engines, &a.engines);
    let io = io_delta(&b.io, &a.io);
    let ftl = b.ftl.delta(&a.ftl);
    let store: StoreTally = t.store;
    let lat = p.stack.latency();
    let per = |sum: u64, n: u64| ratio(sum, n);
    let flash_hits = acc.get_soc + acc.get_loc;
    let puts = acc.put_ram + acc.put_flash;
    let seals = e1.loc_seals - e0.loc_seals;
    let soc_inserts = e1.soc_inserts - e0.soc_inserts;

    let mut m = vec![
        ("trace.gen_ns", gen_ns, "ns"),
        ("pool.ram_hit_ns", per(acc.ram_hit_ns, acc.ram_hits), "ns"),
        ("pool.lock_wait_ns", per(acc.lock_wait_ns, acc.locked_ops), "ns"),
        ("pool.lock_wait_frac", ratio(acc.lock_wait_ns, driver_ns), "ratio"),
        ("hybrid.put_ram_ns", per(acc.put_ram_ns, acc.put_ram), "ns"),
        ("hybrid.put_flash_ns", per(acc.put_flash_ns, acc.put_flash), "ns"),
        ("hybrid.get_ram_hit_ns", per(acc.get_ram_ns, acc.get_ram), "ns"),
        ("hybrid.get_miss_ns", per(acc.get_miss_ns, acc.get_miss), "ns"),
        ("hybrid.get_soc_hit_ns", per(acc.get_soc_ns, acc.get_soc), "ns"),
        ("hybrid.get_loc_hit_ns", per(acc.get_loc_ns, acc.get_loc), "ns"),
        ("hybrid.flash_inserts_per_put", ratio(acc.inserts_on_puts, puts), "count"),
        (
            "hybrid.flash_inserts_per_flash_hit",
            ratio(acc.inserts_on_flash_hits, flash_hits),
            "count",
        ),
        ("ram.hit_ratio", ratio(c.ram_hits, c.gets), "ratio"),
        (
            "soc.hit_ratio",
            ratio(e1.soc_hits - e0.soc_hits, e1.soc_lookups - e0.soc_lookups),
            "ratio",
        ),
        (
            "soc.bloom_reject_frac",
            ratio(e1.soc_bloom_rejects - e0.soc_bloom_rejects, e1.soc_lookups - e0.soc_lookups),
            "ratio",
        ),
        (
            "soc.page_writes_per_insert",
            ratio(e1.soc_page_writes - e0.soc_page_writes, soc_inserts),
            "count",
        ),
        (
            "soc.rmw_reads_per_insert",
            ratio(e1.soc_rmw_reads - e0.soc_rmw_reads, soc_inserts),
            "count",
        ),
        (
            "soc.collision_evictions_per_insert",
            ratio(e1.soc_collision_evictions - e0.soc_collision_evictions, soc_inserts),
            "count",
        ),
        (
            "loc.hit_ratio",
            ratio(e1.loc_hits - e0.loc_hits, e1.loc_lookups - e0.loc_lookups),
            "ratio",
        ),
        ("loc.seals", seals as f64, "count"),
        (
            "loc.region_evictions",
            (e1.loc_region_evictions - e0.loc_region_evictions) as f64,
            "count",
        ),
        ("loc.app_bytes_per_seal", ratio(e1.loc_app_bytes - e0.loc_app_bytes, seals), "B"),
        ("io.writes_per_op", ratio(io.writes, ops), "count"),
        ("io.reads_per_op", ratio(io.reads, ops), "count"),
        ("io.bytes_written_per_op", ratio(io.bytes_written, ops), "B"),
        ("io.bytes_read_per_op", ratio(io.bytes_read, ops), "B"),
        ("io.faults", io.faults as f64, "count"),
        (
            "io.virt_read_p50_us",
            interpolated_percentile(&lat.0, 50.0).map_or(0.0, |v| v / 1e3),
            "us",
        ),
        (
            "io.virt_write_p50_us",
            interpolated_percentile(&lat.1, 50.0).map_or(0.0, |v| v / 1e3),
            "us",
        ),
        (
            "io.virt_read_p99_us",
            interpolated_percentile(&lat.0, 99.0).map_or(0.0, |v| v / 1e3),
            "us",
        ),
        (
            "io.virt_write_p99_us",
            interpolated_percentile(&lat.1, 99.0).map_or(0.0, |v| v / 1e3),
            "us",
        ),
        ("datastore.busy_frac", ratio(store.ns, driver_ns), "ratio"),
        ("datastore.ns_per_op", ratio(store.ns, ops), "ns"),
        ("datastore.ns_per_kib", ratio(store.ns * 1024, store.bytes), "ns"),
        ("datastore.calls_per_op", ratio(store.calls, ops), "count"),
        (
            "ftl.relocated_per_host_page",
            ratio(ftl.relocated_pages, ftl.host_pages_written),
            "ratio",
        ),
        ("ftl.gc_runs", ftl.gc_runs as f64, "count"),
        ("ftl.rus_erased", ftl.rus_erased as f64, "count"),
        ("ftl.trimmed_lbas", ftl.trimmed_lbas as f64, "count"),
        ("ftl.write_ns_per_page", 0.0, "ns"),
        ("flash.self_ns_per_op", per(acc.flash_self_ns, acc.flash_ops), "ns"),
        ("bench.trace_coverage", ratio(acc.op_ns, driver_ns), "ratio"),
        ("bench.trace_overhead", 1.0 - traced.ops_per_s() / untraced.ops_per_s(), "ratio"),
    ];

    // The FTL alone: replay the device's whole command stream into a
    // fresh FTL, and trust the timing only if the replay reproduced the
    // device's garbage collection exactly.
    let timing = p.stack.timing.clone().expect("traced runs wrap the store");
    let device = p.stack.ctrl.with_ftl(|f| f.stats());
    let write_ns = if spec.fdp {
        Err("FDP placement is chosen per command and is not visible to the store".to_string())
    } else {
        match timing.take_log() {
            None => Err("a command did not fit the recorded format".to_string()),
            Some(log) => {
                let config = p.stack.ctrl.with_ftl(|f| f.config().clone());
                match replay_ftl(config, &log) {
                    Err(e) => Err(format!("replay failed: {e}")),
                    Ok(r)
                        if r.stats.relocated_pages == device.relocated_pages
                            && r.stats.rus_erased == device.rus_erased =>
                    {
                        Ok(ratio(r.ns, r.stats.host_pages_written))
                    }
                    Ok(r) => Err(format!(
                        "replay relocated {} pages / erased {} RUs, device {} / {}",
                        r.stats.relocated_pages,
                        r.stats.rus_erased,
                        device.relocated_pages,
                        device.rus_erased
                    )),
                }
            }
        }
    };
    match write_ns {
        Ok(ns) => m.iter_mut().find(|x| x.0 == "ftl.write_ns_per_page").expect("listed").1 = ns,
        Err(why) => unmeasured.push(("ftl.write_ns_per_page", why)),
    }
    if matches!(p.stack.tier, Tier::Single(_)) {
        let why = "no pool: one driver calls the cache directly";
        for name in ["pool.ram_hit_ns", "pool.lock_wait_ns", "pool.lock_wait_frac"] {
            unmeasured.push((name, why.to_string()));
        }
    }
    m.into_iter().map(|(name, value, unit)| Metric { name, value, unit }).collect()
}
