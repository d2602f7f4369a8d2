//! Closed-loop replay: pre-generated request blocks, one block per driver
//! per round, each driver calling the cache tier's public entry points.
//!
//! A round's requests are generated before the round starts and outside
//! its timed span. Request `i` of the single generated stream goes to
//! driver `i % drivers`, so the stream (and which driver issues each
//! request) depends only on the seed, never on host speed.

use std::time::Instant;

use fdpcache_cache::{CacheError, ConcurrentPool, GetOutcome, HybridCache, Value};
use fdpcache_core::SharedController;
use fdpcache_workloads::{Op, Request, TraceGen, WorkloadProfile};

use crate::shadow::{value_matches, Check, Shadow};
use crate::timing::{take_thread_tally, StoreTally};

/// The cache operations a driver issues.
pub trait Client: Send {
    /// GET at the entry point.
    fn get(&mut self, key: u64) -> Result<(GetOutcome, Option<Value>), CacheError>;
    /// SET at the entry point.
    fn put(&mut self, key: u64, value: Value) -> Result<(), CacheError>;
    /// DELETE at the entry point.
    fn delete(&mut self, key: u64) -> Result<bool, CacheError>;
}

impl Client for &ConcurrentPool {
    fn get(&mut self, key: u64) -> Result<(GetOutcome, Option<Value>), CacheError> {
        ConcurrentPool::get(self, key)
    }
    fn put(&mut self, key: u64, value: Value) -> Result<(), CacheError> {
        ConcurrentPool::put(self, key, value)
    }
    fn delete(&mut self, key: u64) -> Result<bool, CacheError> {
        ConcurrentPool::delete(self, key)
    }
}

impl Client for &mut HybridCache {
    fn get(&mut self, key: u64) -> Result<(GetOutcome, Option<Value>), CacheError> {
        HybridCache::get(self, key)
    }
    fn put(&mut self, key: u64, value: Value) -> Result<(), CacheError> {
        HybridCache::put(self, key, value)
    }
    fn delete(&mut self, key: u64) -> Result<bool, CacheError> {
        HybridCache::delete(self, key)
    }
}

/// What one or more drivers did, and what the checks found.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// GETs issued.
    pub gets: u64,
    /// SETs issued.
    pub sets: u64,
    /// DELETEs issued.
    pub deletes: u64,
    /// GET outcomes: DRAM, SOC, LOC hits and misses.
    pub outcomes: [u64; 4],
    /// SETs refused by the cache (`ObjectTooLarge`).
    pub refused: u64,
    /// Operations that returned any other error.
    pub errors: u64,
    /// GET hits that disagreed with the shadow or the synthetic bytes.
    pub mismatches: u64,
    /// GETs that raced a SET of the same key and were not checked.
    pub raced: u64,
    /// The first error or mismatch, for the report.
    pub first_problem: Option<String>,
    /// Sampled GET latencies (wall ns).
    pub get_ns: Vec<u64>,
    /// Sampled SET latencies (wall ns).
    pub set_ns: Vec<u64>,
    /// Store work of the drivers' threads (timed stores only).
    pub store: StoreTally,
}

impl Tally {
    /// Operations issued.
    pub fn ops(&self) -> u64 {
        self.gets + self.sets + self.deletes
    }

    /// Failed operations: errors plus refusals.
    pub fn failed(&self) -> u64 {
        self.errors + self.refused
    }

    /// Folds `o` into `self`.
    pub fn absorb(&mut self, o: Tally) {
        self.gets += o.gets;
        self.sets += o.sets;
        self.deletes += o.deletes;
        for (a, b) in self.outcomes.iter_mut().zip(o.outcomes) {
            *a += b;
        }
        self.refused += o.refused;
        self.errors += o.errors;
        self.mismatches += o.mismatches;
        self.raced += o.raced;
        if self.first_problem.is_none() {
            self.first_problem = o.first_problem;
        }
        self.get_ns.extend(o.get_ns);
        self.set_ns.extend(o.set_ns);
        self.store.add(o.store);
    }

    fn problem(&mut self, msg: impl FnOnce() -> String) {
        if self.first_problem.is_none() {
            self.first_problem = Some(msg());
        }
    }
}

fn outcome_slot(o: GetOutcome) -> usize {
    match o {
        GetOutcome::RamHit => 0,
        GetOutcome::SocHit => 1,
        GetOutcome::LocHit => 2,
        GetOutcome::Miss => 3,
    }
}

/// Issues `reqs` in order through `client`, checking every result
/// against `shadow`. Every `sample_every`-th request of this driver's
/// stream (counted by `seq`) has its entry-point latency timed;
/// `sample_every == 0` times nothing.
pub fn replay<C: Client>(
    client: &mut C,
    reqs: &[Request],
    shadow: &Shadow,
    seq: &mut u64,
    sample_every: u64,
) -> Tally {
    let mut t = Tally::default();
    for req in reqs {
        let timed = sample_every != 0 && seq.is_multiple_of(sample_every);
        *seq += 1;
        match req.op {
            Op::Get => {
                t.gets += 1;
                let ((res, ns), check) = shadow.read(req.key, || {
                    let t0 = timed.then(Instant::now);
                    let r = client.get(req.key);
                    let ns = t0.map(|t0| t0.elapsed().as_nanos() as u64);
                    let hit = match &r {
                        Ok((_, Some(v))) => Some(v.len()),
                        _ => None,
                    };
                    ((r, ns), hit)
                });
                t.get_ns.extend(ns);
                match res {
                    Ok((outcome, value)) => {
                        t.outcomes[outcome_slot(outcome)] += 1;
                        let bytes_ok = value.as_ref().is_none_or(|v| value_matches(req.key, v));
                        if check == Check::Raced {
                            t.raced += 1;
                        }
                        if check == Check::Mismatch || !bytes_ok {
                            t.mismatches += 1;
                            let expected = shadow.len_of(req.key);
                            t.problem(|| {
                                format!(
                                    "GET {} ({outcome:?}) returned {:?} bytes, last acknowledged SET had {expected}",
                                    req.key,
                                    value.map(|v| v.len())
                                )
                            });
                        }
                    }
                    Err(e) => {
                        t.errors += 1;
                        t.problem(|| format!("GET {}: {e}", req.key));
                    }
                }
            }
            Op::Set => {
                t.sets += 1;
                let (res, ns) = shadow.write(req.key, || {
                    let t0 = timed.then(Instant::now);
                    let r = client.put(req.key, Value::synthetic(req.size));
                    let ns = t0.map(|t0| t0.elapsed().as_nanos() as u64);
                    let acked = r.is_ok().then_some(req.size);
                    ((r, ns), acked)
                });
                t.set_ns.extend(ns);
                match res {
                    Ok(()) => {}
                    Err(CacheError::ObjectTooLarge { .. }) => t.refused += 1,
                    Err(e) => {
                        t.errors += 1;
                        t.problem(|| format!("SET {}: {e}", req.key));
                    }
                }
            }
            Op::Delete => {
                t.deletes += 1;
                let res = shadow.write(req.key, || {
                    let r = client.delete(req.key);
                    let acked = r.is_ok().then_some(0);
                    (r, acked)
                });
                if let Err(e) = res {
                    t.errors += 1;
                    t.problem(|| format!("DELETE {}: {e}", req.key));
                }
            }
        }
    }
    t
}

/// The request source: a generator, dealt round-robin into per-driver
/// blocks (request `i` of a round goes to driver `i % drivers`), and
/// optionally replaced by a freshly seeded one every `reseed_rounds`
/// rounds.
#[derive(Debug)]
pub struct Feed {
    profile: WorkloadProfile,
    keys: u64,
    seed: u64,
    reseed_rounds: u64,
    gen: TraceGen,
    /// Requests drawn from the generators already replaced.
    retired: u64,
    rounds: u64,
    round_ops: usize,
    cyclic: bool,
    /// Per-driver blocks of the current round.
    pub blocks: Vec<Vec<Request>>,
    /// Wall ns spent generating requests.
    pub gen_ns: u64,
}

/// The seed of the generator that serves segment `segment` of a feed
/// seeded with `seed` (segment 0 uses `seed` itself).
fn segment_seed(seed: u64, segment: u64) -> u64 {
    seed ^ segment.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl Feed {
    /// A feed of `round_ops` requests per round for `drivers` drivers
    /// from `profile`'s generator over `keys` keys. A cyclic feed
    /// generates one block and replays it every round.
    ///
    /// Every generator's keys are `rank + epoch` with the epoch starting
    /// at 0, so a fresh generator requests the ids of the one it replaces
    /// (with newly drawn sizes) and the ids in use stay below
    /// `keys` plus one generator's epochs.
    pub fn new(
        profile: WorkloadProfile,
        keys: u64,
        seed: u64,
        reseed_rounds: u64,
        drivers: usize,
        round_ops: usize,
        cyclic: bool,
    ) -> Feed {
        let gen = profile.generator(keys, seed);
        Feed {
            profile,
            keys,
            seed,
            reseed_rounds,
            gen,
            retired: 0,
            rounds: 0,
            round_ops,
            cyclic,
            blocks: vec![Vec::with_capacity(round_ops.div_ceil(drivers)); drivers],
            gen_ns: 0,
        }
    }

    /// Requests generated so far.
    pub fn generated(&self) -> u64 {
        self.retired + self.gen.generated()
    }

    /// Makes the next round's blocks ready (a no-op for a cyclic feed
    /// after its first block).
    pub fn advance(&mut self) {
        if self.cyclic && self.rounds > 0 {
            return;
        }
        let t0 = Instant::now();
        if self.rounds > 0 && self.rounds.is_multiple_of(self.reseed_rounds) {
            let seed = segment_seed(self.seed, self.rounds / self.reseed_rounds);
            self.retired += self.gen.generated();
            // A one-key stand-in frees the old generator's per-rank size
            // table before the new one is allocated, so the process never
            // holds two (which made its peak RSS depend on the seed).
            self.gen = self.profile.generator(1, seed);
            self.gen = self.profile.generator(self.keys, seed);
        }
        self.rounds += 1;
        let n = self.blocks.len();
        for b in &mut self.blocks {
            b.clear();
        }
        for i in 0..self.round_ops {
            self.blocks[i % n].push(self.gen.next_request());
        }
        self.gen_ns += t0.elapsed().as_nanos() as u64;
    }
}

/// When a replay phase ends (checked after each round).
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many timed seconds.
    Seconds(f64),
    /// After this many operations.
    Ops(u64),
    /// After this many rounds.
    Rounds(u64),
    /// Once the device has absorbed this many host bytes in total.
    HostBytes(u64),
}

/// A latency tail: `(percentile, wall ns, samples)`.
pub type Tail = (f64, u64, usize);

/// Per-round figures of a replay phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Round {
    /// Completed ops per timed second.
    pub ops_per_s: f64,
    /// Sampled GET latency p50 and p99 (wall ns); 0 without samples.
    pub get: (u64, u64),
    /// Sampled SET latency p50 and p99 (wall ns); 0 without samples.
    pub set: (u64, u64),
    /// The highest of p99.999 … p99 of the GET samples with at least
    /// ten samples beyond it: `(percentile, wall ns, samples)`.
    pub get_tail: Tail,
    /// The same for SETs.
    pub set_tail: Tail,
}

/// A finished replay phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Timed wall ns (rounds only; generation excluded).
    pub ns: u64,
    /// Each round's figures, in order.
    pub rounds: Vec<Round>,
    /// Everything the drivers did.
    pub tally: Tally,
}

impl Phase {
    /// Completed operations per timed second over the whole phase.
    pub fn ops_per_s(&self) -> f64 {
        self.tally.ops() as f64 / (self.ns.max(1) as f64 / 1e9)
    }

    /// Appends the later phase `o`.
    pub fn extend(&mut self, o: Phase) {
        self.ns += o.ns;
        self.rounds.extend(o.rounds);
        self.tally.absorb(o.tally);
    }

    /// The median over rounds of `f`.
    pub fn median_of(&self, f: impl Fn(&Round) -> f64) -> f64 {
        median(&mut self.rounds.iter().map(f).collect::<Vec<_>>())
    }
}

/// The median of `v` (0 for an empty slice).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `p`-th percentile (nearest rank) of sorted samples; 0 if empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` and returns `(p50, p99)` and the supported tail (see
/// [`Round::get_tail`]).
fn latency_figures(samples: &mut [u64]) -> ((u64, u64), Tail) {
    samples.sort_unstable();
    let n = samples.len();
    let p = [99.999, 99.99, 99.9, 99.0]
        .into_iter()
        .find(|p| n >= ((p / 100.0) * n as f64).ceil() as usize + 10)
        .unwrap_or(99.0);
    ((percentile(samples, 50.0), percentile(samples, 99.0)), (p, percentile(samples, p), n))
}

/// Replays rounds from `feed` through `clients` (one thread each) until
/// `stop`. `seqs` are the drivers' running request counters, which pick
/// the latency sample.
pub fn run_phase<C: Client>(
    clients: &mut [C],
    feed: &mut Feed,
    shadow: &Shadow,
    ctrl: &SharedController,
    stop: Stop,
    seqs: &mut [u64],
    sample_every: u64,
) -> Phase {
    let mut phase = Phase::default();
    loop {
        let done = match stop {
            Stop::Seconds(s) => phase.ns as f64 / 1e9 >= s,
            Stop::Ops(n) => phase.tally.ops() >= n,
            Stop::Rounds(n) => phase.rounds.len() as u64 >= n,
            Stop::HostBytes(b) => ctrl.fdp_stats_log().host_bytes_written >= b,
        };
        if done {
            return phase;
        }
        feed.advance();
        let t0 = Instant::now();
        let tallies: Vec<Tally> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(&feed.blocks)
                .zip(seqs.iter_mut())
                .enumerate()
                .map(|(i, ((client, block), seq))| {
                    s.spawn(move || {
                        pin_to_cpu(i);
                        take_thread_tally();
                        let mut t = replay(client, block, shadow, seq, sample_every);
                        t.store = take_thread_tally();
                        t
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("driver thread panicked")).collect()
        });
        let ns = t0.elapsed().as_nanos() as u64;
        let mut round = Tally::default();
        for t in tallies {
            round.absorb(t);
        }
        let (get, get_tail) = latency_figures(&mut round.get_ns);
        let (set, set_tail) = latency_figures(&mut round.set_ns);
        phase.rounds.push(Round {
            ops_per_s: round.ops() as f64 / (ns.max(1) as f64 / 1e9),
            get,
            set,
            get_tail,
            set_tail,
        });
        // Only the per-round figures are kept, so memory does not grow
        // with the run's length.
        round.get_ns = Vec::new();
        round.set_ns = Vec::new();
        phase.ns += ns;
        phase.tally.absorb(round);
    }
}

/// Pins the calling thread to the `i`-th CPU (wrapping) of those this
/// process may run on, so that two drivers never share a core and none
/// migrates mid-round (unpinned, the scheduler's placement added
/// run-to-run spread). Best effort: any failure leaves the thread
/// unpinned.
#[cfg(target_os = "linux")]
fn pin_to_cpu(i: usize) {
    // A `cpu_set_t` of 1024 CPUs, as glibc defines it.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return;
    }
    let cpus: Vec<usize> =
        (0..WORDS * 64).filter(|&c| allowed[c / 64] & (1 << (c % 64)) != 0).collect();
    if cpus.is_empty() {
        return;
    }
    let cpu = cpus[i % cpus.len()];
    let mut mask = [0u64; WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread. The result is ignored on purpose.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_cpu(_i: usize) {}
