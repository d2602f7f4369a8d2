//! A timing `DataStore` decorator and the FTL replay it feeds.
//!
//! [`TimingStore`] wraps the payload store handed to the controller (the
//! same decorator shape as `FaultStore`). With timing switched on, every
//! store call is timed into per-thread tallies, so a driver can subtract
//! the store time spent inside one cache call from that call's duration.
//! With recording switched on it also keeps the `(write | discard, lba,
//! nlb)` stream the controller produced, which [`replay_ftl`] feeds into
//! a standalone `Ftl` to time the FTL alone.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fdpcache_ftl::{Ftl, FtlConfig, FtlStats, DEFAULT_RUH};
use fdpcache_nvme::{DataStore, FaultOp, FaultRates, FaultTotals, InjectedFault};

/// Store work done by one thread since its tally was last taken.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreTally {
    /// Wall nanoseconds inside store calls.
    pub ns: u64,
    /// Store calls.
    pub calls: u64,
    /// Payload bytes moved (written or read).
    pub bytes: u64,
}

impl StoreTally {
    /// Field-wise sum.
    pub fn add(&mut self, o: StoreTally) {
        self.ns += o.ns;
        self.calls += o.calls;
        self.bytes += o.bytes;
    }
}

thread_local! {
    static TALLY: Cell<StoreTally> = const { Cell::new(StoreTally { ns: 0, calls: 0, bytes: 0 }) };
}

/// Nanoseconds this thread has spent in timed store calls since its
/// tally was last taken.
pub fn thread_store_ns() -> u64 {
    TALLY.with(|t| t.get().ns)
}

/// Returns and clears this thread's store tally.
pub fn take_thread_tally() -> StoreTally {
    TALLY.with(|t| t.replace(StoreTally::default()))
}

const DISCARD_BIT: u64 = 1 << 63;

/// One recorded device command, packed as `op | nlb << 32 | lba`.
fn pack(discard: bool, lba: u64, nlb: u64) -> Option<u64> {
    (lba < 1 << 32 && nlb < 1 << 31)
        .then_some((if discard { DISCARD_BIT } else { 0 }) | nlb << 32 | lba)
}

/// State shared between the decorator (owned by the controller) and the
/// benchmark.
#[derive(Debug, Default)]
pub struct TimingShared {
    timing: AtomicBool,
    recording: AtomicBool,
    overflow: AtomicBool,
    log: Mutex<Vec<u64>>,
}

impl TimingShared {
    /// Switches per-call timing on or off.
    pub fn set_timing(&self, on: bool) {
        self.timing.store(on, Ordering::Relaxed);
    }

    /// Stops recording and returns the command stream, or `None` if a
    /// command did not fit the packed format.
    pub fn take_log(&self) -> Option<Vec<u64>> {
        self.recording.store(false, Ordering::Relaxed);
        let log = std::mem::take(&mut *self.log.lock().expect("log lock poisoned"));
        (!self.overflow.load(Ordering::Relaxed)).then_some(log)
    }

    fn record(&self, discard: bool, lba: u64, nlb: u64) {
        if self.recording.load(Ordering::Relaxed) {
            match pack(discard, lba, nlb) {
                Some(r) => self.log.lock().expect("log lock poisoned").push(r),
                None => self.overflow.store(true, Ordering::Relaxed),
            }
        }
    }
}

/// Timing decorator around any payload store.
pub struct TimingStore {
    inner: Box<dyn DataStore>,
    shared: Arc<TimingShared>,
}

impl TimingStore {
    /// Wraps `inner`. With `record`, the command stream is kept from the
    /// first call on (the controller's whole life, so it can be replayed
    /// into a fresh FTL).
    pub fn new(inner: Box<dyn DataStore>, record: bool) -> (Self, Arc<TimingShared>) {
        let shared = Arc::new(TimingShared::default());
        shared.recording.store(record, Ordering::Relaxed);
        (TimingStore { inner, shared: Arc::clone(&shared) }, shared)
    }

    #[inline]
    fn timed<R>(&self, bytes: usize, f: impl FnOnce() -> R) -> R {
        if !self.shared.timing.load(Ordering::Relaxed) {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        TALLY.with(|t| {
            let mut v = t.get();
            v.ns += ns;
            v.calls += 1;
            v.bytes += bytes as u64;
            t.set(v);
        });
        r
    }
}

impl DataStore for TimingStore {
    fn attach(&self, exported_lbas: u64, lba_bytes: u32) {
        self.inner.attach(exported_lbas, lba_bytes);
    }

    fn write_block(&self, lba: u64, data: &[u8]) {
        self.shared.record(false, lba, 1);
        self.timed(data.len(), || self.inner.write_block(lba, data));
    }

    fn read_block(&self, lba: u64, out: &mut [u8]) -> bool {
        let len = out.len();
        self.timed(len, || self.inner.read_block(lba, out))
    }

    fn discard(&self, lba: u64) {
        self.shared.record(true, lba, 1);
        self.timed(0, || self.inner.discard(lba));
    }

    fn retains_data(&self) -> bool {
        self.inner.retains_data()
    }

    fn write_blocks(&self, lba: u64, data: &[u8], block_bytes: usize) {
        self.shared.record(false, lba, (data.len() / block_bytes) as u64);
        self.timed(data.len(), || self.inner.write_blocks(lba, data, block_bytes));
    }

    fn read_blocks(&self, lba: u64, out: &mut [u8], block_bytes: usize) {
        let len = out.len();
        self.timed(len, || self.inner.read_blocks(lba, out, block_bytes));
    }

    fn discard_blocks(&self, lba: u64, count: u64) {
        self.shared.record(true, lba, count);
        self.timed(0, || self.inner.discard_blocks(lba, count));
    }

    fn fault(&self, op: FaultOp, lba: u64, nlb: u64) -> Option<InjectedFault> {
        self.inner.fault(op, lba, nlb)
    }

    fn fault_totals(&self) -> FaultTotals {
        self.inner.fault_totals()
    }

    fn set_fault_rates(&self, rates: FaultRates) -> bool {
        self.inner.set_fault_rates(rates)
    }
}

/// Result of replaying a recorded command stream into a fresh FTL.
#[derive(Debug, Clone, Copy)]
pub struct FtlReplay {
    /// Wall nanoseconds for the whole replay.
    pub ns: u64,
    /// FTL counters at the end of the replay.
    pub stats: FtlStats,
}

/// Replays `log` into a fresh FTL built from `config`, single-stream
/// (every write to the default handle, as on a device with FDP off).
///
/// # Errors
///
/// The FTL's construction or mapping error, as text.
pub fn replay_ftl(config: FtlConfig, log: &[u64]) -> Result<FtlReplay, String> {
    let mut ftl = Ftl::new(config)?;
    let t0 = Instant::now();
    for &r in log {
        let lba = r & 0xFFFF_FFFF;
        let nlb = (r & !DISCARD_BIT) >> 32;
        if r & DISCARD_BIT != 0 {
            ftl.trim(lba, nlb).map_err(|e| e.to_string())?;
        } else {
            ftl.write_placed_batch(lba, nlb, 0, DEFAULT_RUH).map_err(|e| e.to_string())?;
        }
    }
    let ns = t0.elapsed().as_nanos() as u64;
    Ok(FtlReplay { ns, stats: ftl.stats() })
}
