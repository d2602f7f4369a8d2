//! FDP-aware I/O management (paper §5.4).
//!
//! Translates placement handles into NVMe placement directives and
//! submits commands through a per-worker [`QueuePair`], recording
//! latency histograms.
//!
//! Two submission shapes:
//!
//! * **Per-command** — [`IoManager::write`] / [`IoManager::read`] /
//!   [`IoManager::discard`] submit one command each. With the default
//!   queue depth of 1 they are synchronous (the clock advances to each
//!   completion); at higher depths ([`IoManager::set_queue_depth`]) up
//!   to QD commands stay in flight and the clock only advances when
//!   the queue fills or [`IoManager::flush`] reaps it.
//! * **Batched** — an [`IoBatch`] queues writes, reads and discards and
//!   [`IoManager::submit_batch`] flushes them as one submission: all
//!   writes validate and map under **one** media-lock acquisition
//!   ([`Controller::write_batch_ns`]), all discards form one vectored
//!   DSM command, commands stripe across device lanes through the
//!   queue pair, and statistics update in bulk. The LOC seals each
//!   region this way instead of issuing N sequential chunk writes.
//!   Payloads stay vectored all the way down: each queued buffer
//!   reaches the payload store through `DataStore::write_blocks`/
//!   `read_blocks`, so a sealed region is a handful of slab `memcpy`s
//!   rather than one hash insert per 4 KiB block (DESIGN.md §5.3).
//!
//! Commands inside one batch have **no ordering guarantees relative to
//! each other** (NVMe gives none within a queue): the flush phases run
//! writes' mapping first, then reads, then discards. Do not batch
//! commands that depend on each other's effects on the same blocks —
//! no cache client does (each engine owns its blocks and batches
//! homogeneous region work).
//!
//! Concurrency topology: the controller is a plain `Arc` —
//! [`SharedController`] — with interior fine-grained locking (media
//! lock, sharded payload store, per-namespace atomic stats; see
//! `fdpcache_nvme::controller`). Each [`IoManager`] holds its
//! namespace's [`NamespaceState`] opened once at construction, so the
//! per-command path touches **no** device-wide lock other than the
//! brief FTL mapping section: the simulator analog of multiple io_uring
//! queue pairs feeding one device, with commands from N workers
//! genuinely in flight at once.

use std::sync::Arc;

use fdpcache_metrics::Histogram;
use fdpcache_nvme::{
    BatchWrite, Controller, DeallocRange, HealthMonitor, NamespaceId, NamespaceState, NvmeError,
    QueuePair, WriteCompletion,
};
pub use fdpcache_nvme::{HealthConfig, HealthIoStats, HealthState, HealthTransition};

use crate::handle::PlacementHandle;

/// A controller shared by every I/O manager (and tenant) on the device.
/// No external mutex: all controller methods take `&self` and
/// synchronize internally at per-resource granularity.
pub type SharedController = Arc<Controller>;

/// Cap, in multiples of a *write* command's own service time, on the
/// slice of outstanding GC backlog charged across the lanes ahead of
/// that write. Writes must wait for GC to free pages, so they absorb a
/// large slice — this is the knob that reproduces the paper's ~10×
/// write-tail inflation under intermixing (Figures 6 and 13).
pub const GC_WRITE_INTERFERENCE_CAP: u64 = 8;

/// Cap, in multiples of a *read* command's own service time, on the GC
/// backlog slice charged ahead of that read. Real controllers suspend
/// program/erase to prioritize reads, so reads absorb only a small
/// slice — the paper's read tails inflate ~1.75×, not ~10×. The
/// modeled write:read interference ratio is
/// `GC_WRITE_INTERFERENCE_CAP / GC_READ_INTERFERENCE_CAP` = 8.
pub const GC_READ_INTERFERENCE_CAP: u64 = 1;

/// Modeled fixed service time of a DSM deallocate command (ns): a
/// metadata-only round trip through the controller, far cheaper than a
/// NAND program (~600 µs) but not free — discards previously cost zero
/// virtual time, which hid trim-heavy eviction policies from the
/// latency readouts.
pub const DISCARD_BASE_SERVICE_NS: u64 = 20_000;

/// Modeled incremental deallocate cost per logical block (ns): L2P
/// entries are invalidated one by one under the media lock.
pub const DISCARD_PER_BLOCK_NS: u64 = 32;

/// Modeled service time of a command that completes with an injected
/// media-error status (ns): the device spent retries/ECC time before
/// giving up, longer than a clean metadata round trip but far below a
/// GC stall. Fixed, so fault replays stay bit-reproducible.
pub const FAULT_SERVICE_NS: u64 = 150_000;

/// Snapshot of an I/O manager's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Write commands submitted.
    pub writes: u64,
    /// Read commands submitted.
    pub reads: u64,
    /// Discard (deallocate) commands submitted.
    pub discards: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes deallocated by discard commands.
    pub bytes_discarded: u64,
    /// Commands that completed with an injected failure status
    /// (media error / busy rejection). Not counted in
    /// `writes`/`reads`/`discards`, which track successes only.
    pub faults: u64,
    /// Device-health view from this manager's windowed monitor
    /// (virtual-time, so deterministic across worker counts; merged
    /// snapshots take the worst `state` across shards).
    pub health: HealthIoStats,
}

impl IoStats {
    /// Field-wise sum with another snapshot (aggregating the queue
    /// pairs of a sharded pool or a multi-tenant deployment).
    pub fn merge(&self, other: &IoStats) -> IoStats {
        IoStats {
            writes: self.writes + other.writes,
            reads: self.reads + other.reads,
            discards: self.discards + other.discards,
            bytes_written: self.bytes_written + other.bytes_written,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_discarded: self.bytes_discarded + other.bytes_discarded,
            faults: self.faults + other.faults,
            health: self.health.merge(&other.health),
        }
    }
}

/// One queued operation of an [`IoBatch`].
#[derive(Debug)]
enum BatchOp<'a> {
    Write { block: u64, data: &'a [u8], handle: PlacementHandle },
    Read { block: u64, out: &'a mut [u8] },
    Discard { block: u64, count: u64 },
}

/// A builder of vectored submissions: queue writes, reads and discards
/// against one [`IoManager`], then flush them all with
/// [`IoManager::submit_batch`]. Payloads are borrowed, so batch
/// assembly is copy-free (the LOC passes slices of its region buffer).
#[derive(Debug, Default)]
pub struct IoBatch<'a> {
    ops: Vec<BatchOp<'a>>,
}

impl<'a> IoBatch<'a> {
    /// Creates an empty batch.
    pub fn new() -> Self {
        IoBatch { ops: Vec::new() }
    }

    /// Creates an empty batch with room for `n` operations.
    pub fn with_capacity(n: usize) -> Self {
        IoBatch { ops: Vec::with_capacity(n) }
    }

    /// Queues a write of `data` (whole blocks) at `block` with the
    /// consumer's placement handle.
    pub fn write(&mut self, block: u64, data: &'a [u8], handle: PlacementHandle) -> &mut Self {
        self.ops.push(BatchOp::Write { block, data, handle });
        self
    }

    /// Queues a read into `out` (whole blocks) from `block`.
    pub fn read(&mut self, block: u64, out: &'a mut [u8]) -> &mut Self {
        self.ops.push(BatchOp::Read { block, out });
        self
    }

    /// Queues a deallocate of `count` blocks starting at `block`.
    pub fn discard(&mut self, block: u64, count: u64) -> &mut Self {
        self.ops.push(BatchOp::Discard { block, count });
        self
    }

    /// Queued operation count.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Per-worker FDP-aware I/O path.
///
/// All blocks are namespace-relative; sizes are whole logical blocks.
pub struct IoManager {
    ctrl: SharedController,
    ns: Arc<NamespaceState>,
    qp: QueuePair,
    read_hist: Histogram,
    write_hist: Histogram,
    discard_hist: Histogram,
    stats: IoStats,
    block_bytes: u32,
    blocks: u64,
    retains_data: bool,
    lanes: usize,
    queue_depth: usize,
    /// Outstanding GC media work (ns) not yet charged to the lanes.
    /// Real controllers interleave relocation with host commands; we
    /// drain this backlog a slice at a time alongside each submission,
    /// which is what makes sustained GC visible in p99 latency.
    gc_backlog_ns: u64,
    /// Per-shard device-health monitor: fed from every completed
    /// command (successes and injected failures) with virtual-time
    /// stamps, so its classification replays bit-identically across
    /// worker counts and reruns.
    health: HealthMonitor,
}

impl std::fmt::Debug for IoManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoManager")
            .field("nsid", &self.ns.nsid())
            .field("queue_depth", &self.queue_depth)
            .field("stats", &self.stats)
            .finish()
    }
}

impl IoManager {
    /// Creates an I/O manager over `ctrl`'s namespace `nsid` with the
    /// given device-lane parallelism for its queue pair (queue depth 1;
    /// raise it with [`IoManager::set_queue_depth`]). Opens the
    /// namespace once; subsequent commands bypass the admin lock.
    ///
    /// # Errors
    ///
    /// [`NvmeError::InvalidNamespace`] if the namespace does not exist.
    pub fn new(ctrl: SharedController, nsid: NamespaceId, lanes: usize) -> Result<Self, NvmeError> {
        let ns = ctrl.open_namespace(nsid).ok_or(NvmeError::InvalidNamespace(nsid))?;
        let block_bytes = ctrl.lba_bytes();
        let blocks = ns.info().lba_count;
        let retains_data = ctrl.store_retains_data();
        let lanes = lanes.max(1);
        Ok(IoManager {
            ctrl,
            ns,
            qp: QueuePair::new(lanes),
            lanes,
            queue_depth: 1,
            read_hist: Histogram::new(),
            write_hist: Histogram::new(),
            discard_hist: Histogram::new(),
            stats: IoStats::default(),
            block_bytes,
            blocks,
            retains_data,
            gc_backlog_ns: 0,
            health: HealthMonitor::default(),
        })
    }

    /// Charges a slice of outstanding GC work across all lanes before a
    /// host command of the given service time. `cap` bounds the slice
    /// to `cap ×` the command's own service time
    /// ([`GC_WRITE_INTERFERENCE_CAP`] for writes,
    /// [`GC_READ_INTERFERENCE_CAP`] for reads). This asymmetry is what
    /// reproduces the paper's p99 pattern (write tails suffer ~10x
    /// under intermixing, read tails ~1.75x).
    fn charge_gc_interference(&mut self, service_ns: u64, cap: u64) {
        if self.gc_backlog_ns == 0 {
            return;
        }
        let per_lane = (self.gc_backlog_ns / self.lanes as u64).min(service_ns.max(1) * cap);
        if per_lane > 0 {
            self.qp.occupy_all(per_lane);
            self.gc_backlog_ns = self.gc_backlog_ns.saturating_sub(per_lane * self.lanes as u64);
        } else {
            // Backlog smaller than one per-lane slice: retire it.
            self.gc_backlog_ns = 0;
        }
    }

    /// Submits one command of the given service time through the queue
    /// pair, honouring the configured queue depth, and returns its
    /// latency. At depth 1 this is the synchronous completion-polled
    /// loop (clock advances to the completion); at higher depths the
    /// command is left in flight and the clock only advances when the
    /// queue is full.
    fn submit_command(&mut self, service_ns: u64) -> u64 {
        self.submit_command_status(service_ns, false)
    }

    /// [`IoManager::submit_command`] with an explicit completion status
    /// (failed completions replay injected faults deterministically).
    fn submit_command_status(&mut self, service_ns: u64, failed: bool) -> u64 {
        if self.queue_depth <= 1 {
            let id = self.qp.submit_async_status(service_ns, 0, failed);
            loop {
                match self.qp.complete() {
                    Some(c) if c.id == id => return c.latency_ns,
                    Some(_) => continue,
                    // Unreachable by construction (the command was just
                    // submitted), but never panic on the I/O path.
                    None => return service_ns,
                }
            }
        } else {
            let id = self.qp.submit_async_status(service_ns, 0, failed);
            self.qp.scheduled(id).map(|c| c.latency_ns).unwrap_or(service_ns)
        }
    }

    /// Completes an injected device fault deterministically: charges
    /// the failed command's virtual-time cost through the queue pair
    /// ([`FAULT_SERVICE_NS`] for media errors, the reported penalty for
    /// busy rejections), counts it, and hands the error back for the
    /// cache tier's recovery logic. Errors that are not injected faults
    /// (validation bugs) pass through with no timing side effect.
    fn fail_command(&mut self, e: NvmeError) -> NvmeError {
        let service = match &e {
            NvmeError::MediaError { .. } => FAULT_SERVICE_NS,
            NvmeError::Busy { penalty_ns } => *penalty_ns,
            _ => return e,
        };
        self.submit_command_status(service, true);
        self.stats.faults += 1;
        let now = self.qp.now_ns();
        match &e {
            NvmeError::Busy { .. } => self.health.record_busy(now),
            _ => self.health.record_error(now),
        }
        e
    }

    /// Device service for [`IoManager::submit_batch`] (its phases 1-3):
    /// returns the write completions and read service times in queue
    /// order, with no timing side effect on this manager.
    fn service_batch(
        &self,
        ops: &mut [BatchOp<'_>],
    ) -> Result<(Vec<WriteCompletion>, Vec<u64>), NvmeError> {
        // Phase 1: vectored write mapping under one media-lock hold.
        let write_completions = {
            let writes: Vec<BatchWrite<'_>> = ops
                .iter()
                .filter_map(|op| match op {
                    BatchOp::Write { block, data, handle } => {
                        Some(BatchWrite { slba: *block, data, dspec: handle.dspec() })
                    }
                    _ => None,
                })
                .collect();
            if writes.is_empty() {
                Vec::new()
            } else {
                self.ctrl.write_batch_ns(&self.ns, &writes)?
            }
        };
        // Phase 2: reads (mapping check under the media lock per
        // command, payload loads outside it).
        let mut read_services = Vec::new();
        for op in ops.iter_mut() {
            if let BatchOp::Read { block, out } = op {
                read_services.push(self.ctrl.read_ns(&self.ns, *block, out)?);
            }
        }
        // Phase 3: one vectored DSM deallocate for every discard.
        let ranges: Vec<DeallocRange> = ops
            .iter()
            .filter_map(|op| match op {
                BatchOp::Discard { block, count } => {
                    Some(DeallocRange { slba: *block, nlb: *count })
                }
                _ => None,
            })
            .collect();
        if !ranges.is_empty() {
            self.ctrl.deallocate_ns(&self.ns, &ranges)?;
        }
        Ok((write_completions, read_services))
    }

    /// Namespace capacity in logical blocks.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Logical block size in bytes.
    pub fn block_bytes(&self) -> u32 {
        self.block_bytes
    }

    /// Namespace capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.blocks * self.block_bytes as u64
    }

    /// Whether the device's backing store retains payload bytes.
    /// Engines may skip payload serialization when it does not.
    pub fn retains_data(&self) -> bool {
        self.retains_data
    }

    /// The shared controller (for instrumentation).
    pub fn controller(&self) -> &SharedController {
        &self.ctrl
    }

    /// The opened namespace state (per-namespace stats live here).
    pub fn namespace(&self) -> &Arc<NamespaceState> {
        &self.ns
    }

    /// Cumulative I/O statistics (with the health monitor's current
    /// snapshot folded in).
    pub fn stats(&self) -> IoStats {
        let mut s = self.stats;
        s.health = self.health.io_stats();
        s
    }

    /// Current device-health classification from this shard's monitor.
    pub fn health(&self) -> HealthState {
        self.health.state()
    }

    /// Health-state transition trace (virtual-time stamped), for
    /// breaker logic and deterministic chaos gates.
    pub fn health_transitions(&self) -> &[HealthTransition] {
        self.health.transitions()
    }

    /// Credits an observed recovery (e.g. a successful circuit-breaker
    /// probe after injected faults cleared): steps the health state
    /// down one level immediately and restarts the observation window.
    pub fn credit_health_recovery(&mut self) {
        let now = self.qp.now_ns();
        self.health.credit_recovery(now);
    }

    /// Observed write-latency histogram.
    pub fn write_latency(&self) -> &Histogram {
        &self.write_hist
    }

    /// Observed read-latency histogram.
    pub fn read_latency(&self) -> &Histogram {
        &self.read_hist
    }

    /// Observed discard-latency histogram.
    pub fn discard_latency(&self) -> &Histogram {
        &self.discard_hist
    }

    /// Virtual time elapsed on this worker's queue pair (ns). Call
    /// [`IoManager::flush`] first when commands may still be in flight
    /// (queue depth > 1) — in-flight completions have not advanced the
    /// clock yet.
    pub fn now_ns(&self) -> u64 {
        self.qp.now_ns()
    }

    /// Advances the worker's virtual clock (host think time).
    pub fn advance(&mut self, ns: u64) {
        self.qp.advance(ns);
    }

    /// The configured queue depth (commands kept in flight).
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// Reconfigures the queue depth. Depth 1 (the default) is the
    /// synchronous per-command model every legacy caller observes;
    /// higher depths pipeline commands across device lanes in virtual
    /// time, like an io_uring loop keeping QD submissions outstanding.
    /// Shrinking reaps excess completions (advancing the clock).
    pub fn set_queue_depth(&mut self, depth: usize) {
        self.queue_depth = depth.max(1);
        self.qp.set_depth(self.queue_depth);
    }

    /// Reaps every outstanding completion, advancing the virtual clock
    /// past the last one. A no-op at queue depth 1.
    pub fn flush(&mut self) {
        self.qp.drain();
    }

    /// Commands currently in flight on this worker's queue pair.
    pub fn in_flight(&self) -> usize {
        self.qp.in_flight()
    }

    /// Writes `data` at `block` with the consumer's placement handle,
    /// returning observed command latency (ns).
    ///
    /// # Errors
    ///
    /// Propagates controller validation/FTL errors.
    pub fn write(
        &mut self,
        block: u64,
        data: &[u8],
        handle: PlacementHandle,
    ) -> Result<u64, NvmeError> {
        let dspec = handle.dspec();
        let completion = match self.ctrl.write_ns(&self.ns, block, data, dspec) {
            Ok(c) => c,
            Err(e) => return Err(self.fail_command(e)),
        };
        // Multi-block writes stripe across device lanes: effective
        // service time divides by the parallelism actually usable.
        let nlb = (data.len() as u64 / self.block_bytes as u64).max(1);
        let parallelism = nlb.min(self.lanes as u64).max(1);
        let service = completion.service_ns / parallelism;
        self.gc_backlog_ns += completion.gc_ns;
        self.charge_gc_interference(service, GC_WRITE_INTERFERENCE_CAP);
        let lat = self.submit_command(service);
        self.health.record_ok(self.qp.now_ns());
        self.write_hist.record(lat);
        self.stats.writes += 1;
        self.stats.bytes_written += data.len() as u64;
        Ok(lat)
    }

    /// Reads into `out` from `block`, returning observed latency (ns).
    ///
    /// # Errors
    ///
    /// Propagates controller validation/FTL errors.
    pub fn read(&mut self, block: u64, out: &mut [u8]) -> Result<u64, NvmeError> {
        let service_ns = match self.ctrl.read_ns(&self.ns, block, out) {
            Ok(ns) => ns,
            Err(e) => return Err(self.fail_command(e)),
        };
        self.charge_gc_interference(service_ns, GC_READ_INTERFERENCE_CAP);
        let lat = self.submit_command(service_ns);
        self.health.record_ok(self.qp.now_ns());
        self.read_hist.record(lat);
        self.stats.reads += 1;
        self.stats.bytes_read += out.len() as u64;
        Ok(lat)
    }

    /// Deallocates `count` blocks starting at `block`, submitting the
    /// DSM command through the queue pair with a modeled service time
    /// ([`DISCARD_BASE_SERVICE_NS`] + [`DISCARD_PER_BLOCK_NS`] per
    /// block) and returning the observed latency (ns).
    ///
    /// # Errors
    ///
    /// Propagates controller validation/FTL errors.
    pub fn discard(&mut self, block: u64, count: u64) -> Result<u64, NvmeError> {
        if let Err(e) =
            self.ctrl.deallocate_ns(&self.ns, &[DeallocRange { slba: block, nlb: count }])
        {
            return Err(self.fail_command(e));
        }
        let service = DISCARD_BASE_SERVICE_NS + count * DISCARD_PER_BLOCK_NS;
        let lat = self.submit_command(service);
        self.health.record_ok(self.qp.now_ns());
        self.discard_hist.record(lat);
        self.stats.discards += 1;
        self.stats.bytes_discarded += count * self.block_bytes as u64;
        Ok(lat)
    }

    /// Flushes a batch as one vectored submission, returning each
    /// operation's observed latency in queue order.
    ///
    /// Phases:
    ///
    /// 1. every queued write validates and maps through
    ///    [`Controller::write_batch_ns`] — **one** media-lock
    ///    acquisition for the whole batch;
    /// 2. reads execute (mapping check + payload load per command);
    /// 3. discards coalesce into one vectored DSM deallocate;
    /// 4. commands replay through the queue pair in queue order — GC
    ///    interference charging, lane striping and latency recording
    ///    are identical per command to the per-command path, so a
    ///    depth-1 batch is bit-identical to sequential
    ///    [`IoManager::write`]/[`IoManager::read`]/[`IoManager::discard`]
    ///    calls — while statistics update in bulk.
    ///
    /// # Errors
    ///
    /// Validation errors surface before any timing side effect: a
    /// failed batch leaves this manager's clock, histograms and
    /// `IoStats` untouched. Injected faults (media error / busy) are
    /// different: the batch fails **all-or-nothing on the device** (the
    /// controller's fault gate and FTL rollback guarantee no mapping of
    /// the batch survives) and this manager charges one deterministic
    /// failed completion of [`FAULT_SERVICE_NS`] (or the busy penalty)
    /// while counting it in [`IoStats::faults`], so fault
    /// replays stay bit-reproducible while the cache tier retries or
    /// requeues. For *mixed* batches a read/discard fault in phase 2/3
    /// still leaves phase 1's writes applied (NVMe gives no cross-
    /// command ordering inside a queue); the only batch client, the
    /// LOC region seal, is write-only, so its recovery treats any
    /// batch error as "nothing of this region landed".
    pub fn submit_batch(&mut self, mut batch: IoBatch<'_>) -> Result<Vec<u64>, NvmeError> {
        let (write_completions, read_services) = match self.service_batch(&mut batch.ops) {
            Ok(v) => v,
            Err(e) => return Err(self.fail_command(e)),
        };

        // Phase 4: timing replay in queue order; stats in bulk.
        let mut latencies = Vec::with_capacity(batch.ops.len());
        let (mut wi, mut ri) = (0usize, 0usize);
        let mut bulk = IoStats::default();
        for op in &batch.ops {
            match op {
                BatchOp::Write { data, .. } => {
                    let completion = write_completions[wi];
                    wi += 1;
                    let nlb = (data.len() as u64 / self.block_bytes as u64).max(1);
                    let parallelism = nlb.min(self.lanes as u64).max(1);
                    let service = completion.service_ns / parallelism;
                    self.gc_backlog_ns += completion.gc_ns;
                    self.charge_gc_interference(service, GC_WRITE_INTERFERENCE_CAP);
                    let lat = self.submit_command(service);
                    self.health.record_ok(self.qp.now_ns());
                    self.write_hist.record(lat);
                    bulk.writes += 1;
                    bulk.bytes_written += data.len() as u64;
                    latencies.push(lat);
                }
                BatchOp::Read { out, .. } => {
                    let service = read_services[ri];
                    ri += 1;
                    self.charge_gc_interference(service, GC_READ_INTERFERENCE_CAP);
                    let lat = self.submit_command(service);
                    self.health.record_ok(self.qp.now_ns());
                    self.read_hist.record(lat);
                    bulk.reads += 1;
                    bulk.bytes_read += out.len() as u64;
                    latencies.push(lat);
                }
                BatchOp::Discard { count, .. } => {
                    let service = DISCARD_BASE_SERVICE_NS + count * DISCARD_PER_BLOCK_NS;
                    let lat = self.submit_command(service);
                    self.health.record_ok(self.qp.now_ns());
                    self.discard_hist.record(lat);
                    bulk.discards += 1;
                    bulk.bytes_discarded += count * self.block_bytes as u64;
                    latencies.push(lat);
                }
            }
        }
        self.stats = self.stats.merge(&bulk);
        Ok(latencies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdpcache_ftl::FtlConfig;
    use fdpcache_nvme::MemStore;

    fn setup() -> (SharedController, NamespaceId) {
        let ctrl = Controller::new(FtlConfig::tiny_test(), Box::new(MemStore::new())).unwrap();
        let nsid = ctrl.create_namespace(256, vec![0, 1, 2]).unwrap();
        (Arc::new(ctrl), nsid)
    }

    /// Like [`setup`] but with real NAND latencies, for tests that
    /// observe the virtual clock (tiny_test uses a zero-latency model).
    fn timed_setup() -> (SharedController, NamespaceId) {
        let cfg =
            FtlConfig { latency: fdpcache_nand::LatencyModel::default(), ..FtlConfig::tiny_test() };
        let ctrl = Controller::new(cfg, Box::new(MemStore::new())).unwrap();
        let nsid = ctrl.create_namespace(256, vec![0, 1, 2]).unwrap();
        (Arc::new(ctrl), nsid)
    }

    #[test]
    fn write_read_round_trip_with_handles() {
        let (ctrl, nsid) = setup();
        let mut io = IoManager::new(ctrl, nsid, 4).unwrap();
        let data = vec![0x5A; 4096];
        io.write(10, &data, PlacementHandle::with_dspec(1)).unwrap();
        let mut out = vec![0; 4096];
        io.read(10, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(io.stats().writes, 1);
        assert_eq!(io.stats().reads, 1);
        assert_eq!(io.read_latency().count(), 1);
        assert_eq!(io.write_latency().count(), 1);
    }

    #[test]
    fn default_handle_writes_without_directive() {
        let (ctrl, nsid) = setup();
        let mut io = IoManager::new(ctrl.clone(), nsid, 4).unwrap();
        io.write(0, &vec![1u8; 4096], PlacementHandle::DEFAULT).unwrap();
        // Namespace default handle is RUH 0.
        assert_eq!(ctrl.with_ftl(|f| f.ruh_host_pages()[0]), 1);
    }

    #[test]
    fn discard_unmaps_and_costs_virtual_time() {
        let (ctrl, nsid) = setup();
        let mut io = IoManager::new(ctrl, nsid, 4).unwrap();
        io.write(5, &vec![1u8; 4096], PlacementHandle::DEFAULT).unwrap();
        let t0 = io.now_ns();
        let lat = io.discard(5, 1).unwrap();
        assert_eq!(lat, DISCARD_BASE_SERVICE_NS + DISCARD_PER_BLOCK_NS);
        assert_eq!(io.now_ns(), t0 + lat, "discard must advance the clock");
        assert_eq!(io.discard_latency().count(), 1);
        let mut out = vec![0u8; 4096];
        assert!(matches!(io.read(5, &mut out), Err(NvmeError::Unwritten(_))));
        assert_eq!(io.stats().discards, 1);
        assert_eq!(io.stats().bytes_discarded, 4096);
    }

    #[test]
    fn gc_interference_caps_pin_the_modeled_ratio() {
        // The write:read interference asymmetry is a modeling constant
        // (paper: ~10x write-tail vs ~1.75x read-tail inflation); pin
        // the ratio so a refactor cannot silently change the model.
        assert_eq!(GC_WRITE_INTERFERENCE_CAP / GC_READ_INTERFERENCE_CAP, 8);
        assert_eq!(GC_READ_INTERFERENCE_CAP, 1);
    }

    #[test]
    fn gc_backlog_charges_caps_by_command_kind() {
        // Two managers on one lane each, equal huge GC backlogs: the
        // next write may absorb up to GC_WRITE_INTERFERENCE_CAP x its
        // own service time, the next read only
        // GC_READ_INTERFERENCE_CAP x — so with service time s the
        // observed latency is (cap + 1) x s and exactly cap x s of
        // backlog drains.
        let (ctrl, nsid) = timed_setup();
        let mut wio = IoManager::new(ctrl.clone(), nsid, 1).unwrap();
        let nsid2 = ctrl.create_namespace(64, vec![0]).unwrap();
        let mut rio = IoManager::new(ctrl.clone(), nsid2, 1).unwrap();
        let data = vec![7u8; 4096];
        wio.write(0, &data, PlacementHandle::DEFAULT).unwrap();
        rio.write(0, &data, PlacementHandle::DEFAULT).unwrap();
        let backlog = 1u64 << 40;
        wio.gc_backlog_ns = backlog;
        rio.gc_backlog_ns = backlog;
        let wlat = wio.write(1, &data, PlacementHandle::DEFAULT).unwrap();
        let mut out = vec![0u8; 4096];
        let rlat = rio.read(0, &mut out).unwrap();
        // latency = (cap + 1) * service, drained = cap * service.
        let wdrained = backlog - wio.gc_backlog_ns;
        let rdrained = backlog - rio.gc_backlog_ns;
        assert_eq!(
            wlat,
            wdrained / GC_WRITE_INTERFERENCE_CAP * (GC_WRITE_INTERFERENCE_CAP + 1),
            "write latency must be (cap+1)x its service time"
        );
        assert_eq!(
            rlat,
            rdrained / GC_READ_INTERFERENCE_CAP * (GC_READ_INTERFERENCE_CAP + 1),
            "read latency must be (cap+1)x its service time"
        );
    }

    #[test]
    fn two_managers_share_one_device() {
        let (ctrl, nsid) = setup();
        let mut a = IoManager::new(ctrl.clone(), nsid, 2).unwrap();
        let mut b = IoManager::new(ctrl.clone(), nsid, 2).unwrap();
        a.write(0, &vec![0xAA; 4096], PlacementHandle::DEFAULT).unwrap();
        let mut out = vec![0u8; 4096];
        b.read(0, &mut out).unwrap();
        assert_eq!(out[0], 0xAA);
    }

    #[test]
    fn invalid_namespace_rejected_at_construction() {
        let (ctrl, _) = setup();
        assert!(matches!(IoManager::new(ctrl, 99, 2), Err(NvmeError::InvalidNamespace(99))));
    }

    #[test]
    fn capacity_accessors() {
        let (ctrl, nsid) = setup();
        let io = IoManager::new(ctrl, nsid, 2).unwrap();
        assert_eq!(io.blocks(), 256);
        assert_eq!(io.block_bytes(), 4096);
        assert_eq!(io.capacity_bytes(), 256 * 4096);
    }

    #[test]
    fn manager_stats_mirror_namespace_counters() {
        let (ctrl, nsid) = setup();
        let mut io = IoManager::new(ctrl, nsid, 2).unwrap();
        io.write(0, &vec![1u8; 4096], PlacementHandle::DEFAULT).unwrap();
        let mut out = vec![0u8; 4096];
        io.read(0, &mut out).unwrap();
        let ns_stats = io.namespace().stats();
        assert_eq!(ns_stats.writes, io.stats().writes);
        assert_eq!(ns_stats.reads, io.stats().reads);
        assert_eq!(ns_stats.bytes_written, io.stats().bytes_written);
    }

    #[test]
    fn batch_submission_is_bit_identical_to_sequential_at_depth_one() {
        let (ctrl_a, ns_a) = setup();
        let (ctrl_b, ns_b) = setup();
        let mut batched = IoManager::new(ctrl_a, ns_a, 4).unwrap();
        let mut sequential = IoManager::new(ctrl_b, ns_b, 4).unwrap();
        let bufs: Vec<Vec<u8>> = (0..12u8).map(|i| vec![i; 4 * 4096]).collect();
        let handle = PlacementHandle::with_dspec(1);

        // Sequential reference.
        let mut seq_lat = Vec::new();
        for (i, d) in bufs.iter().enumerate() {
            seq_lat.push(sequential.write(i as u64 * 4, d, handle).unwrap());
        }
        seq_lat.push(sequential.discard(0, 4).unwrap());

        // One batch, same commands in the same order.
        let mut batch = IoBatch::with_capacity(bufs.len() + 1);
        for (i, d) in bufs.iter().enumerate() {
            batch.write(i as u64 * 4, d, handle);
        }
        batch.discard(0, 4);
        let lat = batched.submit_batch(batch).unwrap();

        assert_eq!(lat, seq_lat, "per-command latencies must match");
        assert_eq!(batched.now_ns(), sequential.now_ns(), "virtual clock must match");
        assert_eq!(batched.stats(), sequential.stats());
        assert_eq!(batched.write_latency().p99(), sequential.write_latency().p99());
    }

    #[test]
    fn batch_reads_return_payloads_and_latencies() {
        let (ctrl, nsid) = timed_setup();
        let mut io = IoManager::new(ctrl, nsid, 4).unwrap();
        let a = vec![0xA1; 4096];
        let b = vec![0xB2; 4096];
        let mut batch = IoBatch::new();
        batch.write(0, &a, PlacementHandle::DEFAULT).write(1, &b, PlacementHandle::DEFAULT);
        io.submit_batch(batch).unwrap();
        let mut out_a = vec![0u8; 4096];
        let mut out_b = vec![0u8; 4096];
        let mut rd = IoBatch::new();
        rd.read(0, &mut out_a).read(1, &mut out_b);
        let lat = io.submit_batch(rd).unwrap();
        assert_eq!(lat.len(), 2);
        assert!(lat.iter().all(|&l| l > 0));
        assert_eq!(out_a, a);
        assert_eq!(out_b, b);
        assert_eq!(io.stats().reads, 2);
    }

    #[test]
    fn failed_batch_leaves_timing_untouched() {
        let (ctrl, nsid) = setup();
        let mut io = IoManager::new(ctrl, nsid, 4).unwrap();
        let good = vec![1u8; 4096];
        let t0 = io.now_ns();
        let mut batch = IoBatch::new();
        batch.write(0, &good, PlacementHandle::DEFAULT);
        batch.write(1, &good[..100], PlacementHandle::DEFAULT); // misaligned
        assert!(io.submit_batch(batch).is_err());
        assert_eq!(io.now_ns(), t0);
        assert_eq!(io.stats(), IoStats::default());
        assert_eq!(io.write_latency().count(), 0);
    }

    #[test]
    fn queue_depth_pipelines_commands_in_virtual_time() {
        let (ctrl_a, ns_a) = timed_setup();
        let (ctrl_b, ns_b) = timed_setup();
        let mut qd1 = IoManager::new(ctrl_a, ns_a, 4).unwrap();
        let mut qd4 = IoManager::new(ctrl_b, ns_b, 4).unwrap();
        qd4.set_queue_depth(4);
        assert_eq!(qd4.queue_depth(), 4);
        let data = vec![3u8; 4096];
        for i in 0..16u64 {
            qd1.write(i, &data, PlacementHandle::DEFAULT).unwrap();
            qd4.write(i, &data, PlacementHandle::DEFAULT).unwrap();
        }
        qd1.flush();
        qd4.flush();
        assert_eq!(qd4.in_flight(), 0);
        assert!(
            qd4.now_ns() < qd1.now_ns(),
            "QD4 must finish sooner in virtual time: {} vs {}",
            qd4.now_ns(),
            qd1.now_ns()
        );
        // Same device work either way.
        assert_eq!(qd1.stats().writes, qd4.stats().writes);
    }

    #[test]
    fn iostats_merge_covers_every_field() {
        let a = IoStats {
            writes: 1,
            reads: 2,
            discards: 3,
            bytes_written: 4,
            bytes_read: 5,
            bytes_discarded: 6,
            faults: 7,
            health: HealthIoStats {
                state: HealthState::Degraded,
                errors: 13,
                busys: 14,
                windows: 15,
                degradations: 16,
                recoveries: 17,
            },
        };
        let b = a.merge(&a);
        assert_eq!(
            b,
            IoStats {
                writes: 2,
                reads: 4,
                discards: 6,
                bytes_written: 8,
                bytes_read: 10,
                bytes_discarded: 12,
                faults: 14,
                health: HealthIoStats {
                    state: HealthState::Degraded,
                    errors: 26,
                    busys: 28,
                    windows: 30,
                    degradations: 32,
                    recoveries: 34,
                },
            }
        );
    }

    #[test]
    fn injected_faults_complete_failed_with_deterministic_timing() {
        use fdpcache_nvme::{FaultConfig, FaultKind, FaultStore, ScriptedFault};
        let cfg = FtlConfig::tiny_test();
        let scripted = |kind, lba| ScriptedFault { kind, lba, at_access: 0, repeats: 1 };
        let fault_cfg = FaultConfig {
            scripted: vec![
                scripted(FaultKind::WriteError, 0),
                scripted(FaultKind::ReadError, 1),
                ScriptedFault { kind: FaultKind::Busy, lba: 2, at_access: 1, repeats: 1 },
            ],
            busy_penalty_ns: 900_000,
            ..Default::default()
        };
        let store = FaultStore::new(Box::new(MemStore::new()), fault_cfg);
        let ctrl = Arc::new(Controller::new(cfg, Box::new(store)).unwrap());
        let nsid = ctrl.create_namespace(64, vec![0, 1]).unwrap();
        let mut io = IoManager::new(ctrl.clone(), nsid, 1).unwrap();
        let data = vec![1u8; 4096];

        // Scripted write fault: error completion, FAULT_SERVICE_NS.
        let t0 = io.now_ns();
        let err = io.write(0, &data, PlacementHandle::DEFAULT).unwrap_err();
        assert!(matches!(err, NvmeError::MediaError { lba: 0, .. }));
        assert_eq!(io.now_ns(), t0 + FAULT_SERVICE_NS);
        // The retry (access 1) succeeds: the old mapping never existed,
        // no side effect leaked from the failed attempt.
        io.write(0, &data, PlacementHandle::DEFAULT).unwrap();
        io.write(1, &data, PlacementHandle::DEFAULT).unwrap();
        io.write(2, &data, PlacementHandle::DEFAULT).unwrap();

        // Scripted read fault, then clean retry returns the payload.
        let mut out = vec![0u8; 4096];
        assert!(io.read(1, &mut out).unwrap_err().is_injected_fault());
        io.read(1, &mut out).unwrap();
        assert_eq!(out, data);

        // Busy charges its penalty and succeeds on retry.
        let t1 = io.now_ns();
        let err = io.read(2, &mut out).unwrap_err();
        assert!(matches!(err, NvmeError::Busy { penalty_ns: 900_000 }));
        assert_eq!(io.now_ns(), t1 + 900_000);
        io.read(2, &mut out).unwrap();

        assert_eq!(io.stats().faults, 3);
        assert_eq!(ctrl.fault_totals().total(), 3);
        // Successful-command counters exclude the failures.
        assert_eq!(io.stats().writes, 3);
        assert_eq!(io.stats().reads, 2);
        // The health monitor saw every completion, split by kind, but
        // too few events in too little time to close a window.
        assert_eq!(io.stats().health.errors, 2);
        assert_eq!(io.stats().health.busys, 1);
        assert_eq!(io.health(), HealthState::Healthy);
        ctrl.with_ftl(|f| f.check_invariants());
    }

    #[test]
    fn io_path_walks_health_down_and_back() {
        use fdpcache_nvme::{FaultConfig, FaultKind, FaultStore, ScriptedFault};
        // A permanent bad block: every write to LBA 0 fails, each one
        // charging FAULT_SERVICE_NS, so observation windows fill with
        // pure-error traffic and the classifier escalates one level
        // per window.
        let fault_cfg = FaultConfig {
            scripted: vec![ScriptedFault {
                kind: FaultKind::WriteError,
                lba: 0,
                at_access: 0,
                repeats: u64::MAX,
            }],
            ..Default::default()
        };
        let store = FaultStore::new(Box::new(MemStore::new()), fault_cfg);
        let ctrl = Arc::new(Controller::new(FtlConfig::tiny_test(), Box::new(store)).unwrap());
        let nsid = ctrl.create_namespace(64, vec![0, 1]).unwrap();
        let mut io = IoManager::new(ctrl, nsid, 1).unwrap();
        let data = vec![1u8; 4096];
        while io.health() != HealthState::Failing {
            io.write(0, &data, PlacementHandle::DEFAULT).unwrap_err();
            assert!(io.stats().faults < 5_000, "health never reached Failing");
        }
        assert_eq!(io.stats().health.degradations, 2);
        // A successful breaker probe credits one level back...
        io.credit_health_recovery();
        assert_eq!(io.health(), HealthState::Degraded);
        // ...and sustained clean traffic (host think time spacing the
        // ops out so windows elapse) walks the rest of the way down.
        let mut clean = 0u64;
        while io.health() != HealthState::Healthy {
            io.advance(2_000_000);
            io.write(1, &data, PlacementHandle::DEFAULT).unwrap();
            clean += 1;
            assert!(clean < 5_000, "health never recovered");
        }
        assert_eq!(io.stats().health.recoveries, 2);
        // Transition trace is virtual-time stamped and monotone.
        let trace = io.health_transitions();
        assert_eq!(trace.len(), 4);
        assert!(trace.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn parallel_managers_do_not_serialize_on_a_device_lock() {
        // Regression guard for the tentpole: four workers on four
        // namespaces submit concurrently; every op must land and the
        // device must stay consistent.
        let ctrl =
            Arc::new(Controller::new(FtlConfig::tiny_test(), Box::new(MemStore::new())).unwrap());
        let per = ctrl.unallocated_lbas() / 4;
        let mut managers: Vec<IoManager> = (0..4)
            .map(|_| {
                let nsid = ctrl.create_namespace(per, vec![0, 1]).unwrap();
                IoManager::new(ctrl.clone(), nsid, 2).unwrap()
            })
            .collect();
        std::thread::scope(|scope| {
            for io in &mut managers {
                scope.spawn(move || {
                    let data = vec![io.namespace().nsid() as u8; 4096];
                    for i in 0..64 {
                        io.write(i % io.blocks(), &data, PlacementHandle::with_dspec(1)).unwrap();
                    }
                });
            }
        });
        let total = ctrl.device_io_stats();
        assert_eq!(total.writes, 4 * 64, "no lost writes across workers");
        ctrl.with_ftl(|f| f.check_invariants());
    }
}
