//! The four named workloads and the stack each one runs on.
//!
//! README.md in this directory says why each workload exists and which
//! layers it stresses.

use fdpcache_cache::builder::StoreKind;
use fdpcache_cache::{CacheConfig, NvmConfig};
use fdpcache_ftl::FtlConfig;
use fdpcache_nand::Geometry;
use fdpcache_workloads::WorkloadProfile;

/// Which public entry point the drivers call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// A `ConcurrentPool` of `shards` shards shared by every driver.
    Pool {
        /// Shard count.
        shards: usize,
    },
    /// One `HybridCache` built like `run_experiment`, one driver.
    Single,
}

/// How the key population is sized.
#[derive(Debug, Clone, Copy)]
pub enum Keyspace {
    /// A multiple of the flash namespace bytes, in objects of the
    /// profile's mean size (`WorkloadProfile::keyspace_for`).
    NamespaceMultiple(f64),
    /// A fixed number of keys.
    Fixed(u64),
}

/// One benchmark workload: profile, stack shape and run phases.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name as given on the command line.
    pub name: &'static str,
    /// Request generator profile.
    pub profile: WorkloadProfile,
    /// Entry point and sharding.
    pub topology: Topology,
    /// Payload store under the controller.
    pub store: StoreKind,
    /// FDP placement on or off.
    pub fdp: bool,
    /// Raw device capacity in MiB.
    pub device_mib: u64,
    /// Reclaim-unit size in MiB.
    pub ru_mib: u64,
    /// Device overprovisioning fraction.
    pub op_fraction: f64,
    /// Share of the exported capacity the cache namespaces cover.
    pub utilization: f64,
    /// DRAM budget: a fraction of the namespace bytes, or fixed bytes.
    pub dram: Dram,
    /// SOC share of each namespace.
    pub soc_fraction: f64,
    /// LOC region size in bytes.
    pub region_bytes: u64,
    /// Key population.
    pub keyspace: Keyspace,
    /// Requests per replay round (split across drivers). Fixed per
    /// workload so that a run's request stream and round boundaries do
    /// not depend on host speed.
    pub round_ops: usize,
    /// Serve a hot set from DRAM: set-up fills flash with cold keys
    /// (outside the keyspace) for one namespace turnover, then warms every
    /// key of one pre-generated block into DRAM, and the window replays
    /// that block over and over. Only valid for profiles without churn.
    pub hot_set: bool,
    /// Replay the workload itself until the device has absorbed this
    /// many device-capacity turnovers of host writes before measuring.
    pub warm_turnovers: f64,
    /// Time one op in this many (per driver) in the untraced run.
    pub sample_every: u64,
    /// Replace the request generator with a freshly seeded one (derived
    /// from the run's seed) every this many rounds; 0 keeps one
    /// generator. A generator fixes each popularity rank's object size
    /// when it first draws it, so one generator's handful of hot large
    /// objects sets the device's write mix for the whole run; fresh
    /// generators average the run over many such draws.
    pub reseed_rounds: u64,
    /// The virtual-time metrics are taken over this many rounds at the
    /// start of the untraced window: a fixed amount of work, so that
    /// they do not depend on how many rounds the host completes in
    /// `--seconds`. Set so that those rounds take well under the window
    /// on a 2-core host; a slower host runs them to the end anyway.
    pub fidelity_rounds: u64,
}

/// DRAM sizing rule.
#[derive(Debug, Clone, Copy)]
pub enum Dram {
    /// Fraction of the total namespace bytes.
    Fraction(f64),
    /// Fixed bytes (total across shards).
    Bytes(u64),
}

/// Names accepted by `--workload`.
pub const WORKLOADS: [&str; 4] = ["hot_read", "kv_mixed", "twitter_gc", "loc_seal"];

impl Spec {
    /// The named workload, or `None` for an unknown name.
    pub fn by_name(name: &str) -> Option<Spec> {
        let pool_base = Spec {
            name: "kv_mixed",
            profile: WorkloadProfile::meta_kv_cache(),
            topology: Topology::Pool { shards: 4 },
            store: StoreKind::Mem,
            fdp: true,
            device_mib: 512,
            ru_mib: 4,
            op_fraction: 0.12,
            utilization: 0.9,
            dram: Dram::Fraction(0.045),
            soc_fraction: 0.04,
            region_bytes: 2 << 20,
            keyspace: Keyspace::NamespaceMultiple(4.0),
            round_ops: 1 << 17,
            hot_set: false,
            warm_turnovers: 2.0,
            sample_every: 4,
            reseed_rounds: 0,
            fidelity_rounds: 36,
        };
        Some(match name {
            "hot_read" => Spec {
                name: "hot_read",
                profile: WorkloadProfile::read_mostly_hot(),
                device_mib: 128,
                dram: Dram::Bytes(32 << 20),
                soc_fraction: 0.1,
                region_bytes: 1 << 20,
                keyspace: Keyspace::Fixed(1 << 16),
                round_ops: 1 << 20,
                hot_set: true,
                warm_turnovers: 0.0,
                sample_every: 16,
                fidelity_rounds: 48,
                ..pool_base
            },
            "kv_mixed" => pool_base,
            "twitter_gc" => Spec {
                name: "twitter_gc",
                profile: WorkloadProfile::twitter_cluster12(),
                topology: Topology::Single,
                store: StoreKind::Null,
                fdp: false,
                // A small device turns over about three times a round, so
                // the window spans enough GC cycles for its DLWA to settle.
                device_mib: 128,
                ru_mib: 1,
                utilization: 1.0,
                region_bytes: 4 << 20,
                warm_turnovers: 3.0,
                reseed_rounds: 2,
                fidelity_rounds: 64,
                ..pool_base
            },
            "loc_seal" => Spec {
                name: "loc_seal",
                profile: WorkloadProfile::loc_seal_heavy(),
                round_ops: 1 << 15,
                sample_every: 1,
                fidelity_rounds: 18,
                ..pool_base
            },
            _ => return None,
        })
    }

    /// The same workload on a 32 MiB device with short phases, for the
    /// benchmark's own tests.
    pub fn tiny(mut self) -> Spec {
        self.device_mib = 32;
        self.ru_mib = 1;
        self.region_bytes = self.region_bytes.min(1 << 20);
        self.round_ops = self.round_ops.min(1 << 12);
        self.warm_turnovers = self.warm_turnovers.min(0.5);
        if let Dram::Bytes(b) = self.dram {
            self.dram = Dram::Bytes(b.min(4 << 20));
        }
        if let Keyspace::Fixed(k) = self.keyspace {
            self.keyspace = Keyspace::Fixed(k.min(4096));
        }
        self
    }

    /// Driver threads: every pool workload shares its shards between
    /// `min(2, nproc)` drivers; the single-cache workload has one.
    pub fn drivers(&self) -> usize {
        match self.topology {
            Topology::Single => 1,
            Topology::Pool { .. } => {
                std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
            }
        }
    }

    /// The device configuration.
    pub fn ftl_config(&self, seed: u64) -> FtlConfig {
        let geometry = Geometry::with_capacity(self.device_mib << 20, self.ru_mib << 20, 4096)
            .expect("benchmark geometry must be constructible");
        FtlConfig {
            geometry,
            op_fraction: self.op_fraction,
            num_ruhs: 8,
            seed,
            event_log_capacity: 1024,
            ..FtlConfig::scaled_default()
        }
    }

    /// The cache configuration for namespaces totalling `ns_bytes`.
    pub fn cache_config(&self, ns_bytes: u64) -> CacheConfig {
        let ram_bytes = match self.dram {
            Dram::Fraction(f) => ((ns_bytes as f64 * f) as u64).max(1 << 20),
            Dram::Bytes(b) => b,
        };
        CacheConfig {
            ram_bytes,
            ram_item_overhead: 31,
            nvm: NvmConfig {
                soc_fraction: self.soc_fraction,
                region_bytes: self.region_bytes,
                ..NvmConfig::default()
            },
            use_fdp: self.fdp,
        }
    }

    /// Keys the generator draws from, given the namespace bytes.
    pub fn keys(&self, ns_bytes: u64) -> u64 {
        match self.keyspace {
            Keyspace::NamespaceMultiple(m) => self.profile.keyspace_for(ns_bytes, m),
            Keyspace::Fixed(k) => k,
        }
    }
}
