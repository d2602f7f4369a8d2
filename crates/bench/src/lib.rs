//! # fdpcache-bench
//!
//! Experiment harness: shared runner utilities plus one binary per paper
//! figure/table (see DESIGN.md §4 for the index). The binaries print the
//! same rows/series the paper reports and emit CSV for re-plotting.

#![warn(missing_docs)]
pub mod chaos;
pub mod faults;
pub mod fleet;
pub mod fullstack;
pub mod harness;
pub mod recovery;
pub mod throughput;
pub mod wallclock;

pub use chaos::{
    run_chaos_storm, run_scrub_precedence, sweep_chaos, ChaosGateConfig, ChaosRunResult,
    ChaosSweep, ChaosSweepEntry, ScrubPrecedenceResult, ShardBreakerTrace, TOPOLOGY_WORKERS,
};
pub use faults::{
    run_fault_scenario, run_plain_baseline, sweep_faults, FaultGateConfig, FaultRunResult,
    FaultSweepEntry,
};
pub use fleet::{
    run_fleet_failover, run_fleet_tenants, sweep_fleet, FleetDeviceReport, FleetFailoverResult,
    FleetGateConfig, FleetSweep, FleetTenantsResult, TenantPhaseStats, FLEET_DLWA_CEILING,
    FLEET_TENANTS, FLEET_WORKERS, ISOLATION_P99_FACTOR, OVERLOAD_P99_FACTOR,
};
pub use fullstack::{
    emit_trajectory, run_fullstack, run_read_contended, sweep_fullstack, sweep_read,
    ChaosTrajectoryPoint, FaultTrajectoryPoint, FleetFailoverTrajectoryPoint,
    FleetTenantTrajectoryPoint, FullstackConfig, QdTrajectoryPoint, ReadScalingConfig,
    ReadScalingResult, ReadTrajectoryPoint, RecoveryTrajectoryPoint, TrajectoryPoint,
    TrajectoryRecord, WallclockTrajectoryPoint,
};
pub use harness::*;
pub use recovery::{
    baseline_segment_hit_ratios, builtin_crash_points, run_crash_recovery, sweep_recovery,
    CrashSpec, RecoveryGateConfig, RecoveryRunResult, RecoverySweepEntry,
};
pub use throughput::{
    qd_sweep, run_qd_replay, run_throughput, sweep, QdResult, ThroughputConfig, ThroughputResult,
};
pub use wallclock::{
    run_wallclock, sweep_wallclock, WallclockComparison, WallclockConfig, WallclockProfile,
    WallclockResult, WallclockStore,
};
