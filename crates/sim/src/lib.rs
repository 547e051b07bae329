//! Virtual-time performance model.
//!
//! Protocols execute *for real* (real aborts, real buffer-pool state, real
//! dependency structures); only elapsed time is virtual: every costed
//! operation reports nanoseconds (`harmony_common::vtime`), and this crate
//! turns per-transaction costs into block makespans and end-to-end
//! throughput/latency:
//!
//! * [`engines`] — the engine selector ([`EngineKind`]): the five systems
//!   in their full and sharded profiles.
//! * [`sched`] — deterministic list-scheduling of simulation/commit tasks
//!   onto `W` worker cores, serial-commit stages, centralized orderer
//!   stages, the 2-deep pipeline overlap of inter-block parallelism, and
//!   the flat and planned block-cost formulas the replica charges too.
//! * [`driver`] — runs (engine × workload) for N blocks with abort-retry
//!   requeueing and produces the paper's metrics (throughput, latency,
//!   abort rate, CPU utilization, I/O counters).
//! * [`cluster`] — composes DB-layer metrics with the consensus layer's
//!   throughput/latency envelopes for the replica-count and BFT figures.

pub mod cluster;
pub mod driver;
pub mod engines;
pub mod sched;

pub use cluster::{ClusterMetrics, ClusterModel};
pub use driver::{run_experiment, run_sharded_experiment, RunConfig, RunMetrics, ShardRunConfig};
pub use engines::EngineKind;
pub use sched::{flat_block_cost, makespan, planned_block_ns, schedule_block, BlockSchedule};
