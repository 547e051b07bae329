//! End-to-end replica runtime — where the ordering service and the
//! deterministic database finally meet.
//!
//! The paper's thesis is that an Order-Execute private blockchain is
//! "consensus delivers an ordered block; deterministic execution does the
//! rest." This crate closes that loop as a running system:
//!
//! * [`mempool`] — the client-facing frontend: sessions, per-session
//!   nonces, duplicate/gap rejection, bounded-queue backpressure, and
//!   deterministic FIFO batching.
//! * [`replica`] — [`ReplicaNode`], the one replica type: one
//!   [`harmony_shard::ShardGroup`] of [`harmony_chain::OeChain`]s, one per
//!   hosted shard (storage + snapshots + any of the five DCC engines),
//!   consuming sealed blocks with ordered
//!   delivery (gap buffering), a verified delivery log, virtual-time cost
//!   accounting, and state-root gossip for divergence detection. A flat
//!   replica ([`ReplicaConfig`]) is its one-partition layout: the single
//!   chain is the global chain and runs the full-profile engines.
//! * [`sharded`] — the multi-shard layout ([`ShardedReplicaConfig`]):
//!   cross-shard planning, per-shard sub-block chains, and live
//!   resharding through topology-change blocks.
//! * [`statesync`] — how a lagging replica catches up: per shard,
//!   checkpoint manifest transfer or verified block-range replay from a
//!   peer, with a timeout/retry/backoff policy ([`RetryPolicy`]) for peers
//!   that never answer.
//! * [`fault`] — the chaos plane: a typed [`FaultSchedule`] of crash
//!   cycles, partitions, link drop/duplication/delay windows, sync
//!   refusals, and root poisoning, lowered onto the deterministic net.
//! * [`cluster`] — [`Cluster`]: N replicas + orderer (+ brokers) + an
//!   open-loop client bank on the deterministic discrete-event network,
//!   with fault schedules, watchdog-driven recovery, divergence
//!   quarantine, and client resubmission, producing node-runtime
//!   [`harmony_sim::RunMetrics`] instead of the analytic composition.
//!
//! The invariant every scenario must uphold: replicas fed the same
//! ordered blocks reach **bit-identical state roots**, whatever the
//! engine, worker count, crash points, or sync path.

pub mod cluster;
pub mod fault;
pub mod mempool;
pub mod metrics;
pub mod replica;
pub mod sharded;
pub mod statesync;

pub use cluster::{
    build_node, load_ns_for_txns, submission_trace, BlockSummary, Cluster, ClusterConfig,
    ClusterLayout, ClusterNode, ClusterReport, ClusterWorkload, Msg, NodeStatus, OrderingMode,
    ReplicaSummary, ShardTopology, Submission, TIMER_CRASH, TIMER_RECOVER,
};
pub use fault::{FaultEvent, FaultSchedule, ReshardAt, ReshardSchedule};
pub use mempool::{AdmitError, Mempool, MempoolConfig, MempoolMetrics, MempoolStats, PendingTxn};
pub use metrics::{shard_txn_counters, ReplicaMetrics, TxnCounters, ROOT_FOLD_NS};
pub use replica::{Applied, ReplicaConfig, ReplicaNode};
pub use sharded::{ShardedReplicaConfig, ShardedReplicaNode};
pub use statesync::{
    apply_sharded_sync, serve_sharded_sync, RetryPolicy, ShardedSyncApplied, ShardedSyncResponse,
    SyncPolicy, SyncResponse,
};
