//! The cluster harness: a full Order-Execute deployment on the
//! deterministic discrete-event network.
//!
//! Node layout: one open-loop **client bank** (Poisson arrivals over N
//! sessions, per-session nonces), one **ordering service** (mempool
//! admission → deterministic batching → sealing → replication/voting →
//! delivery), optional Kafka follower brokers, and R **replicas**
//! applying sealed blocks in order. Every replica is a [`ReplicaNode`]:
//! flat (one partition) by default, or — when a [`ShardTopology`] is
//! configured — hosting M shards behind the same ordered stream, making
//! the harness an N×M deployment.
//!
//! Scenario hooks: a [`FaultSchedule`] (see [`crate::fault`]) injects
//! typed faults mid-run — multiple crash/rejoin cycles, partition
//! windows, per-link drop/duplication/delay faults lowered onto the
//! deterministic net model, sync-serve refusals, and root poisoning. Recovery is
//! policy-driven: state-sync requests carry an epoch and time out
//! ([`RetryPolicy`] — bounded retries, exponential backoff with
//! deterministic jitter, failover around a candidate ring), a liveness
//! watchdog re-arms catch-up on replicas that went quiet, and a replica
//! whose gossiped root a quorum of peers dispute self-quarantines,
//! wipes, and re-syncs from scratch. On the client side, retryable
//! admission rejects (backpressure, tenant quota, nonce gaps) can be
//! resubmitted with the same backoff discipline, closing the overload
//! loop end-to-end. All of it is armed only when faults (or client
//! retry) are configured — no-fault runs schedule the exact same events
//! as before the chaos plane existed.
//!
//! [`Cluster::run`] returns a [`ClusterReport`] whose `metrics` is a real
//! [`RunMetrics`] measured from the replica runtime — the same shape the
//! analytic `ClusterModel` composition produces, now driven end-to-end.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use harmony_chain::ChainBlock;
use harmony_common::{BlockId, Error, Result};
use harmony_consensus::net::{EventLoop, LatencyModel, SimNode, Transport};
use harmony_crypto::{CryptoCost, Digest, KeyPair};
use harmony_metrics::{doubling_buckets, Counter, Histogram, Registry, Timeline};
use harmony_shard::{Partitioning, PlannerMetrics, ReshardMarker};
use harmony_sim::RunMetrics;
use harmony_storage::{IoSnapshot, StorageConfig, StorageEngine};
use harmony_txn::{encode_contract, Contract, ContractCodec};
use harmony_workloads::{
    OpenLoopClients, OpenLoopConfig, Smallbank, SmallbankCodec, SmallbankConfig, Tpcc, TpccCodec,
    TpccConfig, Workload, Ycsb, YcsbCodec, YcsbConfig,
};

use crate::fault::{FaultSchedule, ReshardSchedule};
use crate::mempool::{Mempool, MempoolConfig, MempoolMetrics, MempoolStats};
use crate::metrics::{shard_txn_counters, ReplicaMetrics, TxnCounters, ROOT_FOLD_NS};
use crate::replica::{Applied, ReplicaConfig, ReplicaNode};
use crate::sharded::ShardedReplicaConfig;
use crate::statesync::{
    apply_sharded_sync, serve_sharded_sync, RetryPolicy, ShardedSyncResponse, SyncPolicy,
};

/// Workload selector for a cluster run (workload + its contract codec).
#[derive(Clone, Debug)]
pub enum ClusterWorkload {
    /// Smallbank with the given configuration.
    Smallbank(SmallbankConfig),
    /// YCSB with the given configuration.
    Ycsb(YcsbConfig),
    /// TPC-C full mix with the given configuration.
    Tpcc(TpccConfig),
}

impl ClusterWorkload {
    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ClusterWorkload::Smallbank(_) => "Smallbank",
            ClusterWorkload::Ycsb(_) => "YCSB",
            ClusterWorkload::Tpcc(_) => "TPC-C",
        }
    }

    /// Load genesis state into a replica's engine and return the codec
    /// that decodes this workload's contracts.
    pub fn setup_node(&self, engine: &Arc<StorageEngine>) -> Result<Arc<dyn ContractCodec>> {
        match self {
            ClusterWorkload::Smallbank(c) => {
                let mut w = Smallbank::new(c.clone());
                w.setup(engine)?;
                let (checking, savings) = w.tables();
                Ok(Arc::new(SmallbankCodec { checking, savings }))
            }
            ClusterWorkload::Ycsb(c) => {
                let mut w = Ycsb::new(c.clone());
                w.setup(engine)?;
                Ok(Arc::new(YcsbCodec { table: w.table() }))
            }
            ClusterWorkload::Tpcc(c) => {
                let mut w = Tpcc::new(c.clone());
                w.setup(engine)?;
                Ok(Arc::new(TpccCodec { tables: w.tables() }))
            }
        }
    }

    /// The workload's contract codec, built against a scratch engine (the
    /// deterministic setup gives every node identical table ids). The
    /// orderer process of a real-transport cluster uses this to decode
    /// submitted contracts without hosting a replica.
    pub fn codec(&self) -> Result<Arc<dyn ContractCodec>> {
        let engine = Arc::new(StorageEngine::open(&StorageConfig::memory())?);
        self.setup_node(&engine)
    }

    /// Tables a sharded deployment should replicate in full on every
    /// shard: read-only dimension tables, never written after genesis.
    /// TPC-C's `item` price list is the canonical case — replicating it
    /// keeps NewOrder's price lookups shard-local, so a warehouse-local
    /// order needs no cross-shard round at all.
    #[must_use]
    pub fn replicated_tables(&self) -> Vec<String> {
        match self {
            ClusterWorkload::Tpcc(_) => vec!["item".to_string()],
            ClusterWorkload::Smallbank(_) | ClusterWorkload::Ycsb(_) => Vec::new(),
        }
    }

    /// The partitioning function a sharded deployment of this workload
    /// should run: entity-prefix for TPC-C (composite keys share their
    /// warehouse's leading 8 bytes, making declared NewOrder/Payment
    /// footprints single-shard), whole-row hash for the 8-byte-key
    /// workloads — where the two are bit-identical anyway.
    #[must_use]
    pub fn recommended_partitioning(&self) -> Partitioning {
        match self {
            ClusterWorkload::Tpcc(_) => Partitioning::Prefix,
            ClusterWorkload::Smallbank(_) | ClusterWorkload::Ycsb(_) => Partitioning::Hash,
        }
    }

    /// A transaction generator for the client bank (set up against a
    /// scratch engine so table ids match the replicas').
    pub fn generator(&self) -> Result<Box<dyn Workload>> {
        let engine = StorageEngine::open(&StorageConfig::memory())?;
        match self {
            ClusterWorkload::Smallbank(c) => {
                let mut w = Smallbank::new(c.clone());
                w.setup(&engine)?;
                Ok(Box::new(w))
            }
            ClusterWorkload::Ycsb(c) => {
                let mut w = Ycsb::new(c.clone());
                w.setup(&engine)?;
                Ok(Box::new(w))
            }
            ClusterWorkload::Tpcc(c) => {
                let mut w = Tpcc::new(c.clone());
                w.setup(&engine)?;
                Ok(Box::new(w))
            }
        }
    }
}

/// How the ordering service reaches agreement before delivering.
#[derive(Clone, Copy, Debug)]
pub enum OrderingMode {
    /// Crash-fault-tolerant leader + follower brokers, majority ack.
    Kafka {
        /// Replication factor (leader + followers).
        brokers: usize,
    },
    /// BFT: the replicas themselves vote in three chained rounds.
    HotStuff,
}

/// Sharded-execution topology of every replica: M shards over a fixed
/// logical partition count, partitioned by the workload's
/// [`ClusterWorkload::recommended_partitioning`]. `None` in
/// [`ClusterConfig::topology`] keeps the flat single-engine replica.
#[derive(Clone, Copy, Debug)]
pub struct ShardTopology {
    /// Physical shards hosted by every replica.
    pub shards: usize,
    /// Logical partitions (fixed across shard counts, so every commit
    /// decision is shard-count-invariant). Should match the workload's
    /// `partitions` knob.
    pub partitions: u32,
    /// Per-shard checkpoint-period stagger (see
    /// [`ShardedReplicaConfig::checkpoint_stagger`]).
    pub checkpoint_stagger: u64,
}

impl Default for ShardTopology {
    fn default() -> Self {
        ShardTopology {
            shards: 4,
            partitions: 16,
            checkpoint_stagger: 0,
        }
    }
}

/// Cluster configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of replicas.
    pub replicas: usize,
    /// Per-replica configuration (engine, workers, chain, gossip).
    pub replica: ReplicaConfig,
    /// Sharded execution topology: `Some` lays every replica out over M
    /// shards (N×M deployment), `None` keeps flat (one-partition)
    /// replicas.
    pub topology: Option<ShardTopology>,
    /// The workload and its codec.
    pub workload: ClusterWorkload,
    /// Ordering service style.
    pub ordering: OrderingMode,
    /// Network model.
    pub latency: LatencyModel,
    /// Mempool admission bounds.
    pub mempool: MempoolConfig,
    /// Open-loop client arrival process.
    pub open_loop: OpenLoopConfig,
    /// Arrivals stop after this much virtual time.
    pub load_ns: u64,
    /// Extra virtual time to drain the pipeline.
    pub drain_ns: u64,
    /// Transactions per sealed block (batch ceiling).
    pub block_txns: usize,
    /// Batching tick interval.
    pub batch_interval_ns: u64,
    /// Seal a full block the moment the mempool reaches `block_txns`
    /// instead of waiting for the next batch tick. Off by default — the
    /// default discipline's event schedule stays bit-identical to every
    /// pinned run. Combined with a batch interval longer than the run,
    /// sealing becomes purely count-driven: the block stream is a pure
    /// function of the admitted submission sequence, independent of
    /// arrival pacing — which is how a wall-clock TCP cluster and the
    /// virtual-time simulator are proven to commit identical state roots.
    pub eager_seal: bool,
    /// Max unacknowledged blocks in the ordering pipeline.
    pub window: usize,
    /// State-sync serving policy.
    pub sync: SyncPolicy,
    /// Fault-injection schedule. Empty = healthy run: none of the chaos
    /// machinery (watchdog timers, sync timeouts, net-fault table) is
    /// armed, so the event schedule is bit-identical to a build without
    /// the chaos plane.
    pub faults: FaultSchedule,
    /// Scheduled topology changes (live shard split/merge). Empty =
    /// static topology: the orderer never consults the queue and the
    /// sealed stream is bit-identical to a build without elastic
    /// resharding. Requires a sharded `topology`.
    pub reshards: ReshardSchedule,
    /// State-sync timeout/retry/backoff/failover policy (active on
    /// fault runs only).
    pub sync_retry: RetryPolicy,
    /// Client resubmission policy for retryable admission rejects
    /// (backpressure, tenant quota, nonce gap). `None` disables
    /// resubmission — rejected transactions are simply lost, the
    /// pre-chaos behavior.
    pub client_retry: Option<RetryPolicy>,
    /// Peers that must dispute this replica's root at one gossip height
    /// before it self-quarantines and re-syncs from scratch.
    pub quarantine_quorum: u32,
    /// Liveness-watchdog period (virtual ns); armed on fault runs only.
    pub watchdog_ns: u64,
    /// Metric-timeline snapshot interval (virtual ns). Snapshots are
    /// taken in virtual time, so same-seed runs produce byte-identical
    /// timelines.
    pub metrics_every_ns: u64,
    /// Simulation seed (network jitter + client stream).
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replicas: 4,
            replica: ReplicaConfig::default(),
            topology: None,
            workload: ClusterWorkload::Smallbank(SmallbankConfig {
                accounts: 1_000,
                theta: 0.6,
                ..SmallbankConfig::default()
            }),
            ordering: OrderingMode::Kafka { brokers: 3 },
            latency: LatencyModel::lan_1g(),
            mempool: MempoolConfig::default(),
            open_loop: OpenLoopConfig::default(),
            load_ns: 40_000_000,
            drain_ns: 400_000_000,
            block_txns: 32,
            batch_interval_ns: 500_000,
            eager_seal: false,
            window: 4,
            sync: SyncPolicy::default(),
            faults: FaultSchedule::default(),
            reshards: ReshardSchedule::default(),
            sync_retry: RetryPolicy::default(),
            client_retry: None,
            quarantine_quorum: 2,
            watchdog_ns: 5_000_000,
            metrics_every_ns: 5_000_000,
            seed: 0xC10C,
        }
    }
}

impl ClusterConfig {
    /// Check the configuration before running: sane shape parameters and
    /// a well-formed fault schedule (indices in range, windows ordered,
    /// non-overlapping crash cycles, an observer left standing).
    /// [`Cluster::run`] calls this; harnesses building schedules
    /// programmatically can call it early for a better error site.
    pub fn validate(&self) -> Result<()> {
        if self.replicas == 0 {
            return Err(Error::InvalidArgument("cluster needs ≥ 1 replica".into()));
        }
        if self.quarantine_quorum == 0 {
            return Err(Error::InvalidArgument(
                "quarantine quorum must be ≥ 1".into(),
            ));
        }
        if self.watchdog_ns == 0 {
            return Err(Error::InvalidArgument(
                "watchdog period must be non-zero".into(),
            ));
        }
        if !self.reshards.is_empty() {
            let Some(topology) = self.topology else {
                return Err(Error::InvalidArgument(
                    "reshard schedule requires a sharded topology".into(),
                ));
            };
            self.reshards.validate(topology.partitions as usize)?;
        }
        self.faults.validate(self.replicas)
    }
}

// ── Messages and timers ─────────────────────────────────────────────────

/// The cluster's message enum — everything that crosses a link between
/// cluster nodes, on the simulator *or* on a real transport.
///
/// `harmony-transport` gives every variant a length-prefixed binary wire
/// form (version byte + per-variant tag), which is why the enum and its
/// payload types are public: the wire codec lives outside this crate but
/// must name them.
#[derive(Clone)]
pub enum Msg {
    /// Client → orderer: one transaction submission.
    Submit {
        /// Submitting client session.
        client: u64,
        /// The client's session nonce.
        nonce: u64,
        /// Submission timestamp (latency accounting).
        submitted_ns: u64,
        /// The contract itself (travels encoded on a real wire).
        contract: Arc<dyn Contract>,
    },
    /// Leader → follower broker (Kafka replication).
    Replicate {
        /// Block sequence being replicated.
        seq: u64,
    },
    /// Follower → leader.
    Ack {
        /// Acknowledged block sequence.
        seq: u64,
    },
    /// Leader → replica voter (HotStuff round `round` of 3).
    Prepare {
        /// Block sequence under vote.
        seq: u64,
        /// Voting round (0..3).
        round: u8,
    },
    /// Voter → leader.
    Vote {
        /// Block sequence voted on.
        seq: u64,
        /// Voting round the vote belongs to.
        round: u8,
    },
    /// Orderer → replica: the sealed block.
    Deliver {
        /// The sealed, signed block.
        block: Arc<ChainBlock>,
        /// Seal time (ordering-latency accounting).
        born_ns: u64,
        /// Mean submission timestamp of the batch (e2e latency).
        mean_submit_ns: u64,
    },
    /// Replica → replica: state root at a gossip height.
    RootGossip {
        /// Gossip height (block id).
        height: u64,
        /// The gossiped state root.
        root: Digest,
    },
    /// Lagging replica → peer: its per-shard chain heights, in shard
    /// order (one height on a flat replica). `epoch` tags the requester's
    /// sync attempt so stale replies (late after a timeout-driven
    /// failover) are discarded.
    SyncRequest {
        /// The requester's per-shard heights.
        from: Vec<BlockId>,
        /// The requester's sync-attempt epoch.
        epoch: u64,
    },
    /// Peer → lagging replica.
    SyncReply {
        /// The served manifest/range payload.
        response: Arc<ShardedSyncResponse>,
        /// Echo of the request's epoch.
        epoch: u64,
    },
    /// Peer → lagging replica: explicit serve refusal (the peer is
    /// itself syncing, or shedding serve work under a refusal-fault
    /// window). The requester fails over immediately instead of waiting
    /// out its timeout.
    SyncRefused {
        /// Echo of the request's epoch.
        epoch: u64,
    },
    /// Operator/control plane → orderer: change the cluster's shard
    /// count. The orderer seals a topology-change marker block at the
    /// next sealable height; replicas apply it as an epoch boundary
    /// (drain, state handover, router swap). Ignored on flat clusters
    /// and when `new_shards` is out of range — flat replicas cannot
    /// apply a marker.
    Reshard {
        /// Requested shard count.
        new_shards: u32,
    },
    /// Orderer → client bank: a retryable admission reject (cause in
    /// [`crate::mempool::AdmitError::cause_label`] terms). Carries the
    /// contract so the client can resubmit after backoff with its
    /// original submission timestamp.
    Reject {
        /// Rejected client session.
        client: u64,
        /// Rejected nonce.
        nonce: u64,
        /// Original submission timestamp.
        submitted_ns: u64,
        /// The contract, returned for resubmission.
        contract: Arc<dyn Contract>,
    },
}

const TIMER_CLIENT: u64 = 1;
const TIMER_BATCH: u64 = 2;
/// Timer id that crashes a replica when fired (fault schedules seed it;
/// a real-transport control plane injects it for operator-driven crash).
pub const TIMER_CRASH: u64 = 3;
/// Timer id that recovers a crashed replica: local checkpoint recovery,
/// then state-sync catch-up from a peer.
pub const TIMER_RECOVER: u64 = 4;
/// Periodic metrics-timeline snapshot (fires on the orderer, which owns
/// the shared registry).
const TIMER_METRICS: u64 = 5;
/// Per-replica liveness watchdog (armed on fault runs only).
const TIMER_WATCHDOG: u64 = 6;
/// Root-poison injection point ([`crate::FaultEvent::PoisonRoot`]).
const TIMER_POISON: u64 = 7;
/// Client-bank resubmission wakeup.
const TIMER_RETRY: u64 = 8;
/// State-sync request timeout; the sync epoch is added so a late timer
/// from a superseded attempt can be told apart from the live one.
const TIMER_SYNC_BASE: u64 = 1 << 32;

/// Per-admission CPU cost at the orderer (signature + nonce check).
const ADMIT_NS: u64 = 1_000;
/// CPU cost of serving one block in a sync response.
const SYNC_SERVE_NS_PER_BLOCK: u64 = 10_000;
/// CPU cost of replaying one block during catch-up.
const SYNC_REPLAY_NS_PER_BLOCK: u64 = 300_000;
/// CPU cost of local checkpoint recovery.
const RECOVERY_NS: u64 = 1_000_000;

// ── Client bank ─────────────────────────────────────────────────────────

/// The open-loop client bank: Poisson arrivals over N sessions with
/// per-session nonces, plus reject-resubmission with backoff. Public so
/// [`ClusterNode`] can be public; internals stay private (a real-network
/// cluster replaces this node with an external driver submitting
/// [`Msg::Submit`] frames).
pub struct ClientBank {
    stream: OpenLoopClients,
    generator: Box<dyn Workload>,
    rng: harmony_common::DetRng,
    pending: Option<harmony_workloads::Arrival>,
    load_ns: u64,
    orderer: usize,
    submitted: u64,
    /// Resubmission policy (`None` = rejects are final).
    retry: Option<RetryPolicy>,
    retry_seed: u64,
    /// Attempts already burned per (client, nonce) session slot.
    attempts: HashMap<(u64, u64), u32>,
    /// Resubmissions waiting out their backoff, keyed by due time.
    retry_heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    retry_pending: HashMap<(u64, u64), (u64, Arc<dyn Contract>)>,
    retries: Counter,
    retry_drops: Counter,
}

impl ClientBank {
    fn fire(&mut self, ctx: &mut dyn Transport<Msg>) {
        let Some(arrival) = self.pending.take() else {
            return;
        };
        let contract = self.generator.next_txn(&mut self.rng);
        let bytes = encode_contract(contract.as_ref()).len() as u64 + 24;
        ctx.charge_cpu(500);
        ctx.send(
            self.orderer,
            Msg::Submit {
                client: arrival.client,
                nonce: arrival.nonce,
                submitted_ns: ctx.now(),
                contract,
            },
            bytes,
        );
        self.submitted += 1;
        let next = self.stream.next_arrival();
        if next.at_ns <= self.load_ns {
            ctx.set_timer(next.at_ns.saturating_sub(ctx.now()), TIMER_CLIENT);
            self.pending = Some(next);
        }
    }

    /// A retryable admission reject bounced back: schedule a
    /// resubmission after exponential backoff (deterministic jitter, the
    /// original submission timestamp preserved so latency accounting
    /// keeps charging the queueing delay), or drop the transaction once
    /// its retry budget is spent.
    fn on_reject(
        &mut self,
        client: u64,
        nonce: u64,
        submitted_ns: u64,
        contract: Arc<dyn Contract>,
        ctx: &mut dyn Transport<Msg>,
    ) {
        let Some(policy) = self.retry else {
            return;
        };
        let attempt = self.attempts.entry((client, nonce)).or_insert(0);
        *attempt += 1;
        if *attempt > policy.max_retries {
            self.attempts.remove(&(client, nonce));
            self.retry_drops.inc();
            return;
        }
        let salt = client.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ nonce;
        let wait = policy.backoff_ns(*attempt - 1, self.retry_seed, salt);
        self.retry_heap
            .push(Reverse((ctx.now() + wait, client, nonce)));
        self.retry_pending
            .insert((client, nonce), (submitted_ns, contract));
        ctx.set_timer(wait, TIMER_RETRY);
    }

    /// Resubmit every transaction whose backoff has elapsed.
    fn fire_retries(&mut self, ctx: &mut dyn Transport<Msg>) {
        while let Some(&Reverse((due, client, nonce))) = self.retry_heap.peek() {
            if due > ctx.now() {
                break;
            }
            self.retry_heap.pop();
            let Some((submitted_ns, contract)) = self.retry_pending.remove(&(client, nonce)) else {
                continue;
            };
            let bytes = encode_contract(contract.as_ref()).len() as u64 + 24;
            ctx.charge_cpu(500);
            ctx.send(
                self.orderer,
                Msg::Submit {
                    client,
                    nonce,
                    submitted_ns,
                    contract,
                },
                bytes,
            );
            self.retries.inc();
        }
    }
}

// ── Ordering service ────────────────────────────────────────────────────

struct InFlight {
    block: Arc<ChainBlock>,
    /// Wire size of the sealed block (computed once at seal time).
    bytes: u64,
    born_ns: u64,
    mean_submit_ns: u64,
    acks: usize,
    round: u8,
}

/// The observability plane of one run: the shared metric registry every
/// node's handles point into, plus the virtual-time snapshot timeline.
/// Owned by the orderer (the one node guaranteed alive for the whole
/// run), ticked by [`TIMER_METRICS`].
struct MetricsHub {
    registry: Arc<Registry>,
    timeline: Timeline,
    every_ns: u64,
    /// Last virtual instant a snapshot may be scheduled at (run end).
    deadline_ns: u64,
}

impl MetricsHub {
    fn tick(&mut self, ctx: &mut dyn Transport<Msg>) {
        self.timeline.record(ctx.now(), &self.registry);
        if ctx.now() + self.every_ns <= self.deadline_ns {
            ctx.set_timer(self.every_ns, TIMER_METRICS);
        }
    }
}

/// The ordering service node: mempool admission, deterministic batching,
/// sealing, replication/voting, delivery. Public so a real-transport
/// runtime can host one as an OS process; its internals stay private.
pub struct Orderer {
    mempool: Mempool,
    hub: MetricsHub,
    keypair: KeyPair,
    crypto: CryptoCost,
    next_id: u64,
    prev_hash: Digest,
    in_flight: HashMap<u64, InFlight>,
    mode: OrderingMode,
    followers: Vec<usize>,
    replicas: Vec<usize>,
    block_txns: usize,
    window: usize,
    batch_interval_ns: u64,
    /// Seal full blocks immediately on admission (see
    /// [`ClusterConfig::eager_seal`]).
    eager_seal: bool,
    tx_ns_per_byte: u64,
    timer_armed: bool,
    last_seal_ns: u64,
    sealed_blocks: u64,
    /// Bounce retryable admission rejects back to the client bank.
    client_retry: bool,
    /// Pending topology changes as `(height, new_shards)`, ascending by
    /// height; the front entry seals as a marker block the moment the
    /// stream reaches (or has passed) its height.
    reshard_queue: Vec<(u64, u32)>,
    /// Topology-change epochs sealed so far (stamped into each marker).
    reshard_epoch: u64,
    /// Shard-count ceiling for operator-driven reshards: the logical
    /// partition count on sharded clusters, 0 on flat ones (where any
    /// reshard request is refused).
    reshard_max: u32,
}

impl Orderer {
    fn quorum(&self) -> usize {
        match self.mode {
            // Leader's own log append counts; majority of brokers.
            OrderingMode::Kafka { brokers } => brokers / 2 + 1,
            // 2/3 of the replica voters (rounded up), leader implicit.
            OrderingMode::HotStuff => (self.replicas.len() * 2).div_ceil(3).max(1),
        }
    }

    fn launch_batches(&mut self, ctx: &mut dyn Transport<Msg>) {
        loop {
            if self.in_flight.len() >= self.window {
                break;
            }
            // A scheduled topology change owns its block id: seal the
            // marker the moment the stream reaches it, ahead of any
            // workload batch.
            if self.seal_due_reshard(ctx) {
                continue;
            }
            if self.mempool.is_empty() {
                break;
            }
            // Batching discipline: seal a full block, or a partial one
            // only after a full batch interval has passed since the last
            // seal — otherwise a fast ack loop would seal slivers.
            let full = self.mempool.len() >= self.block_txns;
            let ripe = ctx.now().saturating_sub(self.last_seal_ns) >= self.batch_interval_ns;
            if !full && !ripe {
                break;
            }
            let batch = self.mempool.next_batch(self.block_txns);
            let mean_submit_ns =
                batch.iter().map(|t| t.submitted_ns).sum::<u64>() / batch.len() as u64;
            let encoded: Vec<Vec<u8>> = batch
                .iter()
                .map(|t| encode_contract(t.contract.as_ref()))
                .collect();
            self.seal_block(encoded, mean_submit_ns, ctx);
        }
        if !self.mempool.is_empty() && !self.timer_armed {
            ctx.set_timer(self.batch_interval_ns, TIMER_BATCH);
            self.timer_armed = true;
        }
    }

    /// Seal one block over the given payloads and push it into the
    /// replication/voting pipeline — the single seal path shared by
    /// workload batches and topology-change markers, so markers flow
    /// through the identical in-flight/commit machinery on the
    /// simulator and a real transport.
    fn seal_block(
        &mut self,
        encoded: Vec<Vec<u8>>,
        mean_submit_ns: u64,
        ctx: &mut dyn Transport<Msg>,
    ) {
        self.last_seal_ns = ctx.now();
        let sealed = Arc::new(ChainBlock::seal(
            BlockId(self.next_id),
            self.prev_hash,
            encoded,
            &self.keypair,
        ));
        ctx.charge_cpu(self.crypto.hash_ns + self.crypto.sign_ns);
        self.next_id += 1;
        self.prev_hash = sealed.header.hash();
        self.sealed_blocks += 1;
        let seq = sealed.header.id.0;
        let bytes = sealed.encode().len() as u64;
        self.in_flight.insert(
            seq,
            InFlight {
                block: sealed,
                bytes,
                born_ns: ctx.now(),
                mean_submit_ns,
                acks: 1,
                round: 0,
            },
        );
        match self.mode {
            OrderingMode::Kafka { .. } => {
                if self.followers.is_empty() {
                    self.commit(seq, ctx);
                } else {
                    for &f in &self.followers.clone() {
                        ctx.charge_cpu(bytes * self.tx_ns_per_byte);
                        ctx.send(f, Msg::Replicate { seq }, bytes);
                    }
                }
            }
            OrderingMode::HotStuff => {
                ctx.charge_cpu(self.crypto.sign_ns);
                for &r in &self.replicas.clone() {
                    ctx.charge_cpu(bytes * self.tx_ns_per_byte);
                    ctx.send(r, Msg::Prepare { seq, round: 0 }, bytes);
                }
            }
        }
    }

    /// Seal the front of the reshard queue as a marker block if the
    /// stream has reached its height. Returns whether a marker sealed.
    fn seal_due_reshard(&mut self, ctx: &mut dyn Transport<Msg>) -> bool {
        match self.reshard_queue.first() {
            Some(&(height, _)) if height <= self.next_id => {}
            _ => return false,
        }
        let (_, new_shards) = self.reshard_queue.remove(0);
        self.reshard_epoch += 1;
        let marker = ReshardMarker {
            new_shards,
            epoch: self.reshard_epoch,
        };
        // A marker carries no client transactions: its "mean submit
        // time" is its seal time, and it commits zero txns, so latency
        // accounting never sees it.
        self.seal_block(vec![marker.encode()], ctx.now(), ctx);
        true
    }

    /// Operator-driven topology change ([`Msg::Reshard`]): queue a
    /// marker at the next sealable height after anything already
    /// scheduled, then try to seal immediately. Refused (silently
    /// dropped) on flat clusters and for out-of-range shard counts.
    fn schedule_reshard(&mut self, new_shards: u32, ctx: &mut dyn Transport<Msg>) {
        if new_shards == 0 || new_shards > self.reshard_max {
            return;
        }
        let after = self.reshard_queue.last().map_or(0, |&(h, _)| h);
        let height = self.next_id.max(after + 1);
        self.reshard_queue.push((height, new_shards));
        self.launch_batches(ctx);
    }

    fn on_quorum(&mut self, seq: u64, ctx: &mut dyn Transport<Msg>) {
        match self.mode {
            OrderingMode::Kafka { .. } => self.commit(seq, ctx),
            OrderingMode::HotStuff => {
                let Some(entry) = self.in_flight.get_mut(&seq) else {
                    return;
                };
                if entry.round < 2 {
                    entry.round += 1;
                    entry.acks = 0;
                    let round = entry.round;
                    ctx.charge_cpu(self.crypto.sign_ns);
                    for &r in &self.replicas.clone() {
                        ctx.send(r, Msg::Prepare { seq, round }, 256);
                    }
                } else {
                    self.commit(seq, ctx);
                }
            }
        }
    }

    fn commit(&mut self, seq: u64, ctx: &mut dyn Transport<Msg>) {
        let Some(entry) = self.in_flight.remove(&seq) else {
            return;
        };
        let bytes = entry.bytes;
        for &r in &self.replicas {
            ctx.charge_cpu(bytes * self.tx_ns_per_byte);
            ctx.send(
                r,
                Msg::Deliver {
                    block: Arc::clone(&entry.block),
                    born_ns: entry.born_ns,
                    mean_submit_ns: entry.mean_submit_ns,
                },
                bytes,
            );
        }
        // A freed window slot can immediately seal the next batch.
        self.launch_batches(ctx);
    }
}

// ── Replica wrapper ─────────────────────────────────────────────────────

#[derive(Clone, Copy, PartialEq, Eq)]
enum ReplicaState {
    Up,
    Down,
    Syncing,
}

/// Cluster-level per-replica metric handles: commit/order latency
/// histograms (virtual ns) and state-sync path counters. Registered per
/// replica in [`Cluster::run`]; the underlying cells live in the shared
/// registry, so the timeline and exposition see them automatically.
struct WrapMetrics {
    /// End-to-end latency (client submit → apply), weighted by committed
    /// txns per block.
    commit_latency_ns: Histogram,
    /// Ordering latency (block seal → apply), same weighting.
    order_latency_ns: Histogram,
    /// Sync parts served via checkpoint manifest vs block-range replay:
    /// `[manifest, range]`.
    sync_requests: [Counter; 2],
    /// Sync bytes received, split the same way: `[manifest, range]`.
    sync_bytes: [Counter; 2],
    /// Sync attempts that timed out or were refused and were retried
    /// (or failed over to another peer).
    sync_retries: Counter,
    /// Explicit serve refusals received while syncing.
    sync_refusals: Counter,
    /// Times this replica self-quarantined after a quorum of peers
    /// disputed its root.
    quarantine_enters: Counter,
    /// Quarantines resolved by a completed from-scratch re-sync.
    quarantine_exits: Counter,
    /// Node-local operations (delivery, sync serve/apply, recovery,
    /// wipe) that failed and were handled gracefully — dropped, refused,
    /// or healed via the sync path — where the pre-sweep harness would
    /// have panicked the whole process.
    node_errors: Counter,
}

impl WrapMetrics {
    fn register(registry: &Registry, replica: usize) -> WrapMetrics {
        let id = replica.to_string();
        let base = [("replica", id.as_str())];
        let by_path = |name: &str, help: &str, path: &str| {
            registry.counter_with(name, help, &[("replica", id.as_str()), ("path", path)])
        };
        WrapMetrics {
            commit_latency_ns: registry.histogram_with(
                "harmony_replica_commit_latency_ns",
                "End-to-end commit latency (client submit to apply), virtual ns.",
                &doubling_buckets(250_000, 15),
                &base,
            ),
            order_latency_ns: registry.histogram_with(
                "harmony_replica_order_latency_ns",
                "Ordering latency (block seal to apply), virtual ns.",
                &doubling_buckets(250_000, 15),
                &base,
            ),
            sync_requests: ["manifest", "range"].map(|p| {
                by_path(
                    "harmony_statesync_requests_total",
                    "State-sync parts applied, by transfer path.",
                    p,
                )
            }),
            sync_bytes: ["manifest", "range"].map(|p| {
                by_path(
                    "harmony_statesync_transfer_bytes_total",
                    "State-sync bytes received, by transfer path.",
                    p,
                )
            }),
            sync_retries: registry.counter_with(
                "harmony_statesync_retries_total",
                "Sync attempts retried after a timeout or refusal.",
                &base,
            ),
            sync_refusals: registry.counter_with(
                "harmony_statesync_refusals_total",
                "Explicit serve refusals received while syncing.",
                &base,
            ),
            quarantine_enters: registry.counter_with(
                "harmony_replica_quarantine_enters_total",
                "Self-quarantines after a root-divergence quorum.",
                &base,
            ),
            quarantine_exits: registry.counter_with(
                "harmony_replica_quarantine_exits_total",
                "Quarantines resolved by a completed re-sync.",
                &base,
            ),
            node_errors: registry.counter_with(
                "harmony_replica_node_errors_total",
                "Node-local operations that failed and were handled gracefully.",
                &base,
            ),
        }
    }
}

/// One replica node plus its cluster-side state machine: up/down/syncing,
/// sync retry/failover/quarantine bookkeeping, and latency measurement.
/// Public so a real-transport runtime can host one as an OS process;
/// internals stay private.
pub struct ReplicaWrap {
    node: ReplicaNode,
    state: ReplicaState,
    metrics: WrapMetrics,
    meta: HashMap<u64, (u64, u64)>,
    peers: Vec<usize>,
    sync_policy: SyncPolicy,
    window: usize,
    /// Whether a fault schedule is active: arms sync timeouts, the
    /// watchdog re-arm, and quarantine checks. Off on healthy runs so
    /// their event schedule is untouched.
    chaos: bool,
    /// Sync timeout/retry/backoff policy.
    retry: RetryPolicy,
    retry_seed: u64,
    /// Candidate peers to sync from (node ids), tried round-robin on
    /// timeout/refusal.
    sync_candidates: Vec<usize>,
    sync_pos: usize,
    /// Current sync attempt epoch: stale replies and timers carry an
    /// older epoch and are discarded.
    sync_epoch: u64,
    sync_attempt: u32,
    /// Windows during which this replica refuses to serve sync
    /// ([`crate::FaultEvent::SyncRefusal`]).
    refusals: Vec<(u64, u64)>,
    quarantine_quorum: u32,
    watchdog_ns: u64,
    /// Ignore gossip lag below this margin (one gossip period) so the
    /// watchdog doesn't chase roots that are merely in flight.
    frontier_slack: u64,
    in_quarantine: bool,
    quarantines: u64,
    // Measurement.
    committed_weighted_e2e_ns: f64,
    committed_weighted_order_ns: f64,
    committed_txns: u64,
    last_apply_ns: u64,
    recoveries: u64,
    sync_blocks: u64,
    sync_manifest_shards: u64,
    sync_range_shards: u64,
}

impl ReplicaWrap {
    fn on_applied(&mut self, applied: &[Applied], ctx: &mut dyn Transport<Msg>) {
        for a in applied {
            ctx.charge_cpu(a.cost_ns);
            self.last_apply_ns = self.last_apply_ns.max(ctx.now());
            if let Some((born, submit)) = self.meta.remove(&a.block.0) {
                let c = a.committed as f64;
                let e2e = ctx.now().saturating_sub(submit);
                let order = ctx.now().saturating_sub(born);
                self.committed_weighted_e2e_ns += c * e2e as f64;
                self.committed_weighted_order_ns += c * order as f64;
                self.metrics
                    .commit_latency_ns
                    .observe_n(e2e, a.committed as u64);
                self.metrics
                    .order_latency_ns
                    .observe_n(order, a.committed as u64);
            }
            self.committed_txns += a.committed as u64;
            if let Some(root) = a.gossip_root {
                ctx.charge_cpu(ROOT_FOLD_NS); // root computation
                for &p in &self.peers {
                    ctx.send(
                        p,
                        Msg::RootGossip {
                            height: a.block.0,
                            root,
                        },
                        40,
                    );
                }
            }
        }
    }

    /// Begin (or restart) a catch-up round: fresh attempt budget, next
    /// request to the current candidate.
    fn request_sync(&mut self, ctx: &mut dyn Transport<Msg>) {
        self.state = ReplicaState::Syncing;
        self.sync_attempt = 0;
        self.send_sync_request(ctx);
    }

    fn send_sync_request(&mut self, ctx: &mut dyn Transport<Msg>) {
        if self.sync_candidates.is_empty() {
            // Single-replica cluster: nobody to sync from.
            self.state = ReplicaState::Up;
            return;
        }
        self.sync_epoch += 1;
        let peer = self.sync_candidates[self.sync_pos % self.sync_candidates.len()];
        ctx.send(
            peer,
            Msg::SyncRequest {
                from: self.node.shard_heights(),
                epoch: self.sync_epoch,
            },
            64,
        );
        if self.chaos {
            // The timeout doubles as the backoff: attempt k waits the
            // k-th backoff step before declaring the peer unresponsive.
            let wait = self
                .retry
                .backoff_ns(self.sync_attempt, self.retry_seed, self.sync_epoch);
            ctx.set_timer(wait, TIMER_SYNC_BASE + self.sync_epoch);
        }
    }

    /// The current sync attempt failed (timeout or explicit refusal):
    /// fail over to the next candidate, or park back Up once the retry
    /// budget is spent (the watchdog re-arms catch-up later).
    fn sync_setback(&mut self, ctx: &mut dyn Transport<Msg>) {
        self.metrics.sync_retries.inc();
        self.sync_attempt += 1;
        if self.sync_attempt > self.retry.max_retries {
            self.state = ReplicaState::Up;
        } else {
            self.sync_pos += 1;
            self.send_sync_request(ctx);
        }
    }

    /// A quorum of peers disputes our root: wipe back to genesis and
    /// re-bootstrap from a peer's checkpoint manifest.
    fn enter_quarantine(&mut self, ctx: &mut dyn Transport<Msg>) {
        self.quarantines += 1;
        self.in_quarantine = true;
        self.metrics.quarantine_enters.inc();
        if self.node.wipe_for_resync().is_err() {
            // Wipe failure leaves the old state in place; the
            // from-scratch re-sync below still heals it forward.
            self.metrics.node_errors.inc();
        }
        self.request_sync(ctx);
    }

    /// Catch-up finished with no remaining gap.
    fn sync_complete(&mut self) {
        self.state = ReplicaState::Up;
        if self.in_quarantine {
            self.in_quarantine = false;
            self.metrics.quarantine_exits.inc();
        }
    }
}

// ── The node enum ───────────────────────────────────────────────────────

/// One node of the cluster, in any role. [`Cluster::run`] hosts the whole
/// vector on the deterministic simulator; a real-transport runtime hosts
/// exactly one per OS process — built by [`build_node`] with the same
/// configuration, running the identical [`SimNode`] handlers.
pub enum ClusterNode {
    /// The open-loop client bank (index 0; replaced by an external
    /// driver on a real-network cluster).
    Client(Box<ClientBank>),
    /// The ordering service (index 1).
    Orderer(Box<Orderer>),
    /// A Kafka follower broker (pure ack logic, no state).
    Follower,
    /// A replica.
    Replica(Box<ReplicaWrap>),
}

impl SimNode<Msg> for ClusterNode {
    fn on_message(&mut self, from: usize, msg: Msg, ctx: &mut dyn Transport<Msg>) {
        match self {
            ClusterNode::Client(c) => {
                if let Msg::Reject {
                    client,
                    nonce,
                    submitted_ns,
                    contract,
                } = msg
                {
                    c.on_reject(client, nonce, submitted_ns, contract, ctx);
                }
            }
            ClusterNode::Follower => {
                if let Msg::Replicate { seq } = msg {
                    // Append to the local broker log and ack.
                    ctx.charge_cpu(50_000);
                    ctx.send(from, Msg::Ack { seq }, 64);
                }
            }
            ClusterNode::Orderer(o) => match msg {
                Msg::Submit {
                    client,
                    nonce,
                    submitted_ns,
                    contract,
                } => {
                    ctx.charge_cpu(ADMIT_NS);
                    let bounce = o.client_retry.then(|| Arc::clone(&contract));
                    match o.mempool.submit(client, nonce, submitted_ns, contract) {
                        Err(e) if e.is_retryable() => {
                            if let Some(contract) = bounce {
                                ctx.send(
                                    from,
                                    Msg::Reject {
                                        client,
                                        nonce,
                                        submitted_ns,
                                        contract,
                                    },
                                    64,
                                );
                            }
                        }
                        _ => {}
                    }
                    if o.eager_seal && o.mempool.len() >= o.block_txns {
                        o.launch_batches(ctx);
                    }
                    if !o.timer_armed {
                        ctx.set_timer(o.batch_interval_ns, TIMER_BATCH);
                        o.timer_armed = true;
                    }
                }
                Msg::Ack { seq } => {
                    if let Some(entry) = o.in_flight.get_mut(&seq) {
                        entry.acks += 1;
                        if entry.acks == o.quorum() {
                            o.on_quorum(seq, ctx);
                        }
                    }
                }
                Msg::Vote { seq, round } => {
                    ctx.charge_cpu(o.crypto.verify_ns / 16);
                    if let Some(entry) = o.in_flight.get_mut(&seq) {
                        if entry.round == round {
                            entry.acks += 1;
                            if entry.acks == o.quorum() {
                                o.on_quorum(seq, ctx);
                            }
                        }
                    }
                }
                Msg::Reshard { new_shards } => {
                    o.schedule_reshard(new_shards, ctx);
                }
                _ => {}
            },
            ClusterNode::Replica(r) => match msg {
                Msg::Prepare { seq, round } if r.state != ReplicaState::Down => {
                    // Verify the proposal, sign a vote share.
                    ctx.charge_cpu(10_000);
                    ctx.send(from, Msg::Vote { seq, round }, 128);
                }
                Msg::Deliver {
                    block,
                    born_ns,
                    mean_submit_ns,
                } => {
                    if r.state == ReplicaState::Down {
                        return;
                    }
                    r.meta.insert(block.header.id.0, (born_ns, mean_submit_ns));
                    let applied = match r.node.deliver(block) {
                        Ok(applied) => applied,
                        Err(_) => {
                            // A block that fails to apply (malformed,
                            // hostile, or landing on diverged local
                            // state) must not take the replica process
                            // down: drop it and heal any gap via sync.
                            r.metrics.node_errors.inc();
                            if r.state == ReplicaState::Up {
                                r.request_sync(ctx);
                            }
                            return;
                        }
                    };
                    r.on_applied(&applied, ctx);
                    // A persistent gap (beyond ordinary jitter reordering)
                    // means deliveries were missed: self-heal via sync.
                    if r.state == ReplicaState::Up && r.node.pending_gap() > 2 * r.window {
                        r.request_sync(ctx);
                    }
                }
                Msg::RootGossip { height, root } if r.state != ReplicaState::Down => {
                    r.node.on_peer_root(height, root);
                    // Divergence is actionable, not just an alarm: once a
                    // quorum of peers disputes our root, wipe and re-sync.
                    if r.chaos
                        && r.state == ReplicaState::Up
                        && r.node.quarantine_signal(r.quarantine_quorum).is_some()
                    {
                        r.enter_quarantine(ctx);
                    }
                }
                Msg::SyncRequest {
                    from: origin,
                    epoch,
                } if r.state != ReplicaState::Down => {
                    // A syncing peer, or one inside a refusal-fault
                    // window, sheds serve work explicitly so the
                    // requester fails over without waiting out a timeout.
                    let refusing = r.state != ReplicaState::Up
                        || r.refusals
                            .iter()
                            .any(|&(a, b)| ctx.now() >= a && ctx.now() < b);
                    if refusing {
                        ctx.send(from, Msg::SyncRefused { epoch }, 32);
                        return;
                    }
                    let response = match serve_sharded_sync(&r.node, &origin, r.sync_policy) {
                        Ok(response) => response,
                        Err(_) => {
                            r.metrics.node_errors.inc();
                            ctx.send(from, Msg::SyncRefused { epoch }, 32);
                            return;
                        }
                    };
                    ctx.charge_cpu(SYNC_SERVE_NS_PER_BLOCK * response.block_count() as u64);
                    let bytes = response.transfer_bytes();
                    ctx.send(
                        from,
                        Msg::SyncReply {
                            response: Arc::new(response),
                            epoch,
                        },
                        bytes,
                    );
                }
                Msg::SyncRefused { epoch } if r.state == ReplicaState::Syncing => {
                    if epoch != r.sync_epoch {
                        return;
                    }
                    r.metrics.sync_refusals.inc();
                    r.sync_setback(ctx);
                }
                Msg::SyncReply { response, epoch } => {
                    // Stale replies (a slow peer answering an attempt we
                    // already failed over from) are discarded by epoch.
                    if r.state != ReplicaState::Syncing || epoch != r.sync_epoch {
                        return;
                    }
                    let applied = match apply_sharded_sync(&mut r.node, &response) {
                        Ok(applied) => applied,
                        Err(_) => {
                            // A corrupt or inapplicable reply is a failed
                            // attempt: fail over to the next candidate.
                            r.metrics.node_errors.inc();
                            r.sync_setback(ctx);
                            return;
                        }
                    };
                    r.sync_manifest_shards += applied.manifest_shards;
                    r.sync_range_shards += applied.range_shards;
                    r.metrics.sync_requests[0].add(applied.manifest_shards);
                    r.metrics.sync_requests[1].add(applied.range_shards);
                    r.metrics.sync_bytes[0].add(response.manifest_bytes());
                    r.metrics.sync_bytes[1].add(response.range_bytes());
                    ctx.charge_cpu(SYNC_REPLAY_NS_PER_BLOCK * applied.blocks);
                    r.sync_blocks += applied.blocks;
                    r.last_apply_ns = r.last_apply_ns.max(ctx.now());
                    if r.node.pending_gap() == 0 {
                        r.sync_complete();
                    } else {
                        // Still gapped (peer advanced meanwhile): go again.
                        r.request_sync(ctx);
                    }
                }
                _ => {}
            },
        }
    }

    fn on_timer(&mut self, id: u64, ctx: &mut dyn Transport<Msg>) {
        match (self, id) {
            (ClusterNode::Client(c), TIMER_CLIENT) => c.fire(ctx),
            (ClusterNode::Client(c), TIMER_RETRY) => c.fire_retries(ctx),
            (ClusterNode::Orderer(o), TIMER_BATCH) => {
                o.timer_armed = false;
                o.launch_batches(ctx);
            }
            (ClusterNode::Orderer(o), TIMER_METRICS) => o.hub.tick(ctx),
            (ClusterNode::Replica(r), TIMER_CRASH) => {
                r.node.crash();
                r.state = ReplicaState::Down;
            }
            (ClusterNode::Replica(r), TIMER_RECOVER) => {
                ctx.charge_cpu(RECOVERY_NS);
                if r.node.recover_local().is_err() {
                    // A corrupt checkpoint/log cannot block rejoin: wipe
                    // and let the from-scratch sync rebuild everything.
                    r.metrics.node_errors.inc();
                    if r.node.wipe_for_resync().is_err() {
                        r.metrics.node_errors.inc();
                    }
                }
                r.recoveries += 1;
                r.request_sync(ctx);
            }
            (ClusterNode::Replica(r), TIMER_POISON) if r.state == ReplicaState::Up => {
                r.node.poison_next_gossip();
            }
            (ClusterNode::Replica(r), TIMER_WATCHDOG) => {
                // Liveness backstop on fault runs: a replica that is
                // nominally Up but lost deliveries (partition, drops, a
                // sync round that exhausted its retries) re-arms
                // catch-up; a quorum-disputed root triggers quarantine.
                if r.state == ReplicaState::Up {
                    if r.node.quarantine_signal(r.quarantine_quorum).is_some() {
                        r.enter_quarantine(ctx);
                    } else if r.node.pending_gap() > 0
                        || r.node.peer_frontier() > r.node.height().0 + r.frontier_slack
                    {
                        r.request_sync(ctx);
                    }
                }
                ctx.set_timer(r.watchdog_ns, TIMER_WATCHDOG);
            }
            // Sync request timeout — only meaningful if we are still
            // waiting on exactly this epoch.
            (ClusterNode::Replica(r), id)
                if id >= TIMER_SYNC_BASE
                    && r.state == ReplicaState::Syncing
                    && id == TIMER_SYNC_BASE + r.sync_epoch =>
            {
                r.sync_setback(ctx);
            }
            _ => {}
        }
    }
}

// ── The harness ─────────────────────────────────────────────────────────

/// Summary of one replica at the end of a run.
#[derive(Clone, Debug)]
pub struct ReplicaSummary {
    /// Replica index (0-based).
    pub replica: usize,
    /// Final chain height.
    pub height: BlockId,
    /// Final root: full-state on flat replicas, the sharded Merkle fold
    /// (`sharded_state_root`) on sharded ones.
    pub root: Digest,
    /// Shard-count-invariant logical database digest (equals `root` on
    /// flat replicas) — what cross-topology equivalence tests compare.
    pub logical_root: Digest,
    /// Full-scan audit recomputation of `root` (oracle path). Always equal
    /// to `root` — gossiping a cached root never drifts from the state.
    pub oracle_root: Digest,
    /// Blocks in its verified delivery log.
    pub delivered: usize,
    /// Divergence alarms it raised.
    pub alarms: u64,
    /// Crash recoveries it performed.
    pub recoveries: u64,
    /// Times it self-quarantined after a quorum of peers disputed its
    /// root, wiping and re-syncing from scratch.
    pub quarantines: u64,
    /// Sync attempts it retried after a timeout or serve refusal.
    pub sync_retries: u64,
    /// Blocks it obtained via state-sync.
    pub sync_blocks: u64,
    /// Shards it re-bootstrapped via checkpoint-manifest install during
    /// state-sync (a flat replica is one shard).
    pub sync_manifest_shards: u64,
    /// Shards it caught up via block-range replay during state-sync
    /// (a flat replica is one shard).
    pub sync_range_shards: u64,
    /// State-sync bytes received via the checkpoint-manifest path.
    pub sync_manifest_bytes: u64,
    /// State-sync bytes received via the block-range-replay path.
    /// `sync_manifest_bytes + sync_range_bytes` is the exact total
    /// transfer — the two paths partition it.
    pub sync_range_bytes: u64,
    /// Per-table digests of the logical database — the table-granular
    /// decomposition of `logical_root`. Shard-count-invariant, so
    /// resharding equivalence tests compare these lists and a divergence
    /// names the table that drifted.
    pub table_heads: Vec<(String, Digest)>,
    /// Topology-change (reshard) markers this replica applied.
    pub reshards: u64,
    /// Shard chains the replica hosts at the end of the run (1 on flat
    /// replicas; the last reshard marker's count on elastic runs).
    pub hosted_shards: usize,
}

/// End-of-run report.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Node-runtime metrics measured at a never-crashed observer replica.
    pub metrics: RunMetrics,
    /// Mean ordering+execution latency (seal → apply), ms.
    pub order_latency_ms: f64,
    /// Per-replica summaries.
    pub replicas: Vec<ReplicaSummary>,
    /// All replicas ended at the same height with identical roots and
    /// pairwise-consistent delivery logs.
    pub consistent: bool,
    /// Total divergence alarms across replicas (0 on honest runs).
    pub divergence_alarms: u64,
    /// Mempool admission counters.
    pub mempool: MempoolStats,
    /// Transactions sealed per tenant (one slot per configured tenant;
    /// a single slot when tenancy is off).
    pub tenant_sealed: Vec<u64>,
    /// Blocks the orderer sealed.
    pub sealed_blocks: u64,
    /// Transactions the client bank submitted (first attempts only).
    pub submitted_txns: u64,
    /// Client-side resubmissions after retryable rejects.
    pub client_retries: u64,
    /// Transactions abandoned after exhausting their retry budget.
    pub client_retry_drops: u64,
    /// Total self-quarantines across replicas.
    pub quarantines: u64,
    /// Prometheus text exposition of the final registry state.
    pub exposition: String,
    /// Per-run JSON metrics timeline (`harmonybc-timeline/v1`), snapshots
    /// taken in virtual time — byte-identical across same-seed runs.
    pub timeline: String,
}

// ── Layout and node factory ─────────────────────────────────────────────

/// The deterministic node-index layout of a cluster deployment, shared
/// by the simulator harness and the real-transport runtime: index 0 is
/// the client bank, 1 the ordering service, then the Kafka follower
/// brokers (none under HotStuff), then the replicas.
#[derive(Clone, Copy, Debug)]
pub struct ClusterLayout {
    /// Kafka follower broker count (0 under HotStuff).
    pub followers: usize,
    /// Replica count.
    pub replicas: usize,
}

impl ClusterLayout {
    /// The layout implied by a configuration.
    #[must_use]
    pub fn of(cfg: &ClusterConfig) -> ClusterLayout {
        ClusterLayout {
            followers: match cfg.ordering {
                OrderingMode::Kafka { brokers } => brokers.saturating_sub(1),
                OrderingMode::HotStuff => 0,
            },
            replicas: cfg.replicas,
        }
    }

    /// Node index of the client bank.
    #[must_use]
    pub const fn client(self) -> usize {
        0
    }

    /// Node index of the ordering service.
    #[must_use]
    pub const fn orderer(self) -> usize {
        1
    }

    /// Node index of the first replica.
    #[must_use]
    pub const fn replica_base(self) -> usize {
        2 + self.followers
    }

    /// Node index of replica `r` (0-based among replicas).
    #[must_use]
    pub const fn replica(self, r: usize) -> usize {
        self.replica_base() + r
    }

    /// Total node count (client + orderer + followers + replicas).
    #[must_use]
    pub const fn total(self) -> usize {
        self.replica_base() + self.replicas
    }

    /// Role name of the node at `index`.
    #[must_use]
    pub fn role(self, index: usize) -> &'static str {
        if index == self.client() {
            "client"
        } else if index == self.orderer() {
            "orderer"
        } else if index < self.replica_base() {
            "follower"
        } else {
            "replica"
        }
    }
}

/// Human-readable system label (engine × replicas × shards × ordering)
/// used by reports and metric timelines.
fn system_label(cfg: &ClusterConfig) -> String {
    format!(
        "{}·node×{}{}{}",
        cfg.replica.engine.name(),
        cfg.replicas,
        match cfg.topology {
            Some(t) => format!("×{}shards", t.shards),
            None => String::new(),
        },
        match cfg.ordering {
            OrderingMode::Kafka { .. } => "·kafka",
            OrderingMode::HotStuff => "·hotstuff",
        }
    )
}

/// Build the cluster node living at `index` in the layout of `cfg`,
/// registering its metric handles in `registry`.
///
/// [`Cluster::run`] builds the whole vector through this (one shared
/// registry, simulator transport); each process of a real-transport
/// cluster calls it once with a per-process registry and drives the node
/// over sockets — the identical state machine either way. Construction
/// is deterministic: the same configuration and index produce the same
/// node on any host, which is what makes TCP-vs-simulator state-root
/// equivalence checkable at all.
pub fn build_node(
    cfg: &ClusterConfig,
    registry: &Arc<Registry>,
    index: usize,
) -> Result<ClusterNode> {
    let layout = ClusterLayout::of(cfg);
    let chaos = !cfg.faults.is_empty();
    if index == layout.client() {
        let mut stream = OpenLoopClients::new(cfg.open_loop, cfg.seed ^ 0xA11);
        let first = stream.next_arrival();
        let (retries_ctr, retry_drops_ctr) = if cfg.client_retry.is_some() {
            (
                registry.counter(
                    "harmony_client_retries_total",
                    "Client resubmissions after retryable admission rejects.",
                ),
                registry.counter(
                    "harmony_client_retry_drops_total",
                    "Transactions abandoned after exhausting the retry budget.",
                ),
            )
        } else {
            (Counter::detached(), Counter::detached())
        };
        return Ok(ClusterNode::Client(Box::new(ClientBank {
            stream,
            generator: cfg.workload.generator()?,
            rng: harmony_common::DetRng::new(cfg.seed ^ 0x7C5),
            pending: Some(first),
            load_ns: cfg.load_ns,
            orderer: layout.orderer(),
            submitted: 0,
            retry: cfg.client_retry,
            retry_seed: cfg.seed ^ 0xBACC_0FF5,
            attempts: HashMap::new(),
            retry_heap: BinaryHeap::new(),
            retry_pending: HashMap::new(),
            retries: retries_ctr,
            retry_drops: retry_drops_ctr,
        })));
    }
    if index == layout.orderer() {
        let chain_cfg = &cfg.replica.chain;
        let metrics_every_ns = cfg.metrics_every_ns.max(1);
        return Ok(ClusterNode::Orderer(Box::new(Orderer {
            mempool: Mempool::with_metrics(
                cfg.mempool,
                MempoolMetrics::register(registry, cfg.mempool.tenants),
            ),
            hub: MetricsHub {
                registry: Arc::clone(registry),
                timeline: Timeline::new(&system_label(cfg), cfg.seed, metrics_every_ns),
                every_ns: metrics_every_ns,
                deadline_ns: cfg.load_ns + cfg.drain_ns,
            },
            keypair: KeyPair::derive(&chain_cfg.provision, chain_cfg.orderer_id, chain_cfg.crypto),
            crypto: chain_cfg.crypto,
            next_id: 1,
            prev_hash: Digest::ZERO,
            in_flight: HashMap::new(),
            mode: cfg.ordering,
            followers: (0..layout.followers).map(|f| 2 + f).collect(),
            replicas: (0..cfg.replicas).map(|r| layout.replica(r)).collect(),
            block_txns: cfg.block_txns.max(1),
            window: cfg.window.max(1),
            batch_interval_ns: cfg.batch_interval_ns.max(1),
            eager_seal: cfg.eager_seal,
            tx_ns_per_byte: 1,
            timer_armed: false,
            last_seal_ns: 0,
            sealed_blocks: 0,
            client_retry: cfg.client_retry.is_some(),
            reshard_queue: cfg
                .reshards
                .events
                .iter()
                .map(|e| (e.height, e.new_shards))
                .collect(),
            reshard_epoch: 0,
            reshard_max: cfg.topology.map_or(0, |t| t.partitions),
        })));
    }
    if index < layout.replica_base() {
        return Ok(ClusterNode::Follower);
    }
    let r = index - layout.replica_base();
    if r >= cfg.replicas {
        return Err(Error::InvalidArgument(format!(
            "node index {index} out of range for a {}-node cluster",
            layout.total()
        )));
    }
    let layout_cfg = match cfg.topology {
        None => ShardedReplicaConfig::from(&cfg.replica),
        Some(topology) => ShardedReplicaConfig {
            chain: cfg.replica.chain.clone(),
            engine: cfg.replica.engine,
            workers: cfg.replica.workers,
            shards: topology.shards.max(1),
            partitions: topology.partitions,
            partitioning: cfg.workload.recommended_partitioning(),
            replicated_tables: cfg.workload.replicated_tables(),
            checkpoint_stagger: topology.checkpoint_stagger,
            latency: cfg.latency.clone(),
            gossip_every: cfg.replica.gossip_every,
        },
    };
    let mut node = ReplicaNode::new(&layout_cfg, |engine| cfg.workload.setup_node(engine))?;
    let replica_metrics = ReplicaMetrics::register(registry, r);
    // Flat deployments expose no per-shard or cross-shard families.
    let (per_shard, planner) = if cfg.topology.is_some() {
        let id = r.to_string();
        (
            (0..layout_cfg.shards)
                .map(|s| shard_txn_counters(registry, r, s))
                .collect(),
            PlannerMetrics::register(registry, &[("replica", id.as_str())]),
        )
    } else {
        (vec![TxnCounters::detached()], PlannerMetrics::detached())
    };
    node.set_metrics(replica_metrics, per_shard, planner);
    let peers: Vec<usize> = (0..cfg.replicas)
        .filter(|&p| p != r)
        .map(|p| layout.replica(p))
        .collect();
    // Sync candidates: the other replicas, as a ring starting at the
    // next index. Timeouts and refusals rotate through it, so a down or
    // overloaded peer just costs one failover hop.
    let sync_candidates: Vec<usize> = (1..cfg.replicas)
        .map(|d| layout.replica((r + d) % cfg.replicas))
        .collect();
    Ok(ClusterNode::Replica(Box::new(ReplicaWrap {
        node,
        state: ReplicaState::Up,
        metrics: WrapMetrics::register(registry, r),
        meta: HashMap::new(),
        peers,
        sync_policy: cfg.sync,
        window: cfg.window.max(1),
        chaos,
        retry: cfg.sync_retry,
        retry_seed: cfg.seed ^ 0x5E7B_ACC0 ^ (r as u64) << 40,
        sync_candidates,
        sync_pos: 0,
        sync_epoch: 0,
        sync_attempt: 0,
        refusals: cfg.faults.refusal_windows(r),
        quarantine_quorum: cfg.quarantine_quorum,
        watchdog_ns: cfg.watchdog_ns.max(1),
        frontier_slack: cfg.replica.gossip_every.max(1),
        in_quarantine: false,
        quarantines: 0,
        committed_weighted_e2e_ns: 0.0,
        committed_weighted_order_ns: 0.0,
        committed_txns: 0,
        last_apply_ns: 0,
        recoveries: 0,
        sync_blocks: 0,
        sync_manifest_shards: 0,
        sync_range_shards: 0,
    })))
}

// ── Operator-facing inspection ──────────────────────────────────────────

/// A point-in-time health/progress snapshot of one node, served over the
/// real-transport control plane (`harmonyctl status`). Counters that a
/// role doesn't have are zero (e.g. `mempool_len` on a replica).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeStatus {
    /// Role name: `client` / `orderer` / `follower` / `replica`.
    pub role: String,
    /// Replica availability: `up` / `down` / `syncing` (non-replica
    /// roles are always `up`).
    pub state: String,
    /// Chain height: highest sealed block on the orderer, highest
    /// applied block on a replica.
    pub height: u64,
    /// Replica report root (hex; sharded fold on multi-partition
    /// replicas).
    /// Empty on non-replica roles and on crashed replicas.
    pub root: String,
    /// Shard-count-invariant logical database digest (hex; empty where
    /// `root` is).
    pub logical_root: String,
    /// Transactions committed by this replica.
    pub committed_txns: u64,
    /// Blocks in the replica's verified delivery log.
    pub delivered: u64,
    /// Transactions queued in the orderer's mempool.
    pub mempool_len: u64,
    /// Blocks the orderer sealed.
    pub sealed_blocks: u64,
    /// Transactions the client bank submitted.
    pub submitted: u64,
    /// Crash recoveries this replica performed.
    pub recoveries: u64,
    /// Blocks this replica obtained via state-sync.
    pub sync_blocks: u64,
}

/// A sealed block described for the operator (`harmonyctl block`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockSummary {
    /// Block id (height).
    pub id: u64,
    /// Transactions in the block.
    pub txns: u64,
    /// Header hash (hex).
    pub hash: String,
    /// Previous block's header hash (hex).
    pub prev_hash: String,
}

impl ClusterNode {
    /// Role name of this node.
    #[must_use]
    pub fn role(&self) -> &'static str {
        match self {
            ClusterNode::Client(_) => "client",
            ClusterNode::Orderer(_) => "orderer",
            ClusterNode::Follower => "follower",
            ClusterNode::Replica(_) => "replica",
        }
    }

    /// A point-in-time status snapshot (the control plane serves this).
    #[must_use]
    pub fn status(&self) -> NodeStatus {
        let mut s = NodeStatus {
            role: self.role().to_string(),
            state: "up".to_string(),
            ..NodeStatus::default()
        };
        match self {
            ClusterNode::Client(c) => s.submitted = c.submitted,
            ClusterNode::Orderer(o) => {
                s.height = o.next_id.saturating_sub(1);
                s.mempool_len = o.mempool.len() as u64;
                s.sealed_blocks = o.sealed_blocks;
            }
            ClusterNode::Follower => {}
            ClusterNode::Replica(w) => {
                s.state = match w.state {
                    ReplicaState::Up => "up",
                    ReplicaState::Down => "down",
                    ReplicaState::Syncing => "syncing",
                }
                .to_string();
                s.height = w.node.height().0;
                s.committed_txns = w.committed_txns;
                s.delivered = w.node.delivery_log().len() as u64;
                s.recoveries = w.recoveries;
                s.sync_blocks = w.sync_blocks;
                if w.state != ReplicaState::Down {
                    if let Ok(root) = w.node.state_root() {
                        s.root = root.to_hex();
                    }
                    if let Ok(root) = w.node.logical_state_root() {
                        s.logical_root = root.to_hex();
                    }
                }
            }
        }
        s
    }

    /// Describe one sealed block held by this replica: chain of shard
    /// `shard` (0 on flat replicas), block id `seq`. `None` when
    /// this node hosts no such block — non-replica roles, a crashed
    /// replica, an out-of-range shard, or a height not (or no longer)
    /// in the chain.
    #[must_use]
    pub fn block_summary(&self, shard: usize, seq: u64) -> Option<BlockSummary> {
        let ClusterNode::Replica(w) = self else {
            return None;
        };
        if w.state == ReplicaState::Down {
            return None;
        }
        if shard >= w.node.shards() {
            return None;
        }
        let chain = w.node.shard_chain(shard);
        let block = chain
            .blocks_after(BlockId(seq.saturating_sub(1)))
            .ok()?
            .into_iter()
            .find(|b| b.header.id.0 == seq)?;
        Some(BlockSummary {
            id: seq,
            txns: block.txns.len() as u64,
            hash: block.header.hash().to_hex(),
            prev_hash: block.header.prev_hash.to_hex(),
        })
    }
}

// ── Deterministic submission replay ─────────────────────────────────────

/// One entry of the client bank's deterministic submission stream.
pub struct Submission {
    /// Submitting client session.
    pub client: u64,
    /// The session's nonce for this submission.
    pub nonce: u64,
    /// Arrival instant on the simulator's virtual clock.
    pub at_ns: u64,
    /// The generated contract.
    pub contract: Arc<dyn Contract>,
}

/// Replay the client bank's deterministic generation outside the
/// simulator: the first `n` submissions (arrival order, contracts drawn
/// exactly as [`ClientBank`] draws them). A real-transport driver
/// (`harmonyctl submit`) sends precisely this stream, which is what lets
/// a TCP run be compared root-for-root against a simulator run of the
/// same configuration.
pub fn submission_trace(cfg: &ClusterConfig, n: usize) -> Result<Vec<Submission>> {
    let mut stream = OpenLoopClients::new(cfg.open_loop, cfg.seed ^ 0xA11);
    let generator = cfg.workload.generator()?;
    let mut rng = harmony_common::DetRng::new(cfg.seed ^ 0x7C5);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let arrival = stream.next_arrival();
        let contract = generator.next_txn(&mut rng);
        out.push(Submission {
            client: arrival.client,
            nonce: arrival.nonce,
            at_ns: arrival.at_ns,
            contract,
        });
    }
    Ok(out)
}

/// The virtual instant of the `n`-th arrival of the configured open-loop
/// stream (1-based) — the `load_ns` that makes a simulator run submit
/// exactly `n` transactions. Arrival times are strictly increasing, so a
/// run with this `load_ns` fires arrivals 1..=n and no more.
#[must_use]
pub fn load_ns_for_txns(open_loop: OpenLoopConfig, seed: u64, n: usize) -> u64 {
    let mut stream = OpenLoopClients::new(open_loop, seed ^ 0xA11);
    let mut at = 0;
    for _ in 0..n {
        at = stream.next_arrival().at_ns;
    }
    at
}

// ── The harness ─────────────────────────────────────────────────────────

/// The runnable cluster.
pub struct Cluster {
    config: ClusterConfig,
}

impl Cluster {
    /// Build a cluster from its configuration.
    #[must_use]
    pub fn new(config: ClusterConfig) -> Cluster {
        Cluster { config }
    }

    /// Run the scenario to quiescence and report.
    pub fn run(&self) -> Result<ClusterReport> {
        let cfg = &self.config;
        cfg.validate()?;
        // Chaos machinery (watchdog, sync timeouts, net faults) is armed
        // only when faults are scheduled.
        let chaos = !cfg.faults.is_empty();
        let layout = ClusterLayout::of(cfg);
        let orderer_idx = layout.orderer();
        let replica_idx: Vec<usize> = (0..cfg.replicas).map(|r| layout.replica(r)).collect();
        // The observer (run metrics, liveness reference) is never
        // health-faulted; validate() guarantees one exists.
        let observer = cfg
            .faults
            .healthy_replica(cfg.replicas)
            .expect("validated schedule leaves an observer");
        let system = system_label(cfg);
        // One registry for the whole cluster; every node holds interned
        // handles into it, the orderer snapshots it on the metrics timer.
        let registry = Arc::new(Registry::new());
        let deadline_ns = cfg.load_ns + cfg.drain_ns;
        let metrics_every_ns = cfg.metrics_every_ns.max(1);

        // Every node comes from the same factory a real-transport
        // process uses — index order keeps registry interning (and so
        // the pinned timelines) identical to the pre-factory harness.
        let mut nodes: Vec<ClusterNode> = Vec::with_capacity(layout.total());
        for index in 0..layout.total() {
            nodes.push(build_node(cfg, &registry, index)?);
        }

        let mut el = EventLoop::new(nodes, cfg.latency.clone(), cfg.seed);
        let ClusterNode::Client(c) = el.node(0) else {
            unreachable!("node 0 is the client bank");
        };
        let first_at = c.pending.as_ref().map_or(0, |a| a.at_ns);
        el.seed_timer(0, first_at, TIMER_CLIENT);
        el.seed_timer(orderer_idx, metrics_every_ns, TIMER_METRICS);
        if chaos {
            // Lower the link-visible faults onto the net model, with
            // injection counters in the shared registry.
            let mut table = cfg.faults.net_faults(|r| replica_idx[r]);
            let kind = |k: &str| {
                registry.counter_with(
                    "harmony_net_faults_injected_total",
                    "Messages perturbed by the injected link faults.",
                    &[("kind", k)],
                )
            };
            table.set_counters(kind("dropped"), kind("duplicated"), kind("delayed"));
            el.set_faults(table);
            for (r, at_ns, recover_at_ns) in cfg.faults.crash_cycles() {
                el.seed_timer(replica_idx[r], at_ns, TIMER_CRASH);
                el.seed_timer(replica_idx[r], recover_at_ns, TIMER_RECOVER);
            }
            for (r, at_ns) in cfg.faults.poison_events() {
                el.seed_timer(replica_idx[r], at_ns, TIMER_POISON);
            }
            // Liveness watchdog on every replica, staggered so the herd
            // doesn't fire on one instant.
            for (r, &idx) in replica_idx.iter().enumerate() {
                let at = cfg.watchdog_ns.max(1) + (r as u64 + 1) * 1_000;
                el.seed_timer(idx, at, TIMER_WATCHDOG);
            }
        }
        el.run_until(deadline_ns);

        // Final timeline snapshot at the deadline (record dedupes if the
        // last timer already fired exactly there).
        {
            let ClusterNode::Orderer(o) = el.node_mut(orderer_idx) else {
                unreachable!("orderer index");
            };
            let registry = Arc::clone(&o.hub.registry);
            o.hub.timeline.record(deadline_ns, &registry);
        }

        // ── Collect ──
        let mut replicas = Vec::with_capacity(cfg.replicas);
        let mut divergence_alarms = 0;
        let mut quarantines = 0;
        for (r, &idx) in replica_idx.iter().enumerate() {
            let ClusterNode::Replica(w) = el.node(idx) else {
                unreachable!("replica index");
            };
            divergence_alarms += w.node.divergence_alarms();
            quarantines += w.quarantines;
            replicas.push(ReplicaSummary {
                replica: r,
                height: w.node.height(),
                root: w.node.state_root()?,
                logical_root: w.node.logical_state_root()?,
                oracle_root: w.node.sharded_root_oracle()?,
                delivered: w.node.delivery_log().len(),
                alarms: w.node.divergence_alarms(),
                recoveries: w.recoveries,
                quarantines: w.quarantines,
                sync_retries: w.metrics.sync_retries.get(),
                sync_blocks: w.sync_blocks,
                sync_manifest_shards: w.sync_manifest_shards,
                sync_range_shards: w.sync_range_shards,
                sync_manifest_bytes: w.metrics.sync_bytes[0].get(),
                sync_range_bytes: w.metrics.sync_bytes[1].get(),
                table_heads: w.node.logical_table_heads()?,
                reshards: w.node.epoch(),
                hosted_shards: w.node.shards(),
            });
        }
        let consistent = replicas
            .windows(2)
            .all(|p| p[0].height == p[1].height && p[0].root == p[1].root)
            && replica_idx.iter().enumerate().all(|(i, &a)| {
                replica_idx.iter().skip(i + 1).all(|&b| {
                    let (ClusterNode::Replica(wa), ClusterNode::Replica(wb)) =
                        (el.node(a), el.node(b))
                    else {
                        unreachable!("replica index");
                    };
                    wa.node.delivery_log().agrees_with(wb.node.delivery_log())
                })
            });

        let ClusterNode::Replica(obs) = el.node(replica_idx[observer]) else {
            unreachable!("observer index");
        };
        let stats = *obs.node.stats();
        let wall_ns = obs.last_apply_ns.max(1);
        let committed = obs.committed_txns;
        let latency_ms = if committed == 0 {
            0.0
        } else {
            obs.committed_weighted_e2e_ns / committed as f64 / 1e6
        };
        let order_latency_ms = if committed == 0 {
            0.0
        } else {
            obs.committed_weighted_order_ns / committed as f64 / 1e6
        };
        let mut io = IoSnapshot::default();
        for s in 0..obs.node.shards() {
            io.absorb(&obs.node.shard_chain(s).engine().io_snapshot());
        }
        let metrics = RunMetrics {
            system: Cow::Owned(system),
            throughput_tps: committed as f64 / (wall_ns as f64 / 1e9),
            latency_ms,
            abort_rate: stats.abort_rate(),
            cpu_utilization: (stats.sim_ns_total + stats.commit_ns_total) as f64
                / (cfg.replica.workers as f64 * wall_ns as f64),
            stats,
            disk_reads: io.disk_reads,
            disk_writes: io.disk_writes,
            buffer_hit_rate: {
                let total = io.pool.hits + io.pool.misses;
                if total == 0 {
                    0.0
                } else {
                    io.pool.hits as f64 / total as f64
                }
            },
            wall_ns,
        };

        let ClusterNode::Orderer(o) = el.node(orderer_idx) else {
            unreachable!("orderer index");
        };
        let ClusterNode::Client(c) = el.node(0) else {
            unreachable!("client index");
        };
        Ok(ClusterReport {
            metrics,
            order_latency_ms,
            replicas,
            consistent,
            divergence_alarms,
            mempool: o.mempool.stats(),
            tenant_sealed: o.mempool.tenant_sealed(),
            sealed_blocks: o.sealed_blocks,
            submitted_txns: c.submitted,
            client_retries: c.retries.get(),
            client_retry_drops: c.retry_drops.get(),
            quarantines,
            exposition: registry.render_prometheus(),
            timeline: o.hub.timeline.to_json(),
        })
    }
}
