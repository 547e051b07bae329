//! A replica: the execution half of the Order-Execute loop.
//!
//! A [`ReplicaNode`] consumes **sealed blocks** from an ordering service
//! and executes them on one [`OeChain`] per hosted shard (storage engine,
//! snapshot store, and any [`harmony_sim::EngineKind`] DCC engine), held
//! by one [`ShardGroup`].
//! Delivery is *ordered*: blocks arriving ahead of the next height are
//! buffered and applied once the gap closes, every applied block is
//! appended to a verified [`DeliveryLog`] (sequence + header hash), and
//! the replica records its state root every `gossip_every` blocks for
//! divergence detection against peers' gossiped roots.
//!
//! The layout (a [`ShardedReplicaConfig`]: shards × logical partitions)
//! picks how a block executes:
//!
//! * **One partition** — a flat replica, built from a [`ReplicaConfig`].
//!   No transaction can span partitions, so the single chain *is* the
//!   global chain: the delivered block is applied as-is by
//!   [`OeChain::apply_sealed_block`] on full-profile engines (Harmony
//!   with inter-block parallelism, Fabric with endorser lag), the gossip
//!   root is the chain's own [`OeChain::state_root`], the global anchor
//!   is the chain's last hash (so it survives a crash), and execution
//!   cost extends a pipeline-aware makespan ([`flat_block_cost`]) exactly
//!   like the experiment driver.
//! * **More than one partition** — the block is verified against the
//!   in-memory global anchor and executed by the shard group
//!   ([`ShardGroup::execute_block`]): planned across shards, then every
//!   shard seals and applies its own sub-block on sharded-profile engines
//!   (see [`crate::sharded`]). The gossip root is the Merkle fold of the
//!   per-shard roots, and the cost is [`planned_block_ns`], as in the
//!   experiment driver.
//!
//! Crash recovery, wipe, gossip, and the per-shard state-sync protocol
//! ([`crate::statesync`]) are the same code for every layout.

use std::collections::BTreeMap;
use std::sync::Arc;

use harmony_chain::sync::StateSnapshot;
use harmony_chain::{sharded_state_root, state_root, ChainBlock, ChainConfig, OeChain};
use harmony_common::{BlockId, Error, Result};
use harmony_consensus::net::DeliveryLog;
use harmony_core::BlockStats;
use harmony_crypto::{Digest, Verifier};
use harmony_metrics::Gauge;
use harmony_shard::{FragmentCodec, PlannerMetrics, ReshardMarker, ShardGroup, ShardRouter};
use harmony_sim::{flat_block_cost, planned_block_ns, BlockSchedule, EngineKind};
use harmony_storage::StorageEngine;
use harmony_txn::{ContractCodec, MultiCodec};

use crate::metrics::{ReplicaMetrics, TxnCounters, ROOT_FOLD_NS};
use crate::sharded::{
    build_router, open_shard_chain, reshard_shard_anchor, slice_manifest, ShardedReplicaConfig,
    RESHARD_HANDOVER_NS,
};

/// Flat replica configuration: the one-partition layout of a
/// [`ShardedReplicaConfig`] (see its `From` impl).
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// Chain parameters (storage profile, checkpoint period, crypto).
    pub chain: ChainConfig,
    /// Which DCC engine executes blocks.
    pub engine: EngineKind,
    /// Worker cores for block execution.
    pub workers: usize,
    /// Compute + gossip the state root every this many blocks.
    pub gossip_every: u64,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            chain: ChainConfig::in_memory(),
            engine: EngineKind::Harmony(harmony_core::HarmonyConfig::default()),
            workers: 4,
            gossip_every: 5,
        }
    }
}

/// One block applied by [`ReplicaNode::deliver`].
#[derive(Clone, Debug)]
pub struct Applied {
    /// The applied block.
    pub block: BlockId,
    /// Transactions committed in it.
    pub committed: usize,
    /// Virtual nanoseconds of execution this block added to the replica's
    /// pipeline (what the event loop charges as CPU time).
    pub cost_ns: u64,
    /// State root computed at this height (gossip heights only).
    pub gossip_root: Option<Digest>,
}

/// Gossiped-root bookkeeping: remembers this node's own roots per gossip height, holds peer roots
/// that arrive early, and counts disagreements.
///
/// Memory is bounded: advancing past a gossip height drops every peer
/// root buffered at or below it, the ahead-buffer holds at most
/// [`RootTracker::AHEAD_CAP`] future heights (farthest dropped first),
/// and own roots are kept for the trailing [`RootTracker::OWN_KEEP`]
/// gossip heights only. A long-running replica therefore holds O(1)
/// tracker state regardless of chain length or how far ahead peers rush.
#[derive(Default)]
pub(crate) struct RootTracker {
    own: BTreeMap<u64, Digest>,
    peers: BTreeMap<u64, Vec<Digest>>,
    /// Disagreeing comparisons per gossip height (pruned with `own`) —
    /// the evidence base for the self-quarantine quorum check.
    mismatched: BTreeMap<u64, u32>,
    /// Highest gossip height seen from any peer — evidence that the
    /// cluster is ahead of this node (drives the liveness watchdog).
    peer_frontier: u64,
    /// Highest height this node has gossiped at — anything at or below it
    /// has been compared (or missed for good) and is stale.
    passed: u64,
    alarms: u64,
    /// High-water mark of the own-root window (gauge, detached unless
    /// wired to a registry).
    own_hwm: Gauge,
    /// High-water mark of the buffered ahead-of-us peer heights.
    peer_hwm: Gauge,
}

impl RootTracker {
    /// Own roots retained, in trailing gossip heights.
    const OWN_KEEP: usize = 32;
    /// Future gossip heights buffered from peers.
    const AHEAD_CAP: usize = 64;

    /// Record this node's root at `height`, comparing against any peer
    /// roots that arrived before the node got there. Prunes everything
    /// the comparison point leaves behind.
    pub(crate) fn note_own(&mut self, height: u64, root: Digest) {
        if let Some(peers) = self.peers.remove(&height) {
            let disagreed = peers.iter().filter(|p| **p != root).count() as u64;
            if disagreed > 0 {
                self.alarms += disagreed;
                *self.mismatched.entry(height).or_insert(0) += disagreed as u32;
            }
        }
        // Buffered peer roots below the compared height can never be
        // compared anymore — drop them.
        self.peers = self.peers.split_off(&(height + 1));
        self.passed = self.passed.max(height);
        self.own.insert(height, root);
        while self.own.len() > Self::OWN_KEEP {
            let (h, _) = self.own.pop_first().expect("len checked");
            self.mismatched.remove(&h);
        }
        self.own_hwm.set_max(self.own.len() as i64);
    }

    /// Report buffer high-water marks through the given gauges.
    pub(crate) fn set_metrics(&mut self, own_hwm: Gauge, peer_hwm: Gauge) {
        self.own_hwm = own_hwm;
        self.peer_hwm = peer_hwm;
    }

    /// Record a peer's gossiped root at `height` — compared now if this
    /// node already has its own root there, parked until it does if it is
    /// ahead, dropped if the node has already gossiped past it.
    pub(crate) fn note_peer(&mut self, height: u64, root: Digest) {
        self.peer_frontier = self.peer_frontier.max(height);
        if let Some(own) = self.own.get(&height) {
            if *own != root {
                self.alarms += 1;
                *self.mismatched.entry(height).or_insert(0) += 1;
            }
            return;
        }
        if height <= self.passed {
            return; // stale: this node already gossiped past it
        }
        self.peers.entry(height).or_default().push(root);
        while self.peers.len() > Self::AHEAD_CAP {
            self.peers.pop_last(); // farthest-future height loses first
        }
        self.peer_hwm.set_max(self.peers.len() as i64);
    }

    /// Comparisons that disagreed so far.
    pub(crate) fn alarms(&self) -> u64 {
        self.alarms
    }

    /// Highest gossip height seen from any peer.
    pub(crate) fn peer_frontier(&self) -> u64 {
        self.peer_frontier
    }

    /// The lowest gossip height where at least `quorum` comparisons
    /// disagreed with this node's own root — the self-quarantine
    /// trigger: when a quorum of the cluster disputes our root, *we* are
    /// the diverged one.
    pub(crate) fn quarantine_signal(&self, quorum: u32) -> Option<u64> {
        self.mismatched
            .iter()
            .find(|(_, n)| **n >= quorum)
            .map(|(h, _)| *h)
    }

    /// Forget all comparison state ahead of a full re-sync: own roots,
    /// buffered peers, and mismatch evidence. Gossip at or below
    /// `passed` is stale afterwards. Cumulative `alarms` survive — they
    /// are the report's forensic record.
    pub(crate) fn reset_for_resync(&mut self, passed: u64) {
        self.own.clear();
        self.peers.clear();
        self.mismatched.clear();
        self.passed = self.passed.max(passed);
    }

    /// Buffered future gossip heights (bound checked by tests).
    #[cfg(test)]
    pub(crate) fn buffered_heights(&self) -> usize {
        self.peers.len()
    }

    /// Retained own gossip heights (bound checked by tests).
    #[cfg(test)]
    pub(crate) fn own_heights(&self) -> usize {
        self.own.len()
    }
}

/// A replica hosting one chain per shard behind one ordered global block
/// stream. A flat replica is the one-shard, one-partition layout.
pub struct ReplicaNode {
    config: ShardedReplicaConfig,
    group: ShardGroup,
    codec: Arc<dyn ContractCodec>,
    verifier: Verifier,
    height: BlockId,
    /// Topology epoch: 0 for the genesis layout, bumped by every applied
    /// reshard marker.
    epoch: u64,
    /// Hash of the latest applied global block — the value the next
    /// delivery's `prev_hash` must match. In-memory state: `None` after a
    /// crash or wipe until state-sync re-anchors the replica. Unused on a
    /// one-partition layout, whose chain carries the global hash itself
    /// (see [`ReplicaNode::global_hash`]).
    anchor: Option<Digest>,
    delivery_log: DeliveryLog,
    pending: BTreeMap<u64, Arc<ChainBlock>>,
    stats: BlockStats,
    roots: RootTracker,
    /// Fault-injection hook: corrupt the next gossiped (and self-tracked)
    /// root so the divergence/quarantine machinery fires without actually
    /// corrupting chain state.
    poison_next_gossip: bool,
    metrics: ReplicaMetrics,
    shard_metrics: Vec<TxnCounters>,
    /// One-partition layout: the schedule of the last block applied since
    /// the last crash or wipe — the pipeline predecessor of the next.
    prev_schedule: Option<BlockSchedule>,
}

impl ReplicaNode {
    /// Build a replica: open one chain per shard, run `setup` on every
    /// shard's engine to load genesis state (table ids come out identical
    /// because creation order is identical), prune each shard down to the
    /// rows it owns, and obtain the contract codec that decodes delivered
    /// payloads — composed with the fragment codec when a transaction can
    /// span partitions.
    ///
    /// `config` is a [`ShardedReplicaConfig`] or a flat [`ReplicaConfig`]
    /// (the one-partition layout).
    pub fn new(
        config: impl Into<ShardedReplicaConfig>,
        mut setup: impl FnMut(&Arc<StorageEngine>) -> Result<Arc<dyn ContractCodec>>,
    ) -> Result<ReplicaNode> {
        let config: ShardedReplicaConfig = config.into();
        assert!(config.shards > 0, "need at least one shard");
        let chains = (0..config.shards)
            .map(|s| open_shard_chain(&config, s))
            .collect::<Result<Vec<_>>>()?;
        let mut workload_codec = None;
        // The router needs the catalog `setup` creates (to resolve
        // replicated table names), so the group builds it after the first
        // shard's genesis load.
        let group = ShardGroup::genesis(
            chains,
            |engine| {
                workload_codec = Some(setup(engine)?);
                Ok(())
            },
            |catalog| build_router(&config, catalog),
            config.latency.clone(),
            config.workers,
        )?;
        let workload_codec = workload_codec.expect("at least one shard");
        let codec: Arc<dyn ContractCodec> = if config.one_partition() {
            workload_codec
        } else {
            Arc::new(MultiCodec::new(vec![
                Arc::new(FragmentCodec),
                workload_codec,
            ]))
        };
        Ok(ReplicaNode {
            verifier: Verifier::new(&config.chain.provision, config.chain.crypto),
            shard_metrics: (0..config.shards)
                .map(|_| TxnCounters::detached())
                .collect(),
            config,
            group,
            codec,
            height: BlockId(0),
            epoch: 0,
            anchor: Some(Digest::ZERO),
            delivery_log: DeliveryLog::default(),
            pending: BTreeMap::new(),
            stats: BlockStats::default(),
            roots: RootTracker::default(),
            poison_next_gossip: false,
            metrics: ReplicaMetrics::detached(),
            prev_schedule: None,
        })
    }

    /// Report into the given metric handles: replica-level counters and
    /// histograms, one committed/aborted counter pair per hosted shard
    /// (`per_shard`, in shard order), and the planner's classification
    /// metrics. The defaults are detached handles.
    pub fn set_metrics(
        &mut self,
        metrics: ReplicaMetrics,
        per_shard: Vec<TxnCounters>,
        planner: PlannerMetrics,
    ) {
        assert_eq!(per_shard.len(), self.shards(), "one counter pair per shard");
        self.roots
            .set_metrics(metrics.root_own_hwm.clone(), metrics.root_peer_hwm.clone());
        metrics.hosted_shards.set(self.shards() as i64);
        self.metrics = metrics;
        self.shard_metrics = per_shard;
        self.group.set_metrics(planner);
    }

    /// Number of shards hosted.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.group.shards()
    }

    /// The router placing transactions onto shards.
    #[must_use]
    pub fn router(&self) -> &ShardRouter {
        self.group.router()
    }

    /// Shard 0's chain — the whole chain on a one-partition layout.
    #[must_use]
    pub fn chain(&self) -> &OeChain {
        self.group.chain(0)
    }

    /// One shard's chain (inspection / sync serving).
    #[must_use]
    pub fn shard_chain(&self, shard: usize) -> &OeChain {
        self.group.chain(shard)
    }

    /// The decoding registry (workload contracts, plus fragments when a
    /// transaction can span partitions).
    #[must_use]
    pub fn codec(&self) -> &Arc<dyn ContractCodec> {
        &self.codec
    }

    /// Global height (every shard chain sits at this height, except
    /// mid-recovery).
    #[must_use]
    pub fn height(&self) -> BlockId {
        self.height
    }

    /// Per-shard heights — unequal only after a crash recovery that lost
    /// some shards' checkpoints (state-sync then evens them out).
    #[must_use]
    pub fn shard_heights(&self) -> Vec<BlockId> {
        self.group.chains().iter().map(OeChain::height).collect()
    }

    /// The verified global delivery log.
    #[must_use]
    pub fn delivery_log(&self) -> &DeliveryLog {
        &self.delivery_log
    }

    /// Aggregated execution counters.
    #[must_use]
    pub fn stats(&self) -> &BlockStats {
        &self.stats
    }

    /// Blocks buffered ahead of the next applicable height.
    #[must_use]
    pub fn pending_gap(&self) -> usize {
        self.pending.len()
    }

    /// Root-gossip comparisons that disagreed.
    #[must_use]
    pub fn divergence_alarms(&self) -> u64 {
        self.roots.alarms()
    }

    /// The root this replica gossips and reports: the chain's own state
    /// root on a one-partition layout, otherwise the Merkle fold of the
    /// per-shard roots ([`ShardGroup::state_roots`]) — what a sharded
    /// block header would carry.
    pub fn state_root(&self) -> Result<Digest> {
        let roots = self.group.state_roots()?;
        Ok(if self.config.one_partition() {
            roots.shard_roots[0]
        } else {
            roots.root
        })
    }

    /// [`Self::state_root`], under the name the sharded callers use.
    pub fn sharded_root(&self) -> Result<Digest> {
        self.state_root()
    }

    /// Audit-oracle counterpart of [`Self::state_root`]: rebuilds every
    /// shard's root from a full scan. Must always equal the cached root.
    pub fn sharded_root_oracle(&self) -> Result<Digest> {
        let shard_roots: Vec<Digest> = self
            .group
            .chains()
            .iter()
            .map(|c| state_root(c.engine()))
            .collect::<Result<_>>()?;
        Ok(if self.config.one_partition() {
            shard_roots[0]
        } else {
            sharded_state_root(&shard_roots)
        })
    }

    /// Shard-count-invariant digest of the logical database (the union of
    /// the disjoint shard partitions) — comparable across deployments with
    /// different M, and equal to [`Self::state_root`] on a one-partition
    /// layout.
    pub fn logical_state_root(&self) -> Result<Digest> {
        self.group.logical_state_root()
    }

    /// Per-table digests of the logical database — the table-granular
    /// decomposition of [`Self::logical_state_root`], equally
    /// shard-count-invariant. The resharding equivalence tests compare
    /// these so a divergence names the table that drifted.
    pub fn logical_table_heads(&self) -> Result<Vec<(String, Digest)>> {
        self.group.logical_table_heads()
    }

    /// Receive one globally ordered sealed block. Buffers it if it is
    /// ahead of the next height, then applies every consecutively
    /// available block. Returns the blocks applied by this call.
    pub fn deliver(&mut self, block: Arc<ChainBlock>) -> Result<Vec<Applied>> {
        let seq = block.header.id.0;
        if seq > self.height.0 {
            self.pending.entry(seq).or_insert(block);
        }
        self.drain_pending()
    }

    /// Apply every buffered block that now connects to the global tip.
    /// No-op while the global anchor is unknown (post-crash, pre-sync):
    /// linkage of a delivered block cannot be verified without it.
    pub fn drain_pending(&mut self) -> Result<Vec<Applied>> {
        let mut applied = Vec::new();
        let tip = self.height.0;
        self.pending.retain(|s, _| *s > tip);
        if self.global_hash().is_none() {
            return Ok(applied);
        }
        loop {
            let next = self.height.0 + 1;
            let Some(block) = self.pending.remove(&next) else {
                break;
            };
            applied.push(self.apply(&block)?);
        }
        Ok(applied)
    }

    fn apply(&mut self, block: &ChainBlock) -> Result<Applied> {
        let id = block.header.id;
        let hash = block.header.hash();
        let (committed, cost_ns) = if self.config.one_partition() {
            self.apply_whole(block)?
        } else {
            let prev = self.anchor.ok_or_else(|| {
                Error::InvalidArgument("cannot apply without a global anchor".into())
            })?;
            block.verify(&prev, &self.verifier)?;
            // A topology-change block carries a single reshard marker
            // instead of transactions; it must be recognized before
            // contract decoding (the marker is not a contract payload).
            match block.txns.as_slice() {
                [only] => match ReshardMarker::decode(only) {
                    Some(marker) => (0, self.apply_reshard(id, &hash, marker)?),
                    None => self.apply_planned(block)?,
                },
                _ => self.apply_planned(block)?,
            }
        };
        self.metrics.block_cost_ns.observe(cost_ns);
        self.height = id;
        self.anchor = Some(hash);
        self.delivery_log.observe(id.0, hash);

        let gossip_root = if id.0.is_multiple_of(self.config.gossip_every.max(1)) {
            let mut root = self.state_root()?;
            if self.poison_next_gossip {
                // Corrupt the *observed* root (gossip + own tracking), not
                // the chain: peers will dispute it, and so will this node's
                // own tracker once their true roots arrive.
                root.0[0] ^= 0xFF;
                self.poison_next_gossip = false;
            }
            self.roots.note_own(id.0, root);
            self.metrics.root_fold_ns.observe(ROOT_FOLD_NS);
            Some(root)
        } else {
            None
        };
        Ok(Applied {
            block: id,
            committed,
            cost_ns,
            gossip_root,
        })
    }

    /// One-partition arm: the delivered block is the chain's own next
    /// block (verified, logged, decoded and executed by the chain). Returns
    /// `(committed, cost_ns)`: the virtual-time charge is the step the
    /// block adds to the pipeline-aware makespan, exactly as the
    /// experiment driver schedules blocks (group-commit log sync included).
    fn apply_whole(&mut self, block: &ChainBlock) -> Result<(usize, u64)> {
        let chain = &mut self.group.chains_mut()[0];
        let result = chain.apply_sealed_block(block, self.codec.as_ref())?;
        self.stats.absorb(&result.stats);
        self.metrics.txns.observe(&result.stats);
        self.shard_metrics[0].observe(&result.stats);
        let (sched, cost_ns) = flat_block_cost(
            self.prev_schedule.as_ref(),
            &result,
            chain.dcc().as_ref(),
            self.config.workers,
            self.config.chain.storage.log_sync_ns,
        );
        self.prev_schedule = Some(sched);
        Ok((result.stats.committed, cost_ns))
    }

    /// Multi-partition arm: decode the global payloads and execute them
    /// through the shard group (plan, then seal + apply one sub-block per
    /// shard on its own chain). Returns `(committed, cost_ns)`.
    fn apply_planned(&mut self, block: &ChainBlock) -> Result<(usize, u64)> {
        let txns: Result<Vec<_>> = block.txns.iter().map(|b| self.codec.decode(b)).collect();
        let result = self.group.execute_block(txns?, self.codec.as_ref())?;
        for (counters, r) in self.shard_metrics.iter().zip(&result.shard_results) {
            counters.observe(&r.stats);
        }
        self.stats.absorb(&result.stats);
        self.metrics.txns.observe(&result.stats);
        let cost_ns = planned_block_ns(
            &result,
            self.config.workers,
            self.group.chain(0).dcc().commit_is_serial(),
            self.config.chain.storage.log_sync_ns,
        );
        Ok((result.stats.committed, cost_ns))
    }

    /// Apply a topology-change block: re-host the logical database on
    /// `marker.new_shards` shards, atomically, at this block's height.
    /// Returns the virtual-time charge of the handover.
    ///
    /// Because `apply` is strictly sequential in block order, every
    /// in-flight sub-block is already drained when the marker lands. The
    /// handover reuses the state-sync primitives end to end: each old
    /// shard exports its checkpoint manifest ([`OeChain::export_snapshot`]
    /// — the same manifest `serve_sharded_sync` ships), a split serves
    /// each new shard its partition slice of those manifests, a merge
    /// first re-verifies the folded sub-block logs (verified range
    /// replay, [`OeChain::verify_chain`]) and then folds their slices,
    /// and each new shard chain comes up via
    /// [`OeChain::install_snapshot`]. The router swap
    /// ([`ShardRouter::resharded`]) is the epoch boundary: partition→key
    /// classification is untouched, so every commit/abort decision stays
    /// shard-count-invariant and the logical state root is bit-identical
    /// to a fixed-count run.
    fn apply_reshard(&mut self, id: BlockId, hash: &Digest, marker: ReshardMarker) -> Result<u64> {
        let new_count = marker.new_shards as usize;
        self.check_shard_count(new_count)?;
        let old_count = self.shards();
        if new_count < old_count {
            // Merge direction: the surviving shards absorb foreign rows,
            // so the logs being folded are re-verified first (hash
            // linkage + deterministic replay of each sub-block log).
            for chain in self.group.chains() {
                chain.verify_chain()?;
            }
        }
        let exports = self
            .group
            .chains()
            .iter()
            .map(OeChain::export_snapshot)
            .collect::<Result<Vec<_>>>()?;
        let new_router = self.router().resharded(new_count);
        // Catalog order is identical on every shard (creation order is
        // identical), so table ids resolve against shard 0.
        let catalog = self.chain().engine().list_tables();

        let mut new_shards = Vec::with_capacity(new_count);
        for s in 0..new_count {
            let snapshot = slice_manifest(
                &exports,
                &catalog,
                &new_router,
                s,
                id,
                reshard_shard_anchor(hash, marker.epoch, marker.new_shards, s),
            );
            let mut chain = open_shard_chain(&self.config, s)?;
            chain.install_snapshot(&snapshot)?;
            new_shards.push(chain);
        }

        self.group.replace(new_router, new_shards);
        self.config.shards = new_count;
        self.epoch = marker.epoch;
        self.shard_metrics
            .resize_with(new_count, TxnCounters::detached);
        self.metrics.reshards.inc();
        self.metrics.hosted_shards.set(new_count as i64);

        // The handover is charged like a sync serve/install round over
        // every shard manifest that moved.
        Ok(RESHARD_HANDOVER_NS.saturating_mul((old_count + new_count) as u64))
    }

    /// A shard count is a layout only if every shard owns at least one
    /// logical partition.
    fn check_shard_count(&self, count: usize) -> Result<()> {
        if count == 0 || count > self.config.partitions as usize {
            return Err(Error::InvalidArgument(format!(
                "{count} shards is not a layout of {} logical partitions",
                self.config.partitions
            )));
        }
        Ok(())
    }

    /// Current topology epoch (0 until the first reshard marker applies).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Adopt a sync peer's topology epoch. A replica that crashed across
    /// one or more reshard boundaries never replays those markers (the
    /// manifest path skips them), so the sync reply carries the
    /// authoritative epoch. Monotonic: a stale reply from a peer we
    /// raced past can never rewind the local epoch.
    pub fn adopt_epoch(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
    }

    /// Adopt a serving peer's shard count ahead of applying its sync
    /// response — the requester sits on the far side of a reshard
    /// boundary (it crashed or partitioned across the epoch swap), so its
    /// local layout is obsolete. Like [`Self::wipe_for_resync`], but onto
    /// `new_count` fresh shard chains with a recounted router; the
    /// response's full manifests then rebuild every shard.
    pub fn reshape_for_sync(&mut self, new_count: usize) -> Result<()> {
        self.check_shard_count(new_count)?;
        self.config.shards = new_count;
        self.reopen(self.router().resharded(new_count))?;
        self.shard_metrics
            .resize_with(new_count, TxnCounters::detached);
        self.metrics.hosted_shards.set(new_count as i64);
        Ok(())
    }

    /// Receive a peer's gossiped state root. Compares against this
    /// replica's own root at that height (now, or when it gets there).
    pub fn on_peer_root(&mut self, height: u64, root: Digest) {
        self.roots.note_peer(height, root);
    }

    /// Highest gossip height seen from any peer — evidence the cluster
    /// is ahead of this node.
    #[must_use]
    pub fn peer_frontier(&self) -> u64 {
        self.roots.peer_frontier()
    }

    /// The lowest gossip height where at least `quorum` root comparisons
    /// disagreed with this replica's own root, if any — the signal that
    /// *this* replica has diverged and should quarantine + re-sync.
    #[must_use]
    pub fn quarantine_signal(&self, quorum: u32) -> Option<u64> {
        self.roots.quarantine_signal(quorum)
    }

    /// Fault-injection hook: flip a byte in the next gossiped (and
    /// self-tracked) root. Chain state stays intact, so this exercises
    /// divergence detection and quarantine recovery end to end.
    pub fn poison_next_gossip(&mut self) {
        self.poison_next_gossip = true;
    }

    /// Drop all local state ahead of a quarantine re-sync: reopen every
    /// shard chain fresh (height 0, empty tables), drop the global
    /// anchor, and clear comparison evidence. Buffered deliveries are
    /// kept — they drain once the peer's state lands. After this, a
    /// state-sync request advertises height 0 for every shard, so the
    /// serving peer answers with full manifests.
    pub fn wipe_for_resync(&mut self) -> Result<()> {
        self.reopen(self.router().clone())
    }

    /// Reopen one fresh shard chain per shard of `router` at height 0
    /// with no anchor.
    fn reopen(&mut self, router: ShardRouter) -> Result<()> {
        let passed = self.height.0;
        let chains = (0..router.shards())
            .map(|s| open_shard_chain(&self.config, s))
            .collect::<Result<Vec<_>>>()?;
        self.group.replace(router, chains);
        self.height = BlockId(0);
        self.anchor = None;
        self.prev_schedule = None;
        self.roots.reset_for_resync(passed);
        Ok(())
    }

    /// Crash: lose the delivery buffer and in-memory execution state,
    /// including the global anchor (the shards' durable state is
    /// recovered separately).
    pub fn crash(&mut self) {
        self.pending.clear();
        self.anchor = None;
        self.prev_schedule = None;
    }

    /// Local recovery: every shard chain reloads its last checkpoint and
    /// deterministically replays its own block log. A shard that never
    /// checkpointed honestly lands at height 0 with an empty catalog
    /// (ready for a manifest install); the others replay back to the
    /// height they had applied. The replica's global height drops to the
    /// laggiest shard; on a multi-partition layout the global anchor stays
    /// unknown until state-sync re-establishes it.
    pub fn recover_local(&mut self) -> Result<()> {
        for chain in self.group.chains_mut() {
            chain.crash_and_recover(self.codec.as_ref())?;
        }
        self.height = self
            .shard_heights()
            .into_iter()
            .min()
            .expect("at least one shard");
        self.anchor = None;
        Ok(())
    }

    /// Catch one shard up from a peer's verified block range
    /// (state-sync, per-shard phase 2). Returns the blocks applied.
    pub fn catch_up_shard_from_blocks(
        &mut self,
        shard: usize,
        blocks: &[ChainBlock],
    ) -> Result<usize> {
        let chain = &mut self.group.chains_mut()[shard];
        let applied = chain.replay_range(blocks, self.codec.as_ref())?;
        if self.config.one_partition() {
            // The single chain's blocks are the global blocks.
            for b in blocks.iter().filter(|b| b.header.id <= chain.height()) {
                self.delivery_log.observe(b.header.id.0, b.header.hash());
            }
        }
        Ok(applied)
    }

    /// Bootstrap one shard from a peer's checkpoint manifest, then replay
    /// the accompanying block tail (per-shard phases 1 + 2). Returns the
    /// shard's height gain. A shard holding any local state — chain
    /// history or pre-loaded genesis tables — is wiped first: when a peer
    /// answers with a manifest, the manifest is the complete truth for
    /// that shard's partition, and merging it over local rows would keep
    /// rows the peer has since deleted.
    pub fn bootstrap_shard_from_snapshot(
        &mut self,
        shard: usize,
        snapshot: &StateSnapshot,
        blocks: &[ChainBlock],
    ) -> Result<usize> {
        if snapshot.height > BlockId(0) && self.shard_chain(shard).height() >= snapshot.height {
            // Deliveries that drained while the response was in flight
            // already carried this shard past the manifest point: its
            // verified chain state is at least as new, so installing the
            // older manifest would move backwards.
            return Ok(0);
        }
        let before = self.shard_chain(shard).height().0;
        let fresh = before == 0 && self.shard_chain(shard).engine().list_tables().is_empty();
        let chains = self.group.chains_mut();
        if !fresh {
            chains[shard] = open_shard_chain(&self.config, shard)?;
            self.prev_schedule = None;
        }
        chains[shard].install_snapshot(snapshot)?;
        self.catch_up_shard_from_blocks(shard, blocks)?;
        Ok(self.shard_chain(shard).height().0.saturating_sub(before) as usize)
    }

    /// Finish a state-sync round: every shard must have landed on one
    /// common height, at least the peer's served height. At exactly the
    /// served height, the replica re-anchors on the peer's global block
    /// hash; past it, the replica kept applying anchored deliveries while
    /// the response was in flight and its own (newer) anchor stands.
    /// Buffered deliveries beyond the tip drain immediately.
    pub fn finish_sync(&mut self, height: BlockId, global_hash: Digest) -> Result<Vec<Applied>> {
        let landed = self.chain().height();
        for (s, chain) in self.group.chains().iter().enumerate() {
            if chain.height() != landed {
                return Err(Error::Corruption(format!(
                    "shard {s} ended sync at {} (shard 0 at {landed})",
                    chain.height()
                )));
            }
        }
        if landed < height {
            return Err(Error::Corruption(format!(
                "sync landed at {landed}, short of the served height {height}"
            )));
        }
        if landed == height {
            self.anchor = Some(global_hash);
        } else if self.global_hash().is_none() {
            return Err(Error::Corruption(format!(
                "shards at {landed} past the served height {height} with no anchor"
            )));
        }
        self.height = landed;
        self.drain_pending()
    }

    /// The global block hash this replica is anchored at, if known —
    /// served to syncing peers so they can re-anchor. On a one-partition
    /// layout it is the chain's own last hash, so it survives a crash.
    #[must_use]
    pub fn global_hash(&self) -> Option<Digest> {
        if self.config.one_partition() {
            Some(self.chain().last_hash())
        } else {
            self.anchor
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_workloads::{Smallbank, SmallbankCodec, SmallbankConfig, Workload};

    use crate::statesync::{apply_sharded_sync, ShardedSyncResponse, SyncResponse};

    fn replica_config(engine: EngineKind) -> ReplicaConfig {
        ReplicaConfig {
            chain: ChainConfig {
                checkpoint_every: 4,
                ..ChainConfig::in_memory()
            },
            engine,
            workers: 2,
            gossip_every: 2,
        }
    }

    fn smallbank_setup(eng: &Arc<StorageEngine>) -> Result<Arc<dyn ContractCodec>> {
        let mut w = Smallbank::new(SmallbankConfig {
            accounts: 100,
            theta: 0.5,
            ..SmallbankConfig::default()
        });
        w.setup(eng)?;
        let (checking, savings) = w.tables();
        Ok(Arc::new(SmallbankCodec { checking, savings }))
    }

    fn smallbank_replica(engine: EngineKind) -> ReplicaNode {
        ReplicaNode::new(&replica_config(engine), smallbank_setup).unwrap()
    }

    fn sealed_stream(n: usize) -> (Vec<Arc<ChainBlock>>, Digest) {
        // A reference replica produces the sealed blocks an orderer would.
        let mut sealer = smallbank_replica(EngineKind::Rbc);
        let mut w = Smallbank::new(SmallbankConfig {
            accounts: 100,
            theta: 0.5,
            ..SmallbankConfig::default()
        });
        let scratch = StorageEngine::open(&harmony_storage::StorageConfig::memory()).unwrap();
        w.setup(&scratch).unwrap();
        let mut rng = harmony_common::DetRng::new(11);
        let mut blocks = Vec::new();
        for _ in 0..n {
            let txns = w.next_block(&mut rng, 8);
            let sealed = Arc::new(sealer.chain().seal_block(&txns, sealer.codec().as_ref()));
            assert_eq!(sealer.deliver(Arc::clone(&sealed)).unwrap().len(), 1);
            blocks.push(sealed);
        }
        (blocks, sealer.state_root().unwrap())
    }

    #[test]
    fn out_of_order_delivery_is_buffered_and_applied_in_order() {
        let (blocks, reference_root) = sealed_stream(5);
        let mut r = smallbank_replica(EngineKind::Rbc);
        // Deliver 2, 3 first: buffered, nothing applies.
        assert!(r.deliver(Arc::clone(&blocks[1])).unwrap().is_empty());
        assert!(r.deliver(Arc::clone(&blocks[2])).unwrap().is_empty());
        assert_eq!(r.pending_gap(), 2);
        // Block 1 closes the gap: all three apply, in order.
        let applied = r.deliver(Arc::clone(&blocks[0])).unwrap();
        assert_eq!(
            applied.iter().map(|a| a.block.0).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        for b in &blocks[3..] {
            r.deliver(Arc::clone(b)).unwrap();
        }
        assert_eq!(r.height(), BlockId(5));
        assert_eq!(r.state_root().unwrap(), reference_root);
        assert!(r.delivery_log().is_gap_free());
        assert_eq!(r.delivery_log().len(), 5);
    }

    #[test]
    fn duplicate_delivery_is_idempotent() {
        let (blocks, _) = sealed_stream(3);
        let mut r = smallbank_replica(EngineKind::Rbc);
        r.deliver(Arc::clone(&blocks[0])).unwrap();
        assert!(r.deliver(Arc::clone(&blocks[0])).unwrap().is_empty());
        assert_eq!(r.height(), BlockId(1));
        assert_eq!(r.delivery_log().mismatches(), 0);
    }

    #[test]
    fn gossip_roots_and_divergence_detection() {
        let (blocks, _) = sealed_stream(4);
        let mut r = smallbank_replica(EngineKind::Rbc);
        let mut gossiped = Vec::new();
        for b in &blocks {
            for a in r.deliver(Arc::clone(b)).unwrap() {
                if let Some(root) = a.gossip_root {
                    gossiped.push((a.block.0, root));
                }
            }
        }
        assert_eq!(
            gossiped.iter().map(|g| g.0).collect::<Vec<_>>(),
            [2, 4],
            "gossip_every=2"
        );
        // Agreeing peer roots raise no alarm; a diverging one does — in
        // both arrival orders (before and after the local root exists).
        r.on_peer_root(2, gossiped[0].1);
        assert_eq!(r.divergence_alarms(), 0);
        r.on_peer_root(4, Digest([0xAB; 32]));
        assert_eq!(r.divergence_alarms(), 1);
        let mut early = smallbank_replica(EngineKind::Rbc);
        early.on_peer_root(2, Digest([0xCD; 32]));
        for b in &blocks[..2] {
            early.deliver(Arc::clone(b)).unwrap();
        }
        assert_eq!(early.divergence_alarms(), 1);
    }

    #[test]
    fn root_tracker_memory_is_bounded() {
        let mut t = RootTracker::default();
        let root = Digest([1; 32]);
        // Peers rushing arbitrarily far ahead cannot grow the buffer past
        // the cap; the farthest heights are the ones shed.
        for h in 1..=10_000u64 {
            t.note_peer(h, root);
        }
        assert_eq!(t.buffered_heights(), RootTracker::AHEAD_CAP);
        // Advancing compares the matching height and drops everything at
        // or below it.
        t.note_own(5, root);
        assert_eq!(t.alarms(), 0);
        assert!(t.buffered_heights() < RootTracker::AHEAD_CAP);
        t.note_own(RootTracker::AHEAD_CAP as u64 + 10, root);
        assert_eq!(t.buffered_heights(), 0);
        // Own roots are a sliding window however long the chain runs.
        for h in 100..10_000u64 {
            t.note_own(h, root);
        }
        assert_eq!(t.own_heights(), RootTracker::OWN_KEEP);
        // Stale peer gossip (at/below the compared frontier) is dropped,
        // not buffered forever.
        t.note_peer(50, Digest([9; 32]));
        assert_eq!(t.buffered_heights(), 0);
        assert_eq!(t.alarms(), 0);
        // Comparisons still work at retained heights — in both orders.
        t.note_peer(9_999, Digest([9; 32]));
        assert_eq!(t.alarms(), 1);
        t.note_peer(10_005, Digest([9; 32]));
        t.note_own(10_005, root);
        assert_eq!(t.alarms(), 2);
    }

    #[test]
    fn root_tracker_reports_buffer_high_water_marks() {
        let mut t = RootTracker::default();
        let own_hwm = Gauge::detached();
        let peer_hwm = Gauge::detached();
        t.set_metrics(own_hwm.clone(), peer_hwm.clone());
        let root = Digest([1; 32]);
        // Peers rushing far ahead: the gauge records the peak, and the
        // peak never exceeds the cap the buffer enforces.
        for h in 1..=1_000u64 {
            t.note_peer(h, root);
        }
        assert_eq!(peer_hwm.get(), RootTracker::AHEAD_CAP as i64);
        // Draining the buffer does not lower a high-water mark.
        t.note_own(2_000, root);
        assert_eq!(t.buffered_heights(), 0);
        assert_eq!(peer_hwm.get(), RootTracker::AHEAD_CAP as i64);
        // Own-root window: the mark tracks the retained window size.
        for h in 2_001..2_200u64 {
            t.note_own(h, root);
        }
        assert_eq!(own_hwm.get(), RootTracker::OWN_KEEP as i64);
    }

    #[test]
    fn catch_up_closes_the_gap_under_buffered_tail() {
        let (blocks, reference_root) = sealed_stream(6);
        let mut r = smallbank_replica(EngineKind::Rbc);
        // Replica saw only block 1, then went down; blocks 5–6 arrive
        // while it syncs.
        r.deliver(Arc::clone(&blocks[0])).unwrap();
        r.deliver(Arc::clone(&blocks[4])).unwrap();
        r.deliver(Arc::clone(&blocks[5])).unwrap();
        assert_eq!(r.height(), BlockId(1));
        // Peer serves blocks 2–4 (one part, anchored at block 4); the
        // buffered tail drains automatically.
        let response = ShardedSyncResponse {
            height: BlockId(4),
            global_hash: blocks[3].header.hash(),
            epoch: 0,
            parts: vec![SyncResponse::Range(
                blocks[1..4].iter().map(|b| (**b).clone()).collect(),
            )],
        };
        let applied = apply_sharded_sync(&mut r, &response).unwrap();
        assert_eq!(applied.blocks, 5);
        assert_eq!(applied.range_shards, 1);
        assert_eq!(r.height(), BlockId(6));
        assert_eq!(r.state_root().unwrap(), reference_root);
        assert!(r.delivery_log().is_gap_free());
    }

    #[test]
    fn every_engine_reaches_the_same_root_as_its_sealer() {
        // The sealed stream came from an RBC node; all-commit workloads
        // aside, each engine must at least be self-consistent: two
        // replicas of the same kind fed the same blocks agree.
        for kind in [
            EngineKind::Harmony(harmony_core::HarmonyConfig::default()),
            EngineKind::Aria,
            EngineKind::Rbc,
            EngineKind::Fabric,
            EngineKind::FastFabric,
        ] {
            let (blocks, _) = sealed_stream(4);
            let run = |blocks: &[Arc<ChainBlock>]| {
                let mut r = smallbank_replica(kind);
                for b in blocks {
                    r.deliver(Arc::clone(b)).unwrap();
                }
                r.state_root().unwrap()
            };
            assert_eq!(
                run(&blocks),
                run(&blocks),
                "{} replicas diverged",
                kind.name()
            );
        }
    }

    #[test]
    fn one_partition_gossips_the_bare_chain_root() {
        // The flat layout must be a bare full-profile chain: the gossiped
        // root is the unfolded commitment root of its engine, and equals
        // what `OeChain::apply_sealed_block` alone produces on the same
        // blocks.
        let (blocks, _) = sealed_stream(4);
        let kind = EngineKind::Harmony(harmony_core::HarmonyConfig::default());
        let config = replica_config(kind);
        let mut r = ReplicaNode::new(&config, smallbank_setup).unwrap();
        let mut bare = OeChain::open_with_factory(
            config.chain.clone(),
            Arc::new(move |store, next, summary| kind.build_at(store, 2, next, summary)),
        )
        .unwrap();
        let codec = smallbank_setup(bare.engine()).unwrap();
        let mut gossiped = None;
        for b in &blocks {
            for a in r.deliver(Arc::clone(b)).unwrap() {
                gossiped = a.gossip_root.or(gossiped);
            }
            bare.apply_sealed_block(b, codec.as_ref()).unwrap();
        }
        let gossiped = gossiped.expect("gossip at height 4");
        assert_eq!(gossiped, state_root(r.chain().engine()).unwrap());
        assert_eq!(gossiped, bare.state_root().unwrap());
        assert_eq!(r.sharded_root_oracle().unwrap(), gossiped);
        assert_eq!(r.logical_state_root().unwrap(), gossiped);
    }

    #[test]
    fn one_partition_anchor_survives_a_crash() {
        // With one partition the anchor is the chain's own last hash: after
        // a crash and local recovery, with no sync reply, deliveries keep
        // applying.
        let (blocks, reference_root) = sealed_stream(6);
        let mut r = smallbank_replica(EngineKind::Rbc);
        for b in &blocks[..4] {
            r.deliver(Arc::clone(b)).unwrap();
        }
        r.crash();
        r.recover_local().unwrap();
        assert_eq!(r.height(), BlockId(4), "checkpoint at 4 recovers fully");
        assert_eq!(r.global_hash(), Some(blocks[3].header.hash()));
        for b in &blocks[4..] {
            assert_eq!(r.deliver(Arc::clone(b)).unwrap().len(), 1);
        }
        assert_eq!(r.height(), BlockId(6));
        assert_eq!(r.state_root().unwrap(), reference_root);
    }
}
