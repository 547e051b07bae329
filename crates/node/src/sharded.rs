//! The sharded layout: N-replica replication × M-shard execution in one
//! node — the composition of `harmony-shard`'s deterministic cross-shard
//! commit with `harmony-node`'s ordered delivery and crash recovery.
//!
//! A [`ShardedReplicaConfig`] lays a [`ReplicaNode`] out over M
//! **per-shard [`OeChain`]s**, hosted by one [`harmony_shard::ShardGroup`],
//! and P logical partitions. With more than one partition, each shard runs
//! its engine in the sharded profile (rebuilt through a sharded
//! `DccFactory` on recovery), and a globally ordered block is consumed in
//! four steps:
//!
//! 1. verify its linkage/signature against the replica's **global** hash
//!    chain,
//! 2. plan it through the shared cross-shard planner
//!    ([`harmony_shard::plan_block`]): classify, simulate multi-partition
//!    transactions against the shards' previous-block snapshots, reserve
//!    the survivor set, split survivors into serializable fragments,
//! 3. seal each shard's sub-block on that shard's chain and apply it —
//!    so every shard owns a verifiable hash-chained block log (height ==
//!    global height) with its own checkpoints and recovery sidecar,
//! 4. fold per-shard state roots into the
//!    [`harmony_chain::sharded_state_root`] gossiped for divergence
//!    detection.
//!
//! Steps 2–4 are the shard group's; the replica keeps the global anchor,
//! delivery order, gossip, crash/recovery and sync.
//!
//! Because fragments serialize their captured update commands, a shard's
//! sub-block log replays **independently** of the other shards: crash
//! recovery and state-sync never re-run the cross-shard simulation.
//! That is what lets a rejoining replica bring one shard back via a
//! checkpoint-manifest install while another replays a verified block
//! range ([`crate::statesync::apply_sharded_sync`]).
//!
//! The replica's own position on the *global* chain (height + last block
//! hash) lives in memory; after a crash it is re-anchored by the first
//! state-sync response, and ordered delivery stays buffered until the
//! anchor is known.
//!
//! With one partition (the flat layout, `From<&ReplicaConfig>`) none of
//! this applies: see [`crate::replica`].

use std::collections::BTreeMap;
use std::sync::Arc;

use harmony_chain::sync::{StateSnapshot, TableDump};
use harmony_chain::{ChainConfig, DccFactory, OeChain};
use harmony_common::ids::TableId;
use harmony_common::{BlockId, Error, Result};
use harmony_consensus::net::LatencyModel;
use harmony_crypto::{sha256, Digest};
use harmony_shard::{Partitioning, ShardRouter};
use harmony_sim::EngineKind;
use harmony_txn::Key;

use crate::replica::{ReplicaConfig, ReplicaNode};

/// The sharded replica is the one replica type under its layout config.
pub type ShardedReplicaNode = ReplicaNode;

/// Replica layout configuration: shards × logical partitions.
#[derive(Clone, Debug)]
pub struct ShardedReplicaConfig {
    /// Per-shard chain template (storage profile, checkpoint period,
    /// crypto, provisioning). Each shard clones it; see
    /// `checkpoint_stagger` for the one knob varied per shard.
    pub chain: ChainConfig,
    /// Which DCC engine executes sub-blocks (sharded profile).
    pub engine: EngineKind,
    /// Worker cores per shard.
    pub workers: usize,
    /// Number of physical shards hosted by this replica.
    pub shards: usize,
    /// Logical partition count (fixed across shard counts, so transaction
    /// classification — and hence every commit decision — is
    /// shard-count-invariant).
    pub partitions: u32,
    /// Partitioning function mapping key bytes to logical partitions.
    /// Must be identical on every replica of a chain. `Prefix` is the
    /// right choice for composite-key workloads (TPC-C): it co-locates
    /// every key of a warehouse, which is what makes declared
    /// NewOrder/Payment footprints single-shard.
    pub partitioning: Partitioning,
    /// Names of tables hosted in full on every shard (read-only
    /// dimension tables, e.g. TPC-C `item`): genesis pruning skips
    /// them, and their keys never force a transaction cross-shard.
    /// Names are resolved against the catalog the workload `setup`
    /// creates; an unknown name is a configuration error.
    pub replicated_tables: Vec<String>,
    /// Shard `s` checkpoints every `chain.checkpoint_every + s * stagger`
    /// blocks. A non-zero stagger spreads checkpoint I/O bursts across
    /// co-hosted shards — and means a crash can strand shards at
    /// *different* recovery points, which the per-shard state-sync
    /// protocol is built to handle (manifest for one shard, block-range
    /// replay for another).
    pub checkpoint_stagger: u64,
    /// Network model for the cross-shard read-fragment exchange.
    pub latency: LatencyModel,
    /// Compute + gossip the sharded state root every this many blocks.
    pub gossip_every: u64,
}

impl Default for ShardedReplicaConfig {
    fn default() -> Self {
        ShardedReplicaConfig {
            chain: ChainConfig::in_memory(),
            engine: EngineKind::Harmony(harmony_core::HarmonyConfig::default()),
            workers: 4,
            shards: 2,
            partitions: 16,
            partitioning: Partitioning::Hash,
            replicated_tables: Vec::new(),
            checkpoint_stagger: 0,
            latency: LatencyModel::lan_1g(),
            gossip_every: 5,
        }
    }
}

impl ShardedReplicaConfig {
    fn shard_chain_config(&self, shard: usize) -> ChainConfig {
        let mut cfg = self.chain.clone();
        // checkpoint_every = 0 means "never checkpoint" on a flat chain;
        // preserve that rather than staggering it into "every block".
        if cfg.checkpoint_every > 0 {
            cfg.checkpoint_every = cfg
                .checkpoint_every
                .saturating_add(shard as u64 * self.checkpoint_stagger);
        }
        cfg
    }

    /// One logical partition: no transaction can span partitions, so the
    /// single chain is the global chain and runs the flat profile.
    pub(crate) fn one_partition(&self) -> bool {
        self.partitions <= 1
    }
}

/// A flat replica is the one-shard, one-partition layout.
impl From<&ReplicaConfig> for ShardedReplicaConfig {
    fn from(config: &ReplicaConfig) -> Self {
        ShardedReplicaConfig {
            chain: config.chain.clone(),
            engine: config.engine,
            workers: config.workers,
            shards: 1,
            partitions: 1,
            gossip_every: config.gossip_every,
            ..ShardedReplicaConfig::default()
        }
    }
}

impl From<&ShardedReplicaConfig> for ShardedReplicaConfig {
    fn from(config: &ShardedReplicaConfig) -> Self {
        config.clone()
    }
}

/// Open one shard's chain, wired to rebuild its engine on recovery and
/// snapshot install: the full profile (with the Rule-3 summary) on a
/// one-partition layout, the sharded profile otherwise.
pub(crate) fn open_shard_chain(config: &ShardedReplicaConfig, shard: usize) -> Result<OeChain> {
    let kind = config.engine;
    let workers = config.workers;
    let factory: DccFactory = if config.one_partition() {
        Arc::new(move |store, next, summary| kind.build_at(store, workers, next, summary))
    } else {
        Arc::new(move |store, next, _summary| kind.build_sharded_at(store, workers, next))
    };
    OeChain::open_with_factory(config.shard_chain_config(shard), factory)
}

/// Build the shard router from the deployment's partitioning knob and
/// replicated-table names, resolved against the catalog `setup` created.
pub(crate) fn build_router(
    config: &ShardedReplicaConfig,
    catalog: &[(String, TableId)],
) -> Result<ShardRouter> {
    let mut replicated = Vec::with_capacity(config.replicated_tables.len());
    for name in &config.replicated_tables {
        let id = catalog
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, id)| *id)
            .ok_or_else(|| {
                Error::InvalidArgument(format!(
                    "replicated table {name:?} is not in the workload's catalog"
                ))
            })?;
        replicated.push(id);
    }
    Ok(
        ShardRouter::new(config.partitioning.build(config.partitions), config.shards)
            .with_replicated(replicated),
    )
}

/// Virtual nanoseconds charged per shard manifest moved by a reshard
/// handover (export + slice + install, same order of magnitude as a sync
/// serve/replay round).
pub(crate) const RESHARD_HANDOVER_NS: u64 = 250_000;

/// Deterministic sub-chain continuation hash for new shard `shard` after
/// a reshard at the global block with hash `global`. Every replica
/// derives the same value, so the resharded sub-chains stay hash-chain
/// compatible across replicas (range sync keeps working past the epoch
/// boundary).
pub(crate) fn reshard_shard_anchor(
    global: &Digest,
    epoch: u64,
    new_shards: u32,
    shard: usize,
) -> Digest {
    let mut buf = Vec::with_capacity(4 + 32 + 8 + 4 + 8);
    buf.extend_from_slice(b"HRS@");
    buf.extend_from_slice(&global.0);
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(&new_shards.to_le_bytes());
    buf.extend_from_slice(&(shard as u64).to_le_bytes());
    sha256(&buf)
}

/// Slice the old shards' exported checkpoint manifests down to the
/// partition set new shard `shard` owns under `router` — the reshard
/// handover's per-shard manifest. Tables the router replicates are
/// carried in full (every old shard holds an identical copy; shard 0's
/// is taken). Partitioned tables take the union of every old shard's
/// owned rows, re-merged in key order; the recovery sidecar (undo
/// images) is sliced by the same ownership rule so the installed shard
/// recovers and re-simulates exactly like a shard that always existed.
pub(crate) fn slice_manifest(
    exports: &[StateSnapshot],
    catalog: &[(String, TableId)],
    router: &ShardRouter,
    shard: usize,
    height: BlockId,
    last_hash: Digest,
) -> StateSnapshot {
    let mut tables = Vec::with_capacity(catalog.len());
    for (ti, (name, table)) in catalog.iter().enumerate() {
        let rows = if router.is_replicated(*table) {
            exports[0].tables[ti].rows.clone()
        } else {
            let mut rows: Vec<(Vec<u8>, Vec<u8>)> = exports
                .iter()
                .flat_map(|e| e.tables[ti].rows.iter())
                .filter(|(k, _)| router.shard_of_key(&Key::new(*table, k.clone())) == shard)
                .cloned()
                .collect();
            // Old shards hold disjoint partitions; a simple re-sort
            // restores global key order.
            rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            rows
        };
        tables.push(TableDump {
            name: name.clone(),
            rows,
        });
    }
    // Merge the undo sidecars block-by-block under the same ownership
    // rule (replicated-table images ride to every shard).
    let mut undo: BTreeMap<u64, Vec<_>> = BTreeMap::new();
    for (ei, export) in exports.iter().enumerate() {
        for (block, entries) in &export.undo {
            let own = undo.entry(block.0).or_default();
            for entry in entries {
                // Replicated-table images are identical on every old
                // shard — take shard 0's copy once.
                let keep = if router.is_replicated(entry.0.table()) {
                    ei == 0
                } else {
                    router.shard_of_key(&entry.0) == shard
                };
                if keep {
                    own.push(entry.clone());
                }
            }
        }
    }
    StateSnapshot {
        height,
        last_hash,
        tables,
        undo: undo.into_iter().map(|(b, e)| (BlockId(b), e)).collect(),
        summary: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_chain::ChainBlock;
    use harmony_crypto::KeyPair;
    use harmony_storage::StorageEngine;
    use harmony_txn::encode_contract;
    use harmony_workloads::{Smallbank, SmallbankCodec, SmallbankConfig, Workload};

    fn config(engine: EngineKind, shards: usize) -> ShardedReplicaConfig {
        ShardedReplicaConfig {
            chain: ChainConfig {
                checkpoint_every: 3,
                ..ChainConfig::in_memory()
            },
            engine,
            workers: 2,
            shards,
            partitions: 8,
            partitioning: Partitioning::default(),
            replicated_tables: Vec::new(),
            checkpoint_stagger: 0,
            latency: LatencyModel::lan_1g(),
            gossip_every: 2,
        }
    }

    fn smallbank_cfg() -> SmallbankConfig {
        SmallbankConfig {
            accounts: 120,
            theta: 0.5,
            partitions: 8,
            multi_partition_ratio: 0.4,
        }
    }

    fn replica(engine: EngineKind, shards: usize) -> ShardedReplicaNode {
        ShardedReplicaNode::new(config(engine, shards), |eng| {
            let mut w = Smallbank::new(smallbank_cfg());
            w.setup(eng)?;
            let (checking, savings) = w.tables();
            Ok(Arc::new(SmallbankCodec { checking, savings }))
        })
        .unwrap()
    }

    /// Seal a deterministic global block stream the way the orderer does.
    fn sealed_stream(n: usize, block_txns: usize) -> Vec<Arc<ChainBlock>> {
        let chain_cfg = ChainConfig::in_memory();
        let keypair = KeyPair::derive(&chain_cfg.provision, chain_cfg.orderer_id, chain_cfg.crypto);
        let mut w = Smallbank::new(smallbank_cfg());
        let scratch = StorageEngine::open(&harmony_storage::StorageConfig::memory()).unwrap();
        w.setup(&scratch).unwrap();
        let mut rng = harmony_common::DetRng::new(0x5A);
        let mut prev = Digest::ZERO;
        let mut blocks = Vec::with_capacity(n);
        for b in 0..n {
            let txns = w.next_block(&mut rng, block_txns);
            let encoded: Vec<Vec<u8>> = txns.iter().map(|t| encode_contract(t.as_ref())).collect();
            let sealed = ChainBlock::seal(BlockId(b as u64 + 1), prev, encoded, &keypair);
            prev = sealed.header.hash();
            blocks.push(Arc::new(sealed));
        }
        blocks
    }

    #[test]
    fn shards_advance_in_lockstep_and_roots_agree_across_replicas() {
        let blocks = sealed_stream(6, 10);
        let run = |shards: usize| {
            let mut r = replica(EngineKind::Rbc, shards);
            for b in &blocks {
                r.deliver(Arc::clone(b)).unwrap();
            }
            assert_eq!(r.height(), BlockId(6));
            assert!(r.shard_heights().iter().all(|h| *h == BlockId(6)));
            assert!(r.delivery_log().is_gap_free());
            (r.sharded_root().unwrap(), r.logical_state_root().unwrap())
        };
        let (top_a, logical_a) = run(4);
        let (top_b, logical_b) = run(4);
        assert_eq!(top_a, top_b, "replicas diverged");
        assert_eq!(logical_a, logical_b);
        // Different shard counts change the physical fold but not the
        // logical database.
        let (top_one, logical_one) = run(1);
        assert_ne!(top_a, top_one, "physical fold commits to the layout");
        assert_eq!(logical_a, logical_one, "logical state is M-invariant");
    }

    #[test]
    fn out_of_order_delivery_buffers_and_drains() {
        let blocks = sealed_stream(4, 8);
        let mut r = replica(EngineKind::Rbc, 2);
        assert!(r.deliver(Arc::clone(&blocks[2])).unwrap().is_empty());
        assert!(r.deliver(Arc::clone(&blocks[1])).unwrap().is_empty());
        assert_eq!(r.pending_gap(), 2);
        let applied = r.deliver(Arc::clone(&blocks[0])).unwrap();
        assert_eq!(
            applied.iter().map(|a| a.block.0).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        r.deliver(Arc::clone(&blocks[3])).unwrap();
        assert_eq!(r.height(), BlockId(4));
    }

    #[test]
    fn crash_recovery_replays_to_identical_root() {
        let blocks = sealed_stream(7, 10);
        for engine in [
            EngineKind::Harmony(harmony_core::HarmonyConfig::default()),
            EngineKind::Aria,
            EngineKind::Fabric,
        ] {
            let mut reference = replica(engine, 3);
            let mut crasher = replica(engine, 3);
            for b in &blocks {
                reference.deliver(Arc::clone(b)).unwrap();
                crasher.deliver(Arc::clone(b)).unwrap();
            }
            let root = reference.sharded_root().unwrap();
            crasher.crash();
            crasher.recover_local().unwrap();
            // Every shard checkpointed (period 3, height 7): full local
            // replay, no sync needed.
            assert_eq!(crasher.height(), BlockId(7));
            assert_eq!(crasher.sharded_root().unwrap(), root, "{}", engine.name());
            // Re-anchor and keep going.
            let anchor = blocks[6].header.hash();
            assert!(crasher.finish_sync(BlockId(7), anchor).unwrap().is_empty());
        }
    }

    #[test]
    fn staggered_checkpoints_strand_shards_at_different_heights() {
        let blocks = sealed_stream(5, 10);
        let mut cfg = config(EngineKind::Rbc, 2);
        cfg.chain.checkpoint_every = 2;
        cfg.checkpoint_stagger = 100; // shard 1 never checkpoints in 5 blocks
        let mut r = ShardedReplicaNode::new(&cfg, |eng| {
            let mut w = Smallbank::new(smallbank_cfg());
            w.setup(eng)?;
            let (checking, savings) = w.tables();
            Ok(Arc::new(SmallbankCodec { checking, savings }))
        })
        .unwrap();
        for b in &blocks {
            r.deliver(Arc::clone(b)).unwrap();
        }
        r.crash();
        r.recover_local().unwrap();
        let heights = r.shard_heights();
        assert_eq!(heights[0], BlockId(5), "checkpointed shard replays fully");
        assert_eq!(heights[1], BlockId(0), "uncheckpointed shard lost all");
        assert_eq!(r.height(), BlockId(0), "global position is the laggard");
        // Deliveries stay buffered without an anchor.
        assert!(r.deliver(Arc::clone(&blocks[0])).unwrap().is_empty());
    }
}
