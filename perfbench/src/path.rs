//! The per-block path: the orderer side (Submit frames → wire decode →
//! mempool → seal → Deliver frame) and the replica side (Deliver frame →
//! wire decode → the node layer's `deliver`). These are the calls a TCP
//! orderer and replica make for each frame, without the socket.

use std::sync::Arc;

use harmony_chain::{ChainBlock, ChainConfig};
use harmony_common::{BlockId, Error, Result};
use harmony_core::BlockStats;
use harmony_crypto::{Digest, KeyPair};
use harmony_node::cluster::Msg;
use harmony_node::{
    Applied, Mempool, MempoolConfig, ReplicaMetrics, ReplicaNode, ShardedReplicaNode, TxnCounters,
};
use harmony_shard::PlannerMetrics;
use harmony_storage::{IoSnapshot, StorageEngine};
use harmony_transport::WireCodec;
use harmony_txn::{encode_contract, ContractCodec};

use crate::spec::{Layout, Spec};
use crate::trace::Tracer;

/// The ordering service of a one-orderer deployment.
pub struct Orderer {
    wire: Arc<WireCodec>,
    mempool: Mempool,
    keypair: KeyPair,
    next_id: u64,
    prev_hash: Digest,
    /// Submissions refused admission.
    pub rejects: u64,
    /// Bytes of every Deliver frame sent.
    pub deliver_bytes: u64,
}

impl Orderer {
    pub fn new(chain: &ChainConfig, wire: Arc<WireCodec>) -> Orderer {
        Orderer {
            wire,
            mempool: Mempool::new(MempoolConfig::default()),
            keypair: KeyPair::derive(&chain.provision, chain.orderer_id, chain.crypto),
            next_id: 1,
            prev_hash: Digest::ZERO,
            rejects: 0,
            deliver_bytes: 0,
        }
    }

    /// Order one block: decode and admit its Submit frames, batch, seal,
    /// and put the block on the wire. Returns the Deliver frame.
    pub fn order(&mut self, frames: &[Vec<u8>], tr: &mut Tracer) -> Result<Vec<u8>> {
        let wire = Arc::clone(&self.wire);
        let msgs = tr.span("transport.submit_decode", |_| {
            frames
                .iter()
                .map(|f| wire.decode_msg(&f[4..]))
                .collect::<Result<Vec<Msg>>>()
        })?;
        let batch = tr.span("node.mempool", |_| {
            for msg in msgs {
                let Msg::Submit {
                    client,
                    nonce,
                    submitted_ns,
                    contract,
                } = msg
                else {
                    return Err(Error::Corruption("expected a Submit frame".into()));
                };
                if self
                    .mempool
                    .submit(client, nonce, submitted_ns, contract)
                    .is_err()
                {
                    self.rejects += 1;
                }
            }
            let batch = self.mempool.next_batch(frames.len());
            let mean_submit_ns =
                batch.iter().map(|t| t.submitted_ns).sum::<u64>() / batch.len().max(1) as u64;
            let encoded: Vec<Vec<u8>> = batch
                .iter()
                .map(|t| encode_contract(t.contract.as_ref()))
                .collect();
            Ok((encoded, mean_submit_ns))
        })?;
        let (encoded, mean_submit_ns) = batch;
        if encoded.is_empty() {
            return Err(Error::InvalidArgument(
                "empty batch: every submission was refused".into(),
            ));
        }
        let sealed = tr.span("chain.seal", |_| {
            ChainBlock::seal(
                BlockId(self.next_id),
                self.prev_hash,
                encoded,
                &self.keypair,
            )
        });
        self.next_id += 1;
        self.prev_hash = sealed.header.hash();
        let frame = tr.span("transport.deliver_codec", |_| {
            wire.encode_msg(&Msg::Deliver {
                block: Arc::new(sealed),
                born_ns: 0,
                mean_submit_ns,
            })
        });
        self.deliver_bytes += frame.len() as u64;
        Ok(frame)
    }
}

/// Replica side of the wire: decode a Deliver frame back into its block.
pub fn receive(wire: &WireCodec, frame: &[u8], tr: &mut Tracer) -> Result<Arc<ChainBlock>> {
    match tr.span("transport.deliver_codec", |_| wire.decode_msg(&frame[4..]))? {
        Msg::Deliver { block, .. } => Ok(block),
        _ => Err(Error::Corruption("expected a Deliver frame".into())),
    }
}

/// The node layer's replica: flat or sharded.
pub enum Replica {
    Flat(Box<ReplicaNode>),
    Sharded(Box<ShardedReplicaNode>, PlannerMetrics),
}

/// Planner counters of a sharded replica.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct PlannerCounts {
    pub single: u64,
    pub cross: u64,
    pub survivors: u64,
    pub conflicts: u64,
}

impl PlannerCounts {
    pub fn minus(&self, o: &PlannerCounts) -> PlannerCounts {
        PlannerCounts {
            single: self.single - o.single,
            cross: self.cross - o.cross,
            survivors: self.survivors - o.survivors,
            conflicts: self.conflicts - o.conflicts,
        }
    }

    pub fn plus(&self, o: &PlannerCounts) -> PlannerCounts {
        PlannerCounts {
            single: self.single + o.single,
            cross: self.cross + o.cross,
            survivors: self.survivors + o.survivors,
            conflicts: self.conflicts + o.conflicts,
        }
    }
}

impl Replica {
    /// Open the replica and load genesis state. `setup` is the workload's
    /// genesis loader, called once per engine.
    pub fn open(
        spec: &Spec,
        setup: impl FnMut(&Arc<StorageEngine>) -> Result<Arc<dyn ContractCodec>>,
    ) -> Result<Replica> {
        Ok(match spec.layout {
            Layout::Flat => {
                Replica::Flat(Box::new(ReplicaNode::new(&spec.replica_config(), setup)?))
            }
            Layout::Sharded { shards, partitions } => {
                let mut node =
                    ShardedReplicaNode::new(&spec.sharded_config(shards, partitions), setup)?;
                let planner = PlannerMetrics::detached();
                node.set_metrics(
                    ReplicaMetrics::detached(),
                    (0..shards).map(|_| TxnCounters::detached()).collect(),
                    planner.clone(),
                );
                Replica::Sharded(Box::new(node), planner)
            }
        })
    }

    pub fn deliver(&mut self, block: Arc<ChainBlock>) -> Result<Vec<Applied>> {
        match self {
            Replica::Flat(n) => n.deliver(block),
            Replica::Sharded(n, _) => n.deliver(block),
        }
    }

    pub fn height(&self) -> u64 {
        match self {
            Replica::Flat(n) => n.height().0,
            Replica::Sharded(n, _) => n.height().0,
        }
    }

    /// Storage engines: one, or one per shard.
    pub fn engines(&self) -> Vec<&Arc<StorageEngine>> {
        match self {
            Replica::Flat(n) => vec![n.chain().engine()],
            Replica::Sharded(n, _) => (0..n.shards()).map(|s| n.shard_chain(s).engine()).collect(),
        }
    }

    /// The replica's own (incrementally maintained) state root.
    pub fn root(&self) -> Result<Digest> {
        match self {
            Replica::Flat(n) => n.state_root(),
            Replica::Sharded(n, _) => n.sharded_root(),
        }
    }

    /// The full-scan oracle the root must equal.
    pub fn oracle_root(&self) -> Result<Digest> {
        match self {
            Replica::Flat(n) => harmony_chain::state_root(n.chain().engine()),
            Replica::Sharded(n, _) => n.sharded_root_oracle(),
        }
    }

    pub fn stats(&self) -> BlockStats {
        match self {
            Replica::Flat(n) => *n.stats(),
            Replica::Sharded(n, _) => *n.stats(),
        }
    }

    pub fn divergence_alarms(&self) -> u64 {
        match self {
            Replica::Flat(n) => n.divergence_alarms(),
            Replica::Sharded(n, _) => n.divergence_alarms(),
        }
    }

    /// Keys the state commitment folds for the block just applied.
    pub fn last_fold_keys(&self) -> usize {
        match self {
            Replica::Flat(n) => n.chain().snapshots().keys_written_in(n.height()).len(),
            Replica::Sharded(n, _) => (0..n.shards())
                .map(|s| {
                    let c = n.shard_chain(s);
                    c.snapshots().keys_written_in(c.height()).len()
                })
                .sum(),
        }
    }

    pub fn planner(&self) -> PlannerCounts {
        match self {
            Replica::Flat(_) => PlannerCounts::default(),
            Replica::Sharded(_, p) => PlannerCounts {
                single: p.single_txns.get(),
                cross: p.cross_txns.get(),
                survivors: p.survivors.get(),
                conflicts: p.reservation_conflicts.get(),
            },
        }
    }
}

/// I/O counters summed over engines.
pub fn io_of(engines: &[&Arc<StorageEngine>]) -> IoSnapshot {
    let mut io = IoSnapshot::default();
    for e in engines {
        io.absorb(&e.io_snapshot());
    }
    io
}

/// Pages cached in the buffer pools of `engines`.
pub fn resident_pages(engines: &[&Arc<StorageEngine>]) -> usize {
    engines.iter().map(|e| e.pool().cached_frames()).sum()
}

/// Drop every buffer pool's cache the way a restarted node starts: write
/// the dirty pages back, then clear.
pub fn drop_caches(engines: &[&Arc<StorageEngine>]) -> Result<()> {
    for e in engines {
        e.pool().flush_all()?;
        e.pool().clear_cache_discarding_dirty();
    }
    Ok(())
}
