//! The traced flat replica: `OeChain::apply_sealed_block` and the
//! replica's gossip root, rebuilt from the same public calls so each call
//! can carry its own span. Its state root must equal the untraced
//! replica's; the run checks it.
//!
//! The one part rebuilt by hand is the checkpoint's recovery sidecar,
//! whose byte layout is private to the chain crate: it is encoded here
//! from the same undo images and Rule-3 summary, so it does comparable
//! work, but its bytes differ.

use std::sync::Arc;

use harmony_chain::{ChainBlock, StateCommitment};
use harmony_common::codec::Writer;
use harmony_common::{BlockId, Error, Result};
use harmony_core::executor::{BlockExecutor, BlockSummary, ExecBlock};
use harmony_core::{BlockStats, HarmonyConfig, SnapshotStore};
use harmony_crypto::{Digest, Verifier};
use harmony_storage::StorageEngine;
use harmony_txn::{Contract, ContractCodec, Key};

use crate::spec::Spec;
use crate::trace::Tracer;

/// Counts of one traced block.
pub struct TracedBlock {
    pub committed: usize,
    pub sim_ns: u64,
    pub commit_ns: u64,
    pub reads: usize,
    pub writes: usize,
}

pub struct TracedReplica {
    engine: Arc<StorageEngine>,
    snapshots: Arc<SnapshotStore>,
    executor: BlockExecutor,
    prev_summary: Option<BlockSummary>,
    verifier: Verifier,
    codec: Arc<dyn ContractCodec>,
    commitment: Option<StateCommitment>,
    height: BlockId,
    last_hash: Digest,
    checkpoint_every: u64,
    gossip_every: u64,
    sidecar_depth: u64,
    stats: BlockStats,
}

impl TracedReplica {
    pub fn open(
        spec: &Spec,
        setup: impl FnOnce(&Arc<StorageEngine>) -> Result<Arc<dyn ContractCodec>>,
    ) -> Result<TracedReplica> {
        let cfg = spec.replica_config();
        let engine = Arc::new(StorageEngine::open(&cfg.chain.storage)?);
        let snapshots = Arc::new(SnapshotStore::new(Arc::clone(&engine)));
        let codec = setup(&engine)?;
        let harmony_sim::EngineKind::Harmony(harmony) = cfg.engine else {
            return Err(Error::InvalidArgument(
                "the traced replica runs Harmony only".into(),
            ));
        };
        let executor = BlockExecutor::new(
            Arc::clone(&snapshots),
            HarmonyConfig {
                workers: cfg.workers,
                ..harmony
            },
        );
        Ok(TracedReplica {
            engine,
            snapshots,
            executor,
            prev_summary: None,
            verifier: Verifier::new(&cfg.chain.provision, cfg.chain.crypto),
            codec,
            commitment: None,
            height: BlockId(0),
            last_hash: Digest::ZERO,
            checkpoint_every: cfg.chain.checkpoint_every,
            gossip_every: cfg.gossip_every.max(1),
            sidecar_depth: cfg.chain.sidecar_depth,
            stats: BlockStats::default(),
        })
    }

    pub fn engine(&self) -> &Arc<StorageEngine> {
        &self.engine
    }

    pub fn stats(&self) -> BlockStats {
        self.stats
    }

    pub fn height(&self) -> u64 {
        self.height.0
    }

    /// Keys the commitment folded for the block just applied.
    pub fn last_fold_keys(&self) -> usize {
        self.snapshots.keys_written_in(self.height).len()
    }

    /// Apply one delivered block, a span around each call.
    pub fn apply(&mut self, block: &ChainBlock, tr: &mut Tracer) -> Result<TracedBlock> {
        let id = block.header.id;
        if id != self.height.next() {
            return Err(Error::InvalidArgument(format!(
                "block {id} delivered out of order (expected {})",
                self.height.next()
            )));
        }
        tr.span("chain.verify", |_| {
            block.verify(&self.last_hash, &self.verifier)
        })?;
        let txns = tr.span("chain.payload_decode", |_| {
            block
                .txns
                .iter()
                .map(|b| self.codec.decode(b))
                .collect::<Result<Vec<Arc<dyn Contract>>>>()
        })?;
        tr.span("chain.block_log", |_| {
            self.engine.block_log().append(&block.encode())?;
            self.engine.block_log().sync()
        })?;
        let exec = ExecBlock { id, txns };
        let sim = tr.span("core.simulate", |_| self.executor.simulate(&exec));
        let prev = if self.executor.config().inter_block_parallelism {
            self.prev_summary.as_ref()
        } else {
            None
        };
        let result = tr.span("core.commit", |_| self.executor.commit(&exec, sim, prev))?;
        tr.span("core.gc", |_| {
            self.snapshots.gc(BlockId(id.0.saturating_sub(1)));
        });
        self.prev_summary = Some(result.summary.clone());
        self.stats.absorb(&result.stats);

        if let Some(c) = self.commitment.as_mut() {
            let (engine, snapshots) = (&self.engine, &self.snapshots);
            tr.span("chain.fold", |_| {
                c.apply_writes(engine, &snapshots.keys_written_in(id))
            })?;
        }
        self.height = id;
        self.last_hash = block.header.hash();
        if id.0.is_multiple_of(self.checkpoint_every) {
            tr.span("chain.checkpoint", |_| self.checkpoint())?;
        }
        if id.0.is_multiple_of(self.gossip_every) {
            tr.span("chain.root", |_| self.state_root())?;
        }

        let rw = result.rwsets.iter().flatten();
        Ok(TracedBlock {
            committed: result.stats.committed,
            sim_ns: result.results.iter().map(|r| r.sim_ns).sum(),
            commit_ns: result.results.iter().map(|r| r.commit_ns).sum(),
            reads: rw.clone().map(|s| s.reads.len()).sum(),
            writes: rw.map(|s| s.updates.len()).sum(),
        })
    }

    /// The incrementally maintained state root; the first call builds the
    /// commitment from a full scan.
    pub fn state_root(&mut self) -> Result<Digest> {
        if self.commitment.is_none() {
            self.commitment = Some(StateCommitment::build(&self.engine)?);
        }
        Ok(self.commitment.as_mut().expect("just built").root())
    }

    /// Flush pages, write the manifest, then log the recovery sidecar.
    fn checkpoint(&mut self) -> Result<()> {
        let root = self.state_root()?;
        self.engine.checkpoint(self.height)?;
        let lo = self
            .height
            .0
            .saturating_sub(self.sidecar_depth.max(1) - 1)
            .max(1);
        let mut w = Writer::with_capacity(256);
        w.put_u64(self.height.0);
        w.put_raw(&self.last_hash.0);
        for b in lo..=self.height.0 {
            let undo = self.snapshots.export_undo_for(BlockId(b));
            w.put_u64(b);
            w.put_u32(u32::try_from(undo.len()).expect("undo count"));
            for (key, before) in &undo {
                put_key(&mut w, key);
                match before {
                    Some(v) => {
                        w.put_u8(1);
                        w.put_bytes(v);
                    }
                    None => w.put_u8(0),
                }
            }
        }
        if let Some(s) = &self.prev_summary {
            w.put_u32(u32::try_from(s.committed_writes.len()).expect("write count"));
            for (key, info) in &s.committed_writes {
                put_key(&mut w, key);
                w.put_u64(info.min_tid);
                w.put_u8(u8::from(info.backward_out));
            }
            w.put_u32(u32::try_from(s.committed_reads.len()).expect("read count"));
            for (key, tid) in &s.committed_reads {
                put_key(&mut w, key);
                w.put_u64(*tid);
            }
        }
        w.put_raw(&root.0);
        self.engine.wal().append(&w.finish())?;
        self.engine.wal().sync()
    }
}

fn put_key(w: &mut Writer, key: &Key) {
    w.put_u16(key.table().0);
    w.put_bytes(key.row());
}
