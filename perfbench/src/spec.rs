//! The benchmark's workloads and the input stream each one is fed.
//!
//! Every workload runs the Harmony engine in its full profile with one
//! worker, checkpoints every 10 blocks and keeps its disks in memory. The
//! storage and crypto cost profiles are the defaults; they only move
//! virtual time, never wall time.

use std::sync::Arc;

use harmony_chain::ChainConfig;
use harmony_common::{DetRng, Result};
use harmony_core::HarmonyConfig;
use harmony_node::cluster::Msg;
use harmony_node::{ClusterWorkload, ReplicaConfig, ShardedReplicaConfig};
use harmony_sim::EngineKind;
use harmony_storage::StorageConfig;
use harmony_transport::WireCodec;
use harmony_workloads::{SmallbankConfig, TpccConfig, YcsbConfig};

/// Client sessions the submissions are spread over (round robin).
const CLIENTS: u64 = 64;

/// Blocks run through the full path during set-up: past the first state
/// commitment build (gossip height 5) and the first checkpoint (10).
pub const WARMUP_BLOCKS: usize = 10;

/// Checkpoint period in blocks.
pub const CHECKPOINT_EVERY: u64 = 10;

/// How a workload's replica is laid out.
#[derive(Clone, Copy)]
pub enum Layout {
    Flat,
    Sharded { shards: usize, partitions: u32 },
}

/// One benchmark workload.
pub struct Spec {
    pub name: &'static str,
    pub workload: ClusterWorkload,
    pub layout: Layout,
    pub block_txns: usize,
    pub buffer_pages: usize,
    /// Drop the buffer cache after the first checkpoint, so the timed
    /// phase starts cold, the way a restarted node does.
    pub cold_cache: bool,
    /// Blocks in one round's timed phase.
    pub timed_blocks: usize,
    /// Nominal length of one round's timed phase, in seconds. A run makes
    /// `ceil(--seconds / round_seconds)` rounds, so the count depends on
    /// the arguments only and the run's counts repeat exactly.
    pub round_seconds: f64,
    /// Rounds a run makes at least, whatever `--seconds` says.
    pub min_rounds: usize,
}

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        let default_pages = StorageConfig::default().buffer_pages;
        Some(match name {
            "smallbank_hot" => Spec {
                name: "smallbank_hot",
                workload: ClusterWorkload::Smallbank(SmallbankConfig {
                    accounts: 1_000,
                    theta: 0.99,
                    ..SmallbankConfig::default()
                }),
                layout: Layout::Flat,
                block_txns: 100,
                buffer_pages: default_pages,
                cold_cache: false,
                timed_blocks: 1_000,
                round_seconds: 3.0,
                min_rounds: 8,
            },
            "ycsb_cold" => Spec {
                name: "ycsb_cold",
                workload: ClusterWorkload::Ycsb(YcsbConfig {
                    keys: 100_000,
                    ops_per_txn: 10,
                    read_ratio: 0.9,
                    theta: 0.6,
                    ..YcsbConfig::default()
                }),
                layout: Layout::Flat,
                block_txns: 100,
                buffer_pages: 512,
                cold_cache: true,
                timed_blocks: 150,
                round_seconds: 4.5,
                min_rounds: 4,
            },
            "tpcc_sharded" => Spec {
                name: "tpcc_sharded",
                workload: ClusterWorkload::Tpcc(TpccConfig {
                    warehouses: 4,
                    scale: 0.05,
                    ..TpccConfig::default()
                }),
                layout: Layout::Sharded {
                    shards: 2,
                    partitions: 16,
                },
                block_txns: 50,
                buffer_pages: default_pages,
                cold_cache: false,
                timed_blocks: 80,
                round_seconds: 5.0,
                min_rounds: 3,
            },
            _ => return None,
        })
    }

    pub fn chain_config(&self) -> ChainConfig {
        ChainConfig {
            storage: StorageConfig {
                buffer_pages: self.buffer_pages,
                ..StorageConfig::default()
            },
            checkpoint_every: CHECKPOINT_EVERY,
            ..ChainConfig::default()
        }
    }

    pub fn engine(&self) -> EngineKind {
        EngineKind::Harmony(HarmonyConfig::default())
    }

    pub fn replica_config(&self) -> ReplicaConfig {
        ReplicaConfig {
            chain: self.chain_config(),
            engine: self.engine(),
            workers: 1,
            ..ReplicaConfig::default()
        }
    }

    pub fn sharded_config(&self, shards: usize, partitions: u32) -> ShardedReplicaConfig {
        ShardedReplicaConfig {
            chain: self.chain_config(),
            engine: self.engine(),
            workers: 1,
            shards,
            partitions,
            partitioning: self.workload.recommended_partitioning(),
            replicated_tables: self.workload.replicated_tables(),
            ..ShardedReplicaConfig::default()
        }
    }

    /// Blocks one round feeds: the warm-up, then the timed phase.
    pub fn total_blocks(&self) -> usize {
        WARMUP_BLOCKS + self.timed_blocks
    }

    /// Rounds of a run measuring `seconds`.
    pub fn rounds(&self, seconds: f64) -> usize {
        ((seconds / self.round_seconds).ceil() as usize).max(self.min_rounds)
    }
}

/// The pre-generated input of one round: one encoded `Msg::Submit` frame
/// per transaction, `block_txns` consecutive frames per block. Every
/// round starts a fresh replica and orderer, so its nonces start at 0.
pub struct Stream {
    pub frames: Vec<Vec<u8>>,
    pub block_txns: usize,
}

impl Stream {
    /// Generate the input of `rounds` rounds from `seed`: one transaction
    /// sequence, cut into consecutive rounds. The same seed gives the same
    /// frames, byte for byte.
    pub fn generate(
        spec: &Spec,
        seed: u64,
        rounds: usize,
        wire: &WireCodec,
    ) -> Result<Vec<Stream>> {
        let generator = spec.workload.generator()?;
        let mut rng = DetRng::new(seed);
        let n = spec.total_blocks() * spec.block_txns;
        Ok((0..rounds)
            .map(|_| Stream {
                frames: (0..n as u64)
                    .map(|i| {
                        wire.encode_msg(&Msg::Submit {
                            client: i % CLIENTS,
                            nonce: i / CLIENTS,
                            submitted_ns: i,
                            contract: generator.next_txn(&mut rng),
                        })
                    })
                    .collect(),
                block_txns: spec.block_txns,
            })
            .collect())
    }

    /// Submit frames of the block with 0-based index `i`.
    pub fn block(&self, i: usize) -> &[Vec<u8>] {
        &self.frames[i * self.block_txns..(i + 1) * self.block_txns]
    }

    /// A digest of every frame, naming the input in the run record.
    pub fn fingerprint(&self) -> String {
        let mut h = harmony_crypto::Sha256::new();
        for f in &self.frames {
            h.update(f);
        }
        h.finalize().to_hex()
    }
}

/// The workload's contract codec, shared by the orderer's wire decoder.
pub fn wire_codec(spec: &Spec) -> Result<Arc<WireCodec>> {
    Ok(Arc::new(WireCodec::new(spec.workload.codec()?)))
}
