//! The engine selector: the paper's five systems, each in two profiles.
//!
//! The **full profile** ([`EngineKind::build_at`]) is what a flat chain
//! runs. The **sharded profile** ([`EngineKind::build_sharded_at`]) is
//! what every shard chain runs. It normalizes two engine-level behaviours
//! so that commit/abort decisions depend only on conflict structure and
//! *relative* transaction order (the invariant behind N-shard ≡ 1-shard
//! state equivalence and cross-shard atomicity):
//!
//! * **Harmony: inter-block parallelism off.** Under Rule 3 a transaction
//!   whose snapshot missed the previous block's writes can abort; applied
//!   to a cross-shard fragment that staleness is shard-local (each shard's
//!   fragment reads different keys), so shards could disagree about one
//!   transaction — exactly the atomicity violation the reservation pass
//!   exists to prevent. Intra-block parallelism and the full
//!   reordering/coalescence machinery stay on; blocks across *shards*
//!   still run concurrently.
//! * **Fabric / FastFabric#: endorser lag and validation delay off.** The
//!   lag sampler is deliberately seeded by (block, txn-position), which is
//!   not invariant under re-splitting blocks into sub-blocks; and a
//!   non-zero validation delay lets a fragment's reads go stale against
//!   the previous block on one shard but not another. The order-execute
//!   shard router also genuinely removes the client-side endorsement round
//!   that those knobs model.
//!
//! Aria and RBC need no adjustment: their rules are already pure functions
//! of pairwise conflicts and relative TID order.

use std::str::FromStr;
use std::sync::Arc;

use harmony_common::{BlockId, Result};
use harmony_core::executor::BlockSummary;
use harmony_core::{HarmonyConfig, SnapshotStore};
use harmony_dcc_baselines::{
    Aria, AriaConfig, DccEngine, Fabric, FabricConfig, FastFabric, FastFabricConfig, HarmonyEngine,
    Rbc,
};

/// Which engine to instantiate (the paper's five systems).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// HarmonyBC with the given toggles.
    Harmony(HarmonyConfig),
    /// AriaBC.
    Aria,
    /// RBC.
    Rbc,
    /// Fabric.
    Fabric,
    /// FastFabric#.
    FastFabric,
}

impl EngineKind {
    /// Display name matching the paper.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Harmony(_) => "HarmonyBC",
            EngineKind::Aria => "AriaBC",
            EngineKind::Rbc => "RBC",
            EngineKind::Fabric => "Fabric",
            EngineKind::FastFabric => "FastFabric#",
        }
    }

    /// Instantiate over a snapshot store (full profile).
    #[must_use]
    pub fn build(&self, store: Arc<SnapshotStore>, workers: usize) -> Arc<dyn DccEngine> {
        self.build_at(store, workers, BlockId(1), None)
    }

    /// Instantiate in the full profile, positioned at an arbitrary next
    /// block — the recovery / state-sync entry point. `prev_summary` seeds
    /// Harmony's Rule-3 inter-block validation (ignored by the other
    /// engines, whose rules are per-block).
    #[must_use]
    pub fn build_at(
        &self,
        store: Arc<SnapshotStore>,
        workers: usize,
        next_block: BlockId,
        prev_summary: Option<BlockSummary>,
    ) -> Arc<dyn DccEngine> {
        self.build_profile(store, workers, next_block, prev_summary, false)
    }

    /// Instantiate in the sharded profile (see the module docs),
    /// positioned at an arbitrary next block — what every shard chain's
    /// factory builds on open, crash recovery and snapshot install.
    /// Harmony keeps its ablation toggles apart from the inter-block
    /// parallelism the profile forbids, which also makes a previous-block
    /// summary moot.
    #[must_use]
    pub fn build_sharded_at(
        &self,
        store: Arc<SnapshotStore>,
        workers: usize,
        next_block: BlockId,
    ) -> Arc<dyn DccEngine> {
        self.build_profile(store, workers, next_block, None, true)
    }

    fn build_profile(
        &self,
        store: Arc<SnapshotStore>,
        workers: usize,
        next_block: BlockId,
        prev_summary: Option<BlockSummary>,
        sharded: bool,
    ) -> Arc<dyn DccEngine> {
        let mut fabric = FabricConfig {
            workers,
            ..FabricConfig::default()
        };
        if sharded {
            fabric.endorser_lag_prob = 0.0;
            fabric.validation_delay = 0;
        }
        match self {
            EngineKind::Harmony(config) => Arc::new(HarmonyEngine::starting_at(
                store,
                HarmonyConfig {
                    workers,
                    inter_block_parallelism: config.inter_block_parallelism && !sharded,
                    ..*config
                },
                next_block,
                prev_summary,
            )),
            EngineKind::Aria => Arc::new(Aria::starting_at(
                store,
                AriaConfig {
                    workers,
                    reordering: true,
                },
                next_block,
            )),
            EngineKind::Rbc => Arc::new(Rbc::starting_at(store, workers, next_block)),
            EngineKind::Fabric => Arc::new(Fabric::starting_at(store, fabric, next_block)),
            EngineKind::FastFabric => Arc::new(FastFabric::starting_at(
                store,
                FastFabricConfig {
                    fabric,
                    ..FastFabricConfig::default()
                },
                next_block,
            )),
        }
    }
}

impl FromStr for EngineKind {
    type Err = harmony_common::Error;

    /// Case-insensitive parse of the paper names and their short forms:
    /// `HarmonyBC`/`harmony`, `AriaBC`/`aria`, `RBC`, `Fabric`,
    /// `FastFabric#`/`fastfabric`. On failure the error enumerates every
    /// valid spelling, so a typo in `HARMONY_ENGINES` tells the user
    /// exactly what is accepted.
    fn from_str(s: &str) -> Result<EngineKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "harmony" | "harmonybc" => Ok(EngineKind::Harmony(HarmonyConfig::default())),
            "aria" | "ariabc" => Ok(EngineKind::Aria),
            "rbc" => Ok(EngineKind::Rbc),
            "fabric" => Ok(EngineKind::Fabric),
            "fastfabric" | "fastfabric#" => Ok(EngineKind::FastFabric),
            other => Err(harmony_common::Error::InvalidArgument(format!(
                "unknown engine {other:?}; valid engines (case-insensitive): \
                 HarmonyBC (harmony), AriaBC (aria), RBC (rbc), \
                 Fabric (fabric), FastFabric# (fastfabric)"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_storage::{StorageConfig, StorageEngine};

    fn all() -> [EngineKind; 5] {
        [
            EngineKind::Fabric,
            EngineKind::FastFabric,
            EngineKind::Rbc,
            EngineKind::Aria,
            EngineKind::Harmony(HarmonyConfig::default()),
        ]
    }

    #[test]
    fn names_and_parse_round_trip() {
        for e in all() {
            assert_eq!(e.name().parse::<EngineKind>().unwrap(), e);
        }
        assert!("postgres".parse::<EngineKind>().is_err());
    }

    #[test]
    fn parse_is_case_insensitive() {
        for s in [
            "HARMONY",
            "HarMoNyBc",
            " ariabc ",
            "Rbc",
            "FABRIC",
            "FastFabric#",
        ] {
            assert!(s.parse::<EngineKind>().is_ok(), "{s:?} must parse");
        }
    }

    #[test]
    fn parse_error_enumerates_valid_engines() {
        let err = "mysql".parse::<EngineKind>().unwrap_err().to_string();
        for name in ["HarmonyBC", "AriaBC", "RBC", "Fabric", "FastFabric#"] {
            assert!(err.contains(name), "error must list {name}: {err}");
        }
        assert!(
            err.contains("mysql"),
            "error must echo the bad input: {err}"
        );
    }

    #[test]
    fn builds_every_engine() {
        for e in all() {
            for sharded in [false, true] {
                let engine = Arc::new(StorageEngine::open(&StorageConfig::memory()).unwrap());
                let store = Arc::new(SnapshotStore::new(engine));
                let dcc = if sharded {
                    e.build_sharded_at(store, 2, BlockId(1))
                } else {
                    e.build(store, 2)
                };
                assert_eq!(dcc.name(), e.name());
            }
        }
    }
}
