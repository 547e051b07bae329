//! The state-sync protocol: how a lagging replica catches up from a peer.
//!
//! The requester sends its per-shard heights; the serving peer judges
//! every shard independently and answers with one part per shard, each
//! on one of two paths:
//!
//! 1. **Checkpoint manifest transfer** — when the requester is so far
//!    behind that block-range replay is impossible (it predates the
//!    peer's own local history) or uneconomical (the gap exceeds
//!    [`SyncPolicy::snapshot_threshold`]), the peer ships a
//!    [`StateSnapshot`] of the shard's state at the current height, plus
//!    any blocks it commits afterwards.
//! 2. **Block-range replay** — otherwise the peer serves the shard's
//!    verified block log after the requester's height and the requester
//!    replays it deterministically.
//!
//! One crashed shard can thus take the manifest path (its checkpoint
//! never landed) while a sibling replays a verified sub-block range
//! ([`serve_sharded_sync`] / [`apply_sharded_sync`]). The response also
//! carries the peer's global block hash, re-anchoring the requester's
//! global chain position (which is in-memory state lost by a crash). A
//! one-partition (flat) replica is the one-part case, anchored at its
//! chain's last hash.
//!
//! All responses carry real serialized sizes so the discrete-event
//! network charges honest transfer time.

use harmony_chain::sync::StateSnapshot;
use harmony_chain::{ChainBlock, OeChain};
use harmony_common::{BlockId, Error, Result};
use harmony_crypto::Digest;

use crate::replica::ReplicaNode;

/// Serving-side policy for sync requests.
#[derive(Clone, Copy, Debug)]
pub struct SyncPolicy {
    /// Gaps larger than this many blocks are served as a snapshot rather
    /// than a replay range.
    pub snapshot_threshold: u64,
}

impl Default for SyncPolicy {
    fn default() -> Self {
        SyncPolicy {
            snapshot_threshold: 64,
        }
    }
}

/// Requester-side failure policy: how long to wait for a sync reply, how
/// the wait grows across attempts, and when to stop trying one cycle.
///
/// A request that times out (serving peer down, request or reply dropped
/// by the network) or is refused (peer alive but not serviceable) is
/// retried against the *next* candidate peer with an exponentially grown,
/// jittered wait — classic timeout/backoff/failover, but every quantity
/// is a pure function of (seed, replica, attempt) so the schedule is
/// bit-reproducible.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Wait for the first attempt's reply before retrying, in virtual ns.
    pub base_timeout_ns: u64,
    /// Upper bound on the exponentially grown wait.
    pub max_backoff_ns: u64,
    /// Attempts per sync cycle before the requester gives up and waits
    /// for the liveness watchdog to start a fresh cycle.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_timeout_ns: 4_000_000, // 4 ms — a LAN round-trip plus serve time
            max_backoff_ns: 64_000_000, // cap the exponential at 64 ms
            max_retries: 8,
        }
    }
}

impl RetryPolicy {
    /// The wait before declaring attempt `attempt` (0-based) failed:
    /// `base · 2^attempt`, capped at `max_backoff_ns`, plus a
    /// deterministic jitter of up to 25% (decorrelates retry storms
    /// across replicas without a shared RNG). Pure in every argument —
    /// same `(policy, attempt, seed, salt)` always yields the same wait,
    /// which is what keeps faulted runs bit-reproducible.
    #[must_use]
    pub fn backoff_ns(&self, attempt: u32, seed: u64, salt: u64) -> u64 {
        let exp = attempt.min(20); // 2^20 · base already dwarfs any cap
        let grown = self
            .base_timeout_ns
            .saturating_mul(1u64 << exp)
            .min(self.max_backoff_ns.max(self.base_timeout_ns));
        // splitmix64-style mixing, same family as the net layer's jitter.
        let mut x = seed
            ^ 0xA076_1D64_78BD_642F
            ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ salt.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        grown + x % (grown / 4).max(1)
    }
}

/// One shard's part of a [`ShardedSyncResponse`].
#[derive(Clone, Debug)]
pub enum SyncResponse {
    /// Replay these verified blocks (all with id > the requested height).
    Range(Vec<ChainBlock>),
    /// Install this manifest, then replay the (possibly empty) tail.
    Snapshot(Box<StateSnapshot>, Vec<ChainBlock>),
}

impl SyncResponse {
    /// Modeled transfer size in bytes.
    #[must_use]
    pub fn transfer_bytes(&self) -> u64 {
        let blocks_bytes =
            |blocks: &[ChainBlock]| blocks.iter().map(|b| b.encode().len() as u64).sum::<u64>();
        match self {
            SyncResponse::Range(blocks) => blocks_bytes(blocks) + 64,
            SyncResponse::Snapshot(snap, blocks) => {
                snap.encode().len() as u64 + blocks_bytes(blocks) + 64
            }
        }
    }

    /// Bytes of this response that are checkpoint-manifest payload (the
    /// serialized [`StateSnapshot`] plus the response header). Zero on
    /// the range path; [`Self::range_bytes`] is the exact complement, so
    /// `manifest_bytes() + range_bytes() == transfer_bytes()` always.
    #[must_use]
    pub fn manifest_bytes(&self) -> u64 {
        match self {
            SyncResponse::Range(_) => 0,
            SyncResponse::Snapshot(snap, _) => snap.encode().len() as u64 + 64,
        }
    }

    /// Bytes of this response that are replayable-block payload (plus
    /// the response header on the range path). Complement of
    /// [`Self::manifest_bytes`]. Saturating: a malformed or
    /// future-version reply whose manifest share exceeds its total must
    /// read as zero range bytes, not underflow (this feeds metrics, and
    /// a hostile peer must never panic a node).
    #[must_use]
    pub fn range_bytes(&self) -> u64 {
        self.transfer_bytes().saturating_sub(self.manifest_bytes())
    }

    /// Number of blocks shipped.
    #[must_use]
    pub fn block_count(&self) -> usize {
        match self {
            SyncResponse::Range(blocks) | SyncResponse::Snapshot(_, blocks) => blocks.len(),
        }
    }
}

/// Serve a sync request against one chain: decide manifest vs range per
/// `policy` and the chain's own local history.
fn serve_chain(chain: &OeChain, from: BlockId, policy: SyncPolicy) -> Result<SyncResponse> {
    let (base, _) = chain.base();
    let gap = chain.height().0.saturating_sub(from.0);
    if from.0 == 0 || from < base || gap > policy.snapshot_threshold {
        // A height-0 requester may have lost its genesis state entirely
        // (crash before the first checkpoint), the requester may predate
        // this peer's local history, or the gap is too wide: ship the
        // full manifest. No tail blocks are needed — the snapshot is at
        // the peer's current height.
        let snapshot = chain.export_snapshot()?;
        Ok(SyncResponse::Snapshot(Box::new(snapshot), Vec::new()))
    } else {
        Ok(SyncResponse::Range(chain.blocks_after(from)?))
    }
}

/// A peer's answer to a `SyncRequest { from }`: one independently
/// decided manifest-or-range part per shard, all ending at the peer's
/// common height, plus the global-chain anchor the requester lost in the
/// crash.
#[derive(Clone, Debug)]
pub struct ShardedSyncResponse {
    /// The peer's global height every part catches the requester up to.
    pub height: BlockId,
    /// Hash of the global block at `height` (the requester's new anchor).
    pub global_hash: Digest,
    /// The peer's topology epoch at `height`. A requester that crashed
    /// across one or more reshard boundaries misses those markers
    /// entirely (the manifest path never replays them), so the reply
    /// carries the authoritative epoch and the requester adopts it —
    /// monotonically, in case it raced past a stale reply.
    pub epoch: u64,
    /// One part per shard, in shard order.
    pub parts: Vec<SyncResponse>,
}

impl ShardedSyncResponse {
    /// Modeled transfer size in bytes.
    #[must_use]
    pub fn transfer_bytes(&self) -> u64 {
        64 + self
            .parts
            .iter()
            .map(SyncResponse::transfer_bytes)
            .sum::<u64>()
    }

    /// Checkpoint-manifest bytes summed over every part that took the
    /// manifest path. With [`Self::range_bytes`] this exactly partitions
    /// [`Self::transfer_bytes`] (the top-level anchor header rides with
    /// the range share).
    #[must_use]
    pub fn manifest_bytes(&self) -> u64 {
        self.parts.iter().map(SyncResponse::manifest_bytes).sum()
    }

    /// Block-replay bytes summed over every part, plus the top-level
    /// anchor header. Complement of [`Self::manifest_bytes`].
    /// Saturating, like [`SyncResponse::range_bytes`]: corrupted replies
    /// must never underflow the accounting.
    #[must_use]
    pub fn range_bytes(&self) -> u64 {
        self.transfer_bytes().saturating_sub(self.manifest_bytes())
    }

    /// Number of sub-blocks shipped across all parts.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.parts.iter().map(SyncResponse::block_count).sum()
    }

    /// How many shards were served the checkpoint-manifest path.
    #[must_use]
    pub fn manifest_shards(&self) -> u64 {
        self.parts
            .iter()
            .filter(|p| matches!(p, SyncResponse::Snapshot(..)))
            .count() as u64
    }

    /// How many shards were served the block-range-replay path.
    #[must_use]
    pub fn range_shards(&self) -> u64 {
        self.parts
            .iter()
            .filter(|p| matches!(p, SyncResponse::Range(_)))
            .count() as u64
    }
}

/// Serve a sharded sync request: judge every shard independently against
/// the requester's per-shard heights. The peer must be fully caught up
/// itself (anchored, shards level) — the cluster only routes sync
/// requests to stable replicas.
pub fn serve_sharded_sync(
    peer: &ReplicaNode,
    from: &[BlockId],
    policy: SyncPolicy,
) -> Result<ShardedSyncResponse> {
    let global_hash = peer.global_hash().ok_or_else(|| {
        Error::InvalidArgument("sync peer has no global anchor (still recovering?)".into())
    })?;
    // A shard-count mismatch means the requester sits on the far side of
    // a topology-change (reshard) boundary: its per-shard heights are
    // meaningless under this peer's layout, so every current shard is
    // served from scratch (full manifest). The reply's part count tells
    // the requester the layout it must reshape into.
    let crossed_epoch = from.len() != peer.shards();
    let parts = (0..peer.shards())
        .map(|s| {
            let at = if crossed_epoch { BlockId(0) } else { from[s] };
            serve_chain(peer.shard_chain(s), at, policy)
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(ShardedSyncResponse {
        height: peer.height(),
        global_hash,
        epoch: peer.epoch(),
        parts,
    })
}

/// What a sharded sync application did at the requester.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardedSyncApplied {
    /// Sub-blocks applied (snapshot installs count as the height jump).
    pub blocks: u64,
    /// Shards brought up via checkpoint-manifest install.
    pub manifest_shards: u64,
    /// Shards brought up via block-range replay.
    pub range_shards: u64,
}

/// Apply a sharded sync response: every shard takes its served path, then
/// the replica's global position is re-anchored at the peer's height and
/// buffered deliveries drain. Returns what happened per path (the
/// crash-rejoin tests assert both paths were actually exercised).
pub fn apply_sharded_sync(
    replica: &mut ReplicaNode,
    response: &ShardedSyncResponse,
) -> Result<ShardedSyncApplied> {
    if response.parts.len() != replica.shards() {
        // The serving peer is on the other side of a reshard boundary:
        // adopt its layout (fresh chains, recounted router) and take the
        // full-manifest parts it served. A reply that claims a different
        // count but still ships ranges is malformed and fails below with
        // a typed error — never a panic.
        if response.parts.is_empty() {
            return Err(Error::InvalidArgument(
                "sharded sync response with zero parts".into(),
            ));
        }
        replica.reshape_for_sync(response.parts.len())?;
    }
    let mut applied = ShardedSyncApplied::default();
    for (s, part) in response.parts.iter().enumerate() {
        match part {
            SyncResponse::Range(blocks) => {
                applied.blocks += replica.catch_up_shard_from_blocks(s, blocks)? as u64;
                applied.range_shards += 1;
            }
            SyncResponse::Snapshot(snapshot, blocks) => {
                applied.blocks +=
                    replica.bootstrap_shard_from_snapshot(s, snapshot, blocks)? as u64;
                applied.manifest_shards += 1;
            }
        }
    }
    replica.adopt_epoch(response.epoch);
    let drained = replica.finish_sync(response.height, response.global_hash)?;
    applied.blocks += drained.len() as u64;
    Ok(applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_chain::ChainConfig;
    use harmony_sim::EngineKind;
    use harmony_workloads::{Workload, Ycsb, YcsbCodec, YcsbConfig};
    use std::sync::Arc;

    use crate::replica::ReplicaConfig;

    fn ycsb_replica(checkpoint_every: u64) -> ReplicaNode {
        ReplicaNode::new(
            &ReplicaConfig {
                chain: ChainConfig {
                    checkpoint_every,
                    ..ChainConfig::in_memory()
                },
                engine: EngineKind::Harmony(harmony_core::HarmonyConfig::default()),
                workers: 2,
                gossip_every: 4,
            },
            |eng| {
                let mut w = Ycsb::new(YcsbConfig {
                    keys: 150,
                    theta: 0.6,
                    ..YcsbConfig::default()
                });
                w.setup(eng)?;
                Ok(Arc::new(YcsbCodec { table: w.table() }))
            },
        )
        .unwrap()
    }

    fn advance(r: &mut ReplicaNode, blocks: usize, rng: &mut harmony_common::DetRng) {
        let mut w = Ycsb::new(YcsbConfig {
            keys: 150,
            theta: 0.6,
            ..YcsbConfig::default()
        });
        let scratch =
            harmony_storage::StorageEngine::open(&harmony_storage::StorageConfig::memory())
                .unwrap();
        w.setup(&scratch).unwrap();
        for _ in 0..blocks {
            let txns = w.next_block(rng, 10);
            let codec = Arc::clone(r.codec());
            let sealed = r.chain().seal_block(&txns, codec.as_ref());
            r.deliver(Arc::new(sealed)).unwrap();
        }
    }

    #[test]
    fn backoff_schedule_is_deterministic() {
        let p = RetryPolicy::default();
        for attempt in 0..12 {
            for salt in [0u64, 3, 7] {
                assert_eq!(
                    p.backoff_ns(attempt, 0xDEAD, salt),
                    p.backoff_ns(attempt, 0xDEAD, salt),
                    "same inputs must yield the same wait"
                );
            }
        }
        // Different seeds / salts decorrelate the jitter.
        assert_ne!(
            p.backoff_ns(1, 0xDEAD, 2),
            p.backoff_ns(1, 0xBEEF, 2),
            "seed must perturb the jitter"
        );
    }

    #[test]
    fn backoff_grows_exponentially_then_caps() {
        let p = RetryPolicy {
            base_timeout_ns: 1_000_000,
            max_backoff_ns: 8_000_000,
            max_retries: 8,
        };
        let wait = |a| p.backoff_ns(a, 42, 0);
        // Jitter is < 25%, so consecutive doublings still strictly grow.
        assert!(wait(1) > wait(0), "attempt 1 waits longer than attempt 0");
        assert!(wait(2) > wait(1));
        // Bounds: base·2^a ≤ wait < 1.25 · base·2^a (pre-cap)…
        assert!(wait(0) >= 1_000_000 && wait(0) < 1_250_000);
        assert!(wait(2) >= 4_000_000 && wait(2) < 5_000_000);
        // …and the growth saturates at the cap (+ jitter).
        for a in [3, 10, 31] {
            assert!(wait(a) >= 8_000_000 && wait(a) < 10_000_000, "capped");
        }
        // Overflow safety at absurd attempt counts.
        let _ = p.backoff_ns(u32::MAX, 42, 0);
    }

    #[test]
    fn small_gap_served_as_range_large_gap_as_snapshot() {
        let mut peer = ycsb_replica(5);
        let mut rng = harmony_common::DetRng::new(1);
        advance(&mut peer, 12, &mut rng);
        let policy = SyncPolicy {
            snapshot_threshold: 8,
        };
        let range = serve_sharded_sync(&peer, &[BlockId(8)], policy).unwrap();
        assert!(matches!(
            range.parts.as_slice(),
            [SyncResponse::Range(b)] if b.len() == 4
        ));
        assert_eq!(range.global_hash, peer.chain().last_hash());
        let resp = serve_sharded_sync(&peer, &[BlockId(0)], policy).unwrap();
        assert!(matches!(
            resp.parts.as_slice(),
            [SyncResponse::Snapshot(..)]
        ));
        assert!(resp.transfer_bytes() > 0);
    }

    #[test]
    fn transfer_bytes_split_exactly_by_path() {
        let mut peer = ycsb_replica(5);
        let mut rng = harmony_common::DetRng::new(3);
        advance(&mut peer, 12, &mut rng);
        let policy = SyncPolicy {
            snapshot_threshold: 8,
        };
        // Range path: all bytes are range bytes.
        let range = serve_sharded_sync(&peer, &[BlockId(8)], policy).unwrap();
        assert_eq!(range.manifest_bytes(), 0);
        assert_eq!(range.range_bytes(), range.transfer_bytes());
        assert!(range.range_bytes() > 64, "blocks plus header");
        // Manifest path: the manifest dominates, and the two shares
        // partition the total exactly.
        let snap = serve_sharded_sync(&peer, &[BlockId(0)], policy).unwrap();
        assert!(snap.manifest_bytes() > 0);
        assert_eq!(
            snap.manifest_bytes() + snap.range_bytes(),
            snap.transfer_bytes()
        );
    }

    #[test]
    fn range_bytes_saturates_on_corrupted_reply() {
        // A corrupted (or future-version) reply can degenerate to a frame
        // that is all manifest: the range share must read zero, never
        // underflow — and the exact-partition invariant
        // `manifest_bytes + range_bytes == transfer_bytes` must hold on
        // every reply a node can decode, well-formed or not.
        let hollow = StateSnapshot {
            height: BlockId(0),
            last_hash: Digest::ZERO,
            tables: Vec::new(),
            undo: Vec::new(),
            summary: None,
        };
        let corrupted = SyncResponse::Snapshot(Box::new(hollow.clone()), Vec::new());
        assert_eq!(corrupted.range_bytes(), 0, "all-manifest frame");
        assert_eq!(
            corrupted.manifest_bytes() + corrupted.range_bytes(),
            corrupted.transfer_bytes()
        );
        // Same invariant on the sharded envelope, with a part mix a
        // hostile peer could ship (hollow manifests and an empty range).
        let sharded = ShardedSyncResponse {
            height: BlockId(7),
            global_hash: Digest::ZERO,
            epoch: 0,
            parts: vec![
                SyncResponse::Snapshot(Box::new(hollow), Vec::new()),
                SyncResponse::Range(Vec::new()),
            ],
        };
        assert_eq!(
            sharded.manifest_bytes() + sharded.range_bytes(),
            sharded.transfer_bytes()
        );
        assert!(
            sharded.range_bytes() >= 64,
            "anchor header rides the range share"
        );
    }

    #[test]
    fn snapshot_sync_bootstraps_a_fresh_replica() {
        let mut peer = ycsb_replica(5);
        let mut rng = harmony_common::DetRng::new(2);
        advance(&mut peer, 10, &mut rng);
        let resp = serve_sharded_sync(
            &peer,
            &[BlockId(0)],
            SyncPolicy {
                snapshot_threshold: 4,
            },
        )
        .unwrap();
        // install_snapshot requires an empty database: build the joiner
        // without genesis data (state comes entirely from the peer).
        let mut joiner_fresh = ReplicaNode::new(
            &ReplicaConfig {
                chain: ChainConfig {
                    checkpoint_every: 5,
                    ..ChainConfig::in_memory()
                },
                engine: EngineKind::Harmony(harmony_core::HarmonyConfig::default()),
                workers: 2,
                gossip_every: 4,
            },
            |_| {
                let w = Ycsb::new(YcsbConfig {
                    keys: 150,
                    theta: 0.6,
                    ..YcsbConfig::default()
                });
                Ok(Arc::new(YcsbCodec { table: w.table() }))
            },
        )
        .unwrap();
        let applied = apply_sharded_sync(&mut joiner_fresh, &resp).unwrap();
        assert_eq!(applied.blocks, 10);
        assert_eq!(applied.manifest_shards, 1);
        assert_eq!(joiner_fresh.height(), peer.height());
        assert_eq!(
            joiner_fresh.state_root().unwrap(),
            peer.state_root().unwrap()
        );
        // And it keeps up with subsequent sealed blocks.
        let mut w = Ycsb::new(YcsbConfig {
            keys: 150,
            theta: 0.6,
            ..YcsbConfig::default()
        });
        let scratch =
            harmony_storage::StorageEngine::open(&harmony_storage::StorageConfig::memory())
                .unwrap();
        w.setup(&scratch).unwrap();
        let txns = w.next_block(&mut rng, 10);
        let codec = Arc::clone(peer.codec());
        let sealed = Arc::new(peer.chain().seal_block(&txns, codec.as_ref()));
        peer.deliver(Arc::clone(&sealed)).unwrap();
        joiner_fresh.deliver(sealed).unwrap();
        assert_eq!(
            joiner_fresh.state_root().unwrap(),
            peer.state_root().unwrap()
        );
    }
}
