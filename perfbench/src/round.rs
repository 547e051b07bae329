//! One round: open a fresh replica, run the warm-up, time a fixed number
//! of blocks through the full path, and check the result.

use std::sync::Arc;
use std::time::{Duration, Instant};

use harmony_chain::ChainBlock;
use harmony_common::{Error, Result};
use harmony_core::BlockStats;
use harmony_crypto::Digest;
use harmony_storage::{IoSnapshot, StorageEngine};
use harmony_transport::WireCodec;

use crate::metrics;
use crate::path::{drop_caches, io_of, receive, resident_pages, Orderer, PlannerCounts, Replica};
use crate::spec::{Layout, Spec, Stream, WARMUP_BLOCKS};
use crate::trace::Tracer;
use crate::traced::{TracedBlock, TracedReplica};

/// What the replica under test is: the node layer's replica, or the
/// traced rebuild of the flat apply path.
enum Target {
    Node(Replica),
    Traced(Box<TracedReplica>),
}

/// Counts of one delivered block.
struct Delivered {
    committed: u64,
    cost_ns: u64,
    traced: Option<TracedBlock>,
}

impl Target {
    fn deliver(&mut self, block: Arc<ChainBlock>, tr: &mut Tracer) -> Result<Delivered> {
        match self {
            Target::Node(r) => {
                let applied = tr.span("node.deliver", |_| r.deliver(block))?;
                Ok(Delivered {
                    committed: applied.iter().map(|a| a.committed as u64).sum(),
                    cost_ns: applied.iter().map(|a| a.cost_ns).sum(),
                    traced: None,
                })
            }
            Target::Traced(r) => {
                let b = tr.span("node.deliver", |tr| r.apply(&block, tr))?;
                Ok(Delivered {
                    committed: b.committed as u64,
                    cost_ns: 0,
                    traced: Some(b),
                })
            }
        }
    }

    fn engines(&self) -> Vec<&Arc<StorageEngine>> {
        match self {
            Target::Node(r) => r.engines(),
            Target::Traced(r) => vec![r.engine()],
        }
    }

    fn height(&self) -> u64 {
        match self {
            Target::Node(r) => r.height(),
            Target::Traced(r) => r.height(),
        }
    }

    fn stats(&self) -> BlockStats {
        match self {
            Target::Node(r) => r.stats(),
            Target::Traced(r) => r.stats(),
        }
    }

    fn planner(&self) -> PlannerCounts {
        match self {
            Target::Node(r) => r.planner(),
            Target::Traced(_) => PlannerCounts::default(),
        }
    }

    /// Keys the state commitment folded for the block just applied.
    fn last_fold_keys(&self) -> u64 {
        match self {
            Target::Node(r) => r.last_fold_keys() as u64,
            Target::Traced(r) => r.last_fold_keys() as u64,
        }
    }

    /// `(own root, full-scan oracle root, divergence alarms)`.
    fn roots(&mut self) -> Result<(Digest, Digest, u64)> {
        match self {
            Target::Node(r) => Ok((r.root()?, r.oracle_root()?, r.divergence_alarms())),
            Target::Traced(r) => Ok((r.state_root()?, harmony_chain::state_root(r.engine())?, 0)),
        }
    }
}

/// Transaction counts of a timed phase.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct TxnCounts {
    pub txns: u64,
    pub committed: u64,
    pub protocol_aborts: u64,
    pub rule1: u64,
    pub interblock: u64,
    pub user: u64,
}

impl TxnCounts {
    fn of(s: &BlockStats) -> TxnCounts {
        TxnCounts {
            txns: s.txns as u64,
            committed: s.committed as u64,
            protocol_aborts: s.protocol_aborts() as u64,
            rule1: s.aborted_rule1 as u64,
            interblock: s.aborted_interblock as u64,
            user: s.user_aborted as u64,
        }
    }

    fn minus(&self, o: &TxnCounts) -> TxnCounts {
        TxnCounts {
            txns: self.txns - o.txns,
            committed: self.committed - o.committed,
            protocol_aborts: self.protocol_aborts - o.protocol_aborts,
            rule1: self.rule1 - o.rule1,
            interblock: self.interblock - o.interblock,
            user: self.user - o.user,
        }
    }

    pub fn plus(&self, o: &TxnCounts) -> TxnCounts {
        TxnCounts {
            txns: self.txns + o.txns,
            committed: self.committed + o.committed,
            protocol_aborts: self.protocol_aborts + o.protocol_aborts,
            rule1: self.rule1 + o.rule1,
            interblock: self.interblock + o.interblock,
            user: self.user + o.user,
        }
    }

    /// Protocol aborts over attempts, user aborts excluded.
    pub fn abort_rate(&self) -> f64 {
        metrics::ratio(self.protocol_aborts, self.txns - self.user)
    }
}

/// Everything one round measured.
#[derive(Default)]
pub struct Round {
    pub traced: bool,
    pub setup_s: f64,
    pub genesis_s: f64,
    pub data_pages: usize,
    pub resident_pages: usize,
    pub latencies_ns: Vec<u64>,
    pub deliver_ns: u64,
    pub wall_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    pub blocks: u64,
    pub committed: u64,
    pub cost_ns: u64,
    pub fold_keys: u64,
    pub sim_ns: u64,
    pub commit_ns: u64,
    pub reads: u64,
    pub writes: u64,
    pub txns: TxnCounts,
    pub io: IoSnapshot,
    pub planner: PlannerCounts,
    pub rejects: u64,
    pub deliver_bytes: u64,
    pub root: Option<Digest>,
    pub errors: Vec<String>,
}

impl Round {
    /// The counts that must repeat exactly whenever this round's input is
    /// run again, one `name=value` per line.
    pub fn fingerprint(&self) -> String {
        let (t, io, p) = (&self.txns, &self.io, &self.planner);
        let counts = [
            ("txns", t.txns),
            ("committed", t.committed),
            ("protocol_aborts", t.protocol_aborts),
            ("rule1", t.rule1),
            ("interblock", t.interblock),
            ("user_aborts", t.user),
            ("cost_ns", self.cost_ns),
            ("fold_keys", self.fold_keys),
            ("rejects", self.rejects),
            ("deliver_bytes", self.deliver_bytes),
            ("pool_hits", io.pool.hits),
            ("pool_misses", io.pool.misses),
            ("disk_reads", io.disk_reads),
            ("disk_writes", io.disk_writes),
            ("planner_single", p.single),
            ("planner_cross", p.cross),
            ("planner_survivors", p.survivors),
            ("planner_conflicts", p.conflicts),
        ];
        let root = self.root.map_or_else(|| "none".into(), |d| d.to_hex());
        counts.iter().fold(format!("root={root}\n"), |s, (k, v)| {
            s + &format!("{k}={v}\n")
        })
    }
}

/// Open a replica, load genesis and run the warm-up blocks. Returns the
/// target, the orderer, the genesis-load seconds and the pages cached
/// after the warm-up (before any cache drop).
fn set_up(
    spec: &Spec,
    stream: &Stream,
    wire: &Arc<WireCodec>,
    traced: bool,
) -> Result<(Target, Orderer, f64, usize)> {
    let mut genesis = Duration::ZERO;
    let workload = &spec.workload;
    let mut load = |e: &Arc<StorageEngine>| {
        let t = Instant::now();
        let codec = workload.setup_node(e);
        genesis += t.elapsed();
        codec
    };
    // The sharded replica is traced as one `deliver` span.
    let mut target = if traced && matches!(spec.layout, Layout::Flat) {
        Target::Traced(Box::new(TracedReplica::open(spec, load)?))
    } else {
        Target::Node(Replica::open(spec, &mut load)?)
    };
    let mut orderer = Orderer::new(&spec.chain_config(), Arc::clone(wire));
    let mut off = Tracer::new(false);
    for b in 0..WARMUP_BLOCKS {
        let frame = orderer.order(stream.block(b), &mut off)?;
        let block = receive(wire, &frame, &mut off)?;
        target.deliver(block, &mut off)?;
    }
    let data_pages = resident_pages(&target.engines());
    if spec.cold_cache {
        drop_caches(&target.engines())?;
    }
    Ok((target, orderer, genesis.as_secs_f64(), data_pages))
}

/// One round: set up, then time `spec.timed_blocks` blocks.
pub fn run_round(spec: &Spec, stream: &Stream, wire: &Arc<WireCodec>, tr: &mut Tracer) -> Round {
    let mut round = Round {
        traced: tr.enabled(),
        ..Round::default()
    };
    let t0 = Instant::now();
    let (mut target, mut orderer, genesis_s, data_pages) =
        match set_up(spec, stream, wire, tr.enabled()) {
            Ok(x) => x,
            Err(e) => {
                round.attempted = (spec.timed_blocks * spec.block_txns) as u64;
                round.failed = round.attempted;
                round.errors.push(format!("set-up failed: {e}"));
                return round;
            }
        };
    round.setup_s = t0.elapsed().as_secs_f64();
    round.genesis_s = genesis_s;
    round.data_pages = data_pages;
    round.resident_pages = resident_pages(&target.engines());
    if spec.cold_cache && round.resident_pages > spec.buffer_pages {
        round.errors.push(format!(
            "{} pages resident after the cache drop, over the {}-page pool",
            round.resident_pages, spec.buffer_pages
        ));
    }

    let io0 = io_of(&target.engines());
    let txns0 = TxnCounts::of(&target.stats());
    let planner0 = target.planner();
    let bytes0 = orderer.deliver_bytes;
    round.latencies_ns.reserve(spec.timed_blocks);
    for b in WARMUP_BLOCKS..spec.total_blocks() {
        round.attempted += spec.block_txns as u64;
        tr.block = b as u64 + 1;
        let start = Instant::now();
        let step = (|| {
            let frame = orderer.order(stream.block(b), tr)?;
            let block = receive(wire, &frame, tr)?;
            let d0 = Instant::now();
            let delivered = target.deliver(block, tr)?;
            Ok::<_, Error>((delivered, d0.elapsed()))
        })();
        let end = Instant::now();
        match step {
            Ok((delivered, deliver)) => {
                let window = nanos(end - start);
                round.latencies_ns.push(window);
                round.wall_ns += window;
                round.deliver_ns += nanos(deliver);
                round.blocks += 1;
                round.committed += delivered.committed;
                round.cost_ns += delivered.cost_ns;
                round.fold_keys += target.last_fold_keys();
                if let Some(t) = &delivered.traced {
                    round.sim_ns += t.sim_ns;
                    round.commit_ns += t.commit_ns;
                    round.reads += t.reads as u64;
                    round.writes += t.writes as u64;
                }
            }
            Err(e) => {
                let left = (spec.total_blocks() - b) * spec.block_txns;
                round.attempted += (left - spec.block_txns) as u64;
                round.failed += left as u64;
                round.errors.push(format!("block {}: {e}", b + 1));
                break;
            }
        }
    }
    round.io = io_of(&target.engines()).delta_since(&io0);
    round.txns = TxnCounts::of(&target.stats()).minus(&txns0);
    round.planner = target.planner().minus(&planner0);
    // Rejects count over the whole round, warm-up included.
    round.rejects = orderer.rejects;
    round.deliver_bytes = orderer.deliver_bytes - bytes0;
    round.failed += round.rejects;
    if round.rejects > 0 {
        round
            .errors
            .push(format!("{} admission rejects", round.rejects));
    }

    // Correctness gate: the replica's root equals the full-scan oracle,
    // no divergence alarm fired and every block was applied.
    match target.roots() {
        Ok((root, oracle, alarms)) => {
            round.root = Some(root);
            if root != oracle {
                round.errors.push(format!(
                    "state root {} != full-scan oracle {}",
                    root.to_hex(),
                    oracle.to_hex()
                ));
            }
            if alarms > 0 {
                round.errors.push(format!("{alarms} divergence alarms"));
            }
        }
        Err(e) => round.errors.push(format!("root: {e}")),
    }
    if round.errors.is_empty() && target.height() != spec.total_blocks() as u64 {
        round.errors.push(format!(
            "height {} after {} blocks",
            target.height(),
            spec.total_blocks()
        ));
    }
    round
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).expect("duration fits u64 nanoseconds")
}
