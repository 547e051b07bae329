//! Deterministic task scheduling on virtual worker cores, and the two
//! virtual-time block-cost formulas ([`flat_block_cost`],
//! [`planned_block_ns`]) shared by the experiment driver and the replica.

use harmony_dcc_baselines::{DccEngine, ProtocolBlockResult};
use harmony_shard::ShardBlockResult;

/// Virtual-time profile of one executed block.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BlockSchedule {
    /// Makespan of the parallel simulation step on `W` cores.
    pub sim_ns: u64,
    /// Makespan of the commit step (serial sum or parallel makespan).
    pub commit_ns: u64,
    /// Centralized ordering-service work (FastFabric# graph traversal).
    pub orderer_ns: u64,
    /// Total CPU-work in the block (for utilization accounting).
    pub work_ns: u64,
    /// CPU-work of the pre-commit stage (orderer + simulation).
    pub pre_work_ns: u64,
    /// CPU-work of the commit stage.
    pub commit_work_ns: u64,
}

impl BlockSchedule {
    /// Non-pipelined wall time of the block.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.orderer_ns + self.sim_ns + self.commit_ns
    }
}

/// Greedy list-scheduling makespan: tasks assigned in index order to the
/// least-loaded of `workers` cores. Deterministic; within 2× of optimal
/// (Graham's bound), which is plenty for shape-level reproduction.
#[must_use]
pub fn makespan(tasks: &[u64], workers: usize) -> u64 {
    assert!(workers > 0);
    let mut load = vec![0u64; workers];
    for &t in tasks {
        let min = load
            .iter()
            .enumerate()
            .min_by_key(|(_, &l)| l)
            .map(|(i, _)| i)
            .expect("workers > 0");
        load[min] += t;
    }
    load.into_iter().max().unwrap_or(0)
}

/// Schedule one block's costs onto `workers` cores.
#[must_use]
pub fn schedule_block(
    result: &ProtocolBlockResult,
    workers: usize,
    commit_serial: bool,
) -> BlockSchedule {
    let sim_ns = makespan(&result.sim_ns, workers);
    let commit_ns = if commit_serial {
        result.commit_ns.iter().sum()
    } else {
        makespan(&result.commit_ns, workers)
    };
    let sim_work: u64 = result.sim_ns.iter().sum();
    let commit_work: u64 = result.commit_ns.iter().sum();
    BlockSchedule {
        sim_ns,
        commit_ns,
        orderer_ns: result.orderer_ns,
        work_ns: sim_work + commit_work + result.orderer_ns,
        pre_work_ns: sim_work + result.orderer_ns,
        commit_work_ns: commit_work,
    }
}

/// The makespan step block `next` adds to a `depth`-deep pipeline whose
/// previous block was `prev` (`None` for the first block). The steps of a
/// block sequence sum to the sequence's makespan, so a long-running charger
/// needs only the previous schedule:
///
/// * `depth ≤ 1`, or no previous block: strictly sequential,
///   `next.total_ns()`.
/// * `depth = 2` (inter-block parallelism): `next`'s pre-commit stage
///   `Aₙ` (orderer + simulation) overlaps `prev`'s commit `Bₚ` on the
///   *same* `W` worker cores, so the overlapped step takes
///   `max(Bₚ, Aₙ, (work(Bₚ) + work(Aₙ)) / W)` — the capacity term keeps
///   utilization physical while still hiding stragglers — and the step is
///   that overlap plus `Bₙ − Bₚ`.
#[must_use]
pub(crate) fn pipeline_step_ns(
    prev: Option<&BlockSchedule>,
    next: &BlockSchedule,
    depth: usize,
    workers: usize,
) -> u64 {
    match prev {
        Some(prev) if depth >= 2 => {
            let capacity = (prev.commit_work_ns + next.pre_work_ns).div_ceil(workers as u64);
            let overlap = prev
                .commit_ns
                .max(next.orderer_ns + next.sim_ns)
                .max(capacity);
            overlap - prev.commit_ns + next.commit_ns
        }
        _ => next.total_ns(),
    }
}

/// Virtual-time cost of one block executed whole by `dcc` after `prev`:
/// its schedule on `workers` cores with one group-commit log write + sync
/// (`log_sync_ns`: the logical block log for OE, the physical write-set
/// log for SOV) added to the commit stage, and the makespan step it adds
/// to the engine's pipeline ([`pipeline_step_ns`]).
#[must_use]
pub fn flat_block_cost(
    prev: Option<&BlockSchedule>,
    result: &ProtocolBlockResult,
    dcc: &dyn DccEngine,
    workers: usize,
    log_sync_ns: u64,
) -> (BlockSchedule, u64) {
    let mut sched = schedule_block(result, workers, dcc.commit_is_serial());
    sched.commit_ns += log_sync_ns;
    sched.commit_work_ns += log_sync_ns;
    sched.work_ns += log_sync_ns;
    let step = pipeline_step_ns(prev, &sched, dcc.pipeline_depth(), workers);
    (sched, step)
}

/// Virtual-time cost of one block planned across shards: the cross stage
/// (fragment exchange + the multi-partition re-simulation on `workers`
/// cores) runs in lockstep, then every shard executes its sub-block
/// concurrently and pays its own group-commit log sync — the block costs
/// the slowest shard. The sharded profile has no inter-block pipeline, so
/// blocks are charged back-to-back.
#[must_use]
pub fn planned_block_ns(
    result: &ShardBlockResult,
    workers: usize,
    commit_serial: bool,
    log_sync_ns: u64,
) -> u64 {
    let shard_stage_ns = result
        .shard_results
        .iter()
        .map(|r| schedule_block(r, workers, commit_serial).total_ns() + log_sync_ns)
        .max()
        .unwrap_or(0);
    result.exchange_ns + makespan(&result.cross_sim_ns, workers) + shard_stage_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Closed form of a block sequence's makespan — the reference the
    /// steps of [`pipeline_step_ns`] must sum to: `Σ total` at depth 1;
    /// at depth 2, `A₀ + Σ max(Bᵢ, Aᵢ₊₁, capacity) + B_last`.
    fn pipeline_total_ns(blocks: &[BlockSchedule], depth: usize, workers: usize) -> u64 {
        if blocks.is_empty() {
            return 0;
        }
        match depth {
            0 | 1 => blocks.iter().map(BlockSchedule::total_ns).sum(),
            _ => {
                let a = |b: &BlockSchedule| b.orderer_ns + b.sim_ns;
                let mut total = a(&blocks[0]);
                for w in blocks.windows(2) {
                    let capacity =
                        (w[0].commit_work_ns + w[1].pre_work_ns).div_ceil(workers as u64);
                    total += w[0].commit_ns.max(a(&w[1])).max(capacity);
                }
                total += blocks.last().expect("non-empty").commit_ns;
                total
            }
        }
    }

    #[test]
    fn makespan_balances() {
        assert_eq!(makespan(&[10, 10, 10, 10], 2), 20);
        assert_eq!(makespan(&[40, 10, 10, 10], 2), 40);
        assert_eq!(makespan(&[5; 8], 8), 5);
        assert_eq!(makespan(&[], 4), 0);
    }

    #[test]
    fn makespan_single_worker_is_sum() {
        assert_eq!(makespan(&[3, 4, 5], 1), 12);
    }

    fn sched(sim: u64, commit: u64, orderer: u64) -> BlockSchedule {
        BlockSchedule {
            sim_ns: sim,
            commit_ns: commit,
            orderer_ns: orderer,
            work_ns: sim + commit + orderer,
            pre_work_ns: sim + orderer,
            commit_work_ns: commit,
        }
    }

    #[test]
    fn sequential_pipeline_is_sum() {
        let blocks = vec![sched(10, 5, 0), sched(10, 5, 0)];
        assert_eq!(pipeline_total_ns(&blocks, 1, 8), 30);
    }

    #[test]
    fn depth2_overlaps_sim_with_commit() {
        // A=10, B=5 each: total = 10 + max(5,10) + 5 = 25 < 30.
        let blocks = vec![sched(10, 5, 0), sched(10, 5, 0)];
        assert_eq!(pipeline_total_ns(&blocks, 2, 8), 25);
    }

    #[test]
    fn depth2_straggler_hidden() {
        // Block 1 has a straggler-heavy commit (20); block 2's sim (15)
        // hides inside it.
        let blocks = vec![sched(10, 20, 0), sched(15, 5, 0)];
        // Sequential: 10+20+15+5 = 50. Pipelined: 10 + max(20,15) + 5 = 35.
        assert_eq!(pipeline_total_ns(&blocks, 1, 8), 50);
        assert_eq!(pipeline_total_ns(&blocks, 2, 8), 35);
    }

    #[test]
    fn orderer_stage_counts_in_prestage() {
        let blocks = vec![sched(10, 5, 7), sched(10, 5, 7)];
        assert_eq!(pipeline_total_ns(&blocks, 1, 8), 44);
        assert_eq!(pipeline_total_ns(&blocks, 2, 8), 17 + 17 + 5);
    }

    #[test]
    fn pipeline_steps_sum_to_the_total() {
        let mut rng = harmony_common::DetRng::new(0x57E9);
        let mut draw = |max: u64| rng.gen_range(max);
        for case in 0..200 {
            let len = 1 + case % 12;
            let blocks: Vec<BlockSchedule> = (0..len)
                .map(|_| {
                    let (sim, commit, orderer) = (draw(5_000), draw(5_000), draw(800));
                    let mut s = sched(sim, commit, orderer);
                    // Work above the makespan: tasks spread over cores.
                    s.pre_work_ns += draw(20_000);
                    s.commit_work_ns += draw(20_000);
                    s
                })
                .collect();
            for depth in [1, 2] {
                for workers in [1, 4, 8] {
                    let mut prev = None;
                    let mut sum = 0;
                    for b in &blocks {
                        sum += pipeline_step_ns(prev, b, depth, workers);
                        prev = Some(b);
                    }
                    assert_eq!(
                        sum,
                        pipeline_total_ns(&blocks, depth, workers),
                        "depth {depth}, {workers} workers, {len} blocks"
                    );
                }
            }
        }
    }

    #[test]
    fn depth2_capacity_bounds_overlap() {
        // One worker: the overlap cannot exceed physical capacity —
        // utilization stays ≤ 1.
        let blocks = vec![sched(10, 10, 0), sched(10, 10, 0)];
        let wall = pipeline_total_ns(&blocks, 2, 1);
        let work: u64 = blocks.iter().map(|b| b.work_ns).sum();
        assert!(wall >= work, "wall {wall} < work {work}");
    }
}
