//! Turn rounds into metrics, and metrics into the result line.

use std::fmt::Write;

use harmony_storage::IoSnapshot;

use crate::path::PlannerCounts;
use crate::round::{Round, TxnCounts};
use crate::spec::{Layout, Spec, CHECKPOINT_EVERY};
use crate::trace::Tracer;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: finite(value),
        unit,
    }
}

/// `x`, or 0 for a ratio whose base was 0.
fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `p` in (0, 1].
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn plain(rounds: &[Round]) -> impl Iterator<Item = &Round> {
    rounds.iter().filter(|r| !r.traced)
}

fn traced(rounds: &[Round]) -> impl Iterator<Item = &Round> {
    rounds.iter().filter(|r| r.traced)
}

/// Counts of the untraced rounds, summed.
struct Totals {
    blocks: u64,
    committed: u64,
    cost_ns: u64,
    wall_ns: u64,
    deliver_ns: u64,
    fold_keys: u64,
    deliver_bytes: u64,
    txns: TxnCounts,
    io: IoSnapshot,
    planner: PlannerCounts,
}

fn totals(rounds: &[Round]) -> Totals {
    let mut t = Totals {
        blocks: 0,
        committed: 0,
        cost_ns: 0,
        wall_ns: 0,
        deliver_ns: 0,
        fold_keys: 0,
        deliver_bytes: 0,
        txns: TxnCounts::default(),
        io: IoSnapshot::default(),
        planner: PlannerCounts::default(),
    };
    for r in plain(rounds) {
        t.blocks += r.blocks;
        t.committed += r.committed;
        t.cost_ns += r.cost_ns;
        t.wall_ns += r.wall_ns;
        t.deliver_ns += r.deliver_ns;
        t.fold_keys += r.fold_keys;
        t.deliver_bytes += r.deliver_bytes;
        t.txns = t.txns.plus(&r.txns);
        t.io.absorb(&r.io);
        t.planner = t.planner.plus(&r.planner);
    }
    t
}

/// The end-to-end metrics of the untraced rounds. The timed phases of all
/// rounds pool into one: throughput is committed ÷ their wall seconds, and
/// latency percentiles are taken over all their blocks.
pub fn end_to_end(rounds: &[Round]) -> Vec<Metric> {
    let t = totals(rounds);
    let mut lat: Vec<u64> = plain(rounds)
        .flat_map(|x| x.latencies_ns.iter().copied())
        .collect();
    lat.sort_unstable();
    let setups: Vec<f64> = plain(rounds).map(|x| x.setup_s).collect();
    vec![
        m("commit_tps", ratio(t.committed, t.wall_ns) * 1e9, "txn/s"),
        m(
            "commit_latency_p50_ms",
            percentile(&lat, 0.50) as f64 / 1e6,
            "ms",
        ),
        m(
            "commit_latency_p95_ms",
            percentile(&lat, 0.95) as f64 / 1e6,
            "ms",
        ),
        m("abort_rate", t.txns.abort_rate(), "ratio"),
        m("vtime_tps", ratio(t.committed, t.cost_ns) * 1e9, "txn/s"),
        m("setup_s", median(&setups), "s"),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// Spans whose self time per traced block is reported as
/// `<span>_us_per_block`.
const SPANS: [&str; 12] = [
    "transport.submit_decode",
    "transport.deliver_codec",
    "node.mempool",
    "chain.seal",
    "chain.verify",
    "chain.payload_decode",
    "chain.block_log",
    "chain.fold",
    "chain.root",
    "core.simulate",
    "core.commit",
    "core.gc",
];

/// The per-layer metrics. Times come from the traced rounds' spans, the
/// replica's `deliver` time and every count from the untraced rounds.
/// A span that does not run on a workload reports 0.
pub fn per_layer(spec: &Spec, rounds: &[Round], tr: &Tracer) -> Vec<Metric> {
    let spans = tr.totals();
    let span = |name: &str| spans.get(name).copied().unwrap_or_default();
    let tot = totals(rounds);
    let tblocks: u64 = traced(rounds).map(|x| x.blocks).sum();
    let ttxns: u64 = traced(rounds).map(|x| x.txns.txns).sum();
    let per_tblock_us = |ns: u64| ratio(ns, tblocks) / 1e3;
    let (txns, io, pl) = (tot.txns.txns, &tot.io, &tot.planner);
    let deliver_us = ratio(tot.deliver_ns, tot.blocks) / 1e3;
    let tps = |rs: &mut dyn Iterator<Item = &Round>| {
        let (c, w) = rs.fold((0, 0), |(c, w), x| (c + x.committed, w + x.wall_ns));
        ratio(c, w)
    };
    let ckpt = span("chain.checkpoint");
    let shards = match spec.layout {
        Layout::Flat => 1,
        Layout::Sharded { shards, .. } => shards as u64,
    };
    let checkpoints = shards * (tot.blocks / CHECKPOINT_EVERY);
    let max_pages = |f: fn(&Round) -> usize| plain(rounds).map(f).max().unwrap_or(0) as f64;
    let genesis: Vec<f64> = plain(rounds).map(|x| x.genesis_s).collect();
    let reads: u64 = traced(rounds).map(|x| x.reads).sum();
    let writes: u64 = traced(rounds).map(|x| x.writes).sum();
    let rejects: u64 = rounds.iter().map(|x| x.rejects).sum();
    let unattributed = deliver_us - per_tblock_us(tr.children_ns("node.deliver"));

    let rows = [
        (
            "transport.deliver_bytes_per_txn",
            ratio(tot.deliver_bytes, txns),
            "B",
        ),
        ("node.admission_rejects", rejects as f64, "count"),
        ("node.deliver_us_per_block", deliver_us, "us"),
        ("node.unattributed_us_per_block", unattributed, "us"),
        (
            "trace.overhead_ratio",
            tps(&mut plain(rounds)) / tps(&mut traced(rounds)),
            "ratio",
        ),
        (
            "chain.fold_keys_per_block",
            ratio(tot.fold_keys, tot.blocks),
            "count",
        ),
        (
            "chain.checkpoint_ms",
            ratio(ckpt.total_ns, ckpt.count) / 1e6,
            "ms",
        ),
        (
            "chain.checkpoint_pages",
            ratio(io.pool.flush_writebacks, checkpoints),
            "count",
        ),
        ("core.reads_per_txn", ratio(reads, ttxns), "count"),
        ("core.writes_per_txn", ratio(writes, ttxns), "count"),
        ("core.aborts_rule1", ratio(tot.txns.rule1, txns), "ratio"),
        (
            "core.aborts_interblock",
            ratio(tot.txns.interblock, txns),
            "ratio",
        ),
        ("core.user_aborts", ratio(tot.txns.user, txns), "ratio"),
        (
            "storage.pool_hits_per_txn",
            ratio(io.pool.hits, txns),
            "count",
        ),
        (
            "storage.pool_misses_per_txn",
            ratio(io.pool.misses, txns),
            "count",
        ),
        (
            "storage.hit_rate",
            ratio(io.pool.hits, io.pool.hits + io.pool.misses),
            "ratio",
        ),
        (
            "storage.disk_reads_per_txn",
            ratio(io.disk_reads, txns),
            "count",
        ),
        (
            "storage.disk_writes_per_block",
            ratio(io.disk_writes, tot.blocks),
            "count",
        ),
        ("storage.data_pages", max_pages(|x| x.data_pages), "count"),
        (
            "storage.resident_pages",
            max_pages(|x| x.resident_pages),
            "count",
        ),
        ("storage.genesis_load_s", median(&genesis), "s"),
        ("shard.single_txns", pl.single as f64, "count"),
        ("shard.cross_txns", pl.cross as f64, "count"),
        ("shard.cross_survivors", pl.survivors as f64, "count"),
        ("shard.reservation_conflicts", pl.conflicts as f64, "count"),
    ];
    let spans = SPANS.iter().map(|s| {
        m(
            &format!("{s}_us_per_block"),
            per_tblock_us(span(s).self_ns),
            "us",
        )
    });
    let rows = rows.into_iter().map(|(n, v, u)| m(n, v, u));
    spans.chain(rows).chain(calibration(rounds, tr)).collect()
}

/// Per block, the wall and virtual ns of every span that carries a
/// virtual charge: `simulate` (Σ `sim_ns`), `commit` (Σ `commit_ns`) and
/// the replica's `deliver` (Σ `Applied::cost_ns`).
fn calibration_rows(rounds: &[Round], tr: &Tracer) -> [(&'static str, f64, f64); 3] {
    let spans = tr.totals();
    let wall = |name: &str| spans.get(name).map_or(0, |s| s.total_ns);
    let tot = totals(rounds);
    let traced_sum = |f: fn(&Round) -> u64| traced(rounds).map(f).sum::<u64>();
    let tblocks = traced_sum(|x| x.blocks);
    [
        (
            "simulate",
            ratio(wall("core.simulate"), tblocks),
            ratio(traced_sum(|x| x.sim_ns), tblocks),
        ),
        (
            "commit",
            ratio(wall("core.commit"), tblocks),
            ratio(traced_sum(|x| x.commit_ns), tblocks),
        ),
        (
            "deliver",
            ratio(tot.deliver_ns, tot.blocks),
            ratio(tot.cost_ns, tot.blocks),
        ),
    ]
}

/// The calibration rows as metrics. `deliver`'s virtual time is the
/// model's block cost.
fn calibration(rounds: &[Round], tr: &Tracer) -> Vec<Metric> {
    let mut out = Vec::new();
    for (name, wall, virt) in calibration_rows(rounds, tr) {
        let vns = match name {
            "deliver" => "sim.block_cost_vns".to_string(),
            _ => format!("sim.{name}_vns_per_block"),
        };
        out.push(m(&vns, virt, "ns"));
        out.push(m(
            &format!("sim.{name}_wall_per_virtual"),
            wall / virt,
            "ratio",
        ));
    }
    out
}

/// The wall-vs-virtual calibration table, for people. Reported only; it
/// never retunes a cost model.
pub fn calibration_table(rounds: &[Round], tr: &Tracer) -> String {
    let mut s = String::from("calibration (per block): span, wall ns, virtual ns, wall/virtual\n");
    for (name, wall, virt) in calibration_rows(rounds, tr) {
        let r = finite(wall / virt);
        let _ = writeln!(s, "  {name:<10} {wall:>14.0} {virt:>14.0} {r:>10.4}");
    }
    s
}

/// The final JSON line.
pub fn result_line(correct: bool, rounds: &[Round], metrics: &[Metric]) -> String {
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}
