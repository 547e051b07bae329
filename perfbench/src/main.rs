//! Closed-loop wall-clock benchmark of a HarmonyBC replica.
//!
//! One block is in flight at a time. For each block the benchmark feeds
//! the pre-generated `Msg::Submit` frames to the orderer side (wire
//! decode, mempool admission and batching, seal, Deliver encode) and the
//! Deliver frame to the replica side (wire decode, then the node layer's
//! `deliver`). The next block starts when `deliver` returns.
//!
//! A run makes a number of rounds fixed by the workload and `--seconds`.
//! A round opens a fresh replica (genesis load, warm-up past the first
//! checkpoint), then times a fixed number of blocks. The seed gives one
//! transaction sequence and each round replays its own slice of it, so a
//! round's root and counts must repeat exactly across runs of one seed.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` pairs an
//! untraced and a traced round on each input and prints the per-layer
//! metrics. The last line of standard output is one JSON object.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`

mod metrics;
mod path;
mod round;
mod spec;
mod trace;
mod traced;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use harmony_common::Result;

use crate::round::{run_round, Round};
use crate::spec::{Spec, Stream};
use crate::trace::Tracer;

/// A run stops starting rounds after this long, so it ends in time.
const RUN_BUDGET: Duration = Duration::from_secs(120);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::by_name(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    match run(&spec, &args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(spec: &Spec, args: &Args) -> Result<String> {
    let started = Instant::now();
    let wire = spec::wire_codec(spec)?;
    let planned = spec.rounds(args.seconds);
    // A traced run pairs an untraced and a traced round on each input.
    let inputs = if args.trace {
        (planned / 2).max(1)
    } else {
        planned
    };
    let streams = Stream::generate(spec, args.seed, inputs, &wire)?;
    eprintln!(
        "perfbench: {}: {inputs} round inputs generated in {:.2} s",
        spec.name,
        started.elapsed().as_secs_f64()
    );
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut rounds: Vec<Round> = Vec::new();
    let mut errors = Vec::new();
    for (i, stream) in streams.iter().enumerate() {
        if started.elapsed() > RUN_BUDGET {
            eprintln!(
                "perfbench: {}: out of time after {i} of {inputs} rounds",
                spec.name
            );
            break;
        }
        rounds.push(run_round(spec, stream, &wire, &mut off));
        if args.trace {
            rounds.push(run_round(spec, stream, &wire, &mut tr));
        }
        for r in &rounds[rounds.len() - 1 - usize::from(args.trace)..] {
            log_round(spec, i, r);
        }
        if rounds.iter().any(|r| !r.errors.is_empty()) {
            break;
        }
    }

    errors.extend(rounds.iter().flat_map(|r| r.errors.clone()));
    if args.trace {
        errors.extend(trace_check(&rounds));
    }
    if errors.is_empty() {
        let plain = rounds.iter().filter(|r| !r.traced);
        for (i, (r, stream)) in plain.zip(&streams).enumerate() {
            errors.extend(record_check(&args.out, spec.name, args.seed, i, stream, r));
        }
    }
    for e in &errors {
        eprintln!("perfbench: {}: {e}", spec.name);
    }
    if args.trace {
        let csv = args
            .out
            .join(format!("trace-{}-{}.csv", spec.name, args.seed));
        if let Err(e) = std::fs::create_dir_all(&args.out).and_then(|()| tr.write_csv(&csv)) {
            eprintln!("perfbench: could not write {}: {e}", csv.display());
        }
        print!("{}", metrics::calibration_table(&rounds, &tr));
    }
    let metrics = if args.trace {
        metrics::per_layer(spec, &rounds, &tr)
    } else {
        metrics::end_to_end(&rounds)
    };
    Ok(metrics::result_line(errors.is_empty(), &rounds, &metrics))
}

fn log_round(spec: &Spec, i: usize, r: &Round) {
    let mut lat = r.latencies_ns.clone();
    lat.sort_unstable();
    eprintln!(
        "perfbench: {} round {i}{}: set-up {:.3} s, {} blocks, {:.1} txn/s, p50 {:.3} ms",
        spec.name,
        if r.traced { " traced" } else { "" },
        r.setup_s,
        r.blocks,
        metrics::ratio(r.committed, r.wall_ns) * 1e9,
        lat.get(lat.len() / 2).copied().unwrap_or(0) as f64 / 1e6
    );
}

/// Each traced round must reach the root, transaction counts and fold
/// keys of the untraced round run on the same input just before it.
fn trace_check(rounds: &[Round]) -> Vec<String> {
    rounds
        .chunks(2)
        .filter(|p| p.len() == 2 && p.iter().all(|r| r.errors.is_empty()))
        .filter(|p| p[0].root != p[1].root || p[0].txns != p[1].txns || p[0].fold_keys != p[1].fold_keys)
        .map(|p| {
            format!(
                "traced round disagrees with the untraced one: root {:?} vs {:?}, {:?} vs {:?}, fold keys {} vs {}",
                p[1].root.map(|d| d.to_hex()),
                p[0].root.map(|d| d.to_hex()),
                p[1].txns,
                p[0].txns,
                p[1].fold_keys,
                p[0].fold_keys
            )
        })
        .collect()
}

/// Runs of one seed with one build must agree: the first run stores each
/// round's counts under `out/records/`, later runs compare against them.
/// The record is keyed by the executable's hash, so another build of the
/// program starts a fresh record.
fn record_check(
    out: &Path,
    workload: &str,
    seed: u64,
    index: usize,
    stream: &Stream,
    round: &Round,
) -> Vec<String> {
    let exe = match std::env::current_exe().and_then(std::fs::read) {
        Ok(bytes) => harmony_crypto::sha256(&bytes).to_hex(),
        Err(e) => return vec![format!("cannot hash the executable: {e}")],
    };
    let dir = out.join("records");
    let path = dir.join(format!("{workload}-{seed}-r{index}-{}.txt", &exe[..16]));
    let body = format!("input={}\n{}", stream.fingerprint(), round.fingerprint());
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev == body => Vec::new(),
        Ok(prev) => vec![format!(
            "round {index} counts differ from an earlier run of this seed ({}):\n{body}\nvs\n{prev}",
            path.display()
        )],
        Err(_) => {
            let tmp = path.with_extension("tmp");
            let written = std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&tmp, &body))
                .and_then(|()| std::fs::rename(&tmp, &path));
            if let Err(e) = written {
                eprintln!("perfbench: could not write {}: {e}", path.display());
            }
            Vec::new()
        }
    }
}
