//! End-to-end benchmark of the workload cycle.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ais-churn|modis-ttl|paper-elastic> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run drives one workload through the public `WorkloadRunner` API in
//! rounds. A round sets the workload up (generates its batches, builds the
//! runner, registers views), runs every cycle as a closed loop with the
//! query suite after each cycle, and ends with a cold start. Timed rounds
//! run until `--seconds` have passed (at least three); each timing is the
//! sum of its steps' fastest times over them (see `step_minima`). A last, checked round then runs every
//! correctness check; it is left out of the figures.
//! `--trace 1` instead reports the per-layer metrics of the replayed
//! layer calls (see `trace.rs`). `--wrong-oracle` feeds the checks one
//! deliberately wrong oracle row; that run must report `correct: false`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod ais_churn;
mod common;
mod modis_ttl;
mod paper_elastic;
mod pregen;
mod trace;
mod util;

use common::{RoundCtx, RoundOut};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Trace;
use util::{peak_rss_mb, result_line, Checks, Metric};

const WORKLOADS: [&str; 3] = ["ais-churn", "modis-ttl", "paper-elastic"];
const MIN_TIMED_ROUNDS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    wrong_oracle: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut wrong_oracle = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--wrong-oracle" => wrong_oracle = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        wrong_oracle,
    })
}

fn round(args: &Args, checks: Option<&mut Checks>, trace: Option<&mut Trace>) -> RoundOut {
    let mut ctx = RoundCtx { seed: args.seed, checks, trace, wrong_oracle: args.wrong_oracle };
    match args.workload.as_str() {
        "ais-churn" => ais_churn::round(&mut ctx),
        "modis-ttl" => modis_ttl::round(&mut ctx),
        "paper-elastic" => paper_elastic::round(&mut ctx),
        _ => unreachable!("workload validated by parse_args"),
    }
}

/// A timing over the timed rounds: the sum, over the steps of a round, of
/// each step's fastest time across rounds. Every round repeats the same
/// deterministic steps, and host noise on a shared box only ever slows a
/// step down, so a step's fastest time is its steadiest estimate: the
/// medians of the same runs drift with the neighbours' load.
fn step_minima(rounds: &[RoundOut], steps: impl Fn(&RoundOut) -> &[f64]) -> f64 {
    let n = rounds.iter().map(|r| steps(r).len()).min().unwrap_or(0);
    (0..n).map(|i| rounds.iter().map(|r| steps(r)[i]).fold(f64::INFINITY, f64::min)).sum()
}

/// The end-to-end metrics of a run. All rounds of a run do identical work
/// (checked), so work counts come from the first.
fn end_to_end(rounds: &[RoundOut], peak_rss_mb: f64) -> Vec<Metric> {
    let cycle_s = step_minima(rounds, |r| &r.cycle_s);
    let first = &rounds[0];
    vec![
        Metric::new("setup_s", step_minima(rounds, |r| &r.setup_s), "s"),
        Metric::new("ingest_rows_per_s", first.rows as f64 / cycle_s, "rows/s"),
        Metric::new("place_chunks_per_s", first.chunks as f64 / cycle_s, "chunks/s"),
        Metric::new("query_s", step_minima(rounds, |r| &r.query_s), "s"),
        Metric::new("recover_s", step_minima(rounds, |r| &r.recover_s), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        Metric::new("durable_mb", util::mb(first.durable_bytes), "MB"),
        Metric::new("sim_node_hours", first.node_hours, "node-h"),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut trace = args.trace.then(Trace::default);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut rounds: Vec<RoundOut> = Vec::new();
    while rounds.len() < MIN_TIMED_ROUNDS || start.elapsed() < budget {
        rounds.push(round(&args, None, trace.as_mut()));
    }
    // Read before the checked round, whose oracles and twin runs are the
    // benchmark's own memory, not the workload's.
    let peak_rss = peak_rss_mb();

    let mut checks = Checks::default();
    let checked = round(&args, Some(&mut checks), None);
    let mut attempted = checked.attempted;
    let mut failed = checked.failed;
    for (i, r) in rounds.iter().enumerate() {
        attempted += r.attempted;
        failed += r.failed;
        // Every round of one seed does the same deterministic work.
        checks.check(
            r.rows == checked.rows
                && r.chunks == checked.chunks
                && r.durable_bytes == checked.durable_bytes
                && r.node_hours.to_bits() == checked.node_hours.to_bits()
                && r.attempted == checked.attempted
                && r.cycle_s.len() == checked.cycle_s.len()
                && r.query_s.len() == checked.query_s.len()
                && r.recover_s.len() == checked.recover_s.len(),
            || format!("timed round {} did different work than the checked round", i + 1),
        );
    }

    let metrics = match trace {
        Some(t) => {
            for f in &t.failures {
                checks.check(false, || f.clone());
            }
            t.metrics()
        }
        None => end_to_end(&rounds, peak_rss),
    };
    for f in &checks.failures {
        eprintln!("check failed: {f}");
    }
    let correct = checks.failures.is_empty();
    eprintln!(
        "perfbench {}: seed {}, {} timed rounds, {} checks passed, {} failed",
        args.workload,
        args.seed,
        rounds.len(),
        checks.passed,
        checks.failures.len()
    );
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
