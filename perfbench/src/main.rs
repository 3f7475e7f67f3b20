//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fastpath_randread --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One invocation runs one workload (see `rigs`) in rounds until
//! `--seconds` have passed. Every round rebuilds the rig from `--seed`,
//! so every round must reproduce the first round's modeled results
//! bit for bit (the determinism check). Modeled metrics come from the
//! first round; host metrics are medians over rounds.
//!
//! With `--trace 1`, untraced and traced rounds alternate. Traced rounds
//! wrap every actor (and the UIF) in timing wrappers, must reproduce the
//! untraced modeled results exactly, and give the per-layer metrics.
//!
//! Every round checks exactly-once delivery per command id, and on
//! `encrypt_randrw` the plaintext round trip and the on-disk ciphertext.
//! Any violation prints the seed, reports `"correct": false` and exits 1.
//! The last line of standard output is one JSON object.

mod load;
mod metrics;
mod rigs;
mod rng;
mod trace;

use metrics::{Metrics, Round};
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !rigs::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {:?}",
            rigs::WORKLOADS
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let min_rounds = if args.trace { 4 } else { 3 };
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < min_rounds || started.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && rounds.len() % 2 == 1;
        let round = metrics::run_round(&args.workload, args.seed, traced);
        eprintln!("{}", round.summary());
        rounds.push(round);
    }
    let m = Metrics::from_rounds(&rounds, args.trace);
    for v in &m.violations {
        eprintln!(
            "VIOLATION (workload {} seed {}): {v}",
            args.workload, args.seed
        );
    }
    println!("{}", m.describe(&args.workload, args.seed));
    println!("{}", m.json());
    if !m.violations.is_empty() {
        std::process::exit(1);
    }
}
