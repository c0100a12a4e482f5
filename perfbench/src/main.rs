//! Wall-clock benchmark of the FFTXlib reproduction.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` it measures the end-to-end metrics of one workload
//! through the public entry points (`run_policy`, `run_serve`); with
//! `--trace 1` it drives the same workload layer by layer and reports the
//! per-layer ledger. Every run checks the program's outputs, prints one
//! line per metric, and ends with one JSON result line. The exit code is
//! non-zero when an output check fails or the arguments are invalid.

mod alloc;
mod drive;
mod e2e;
mod host;
mod layers;
mod report;
mod stats;
mod workload;

use std::process::ExitCode;
use workload::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper120|small-batch|serve-steady> \
--seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=600"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_cores={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let outcome = match (args.trace, args.workload) {
        (false, Workload::ServeSteady) => e2e::serve(args.seed, args.seconds),
        (false, w) => e2e::engine(w, args.seed, args.seconds),
        (true, w) => layers::run(w, args.seed, args.seconds),
    };
    outcome.print();
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload small-batch --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::SmallBatch, 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload paper120 --seed 7 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload paper120 --seed 7 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload paper120 --seed 7 --seconds 10")).is_err());
    }
}
