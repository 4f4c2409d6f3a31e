//! The repository benchmark: four workloads, each stressing one layer.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload train-bns --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each invocation runs one workload in its own process, checks its
//! outputs, prints a human-readable report (lines starting with `#`) and
//! ends with one JSON line: `--trace 0` carries the end-to-end metrics of
//! the untraced run, `--trace 1` the per-layer metrics of a traced re-run
//! of the same phases (plus tracing overhead against the untraced run).
//! See `benchmark/README.md` for the workloads and metrics.

mod procfs;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["train-bns", "train-rns", "serve-wire", "serve-swap"];
const USAGE: &str = "usage: bns-benchmark --workload <train-bns|train-rns|serve-wire|serve-swap> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Scratch directory for artifacts and traces, inside the checkout the
/// benchmark runs from.
fn work_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_build").join("bns-benchmark");
    std::fs::create_dir_all(&dir).expect("creating .bench_build/bns-benchmark");
    dir
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = work_dir();
    let mut tracer = args.trace.then(trace::Tracer::new);
    let mut report = match args.workload {
        "train-bns" | "train-rns" => {
            train::run(args.workload, args.seed, args.seconds, tracer.as_mut())
        }
        _ => serve::run(
            args.workload,
            args.seed,
            args.seconds,
            &dir,
            tracer.as_mut(),
        ),
    };
    if let Some(tr) = &tracer {
        report.layer("trace.clock_ns", tr.clock_cost_ns());
        let path = dir.join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
        std::fs::write(&path, tr.to_tsv()).expect("writing the trace");
        println!("# trace written to {}", path.display());
    }
    print!("{}", report.render(args.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload serve-swap --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("serve-swap", 7, 10, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse("--workload nope --seed 1 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload train-bns --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload train-bns --seed 1 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload train-bns --seed 1 --seconds 10").is_err());
        assert!(parse("--workload train-bns --seed").is_err());
        assert!(parse("--bogus 1").is_err());
    }
}
