//! End-to-end and per-layer benchmark of the masked-SpGEMM library.
//!
//! ```text
//! tilebench --workload <tc-social|ktruss-web|service-road> --seed <n>
//!           --seconds <s> --trace <0|1> [--spread <runs>]
//! ```
//!
//! A run generates its inputs from `--seed`, sets the workload up
//! `SETUP_REPS` times, measures for `--seconds`, checks every output and
//! prints one JSON object as its last line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
//! It exits 1 when any output was wrong and 2 on a usage error.
//!
//! `--spread <runs>` runs the workload `runs` times, with seeds `seed`,
//! `seed + 1`, …, in child processes, and prints each end-to-end metric's
//! median, quartiles and spread against its bound in `BENCHMARK.json`,
//! with the host's core count and caches.
//!
//! Run from the repository root:
//! `cargo run --release --offline --manifest-path tilebench/Cargo.toml -- --workload tc-social --seed 1 --seconds 20 --trace 0`

mod closed;
mod inputs;
mod layers;
mod report;
mod service;
mod spread;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

pub const WORKLOADS: [&str; 3] = ["tc-social", "ktruss-web", "service-road"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spread: Option<usize>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut spread) =
            (None, 1, 10.0, false, None);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must lie in (0, 600]".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v}")),
                    }
                }
                "--spread" => {
                    spread = Some(value()?.parse().map_err(|e| format!("--spread: {e}"))?)
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; one of {}",
                WORKLOADS.join(", ")
            ));
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            spread,
        })
    }

    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Where a traced run writes its spans: inside the checkout.
    pub fn trace_path(&self) -> PathBuf {
        PathBuf::from("tilebench/out").join(format!("trace-{}-{}.json", self.workload, self.seed))
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tilebench: {e}");
            eprintln!("usage: tilebench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--spread <runs>]", WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.spread {
        return spread::report(&args, runs);
    }
    let outcome = match args.workload.as_str() {
        "tc-social" => closed::tc_social(&args),
        "ktruss-web" => closed::ktruss_web(&args),
        _ => service::service_road(&args),
    };
    match outcome {
        Ok(o) => {
            for n in &o.notes {
                println!("# {n}");
            }
            println!(
                "# fail_ratio {} ({} failed of {} attempted)",
                o.failed as f64 / o.attempted.max(1) as f64,
                o.failed,
                o.attempted
            );
            println!("{}", o.to_json());
            if o.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("tilebench: {} wrong or failed outputs", o.wrong);
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("tilebench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
