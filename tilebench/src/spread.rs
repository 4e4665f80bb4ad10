//! Spread report: run one workload several times, one seed each, and
//! print every end-to-end metric's median, quartiles and spread (the
//! inter-quartile distance as a share of the median) against its bound.

use crate::report::{median, quartiles};
use crate::Args;
use mspgemm_rt::json::{self, Value};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

pub fn report(args: &Args, runs: usize) -> ExitCode {
    print_host();
    let bounds = read_bounds();
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("tilebench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    for i in 0..runs as u64 {
        let seed = args.seed + i;
        let out = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .stderr(Stdio::inherit())
            .output();
        let out = match out {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!("tilebench: run with seed {seed} exited with {}", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("tilebench: cannot start run with seed {seed}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        if i == 0 {
            if let Some(ws) = text
                .lines()
                .find_map(|l| l.strip_prefix("# working_set_bytes="))
            {
                println!("{}: working set {ws} bytes", args.workload);
            }
        }
        let Some(doc) = text.lines().last().and_then(|l| json::parse(l).ok()) else {
            eprintln!("tilebench: run with seed {seed} printed no result line");
            return ExitCode::FAILURE;
        };
        let mut line = format!("seed {seed}:");
        for (name, m) in doc.get("metrics").and_then(Value::as_obj).unwrap_or(&[]) {
            let v = m.get("value").and_then(Value::as_num).unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            line.push_str(&format!(" {name}={v:.4}"));
            values
                .entry(name.clone())
                .or_insert_with(|| (unit, Vec::new()))
                .1
                .push(v);
        }
        println!("{line}");
    }
    println!(
        "{:<14} {:>6} {:>12} {:>12} {:>12} {:>8} {:>7} {:>9}",
        "metric", "unit", "median", "q1", "q3", "spread", "bound", "<bound/3"
    );
    for (name, (unit, v)) in &values {
        let (q1, q3) = quartiles(v);
        let med = median(v);
        let spread = (q3 - q1) / med;
        let (bound, steady) = match bounds.get(name) {
            Some(&b) => (format!("{b}"), if spread <= b / 3.0 { "yes" } else { "NO" }),
            None => ("-".to_string(), "-"),
        };
        println!(
            "{name:<14} {unit:>6} {med:>12.4} {q1:>12.4} {q3:>12.4} {spread:>8.4} {bound:>7} {steady:>9}"
        );
    }
    ExitCode::SUCCESS
}

/// Each end-to-end metric's bound from `BENCHMARK.json` in the working
/// directory (the repository root), if it is there.
fn read_bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(doc) = json::parse(&text) else {
        return BTreeMap::new();
    };
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            Some((name, m.get("bound")?.as_num()?))
        })
        .collect()
}

/// Core count, CPU model and cache sizes of the host.
fn print_host() {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let mut caches = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        caches.push(format!("L{} {} {}", level.trim(), kind.trim(), size.trim()));
    }
    println!(
        "host: nproc {cores}, cpu {model}, caches [{}]",
        caches.join(", ")
    );
}
