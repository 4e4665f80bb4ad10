//! Executable shape checks: read the CSVs produced by the figure binaries
//! and evaluate the paper's qualitative claims, printing a verdict per
//! claim: PASS, FAIL, or NOT REPRODUCED when the measured effect sits
//! inside the noise band, so that neither outcome can be claimed (or
//! when a claim's premise was not reproduced). Only FAIL sets the exit
//! code. EXPERIMENTS.md quotes this output, and CI diffs it against
//! `results/verdicts.txt`.
//!
//! Run after `./run_experiments.sh`:
//! `cargo run --release -p mspgemm-bench --bin verdicts`

use std::collections::HashMap;
use std::path::Path;

/// Parse a CSV (header + comma rows) into column-keyed string records.
fn read_csv(path: &str) -> Option<Vec<HashMap<String, String>>> {
    let text = std::fs::read_to_string(Path::new("results").join(path)).ok()?;
    let mut lines = text.lines();
    let header: Vec<String> = lines.next()?.split(',').map(|s| s.to_string()).collect();
    Some(
        lines
            .filter(|l| !l.trim().is_empty())
            .map(|l| {
                header
                    .iter()
                    .cloned()
                    .zip(l.split(',').map(|s| s.to_string()))
                    .collect()
            })
            .collect(),
    )
}

fn f(rec: &HashMap<String, String>, k: &str) -> f64 {
    rec[k].parse().unwrap_or(f64::NAN)
}

#[derive(Default)]
struct Verdicts {
    passed: usize,
    failed: usize,
    not_reproduced: usize,
}

impl Verdicts {
    fn check(&mut self, claim: &str, ok: bool, detail: String) {
        self.report(claim, if ok { "PASS" } else { "FAIL" }, detail);
    }

    /// Print one verdict; any label but PASS and FAIL counts as not
    /// reproduced.
    fn report(&mut self, claim: &str, label: &str, detail: String) {
        match label {
            "PASS" => self.passed += 1,
            "FAIL" => self.failed += 1,
            _ => self.not_reproduced += 1,
        }
        println!("{label}  {claim}\n      {detail}");
    }
}

fn main() {
    let mut v = Verdicts::default();

    // ---------------- Fig. 1 claims ----------------
    if let Some(rows) = read_csv("fig1.csv") {
        // "there are outliers where one implementation under-performs"
        let mut worst_grb: f64 = 0.0;
        let mut worst_tuned: f64 = 0.0;
        for r in &rows {
            let best = f(r, "suitesparse_ms").min(f(r, "grb_ms")).min(f(r, "tuned_ms"));
            worst_grb = worst_grb.max(f(r, "grb_ms") / best);
            worst_tuned = worst_tuned.max(f(r, "tuned_ms") / best);
        }
        v.check(
            "Fig.1: a baseline policy has extreme outlier graphs (≥3x off best)",
            worst_grb >= 3.0,
            format!("GrB policy worst-case ratio vs best: {worst_grb:.1}x"),
        );
        v.check(
            "Fig.1: the tuned configuration eliminates extreme outliers (<2x everywhere)",
            worst_tuned < 2.0,
            format!("tuned worst-case ratio vs best: {worst_tuned:.2}x"),
        );
    } else {
        eprintln!("skipping Fig.1 (results/fig1.csv missing)");
    }

    // ---------------- Fig. 11 claims ----------------
    if let Some(rows) = read_csv("fig11.csv") {
        // organise: time[graph][(tiles, accum, tiling, schedule)]
        let mut graphs: HashMap<String, Vec<&HashMap<String, String>>> = HashMap::new();
        for r in &rows {
            graphs.entry(r["graph"].clone()).or_default().push(r);
        }
        // (1) balanced no worse than uniform, per graph at the best-over-
        //     tile-counts level (dynamic schedule, either accumulator)
        let mut balanced_wins = 0usize;
        let mut total = 0usize;
        // (2) uniform poor at the lowest tile count: uniform_best(low) ≥ balanced_best(low)
        let mut uniform_low_worse = 0usize;
        for (_g, rs) in &graphs {
            let best = |tiling: &str, tiles_filter: &dyn Fn(u64) -> bool| -> f64 {
                rs.iter()
                    .filter(|r| r["tiling"] == tiling && tiles_filter(r["n_tiles"].parse().unwrap()))
                    .map(|r| f(r, "time_ms"))
                    .fold(f64::INFINITY, f64::min)
            };
            let bal = best("FlopBalanced", &|_| true);
            let uni = best("Uniform", &|_| true);
            total += 1;
            if bal <= uni * 1.10 {
                balanced_wins += 1;
            }
            let min_tiles = rs.iter().map(|r| r["n_tiles"].parse::<u64>().unwrap()).min().unwrap();
            let bal_low = best("FlopBalanced", &|t| t == min_tiles);
            let uni_low = best("Uniform", &|t| t == min_tiles);
            if uni_low >= bal_low * 0.95 {
                uniform_low_worse += 1;
            }
        }
        v.check(
            "Fig.11 obs.1: balanced tiling performs no worse than uniform (best-over-counts, ±10%)",
            balanced_wins * 10 >= total * 8,
            format!("{balanced_wins}/{total} graphs"),
        );
        v.check(
            "Fig.11 obs.2: at the lowest tile count uniform does not beat balanced",
            uniform_low_worse * 10 >= total * 7,
            format!("{uniform_low_worse}/{total} graphs"),
        );
    } else {
        eprintln!("skipping Fig.11 (results/fig11.csv missing)");
    }

    // ---------------- Fig. 10 claim ----------------
    if let Some(rows) = read_csv("fig10.csv") {
        // the comparative claim: the recommended region (balanced +
        // dynamic, intermediate tile count) covers at least as many graphs
        // as any uniform-tiling configuration. (The paper's absolute
        // 80-90% needs 64 threads; coverage attenuates at low thread
        // counts where scheduling has little leverage.)
        let best = |pred: &dyn Fn(&HashMap<String, String>) -> bool| -> f64 {
            rows.iter()
                .filter(|r| pred(r))
                .map(|r| f(r, "pct_within_10"))
                .fold(0.0, f64::max)
        };
        // "intermediate tile count" is per-thread: the paper's 2048 tiles
        // at 64 threads is 32·p. Accept 4p..64p, with p the thread count
        // the sweep ran at — its tile grid starts at p tiles (`tile_grid`),
        // so the verdict follows from the CSV, not from this host.
        let n_tiles = |r: &HashMap<String, String>| r["n_tiles"].parse::<u64>().unwrap();
        let p = rows.iter().map(n_tiles).min().unwrap_or(1);
        let rec = best(&|r| {
            r["tiling"] == "FlopBalanced"
                && r["schedule"] == "Dynamic"
                && (4 * p..=64 * p).contains(&n_tiles(r))
        });
        let uniform = best(&|r| r["tiling"] == "Uniform");
        v.check(
            "Fig.10: the recommended region (balanced+dynamic, 4p-64p tiles) covers ≥ any uniform config",
            rec >= uniform,
            format!(
                "balanced+dynamic best {rec:.0}% vs uniform best {uniform:.0}% \
                 (paper: 80-90% absolute at 64 threads)"
            ),
        );
    } else {
        eprintln!("skipping Fig.10 (results/fig10.csv missing)");
    }

    // ---------------- Fig. 13 claims ----------------
    if let Some(rows) = read_csv("fig13_raw.csv") {
        // per family: compare widths via geometric-mean time across graphs
        let gmean = |family: &str, bits: &str| -> f64 {
            let label = format!("{family}{bits}");
            let ts: Vec<f64> = rows
                .iter()
                .filter(|r| r["accumulator"] == label)
                .map(|r| f(r, "time_ms").ln())
                .collect();
            (ts.iter().sum::<f64>() / ts.len() as f64).exp()
        };
        let d8 = gmean("dense", "8");
        let d32 = gmean("dense", "32");
        let h8 = gmean("hash", "8");
        let h32 = gmean("hash", "32");
        // a ±2% band around parity is noise: an effect inside it neither
        // reproduces nor refutes the claim
        let hurt = if d8 > d32 * 1.02 {
            "PASS"
        } else if d8 < d32 * 0.98 {
            "FAIL"
        } else {
            "NOT REPRODUCED"
        };
        v.report(
            "Fig.13: 8-bit markers hurt the dense accumulator (d8 > d32 by more than 2%)",
            hurt,
            format!("dense gmean: 8-bit {d8:.1} ms vs 32-bit {d32:.1} ms"),
        );
        // "comparatively robust" compares against the dense penalty, so it
        // means nothing unless that penalty was reproduced
        let robust = if hurt != "PASS" {
            "NOT REPRODUCED (premise)"
        } else if h8 / h32 <= d8 / d32 * 1.10 {
            "PASS"
        } else {
            "FAIL"
        };
        v.report(
            "Fig.13: the hash accumulator is comparatively robust (h8/h32 ≤ d8/d32 + slack)",
            robust,
            format!("ratios: hash {:.3}, dense {:.3}", h8 / h32, d8 / d32),
        );
    } else {
        eprintln!("skipping Fig.13 (results/fig13_raw.csv missing)");
    }

    // ---------------- Fig. 14 claims ----------------
    if let Some(rows) = read_csv("fig14.csv") {
        let get = |graph: &str, acc: &str, kappa: &str| -> Option<f64> {
            rows.iter()
                .find(|r| r["graph"] == graph && r["accumulator"] == acc && r["kappa"] == kappa)
                .map(|r| f(r, "time_ms"))
        };
        let best_kappa = |graph: &str, acc: &str| -> f64 {
            rows.iter()
                .filter(|r| r["graph"] == graph && r["accumulator"] == acc && r["kappa"] != "baseline")
                .map(|r| f(r, "time_ms"))
                .fold(f64::INFINITY, f64::min)
        };
        // road: co-iteration has minimal effect — κ=1 sits within 25% of
        // the no-co-iteration baseline for both accumulators (contrast
        // with circuit5M, where the same ratio is ~8x). Comparing against
        // the best-of-seven κ would reward noise at the 2-3 ms floor.
        let mut road_ok = true;
        let mut detail = String::new();
        for acc in ["dense", "hash"] {
            if let (Some(base), Some(k1)) = (get("GAP-road", acc, "baseline"), get("GAP-road", acc, "1")) {
                detail += &format!("{acc}: baseline {base:.1} ms vs κ=1 {k1:.1} ms; ");
                if (base - k1).abs() / base > 0.25 {
                    road_ok = false;
                }
            }
        }
        v.check(
            "Fig.14a: GAP-road is insensitive to co-iteration (κ=1 within 25% of baseline)",
            road_ok,
            detail,
        );
        // circuit: co-iteration is a dramatic win vs the no-co-iteration baseline
        if let Some(base) = get("circuit5M", "hash", "baseline") {
            let bk = best_kappa("circuit5M", "hash");
            v.check(
                "Fig.14d: circuit5M is rescued by co-iteration (≥3x)",
                base / bk >= 3.0,
                format!("baseline {base:.1} ms vs best-κ {bk:.1} ms = {:.1}x", base / bk),
            );
        }
        // orkut: the dense accumulator improves in the co-iterating
        // κ ≤ 1 region and degrades sharply for κ ≫ 1 (paper shows ~2x
        // improvement at 64 threads with out-of-cache graphs; the effect
        // attenuates when the scaled graph is cache-resident, but the
        // direction and the κ≫1 blow-up must hold)
        if let (Some(base), Some(k100)) =
            (get("com-Orkut", "dense", "baseline"), get("com-Orkut", "dense", "100"))
        {
            let best_low: f64 = ["0.001", "0.01", "0.1", "1"]
                .iter()
                .filter_map(|k| get("com-Orkut", "dense", k))
                .fold(f64::INFINITY, f64::min);
            v.check(
                "Fig.14c: com-Orkut dense improves for κ≤1 and degrades ≥2x at κ=100",
                best_low <= base && k100 >= 2.0 * base,
                format!(
                    "baseline {base:.1} ms, best κ≤1 {best_low:.1} ms, κ=100 {k100:.1} ms"
                ),
            );
        }
        // κ=1 is a safe default: within 2x of the best κ on every graph/accumulator
        let mut safe = true;
        let mut worst = 0.0f64;
        for graph in ["GAP-road", "hollywood-2009", "com-Orkut", "circuit5M"] {
            for acc in ["dense", "hash"] {
                if let Some(k1) = get(graph, acc, "1") {
                    let bk = best_kappa(graph, acc);
                    worst = worst.max(k1 / bk);
                    if k1 > bk * 2.0 {
                        safe = false;
                    }
                }
            }
        }
        v.check(
            "Fig.14/§V-B: κ=1 is a safe default (within 2x of best κ everywhere)",
            safe,
            format!("worst κ=1 vs best-κ ratio: {worst:.2}x"),
        );
    } else {
        eprintln!("skipping Fig.14 (results/fig14.csv missing)");
    }

    println!(
        "\n{} claims passed, {} failed, {} not reproduced",
        v.passed, v.failed, v.not_reproduced
    );
    if v.failed > 0 {
        std::process::exit(1);
    }
}
