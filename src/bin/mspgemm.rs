//! `mspgemm` — command-line front end for the masked-SpGEMM library.
//!
//! ```text
//! mspgemm tc       --graph com-Orkut --scale 0.3          triangle count
//! mspgemm run      --mtx path.mtx --tiles 2048 --acc hash32 --kappa 1.0
//! mspgemm tune     --graph circuit5M --scale 0.3           Fig. 12 flow
//! mspgemm predict  --graph GAP-road --scale 0.3            model-based config
//! mspgemm stats    --mtx path.mtx                          structure report
//! mspgemm serve    --graph GAP-road --tenants 8 --iters 25  service demo
//! mspgemm stress   --graph GAP-road --tenants 64 --runs 50  adversarial check
//! ```
//!
//! Graphs come either from `--mtx <file>` (Matrix Market; symmetrised and
//! booleanised) or `--graph <name>` (a synthetic Table I stand-in from
//! `mspgemm-gen`, sized by `--scale`).

use masked_spgemm_repro::core::RunStats;
use masked_spgemm_repro::prelude::*;
use masked_spgemm_repro::rt::{json, obs};
use mspgemm_sparse::stats::MatrixStats;
use mspgemm_sparse::{Coo, SparseError};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Unwrap an execution result or exit 1 with the structured error — the
/// library degrades/reports instead of panicking, and so does the CLI.
fn or_die<T>(r: Result<T, SparseError>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("mspgemm: {e}");
            std::process::exit(1);
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Arm the global registries for any observability flags present. Must
/// happen before the measured run (arming is sticky for the process).
fn arm_observability(flags: &HashMap<String, String>) {
    if flags.contains_key("metrics") {
        obs::arm_metrics();
    }
    if flags.contains_key("trace") {
        obs::arm_trace();
    }
}

/// Render a `mspgemm.run/1` report: timing windows, load balance,
/// per-thread accounting, and the counter/histogram delta for the run.
fn run_report_json(command: &str, cfg: &Config, stats: &RunStats, extra: &[(&str, u64)]) -> String {
    let mut s = format!(
        "{{\"schema\":\"mspgemm.run/1\",\"command\":\"{command}\",\"config\":\"{}\"",
        cfg.label()
    );
    for (k, v) in extra {
        s.push_str(&format!(",\"{k}\":{v}"));
    }
    s.push_str(&format!(
        ",\"elapsed_ms\":{:.3},\"setup_ms\":{:.3},\"retry_elapsed_ms\":{:.3},\"total_ms\":{:.3}",
        ms(stats.elapsed),
        ms(stats.setup),
        ms(stats.retry_elapsed),
        ms(stats.total())
    ));
    s.push_str(&format!(
        ",\"output_nnz\":{},\"n_tiles\":{},\"n_threads\":{},\"imbalance\":{:.4}",
        stats.output_nnz, stats.n_tiles, stats.n_threads, stats.imbalance()
    ));
    s.push_str(&format!(
        ",\"failed_tiles\":{},\"retried_tiles\":{}",
        stats.failed_tiles, stats.retried_tiles
    ));
    s.push_str(",\"threads\":[");
    for (i, t) in stats.thread_reports.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"tiles_run\":{},\"tiles_failed\":{},\"busy_ms\":{:.3}}}",
            t.tiles_run,
            t.tiles_failed,
            ms(t.busy)
        ));
    }
    s.push(']');
    s.push(',');
    match &stats.metrics {
        Some(m) => s.push_str(&m.to_json_fragment()),
        // defensive: --metrics always arms before the run, so this arm
        // only fires if report emission is requested some other way
        None => s.push_str(&obs::snapshot().to_json_fragment()),
    }
    s.push('}');
    s
}

/// Write the report and/or chrome trace named by `--metrics` / `--trace`.
fn emit_observability(flags: &HashMap<String, String>, command: &str, cfg: &Config, stats: &RunStats, extra: &[(&str, u64)]) {
    if let Some(path) = flags.get("metrics") {
        let doc = run_report_json(command, cfg, stats, extra);
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("mspgemm: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("metrics report: {path}");
    }
    if let Some(path) = flags.get("trace") {
        let events = obs::take_trace();
        if let Err(e) = std::fs::write(path, obs::trace_to_chrome_json(&events)) {
            eprintln!("mspgemm: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("trace ({} events): {path}", events.len());
    }
}

/// Structural validation for the three JSON schemas this repo emits.
/// Returns the schema name so the caller can report what it checked.
fn check_metrics_doc(doc: &json::Value) -> Result<String, String> {
    let schema = doc
        .get("schema")
        .and_then(|v| v.as_str())
        .ok_or("missing string field \"schema\"")?
        .to_string();
    let require_num = |key: &str| -> Result<(), String> {
        doc.get(key)
            .and_then(|v| v.as_num())
            .map(|_| ())
            .ok_or(format!("missing numeric field {key:?}"))
    };
    let check_registry = || -> Result<(), String> {
        let counters =
            doc.get("counters").and_then(|v| v.as_obj()).ok_or("missing object \"counters\"")?;
        if counters.is_empty() {
            return Err("\"counters\" is empty — the catalogue is schema-stable".into());
        }
        for (name, v) in counters {
            v.as_num().ok_or(format!("counter {name:?} is not a number"))?;
        }
        // the assembly and liveness counters are part of the stable
        // catalogue: snapshots emit every name (zeros included), so
        // absence means a stale schema
        for required in [
            "driver.compaction_bytes",
            "driver.slack_nnz",
            "watchdog.stalls_detected",
            "pool.workers_respawned",
            "sched.tiles_cancelled",
            "svc.deadline_shed",
            "svc.cancelled_in_flight",
            "svc.submit_retries",
            "fusion.ops_fused",
            "fusion.tiles_chained",
            "fusion.sink_fused_elements",
            "accum.overbook_spills",
            "accum.overbook_saved_bytes",
        ] {
            if !counters.iter().any(|(name, _)| name == required) {
                return Err(format!("missing required counter {required:?}"));
            }
        }
        let hists = doc
            .get("histograms")
            .and_then(|v| v.as_obj())
            .ok_or("missing object \"histograms\"")?;
        for (name, v) in hists {
            let buckets = v.as_arr().ok_or(format!("histogram {name:?} is not an array"))?;
            if buckets.len() != obs::HIST_BUCKETS {
                return Err(format!(
                    "histogram {name:?} has {} buckets, expected {}",
                    buckets.len(),
                    obs::HIST_BUCKETS
                ));
            }
            for b in buckets {
                b.as_num().ok_or(format!("histogram {name:?} has a non-numeric bucket"))?;
            }
        }
        Ok(())
    };
    match schema.as_str() {
        "mspgemm.run/1" => {
            for key in [
                "elapsed_ms",
                "setup_ms",
                "retry_elapsed_ms",
                "total_ms",
                "output_nnz",
                "n_tiles",
                "n_threads",
                "imbalance",
            ] {
                require_num(key)?;
            }
            let threads =
                doc.get("threads").and_then(|v| v.as_arr()).ok_or("missing array \"threads\"")?;
            for t in threads {
                t.get("busy_ms")
                    .and_then(|v| v.as_num())
                    .ok_or("thread entry missing numeric \"busy_ms\"")?;
            }
            check_registry()?;
        }
        "mspgemm.metrics/1" => check_registry()?,
        "mspgemm.bench/1" => {
            doc.get("name").and_then(|v| v.as_str()).ok_or("missing string \"name\"")?;
            let columns =
                doc.get("columns").and_then(|v| v.as_arr()).ok_or("missing array \"columns\"")?;
            let rows = doc.get("rows").and_then(|v| v.as_arr()).ok_or("missing array \"rows\"")?;
            for r in rows {
                let row = r.as_arr().ok_or("\"rows\" entry is not an array")?;
                if row.len() != columns.len() {
                    return Err(format!(
                        "row width {} does not match {} columns",
                        row.len(),
                        columns.len()
                    ));
                }
            }
        }
        other => return Err(format!("unknown schema {other:?}")),
    }
    Ok(schema)
}

fn usage() -> ! {
    eprintln!(
        "usage: mspgemm <tc|ktruss|run|session|serve|stress|tune|predict|stats|check-metrics|list> [options]\n\
         \n\
         input (one of):\n\
           --mtx <file>        Matrix Market file (symmetrised, boolean)\n\
           --graph <name>      synthetic suite graph (see `mspgemm list`), or the\n\
                               overbook adversaries planted-outlier | uniform-bulk\n\
           --scale <f>         synthetic graph scale (default 0.3)\n\
         \n\
         tiling & scheduling — §V-A (run/tc/session):\n\
           --tiles <n>         tile count (default 2048)\n\
           --tiling <balanced|uniform>             FLOP-balanced vs equal rows\n\
           --schedule <static|dynamic|guided>\n\
           --chunk <n>         claim granularity for dynamic/guided (default 1;\n\
                               guided decays from n toward 1 as the queue drains)\n\
         \n\
         kernel policy — §V-B/§V-C (run/tc/session):\n\
           --iter <vanilla|mask|coiter|hybrid>     iteration space (default hybrid)\n\
           --kappa <f>         hybrid co-iteration switch factor (default 1.0)\n\
           --acc <dense|hash><8|16|32|64> | sort   accumulator family + marker\n\
                               width (default hash32)\n\
           --overbook <off|p90|p99|qNN>            size hash accumulators at a\n\
                               quantile of the per-row bounds instead of the max;\n\
                               overflowing rows are recomputed at the hard bound\n\
                               (bit-identical; default off)\n\
           --simd <auto|scalar|force>              SIMD kernel selection: auto picks\n\
                               the profitable vector paths at plan time, force\n\
                               engages every vector instantiation the CPU has\n\
                               (default auto)\n\
         \n\
         execution (run/tc/session):\n\
           --threads <n>       worker threads (default: all cores)\n\
           --bands <n>         2-D tiling column bands (run only, default 1)\n\
           --reps <n>          timing repetitions (run only, default 3)\n\
           --iters <n>         planned executions (session only, default 50)\n\
           --k <n>             truss order (ktruss only, default 3); ktruss runs\n\
                               the fused PlanGraph peeling and cross-checks it\n\
                               against the unfused Session loop\n\
         \n\
         concurrent service (serve/stress):\n\
           --tenants <n>       concurrent submitting tenants (serve: 4, stress: 64)\n\
           --iters <n>         submissions per tenant (serve only, default 25)\n\
           --runs <n>          submissions per tenant (stress only, default 50)\n\
           --queue <n>         admission queue capacity (default 256)\n\
           --batch <n>         max jobs coalesced per dispatch (default 16)\n\
           --seed <n>          stress schedule seed (default 0x5eed)\n\
           --cancel <permille> stress: submissions cancelled (default 100)\n\
           --drop <permille>   stress: tickets dropped unwaited (default 50)\n\
           --deadline <permille> stress: submissions carrying a tight enforced\n\
                               deadline, 0-500 us out (default 0)\n\
         \n\
         liveness (env):\n\
           MSPGEMM_WATCHDOG_MS stall budget before the pool watchdog abandons\n\
                               a tile and respawns its worker (default 5000;\n\
                               0 disables the watchdog)\n\
         \n\
         observability (run/tc/session/serve/stress):\n\
           --metrics <file>    arm counters, write a mspgemm.run/1 JSON report\n\
                               (stress writes a standalone mspgemm.metrics/1)\n\
           --trace <file>      arm spans, write a chrome://tracing JSON file\n\
         \n\
         check-metrics:\n\
           --file <path>       validate a mspgemm.{{run,metrics,bench}}/1 document"
    );
    std::process::exit(2);
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if i + 1 >= args.len() {
                eprintln!("missing value for --{name}");
                usage();
            }
            flags.insert(name.to_string(), args[i + 1].clone());
            i += 2;
        } else {
            eprintln!("unexpected argument {a:?}");
            usage();
        }
    }
    flags
}

fn load_graph(flags: &HashMap<String, String>) -> Csr<u64> {
    if let Some(path) = flags.get("mtx") {
        let raw = masked_spgemm_repro::sparse::io::read_matrix_market(path)
            .unwrap_or_else(|e| {
                eprintln!("failed to read {path}: {e}");
                std::process::exit(1);
            });
        masked_spgemm_repro::gen::symmetrize_boolean(&raw).spones(1u64)
    } else if let Some(name) = flags.get("graph") {
        let scale: f64 = flag(flags, "scale", 0.3);
        // the overbook adversaries live outside the Table I suite (the
        // suite is pinned at ten graphs); resolve them by name here
        if name.eq_ignore_ascii_case("planted-outlier") || name.eq_ignore_ascii_case("uniform-bulk")
        {
            use masked_spgemm_repro::gen::outlier::{planted_outliers, uniform_bulk, OutlierParams};
            let n = ((10_000.0 * scale) as usize).max(100);
            let p = OutlierParams { n_outliers: (n / 100).max(1), ..OutlierParams::default() };
            let g = if name.eq_ignore_ascii_case("planted-outlier") {
                planted_outliers(n, p, 0x0b5e55ed)
            } else {
                uniform_bulk(n, p, 0x0b5e55ed)
            };
            return g.spones(1u64);
        }
        let spec = suite_specs()
            .into_iter()
            .find(|s| s.name.eq_ignore_ascii_case(name))
            .unwrap_or_else(|| {
                eprintln!("unknown graph {name:?}; available:");
                for s in suite_specs() {
                    eprintln!("  {} ({})", s.name, s.kind.letter());
                }
                std::process::exit(1);
            });
        suite_graph(&spec, scale).spones(1u64)
    } else {
        eprintln!("need --mtx or --graph");
        usage();
    }
}

/// The mask restricted to every `stride`-th row of `a` — a BFS-style
/// frontier, the small-product workload the service's batching targets.
fn frontier_mask(a: &Csr<u64>, stride: usize) -> Csr<u64> {
    let mut coo = Coo::new(a.nrows(), a.ncols());
    for i in (0..a.nrows()).step_by(stride.max(1)) {
        let (cols, _) = a.row(i);
        for &j in cols {
            coo.push(i, j as usize, 1u64);
        }
    }
    coo.to_csr_with(|v, _| v)
}

/// Percentile (nearest-rank) of an already-sorted sample, in the same unit.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The value of `--name` parsed as a `T`, or `default` when the flag is
/// absent. A malformed value prints `bad --name` and the usage, and exits
/// with status 2.
fn flag<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str, default: T) -> T {
    match flags.get(name).map(|v| v.parse()) {
        None => default,
        Some(Ok(v)) => v,
        Some(Err(_)) => {
            eprintln!("bad --{name}");
            usage();
        }
    }
}

fn parse_config(flags: &HashMap<String, String>) -> Config {
    let defaults = Config::default();
    let mut b = Config::builder()
        .n_threads(flag(flags, "threads", defaults.n_threads))
        .n_tiles(flag(flags, "tiles", defaults.n_tiles));
    if let Some(t) = flags.get("tiling") {
        b = b.tiling(match t.as_str() {
            "balanced" => TilingStrategy::FlopBalanced,
            "uniform" => TilingStrategy::Uniform,
            other => {
                eprintln!("bad --tiling {other:?}");
                usage();
            }
        });
    }
    let chunk: usize = flag(flags, "chunk", 1);
    if let Some(s) = flags.get("schedule") {
        b = b.schedule(match s.as_str() {
            "static" => Schedule::Static,
            "dynamic" => Schedule::Dynamic { chunk },
            "guided" => Schedule::Guided { chunk },
            other => {
                eprintln!("bad --schedule {other:?}");
                usage();
            }
        });
    } else if chunk != 1 {
        // --chunk without --schedule adjusts the default dynamic schedule
        b = b.schedule(Schedule::Dynamic { chunk });
    }
    // --- kernel-policy group: --acc / --iter / --kappa / --overbook / --simd ---
    let mut kernel = KernelPolicy::new();
    if let Some(a) = flags.get("acc") {
        kernel = kernel.accumulator(match a.as_str() {
            "dense8" => AccumulatorKind::Dense(MarkerWidth::W8),
            "dense16" => AccumulatorKind::Dense(MarkerWidth::W16),
            "dense32" => AccumulatorKind::Dense(MarkerWidth::W32),
            "dense64" => AccumulatorKind::Dense(MarkerWidth::W64),
            "hash8" => AccumulatorKind::Hash(MarkerWidth::W8),
            "hash16" => AccumulatorKind::Hash(MarkerWidth::W16),
            "hash32" => AccumulatorKind::Hash(MarkerWidth::W32),
            "hash64" => AccumulatorKind::Hash(MarkerWidth::W64),
            "sort" => AccumulatorKind::Sort,
            other => {
                eprintln!("bad --acc {other:?}");
                usage();
            }
        });
    }
    let kappa: f64 = flag(flags, "kappa", 1.0);
    kernel = kernel.iteration(match flags.get("iter").map(String::as_str) {
        None | Some("hybrid") => IterationSpace::Hybrid { kappa },
        Some("vanilla") => IterationSpace::Vanilla,
        Some("mask") => IterationSpace::MaskAccumulate,
        Some("coiter") => IterationSpace::CoIterate,
        Some(other) => {
            eprintln!("bad --iter {other:?}");
            usage();
        }
    });
    if let Some(o) = flags.get("overbook") {
        kernel = kernel.overbook(match o.as_str() {
            "off" => Overbook::Off,
            "p90" => Overbook::p90(),
            "p99" => Overbook::p99(),
            other => match other.strip_prefix('q').and_then(|q| q.parse::<f64>().ok()) {
                // qNN is a percentile: --overbook q95 books at the p95 bound
                Some(pct) if (0.0..=100.0).contains(&pct) => {
                    Overbook::Quantile { q: pct / 100.0 }
                }
                _ => {
                    eprintln!("bad --overbook {other:?} (want off|p90|p99|qNN)");
                    usage();
                }
            },
        });
    }
    if let Some(s) = flags.get("simd") {
        kernel = kernel.simd(match s.as_str() {
            "auto" => SimdMode::Auto,
            "scalar" => SimdMode::Scalar,
            "force" => SimdMode::Force,
            other => {
                eprintln!("bad --simd {other:?} (want auto|scalar|force)");
                usage();
            }
        });
    }
    b.kernel_policy(kernel).build()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    if cmd == "list" {
        for s in suite_specs() {
            println!("{} ({})", s.name, s.kind.letter());
        }
        return ExitCode::SUCCESS;
    }
    let flags = parse_flags(&args[1..]);

    match cmd.as_str() {
        "stats" => {
            let a = load_graph(&flags);
            println!("{}", MatrixStats::compute(&a));
        }
        "tc" => {
            let a = load_graph(&flags);
            let cfg = parse_config(&flags);
            arm_observability(&flags);
            let t0 = Instant::now();
            let (t, stats) = or_die(count_triangles_with_stats(&a, &cfg));
            println!("triangles: {t}  ({:.1} ms)", t0.elapsed().as_secs_f64() * 1e3);
            emit_observability(&flags, "tc", &cfg, &stats, &[("triangles", t)]);
        }
        "ktruss" => {
            // fused-vs-unfused smoke: run the PlanGraph peeling and the
            // Session reference on the same graph and demand bit-identity
            let a = load_graph(&flags);
            let cfg = parse_config(&flags);
            let k = flag(&flags, "k", 3);
            if k < 2 {
                eprintln!("mspgemm: --k must be >= 2");
                std::process::exit(2);
            }
            arm_observability(&flags);
            let t0 = Instant::now();
            let fused = or_die(masked_spgemm_repro::graph::ktruss(&a, k, &cfg));
            let fused_ms = t0.elapsed().as_secs_f64() * 1e3;
            let t1 = Instant::now();
            let unfused = or_die(masked_spgemm_repro::graph::ktruss_unfused(&a, k, &cfg));
            let unfused_ms = t1.elapsed().as_secs_f64() * 1e3;
            println!(
                "{k}-truss: {} edges in {} round(s) | fused {fused_ms:.1} ms, unfused {unfused_ms:.1} ms",
                fused.truss.nnz(),
                fused.rounds
            );
            if obs::armed() {
                println!(
                    "fusion: {} ops fused, {} tiles chained, {} sink elements",
                    obs::counter_value(obs::Counter::FusionOpsFused),
                    obs::counter_value(obs::Counter::FusionTilesChained),
                    obs::counter_value(obs::Counter::FusionSinkFusedElems),
                );
            }
            if fused.truss != unfused.truss || fused.rounds != unfused.rounds {
                eprintln!(
                    "mspgemm: fused/unfused k-truss diverged: {} vs {} edges, {} vs {} rounds",
                    fused.truss.nnz(),
                    unfused.truss.nnz(),
                    fused.rounds,
                    unfused.rounds
                );
                std::process::exit(1);
            }
            // standalone mspgemm.metrics/1 document — the CI fusion smoke
            // reads the fusion.* counters out of this file
            if let Some(path) = flags.get("metrics") {
                if let Err(e) = std::fs::write(path, obs::snapshot().to_json()) {
                    eprintln!("mspgemm: cannot write {path}: {e}");
                    std::process::exit(1);
                }
                println!("metrics report: {path}");
            }
        }
        "run" => {
            let a = load_graph(&flags);
            let cfg = parse_config(&flags);
            let bands: usize = flag(&flags, "bands", 1);
            let reps: usize = flag(&flags, "reps", 3);
            println!("config: {} | bands {bands}", cfg.label());
            arm_observability(&flags);
            let mut last_stats: Option<RunStats> = None;
            for rep in 0..reps {
                if bands > 1 {
                    let t0 = Instant::now();
                    let c = or_die(masked_spgemm_2d::<PlusPair>(&a, &a, &a, &cfg, bands));
                    println!(
                        "rep {rep}: {:.2} ms, output nnz {}",
                        t0.elapsed().as_secs_f64() * 1e3,
                        c.nnz()
                    );
                } else {
                    let (c, stats) = or_die(spgemm::<PlusPair>(&a, &a, &a, &cfg));
                    println!(
                        "rep {rep}: {:.2} ms kernel (+{:.2} ms setup), output nnz {}, imbalance {:.2}",
                        stats.elapsed.as_secs_f64() * 1e3,
                        stats.setup.as_secs_f64() * 1e3,
                        c.nnz(),
                        stats.imbalance()
                    );
                    last_stats = Some(stats);
                }
            }
            // the report covers the final repetition (warmed caches)
            if let Some(stats) = last_stats {
                emit_observability(&flags, "run", &cfg, &stats, &[]);
            } else if flags.contains_key("metrics") || flags.contains_key("trace") {
                eprintln!("mspgemm: --metrics/--trace need the 1-band driver (bands 1)");
                std::process::exit(1);
            }
        }
        "tune" => {
            let a = load_graph(&flags);
            let opts = TunerOptions::default();
            let report = or_die(tune::<PlusPair>(&a, &a, &a, &opts));
            println!("stage 1: {} configs measured", report.stage1.len());
            println!("stage 2: {} κ values measured", report.stage2.len());
            println!("stage 3: {} marker widths measured", report.stage3.len());
            println!(
                "tuned: {}  ({:.2} ms)",
                report.best.label(),
                report.best_time.as_secs_f64() * 1e3
            );
        }
        "predict" => {
            let a = load_graph(&flags);
            let p = predict_config::<PlusPair>(&a, &a, &a, 0);
            println!("predicted: {}", p.config.label());
            for r in &p.reasons {
                println!("  - {r}");
            }
            let (_, stats) = or_die(spgemm::<PlusPair>(&a, &a, &a, &p.config));
            println!("measured: {:.2} ms", stats.elapsed.as_secs_f64() * 1e3);
        }
        "session" => {
            let a = load_graph(&flags);
            let cfg = parse_config(&flags);
            let iters: usize = flag(&flags, "iters", 50);
            arm_observability(&flags);
            println!("config: {} | {iters} planned executions", cfg.label());

            let mut session = Session::<PlusPair>::new(cfg);
            // first execution builds the plan and spawns the worker pool
            let (c, first) = or_die(session.execute(&a, &a, &a));
            let spawned_before = obs::counter_value(obs::Counter::SchedWorkersSpawned);
            let t0 = Instant::now();
            let mut last_stats = first;
            for _ in 0..iters {
                let (_, stats) = or_die(session.execute(&a, &a, &a));
                last_stats = stats;
            }
            let loop_ms = t0.elapsed().as_secs_f64() * 1e3;
            let spawned_after = obs::counter_value(obs::Counter::SchedWorkersSpawned);
            println!(
                "output nnz {}, {:.3} ms/execute amortized, {} plan rebuild(s)",
                c.nnz(),
                loop_ms / iters as f64,
                session.rebuilds()
            );
            emit_observability(&flags, "session", &cfg, &last_stats, &[
                ("iters", iters as u64),
                ("rebuilds", session.rebuilds()),
                ("workers_spawned", spawned_after),
            ]);
            // the executor-reuse invariant: a warm pool never respawns
            // threads across same-width planned executions. Only checkable
            // when the counters are armed.
            if obs::armed() && spawned_after != spawned_before {
                eprintln!(
                    "mspgemm: worker pool grew during plan reuse: {spawned_before} -> {spawned_after} threads spawned"
                );
                std::process::exit(1);
            }
        }
        "serve" => {
            // In-process service demo: N tenants in a closed loop, each
            // submitting its own frontier-masked product against one
            // Service. Reports throughput, queue-delay percentiles, and
            // (with --metrics) an aggregate mspgemm.run/1 document whose
            // svc.* counters cover the whole serving window.
            let a = Arc::new(load_graph(&flags));
            let cfg = parse_config(&flags);
            let tenants = flag(&flags, "tenants", 4).max(1);
            let iters = flag(&flags, "iters", 25).max(1);
            arm_observability(&flags);
            let service: Service<PlusPair> = Service::on(
                Executor::global(),
                ServiceOptions {
                    queue_capacity: flag(&flags, "queue", 256).max(1),
                    batch_max: flag(&flags, "batch", 16).max(1),
                    ..ServiceOptions::default()
                },
            );
            println!(
                "serving {} tenants x {} submissions (queue {}, batch {})",
                tenants, iters, service.capacity(), service.batch_max()
            );
            let delays: Mutex<Vec<u64>> = Mutex::new(Vec::new());
            let last_stats: Mutex<Option<RunStats>> = Mutex::new(None);
            let t0 = Instant::now();
            std::thread::scope(|scope| {
                for tenant in 0..tenants {
                    let (service, a, delays, last_stats) = (&service, &a, &delays, &last_stats);
                    scope.spawn(move || {
                        // each tenant queries a different fixed frontier,
                        // so the dispatcher's plan cache sees per-tenant
                        // reuse across the closed loop
                        let mask = Arc::new(frontier_mask(a, 4 + tenant));
                        for _ in 0..iters {
                            let ticket = loop {
                                match service.submit(
                                    Arc::clone(a),
                                    Arc::clone(a),
                                    Arc::clone(&mask),
                                    cfg,
                                    SubmitOptions { tenant: tenant as u32, ..Default::default() },
                                ) {
                                    Ok(t) => break t,
                                    Err(SparseError::QueueFull { .. }) => {
                                        std::thread::yield_now();
                                    }
                                    Err(e) => {
                                        eprintln!("mspgemm: {e}");
                                        std::process::exit(1);
                                    }
                                }
                            };
                            let reply = or_die(ticket.wait());
                            delays
                                .lock()
                                .unwrap()
                                .push(reply.queue_delay.as_micros() as u64);
                            *last_stats.lock().unwrap() = Some(reply.stats);
                        }
                    });
                }
            });
            let elapsed = t0.elapsed();
            let mut delays = delays.into_inner().unwrap();
            delays.sort_unstable();
            let jobs = delays.len() as u64;
            println!(
                "{} jobs in {:.1} ms: {:.0} jobs/s, queue delay p50 {} us / p99 {} us",
                jobs,
                ms(elapsed),
                jobs as f64 / elapsed.as_secs_f64(),
                percentile(&delays, 50.0),
                percentile(&delays, 99.0),
            );
            println!(
                "batches {}, batched jobs {}, plan cache {} hit / {} miss",
                obs::counter_value(obs::Counter::SvcBatches),
                obs::counter_value(obs::Counter::SvcBatchedJobs),
                obs::counter_value(obs::Counter::SvcPlanCacheHits),
                obs::counter_value(obs::Counter::SvcPlanCacheMisses),
            );
            let stats = last_stats.into_inner().unwrap();
            if let Some(stats) = stats {
                emit_observability(&flags, "serve", &cfg, &stats, &[
                    ("tenants", tenants as u64),
                    ("jobs", jobs),
                    ("p50_queue_delay_us", percentile(&delays, 50.0)),
                    ("p99_queue_delay_us", percentile(&delays, 99.0)),
                ]);
            }
        }
        "stress" => {
            // Adversarial multi-tenant schedule on a dedicated executor:
            // seeded submit/cancel/drop storms over three mask shapes,
            // every reply checked bit-identical to its serial reference.
            // Exit is non-zero on any mismatch or leaked queue slot, so
            // this doubles as the CI concurrency smoke (run it with
            // MSPGEMM_FAILPOINTS armed to cover fault recovery too).
            let a = Arc::new(load_graph(&flags));
            let cfg = parse_config(&flags);
            if flags.contains_key("metrics") {
                obs::arm_metrics();
            }
            let spec = StressSpec {
                tenants: flag(&flags, "tenants", 64).max(1),
                runs_per_tenant: flag(&flags, "runs", 50).max(1),
                seed: flag(&flags, "seed", 0x5eed),
                queue_capacity: flag(&flags, "queue", 256).max(1),
                batch_max: flag(&flags, "batch", 16).max(1),
                cancel_permille: flag(&flags, "cancel", 100),
                drop_permille: flag(&flags, "drop", 50),
                deadline_permille: flag(&flags, "deadline", 0),
            };
            let cases: Vec<StressCase<PlusPair>> = [1usize, 4, 16]
                .iter()
                .map(|&stride| StressCase {
                    a: Arc::clone(&a),
                    b: Arc::clone(&a),
                    mask: Arc::new(frontier_mask(&a, stride)),
                    config: cfg,
                })
                .collect();
            let exec = Executor::new();
            println!(
                "stress: {} tenants x {} runs, seed {:#x}, cancel {}‰ / drop {}‰ / deadline {}‰",
                spec.tenants, spec.runs_per_tenant, spec.seed,
                spec.cancel_permille, spec.drop_permille, spec.deadline_permille
            );
            let t0 = Instant::now();
            let report = or_die(run_stress::<PlusPair>(&exec, spec, &cases));
            println!(
                "{:.1} ms: submitted {}, completed {}, cancelled {} ({} in flight), \
                 deadline-exceeded {}, dropped {}, rejected {}, tile-failed {}, \
                 workers {} (+{} respawned)",
                ms(t0.elapsed()),
                report.submitted, report.completed, report.cancelled, report.cancel_requested,
                report.deadline_exceeded, report.dropped, report.rejected, report.failed,
                report.spawned_workers, report.respawned_workers
            );
            let mut bad = false;
            if report.mismatches != 0 {
                eprintln!(
                    "mspgemm: {} replies were NOT bit-identical to the serial reference",
                    report.mismatches
                );
                bad = true;
            }
            if report.queue_depth_end != 0 {
                eprintln!(
                    "mspgemm: {} queue slots leaked after all tenants finished",
                    report.queue_depth_end
                );
                bad = true;
            }
            if bad {
                std::process::exit(1);
            }
            // standalone mspgemm.metrics/1 document — the CI watchdog
            // smoke reads the liveness counters out of this file
            if let Some(path) = flags.get("metrics") {
                if let Err(e) = std::fs::write(path, obs::snapshot().to_json()) {
                    eprintln!("mspgemm: cannot write {path}: {e}");
                    std::process::exit(1);
                }
                println!("metrics report: {path}");
            }
            println!("ok: all replies bit-identical to serial, queue drained to zero");
        }
        "check-metrics" => {
            let Some(path) = flags.get("file") else {
                eprintln!("check-metrics needs --file <path>");
                usage();
            };
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("mspgemm: cannot read {path}: {e}");
                std::process::exit(1);
            });
            let doc = json::parse(&text).unwrap_or_else(|e| {
                eprintln!("mspgemm: {path}: invalid JSON: {e}");
                std::process::exit(1);
            });
            match check_metrics_doc(&doc) {
                Ok(schema) => println!("{path}: valid {schema}"),
                Err(why) => {
                    eprintln!("mspgemm: {path}: {why}");
                    std::process::exit(1);
                }
            }
        }
        other => {
            eprintln!("unknown command {other:?}");
            usage();
        }
    }
    ExitCode::SUCCESS
}
