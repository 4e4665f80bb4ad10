//! The closed-loop workloads: one caller, the next operation starts when
//! the previous one returns.
//!
//! * `tc-social`: one-shot `spgemm::<PlusPair>(A, A, A)` on the com-Orkut
//!   stand-in, the paper's triangle-counting product.
//! * `ktruss-web`: `ktruss(A, 8)` cycling over a pool of uk-2002
//!   stand-ins, one fused `PlanGraph` per peeling round.

use crate::inputs::{checksum, csr_bytes, mix, suite_input};
use crate::layers::{probe, serial_kernel_ms, set_probe_layers, Counted, Layers};
use crate::report::{median, ms, percentile, Outcome, Samples};
use crate::trace::Tracer;
use crate::{Args, SETUP_REPS};
use mspgemm_core::{spgemm, Config, Executor, GraphBuilder};
use mspgemm_graph::ktruss::{ktruss, ktruss_unfused, KTrussResult};
use mspgemm_graph::triangles::count_triangles_naive;
use mspgemm_rt::obs;
use mspgemm_sparse::{Csr, PlusPair, SparseError};
use std::time::{Duration, Instant};

const TC_GRAPH: (&str, f64) = ("com-Orkut", 0.3);
const KT_GRAPH: (&str, f64) = ("uk-2002", 1.0);
const KT_K: usize = 8;
/// Inputs the ktruss-web ops cycle through: a peeling depth is a property
/// of one graph, so a pool keeps one seed's inputs from setting the
/// figures alone.
const KT_POOL: usize = 16;
/// Single-threaded executions behind `run.parallel_eff`.
const SERIAL_REPS: usize = 3;

/// Run `op` back to back for `budget`, checking every output; an error or
/// a wrong output counts as wrong.
fn closed_loop<R>(
    budget: Duration,
    mut op: impl FnMut() -> Result<R, SparseError>,
    check: impl Fn(&R) -> bool,
) -> (Samples, u64) {
    let mut s = Samples::default();
    let mut wrong = 0;
    let start = Instant::now();
    while start.elapsed() < budget {
        let t = Instant::now();
        let out = op();
        s.lat_ms.push(ms(t.elapsed()));
        s.end_s.push(start.elapsed().as_secs_f64());
        if !out.as_ref().is_ok_and(&check) {
            wrong += 1;
        }
    }
    s.wall = start.elapsed();
    (s, wrong)
}

/// Repeat the set-up `SETUP_REPS` times. Each builds the workload from
/// scratch: generate the `count` inputs (input `i` from seed
/// `mix(seed, i)`), then run one warm-up op on each (its first plan build
/// included). Returns the inputs, each set-up's warm-up outputs, and the
/// set-up and generation times in seconds.
#[allow(clippy::type_complexity)]
fn set_up<R>(
    graph: (&str, f64),
    seed: u64,
    count: usize,
    warm: impl Fn(&Csr<u64>) -> Result<R, SparseError>,
) -> Result<(Vec<Csr<u64>>, Vec<Vec<R>>, Vec<f64>, Vec<f64>), SparseError> {
    let (mut inputs, mut outs, mut setup_s, mut gen_s) = (vec![], vec![], vec![], vec![]);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        inputs = (0..count as u64)
            .map(|i| suite_input(graph.0, graph.1, mix(seed, i)))
            .collect();
        gen_s.push(t.elapsed().as_secs_f64());
        outs.push(inputs.iter().map(&warm).collect::<Result<Vec<R>, _>>()?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    Ok((inputs, outs, setup_s, gen_s))
}

pub fn tc_social(args: &Args) -> Result<Outcome, SparseError> {
    let cfg = Config::default();
    let (mut inputs, warm, setup_s, gen_s) = set_up(TC_GRAPH, args.seed, 1, |g| {
        spgemm::<PlusPair>(g, g, g, &cfg).map(|(c, _)| c)
    })?;
    let a = inputs.pop().expect("one input");
    let reference = warm[0][0].clone();
    // Σ C = 6 · triangles for C = A ⊙ (A × A) on a symmetric A.
    let triangles = count_triangles_naive(&a);
    let mut wrong = warm.iter().flatten().filter(|c| **c != reference).count() as u64;
    if reference.values().iter().sum::<u64>() != 6 * triangles {
        wrong += 1;
    }
    let mut attempted = warm.len() as u64;
    let mut notes = vec![
        format!(
            "input {} scale {}: n {} nnz {}, {} triangles, output nnz {} checksum {:016x}",
            TC_GRAPH.0,
            TC_GRAPH.1,
            a.nrows(),
            a.nnz(),
            triangles,
            reference.nnz(),
            checksum(&reference)
        ),
        format!(
            "working_set_bytes={}",
            csr_bytes(&a) + csr_bytes(&reference)
        ),
    ];
    let op = || spgemm::<PlusPair>(&a, &a, &a, &cfg).map(|(c, _)| c);
    let same = |c: &Csr<u64>| *c == reference;

    if !args.trace {
        let (l, bad) = closed_loop(args.budget(), op, same);
        notes.push(l.note("timed"));
        attempted += l.lat_ms.len() as u64;
        wrong += bad;
        let metrics = l.end_to_end(&setup_s);
        return Ok(Outcome {
            attempted,
            failed: wrong,
            wrong,
            metrics,
            notes,
        });
    }

    // Traced run: half untraced, then half with every layer call spanned.
    let (plain, bad) = closed_loop(args.budget() / 2, op, same);
    wrong += bad;
    notes.push(plain.note("untraced"));
    obs::arm_metrics();
    let mut tracer = Tracer::new();
    let mut counted = Counted::default();
    let mut samples = Vec::new();
    let mut traced_ms = Vec::new();
    let start = Instant::now();
    let mut n = 0u64;
    while start.elapsed() < args.budget() / 2 {
        let root = tracer.open("op", n, None);
        let before = obs::snapshot();
        let out = probe(&mut tracer, n, &root, &a, &cfg);
        counted.add_since(&before);
        traced_ms.push(ms(tracer.close(root)));
        match out {
            Ok((s, c)) if c == reference => samples.push(s),
            _ => wrong += 1,
        }
        n += 1;
    }
    attempted += plain.lat_ms.len() as u64 + n;
    let mut layers = Layers::default();
    layers.set("gen.input_s", median(&gen_s));
    layers.set("gen.nnz", a.nnz() as f64);
    set_probe_layers(
        &mut layers,
        &samples,
        serial_kernel_ms(&[&a], &cfg, SERIAL_REPS)?,
    );
    counted.set_kernel_layers(&mut layers, n as f64);
    layers.set(
        "trace.overhead",
        median(&traced_ms) / percentile(&plain.lat_ms, 50.0),
    );
    tracer.write(&args.trace_path()).map_err(io_error)?;
    Ok(Outcome {
        attempted,
        failed: wrong,
        wrong,
        metrics: layers.into_metrics(),
        notes,
    })
}

pub fn ktruss_web(args: &Args) -> Result<Outcome, SparseError> {
    let cfg = Config::default();
    let (pool, warm, setup_s, gen_s) =
        set_up(KT_GRAPH, args.seed, KT_POOL, |g| ktruss(g, KT_K, &cfg))?;
    let refs = pool
        .iter()
        .map(|g| ktruss_unfused(g, KT_K, &cfg))
        .collect::<Result<Vec<_>, _>>()?;
    let same = |r: &KTrussResult, g: usize| r.rounds == refs[g].rounds && r.truss == refs[g].truss;
    let mut wrong = 0;
    for outs in &warm {
        wrong += outs
            .iter()
            .enumerate()
            .filter(|(g, r)| !same(r, *g))
            .count() as u64;
    }
    let mut attempted = (warm.len() * KT_POOL) as u64;
    let mut notes = vec![];
    for (a, r) in pool.iter().zip(&refs) {
        notes.push(format!(
            "input {} scale {}: n {} nnz {}, {}-truss {} nnz in {} rounds, checksum {:016x}",
            KT_GRAPH.0,
            KT_GRAPH.1,
            a.nrows(),
            a.nnz(),
            KT_K,
            r.truss.nnz(),
            r.rounds,
            checksum(&r.truss)
        ));
    }
    // One op reads one input (as A, B and mask) and writes its truss.
    let ws = pool
        .iter()
        .zip(&refs)
        .map(|(a, r)| csr_bytes(a) + csr_bytes(&r.truss))
        .max();
    notes.push(format!("working_set_bytes={}", ws.unwrap_or(0)));
    // Op `i` peels pool input `i % KT_POOL`.
    let cycle = || {
        let (pool, mut i) = (&pool, 0);
        move || {
            let g = i % KT_POOL;
            i += 1;
            ktruss(&pool[g], KT_K, &cfg).map(|r| (g, r))
        }
    };
    let check = |(g, r): &(usize, KTrussResult)| same(r, *g);

    if !args.trace {
        let (l, bad) = closed_loop(args.budget(), cycle(), check);
        notes.push(l.note("timed"));
        attempted += l.lat_ms.len() as u64;
        wrong += bad;
        let metrics = l.end_to_end(&setup_s);
        return Ok(Outcome {
            attempted,
            failed: wrong,
            wrong,
            metrics,
            notes,
        });
    }

    let (plain, bad) = closed_loop(args.budget() / 2, cycle(), check);
    wrong += bad;
    notes.push(plain.note("untraced"));
    // Each input's first peeling round, unfused: the references of the
    // graph replay and of the probe product.
    let min_support = (KT_K - 2) as u64;
    let mut firsts = Vec::new();
    for a in &pool {
        let (support, _) = spgemm::<PlusPair>(a, a, a, &cfg)?;
        let round1 = support.select(|_, _, v| v >= min_support).spones(1u64);
        firsts.push((support, round1));
    }
    obs::arm_metrics();
    let mut tracer = Tracer::new();
    let mut counted = Counted::default();
    let (mut samples, mut fused_ms, mut unfused_ms, mut rounds) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    let mut n = 0u64;
    while start.elapsed() < args.budget() / 2 {
        let g = n as usize % KT_POOL;
        let (a, (support, round1)) = (&pool[g], &firsts[g]);
        let root = tracer.open("op", n, None);
        let before = obs::snapshot();
        let (fused, t_fused) = tracer.time("ktruss", n, Some(&root), || ktruss(a, KT_K, &cfg));
        counted.add_since(&before);
        let (unfused, t_unfused) = tracer.time("ktruss_unfused", n, Some(&root), || {
            ktruss_unfused(a, KT_K, &cfg)
        });
        // Replay the first round through the public graph calls.
        let (graph, _) = tracer.time("graph.build", n, Some(&root), || {
            let mut gb = GraphBuilder::<PlusPair>::on(Executor::global(), cfg);
            let x = gb.input();
            let p = gb.product(x, x, x);
            gb.select_ge(p, min_support);
            gb.fill(p, 1u64);
            gb.build(&[a])
        });
        let replay = graph.and_then(|mut pg| {
            tracer
                .time("graph.execute", n, Some(&root), || pg.execute(&[a]))
                .0
        });
        let probed = probe(&mut tracer, n, &root, a, &cfg);
        tracer.close(root);
        let ok = fused.as_ref().is_ok_and(|r| same(r, g))
            && unfused.as_ref().is_ok_and(|r| same(r, g))
            && replay
                .as_ref()
                .is_ok_and(|(outs, _)| outs.last() == Some(round1))
            && probed.as_ref().is_ok_and(|(_, c)| c == support);
        if !ok {
            wrong += 1;
        }
        if let Ok((s, _)) = probed {
            samples.push(s);
        }
        if let Ok(r) = fused {
            rounds.push(r.rounds as f64);
        }
        fused_ms.push(ms(t_fused));
        unfused_ms.push(ms(t_unfused));
        n += 1;
    }
    attempted += plain.lat_ms.len() as u64 + n;
    let mut layers = Layers::default();
    layers.set("gen.input_s", median(&gen_s));
    layers.set("gen.nnz", pool.iter().map(|a| a.nnz() as f64).sum());
    set_probe_layers(
        &mut layers,
        &samples,
        serial_kernel_ms(&pool.iter().collect::<Vec<_>>(), &cfg, 1)?,
    );
    // Kernel counters per peeling-round product.
    let products: f64 = rounds.iter().sum();
    counted.set_kernel_layers(&mut layers, products);
    layers.set(
        "graph.build_ms",
        median(&tracer.durations_ms("graph.build")),
    );
    layers.set(
        "graph.execute_ms",
        median(&tracer.durations_ms("graph.execute")),
    );
    layers.set("graph.rounds", median(&rounds));
    layers.set(
        "fusion.sink_fused_elements",
        counted.counter("fusion.sink_fused_elements") / n.max(1) as f64,
    );
    layers.set(
        "graph.fused_vs_unfused",
        median(&unfused_ms) / median(&fused_ms),
    );
    layers.set(
        "trace.overhead",
        median(&fused_ms) / percentile(&plain.lat_ms, 50.0),
    );
    tracer.write(&args.trace_path()).map_err(io_error)?;
    Ok(Outcome {
        attempted,
        failed: wrong,
        wrong,
        metrics: layers.into_metrics(),
        notes,
    })
}

pub fn io_error(e: std::io::Error) -> SparseError {
    SparseError::Internal {
        detail: format!("writing the trace: {e}"),
    }
}
