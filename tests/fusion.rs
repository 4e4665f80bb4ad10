//! Bit-identity of the fused multi-op graph against the unfused pipeline.
//!
//! The `PlanGraph` executes a chain of masked products with element-wise
//! consumers folded into the row sink; the unfused path materialises
//! every intermediate and runs the consumers as separate passes. Both
//! must produce *bit-identical* matrices — same structure, same values —
//! on every policy preset and every structural graph class, because both
//! fold each row's products in the same order. The suite must also pass
//! identically with `MSPGEMM_FAILPOINTS` armed: a failed tile degrades to
//! the serial whole-chain retry, which replays the same fold order.

use masked_spgemm_repro::prelude::*;
/// Small structural-class grid: one scale-free, one mesh-like, one
/// uniform-random graph. The k-truss / BC behaviour differs meaningfully
/// across these (dense cores vs long diameters vs thin uniform support).
fn graph_grid() -> Vec<(&'static str, Csr<f64>)> {
    vec![
        ("rmat", rmat::rmat(8, 6, Default::default(), 42)),
        (
            "road",
            road::road(
                16,
                10,
                road::RoadParams { keep_prob: 0.95, shortcut_rate: 0.05, shortcut_radius: 4 },
                7,
            ),
        ),
        ("er", er::erdos_renyi(220, 900, 11)),
    ]
}

/// The three preset operating points (Fig. 1's legend) plus the tuned
/// point under both non-default SIMD modes and under p90 overbooking,
/// pinned to a
/// test-friendly thread/tile count so the grid exercises the per-preset
/// accumulator and iteration-space choices rather than the machine's core
/// count. `preset_config` resolves tile counts from `available_parallelism`,
/// so the axes are restated here with fixed small values.
fn preset_grid() -> Vec<(&'static str, Config)> {
    let base = Config::builder().n_threads(2).n_tiles(16);
    vec![
        (
            "grb-like",
            base.schedule(Schedule::Static)
                .kernel_policy(
                    KernelPolicy::new()
                        .accumulator(AccumulatorKind::Hash(MarkerWidth::W64))
                        .iteration(IterationSpace::MaskAccumulate),
                )
                .build(),
        ),
        (
            "suitesparse-like",
            base.schedule(Schedule::Dynamic { chunk: 1 })
                .kernel_policy(
                    KernelPolicy::new()
                        .accumulator(AccumulatorKind::Dense(MarkerWidth::W64))
                        .hybrid(1.0),
                )
                .build(),
        ),
        (
            "tuned",
            base.schedule(Schedule::Dynamic { chunk: 1 })
                .kernel_policy(
                    KernelPolicy::new()
                        .accumulator(AccumulatorKind::Hash(MarkerWidth::W32))
                        .hybrid(1.0),
                )
                .build(),
        ),
        // the SIMD axis: forced-scalar kernels, and every vector
        // instantiation the CPU has (including the hash group probe)
        (
            "tuned-scalar",
            base.kernel_policy(KernelPolicy::new().hybrid(1.0).simd(SimdMode::Scalar)).build(),
        ),
        (
            "tuned-simd-force",
            base.kernel_policy(KernelPolicy::new().hybrid(1.0).simd(SimdMode::Force)).build(),
        ),
        // the overbook axis: graphs size their hash tables at the p90 row
        // bound like single products, so fused nodes can spill
        (
            "tuned-overbook",
            base.kernel_policy(KernelPolicy::new().hybrid(1.0).overbook(Overbook::p90())).build(),
        ),
    ]
}

#[test]
fn ktruss_fused_matches_unfused_on_every_preset_and_class() {
    for (gname, g) in graph_grid() {
        for (pname, cfg) in preset_grid() {
            for k in [3, 4] {
                let fused = ktruss(&g, k, &cfg).unwrap();
                let unfused = ktruss_unfused(&g, k, &cfg).unwrap();
                assert_eq!(
                    fused.truss, unfused.truss,
                    "{gname} / {pname} / k = {k}: fused truss differs"
                );
                assert_eq!(fused.rounds, unfused.rounds, "{gname} / {pname} / k = {k}");
            }
        }
    }
}

#[test]
fn bc_forward_fused_matches_unfused_on_every_preset_and_class() {
    for (gname, g) in graph_grid() {
        let n = g.nrows();
        let sources = [0, n / 3, n / 2, n - 1];
        for (pname, cfg) in preset_grid() {
            let fused = bc_forward_fused(&g, &sources, &cfg).unwrap();
            let unfused = bc_forward_unfused(&g, &sources, &cfg).unwrap();
            assert_eq!(fused.len(), unfused.len(), "{gname} / {pname}: depth count");
            for (d, (f, u)) in fused.iter().zip(&unfused).enumerate() {
                assert_eq!(f, u, "{gname} / {pname}: sigma at depth {d} differs");
            }
        }
    }
}

#[test]
fn single_product_graph_is_within_noise_of_spgemm() {
    // a one-node graph with no fused ops must be *exactly* the one-shot
    // masked product — the fusion machinery may add no structure or
    // value drift when there is nothing to fuse
    for (gname, gf) in graph_grid() {
        let g = gf.spones(1u64);
        for (pname, cfg) in preset_grid() {
            let want = spgemm::<PlusPair>(&g, &g, &g, &cfg).unwrap().0;
            let exec = Executor::global();
            let mut gb = GraphBuilder::<PlusPair>::on(exec, cfg);
            let x = gb.input();
            let node = gb.product(x, x, x);
            gb.mark_output(node);
            let mut pg = gb.build(&[&g]).unwrap();
            let (outs, _) = pg.execute(&[&g]).unwrap();
            assert_eq!(outs.len(), 1);
            assert_eq!(outs[0], want, "{gname} / {pname}: single-node graph drifted");
        }
    }
}

#[test]
fn fused_pattern_intersection_matches_materialized_ewise() {
    // C ⊙-masked product followed by a structural intersect fused into
    // the sink, vs the same ops composed on materialised matrices
    let g = er::erdos_renyi(160, 700, 23).spones(1u64);
    let pat = er::erdos_renyi(160, 700, 24).spones(1u64); // same 160×160 shape as the product
    for (pname, cfg) in preset_grid() {
        // ewise_mult over the pair semiring re-canonicalises every value
        // to 1, so the fused chain mirrors it with intersect + fill
        let want = {
            let c = spgemm::<PlusPair>(&g, &g, &g, &cfg).unwrap().0;
            mspgemm_sparse::ops::ewise_mult::<PlusPair>(&c, &pat).unwrap()
        };
        let mut gb = GraphBuilder::<PlusPair>::on(Executor::global(), cfg);
        let x = gb.input();
        let p = gb.input();
        let node = gb.product(x, x, x);
        gb.intersect(node, p);
        gb.fill(node, 1u64);
        gb.mark_output(node);
        let mut pg = gb.build(&[&g, &pat]).unwrap();
        let (outs, _) = pg.execute(&[&g, &pat]).unwrap();
        assert_eq!(outs[0], want, "{pname}: fused intersect differs from ewise_mult");
    }
}

#[test]
fn overbooked_fused_chain_spills_and_matches_unfused() {
    // a fused select on a skewed graph under p90 overbooking: the fat
    // rows must take the spill path inside the fused gather, and the
    // chain must still equal the unfused product + select
    let g = rmat::rmat(8, 6, Default::default(), 42).spones(1u64);
    let (_, cfg) = preset_grid()
        .into_iter()
        .find(|(name, _)| *name == "tuned-overbook")
        .expect("tuned-overbook preset");
    let support = spgemm::<PlusPair>(&g, &g, &g, &cfg).unwrap().0;
    let want = support.select(|_, _, v| v >= 2);
    let run = |cfg: Config| {
        let mut gb = GraphBuilder::<PlusPair>::on(Executor::global(), cfg);
        let x = gb.input();
        let node = gb.product(x, x, x);
        gb.select_ge(node, 2);
        gb.build(&[&g]).unwrap().execute(&[&g]).unwrap()
    };
    masked_spgemm_repro::rt::obs::arm_metrics();
    let fused = |s: &RunStats| s.metrics.as_ref().unwrap().counter("fusion.sink_fused_elements");
    // the preset's hybrid kernel skips a doomed first attempt; co-iterate
    // makes one, aborts it on overflow and recomputes the row
    for it in [cfg.kernel.iteration, IterationSpace::CoIterate] {
        let mut over = cfg;
        over.kernel.iteration = it;
        let (outs, stats) = run(over);
        assert_eq!(outs[0], want, "overbooked fused select differs from unfused ({})", it.label());
        assert!(stats.overbook_spills > 0, "p90 tables on R-MAT must spill ({})", it.label());
        // an aborted attempt's fused elements are not counted: the tally
        // equals the un-overbooked run's
        let mut hard = over;
        hard.kernel.overbook = Overbook::Off;
        let (_, hard_stats) = run(hard);
        assert_eq!(fused(&stats), fused(&hard_stats), "spills inflated fused elements");
    }
}
