//! Consistency tests for the armed observability pipeline.
//!
//! The `obs` registry is process-global, so this binary arms metrics once
//! and every test (a) serializes on a mutex and (b) asserts on
//! **snapshot deltas**, never absolute counter values. The unarmed
//! zero-cost guarantee is asserted in `metrics_unarmed.rs` — it must live
//! in a separate test binary because arming is irreversible per process.

use mspgemm_core::{
    spgemm, Config, Executor, IterationSpace, KernelPolicy, Service, ServiceOptions, SubmitOptions,
};
use mspgemm_rt::obs;
use mspgemm_sched::Schedule;
use mspgemm_sparse::{Coo, Csr, PlusTimes};
use std::sync::{Arc, Mutex};

static METRICS_LOCK: Mutex<()> = Mutex::new(());

fn lcg_matrix(nrows: usize, ncols: usize, per_row: usize, seed: u64) -> Csr<f64> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut coo = Coo::new(nrows, ncols);
    for i in 0..nrows {
        for _ in 0..per_row {
            let j = next() % ncols;
            coo.push(i, j, ((next() % 9) + 1) as f64);
        }
    }
    coo.to_csr_with(|a, _| a)
}

/// Arm metrics + trace, serialize, and hand `f` a clean trace buffer.
fn with_armed_metrics<R>(f: impl FnOnce() -> R) -> R {
    let _guard = METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::arm_metrics();
    obs::arm_trace();
    let _ = obs::take_trace();
    f()
}

#[test]
fn tile_output_nnz_counters_sum_to_run_output_nnz() {
    let a = lcg_matrix(80, 80, 5, 1);
    let cfg = Config::builder().n_threads(2).n_tiles(8).build();
    with_armed_metrics(|| {
        let (c, stats) = spgemm::<PlusTimes>(&a, &a, &a, &cfg).unwrap();
        let m = stats.metrics.expect("armed run must attach a snapshot delta");
        assert_eq!(
            m.counter("driver.tile_output_nnz"),
            c.nnz() as u64,
            "per-tile output-nnz counters must sum to RunStats::output_nnz"
        );
        assert_eq!(m.counter("sched.tiles_completed"), cfg.n_tiles as u64);
        assert_eq!(m.counter("sched.tiles_started"), cfg.n_tiles as u64);
        assert_eq!(m.counter("sched.tiles_failed"), 0);
        assert_eq!(m.counter("driver.runs"), 1);
        // slack = mask entries the product never filled; the driver records
        // it once per run
        let slack = (a.nnz() - c.nnz()) as u64;
        assert_eq!(m.counter("driver.slack_nnz"), slack);
        // zero-copy adoption when slack == 0, otherwise
        // compaction moves every surviving entry once (4-byte col + 8-byte val)
        let expect_bytes = if slack == 0 { 0 } else { c.nnz() as u64 * 12 };
        assert_eq!(m.counter("driver.compaction_bytes"), expect_bytes);
    });
}

#[test]
fn hybrid_decision_counts_sum_to_nonempty_ik_pairs() {
    let a = lcg_matrix(60, 60, 4, 2);
    let b = lcg_matrix(60, 60, 3, 3);
    let mask = lcg_matrix(60, 60, 5, 4);
    let expected: u64 = (0..60)
        .map(|i| a.row(i).0.iter().filter(|&&k| b.row_nnz(k as usize) > 0).count() as u64)
        .sum();
    for kappa in [0.0, 1.0, f64::INFINITY] {
        let cfg = Config::builder()
            .n_threads(2)
            .n_tiles(6)
            .kernel_policy(KernelPolicy::new().iteration(IterationSpace::Hybrid { kappa }))
            .build();
        with_armed_metrics(|| {
            let (_, stats) = spgemm::<PlusTimes>(&a, &b, &mask, &cfg).unwrap();
            let m = stats.metrics.unwrap();
            let decisions = m.counter("kernel.hybrid.coiterate") + m.counter("kernel.hybrid.saxpy");
            assert_eq!(
                decisions, expected,
                "one Eq. 3 decision per (i,k) pair with non-empty B[k,:], kappa={kappa}"
            );
            if kappa == 0.0 {
                assert_eq!(m.counter("kernel.hybrid.coiterate"), 0);
                assert_eq!(m.counter("kernel.binary_search_steps"), 0);
            }
            if kappa == f64::INFINITY {
                assert_eq!(m.counter("kernel.hybrid.saxpy"), 0);
                assert!(m.counter("kernel.binary_search_steps") > 0);
            }
        });
    }
}

#[test]
fn accumulator_counters_flow_through_the_driver() {
    use mspgemm_accum::{AccumulatorKind, MarkerWidth};
    let a = lcg_matrix(70, 70, 5, 5);
    // hash + narrow markers: probes, probe-length histogram and full
    // resets must all reach the registry via the per-tile flush
    let cfg = Config::builder()
        .n_threads(2)
        .n_tiles(4)
        .kernel_policy(
            KernelPolicy::new()
                .accumulator(AccumulatorKind::Hash(MarkerWidth::W8))
                .iteration(IterationSpace::MaskAccumulate),
        )
        .build();
    with_armed_metrics(|| {
        let (_, stats) = spgemm::<PlusTimes>(&a, &a, &a, &cfg).unwrap();
        let m = stats.metrics.unwrap();
        assert!(m.counter("accum.hash.probes") > 0);
        assert!(m.counter("accum.hash.probe_steps") >= m.counter("accum.hash.probes"));
        assert!(m.counter("accum.mask_preload.hits") > 0);
        let probe_hist = m.hist("accum.hash.probe_len").expect("histogram recorded");
        let hist_total: u64 = probe_hist.iter().sum();
        assert_eq!(
            hist_total,
            m.counter("accum.hash.probes"),
            "every probe lands in exactly one histogram bucket"
        );
    });
}

#[test]
fn trace_spans_cover_every_tile() {
    let a = lcg_matrix(50, 50, 4, 6);
    let cfg = Config::builder()
        .n_threads(2)
        .n_tiles(5)
        .schedule(Schedule::Dynamic { chunk: 1 })
        .build();
    with_armed_metrics(|| {
        let _ = spgemm::<PlusTimes>(&a, &a, &a, &cfg).unwrap();
        let events = obs::take_trace();
        let tile_spans: Vec<_> = events.iter().filter(|e| e.name == "tile").collect();
        assert_eq!(tile_spans.len(), cfg.n_tiles, "one span per tile");
        let mut keys: Vec<u64> = tile_spans.iter().map(|e| e.key).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..cfg.n_tiles as u64).collect::<Vec<_>>());
        // the sink emits the bare-array flavour of the chrome format
        let json = obs::trace_to_chrome_json(&events);
        let doc = mspgemm_rt::json::parse(&json).expect("chrome trace JSON parses");
        let arr = doc.as_arr().unwrap();
        assert_eq!(arr.len(), events.len());
        assert_eq!(arr[0].get("ph").unwrap().as_str(), Some("X"));
    });
}

#[test]
fn thread_busy_histogram_counts_every_worker() {
    let a = lcg_matrix(50, 50, 4, 7);
    let cfg = Config::builder().n_threads(3).n_tiles(9).build();
    with_armed_metrics(|| {
        let before = obs::snapshot();
        let _ = spgemm::<PlusTimes>(&a, &a, &a, &cfg).unwrap();
        let delta = obs::snapshot().delta_since(&before);
        let busy = delta.hist("sched.thread_busy_us").unwrap();
        assert_eq!(
            busy.iter().sum::<u64>(),
            cfg.n_threads as u64,
            "one busy-time sample per worker thread"
        );
    });
}

#[test]
fn masked_scan_filter_keeps_accumulator_and_hybrid_counts_exact() {
    use mspgemm_accum::{AccumulatorKind, MarkerWidth};
    use mspgemm_core::SimdMode;
    use mspgemm_gen::rmat::{rmat, RmatParams};
    // skewed R-MAT: hub rows are long enough for the 8-lane filter, the
    // tail stays on the scalar loop; the counts must not tell them apart
    let a = rmat(10, 16, RmatParams::default(), 11);
    for (accumulator, iteration) in [
        (AccumulatorKind::Hash(MarkerWidth::W32), IterationSpace::Hybrid { kappa: 1.0 }),
        (AccumulatorKind::Hash(MarkerWidth::W8), IterationSpace::MaskAccumulate),
        (AccumulatorKind::Dense(MarkerWidth::W16), IterationSpace::Hybrid { kappa: 1.0 }),
    ] {
        let counts = |simd| {
            let cfg = Config::builder()
                .n_threads(2)
                .n_tiles(8)
                .kernel_policy(
                    KernelPolicy::new().accumulator(accumulator).iteration(iteration).simd(simd),
                )
                .build();
            with_armed_metrics(|| {
                let (c, stats) = spgemm::<PlusTimes>(&a, &a, &a, &cfg).unwrap();
                let m = stats.metrics.unwrap();
                let names = [
                    "accum.hash.probes",
                    "accum.hash.probe_steps",
                    "accum.mask_preload.hits",
                    "accum.mask_preload.misses",
                    "kernel.hybrid.coiterate",
                    "kernel.hybrid.saxpy",
                    "kernel.binary_search_steps",
                ];
                let counters: Vec<u64> = names.iter().map(|n| m.counter(n)).collect();
                (c, counters, m.hist("accum.hash.probe_len").map(|h| h.to_vec()))
            })
        };
        let (c_scalar, scalar, hist_scalar) = counts(SimdMode::Scalar);
        let (c_auto, auto, hist_auto) = counts(SimdMode::Auto);
        let label = accumulator.label();
        assert_eq!(c_scalar, c_auto, "{label}: outputs");
        assert_eq!(scalar, auto, "{label}: probe, mask and hybrid counts");
        assert_eq!(hist_scalar, hist_auto, "{label}: probe-length histogram");
        assert!(scalar[2] > 0 && scalar[3] > 0, "{label}: the scan both hits and misses");
    }
}

#[test]
fn a_one_job_run_carries_its_metrics_delta_and_batched_jobs_do_not() {
    // A Service singleton is the driver run of one job, so it reports its
    // delta like a plan run; two jobs sharing a batch cannot split the
    // process-global counters and report none.
    let blocker = Arc::new(lcg_matrix(3000, 3000, 12, 31));
    let small = Arc::new(lcg_matrix(64, 64, 5, 32));
    let cfg = Config::builder().n_threads(2).n_tiles(8).build();
    with_armed_metrics(|| {
        let batched = (0..20).find_map(|_| {
            let svc = Service::<PlusTimes>::on(&Executor::new(), ServiceOptions::default());
            let submit = |m: &Arc<Csr<f64>>| {
                let (a, b, c) = (Arc::clone(m), Arc::clone(m), Arc::clone(m));
                svc.submit(a, b, c, cfg, SubmitOptions::default()).expect("admitted")
            };
            let first = submit(&blocker);
            // wait for the dispatcher to take the blocker alone
            let t0 = std::time::Instant::now();
            while svc.depth() > 0 && t0.elapsed() < std::time::Duration::from_secs(5) {
                std::thread::yield_now();
            }
            let jobs = [submit(&small), submit(&small)];
            let alone = first.wait().expect("blocker");
            assert_eq!(alone.batch_size, 1);
            let m = alone.stats.metrics.expect("a singleton batch reports its metrics delta");
            assert_eq!(m.counter("driver.runs"), 1);
            let replies: Vec<_> = jobs.into_iter().map(|t| t.wait().expect("batch job")).collect();
            replies.iter().all(|r| r.batch_size == 2).then_some(replies)
        });
        for r in batched.expect("the two jobs never shared a batch") {
            assert!(r.stats.metrics.is_none(), "a job inside a batch reports no delta");
        }
    });
}
