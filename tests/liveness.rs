//! Liveness guarantees under injected hangs and mid-run cancellation:
//! the pool's watchdog detects a stalled tile, abandons it, respawns the
//! worker and re-runs the tile bit-identically on the degraded serial
//! path — and a cancel that lands after dispatch stops the remaining
//! tiles at the next claim boundary, observably, without touching the
//! watchdog.
//!
//! These tests share the process-global failpoint registry and metric
//! counters, so they serialize on one lock and disarm their sites on the
//! way out. The whole file is its own test binary — arming here never
//! leaks into the other integration suites.

use masked_spgemm_repro::prelude::*;
use masked_spgemm_repro::rt::{failpoint, obs};
use masked_spgemm_repro::sparse::SparseError;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Serializes the tests in this binary: they share the failpoint
/// registry (one `tile-kernel` site) and the global metric counters.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn graph(name: &str, scale: f64) -> Csr<u64> {
    let spec = suite_specs().into_iter().find(|s| s.name == name).expect("unknown suite graph");
    suite_graph(&spec, scale).spones(1u64)
}

/// Every `stride`-th row of the identity pattern.
fn frontier_mask(a: &Csr<u64>, stride: usize) -> Csr<u64> {
    let mut coo = Coo::new(a.nrows(), a.ncols());
    for i in (0..a.nrows()).step_by(stride.max(1)) {
        coo.push(i, i % a.ncols(), 1u64);
    }
    coo.to_csr_with(|v, _| v)
}

/// The watchdog smoke: a tile pinned to stall far past the pool's stall
/// budget is detected, abandoned and recomputed bit-identically on the
/// degraded serial path; the stalled worker is replaced (not poisoned)
/// and the pool keeps serving.
#[test]
fn watchdog_detects_stall_respawns_worker_and_result_is_bit_identical() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::arm_metrics();

    let a = graph("stokes", 0.05);
    let mask = frontier_mask(&a, 2);
    let cfg = Config::builder().n_threads(2).n_tiles(8).build();

    // the stall outlasts the armed budget below by >5×; pinned to tile 1
    // so exactly one claim hangs, deterministically
    failpoint::arm("tile-kernel=stall@ms:400,key:1").expect("arm stall failpoint");

    // reference on a generous-budget executor: the stall delays it but
    // never trips its watchdog, so this is the honest serial answer
    let reference_exec = Executor::with_watchdog(WatchdogConfig::default());
    let (want, _) =
        reference_exec.execute::<PlusPair>(&a, &a, &mask, &cfg).expect("reference run");

    let exec = Executor::with_watchdog(WatchdogConfig {
        stall_budget: Duration::from_millis(60),
        max_respawns: 8,
    });
    let before = obs::snapshot();
    let (got, _) = exec.execute::<PlusPair>(&a, &a, &mask, &cfg).expect("armed run completes");
    let delta = obs::snapshot().delta_since(&before);

    assert_eq!(got, want, "watchdog-recovered result diverged from reference");
    assert!(
        exec.respawned_workers() >= 1,
        "the stalled worker must be replaced, got {} respawns",
        exec.respawned_workers()
    );
    assert!(
        delta.counter("watchdog.stalls_detected") >= 1,
        "stall detection must be observable: {delta:?}",
        delta = delta.counters
    );
    assert!(
        delta.counter("pool.workers_respawned") >= 1,
        "respawn must be observable: {delta:?}",
        delta = delta.counters
    );

    // self-healed, not degraded-forever: with the fault cleared the same
    // pool serves a clean run, still bit-identical, with no new respawns
    failpoint::arm("tile-kernel=off").expect("disarm stall failpoint");
    let respawns_after_stall = exec.respawned_workers();
    let (again, _) = exec.execute::<PlusPair>(&a, &a, &mask, &cfg).expect("post-stall run");
    assert_eq!(again, want, "post-respawn pool diverged from reference");
    assert_eq!(
        exec.respawned_workers(),
        respawns_after_stall,
        "a healthy run after healing must not respawn workers"
    );
}

/// An in-flight cancel: with every tile slowed enough that the run is
/// mid-flight when the cancel lands, `JobTicket::cancel` reports
/// `CancelRequested`, the wait resolves `Cancelled`, and both the service
/// and scheduler layers record the event.
#[test]
fn in_flight_cancel_stops_tiles_and_is_observable() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::arm_metrics();

    let a = Arc::new(graph("stokes", 0.05));
    let mask = Arc::new(frontier_mask(&a, 2));
    // 2 workers × 8 tiles × 40 ms: the run holds the pool ~160 ms, so a
    // cancel ~20 ms in lands mid-flight with most tiles still unclaimed
    let cfg = Config::builder().n_threads(2).n_tiles(8).build();
    failpoint::arm("tile-kernel=delay@ms:40").expect("arm delay failpoint");

    let exec = Executor::new();
    let service: Service<PlusPair> = Service::on(&exec, ServiceOptions::default());
    let before = obs::snapshot();

    // timing-dependent only in the benign direction: if a cancel ever
    // lands too early (Withdrawn) or too late (Settled), retry the
    // schedule rather than fail the test on scheduler jitter
    let mut observed_in_flight = false;
    for _attempt in 0..5 {
        let ticket = service
            .submit(
                Arc::clone(&a),
                Arc::clone(&a),
                Arc::clone(&mask),
                cfg,
                SubmitOptions::default(),
            )
            .expect("submit");
        std::thread::sleep(Duration::from_millis(20));
        let status = ticket.cancel();
        match ticket.wait() {
            Ok(_) | Err(SparseError::Cancelled) => {}
            other => panic!("cancelled job must resolve Ok or Cancelled, got {other:?}"),
        }
        if status == CancelStatus::CancelRequested {
            observed_in_flight = true;
            break;
        }
    }
    failpoint::arm("tile-kernel=off").expect("disarm delay failpoint");
    assert!(observed_in_flight, "no schedule produced an in-flight cancel in 5 attempts");

    let delta = obs::snapshot().delta_since(&before);
    assert!(
        delta.counter("svc.cancelled_in_flight") >= 1,
        "the service must record the in-flight cancel: {c:?}",
        c = delta.counters
    );
    assert!(
        delta.counter("sched.tiles_cancelled") >= 1,
        "unclaimed tiles must be released at the claim boundary: {c:?}",
        c = delta.counters
    );
    assert_eq!(exec.respawned_workers(), 0, "cancellation must never look like a stall");
}

/// `PlanGraph::execute_cancellable`: a token that has already fired
/// abandons the whole run with the matching structured error — a plain
/// cancel as `Cancelled`, a passed deadline as `DeadlineExceeded` — and
/// the graph itself stays valid, re-executing bit-identically to an
/// uncancelled run.
#[test]
fn plan_graph_cancellation_is_structured_and_leaves_the_graph_valid() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // the registry initialises on first touch: arm it (inertly) first, so
    // the sibling tests can still arm their sites if this one runs first
    failpoint::arm("tile-kernel=off").expect("initialise the failpoint registry");
    let a = graph("stokes", 0.05);
    let cfg = Config::builder().n_threads(2).n_tiles(8).build();
    let mut gb = GraphBuilder::<PlusPair>::on(&Executor::new(), cfg);
    let x = gb.input();
    let n0 = gb.product(x, x, x);
    gb.select_ge(n0, 1);
    let n1 = gb.product(n0, x, x);
    gb.mark_output(n0);
    gb.mark_output(n1);
    let mut g = gb.build(&[&a]).expect("graph builds");
    let (want, _) = g.execute(&[&a]).expect("uncancelled reference run");

    let cancelled = CancelToken::new();
    cancelled.cancel();
    let got = g.execute_cancellable(&[&a], &cancelled);
    assert!(matches!(got, Err(SparseError::Cancelled)), "pre-cancelled token: {got:?}");
    let expired = CancelToken::with_deadline(std::time::Instant::now());
    let got = g.execute_cancellable(&[&a], &expired);
    assert!(matches!(got, Err(SparseError::DeadlineExceeded)), "passed deadline: {got:?}");

    let (again, _) = g.execute(&[&a]).expect("the graph re-executes after cancellation");
    assert_eq!(again, want, "re-execution after a cancelled run diverged");
}
