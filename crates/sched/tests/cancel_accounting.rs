//! Cancellation accounting of the pool's one claim loop.
//!
//! The `obs` registry is process-global and arming it is irreversible,
//! so this check lives in a binary of its own: the counter deltas it
//! reads can come from no other test's pool runs.

use mspgemm_rt::obs;
use mspgemm_sched::{CancelToken, MultiRun, Schedule, WorkerPool, WorkerScratch};

#[test]
fn a_cancelled_run_books_the_same_skips_alone_and_in_a_batch() {
    // run A (10 tiles) cancels itself inside tile 3, once as the sole run
    // and once beside an uncancelled sibling: both calls must book A's
    // six unstarted tiles as cancelled, and account for every tile of
    // every run
    obs::arm_metrics();
    let pool = WorkerPool::new();
    let cancelled = || obs::counter_value(obs::Counter::SchedTilesCancelled);
    let claims = || obs::counter_value(obs::Counter::SchedQueueClaims);
    let body_b = |_: usize, _: &mut WorkerScratch, _: usize| {};
    let mut booked = Vec::new();
    for batched in [false, true] {
        let token = CancelToken::new();
        let tok = &token;
        let body_a = move |_: usize, _: &mut WorkerScratch, tile: usize| {
            if tile == 3 {
                tok.cancel();
            }
        };
        let cancel = Some(&token);
        let mut runs = vec![MultiRun { n_tiles: 10, weight: 1, cancel, body: &body_a }];
        if batched {
            runs.push(MultiRun { n_tiles: 5, weight: 1, cancel: None, body: &body_b });
        }
        let (before, claims_before) = (cancelled(), claims());
        let out = pool.run_tiles_multi(1, Schedule::Dynamic { chunk: 1 }, &runs).unwrap();
        booked.push(cancelled() - before);
        if !batched {
            // the sole run's worker stops claiming once it is cancelled
            assert_eq!(claims() - claims_before, 4, "claims of tiles 0..=3 only");
        }
        assert_eq!((out.completed[0], out.skipped[0]), (4, 6), "batched: {batched}");
        for (r, run) in runs.iter().enumerate() {
            let accounted = out.completed[r] + out.skipped[r] + out.failures[r].len();
            assert_eq!(accounted, run.n_tiles, "run {r}, batched: {batched}");
        }
    }
    assert_eq!(booked, [6, 6], "sched.tiles_cancelled alone vs in a batch");
}
