//! Tile scheduling policy and fault primitives — OpenMP
//! `schedule(static|dynamic|guided)` semantics, panic-isolated tile
//! execution and the structured failure records runs report.
//!
//! The paper's experiments sweep the OpenMP scheduling policy with "each
//! tile assigned to one thread" (§IV-C). We reproduce the policies
//! directly rather than delegating to rayon, so the scheduling behaviour
//! under measurement is exactly the one described:
//!
//! * **static** — tiles are partitioned offline into `p` contiguous blocks,
//!   one per thread, no runtime coordination at all ("the tasks are
//!   scheduled offline and no runtime load balancing is used", §III-A);
//! * **dynamic** — a shared atomic counter; each thread claims the next
//!   `chunk` tiles when it runs dry ("a runtime system schedules threads to
//!   remaining tasks as soon as they complete their current task").
//!
//! Execution itself lives in [`crate::persistent::WorkerPool`], which
//! claims through `next_range` and contains every tile with
//! [`catch_tile_panic`].
//!
//! # Fault tolerance
//!
//! Each tile body runs under `std::panic::catch_unwind`: a misbehaving
//! kernel can neither take down the process nor strand sibling threads.
//! Survivors keep draining the queue; the failed tiles are collected into
//! structured [`TileFailure`] records and reported per run, so the caller
//! knows exactly which tiles need recovery (the masked-SpGEMM
//! driver retries them serially with a conservative configuration).

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;
use std::time::Duration;

use mspgemm_rt::obs;

/// Per-worker observability scratch: plain integers bumped on the worker's
/// own stack and folded into the global `obs` registry once, when the
/// worker finishes its share of a run. Unarmed runs skip even these, so
/// the scheduling loops stay free of atomic traffic either way.
#[derive(Default)]
pub(crate) struct ObsScratch {
    pub(crate) started: u64,
    pub(crate) completed: u64,
    pub(crate) failed: u64,
    pub(crate) claims: u64,
    pub(crate) claim_ns: obs::LocalHist,
    pub(crate) tile_us: obs::LocalHist,
}

impl ObsScratch {
    pub(crate) fn flush(&mut self, busy: Duration) {
        obs::add(obs::Counter::SchedTilesStarted, self.started);
        obs::add(obs::Counter::SchedTilesCompleted, self.completed);
        obs::add(obs::Counter::SchedTilesFailed, self.failed);
        obs::add(obs::Counter::SchedQueueClaims, self.claims);
        self.claim_ns.flush_into(obs::Hist::ClaimLatencyNs);
        self.tile_us.flush_into(obs::Hist::TileElapsedUs);
        obs::record(obs::Hist::ThreadBusyUs, busy.as_micros() as u64);
    }
}

/// The scheduling policy axis of the Fig. 10/11 sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// Contiguous blocks of tiles assigned offline (OpenMP `static`).
    Static,
    /// Atomic work queue; threads claim `chunk` tiles at a time (OpenMP
    /// `dynamic, chunk`). The paper (and OpenMP's default) uses chunk 1.
    Dynamic {
        /// Tiles claimed per queue operation.
        chunk: usize,
    },
    /// OpenMP `guided` semantics — an extension beyond the paper's
    /// static/dynamic sweep: each grab takes `max(chunk,
    /// remaining / 2p)` tiles, so early grabs are large (low queue
    /// traffic) and late grabs shrink (good tail balance).
    Guided {
        /// Minimum tiles claimed per queue operation.
        chunk: usize,
    },
}

impl Schedule {
    /// The two policies the paper sweeps, with the default dynamic chunk.
    pub fn all() -> [Schedule; 2] {
        [Schedule::Dynamic { chunk: 1 }, Schedule::Static]
    }

    /// The paper's sweep plus the guided extension — what harnesses that
    /// exercise the full claim-mode space iterate over. Kept separate from
    /// [`all`](Self::all) so the figure sweeps stay shaped like the paper.
    pub fn all_extended() -> [Schedule; 3] {
        [Schedule::Dynamic { chunk: 1 }, Schedule::Static, Schedule::Guided { chunk: 1 }]
    }

    /// Label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Schedule::Static => "Static",
            Schedule::Dynamic { .. } => "Dynamic",
            Schedule::Guided { .. } => "Guided",
        }
    }
}

/// Per-thread execution report, used by the harness to quantify load
/// (im)balance — the quantity the paper's tiling discussion is about.
#[derive(Clone, Debug, Default)]
pub struct ThreadReport {
    /// Tiles this thread executed to completion.
    pub tiles_run: usize,
    /// Tiles this thread started that unwound (each recorded as a
    /// [`TileFailure`]).
    pub tiles_failed: usize,
    /// Wall time the thread spent inside tile bodies.
    pub busy: Duration,
}

/// One tile that unwound instead of completing.
#[derive(Clone, Debug)]
pub struct TileFailure {
    /// Index of the failed tile.
    pub tile: usize,
    /// The unwind payload, stringified (`&str`/`String` payloads are
    /// preserved verbatim).
    pub payload: String,
    /// Wall time spent inside the tile body before it unwound.
    pub elapsed: Duration,
}

thread_local! {
    /// Set while this thread is inside a caught tile body, so the global
    /// hook stays silent for expected unwinds.
    static QUIET_UNWIND: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Install (once, process-wide) a hook that suppresses the default
/// "thread panicked" stderr spew for unwinds we are about to catch and
/// report structurally, chaining to the previous hook for everything else.
fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_UNWIND.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Claim the next contiguous tile range for worker `t` under `schedule`,
/// or `None` once the worker's share of the queue is drained. This is the
/// one implementation of the three claim disciplines
/// ([`crate::persistent::WorkerPool::run_tiles_multi`] claims through it):
///
/// * static — the worker's single offline block (`*static_done` marks it
///   claimed; same arithmetic as uniform tiling);
/// * dynamic — `fetch_add(chunk)` on the shared queue;
/// * guided — CAS loop grabbing `max(chunk, remaining / 2p)` tiles.
pub(crate) fn next_range(
    schedule: Schedule,
    t: usize,
    n_threads: usize,
    n_tiles: usize,
    queue: &AtomicUsize,
    static_done: &mut bool,
) -> Option<(usize, usize)> {
    match schedule {
        Schedule::Static => {
            if *static_done {
                return None;
            }
            *static_done = true;
            let base = n_tiles / n_threads;
            let extra = n_tiles % n_threads;
            let lo = t * base + t.min(extra);
            let len = base + usize::from(t < extra);
            Some((lo, lo + len))
        }
        Schedule::Dynamic { chunk } => {
            let chunk = chunk.max(1);
            let lo = queue.fetch_add(chunk, Ordering::Relaxed);
            (lo < n_tiles).then(|| (lo, (lo + chunk).min(n_tiles)))
        }
        Schedule::Guided { chunk } => {
            let chunk = chunk.max(1);
            loop {
                let cur = queue.load(Ordering::Relaxed);
                if cur >= n_tiles {
                    return None;
                }
                let remaining = n_tiles - cur;
                let grab = (remaining / (2 * n_threads)).max(chunk);
                match queue.compare_exchange_weak(
                    cur,
                    cur + grab,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return Some((cur, (cur + grab).min(n_tiles))),
                    Err(_) => continue,
                }
            }
        }
    }
}

/// Stringify an unwind payload, preserving `&str`/`String` messages.
pub fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f`, converting an unwind into `Err(message)` without letting the
/// default hook write to stderr. This is the one sanctioned way library
/// code contains a possibly-faulty tile computation.
pub fn catch_tile_panic<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    install_quiet_hook();
    QUIET_UNWIND.with(|q| q.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET_UNWIND.with(|q| q.set(false));
    outcome.map_err(|payload| payload_message(payload.as_ref()))
}

/// Load-imbalance metric over the per-thread busy times:
/// `max(busy) / mean(busy)`; 1.0 is perfect balance.
pub fn imbalance(reports: &[ThreadReport]) -> f64 {
    let times: Vec<f64> = reports.iter().map(|r| r.busy.as_secs_f64()).collect();
    let max = times.iter().cloned().fold(0.0, f64::max);
    let mean = times.iter().sum::<f64>() / times.len().max(1) as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catch_tile_panic_preserves_payloads() {
        assert_eq!(catch_tile_panic(|| 7), Ok(7));
        let msg = catch_tile_panic(|| panic!("static str")).expect_err("unwinds");
        assert_eq!(msg, "static str");
        let msg = catch_tile_panic(|| panic!("formatted {}", 42)).expect_err("unwinds");
        assert_eq!(msg, "formatted 42");
        let msg = catch_tile_panic(|| std::panic::panic_any(17u32)).expect_err("unwinds");
        assert_eq!(msg, "non-string panic payload");
    }

    #[test]
    fn imbalance_metric() {
        let mk = |ms: u64| ThreadReport {
            tiles_run: 1,
            busy: Duration::from_millis(ms),
            ..ThreadReport::default()
        };
        let balanced = vec![mk(100), mk(100)];
        assert!((imbalance(&balanced) - 1.0).abs() < 1e-9);
        let skewed = vec![mk(300), mk(100)];
        assert!((imbalance(&skewed) - 1.5).abs() < 1e-9);
        assert_eq!(imbalance(&[ThreadReport::default()]), 1.0);
    }

    #[test]
    fn schedule_labels() {
        assert_eq!(Schedule::Static.label(), "Static");
        assert_eq!(Schedule::Dynamic { chunk: 1 }.label(), "Dynamic");
        assert_eq!(Schedule::Guided { chunk: 1 }.label(), "Guided");
        assert_eq!(Schedule::all().len(), 2, "the paper's sweep stays two-policy");
        assert_eq!(Schedule::all_extended().len(), 3);
        assert!(Schedule::all_extended().starts_with(&Schedule::all()));
    }
}
