//! The masked-SpGEMM run: one frozen plan of `N` product nodes executed
//! on the executor's pool. Every entry point goes through it — one
//! product ([`spgemm`], [`crate::Executor::execute`], [`crate::Plan`]), a
//! fused [`crate::PlanGraph`], and a coalesced batch of products (the
//! concurrent [`crate::Service`]).
//!
//! Pipeline per run (all passes are `O(nnz)` or better):
//!
//! 1. the symbolic phase, frozen in a `PlanCore` (`crate::plan`; built
//!    per call by [`spgemm`], built *once* by a plan and reused);
//! 2. the parallel phase on the executor's persistent worker pool
//!    ([`mspgemm_sched::WorkerPool`]): a worker claims a tile, claims that
//!    tile's slot window of every node, and runs the nodes in chain order,
//!    each writing its rows straight into its window;
//! 3. the settle: degraded retry of any lost tile, then compaction of
//!    every output node into its CSR.
//!
//! A single product is the one-node plan: its tile claims one window (on
//! the stack) and runs the row loop with no post-op wrapper. In a chain,
//! node `j+1` reads the rows node `j` just wrote, cache-hot, in the same
//! worker's window — sound because output row `i` reads only row `i` of
//! `A`, and every node shares the row partition.
//!
//! Steps 2 and 3 run on the tile-run engine (`crate::engine`), through
//! one run over a list of jobs (`run`): a plan run is the list of one,
//! a Service batch the list of many one-node plans, all drained by the
//! pool's one claim loop (`WorkerPool::run_tiles_multi`). Every job runs
//! the same tile body, keeps its workers' accumulators in its plan's
//! cells and settles the same way; only the claim schedule, the
//! compaction and the metrics delta follow a rule on the job count (see
//! `run`).
//!
//! # Output assembly
//!
//! The mask's hard bound `nnz(C[i,:]) ≤ nnz(M[i,:])` sizes each node's
//! slot buffers at `nnz(M)` once; tiles write their rows straight into
//! disjoint slot ranges ([`mspgemm_sched::DisjointSlots`]), and compaction
//! squeezes out the per-row slack — or, with no slack, adopts the slots
//! as the output. A reused plan keeps the buffers in its `PlanScratch`.
//!
//! # Fault tolerance
//!
//! Tile execution is panic-isolated (see `mspgemm_sched`): a kernel that
//! unwinds loses only its own tile, and the engine retries each lost tile
//! **once, serially, with the conservative configuration** — the vanilla
//! saxpy kernel over a dense `u64`-marker accumulator, node by node in
//! chain order, so a retried node's successors are rebuilt from its
//! recovered output — before giving up. All kernels accumulate each
//! output row's products in the same `k` order, so a successful retry is
//! bit-identical to what the original configuration would have produced.
//! Only if the degraded retry *also* fails does the call surface
//! [`SparseError::TileFailed`], naming the tile and its row range;
//! internal invariant breaks surface as [`SparseError::Internal`]. A panic
//! that escapes tile isolation inside the pool infrastructure poisons the
//! executor — [`SparseError::ExecutorPoisoned`] — but never the process.
//! Either way [`RunStats::retried_tiles`] / [`RunStats::failed_tiles`]
//! make any degradation observable.

use crate::config::Config;
use crate::engine::{
    compact, compute_tile, dispatch, hash_slack, pool_error, recover, AccVisitor, NoPost,
    RetryStats, RowKernel, RowPost, SlotBufs, TileAcc, TileLedger, TileSlots, TileWindow,
};
use crate::executor::{Executor, ExecutorShared};
use crate::kernels::RowRead;
use crate::plan::{Node, OperandRef, Outputs, PlanCore, PlanScratch, PostOpSpec};
use mspgemm_accum::{Accumulator, DenseAccumulator, FusedOp, FusedStage};
use mspgemm_rt::{failpoint, obs};
use mspgemm_sched::{
    CancelToken, MultiRun, Schedule, ThreadReport, TileFailure, WorkerPool, WorkerScratch,
};
use mspgemm_sparse::{Csr, Idx, Semiring, SparseError};
use std::any::Any;
use std::marker::PhantomData;
use std::sync::{Mutex, MutexGuard, TryLockError};
use std::time::{Duration, Instant};

/// Measurements from one driver invocation.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Wall time of the parallel phase + compaction, **excluding** the
    /// degraded serial retries (matching how the paper times the kernel:
    /// a fault-recovery pass is not part of the measured configuration).
    /// The retry window is reported separately in
    /// [`retry_elapsed`](Self::retry_elapsed); end-to-end wall time is
    /// [`total`](Self::total).
    pub elapsed: Duration,
    /// Wall time of the symbolic phase: the work-estimation + tiling
    /// prologue for a one-shot call, or the (much cheaper) structural
    /// revalidation for [`crate::plan::Plan::execute`].
    pub setup: Duration,
    /// Wall time of the degraded serial retry pass (zero when no tile
    /// failed), kept out of [`elapsed`](Self::elapsed).
    pub retry_elapsed: Duration,
    /// Per-thread execution reports (tiles run, busy time).
    pub thread_reports: Vec<ThreadReport>,
    /// Total Eq. 2 work estimate.
    pub estimated_work: u64,
    /// Entries in the output.
    pub output_nnz: usize,
    /// Tiles actually used (after resolution/clamping).
    pub n_tiles: usize,
    /// Threads actually used.
    pub n_threads: usize,
    /// Tiles that failed in the parallel phase and were recovered by the
    /// degraded serial retry (vanilla kernel + dense `u64` accumulator).
    pub retried_tiles: usize,
    /// Tiles that failed in the parallel phase (each was then retried; a
    /// retry failure aborts the whole call with
    /// [`SparseError::TileFailed`], so on the `Ok` path this always equals
    /// [`retried_tiles`](Self::retried_tiles)).
    pub failed_tiles: usize,
    /// Rows whose overbooked accumulator overflowed and were recomputed
    /// at the hard mask bound (the [`crate::Overbook`] spill path; the
    /// recompute is bit-identical, so this is a performance signal, not a
    /// correctness one). Always zero when overbooking is off.
    pub overbook_spills: u64,
    /// Counter/histogram deltas attributable to this run, present iff
    /// metrics were armed (`MSPGEMM_METRICS` or [`obs::arm_metrics`]).
    pub metrics: Option<obs::MetricsSnapshot>,
}

impl RunStats {
    /// `max(busy) / mean(busy)` over threads; 1.0 is perfect balance.
    pub fn imbalance(&self) -> f64 {
        mspgemm_sched::pool::imbalance(&self.thread_reports)
    }

    /// End-to-end wall time of the call:
    /// `setup + elapsed + retry_elapsed`.
    pub fn total(&self) -> Duration {
        self.setup + self.elapsed + self.retry_elapsed
    }

    /// Assemble a settled run's stats. `window` is the run's wall time
    /// *including* the retry pass, which is carved out into
    /// `retry_elapsed`; `work` is `(estimated_work, n_tiles, n_threads)`.
    pub(crate) fn new(
        window: Duration,
        setup: Duration,
        retry: RetryStats,
        thread_reports: Vec<ThreadReport>,
        output_nnz: usize,
        work: (u64, usize, usize),
        metrics: Option<obs::MetricsSnapshot>,
    ) -> Self {
        let (estimated_work, n_tiles, n_threads) = work;
        RunStats {
            elapsed: window.saturating_sub(retry.elapsed),
            setup,
            retry_elapsed: retry.elapsed,
            thread_reports,
            estimated_work,
            output_nnz,
            n_tiles,
            n_threads,
            retried_tiles: retry.recovered,
            failed_tiles: retry.failed,
            overbook_spills: retry.spills,
            metrics,
        }
    }
}

/// Compute `C = M ⊙ (A × B)` with the given configuration, on the
/// process-wide persistent executor ([`crate::Executor::global`]).
///
/// The mask is interpreted **structurally**: any stored entry of `M`
/// admits the corresponding output position, regardless of its value
/// (§IV-A: "the mask is treated as Boolean (i.e., its values are not
/// used)").
///
/// For iterated workloads (the same operand structure multiplied many
/// times), prefer [`crate::Session`] or [`crate::Executor::plan`], which
/// additionally reuse the symbolic phase and the output slot buffers
/// across calls.
pub fn spgemm<S: Semiring>(
    a: &Csr<S::T>,
    b: &Csr<S::T>,
    mask: &Csr<S::T>,
    config: &Config,
) -> Result<(Csr<S::T>, RunStats), SparseError> {
    Executor::global().execute::<S>(a, b, mask, config)
}

/// How a run builds its nodes' fused post-op chains. A product carries
/// none ([`Plain`], which puts no bound on the element type); a graph's
/// select-by-threshold needs `T: PartialOrd` ([`Fused`]).
pub(crate) trait PostOps<T: Copy> {
    type Stages<'p>: RowPost<T>
    where
        T: 'p;
    /// Whether a run counts its nodes and post-ops as `fusion.ops_fused`.
    const FUSED: bool;
    /// The chain for `post`, or `None` when there is nothing to fuse.
    fn stages<'p>(post: &[PostOpSpec<T>], inputs: &[&'p Csr<T>]) -> Option<Self::Stages<'p>>;
}

/// Post-ops of product plans: there are none to apply.
pub(crate) enum Plain {}

impl<T: Copy> PostOps<T> for Plain {
    type Stages<'p> = NoPost where T: 'p;
    const FUSED: bool = false;
    fn stages(_: &[PostOpSpec<T>], _: &[&Csr<T>]) -> Option<NoPost> {
        None
    }
}

/// Post-ops of graph plans, fused into the row sink. Patterns borrow the
/// external inputs directly — they are co-iterated per row, never copied.
pub(crate) enum Fused {}

impl<T: Copy + PartialOrd> PostOps<T> for Fused {
    type Stages<'p> = Vec<FusedStage<'p, T>> where T: 'p;
    const FUSED: bool = true;
    fn stages<'p>(post: &[PostOpSpec<T>], inputs: &[&'p Csr<T>]) -> Option<Self::Stages<'p>> {
        let stage = |p: &PostOpSpec<T>| {
            FusedStage::new(match *p {
                PostOpSpec::SelectGe(t) => FusedOp::SelectGe(t),
                PostOpSpec::Fill(v) => FusedOp::Fill(v),
                PostOpSpec::Intersect(e) => FusedOp::Intersect(inputs[e]),
                PostOpSpec::Subtract(e) => FusedOp::Subtract(inputs[e]),
            })
        };
        (!post.is_empty()).then(|| post.iter().map(stage).collect())
    }
}

/// One node's rows of one tile, reading `A` through `a`. A node without
/// post-ops runs through [`NoPost`], the plain slot write — so a single
/// product's tile is exactly the unfused row loop.
fn node_tile<S, P, A, R, G>(
    node: &Node<S::T>,
    inputs: &[&Csr<S::T>],
    a: &R,
    w: &mut TileWindow<'_, S::T>,
    k: RowKernel,
    ta: &mut TileAcc<S, A>,
    make_full: &G,
) -> u64
where
    S: Semiring,
    P: PostOps<S::T>,
    A: Accumulator<S>,
    R: RowRead<S::T> + ?Sized,
    G: Fn() -> A,
{
    let (b, mask) = (inputs[node.b], inputs[node.mask]);
    match P::stages(&node.post, inputs) {
        Some(mut stages) => compute_tile(w, k, a, b, mask, &mut stages, ta, make_full),
        None => compute_tile(w, k, a, b, mask, &mut NoPost, ta, make_full),
    }
}

/// Run every node of one tile in chain order, each into its window of
/// `windows`. A node whose `A` is an earlier node reads that node's
/// window — written moments ago by this same call, so cache-resident.
/// Returns the tile's overbook spills.
fn run_chain<S, P, A, G>(
    core: &PlanCore<S::T>,
    inputs: &[&Csr<S::T>],
    windows: &mut [TileWindow<'_, S::T>],
    k: RowKernel,
    ta: &mut TileAcc<S, A>,
    make_full: &G,
) -> u64
where
    S: Semiring,
    P: PostOps<S::T>,
    A: Accumulator<S>,
    G: Fn() -> A,
{
    let mut spills = 0;
    for (ni, node) in core.nodes.iter().enumerate() {
        let (done, rest) = windows.split_at_mut(ni);
        let Some(w) = rest.first_mut() else { break };
        spills += match node.a {
            OperandRef::Ext(e) => {
                node_tile::<S, P, _, _, _>(node, inputs, inputs[e], w, k, ta, make_full)
            }
            OperandRef::Node(j) => {
                node_tile::<S, P, _, _, _>(node, inputs, &done[j], w, k, ta, make_full)
            }
        };
    }
    spills
}

/// One tile of the parallel phase — the protocol every tile body shares:
/// fire `tile-kernel` once per node (key `ni * n_tiles + t`, so `t` for a
/// single product), leave a tile the watchdog abandoned to the settle,
/// claim the tile's window of every node, run `body` on them, and close
/// the tile in the ledger with the spills `body` reports (`None` leaves
/// it missing for the settle). A single product's window lives on the
/// stack: the one-node path allocates nothing per tile.
fn run_tile<'b, T>(
    n_tiles: usize,
    slots: &[TileSlots<'b, T>],
    ledger: &TileLedger,
    ws: &WorkerScratch,
    t: usize,
    body: impl FnOnce(&mut [TileWindow<'b, T>]) -> Option<u64>,
) {
    for ni in 0..slots.len() {
        // decorrelate per-node failures under fault injection
        failpoint::maybe_fire(failpoint::TILE_KERNEL, (ni * n_tiles + t) as u64);
    }
    if ws.current_tile_abandoned() {
        // the watchdog already handed this tile to the degraded serial
        // path; leave it uncompleted and let the settle own it
        return;
    }
    let spills = if let [only] = slots {
        let Some(mut w) = only.claim(t, ledger) else { return };
        body(std::slice::from_mut(&mut w))
    } else {
        let mut windows = Vec::with_capacity(slots.len());
        for s in slots {
            let Some(w) = s.claim(t, ledger) else { return };
            windows.push(w);
        }
        let spills = body(&mut windows);
        obs::add(obs::Counter::FusionTilesChained, slots.len().saturating_sub(1) as u64);
        spills
    };
    if let Some(spills) = spills {
        ledger.finish(ws, t, spills);
    }
}

/// Size one slot buffer per node for `core` (a no-op on a reused
/// same-structure plan) and split them into one run's claim-once views.
fn tile_slots<'b, S: Semiring>(
    core: &'b PlanCore<S::T>,
    bufs: &'b mut Vec<SlotBufs<S::T>>,
) -> Result<Vec<TileSlots<'b, S::T>>, SparseError> {
    bufs.resize_with(core.nodes.len(), SlotBufs::default);
    bufs.iter_mut()
        .zip(&core.layouts)
        .map(|(nb, layout)| {
            nb.resize(layout.bound, core.nrows, S::zero());
            TileSlots::new(nb, layout)
        })
        .collect()
}

/// Run `v` over the plan's accumulator type.
fn dispatch_core<S: Semiring, V: AccVisitor<S>>(core: &PlanCore<S::T>, v: V) -> V::Out {
    let kind = core.config.kernel.accumulator;
    dispatch::<S, V>(kind, core.simd_probe, core.max_ncols, core.max_row_entries, v)
}

/// Settle a run after its parallel phase: recover every lost tile through
/// the whole chain in the conservative configuration, then compact each
/// output node (in node order), handing its slot buffers back to `bufs`.
#[allow(clippy::too_many_arguments)]
fn settle<S: Semiring, P: PostOps<S::T>>(
    core: &PlanCore<S::T>,
    inputs: &[&Csr<S::T>],
    ledger: TileLedger,
    failures: &[TileFailure],
    cancel: Option<&CancelToken>,
    bufs: &mut [SlotBufs<S::T>],
    par: Option<(&WorkerPool, usize)>,
) -> Outputs<S::T, RetryStats> {
    let retry = recover(&core.tiles, ledger, failures, cancel, |t| {
        let mut windows: Vec<TileWindow<'_, S::T>> =
            bufs.iter_mut().zip(&core.layouts).map(|(nb, layout)| layout.window(t, nb)).collect();
        let make_full = || DenseAccumulator::<S, u64>::new(core.max_ncols);
        let mut ta = TileAcc::new(make_full());
        run_chain::<S, P, _, _>(core, inputs, &mut windows, RowKernel::RETRY, &mut ta, &make_full);
    })?;
    let mut outputs = Vec::new();
    for ((node, layout), nb) in core.nodes.iter().zip(&core.layouts).zip(bufs) {
        if node.output {
            let shape = (core.nrows, inputs[node.b].ncols());
            let slots = std::mem::take(nb);
            outputs.push(compact::<S>(&core.tiles, layout, shape, slots, par, Some(nb))?);
        }
    }
    Ok((outputs, retry))
}

/// One plan run inside [`run`]: a frozen core, its inputs and cross-run
/// scratch, plus the fairness weight the interleaved claim order gives
/// it among several jobs.
pub(crate) struct Job<'r, S: Semiring> {
    pub(crate) core: &'r PlanCore<S::T>,
    /// The plan's positional inputs (`[A, B, M]` for a product).
    pub(crate) inputs: &'r [&'r Csr<S::T>],
    pub(crate) scratch: &'r mut PlanScratch<S>,
    /// Tiles this job contributes per round of the interleaved claim
    /// order (see [`mspgemm_sched::MultiRun::weight`]).
    pub(crate) weight: u32,
    /// Symbolic-phase wall time attributed to this job, reported in its
    /// `RunStats`.
    pub(crate) setup: Duration,
    /// Cooperative cancellation for this job alone: once the token fires
    /// (client cancel or enforced deadline) its tiles stop being issued
    /// and the settle reports [`SparseError::Cancelled`] /
    /// [`SparseError::DeadlineExceeded`]. Sibling jobs are untouched.
    pub(crate) cancel: Option<&'r CancelToken>,
}

/// One worker's accumulator cell of one job (see [`TileBody`]).
type AccCell = Mutex<Option<Box<dyn Any + Send>>>;

/// Execute a list of jobs on an executor in one run-lock window and one
/// pool synchronisation — the run behind every entry point. A plan run
/// (`spgemm`, `Plan`, `Session`, `PlanGraph`) is a list of one; a Service
/// batch is a list of many one-node plans. Results come back in job
/// order, each job settling from its own failure accounting, so one
/// tenant's tile panics never fail a sibling's product. Inside the
/// window every job counts `driver.runs`, a kept plan's run (`planned`)
/// `exec.plan_executes`, and a graph its fused ops.
///
/// What differs is a rule on the job count:
///
/// * **one job** claims its tiles under its config's `Schedule` on its
///   `n_threads`, compacts on the pool once an output reaches
///   `MSPGEMM_COMPACT_PAR_MIN` bytes, and returns its `RunStats::metrics`
///   delta (the run lock keeps deltas from interleaving);
/// * **several jobs** interleave their tiles by weight under
///   `Dynamic { chunk: 1 }` (the right grain for many *small* products)
///   on the widest job's thread count, compact serially per job (nesting
///   a pool run inside the settle would serialize against the very
///   synchronisation the batch amortises), and return `metrics: None`:
///   process-global counter deltas cannot be split across interleaved
///   jobs. Their `thread_reports` are the whole batch's, and `elapsed` is
///   the shared parallel window plus the job's own settle.
pub(crate) fn run<S: Semiring, P: PostOps<S::T>>(
    exec: &ExecutorShared,
    mut jobs: Vec<Job<'_, S>>,
    planned: bool,
) -> Vec<Outputs<S::T, RunStats>> {
    let _run = exec.run_lock.lock().unwrap_or_else(|e| e.into_inner());
    let before = (jobs.len() == 1 && obs::armed()).then(obs::snapshot);
    let (schedule, n_threads) = match &jobs[..] {
        [job] => (job.core.config.schedule, job.core.n_threads),
        _ => {
            let widest = jobs.iter().map(|j| j.core.n_threads).max().unwrap_or(1);
            (Schedule::Dynamic { chunk: 1 }, widest)
        }
    };
    // slot buffers and accumulator cells are leased from each job's plan
    // scratch, so a kept plan re-executes without rebuilding them
    let mut bufs = Vec::with_capacity(jobs.len());
    let mut cells = Vec::with_capacity(jobs.len());
    for job in &mut jobs {
        obs::incr(obs::Counter::DriverRuns);
        if planned {
            obs::incr(obs::Counter::ExecPlanExecutes);
        }
        if P::FUSED {
            let n_post: usize = job.core.nodes.iter().map(|n| n.post.len()).sum();
            obs::add(obs::Counter::FusionOpsFused, (job.core.nodes.len() + n_post) as u64);
        }
        note_overbook_savings::<S>(job.core);
        bufs.push(std::mem::take(&mut job.scratch.slots));
        let mut accs = std::mem::take(&mut job.scratch.accums);
        if accs.len() < n_threads {
            accs.resize_with(n_threads, || Mutex::new(None));
        }
        cells.push(accs);
    }
    let ledgers: Vec<TileLedger> =
        jobs.iter().map(|j| TileLedger::new(j.core.tiles.len())).collect();

    let start = Instant::now();
    let outcome = jobs
        .iter()
        .zip(&mut bufs)
        .map(|(job, bufs)| tile_slots::<S>(job.core, bufs))
        .collect::<Result<Vec<_>, _>>()
        .and_then(|slots| {
            let bodies: Vec<_> = (jobs.iter().zip(&slots).zip(&ledgers).zip(&cells))
                .map(|(((job, slots), ledger), cells)| {
                    let (core, inputs) = (job.core, job.inputs);
                    let post = PhantomData;
                    let body = TileBody::<S, P> { core, inputs, slots, ledger, cells, post };
                    dispatch_core::<S, _>(core, body)
                })
                .collect();
            let runs: Vec<MultiRun<'_>> = (jobs.iter().zip(&bodies))
                .map(|(job, body)| MultiRun {
                    n_tiles: job.core.tiles.len(),
                    weight: job.weight,
                    cancel: job.cancel,
                    body: body.as_ref(),
                })
                .collect();
            exec.pool.run_tiles_multi(n_threads, schedule, &runs).map_err(pool_error)
        });
    let parallel = start.elapsed();

    let par = (jobs.len() == 1).then_some((&exec.pool, n_threads));
    let results = match outcome {
        Err(e) => jobs.iter().map(|_| Err(e.clone())).collect(),
        Ok(out) => (jobs.iter().zip(&mut bufs).zip(ledgers).zip(&out.failures))
            .map(|(((job, bufs), ledger), failures)| {
                let settle_start = Instant::now();
                let (core, inputs) = (job.core, job.inputs);
                let (outputs, retry) =
                    settle::<S, P>(core, inputs, ledger, failures, job.cancel, bufs, par)?;
                let output_nnz = outputs.iter().map(|c| c.nnz()).sum();
                let metrics = before.as_ref().map(|b| obs::snapshot().delta_since(b));
                let window = parallel + settle_start.elapsed();
                let work = (core.estimated_work, core.tiles.len(), n_threads);
                let (setup, reports) = (job.setup, out.reports.clone());
                let stats = RunStats::new(window, setup, retry, reports, output_nnz, work, metrics);
                Ok((outputs, stats))
            })
            .collect(),
    };
    // hand the leases back on every outcome path: a failed run must not
    // cost a kept plan its buffers and accumulators
    for ((job, bufs), cells) in jobs.iter_mut().zip(bufs).zip(cells) {
        job.scratch.slots = bufs;
        job.scratch.accums = cells;
    }
    results
}

/// The type-erased tile body of one job: [`run_tile`] around the chain
/// loop, over a worker accumulator sized at the plan's overbooked bound
/// (spill rebuilds use the hard bound).
///
/// Each worker's accumulator lives in its cell of the plan's scratch
/// (`PlanScratch::accums`, one cell per worker index), built lazily on
/// the worker's first tile of the job. It survives every tile the worker
/// claims and, under a kept plan, every run of the plan, whatever other
/// plans ran in between. A stale or poisoned cell is rebuilt from clean
/// (see [`lock_cell`]).
struct TileBody<'x, S: Semiring, P> {
    core: &'x PlanCore<S::T>,
    inputs: &'x [&'x Csr<S::T>],
    slots: &'x [TileSlots<'x, S::T>],
    ledger: &'x TileLedger,
    cells: &'x [AccCell],
    post: PhantomData<fn() -> P>,
}

impl<'x, S: Semiring, P: PostOps<S::T>> AccVisitor<S> for TileBody<'x, S, P> {
    type Out = Box<dyn Fn(usize, &mut WorkerScratch, usize) + Sync + 'x>;

    fn visit<A, F>(self, make: F) -> Self::Out
    where
        A: Accumulator<S> + 'static,
        F: Fn(usize) -> A + Copy + Send + Sync + 'static,
    {
        let core = self.core;
        let (overbook, full) = (core.overbook_row_entries, core.max_row_entries);
        let iteration = core.config.kernel.iteration;
        let k = RowKernel { iteration, simd: core.simd, overbook_limit: overbook };
        Box::new(move |worker, ws, t| {
            run_tile(core.tiles.len(), self.slots, self.ledger, ws, t, |windows| {
                let mut cell = lock_cell(&self.cells[worker % self.cells.len()]);
                let mut spare = None;
                // a cell held by a stalled thread the watchdog superseded
                // at this worker index leaves the tile a spare
                let slot = match cell.as_deref_mut() {
                    Some(slot) => slot,
                    None => &mut spare,
                };
                // `None` is unreachable (the slot was just filled); bailing
                // leaves the tile missing for the settle
                let ta = cached(slot, || TileAcc::new(make(overbook)))?;
                Some(run_chain::<S, P, _, _>(core, self.inputs, windows, k, ta, &|| make(full)))
            })
        })
    }
}

/// Lock a worker's accumulator cell, or `None` while another thread holds
/// it (only a stalled thread the watchdog superseded at the same worker
/// index can). A cell poisoned by a tile that panicked mid-update is
/// cleared, so [`cached`] rebuilds it from clean.
fn lock_cell(cell: &AccCell) -> Option<MutexGuard<'_, Option<Box<dyn Any + Send>>>> {
    match cell.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::WouldBlock) => None,
        Err(TryLockError::Poisoned(poisoned)) => {
            cell.clear_poison();
            let mut guard = poisoned.into_inner();
            *guard = None;
            Some(guard)
        }
    }
}

/// The cached `T` in `slot`, built by `build` when absent or of another
/// type (e.g. arming metrics flips the accumulator's `METER` parameter).
fn cached<T: Any + Send>(
    slot: &mut Option<Box<dyn Any + Send>>,
    build: impl FnOnce() -> T,
) -> Option<&mut T> {
    if !slot.as_ref().is_some_and(|boxed| boxed.as_ref().is::<T>()) {
        // drop the stale value first so peak memory is one scratch
        *slot = None;
        *slot = Some(Box::new(build()));
    }
    slot.as_deref_mut().and_then(|boxed| boxed.downcast_mut::<T>())
}

/// Record the scratch memory overbooking saved, as a per-run estimate:
/// the power-of-two table shrink times one entry (32-bit key + value +
/// the common 32-bit mark) times the worker count. A no-op unless the
/// plan actually overbooked below the hard bound.
fn note_overbook_savings<S: Semiring>(core: &PlanCore<S::T>) {
    if core.overbook_row_entries >= core.max_row_entries {
        return;
    }
    let pow2 = |n: usize, slack: usize| (n.max(1) * slack).next_power_of_two();
    let full = pow2(core.max_row_entries, 2);
    let over = pow2(
        core.overbook_row_entries,
        hash_slack(core.overbook_row_entries, core.max_row_entries),
    );
    if over >= full {
        return;
    }
    let entry = std::mem::size_of::<Idx>() + std::mem::size_of::<S::T>() + std::mem::size_of::<u32>();
    obs::add(
        obs::Counter::AccumOverbookSavedBytes,
        ((full - over) * entry * core.n_threads) as u64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IterationSpace, KernelPolicy, Overbook, SimdMode};
    use crate::{Executor, Plan};
    use mspgemm_accum::{AccumulatorKind, HashAccumulator};
    use mspgemm_sched::{Schedule, TilingStrategy};
    use mspgemm_sparse::{Coo, Dense, PlusPair, PlusTimes};

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

    fn all_configs() -> Vec<Config> {
        let mut v = Vec::new();
        for tiling in TilingStrategy::all() {
            for schedule in Schedule::all() {
                for accumulator in AccumulatorKind::all() {
                    for iteration in [
                        IterationSpace::Vanilla,
                        IterationSpace::MaskAccumulate,
                        IterationSpace::CoIterate,
                        IterationSpace::Hybrid { kappa: 1.0 },
                    ] {
                        v.push(
                            Config::builder()
                                .n_threads(2)
                                .n_tiles(7)
                                .tiling(tiling)
                                .schedule(schedule)
                                .kernel_policy(
                                    KernelPolicy::new()
                                        .accumulator(accumulator)
                                        .iteration(iteration),
                                )
                                .build(),
                        );
                    }
                }
            }
        }
        v
    }

    #[test]
    fn every_configuration_matches_the_oracle() {
        let a = lcg_matrix(50, 50, 5, 1);
        let b = lcg_matrix(50, 50, 4, 2);
        let mask = lcg_matrix(50, 50, 6, 3);
        let want = Dense::masked_matmul::<PlusTimes, f64>(&a, &b, &mask);
        for cfg in all_configs() {
            let (got, _) = spgemm::<PlusTimes>(&a, &b, &mask, &cfg).unwrap();
            assert_eq!(got, want, "config {}", cfg.label());
        }
    }

    #[test]
    fn triangle_counting_setup_a_a_a() {
        // C = A ⊙ (A×A) over plus_pair: C[i,j] counts wedges; the oracle
        // must agree for the exact paper workload
        let a = lcg_matrix(64, 64, 6, 9);
        let ap = a.spones(1u64);
        let want = Dense::masked_matmul::<PlusPair, u64>(&ap, &ap, &ap);
        let (got, _) = spgemm::<PlusPair>(&ap, &ap, &ap, &Config::default()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = lcg_matrix(4, 5, 2, 1);
        let b = lcg_matrix(6, 4, 2, 2); // inner dim 5 != 6
        let m = lcg_matrix(4, 4, 2, 3);
        assert!(matches!(
            spgemm::<PlusTimes>(&a, &b, &m, &Config::default()),
            Err(SparseError::ShapeMismatch { .. })
        ));
        let b2 = lcg_matrix(5, 4, 2, 2);
        let bad_mask = lcg_matrix(3, 4, 2, 3);
        assert!(matches!(
            spgemm::<PlusTimes>(&a, &b2, &bad_mask, &Config::default()),
            Err(SparseError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn stats_are_populated() {
        let a = lcg_matrix(100, 100, 5, 4);
        let cfg = Config::builder().n_threads(2).n_tiles(16).build();
        let (c, stats) = spgemm::<PlusTimes>(&a, &a, &a, &cfg).unwrap();
        assert_eq!(stats.output_nnz, c.nnz());
        assert_eq!(stats.n_threads, 2);
        assert_eq!(stats.n_tiles, 16);
        assert!(stats.estimated_work > 0);
        assert_eq!(stats.thread_reports.len(), 2);
        assert_eq!(
            stats.thread_reports.iter().map(|r| r.tiles_run).sum::<usize>(),
            16
        );
        assert!(stats.imbalance() >= 1.0);
        assert_eq!(stats.retried_tiles, 0, "no failpoints armed, no retries");
        assert_eq!(stats.failed_tiles, 0);
    }

    #[test]
    fn more_tiles_than_rows_is_fine() {
        let a = lcg_matrix(10, 10, 3, 5);
        let cfg = Config::builder().n_threads(2).n_tiles(1000).build();
        let want = Dense::masked_matmul::<PlusTimes, f64>(&a, &a, &a);
        let (got, _) = spgemm::<PlusTimes>(&a, &a, &a, &cfg).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn single_tile_single_thread() {
        let a = lcg_matrix(30, 30, 4, 6);
        let cfg = Config::builder().n_threads(1).n_tiles(1).build();
        let want = Dense::masked_matmul::<PlusTimes, f64>(&a, &a, &a);
        assert_eq!(spgemm::<PlusTimes>(&a, &a, &a, &cfg).unwrap().0, want);
    }

    #[test]
    fn empty_matrices() {
        let a: Csr<f64> = Csr::zeros(10, 10);
        let (c, _) = spgemm::<PlusTimes>(&a, &a, &a, &Config::default()).unwrap();
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.nrows(), 10);
    }

    #[test]
    fn empty_mask_gives_empty_output() {
        let a = lcg_matrix(20, 20, 4, 8);
        let mask: Csr<f64> = Csr::zeros(20, 20);
        for it in [
            IterationSpace::Vanilla,
            IterationSpace::MaskAccumulate,
            IterationSpace::CoIterate,
            IterationSpace::Hybrid { kappa: 1.0 },
        ] {
            let cfg = Config::builder()
                .kernel_policy(KernelPolicy::new().iteration(it))
                .n_threads(2)
                .build();
            let (c, _) = spgemm::<PlusTimes>(&a, &a, &mask, &cfg).unwrap();
            assert_eq!(c.nnz(), 0, "{}", it.label());
        }
    }

    #[test]
    fn rectangular_multiply() {
        let a = lcg_matrix(12, 20, 4, 10);
        let b = lcg_matrix(20, 8, 3, 11);
        let mask = lcg_matrix(12, 8, 4, 12);
        let want = Dense::masked_matmul::<PlusTimes, f64>(&a, &b, &mask);
        for it in [IterationSpace::MaskAccumulate, IterationSpace::Hybrid { kappa: 1.0 }] {
            let cfg = Config::builder()
                .kernel_policy(KernelPolicy::new().iteration(it))
                .n_threads(2)
                .n_tiles(3)
                .build();
            assert_eq!(spgemm::<PlusTimes>(&a, &b, &mask, &cfg).unwrap().0, want);
        }
    }

    #[test]
    fn mask_values_are_ignored_structurally() {
        // mask with value 0.0 stored: still admits the position
        let a = lcg_matrix(10, 10, 4, 13);
        let mut mask = lcg_matrix(10, 10, 4, 14);
        for v in mask.values_mut() {
            *v = 0.0;
        }
        let want = Dense::masked_matmul::<PlusTimes, f64>(&a, &a, &mask);
        let (got, _) = spgemm::<PlusTimes>(&a, &a, &mask, &Config::default()).unwrap();
        assert_eq!(got, want);
        // oracle also treats the mask structurally, so cross-check nnz > 0
        assert!(got.nnz() > 0, "structural mask should admit entries");
    }

    /// A mask with one planted fat row and a uniformly thin remainder —
    /// the skew overbooking is designed for: the quantile bound hugs the
    /// thin rows, the fat row must spill.
    fn skewed_mask(n: usize, fat_row: usize, fat_w: usize) -> Csr<f64> {
        let mut coo = Coo::new(n, n);
        for j in 0..fat_w {
            coo.push(fat_row, j, 1.0);
        }
        for i in 0..n {
            if i == fat_row {
                continue;
            }
            coo.push(i, i, 1.0);
            coo.push(i, (i * 7 + 3) % n, 1.0);
        }
        coo.to_csr_with(|a, _| a)
    }

    #[test]
    fn overbooked_run_spills_and_stays_bit_identical() {
        let a = lcg_matrix(40, 40, 6, 31);
        let b = lcg_matrix(40, 40, 5, 32);
        let mask = skewed_mask(40, 0, 30);
        let (_, base_stats) =
            spgemm::<PlusTimes>(&a, &b, &mask, &Config::builder().n_threads(2).build()).unwrap();
        assert_eq!(base_stats.overbook_spills, 0, "overbooking is off by default");
        for it in [
            IterationSpace::Vanilla,
            IterationSpace::MaskAccumulate,
            IterationSpace::CoIterate,
            IterationSpace::Hybrid { kappa: 1.0 },
        ] {
            let hard = Config::builder()
                .n_threads(2)
                .n_tiles(5)
                .kernel_policy(KernelPolicy::new().iteration(it))
                .build();
            let (want, _) = spgemm::<PlusTimes>(&a, &b, &mask, &hard).unwrap();
            let over = Config::builder()
                .n_threads(2)
                .n_tiles(5)
                .kernel_policy(KernelPolicy::new().iteration(it).overbook(Overbook::p90()))
                .build();
            let (got, stats) = spgemm::<PlusTimes>(&a, &b, &mask, &over).unwrap();
            assert_eq!(got, want, "spill recompute must be bit-identical ({})", it.label());
            if matches!(it, IterationSpace::MaskAccumulate | IterationSpace::Hybrid { .. }) {
                // the fat mask row cannot fit the p90 table: guaranteed spill
                assert!(stats.overbook_spills >= 1, "expected a spill ({})", it.label());
            }
        }
    }

    #[test]
    fn simd_and_scalar_runs_are_bit_identical() {
        let a = lcg_matrix(60, 60, 6, 41);
        let mask = lcg_matrix(60, 60, 8, 43);
        for it in [IterationSpace::CoIterate, IterationSpace::Hybrid { kappa: 1.0 }] {
            let mk = |simd| {
                Config::builder()
                    .n_threads(2)
                    .n_tiles(4)
                    .kernel_policy(KernelPolicy::new().iteration(it).simd(simd))
                    .build()
            };
            let (auto_c, _) = spgemm::<PlusTimes>(&a, &a, &mask, &mk(SimdMode::Auto)).unwrap();
            let (scalar_c, _) = spgemm::<PlusTimes>(&a, &a, &mask, &mk(SimdMode::Scalar)).unwrap();
            assert_eq!(auto_c, scalar_c, "{}", it.label());
        }
    }

    /// The address of each accumulator box in a plan's cells (`None` for
    /// an empty cell).
    fn cell_boxes(plan: &Plan<PlusTimes>) -> Vec<Option<usize>> {
        let addr = |b: &Box<dyn Any + Send>| &**b as *const (dyn Any + Send) as *const u8 as usize;
        plan.scratch.accums.iter().map(|c| lock_cell(c).unwrap().as_ref().map(addr)).collect()
    }

    #[test]
    fn plan_cells_keep_one_accumulator_per_worker_across_runs_and_other_plans() {
        // armed up front: a flip of the METER flag between the two runs
        // would rebuild the boxes by design
        obs::arm_metrics();
        let exec = Executor::new();
        let cfg = Config::builder().n_threads(2).n_tiles(16).build();
        let a = lcg_matrix(80, 80, 5, 21);
        let mut plan = exec.plan::<PlusTimes>(&a, &a, &a, &cfg).unwrap();
        let (want, stats) = plan.execute(&a, &a, &a).unwrap();
        let first = cell_boxes(&plan);
        let ran = stats.thread_reports.iter().filter(|r| r.tiles_run > 0).count();
        assert_eq!(first.len(), 2, "one cell per worker index");
        let built = first.iter().flatten().count();
        assert_eq!(built, ran, "one accumulator per worker that ran a tile");

        // another plan runs on the same executor in between
        let b = lcg_matrix(80, 80, 3, 22);
        exec.plan::<PlusTimes>(&b, &b, &b, &cfg).unwrap().execute(&b, &b, &b).unwrap();
        let (got, _) = plan.execute(&a, &a, &a).unwrap();
        assert_eq!(got, want);
        let second = cell_boxes(&plan);
        for (w, (x, y)) in first.iter().zip(&second).enumerate() {
            if x.is_some() {
                assert_eq!(x, y, "worker {w} reuses its accumulator box");
            }
        }
    }

    #[test]
    fn lock_cell_rebuilds_a_poisoned_cell() {
        let cell: AccCell = Mutex::new(Some(Box::new(7u64)));
        let held = cell.lock();
        assert!(lock_cell(&cell).is_none(), "a held cell is not waited for");
        drop(held);
        let unwound = mspgemm_sched::catch_tile_panic(|| {
            let _held = cell.lock();
            panic!("tile died mid-update");
        });
        assert!(unwound.is_err() && cell.is_poisoned());
        let mut guard = lock_cell(&cell).unwrap();
        assert!(guard.is_none(), "the poisoned accumulator is dropped");
        assert_eq!(cached(&mut guard, || 9u64).copied(), Some(9), "and rebuilt from clean");
        drop(guard);
        assert!(!cell.is_poisoned());
    }

    #[test]
    fn cached_rebuilds_on_a_type_change() {
        let builds = std::cell::Cell::new(0);
        let unmetered = || {
            builds.set(builds.get() + 1);
            HashAccumulator::<PlusTimes, u32, false>::with_row_capacity_slack(8, 2)
        };
        let metered = || {
            builds.set(builds.get() + 1);
            HashAccumulator::<PlusTimes, u32, true>::with_row_capacity_slack(8, 2)
        };
        let mut slot: Option<Box<dyn Any + Send>> = None;
        assert!(cached(&mut slot, unmetered).is_some());
        assert!(cached(&mut slot, unmetered).is_some());
        assert_eq!(builds.get(), 1, "the same type reuses the cached value");
        assert!(cached(&mut slot, metered).is_some());
        assert_eq!(builds.get(), 2, "the METER flip rebuilds");
        assert!(slot.as_ref().is_some_and(|b| b.is::<HashAccumulator<PlusTimes, u32, true>>()));
    }
}
