//! The masked-SpGEMM entry points for plain products: one product
//! ([`spgemm`], [`crate::Executor::execute`], [`crate::plan::Plan`]) and
//! a coalesced batch of products (the concurrent [`crate::Service`]).
//!
//! Pipeline per product (all passes are `O(nnz)` or better):
//!
//! 1. the symbolic phase — shape validation, Eq. 2 work estimation, tiling
//!    and slot layout — captured in a `PlanCore` (built per call by
//!    [`spgemm`], built *once* by [`crate::Executor::plan`] and reused
//!    across calls);
//! 2. the parallel phase on the executor's persistent worker pool
//!    ([`mspgemm_sched::WorkerPool`]): every tile claims its slot window
//!    and the kernels write its rows straight into it;
//! 3. the settle: degraded retry of any lost tile, then compaction into
//!    the output CSR.
//!
//! # One engine, three callers
//!
//! Steps 2 and 3 are the tile-run engine (`crate::engine`), shared by
//! three entry points that differ only in how they claim tiles:
//!
//! * a single product runs its tiles under the configured
//!   [`Schedule`](mspgemm_sched::Schedule); each worker's accumulator lives
//!   in its cross-run [`mspgemm_sched::WorkerScratch`], keyed by plan
//!   identity, so it persists across every tile the worker claims — and,
//!   under a reused plan, across every *run*;
//! * a Service batch interleaves the tiles of many products into one pool
//!   synchronisation (`WorkerPool::run_tiles_multi`); workers switch jobs
//!   tile by tile, so accumulators are cached per job and per worker in
//!   the plan's scratch instead;
//! * a [`crate::PlanGraph`] runs every node of a chain per tile
//!   (`crate::graph`).
//!
//! All three use the same slot layout, accumulator dispatch, row loop,
//! recovery and compaction.
//!
//! # Output assembly
//!
//! The mask's hard bound `nnz(C[i,:]) ≤ nnz(M[i,:])` sizes the output
//! `cols`/`vals` buffers at `nnz(M)` once; each tile claims its disjoint
//! slot range through [`mspgemm_sched::DisjointSlots`] and the kernels
//! write rows straight into their slots (zero steady-state allocation). A
//! compaction pass then squeezes out the per-row slack and builds the
//! final `row_ptr` — and when there is no slack the slot buffers *are*
//! the output, with nothing copied at all. Under a reused plan the slot
//! buffers survive across runs in the plan's `PlanScratch`, resized
//! without clearing.
//!
//! # Fault tolerance
//!
//! Tile execution is panic-isolated (see `mspgemm_sched`): a kernel that
//! unwinds loses only its own tile, and the engine retries each lost tile
//! **once, serially, with the conservative configuration** — the vanilla
//! saxpy kernel over a dense `u64`-marker accumulator — before giving up.
//! All kernels accumulate each output row's products in the same `k`
//! order, so a successful retry is bit-identical to what the original
//! configuration would have produced. Only if the degraded retry *also*
//! fails does the call surface [`SparseError::TileFailed`], naming the
//! tile and its row range; internal invariant breaks surface as
//! [`SparseError::Internal`]. A panic that escapes tile isolation inside
//! the pool infrastructure poisons the executor —
//! [`SparseError::ExecutorPoisoned`] — but never the process. Either way
//! [`RunStats::retried_tiles`] / [`RunStats::failed_tiles`] make any
//! degradation observable.

use crate::engine::{
    compact, dispatch, hash_slack, pool_error, recover, tile_outcome, AccVisitor, NoPost,
    RetryStats, RowKernel, SlotBufs, TileAcc, TileLedger, TileSlots, TileWindow,
};
use crate::executor::{Executor, ExecutorShared};
use crate::plan::{PlanCore, PlanScratch};
use crate::config::Config;
use mspgemm_accum::{Accumulator, DenseAccumulator};
use mspgemm_rt::{failpoint, obs};
use mspgemm_sched::{
    CancelToken, MultiOutcome, MultiRun, PoolRunError, ThreadReport, TileFailure, WorkerPool,
    WorkerScratch,
};
use mspgemm_sparse::{Csr, Idx, Semiring, SparseError};
use std::any::Any;
use std::sync::{Mutex, MutexGuard};
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
    /// failed). Previously this window was silently folded into
    /// [`elapsed`](Self::elapsed), so a run that recovered from faults
    /// looked slower than the configuration it was measuring.
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

/// One prepared product: its frozen plan core and its operands.
struct Product<'r, S: Semiring> {
    core: &'r PlanCore,
    a: &'r Csr<S::T>,
    b: &'r Csr<S::T>,
    mask: &'r Csr<S::T>,
}

impl<S: Semiring> Clone for Product<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: Semiring> Copy for Product<'_, S> {}

impl<'r, S: Semiring> Product<'r, S> {
    /// Run `v` over this product's accumulator type.
    fn dispatch<V: AccVisitor<S>>(&self, v: V) -> V::Out {
        let core = self.core;
        dispatch::<S, V>(
            core.config.kernel.accumulator,
            core.simd_probe,
            self.b.ncols(),
            core.max_row_entries,
            v,
        )
    }

    /// Adopt the plan's surviving slot buffers (or start fresh) and size
    /// them for this product.
    fn slot_bufs(&self, scratch: Option<&mut SlotBufs<S::T>>) -> SlotBufs<S::T> {
        let mut bufs = scratch.map(std::mem::take).unwrap_or_default();
        bufs.resize(self.core.layout.bound, self.a.nrows(), S::zero());
        bufs
    }

    /// One tile of the parallel phase, into its claimed window.
    fn compute<A: Accumulator<S>>(
        &self,
        w: &mut TileWindow<'_, S::T>,
        ta: &mut TileAcc<S, A>,
        make_full: &impl Fn() -> A,
    ) -> u64 {
        let core = self.core;
        let k = RowKernel {
            iteration: core.config.kernel.iteration,
            simd: core.simd,
            overbook_limit: core.overbook_row_entries,
        };
        crate::engine::compute_tile(w, k, self.a, self.b, self.mask, &mut NoPost, ta, make_full)
    }

    /// Recover lost tiles, then compact — the settle every product runs.
    fn settle(
        &self,
        ledger: TileLedger,
        failures: &[TileFailure],
        cancel: Option<&CancelToken>,
        mut bufs: SlotBufs<S::T>,
        par: Option<(&WorkerPool, usize)>,
        scratch: Option<&mut SlotBufs<S::T>>,
    ) -> Result<(Csr<S::T>, RetryStats), SparseError> {
        let (core, ncols) = (self.core, self.b.ncols());
        let retry = recover(&core.tiles, ledger, failures, cancel, |t| {
            let mut ta = TileAcc::new(DenseAccumulator::<S, u64>::new(ncols));
            let mut w = core.layout.window(&core.tiles, t, &mut bufs);
            crate::engine::compute_tile(
                &mut w,
                RowKernel::RETRY,
                self.a,
                self.b,
                self.mask,
                &mut NoPost,
                &mut ta,
                &|| DenseAccumulator::<S, u64>::new(ncols),
            );
        })?;
        let shape = (self.a.nrows(), ncols);
        let c = compact::<S>(&core.tiles, &core.layout, shape, bufs, par, scratch)?;
        Ok((c, retry))
    }

    /// `(estimated_work, n_tiles, n_threads)` for [`RunStats::new`].
    fn work(&self, n_threads: usize) -> (u64, usize, usize) {
        (self.core.estimated_work, self.core.tiles.len(), n_threads)
    }
}

/// Execute a prepared plan core on an executor: the single-product path
/// behind [`spgemm`], [`crate::Executor::execute`] and
/// [`crate::plan::Plan::execute`]. Holds the executor's run lock for the
/// whole run so per-run metric deltas never interleave.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_plan<S: Semiring>(
    exec: &ExecutorShared,
    core: &PlanCore,
    scratch: Option<&mut PlanScratch<S>>,
    cancel: Option<&CancelToken>,
    a: &Csr<S::T>,
    b: &Csr<S::T>,
    mask: &Csr<S::T>,
    setup: Duration,
) -> Result<(Csr<S::T>, RunStats), SparseError> {
    let _run = exec.run_lock.lock().unwrap_or_else(|e| e.into_inner());
    let before = obs::armed().then(obs::snapshot);
    obs::incr(obs::Counter::DriverRuns);

    let start = Instant::now();
    note_overbook_savings::<S>(core);
    let job = Product::<S> { core, a, b, mask };
    let mut scratch = scratch.map(|s| &mut s.slots);
    let mut bufs = job.slot_bufs(scratch.as_deref_mut());
    let ledger = TileLedger::new(core.tiles.len());
    let outcome = {
        let slots = TileSlots::new(&mut bufs, &core.layout, &core.tiles, &core.row_ranges)?;
        job.dispatch(SingleRun { pool: &exec.pool, job, slots: &slots, ledger: &ledger, cancel })
    };
    let (reports, failures) = tile_outcome(outcome)?;
    let par = Some((&exec.pool, core.n_threads));
    let (c, retry) = job.settle(ledger, &failures, cancel, bufs, par, scratch)?;
    let metrics = before.map(|b| obs::snapshot().delta_since(&b));
    let stats = RunStats::new(
        start.elapsed(),
        setup,
        retry,
        reports,
        c.nnz(),
        job.work(core.n_threads),
        metrics,
    );
    Ok((c, stats))
}

/// The single-product parallel phase: the product's tiles under its
/// configured schedule, honouring `cancel`.
struct SingleRun<'r, S: Semiring> {
    pool: &'r WorkerPool,
    job: Product<'r, S>,
    slots: &'r TileSlots<'r, S::T>,
    ledger: &'r TileLedger,
    cancel: Option<&'r CancelToken>,
}

impl<S: Semiring> AccVisitor<S> for SingleRun<'_, S> {
    type Out = Result<Vec<ThreadReport>, PoolRunError>;

    fn visit<A, F>(self, make: F) -> Self::Out
    where
        A: Accumulator<S> + 'static,
        F: Fn(usize) -> A + Copy + Send + Sync + 'static,
    {
        let core = self.job.core;
        let (overbook, full) = (core.overbook_row_entries, core.max_row_entries);
        let n_tiles = core.tiles.len();
        self.pool.run_tiles_cancellable(
            core.n_threads,
            n_tiles,
            core.config.schedule,
            self.cancel,
            |_, ws, t| {
                failpoint::maybe_fire(failpoint::TILE_KERNEL, t as u64);
                if ws.current_tile_abandoned() {
                    // the watchdog already handed this tile to the degraded
                    // serial path; leave it uncompleted and let settle own it
                    return;
                }
                let Some(mut w) = self.slots.claim(t, self.ledger) else { return };
                // worker-persistent accumulators, keyed by plan identity:
                // they survive every tile this worker claims *and* — under
                // a reused plan — every run of the plan. The table is sized
                // at the plan's overbooked bound; spill rebuilds use the
                // hard bound.
                let ta = ws.get_or_build(core.plan_id, || TileAcc::new(make(overbook)));
                let spills = self.job.compute(&mut w, ta, &|| make(full));
                self.ledger.finish(ws, t, spills);
            },
        )
    }
}

/// One prepared product inside a [`run_plan_batch`] call: a plan core,
/// its operands and cross-run scratch, plus the fairness weight the
/// multiplexed tile interleave gives this job.
pub(crate) struct BatchJob<'r, S: Semiring> {
    pub(crate) core: &'r PlanCore,
    pub(crate) a: &'r Csr<S::T>,
    pub(crate) b: &'r Csr<S::T>,
    pub(crate) mask: &'r Csr<S::T>,
    pub(crate) scratch: Option<&'r mut PlanScratch<S>>,
    /// Tiles this job contributes per round of the interleaved claim
    /// order (see [`mspgemm_sched::MultiRun::weight`]).
    pub(crate) weight: u32,
    /// Symbolic-phase wall time attributed to this job (plan lookup /
    /// preparation on the submitter side), reported in its `RunStats`.
    pub(crate) setup: Duration,
    /// Cooperative cancellation for this job alone: when the token fires
    /// (client cancel or enforced deadline) the claim loop stops issuing
    /// this job's tiles and the settle reports
    /// [`SparseError::Cancelled`] / [`SparseError::DeadlineExceeded`]
    /// instead of finishing the product. Sibling jobs are untouched.
    pub(crate) cancel: Option<&'r CancelToken>,
}

impl<'r, S: Semiring> BatchJob<'r, S> {
    fn product(&self) -> Product<'r, S> {
        Product { core: self.core, a: self.a, b: self.b, mask: self.mask }
    }
}

/// Per-worker accumulator cells of one batch job (see [`BatchBody`]).
type AccCells = Vec<Mutex<Option<Box<dyn Any + Send>>>>;

/// One job's type-erased tile body for the multiplexed run. Unlike the
/// single-product path, the accumulator cannot live in the worker's
/// [`WorkerScratch`] — that cache has exactly one slot, and workers
/// interleave tiles from *different* jobs, so parking per-job state there
/// would rebuild it on every job switch. Each job instead reads a
/// per-worker accumulator cell from its plan scratch
/// (`PlanScratch::accums`), built lazily on the worker's first tile of
/// this job and *persisted across runs* of the leased plan. A stale or
/// poisoned cell is rebuilt from clean (see [`lock_cell`]).
struct BatchBody<'x, S: Semiring> {
    job: Product<'x, S>,
    slots: &'x TileSlots<'x, S::T>,
    ledger: &'x TileLedger,
    accs: &'x [Mutex<Option<Box<dyn Any + Send>>>],
}

impl<'x, S: Semiring> AccVisitor<S> for BatchBody<'x, S> {
    type Out = Box<dyn Fn(usize, &mut WorkerScratch, usize) + Sync + 'x>;

    fn visit<A, F>(self, make: F) -> Self::Out
    where
        A: Accumulator<S> + 'static,
        F: Fn(usize) -> A + Copy + Send + Sync + 'static,
    {
        let core = self.job.core;
        let (overbook, full) = (core.overbook_row_entries, core.max_row_entries);
        Box::new(move |worker, ws, t| {
            failpoint::maybe_fire(failpoint::TILE_KERNEL, t as u64);
            if ws.current_tile_abandoned() {
                return;
            }
            let Some(mut w) = self.slots.claim(t, self.ledger) else { return };
            let mut cell = lock_cell(&self.accs[worker % self.accs.len()]);
            // `None` is unreachable (the cell was just filled); bailing
            // leaves the tile uncompleted, which the settle repairs
            let Some(ta) = cached(&mut cell, || TileAcc::new(make(overbook))) else { return };
            let spills = self.job.compute(&mut w, ta, &|| make(full));
            self.ledger.finish(ws, t, spills);
        })
    }
}

/// Borrow the accumulator cached in a per-job cell (the batch path's
/// analogue of `WorkerScratch::get_or_build`), rebuilding it when the
/// cell is empty, holds a stale type, or was poisoned by a tile that
/// panicked mid-update.
fn lock_cell(
    cell: &Mutex<Option<Box<dyn Any + Send>>>,
) -> MutexGuard<'_, Option<Box<dyn Any + Send>>> {
    cell.lock().unwrap_or_else(|poisoned| {
        cell.clear_poison();
        let mut guard = poisoned.into_inner();
        *guard = None;
        guard
    })
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

/// Execute a *batch* of prepared products in one run-lock window, with
/// every job's tiles multiplexed onto a single pool synchronisation
/// ([`mspgemm_sched::WorkerPool::run_tiles_multi`]) — the coalescing path
/// the concurrent service uses for many small masked products. Results
/// come back in submission order, each job settling from its own failure
/// accounting so one tenant's tile panics never fail a sibling's product.
/// Compaction is serial per job: the batch path exists for many *small*
/// products.
///
/// Per-job `RunStats` caveats, by construction of the shared run:
/// `thread_reports` are the whole batch's (workers interleave jobs, so
/// busy time is not attributable per job), `elapsed` is the shared
/// parallel window plus the job's own serial settle, and `metrics` is
/// `None` (process-global counter deltas cannot be split across
/// multiplexed jobs).
pub(crate) fn run_plan_batch<S: Semiring>(
    exec: &ExecutorShared,
    mut jobs: Vec<BatchJob<'_, S>>,
) -> Vec<Result<(Csr<S::T>, RunStats), SparseError>> {
    let _run = exec.run_lock.lock().unwrap_or_else(|e| e.into_inner());
    let n_threads = jobs.iter().map(|j| j.core.n_threads).max().unwrap_or(1).max(1);
    // slot buffers and accumulator cells are leased from each job's plan
    // scratch so a cached plan re-executes without rebuilding them
    let mut bufs = Vec::with_capacity(jobs.len());
    let mut cells: Vec<AccCells> = Vec::with_capacity(jobs.len());
    for job in &mut jobs {
        obs::incr(obs::Counter::DriverRuns);
        note_overbook_savings::<S>(job.core);
        let product = job.product();
        let scratch = job.scratch.as_deref_mut();
        let (slots, mut grid) = match scratch {
            Some(s) => (product.slot_bufs(Some(&mut s.slots)), std::mem::take(&mut s.accums)),
            None => (product.slot_bufs(None), Vec::new()),
        };
        if grid.len() < n_threads {
            grid.resize_with(n_threads, || Mutex::new(None));
        }
        bufs.push(slots);
        cells.push(grid);
    }
    let ledgers: Vec<TileLedger> =
        jobs.iter().map(|j| TileLedger::new(j.core.tiles.len())).collect();

    let par_start = Instant::now();
    let outcome = multiplex(&exec.pool, &jobs, &mut bufs, &ledgers, &cells, n_threads);
    let par_elapsed = par_start.elapsed();

    let results = match outcome {
        Err(e) => jobs.iter().map(|_| Err(e.clone())).collect(),
        Ok(out) => jobs
            .iter_mut()
            .zip(bufs)
            .zip(ledgers)
            .zip(&out.failures)
            .map(|(((job, bufs), ledger), failures)| {
                let settle_start = Instant::now();
                let product = job.product();
                let scratch = job.scratch.as_deref_mut().map(|s| &mut s.slots);
                let (c, retry) =
                    product.settle(ledger, failures, job.cancel, bufs, None, scratch)?;
                let stats = RunStats::new(
                    par_elapsed + settle_start.elapsed(),
                    job.setup,
                    retry,
                    out.reports.clone(),
                    c.nnz(),
                    product.work(n_threads),
                    None,
                );
                Ok((c, stats))
            })
            .collect(),
    };
    // hand the accumulator cells back on every outcome path: a failed
    // batch must not cost the cached plan its accumulators
    for (job, grid) in jobs.iter_mut().zip(cells) {
        if let Some(s) = job.scratch.as_deref_mut() {
            s.accums = grid;
        }
    }
    results
}

/// The batch's parallel phase: every job's tile body, interleaved into one
/// `run_tiles_multi` claim order.
fn multiplex<S: Semiring>(
    pool: &WorkerPool,
    jobs: &[BatchJob<'_, S>],
    bufs: &mut [SlotBufs<S::T>],
    ledgers: &[TileLedger],
    cells: &[AccCells],
    n_threads: usize,
) -> Result<MultiOutcome, SparseError> {
    let slots = jobs
        .iter()
        .zip(bufs.iter_mut())
        .map(|(j, b)| TileSlots::new(b, &j.core.layout, &j.core.tiles, &j.core.row_ranges))
        .collect::<Result<Vec<_>, _>>()?;
    let bodies: Vec<_> = jobs
        .iter()
        .zip(&slots)
        .zip(ledgers)
        .zip(cells)
        .map(|(((job, slots), ledger), accs)| {
            let product = job.product();
            product.dispatch(BatchBody { job: product, slots, ledger, accs })
        })
        .collect();
    let runs: Vec<MultiRun<'_>> = jobs
        .iter()
        .zip(&bodies)
        .map(|(job, body)| MultiRun {
            n_tiles: job.core.tiles.len(),
            weight: job.weight,
            cancel: job.cancel,
            body: body.as_ref(),
        })
        .collect();
    pool.run_tiles_multi(n_threads, &runs).map_err(pool_error)
}

/// Record the scratch memory overbooking saved, as a per-run estimate:
/// the power-of-two table shrink times one entry (32-bit key + value +
/// the common 32-bit mark) times the worker count. A no-op unless the
/// plan actually overbooked below the hard bound.
fn note_overbook_savings<S: Semiring>(core: &PlanCore) {
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
    use mspgemm_accum::AccumulatorKind;
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
}
