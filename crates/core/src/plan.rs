//! Reusable symbolic plans: the prologue of a masked-SpGEMM call, captured
//! once and revalidated cheaply.
//!
//! Every call to the driver pays a *symbolic* phase before any arithmetic
//! happens: resolve the [`Config`], estimate per-row work with Eq. 2, cut
//! the rows into tiles, and lay out the mask-bound output slots. None of that depends on the matrices' *values* — only on
//! their sparsity structure. A [`Plan`] freezes the symbolic phase so an
//! iterated workload pays it once:
//!
//! * `PlanCore` holds the frozen artifacts (tiles, slot layout, work
//!   estimates, accumulator sizing bound);
//! * a structural `Fingerprint` of the operands guards re-execution —
//!   [`Plan::execute`] revalidates it and fails with
//!   [`SparseError::PlanStructureMismatch`] (naming the drifted operand)
//!   instead of computing garbage;
//! * `PlanScratch` carries the output slot buffers across executions, so
//!   a planned run performs no slot allocation and no slot zeroing at all.
//!
//! # What the fingerprint covers
//!
//! Exactly the structure the frozen artifacts were computed *from* — no
//! more. The mask's row pointers are always pinned: the slot layout is a
//! prefix sum over them, and a drifted mask row would overflow its tile's
//! slot window. Everything else is tiered by iteration space:
//!
//! * mask-bounded kernels (mask-accumulate, co-iterate, hybrid) size their
//!   accumulators from the mask's row lengths and read `A` and `B` fresh
//!   at run time, so for those only the operand *shapes* are pinned — a
//!   structural drift in `A` or `B` can shift load balance but corrupt
//!   nothing, and revalidation touches `O(nrows)` of the mask only;
//! * the vanilla kernel sizes its accumulator from the Eq. 2 work
//!   estimate, which walks `A`'s column indices into `B`'s row lengths —
//!   an undersized hash table latches its overflow flag and forces a
//!   full-bound spill recompute of every affected row (correct but a
//!   performance cliff), so under vanilla the fingerprint additionally
//!   pins `A`'s row pointers *and* columns and `B`'s row pointers.
//!
//! Column indices of `B` and `M` are never hashed: they feed no
//! precomputed bound. The practical upshot is that revalidation — the
//! reuse tax paid by every [`Plan::execute`] — stays far cheaper than the
//! prologue it replaces, and benign drift is tolerated instead of forcing
//! a rebuild.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::config::{Config, IterationSpace, Overbook, SimdMode};
use crate::driver::{run_plan, RunStats};
use crate::engine::{SlotBufs, SlotLayout};
use crate::executor::ExecutorShared;
use mspgemm_accum::AccumulatorKind;
use mspgemm_rt::obs;
use mspgemm_sched::{
    catch_tile_panic,
    tile::tiles_for,
    work::{row_work, total_work},
    CancelToken, Tile,
};
use mspgemm_sparse::{Csr, Semiring, SparseError};

/// Monotonic plan identities; nonzero so a fresh id never collides with a
/// worker's default scratch key.
static NEXT_PLAN_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh plan identity from the same sequence ordinary plans
/// use, so a [`crate::graph::PlanGraph`]'s worker-scratch key can never
/// collide with a single-product plan's.
pub(crate) fn next_plan_id() -> u64 {
    NEXT_PLAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// The frozen symbolic phase of one masked-SpGEMM shape.
pub(crate) struct PlanCore {
    /// The configuration, as given (resolution results cached below).
    pub(crate) config: Config,
    /// `config.resolved_threads()` at plan time.
    pub(crate) n_threads: usize,
    /// Row tiles (uniform or FLOP-balanced over the Eq. 2 estimates).
    pub(crate) tiles: Vec<Tile>,
    /// Per-tile `[lo, hi)` row windows (mirrors `tiles`, in tuple form
    /// for `DisjointSlots`).
    pub(crate) row_ranges: Vec<(usize, usize)>,
    /// The mask-bound output slot layout over `tiles`.
    pub(crate) layout: SlotLayout,
    /// Total Eq. 2 work estimate.
    pub(crate) estimated_work: u64,
    /// Accumulator sizing bound (see the driver's prologue docs).
    pub(crate) max_row_entries: usize,
    /// Overbooked accumulator sizing: the configured quantile of the same
    /// per-row bounds `max_row_entries` is the max of (equal to it when
    /// overbooking is off or inapplicable). Worker-persistent hash scratch
    /// allocates at this size; a row whose bound exceeds it may overflow
    /// and is then recomputed at `max_row_entries` (the spill path).
    pub(crate) overbook_row_entries: usize,
    /// Whether the SIMD co-iteration search is in effect for this plan
    /// (see [`resolve_simd`]).
    pub(crate) simd: bool,
    /// Whether the AVX2 group probe hash accumulator is in effect (see
    /// [`resolve_simd`]).
    pub(crate) simd_probe: bool,
    /// `(C.nrows, A.ncols = B.nrows, C.ncols)` the plan was built for.
    pub(crate) shape: (usize, usize, usize),
    /// Unique identity; keys the workers' cross-run accumulator scratch.
    pub(crate) plan_id: u64,
}

/// Resolve the SIMD mode against the CPU, once per plan (or graph):
/// `(simd, simd_probe)`. The co-iteration search vectorises unless
/// `Scalar` is forced. The AVX2 group probe of the hash accumulator stays
/// off under `Auto`: slack-sized tables (see `engine::hash_slack`) keep
/// probe chains within the scalar fast path, so the group probe's setup
/// cost never pays for itself there. Only `Force` (plus CPU support)
/// turns it on.
pub(crate) fn resolve_simd(mode: SimdMode) -> (bool, bool) {
    let avx = crate::simd::simd_available();
    match mode {
        SimdMode::Scalar => (false, false),
        SimdMode::Force => (avx, avx),
        SimdMode::Auto => (avx, false),
    }
}

/// Run the symbolic phase: shape checks, Eq. 2 estimation, tiling, slot
/// layout. This is the exact prologue the one-shot driver historically
/// performed per call, panic-contained the same way.
pub(crate) fn prepare<T: Copy + Sync>(
    config: &Config,
    a: &Csr<T>,
    b: &Csr<T>,
    mask: &Csr<T>,
) -> Result<PlanCore, SparseError> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::ShapeMismatch {
            expected: (a.ncols(), b.ncols()),
            found: (b.nrows(), b.ncols()),
            context: "masked_spgemm: A×B inner dimension",
        });
    }
    if mask.nrows() != a.nrows() || mask.ncols() != b.ncols() {
        return Err(SparseError::ShapeMismatch {
            expected: (a.nrows(), b.ncols()),
            found: (mask.nrows(), mask.ncols()),
            context: "masked_spgemm: mask shape",
        });
    }

    let n_threads = config.resolved_threads();
    let n_tiles = config.resolved_tiles(a.nrows());
    let config = *config;
    // The estimation/tiling prologue runs in the calling thread; contain
    // it so a pathological input (or the `work-estimate` failpoint) cannot
    // abort the process.
    let prologue = catch_tile_panic(|| {
        let work = row_work(a, b, mask);
        let estimated_work = total_work(&work);
        let tiles = tiles_for(config.tiling, a.nrows(), &work, n_tiles);
        // Hash-accumulator sizing (§III-C): mask-preload kernels can hold
        // at most max_i nnz(M[i,:]) entries; the vanilla kernel must hold
        // every distinct intermediate column, bounded by Σ nnz(B[k,:])
        // (= W[i] minus the mask term, saturating) and by ncols.
        let row_bound = |i: usize| match config.kernel.iteration {
            IterationSpace::Vanilla => {
                (work[i].saturating_sub(mask.row_nnz(i) as u64) as usize).min(b.ncols())
            }
            _ => mask.row_nnz(i),
        };
        let max_row_entries = (0..a.nrows()).map(row_bound).max().unwrap_or(1);
        // Overbooked sizing (Tailors): take the configured quantile of the
        // *same* per-row bounds instead of their max. Only the hash family
        // can detect and recover from overflow, so everything else keeps
        // the hard bound.
        let overbook_row_entries = match (config.kernel.overbook, config.kernel.accumulator) {
            (Overbook::Quantile { q }, AccumulatorKind::Hash(_)) if a.nrows() > 0 => {
                let mut bounds: Vec<usize> = (0..a.nrows()).map(row_bound).collect();
                bounds.sort_unstable();
                // nearest-rank quantile, clamped to [1, max]
                let rank = ((q.clamp(0.0, 1.0) * bounds.len() as f64).ceil() as usize)
                    .clamp(1, bounds.len());
                bounds[rank - 1].clamp(1, max_row_entries.max(1))
            }
            _ => max_row_entries,
        };
        let layout = SlotLayout::new(&tiles, mask);
        (estimated_work, tiles, max_row_entries, overbook_row_entries, layout)
    });
    let (estimated_work, tiles, max_row_entries, overbook_row_entries, layout) = match prologue {
        Ok(v) => v,
        Err(msg) => {
            return Err(SparseError::Internal { detail: format!("work estimation: {msg}") })
        }
    };
    let (simd, simd_probe) = resolve_simd(config.kernel.simd);
    Ok(PlanCore {
        config,
        n_threads,
        row_ranges: tiles.iter().map(|t| (t.lo, t.hi)).collect(),
        tiles,
        layout,
        estimated_work,
        max_row_entries,
        overbook_row_entries,
        simd,
        simd_probe,
        shape: (a.nrows(), a.ncols(), b.ncols()),
        plan_id: next_plan_id(),
    })
}

/// Structural fingerprint of the `(A, B, M)` operand triple. Hashable so
/// the service layer can key its plan cache on it (equality is still
/// checked on every cache hit — the hash is a lookup accelerator, not the
/// validity proof).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Fingerprint {
    pub(crate) a: u64,
    pub(crate) b: u64,
    pub(crate) mask: u64,
}

/// FNV-style sequential fold with a strong finalizer — not cryptographic,
/// just a cheap structure digest with good avalanche on single-entry
/// edits (the mutation-detection property the plan-reuse suite checks).
pub(crate) fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Four independent FNV lanes over a slice, round-robin by position. The
/// fold's multiply chain is latency-bound, and this hash runs on every
/// planned execution (it *is* the reuse tax), so breaking the chain into
/// four pipelined lanes matters: it roughly quadruples digest throughput
/// while staying position-sensitive within each lane.
fn fold_lanes<T: Copy>(mut lanes: [u64; 4], xs: &[T], to64: impl Fn(T) -> u64) -> [u64; 4] {
    let mut chunks = xs.chunks_exact(4);
    for c in chunks.by_ref() {
        lanes[0] = fold(lanes[0], to64(c[0]));
        lanes[1] = fold(lanes[1], to64(c[1]));
        lanes[2] = fold(lanes[2], to64(c[2]));
        lanes[3] = fold(lanes[3], to64(c[3]));
    }
    for (j, &x) in chunks.remainder().iter().enumerate() {
        lanes[j] = fold(lanes[j], to64(x));
    }
    lanes
}

/// splitmix64 finalizer.
pub(crate) fn finish(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// How much of one operand's structure a plan froze — and hence how much
/// the fingerprint must pin (see the module docs, "What the fingerprint
/// covers").
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Pin {
    /// Shape only: the structure is read fresh at run time and feeds no
    /// precomputed bound. Drift shifts load balance, nothing else. `O(1)`.
    Dims,
    /// Shape + row pointers: row lengths feed a frozen sizing decision.
    Rows,
    /// Shape + row pointers + column indices (vanilla `A`: Eq. 2 walks
    /// the columns, and the estimate sizes the hash accumulator).
    RowsAndCols,
}

pub(crate) fn structure_hash<T: Copy>(m: &Csr<T>, pin: Pin) -> u64 {
    let mut lanes = [
        0xcbf2_9ce4_8422_2325u64,
        0x9e37_79b9_7f4a_7c15,
        0xc2b2_ae3d_27d4_eb4f,
        0x1656_67b1_9e37_79f9,
    ];
    lanes[0] = fold(lanes[0], m.nrows() as u64);
    lanes[0] = fold(lanes[0], m.ncols() as u64);
    if pin >= Pin::Rows {
        lanes = fold_lanes(lanes, m.row_ptr(), |p| p as u64);
    }
    if pin == Pin::RowsAndCols {
        lanes = fold_lanes(lanes, m.col_idx(), |c| c as u64);
    }
    finish(fold(fold(fold(lanes[0], lanes[1]), lanes[2]), lanes[3]))
}

/// The pin levels for `(A, B, M)` under `config`. The mask's row pointers
/// are always load-bearing (slot layout); `A` and `B` matter beyond their
/// shape only when the vanilla kernel's Eq. 2-derived accumulator bound
/// froze them into the plan.
pub(crate) fn operand_pins(config: &Config) -> (Pin, Pin, Pin) {
    match config.kernel.iteration {
        IterationSpace::Vanilla => (Pin::RowsAndCols, Pin::Rows, Pin::Rows),
        _ => (Pin::Dims, Pin::Dims, Pin::Rows),
    }
}

pub(crate) fn fingerprint<T: Copy>(
    a: &Csr<T>,
    b: &Csr<T>,
    mask: &Csr<T>,
    config: &Config,
) -> Fingerprint {
    let (pin_a, pin_b, pin_m) = operand_pins(config);
    Fingerprint {
        a: structure_hash(a, pin_a),
        b: structure_hash(b, pin_b),
        mask: structure_hash(mask, pin_m),
    }
}

/// Cross-execution value scratch: the slot buffers (see
/// [`SlotBufs`]). Re-executing a plan `mem::take`s them, resizes *without
/// clearing*, and gets them back from the compaction step — so the steady
/// state allocates nothing and memsets nothing.
///
/// `accums` is the batch-path analogue of the worker-persistent
/// [`WorkerScratch`](mspgemm_sched::WorkerScratch) slot: one type-erased
/// accumulator cell per worker, owned by the *plan* rather than the
/// worker because multiplexed runs interleave tiles of many jobs on each
/// worker (a single worker-owned slot would thrash on every job switch).
/// The cells are `mem::take`n for the run and handed back after, so a
/// plan leased repeatedly from the service cache re-executes without
/// rebuilding its accumulators. Staleness is type-driven, exactly like
/// `WorkerScratch::get_or_build`: the tile body downcasts and rebuilds on
/// mismatch (e.g. arming metrics flips the accumulator's `METER` const
/// parameter and with it the `TypeId`).
pub(crate) struct PlanScratch<S: Semiring> {
    pub(crate) slots: SlotBufs<S::T>,
    pub(crate) accums: Vec<std::sync::Mutex<Option<Box<dyn std::any::Any + Send>>>>,
}

impl<S: Semiring> Default for PlanScratch<S> {
    fn default() -> Self {
        PlanScratch { slots: SlotBufs::default(), accums: Vec::new() }
    }
}

/// A reusable execution plan for one masked-SpGEMM shape: the frozen
/// symbolic phase, a structural fingerprint guarding it, cross-run value
/// scratch, and a handle to the executor it runs on.
///
/// Built by [`Executor::plan`](crate::Executor::plan); re-executed with
/// [`execute`](Plan::execute). See [`crate::Session`] for the
/// plan-management loop (build lazily, rebuild on structure drift) done
/// for you.
pub struct Plan<S: Semiring> {
    core: PlanCore,
    fingerprint: Fingerprint,
    scratch: PlanScratch<S>,
    exec: Arc<ExecutorShared>,
}

impl<S: Semiring> Plan<S> {
    pub(crate) fn build(
        exec: Arc<ExecutorShared>,
        a: &Csr<S::T>,
        b: &Csr<S::T>,
        mask: &Csr<S::T>,
        config: &Config,
    ) -> Result<Self, SparseError> {
        let core = prepare(config, a, b, mask)?;
        let fingerprint = fingerprint(a, b, mask, config);
        obs::incr(obs::Counter::ExecPlanBuilds);
        Ok(Plan { core, fingerprint, scratch: PlanScratch::default(), exec })
    }

    /// The configuration the plan was built with.
    pub fn config(&self) -> &Config {
        &self.core.config
    }

    /// Total Eq. 2 FLOP estimate captured at plan time.
    pub fn estimated_work(&self) -> u64 {
        self.core.estimated_work
    }

    /// Number of row tiles the plan cut.
    pub fn n_tiles(&self) -> usize {
        self.core.tiles.len()
    }

    /// Worker threads the plan resolved to.
    pub fn n_threads(&self) -> usize {
        self.core.n_threads
    }

    /// Check that the operands still match the structure the plan was
    /// built from, without executing. Returns the
    /// [`SparseError::PlanStructureMismatch`] that [`execute`](Plan::execute)
    /// would surface, naming the drifted operand.
    pub fn validate(
        &self,
        a: &Csr<S::T>,
        b: &Csr<S::T>,
        mask: &Csr<S::T>,
    ) -> Result<(), SparseError> {
        let (nrows, inner, ncols) = self.core.shape;
        if a.nrows() != nrows
            || a.ncols() != inner
            || b.nrows() != inner
            || b.ncols() != ncols
            || mask.nrows() != nrows
            || mask.ncols() != ncols
        {
            return Err(SparseError::PlanStructureMismatch { operand: "shape" });
        }
        let (pin_a, pin_b, pin_m) = operand_pins(&self.core.config);
        if structure_hash(a, pin_a) != self.fingerprint.a {
            return Err(SparseError::PlanStructureMismatch { operand: "A" });
        }
        if structure_hash(b, pin_b) != self.fingerprint.b {
            return Err(SparseError::PlanStructureMismatch { operand: "B" });
        }
        if structure_hash(mask, pin_m) != self.fingerprint.mask {
            return Err(SparseError::PlanStructureMismatch { operand: "mask" });
        }
        Ok(())
    }

    /// Execute the plan against (new values of) the operands, skipping the
    /// symbolic prologue entirely. The operands are revalidated against
    /// the plan's fingerprint first; on structure drift this fails with
    /// [`SparseError::PlanStructureMismatch`] and computes nothing —
    /// rebuild the plan (or use a [`crate::Session`], which does so
    /// automatically).
    ///
    /// The result is bit-identical to a fresh one-shot call with the same
    /// configuration: all kernels fold each row's products in the same
    /// `k` order regardless of how scratch is reused.
    pub fn execute(
        &mut self,
        a: &Csr<S::T>,
        b: &Csr<S::T>,
        mask: &Csr<S::T>,
    ) -> Result<(Csr<S::T>, RunStats), SparseError> {
        self.run(a, b, mask, None)
    }

    /// [`execute`](Plan::execute) under a cooperative [`CancelToken`]: the
    /// claim loop stops issuing tiles once the token fires (another thread
    /// called [`CancelToken::cancel`], or the token's deadline passed) and
    /// the call returns [`SparseError::Cancelled`] /
    /// [`SparseError::DeadlineExceeded`], discarding the partial output.
    /// A run whose every tile finished before the cancel was observed
    /// still returns its (bit-identical) result. The plan itself stays
    /// valid either way — cancel a run, not the plan.
    pub fn execute_cancellable(
        &mut self,
        a: &Csr<S::T>,
        b: &Csr<S::T>,
        mask: &Csr<S::T>,
        cancel: &CancelToken,
    ) -> Result<(Csr<S::T>, RunStats), SparseError> {
        self.run(a, b, mask, Some(cancel))
    }

    fn run(
        &mut self,
        a: &Csr<S::T>,
        b: &Csr<S::T>,
        mask: &Csr<S::T>,
        cancel: Option<&CancelToken>,
    ) -> Result<(Csr<S::T>, RunStats), SparseError> {
        let setup_start = Instant::now();
        self.validate(a, b, mask)?;
        let setup = setup_start.elapsed();
        obs::incr(obs::Counter::ExecPlanExecutes);
        run_plan::<S>(&self.exec, &self.core, Some(&mut self.scratch), cancel, a, b, mask, setup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspgemm_sparse::Idx;

    #[test]
    fn fingerprint_is_structure_only() {
        let m1 = Csr::try_from_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0f64, 2.0])
            .unwrap();
        let m2 = Csr::try_from_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![9.0f64, 8.0])
            .unwrap();
        let cfg = Config::default();
        assert_eq!(
            fingerprint(&m1, &m1, &m1, &cfg),
            fingerprint(&m2, &m2, &m2, &cfg),
            "values must not affect the fingerprint"
        );
    }

    #[test]
    fn fingerprint_detects_single_entry_structure_drift() {
        let m = Csr::try_from_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0f64, 2.0])
            .unwrap();
        let grown =
            Csr::try_from_parts(2, 2, vec![0, 2, 3], vec![0, 1, 0], vec![1.0f64, 1.0, 2.0])
                .unwrap();
        assert_ne!(structure_hash(&m, Pin::Rows), structure_hash(&grown, Pin::Rows));
        assert_ne!(
            structure_hash(&m, Pin::RowsAndCols),
            structure_hash(&grown, Pin::RowsAndCols)
        );
    }

    #[test]
    fn pins_cover_exactly_what_sizing_depends_on() {
        // same row pointers, different column indices
        let x = Csr::try_from_parts(2, 3, vec![0, 1, 2], vec![0, 1], vec![1.0f64; 2]).unwrap();
        let y = Csr::try_from_parts(2, 3, vec![0, 1, 2], vec![2, 0], vec![1.0f64; 2]).unwrap();
        assert_ne!(
            structure_hash(&x, Pin::RowsAndCols),
            structure_hash(&y, Pin::RowsAndCols),
            "col_idx must be covered at the top tier (vanilla sizing depends on it)"
        );
        assert_eq!(
            structure_hash(&x, Pin::Rows),
            structure_hash(&y, Pin::Rows),
            "below the top tier, col_idx is skipped — it feeds no precomputed bound"
        );
        // same shape, different row pointers
        let z = Csr::try_from_parts(2, 3, vec![0, 2, 2], vec![0, 1], vec![1.0f64; 2]).unwrap();
        assert_ne!(structure_hash(&x, Pin::Rows), structure_hash(&z, Pin::Rows));
        assert_eq!(
            structure_hash(&x, Pin::Dims),
            structure_hash(&z, Pin::Dims),
            "dims-only pin ignores row pointers — drift there only shifts balance"
        );

        let vanilla = Config::builder()
            .kernel_policy(crate::config::KernelPolicy::new().iteration(IterationSpace::Vanilla))
            .build();
        assert_eq!(
            operand_pins(&vanilla),
            (Pin::RowsAndCols, Pin::Rows, Pin::Rows),
            "vanilla sizes from Eq. 2 row work: A cols and B row lengths are frozen"
        );
        assert_eq!(
            operand_pins(&Config::default()),
            (Pin::Dims, Pin::Dims, Pin::Rows),
            "mask-bounded kernels read A and B fresh; the mask slot layout stays pinned"
        );
    }

    #[test]
    fn plan_ids_are_unique_and_nonzero() {
        let cfg = Config::default();
        let m = Csr::try_from_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0f64; 2]).unwrap();
        let p1 = prepare(&cfg, &m, &m, &m).unwrap();
        let p2 = prepare(&cfg, &m, &m, &m).unwrap();
        assert_ne!(p1.plan_id, 0);
        assert_ne!(p1.plan_id, p2.plan_id);
    }

    #[test]
    fn prepare_rejects_shape_mismatches() {
        let cfg = Config::default();
        let a = Csr::<f64>::zeros(3, 4);
        let b = Csr::<f64>::zeros(5, 3); // inner 4 != 5
        let m = Csr::<f64>::zeros(3, 3);
        assert!(matches!(
            prepare(&cfg, &a, &b, &m),
            Err(SparseError::ShapeMismatch { .. })
        ));
        let b2 = Csr::<f64>::zeros(4, 3);
        let bad_mask = Csr::<f64>::zeros(2, 3);
        assert!(matches!(
            prepare(&cfg, &a, &b2, &bad_mask),
            Err(SparseError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn overbook_bound_is_a_quantile_of_row_bounds() {
        use crate::config::KernelPolicy;
        // 10 rows: nine thin (1 nnz), one fat (6 nnz)
        let mut row_ptr = vec![0usize, 6];
        for r in 1..10 {
            row_ptr.push(6 + r);
        }
        let mut cols: Vec<Idx> = (0..6).collect();
        cols.extend(std::iter::repeat(0).take(9));
        let m = Csr::try_from_parts(10, 10, row_ptr, cols, vec![1.0f64; 15]).unwrap();

        let off = prepare(&Config::default(), &m, &m, &m).unwrap();
        assert_eq!(off.max_row_entries, 6);
        assert_eq!(off.overbook_row_entries, 6, "overbooking defaults off");

        let p90 = Config::builder()
            .kernel_policy(KernelPolicy::new().overbook(Overbook::p90()))
            .build();
        let core = prepare(&p90, &m, &m, &m).unwrap();
        assert_eq!(core.max_row_entries, 6, "hard bound unchanged");
        assert_eq!(core.overbook_row_entries, 1, "p90 of [1×9, 6] is 1");

        // dense accumulators cannot recover from overflow: hard bound kept
        let dense = Config::builder()
            .kernel_policy(
                KernelPolicy::new()
                    .accumulator(mspgemm_accum::AccumulatorKind::Dense(
                        mspgemm_accum::MarkerWidth::W32,
                    ))
                    .overbook(Overbook::p90()),
            )
            .build();
        assert_eq!(prepare(&dense, &m, &m, &m).unwrap().overbook_row_entries, 6);
    }

    #[test]
    fn prepare_captures_the_slot_layout() {
        let cfg = Config::builder().n_threads(2).n_tiles(3).build();
        let m = Csr::try_from_parts(
            4,
            4,
            vec![0, 2, 3, 5, 6],
            vec![0, 1, 2, 0, 3, 1],
            vec![1.0f64; 6],
        )
        .unwrap();
        let core = prepare(&cfg, &m, &m, &m).unwrap();
        assert_eq!(core.layout.bound, 6, "slot bound is nnz(M)");
        assert_eq!(core.layout.slot_ranges.len(), core.tiles.len());
        assert_eq!(core.row_ranges.len(), core.tiles.len());
        // slot ranges are a contiguous partition of [0, bound)
        let mut prev = 0;
        for &(lo, hi) in &core.layout.slot_ranges {
            assert_eq!(lo, prev);
            prev = hi;
        }
        assert_eq!(prev, core.layout.bound);
        assert_eq!(core.shape, (4, 4, 4));
    }
}
