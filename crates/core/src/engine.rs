//! The tile-run engine: the per-tile machinery every masked-product entry
//! point shares.
//!
//! Every entry point runs a frozen plan of product nodes (a single
//! product is the one-node plan), and plans differ only in how their
//! tiles are claimed — one plan's chain of nodes per tile under its
//! configured `Schedule`, or many one-node plans interleaved by
//! `WorkerPool::run_tiles_multi`. Everything else is this module:
//!
//! * [`SlotLayout`] — the mask-bound slot layout of one product over a row
//!   partition, and [`SlotBufs`], the slot buffers it describes;
//! * [`dispatch`] — the one monomorphisation over accumulator family ×
//!   marker width × metering flag;
//! * [`compute_tile`] — the one row loop, generic over the `A`-row reader
//!   (a matrix, or a predecessor node's slot window) and the per-row sink
//!   wrapper (nothing, or a fused post-op chain);
//! * [`recover`] — duplicate check, cancellation, and the serial degraded
//!   retry of every tile the parallel phase lost;
//! * [`compact`] — row pointers, slack squeeze (or zero-copy adoption) and
//!   hand-back of the buffers to the caller's scratch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::config::IterationSpace;
use crate::kernels::{
    row_coiterate, row_hybrid, row_mask_accumulate, row_vanilla, tally_row_hybrid, HybridStats,
    RowRead,
};
use mspgemm_accum::{
    Accumulator, AccumulatorKind, DenseAccumulator, FusedSink, FusedStage, HashAccumulator,
    MarkerWidth, RowSink, SlotSink, SortAccumulator,
};
use mspgemm_rt::{failpoint, obs};
use mspgemm_sched::{
    catch_tile_panic, CancelToken, DisjointSlots, ExecError, PoolError, PoolRunError, Schedule,
    ThreadReport, Tile, TileFailure, WorkerPool, WorkerScratch,
};
use mspgemm_sparse::{Csr, Idx, Semiring, SparseError};

/// The mask-bound slot layout of one product over a row partition. Row
/// `i` owns `nnz(M[i,:])` slots at its prefix offset — a hard bound,
/// since `nnz(C[i,:]) ≤ nnz(M[i,:])` — so tile `t` owns one contiguous
/// slot window and writes it without synchronisation.
pub(crate) struct SlotLayout {
    /// Per-tile `[lo, hi)` row windows (the tiles, in tuple form).
    pub(crate) row_ranges: Vec<(usize, usize)>,
    /// Per-tile `[lo, hi)` windows of the slot buffers.
    pub(crate) slot_ranges: Vec<(usize, usize)>,
    /// Rows with at least one mask entry, as `(row, absolute slot
    /// offset)`. The row loop and the settle visit only these: an empty
    /// mask row can neither hold output nor own slots, and frontier-style
    /// masks leave most rows empty.
    pub(crate) nonempty: Vec<(Idx, usize)>,
    /// Per-tile `[lo, hi)` ranges into `nonempty`.
    pub(crate) nonempty_ranges: Vec<(usize, usize)>,
    /// Total slot capacity: `nnz(M)`.
    pub(crate) bound: usize,
}

impl SlotLayout {
    /// Lay out `mask`'s slots over `tiles`. Tiles partition the rows in
    /// order, so one running prefix sum covers them all.
    pub(crate) fn new<T: Copy>(tiles: &[Tile], mask: &Csr<T>) -> Self {
        let mut slot_ranges = Vec::with_capacity(tiles.len());
        let mut nonempty = Vec::new();
        let mut nonempty_ranges = Vec::with_capacity(tiles.len());
        let mut bound = 0usize;
        for t in tiles {
            let (lo, ne_lo) = (bound, nonempty.len());
            for i in t.rows() {
                let rn = mask.row_nnz(i);
                if rn > 0 {
                    nonempty.push((i as Idx, bound));
                }
                bound += rn;
            }
            slot_ranges.push((lo, bound));
            nonempty_ranges.push((ne_lo, nonempty.len()));
        }
        let row_ranges = tiles.iter().map(|t| (t.lo, t.hi)).collect();
        SlotLayout { row_ranges, slot_ranges, nonempty, nonempty_ranges, bound }
    }

    /// Tile `t`'s nonempty mask rows.
    fn tile_rows(&self, t: usize) -> &[(Idx, usize)] {
        let (lo, hi) = self.nonempty_ranges[t];
        &self.nonempty[lo..hi]
    }

    /// Tile `t`'s window carved directly out of `buf` — the serial
    /// retry's view of the same slots the parallel phase claims.
    pub(crate) fn window<'w, T>(&'w self, t: usize, buf: &'w mut SlotBufs<T>) -> TileWindow<'w, T> {
        let ((lo, hi), (slo, shi)) = (self.row_ranges[t], self.slot_ranges[t]);
        TileWindow {
            row_lo: lo,
            rows: self.tile_rows(t),
            slot_lo: slo,
            cols: &mut buf.cols[slo..shi],
            vals: &mut buf.vals[slo..shi],
            nnz: &mut buf.nnz[lo..hi],
        }
    }
}

/// The slot buffers of one product: `bound` columns and values plus one
/// nnz count per row. Reused across runs of a plan and resized *without
/// zeroing*: every nonempty row's slot and count is rewritten by its tile
/// or by the degraded retry before compaction reads it, and the counts of
/// empty mask rows are never read.
pub(crate) struct SlotBufs<T> {
    pub(crate) cols: Vec<Idx>,
    pub(crate) vals: Vec<T>,
    pub(crate) nnz: Vec<u32>,
}

impl<T> Default for SlotBufs<T> {
    fn default() -> Self {
        SlotBufs { cols: Vec::new(), vals: Vec::new(), nnz: Vec::new() }
    }
}

impl<T: Copy> SlotBufs<T> {
    /// Size for a layout of `bound` slots over `nrows` rows (a no-op on a
    /// reused same-structure plan).
    pub(crate) fn resize(&mut self, bound: usize, nrows: usize, zero: T) {
        self.cols.resize(bound, 0 as Idx);
        self.vals.resize(bound, zero);
        self.nnz.resize(nrows, 0u32);
    }
}

/// One tile's share of a product's slot buffers: the rows it visits and
/// the windows they land in. Also the `A`-row reader a chained graph node
/// uses on its predecessor's freshly written rows.
pub(crate) struct TileWindow<'w, T> {
    /// First row of the tile (`nnz` is indexed `i - row_lo`).
    row_lo: usize,
    /// The tile's nonempty mask rows, with absolute slot offsets.
    rows: &'w [(Idx, usize)],
    /// Absolute offset of `cols[0]` / `vals[0]`.
    slot_lo: usize,
    cols: &'w mut [Idx],
    vals: &'w mut [T],
    nnz: &'w mut [u32],
}

impl<T: Copy> RowRead<T> for TileWindow<'_, T> {
    #[inline]
    fn row(&self, i: usize) -> (&[Idx], &[T]) {
        match self.rows.binary_search_by_key(&(i as Idx), |&(r, _)| r) {
            Ok(p) => {
                let base = self.rows[p].1 - self.slot_lo;
                let n = self.nnz[i - self.row_lo] as usize;
                (&self.cols[base..base + n], &self.vals[base..base + n])
            }
            // an empty mask row holds no slots and no output
            Err(_) => (&[], &[]),
        }
    }
}

/// One run's claim-once views over a product's slot buffers.
pub(crate) struct TileSlots<'b, T> {
    cols: DisjointSlots<'b, Idx>,
    vals: DisjointSlots<'b, T>,
    nnz: DisjointSlots<'b, u32>,
    layout: &'b SlotLayout,
}

impl<'b, T> TileSlots<'b, T> {
    /// Split `bufs` along `layout`.
    pub(crate) fn new(
        bufs: &'b mut SlotBufs<T>,
        layout: &'b SlotLayout,
    ) -> Result<Self, SparseError> {
        let internal = |detail| SparseError::Internal { detail };
        Ok(TileSlots {
            cols: DisjointSlots::new(&mut bufs.cols, &layout.slot_ranges).map_err(internal)?,
            vals: DisjointSlots::new(&mut bufs.vals, &layout.slot_ranges).map_err(internal)?,
            nnz: DisjointSlots::new(&mut bufs.nnz, &layout.row_ranges).map_err(internal)?,
            layout,
        })
    }

    /// Claim tile `t`'s window. A second claim of the same tile is a
    /// scheduler bug: it is recorded in `ledger` (and fails the run at
    /// [`recover`]) instead of handing out aliased slots.
    pub(crate) fn claim(&self, t: usize, ledger: &TileLedger) -> Option<TileWindow<'b, T>> {
        let (Some(cols), Some(vals), Some(nnz)) =
            (self.cols.take(t), self.vals.take(t), self.nnz.take(t))
        else {
            let mut guard = ledger.duplicate.lock().unwrap_or_else(|e| e.into_inner());
            guard.get_or_insert(t);
            return None;
        };
        Some(TileWindow {
            row_lo: self.layout.row_ranges[t].0,
            rows: self.layout.tile_rows(t),
            slot_lo: self.layout.slot_ranges[t].0,
            cols,
            vals,
            nnz,
        })
    }
}

/// Per-run tile accounting: which tiles completed, whether any was
/// claimed twice, and how many overbook spills the parallel phase took.
pub(crate) struct TileLedger {
    completed: Vec<OnceLock<()>>,
    duplicate: Mutex<Option<usize>>,
    spills: AtomicU64,
}

impl TileLedger {
    pub(crate) fn new(n_tiles: usize) -> Self {
        TileLedger {
            completed: (0..n_tiles).map(|_| OnceLock::new()).collect(),
            duplicate: Mutex::new(None),
            spills: AtomicU64::new(0),
        }
    }

    /// Close tile `t` after its body ran: count its spills, and mark it
    /// complete unless the watchdog abandoned it — the degraded retry
    /// owns an abandoned tile, so it must stay missing.
    pub(crate) fn finish(&self, ws: &WorkerScratch, t: usize, spills: u64) {
        if spills > 0 {
            self.spills.fetch_add(spills, Ordering::Relaxed);
        }
        if !ws.current_tile_abandoned() {
            let _ = self.completed[t].set(());
        }
    }
}

/// Map a pool-infrastructure failure onto the public error surface.
pub(crate) fn pool_error(e: PoolError) -> SparseError {
    match e {
        PoolError::Poisoned { detail } => SparseError::ExecutorPoisoned { detail },
        PoolError::Spawn { detail } => {
            SparseError::Internal { detail: format!("worker spawn: {detail}") }
        }
    }
}

/// Split a pool run's outcome into its thread reports and tile failures;
/// only a pool-infrastructure failure fails the run outright.
pub(crate) fn tile_outcome(
    outcome: Result<Vec<ThreadReport>, PoolRunError>,
) -> Result<(Vec<ThreadReport>, Vec<TileFailure>), SparseError> {
    match outcome {
        Ok(reports) => Ok((reports, Vec::new())),
        Err(PoolRunError::Tiles(ExecError { failures, reports })) => Ok((reports, failures)),
        Err(PoolRunError::Pool(e)) => Err(pool_error(e)),
    }
}

/// A computation over one monomorphic accumulator type, handed to
/// [`dispatch`]. `make(cap)` builds an accumulator able to hold `cap`
/// entries per row.
pub(crate) trait AccVisitor<S: Semiring> {
    type Out;
    fn visit<A, F>(self, make: F) -> Self::Out
    where
        A: Accumulator<S> + 'static,
        F: Fn(usize) -> A + Copy + Send + Sync + 'static;
}

/// Monomorphise `v` on the accumulator family × marker width — and on the
/// metering flag: armed runs use the counting (`METER = true`)
/// instantiations, unarmed runs compile to hot loops instruction-identical
/// to the uninstrumented baseline. Arming is checked once per call, never
/// per element; worker caches key on `TypeId`, so flipping the flag
/// between runs transparently rebuilds them.
///
/// `ncols` sizes dense accumulators; hash tables built below `full` (the
/// hard per-row bound) get [`hash_slack`]'s extra room, tables at `full`
/// the default 2×. `simd_probe` selects the AVX2 group-probe hash table.
pub(crate) fn dispatch<S: Semiring, V: AccVisitor<S>>(
    kind: AccumulatorKind,
    simd_probe: bool,
    ncols: usize,
    full: usize,
    v: V,
) -> V::Out {
    if obs::armed() {
        dispatch_metered::<S, V, true>(kind, simd_probe, ncols, full, v)
    } else {
        dispatch_metered::<S, V, false>(kind, simd_probe, ncols, full, v)
    }
}

fn dispatch_metered<S: Semiring, V: AccVisitor<S>, const METER: bool>(
    kind: AccumulatorKind,
    simd_probe: bool,
    ncols: usize,
    full: usize,
    v: V,
) -> V::Out {
    let slack = move |cap: usize| hash_slack(cap, full);
    match kind {
        AccumulatorKind::Dense(w) => match w {
            MarkerWidth::W8 => v.visit(move |_| DenseAccumulator::<S, u8, METER>::new(ncols)),
            MarkerWidth::W16 => v.visit(move |_| DenseAccumulator::<S, u16, METER>::new(ncols)),
            MarkerWidth::W32 => v.visit(move |_| DenseAccumulator::<S, u32, METER>::new(ncols)),
            MarkerWidth::W64 => v.visit(move |_| DenseAccumulator::<S, u64, METER>::new(ncols)),
        },
        AccumulatorKind::Hash(w) => match w {
            MarkerWidth::W8 => v.visit(move |cap| {
                HashAccumulator::<S, u8, METER>::with_row_capacity_slack(cap, slack(cap))
            }),
            MarkerWidth::W16 => v.visit(move |cap| {
                HashAccumulator::<S, u16, METER>::with_row_capacity_slack(cap, slack(cap))
            }),
            // The 8-lane probe wants 32-bit keys *and* marks, so W32 is the
            // only width with a vector instantiation. Only
            // `SimdMode::Force` resolves `simd_probe` on: slack-sized
            // tables keep chains inside the scalar fast path, so Auto keeps
            // the scalar probe (see `plan::resolve_simd`).
            MarkerWidth::W32 if simd_probe => v.visit(move |cap| {
                HashAccumulator::<S, u32, METER, true>::with_row_capacity_slack(cap, slack(cap))
            }),
            MarkerWidth::W32 => v.visit(move |cap| {
                HashAccumulator::<S, u32, METER>::with_row_capacity_slack(cap, slack(cap))
            }),
            MarkerWidth::W64 => v.visit(move |cap| {
                HashAccumulator::<S, u64, METER>::with_row_capacity_slack(cap, slack(cap))
            }),
        },
        AccumulatorKind::Sort => v.visit(SortAccumulator::<S>::new),
    }
}

/// Slack factor for a hash table sized at `cap` entries under a plan
/// whose hard bound is `full`.
///
/// A table sized at the hard bound runs at a vanishing load factor on
/// typical rows, so the probe's freshness branch predicts perfectly; a
/// quantile-sized table at the constructor's default 50 % load turns it
/// into a per-probe coin flip, and on miss-heavy masked workloads that
/// misprediction tax can cost more than the cache residency being bought.
/// Overbooked tables (any `cap` below the hard bound) therefore get up
/// to 32× slack — load ≤ ~3 % at the spill threshold, typically far less
/// — which keeps them in the same predictable regime while staying
/// orders of magnitude smaller than the max-bound table. The slack is
/// clamped so the overbooked table never outgrows what the max-bound
/// table would have been (a quantile close to the max deserves no
/// amplification). The spill threshold itself is the entry limit and
/// does not move with the slack.
pub(crate) fn hash_slack(cap: usize, full: usize) -> usize {
    if cap >= full {
        2
    } else {
        (2 * full / cap.max(1)).clamp(2, 32)
    }
}

/// The per-row kernel parameters of one run.
#[derive(Clone, Copy)]
pub(crate) struct RowKernel {
    pub(crate) iteration: IterationSpace,
    pub(crate) simd: bool,
    /// Row bound the worker accumulator was sized at; a wider mask row
    /// under a mask-preloading kernel spills without trying.
    pub(crate) overbook_limit: usize,
}

impl RowKernel {
    /// The degraded retry's conservative configuration: the scalar
    /// vanilla kernel, which never spills (its dense table cannot fill).
    pub(crate) const RETRY: RowKernel = RowKernel {
        iteration: IterationSpace::Vanilla,
        simd: false,
        overbook_limit: usize::MAX,
    };
}

/// What a tile's row loop wraps around each row's slot sink: nothing for
/// a plain product ([`NoPost`]), the fused element-wise chain for a graph
/// node (a `Vec` of [`FusedStage`]s).
pub(crate) trait RowPost<T> {
    type Sink<'s, W: RowSink<T> + 's>: RowSink<T>
    where
        Self: 's;
    /// The sink row `i` is written through, forwarding into `inner`.
    fn wrap<'s, W: RowSink<T> + 's>(&'s mut self, i: usize, inner: &'s mut W)
        -> Self::Sink<'s, W>;
    /// Entries the wrapped row pushed through post-ops.
    fn fused<W: RowSink<T>>(sink: &Self::Sink<'_, W>) -> u64;
}

/// No post-op: the kernel writes straight into the slot sink.
pub(crate) struct NoPost;

impl<T> RowPost<T> for NoPost {
    type Sink<'s, W: RowSink<T> + 's> = &'s mut W;
    #[inline(always)]
    fn wrap<'s, W: RowSink<T> + 's>(&'s mut self, _i: usize, inner: &'s mut W) -> &'s mut W {
        inner
    }
    #[inline(always)]
    fn fused<W: RowSink<T>>(_sink: &&mut W) -> u64 {
        0
    }
}

impl<'p, T: Copy + PartialOrd> RowPost<T> for Vec<FusedStage<'p, T>> {
    type Sink<'s, W: RowSink<T> + 's> = FusedSink<'s, 'p, T, W> where Self: 's;
    fn wrap<'s, W: RowSink<T> + 's>(
        &'s mut self,
        i: usize,
        inner: &'s mut W,
    ) -> FusedSink<'s, 'p, T, W> {
        let mut sink = FusedSink::new(self, inner);
        sink.begin_row(i);
        sink
    }
    fn fused<W: RowSink<T>>(sink: &FusedSink<'_, 'p, T, W>) -> u64 {
        sink.fused_elements()
    }
}

/// Dispatch one output row through the configured kernel into `out`,
/// replaying the hybrid kernel's Eq. 3 decisions when metrics are armed.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_row<S, A, R, W>(
    i: usize,
    iteration: IterationSpace,
    simd: bool,
    a: &R,
    b: &Csr<S::T>,
    mask_cols: &[Idx],
    acc: &mut A,
    hstats: &mut HybridStats,
    out: &mut W,
) where
    S: Semiring,
    A: Accumulator<S>,
    R: RowRead<S::T> + ?Sized,
    W: RowSink<S::T> + ?Sized,
{
    // An empty mask row admits no output at all, whatever the iteration
    // space — skip the row before touching A or B. This is what makes
    // frontier-style masks (BFS, sparse queries) pay only for the rows
    // they ask about instead of the whole product.
    if mask_cols.is_empty() {
        return;
    }
    match iteration {
        IterationSpace::Vanilla => row_vanilla(i, a, b, mask_cols, acc, out),
        IterationSpace::MaskAccumulate => {
            row_mask_accumulate(i, a, b, mask_cols, simd, acc, out)
        }
        IterationSpace::CoIterate => row_coiterate(i, a, b, mask_cols, simd, acc, out),
        IterationSpace::Hybrid { kappa } => {
            row_hybrid(i, a, b, mask_cols, kappa, simd, acc, out);
            // replay the Eq. 3 decisions (pure function of the same
            // inputs) so the kernel itself stays uninstrumented
            if hstats.on {
                tally_row_hybrid(i, a, b, mask_cols.len(), kappa, hstats);
            }
        }
    }
}

/// A worker's accumulator plus its overbook spill scratch, cached together
/// so both stay warm across every tile (and, under a reused plan, every
/// run) the worker executes.
pub(crate) struct TileAcc<S: Semiring, A> {
    acc: A,
    spill: OverbookSpill<S, A>,
}

impl<S: Semiring, A> TileAcc<S, A> {
    pub(crate) fn new(acc: A) -> Self {
        let spill =
            OverbookSpill { vals: Vec::new(), mark: Vec::new(), epoch: u32::MAX, full: None };
        TileAcc { acc, spill }
    }
}

/// Overbook spill scratch.
///
/// The mask-bound iteration spaces (mask-accumulate, co-iteration, hybrid)
/// never fold a product into a column outside `M[i,:]`, so an overflowed
/// row does not need a hash table at the hard bound at all: it needs one
/// value slot per *mask position*. The recompute walks the row's products
/// in the same `(k, B[k,:])` order as the kernels, binary-searches each
/// product column in the sorted mask row ([`crate::simd::find`] — the same
/// search the co-iteration kernel uses), and folds into a mask-indexed
/// dense scratch. Per-column folds still arrive in ascending-`k` order, so
/// the result is bit-identical to what a hard-bound hash run writes — while
/// skipping the `O(w)` preload and `O(w)` gather probes that make fat rows
/// expensive in the first place. The scratch is epoch-marked (no per-row
/// clear) and grows to the widest spilled row, so a run's spill cost is
/// proportional to the fat rows it actually hits, never to the hard bound.
///
/// The vanilla kernel folds *unmasked* intermediate columns, so its bound
/// is not the mask width; vanilla spills keep the classic recompute
/// through a full-bound table, built lazily on the first such spill
/// (`full`) and reused for the rest of the worker's lifetime.
struct OverbookSpill<S: Semiring, A> {
    vals: Vec<S::T>,
    mark: Vec<u32>,
    epoch: u32,
    full: Option<A>,
}

impl<S: Semiring, A> OverbookSpill<S, A> {
    /// Recompute one spilled row of a mask-bound iteration space into
    /// `out`, bit-identically to a hard-bound hash run (same per-column
    /// fold order, same first-touch/fma split, same mask-order emission).
    fn recompute<R: RowRead<S::T> + ?Sized, W: RowSink<S::T> + ?Sized>(
        &mut self,
        i: usize,
        a: &R,
        b: &Csr<S::T>,
        mask_cols: &[Idx],
        simd: bool,
        out: &mut W,
    ) {
        let w = mask_cols.len();
        if self.mark.len() < w {
            self.mark.resize(w, u32::MAX);
            self.vals.resize(w, S::zero());
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == u32::MAX {
            // the resize fill value doubles as "never touched", so the
            // epoch may never reach it; one full clear per 2³² spills
            self.mark.fill(u32::MAX);
            self.epoch = 0;
        }
        let e = self.epoch;
        let (acols, avals) = a.row(i);
        for (&k, &av) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(k as usize);
            for (&j, &bv) in bcols.iter().zip(bvals) {
                if let Some(pos) = crate::simd::find(mask_cols, j, simd) {
                    if self.mark[pos] == e {
                        self.vals[pos] = S::fma(self.vals[pos], av, bv);
                    } else {
                        self.mark[pos] = e;
                        self.vals[pos] = S::mul(av, bv);
                    }
                }
            }
        }
        for (pos, &j) in mask_cols.iter().enumerate() {
            if self.mark[pos] == e {
                out.push(j, self.vals[pos]);
            }
        }
    }
}

/// Compute one tile's rows straight into its slot window — the one row
/// loop behind the parallel phase and the degraded retry of every entry
/// point. Visits only the tile's nonempty mask rows; every row's slot is
/// `nnz(M[i,:])` wide, and `nnz(C[i,:]) ≤ nnz(M[i,:])` guarantees it fits,
/// so the loop performs no heap allocation. `post` wraps each row's slot
/// sink (the fused post-ops of a graph node; [`NoPost`] compiles to the
/// plain slot write).
///
/// This is also where overbooking pays its bill: the worker table may be
/// sized at the plan's quantile bound (`k.overbook_limit`) rather than the
/// hard maximum. A row that outgrows it latches the accumulator's
/// overflow flag and is recomputed into the same slot window — through
/// the mask-indexed spill scratch for the mask-bound iteration spaces, or
/// through a lazily built full-bound table (`make_full`) for vanilla.
/// Every kernel folds a row's products in the same `k` order, so the
/// spill recompute — like the degraded retry, which rewrites the same
/// slots — is bit-identical to an un-overbooked run. Returns the number
/// of spilled rows.
#[allow(clippy::too_many_arguments)]
pub(crate) fn compute_tile<S, A, R, P, G>(
    w: &mut TileWindow<'_, S::T>,
    k: RowKernel,
    a: &R,
    b: &Csr<S::T>,
    mask: &Csr<S::T>,
    post: &mut P,
    ta: &mut TileAcc<S, A>,
    make_full: &G,
) -> u64
where
    S: Semiring,
    A: Accumulator<S>,
    R: RowRead<S::T> + ?Sized,
    P: RowPost<S::T>,
    G: Fn() -> A,
{
    let TileAcc { acc, spill: spill_acc } = ta;
    let mut hstats = HybridStats::armed();
    let (mut tile_nnz, mut spills, mut fused) = (0u64, 0u64, 0u64);
    // The mask-preloading kernels are guaranteed to overflow a table
    // narrower than the row's mask, so skip the doomed attempt outright.
    // (A hybrid row that wide *might* squeak through co-iteration, but it
    // is exactly the fat tail overbooking bets against — spilling it
    // directly caps the cost at one recompute.)
    let preloads = matches!(
        k.iteration,
        IterationSpace::MaskAccumulate | IterationSpace::Hybrid { .. }
    );
    for &(i, src) in w.rows {
        let i = i as usize;
        let (mask_cols, _) = mask.row(i);
        let width = mask_cols.len();
        let base = src - w.slot_lo;
        let mut spill = preloads && width > k.overbook_limit;
        let mut n = 0usize;
        if !spill {
            let mut slot = SlotSink::for_row(
                &mut w.cols[base..base + width],
                &mut w.vals[base..base + width],
                i,
            );
            let attempt = {
                let mut sink = post.wrap(i, &mut slot);
                run_row::<S, A, R, _>(
                    i, k.iteration, k.simd, a, b, mask_cols, acc, &mut hstats, &mut sink,
                );
                P::fused(&sink)
            };
            n = slot.written();
            // the latch *is* the overflow detector: a row that outgrew
            // the overbooked table dropped entries above — redo it below
            // (and count its fused elements from the redo alone)
            spill = acc.take_overflow();
            fused += if spill { 0 } else { attempt };
        }
        if spill {
            failpoint::maybe_fire(failpoint::OVERBOOK_SPILL, i as u64);
            let mut slot = SlotSink::for_row(
                &mut w.cols[base..base + width],
                &mut w.vals[base..base + width],
                i,
            );
            {
                let mut sink = post.wrap(i, &mut slot);
                if matches!(k.iteration, IterationSpace::Vanilla) {
                    // vanilla folds unmasked intermediates: only a table
                    // at the hard (operation-count) bound can hold the row
                    let full = spill_acc.full.get_or_insert_with(make_full);
                    run_row::<S, A, R, _>(
                        i, k.iteration, k.simd, a, b, mask_cols, full, &mut hstats, &mut sink,
                    );
                } else {
                    spill_acc.recompute(i, a, b, mask_cols, k.simd, &mut sink);
                }
                fused += P::fused(&sink);
            }
            n = slot.written();
            spills += 1;
            obs::incr(obs::Counter::AccumOverbookSpills);
        }
        w.nnz[i - w.row_lo] = n as u32;
        tile_nnz += n as u64;
    }
    // fold this tile's instance-local tallies into the global registry —
    // once per tile, outside the row loop, a no-op unless armed
    if let Some(full) = spill_acc.full.as_mut() {
        full.flush_metrics();
    }
    acc.flush_metrics();
    hstats.flush();
    obs::add(obs::Counter::DriverTileOutputNnz, tile_nnz);
    obs::add(obs::Counter::FusionSinkFusedElems, fused);
    spills
}

/// What the settle of one run found, threaded up into `RunStats`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RetryStats {
    /// Tiles that failed in the parallel phase.
    pub(crate) failed: usize,
    /// Tiles recovered by the serial degraded retry.
    pub(crate) recovered: usize,
    /// Wall time of the retry pass.
    pub(crate) elapsed: Duration,
    /// Overbook spill recomputes performed by the parallel phase.
    pub(crate) spills: u64,
}

/// Settle a run's tiles after the parallel phase: fail on a duplicate
/// claim, report cancellation, and recompute every missing tile serially
/// through `retry` — which must rewrite exactly the slots the tile owned,
/// with the conservative configuration ([`RowKernel::RETRY`] over a dense
/// `u64` accumulator). A panicked attempt only ever wrote inside those
/// slots and the retry overwrites every nonempty row's prefix and count,
/// so recovery stays bit-identical. The retry deliberately does not
/// re-fire `tile-kernel`: it is the recovery path, exercised on its own
/// via the `accum-reset` site. A retry that fails too surfaces as
/// [`SparseError::TileFailed`], naming the tile and both failures.
pub(crate) fn recover(
    tiles: &[Tile],
    ledger: TileLedger,
    failures: &[TileFailure],
    cancel: Option<&CancelToken>,
    mut retry: impl FnMut(usize),
) -> Result<RetryStats, SparseError> {
    if let Some(t) = ledger.duplicate.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(SparseError::Internal { detail: format!("tile {t} executed twice") });
    }
    let missing: Vec<usize> =
        (0..tiles.len()).filter(|&t| ledger.completed[t].get().is_none()).collect();
    // A cancelled run's skipped tiles are *deliberately* missing: the
    // caller asked out (or its deadline passed), so abandon the partial
    // output instead of burning the serial retry on it. A run every tile
    // of which finished before anyone noticed the cancel still settles.
    if let Some(tok) = cancel {
        if !missing.is_empty() && tok.is_cancelled() {
            return Err(if tok.deadline_expired() {
                SparseError::DeadlineExceeded
            } else {
                SparseError::Cancelled
            });
        }
    }
    let mut stats = RetryStats {
        failed: missing.len(),
        spills: ledger.spills.into_inner(),
        ..RetryStats::default()
    };
    let start = Instant::now();
    for t in missing {
        if let Err(retry_msg) = catch_tile_panic(|| retry(t)) {
            let first = failures
                .iter()
                .find(|f| f.tile == t)
                .map_or("tile output missing", |f| f.payload.as_str());
            return Err(SparseError::TileFailed {
                tile: t,
                rows: (tiles[t].lo, tiles[t].hi),
                detail: format!("parallel: {first}; degraded retry: {retry_msg}"),
            });
        }
        stats.recovered += 1;
        obs::incr(obs::Counter::DriverRetriedTiles);
    }
    if stats.failed > 0 {
        stats.elapsed = start.elapsed();
    }
    Ok(stats)
}

/// Minimum compacted-output volume, in bytes, before the slack-squeeze
/// pass is scheduled on the pool instead of running serially. Small
/// outputs aren't worth a fork/join (and keeping unit-test-sized runs
/// serial keeps per-run scheduler counters single-pass). Overridable via
/// `MSPGEMM_COMPACT_PAR_MIN`, read once per process.
fn compact_par_min() -> usize {
    static MIN: OnceLock<usize> = OnceLock::new();
    *MIN.get_or_init(|| {
        std::env::var("MSPGEMM_COMPACT_PAR_MIN")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(4 << 20)
    })
}

/// Turn a settled product's slot buffers into its output CSR: build the
/// row pointers, replay the `fragment-stitch` failpoint per tile, then
/// either adopt the slot buffers as the output (no slack: zero bytes
/// moved, and `scratch` keeps only the per-row counts) or squeeze the
/// per-row slack out into fresh buffers and hand the slot buffers back to
/// `scratch` for the caller's next run.
///
/// `par` schedules the squeeze on a pool (`(pool, n_threads)`) once the
/// output reaches `MSPGEMM_COMPACT_PAR_MIN` bytes. Plan runs (products
/// and graph outputs) pass their pool; batch jobs compact serially —
/// nesting a pool run inside a batch settle would serialize against the
/// very synchronisation the batch amortises.
pub(crate) fn compact<S: Semiring>(
    tiles: &[Tile],
    layout: &SlotLayout,
    shape: (usize, usize),
    bufs: SlotBufs<S::T>,
    par: Option<(&WorkerPool, usize)>,
    scratch: Option<&mut SlotBufs<S::T>>,
) -> Result<Csr<S::T>, SparseError> {
    let (nrows, ncols) = shape;
    let (row_ptr, output_nnz) = build_row_ptr(nrows, &layout.nonempty, &bufs.nnz);
    if let Err(msg) = catch_tile_panic(|| {
        for t in 0..tiles.len() {
            failpoint::maybe_fire(failpoint::FRAGMENT_STITCH, t as u64);
        }
    }) {
        return Err(SparseError::Internal { detail: format!("stitch: {msg}") });
    }
    // mask bound minus realised output: the per-row slack the slots
    // preallocated and compaction squeezes away
    obs::add(obs::Counter::DriverSlackNnz, (layout.bound - output_nnz) as u64);

    let SlotBufs { cols, vals, nnz } = bufs;
    if output_nnz == layout.bound {
        if let Some(s) = scratch {
            s.nnz = nnz;
        }
        return Ok(Csr::from_parts_unchecked(nrows, ncols, row_ptr, cols, vals));
    }

    let mut out_cols = vec![0 as Idx; output_nnz];
    let mut out_vals = vec![S::zero(); output_nnz];
    let entry_bytes = std::mem::size_of::<Idx>() + std::mem::size_of::<S::T>();
    let copy = |t: usize, dest_cols: &mut [Idx], dest_vals: &mut [S::T]| {
        let bytes = copy_tile_rows::<S>(
            tiles[t],
            layout.tile_rows(t),
            &row_ptr,
            &cols,
            &vals,
            dest_cols,
            dest_vals,
        );
        obs::add(obs::Counter::DriverCompactionBytes, bytes);
    };
    let mut done = false;
    if let Some((pool, n_threads)) = par {
        if n_threads > 1 && tiles.len() > 1 && output_nnz * entry_bytes >= compact_par_min() {
            // per-tile disjoint copies; tile t's destination window is
            // [row_ptr[t.lo], row_ptr[t.hi])
            let dest: Vec<(usize, usize)> =
                tiles.iter().map(|t| (row_ptr[t.lo], row_ptr[t.hi])).collect();
            let copied: Vec<OnceLock<()>> = (0..tiles.len()).map(|_| OnceLock::new()).collect();
            let internal = |detail| SparseError::Internal { detail };
            let dc = DisjointSlots::new(&mut out_cols, &dest).map_err(internal)?;
            let dv = DisjointSlots::new(&mut out_vals, &dest).map_err(internal)?;
            // a lost tile here falls through to the serial redo below; a
            // pool failure leaves `copied` empty and does the same
            let dynamic = Schedule::Dynamic { chunk: 1 };
            let _ = pool.run_tiles(n_threads, tiles.len(), dynamic, |_, _, t| {
                if let (Some(c), Some(v)) = (dc.take(t), dv.take(t)) {
                    copy(t, c, v);
                    let _ = copied[t].set(());
                }
            });
            done = copied.iter().all(|c| c.get().is_some());
        }
    }
    if !done {
        // serial compaction — the small-output default and the fallback
        // when the parallel pass lost a tile (the redo overwrites every
        // window, so a partial parallel attempt cannot leak)
        if let Err(msg) = catch_tile_panic(|| {
            for (t, tile) in tiles.iter().enumerate() {
                let (lo, hi) = (row_ptr[tile.lo], row_ptr[tile.hi]);
                copy(t, &mut out_cols[lo..hi], &mut out_vals[lo..hi]);
            }
        }) {
            return Err(SparseError::Internal { detail: format!("stitch: {msg}") });
        }
    }
    if let Some(s) = scratch {
        *s = SlotBufs { cols, vals, nnz };
    }
    Ok(Csr::from_parts_unchecked(nrows, ncols, row_ptr, out_cols, out_vals))
}

/// Copy one tile's rows from their slack-padded slots into the compacted
/// output window `[row_ptr[tile.lo], row_ptr[tile.hi])`, returning the
/// bytes moved. `rows` is the tile's nonempty-mask-row list — rows outside
/// it own no slots and hold no output, so only the rows the mask asks
/// about are visited (the frontier-mask settle cost).
fn copy_tile_rows<S: Semiring>(
    tile: Tile,
    rows: &[(Idx, usize)],
    row_ptr: &[usize],
    slot_cols: &[Idx],
    slot_vals: &[S::T],
    dest_cols: &mut [Idx],
    dest_vals: &mut [S::T],
) -> u64 {
    let dest_base = row_ptr[tile.lo];
    for &(i, src) in rows {
        let i = i as usize;
        let n = row_ptr[i + 1] - row_ptr[i];
        let d = row_ptr[i] - dest_base;
        dest_cols[d..d + n].copy_from_slice(&slot_cols[src..src + n]);
        dest_vals[d..d + n].copy_from_slice(&slot_vals[src..src + n]);
    }
    let entry = std::mem::size_of::<Idx>() + std::mem::size_of::<S::T>();
    ((row_ptr[tile.hi] - dest_base) * entry) as u64
}

/// Build the output row pointer from the per-row nnz counts, visiting
/// only the nonempty mask rows — an empty mask row admits no output, so
/// its count is structurally zero and the prefix between two nonempty
/// rows is a constant run (written with `fill`, not walked). Returns
/// `(row_ptr, output_nnz)`.
fn build_row_ptr(nrows: usize, nonempty: &[(Idx, usize)], row_nnz: &[u32]) -> (Vec<usize>, usize) {
    let mut row_ptr = vec![0usize; nrows + 1];
    let mut acc = 0usize;
    let mut filled = 1usize; // row_ptr[..filled] is final
    for &(i, _) in nonempty {
        let i = i as usize;
        if acc != 0 && filled <= i {
            row_ptr[filled..=i].fill(acc);
        }
        acc += row_nnz[i] as usize;
        row_ptr[i + 1] = acc;
        filled = i + 2;
    }
    if acc != 0 && filled <= nrows {
        row_ptr[filled..].fill(acc);
    }
    (row_ptr, acc)
}
