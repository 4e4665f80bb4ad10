//! Frozen plans: the symbolic phase of masked SpGEMM, captured once and
//! revalidated cheaply — for one product and for a chain of products
//! alike.
//!
//! The *symbolic* phase — resolve the [`Config`], estimate per-row work
//! with Eq. 2, cut the rows into tiles, lay out the mask-bound output
//! slots — depends only on sparsity structure, and every entry point
//! freezes it into the same plan core: product nodes `mask ⊙ (A × B)`
//! over positional inputs. A single product is the one-node plan
//! `{a: Ext(0), b: Ext(1), mask: Ext(2)}` over `[A, B, M]`; a
//! [`crate::PlanGraph`] has `N` nodes, whose `A` may be an earlier node's
//! output and whose rows may carry fused element-wise post-ops.
//!
//! * `prepare` is the one symbolic phase (one-shot [`crate::spgemm`] runs
//!   it per call);
//! * a per-input structural fingerprint (`ExtFingerprint`) guards a kept
//!   plan ([`Plan`], [`crate::Session`], the Service's plan cache,
//!   [`crate::PlanGraph`]): re-execution revalidates it and fails with
//!   [`SparseError::PlanStructureMismatch`] (naming the drifted operand)
//!   instead of computing garbage;
//! * `PlanScratch` carries the output slot buffers across executions, so
//!   a planned run performs no slot allocation and no slot zeroing at all.
//!
//! # What the fingerprint covers
//!
//! Exactly the structure the frozen artifacts were computed *from* — no
//! more. Each input is pinned at the highest tier any node needs. A
//! mask's row pointers are always pinned: its node's slot layout is a
//! prefix sum over them, and a drifted mask row would overflow its tile's
//! slot window. Everything else is tiered by iteration space:
//!
//! * mask-bounded kernels (mask-accumulate, co-iterate, hybrid) size their
//!   accumulators from the mask's row lengths and read `A` and `B` fresh
//!   at run time, so for those only the operand *shapes* are pinned — a
//!   structural drift in `A` or `B` can shift load balance but corrupt
//!   nothing, and revalidation touches `O(nrows)` of the mask only;
//! * the vanilla kernel sizes its accumulator from the Eq. 2 work
//!   estimate, which walks an external `A`'s column indices into `B`'s
//!   row lengths — an undersized hash table latches its overflow flag and
//!   forces a full-bound spill recompute of every affected row (correct
//!   but a performance cliff), so under vanilla the fingerprint
//!   additionally pins that `A`'s row pointers *and* columns and `B`'s
//!   row pointers.
//!
//! Column indices of `B` and `M`, and fused intersect/subtract patterns,
//! are never hashed: they feed no precomputed bound. For one product this
//! pins exactly `(A, B, M)` at `(Dims, Dims, Rows)`, or
//! `(RowsAndCols, Rows, Rows)` under vanilla. The practical upshot is that
//! revalidation — the reuse tax paid by every [`Plan::execute`] — stays
//! far cheaper than the prologue it replaces, and benign drift is
//! tolerated instead of forcing a rebuild.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::config::{Config, IterationSpace, Overbook, SimdMode};
use crate::driver::{self, Plain, RunStats};
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

/// The `A` operand of a node, index-resolved: an external input or the
/// output of an earlier node.
#[derive(Clone, Copy, Debug)]
pub(crate) enum OperandRef {
    Ext(usize),
    Node(usize),
}

/// One element-wise consumer fused into a node's row gather. Pattern ops
/// name an external input by index; the pattern is read fresh at run
/// time, so only its shape is load-bearing for the frozen plan.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PostOpSpec<T> {
    SelectGe(T),
    Fill(T),
    Intersect(usize),
    Subtract(usize),
}

/// One product node `mask ⊙ (A × B)`; `b`, `mask` and an `Ext` `a` index
/// the plan's positional inputs.
pub(crate) struct Node<T> {
    pub(crate) a: OperandRef,
    pub(crate) b: usize,
    pub(crate) mask: usize,
    /// Fused post-ops, applied in order in the row gather.
    pub(crate) post: Vec<PostOpSpec<T>>,
    /// Whether a run materialises this node's result.
    pub(crate) output: bool,
}

impl<T> Node<T> {
    /// The single product `M ⊙ (A × B)` over the inputs `[A, B, M]`.
    pub(crate) const fn product() -> Self {
        Node { a: OperandRef::Ext(0), b: 1, mask: 2, post: Vec::new(), output: true }
    }
}

/// The frozen symbolic phase of a list of product nodes.
pub(crate) struct PlanCore<T> {
    /// The configuration, as given (resolution results cached below).
    pub(crate) config: Config,
    /// `config.resolved_threads()` at plan time.
    pub(crate) n_threads: usize,
    /// Output rows, shared by every node.
    pub(crate) nrows: usize,
    /// The shared row tiles (uniform or FLOP-balanced over the summed
    /// Eq. 2 estimates).
    pub(crate) tiles: Vec<Tile>,
    pub(crate) nodes: Vec<Node<T>>,
    /// Each node's mask-bound slot layout over `tiles` (parallel to
    /// `nodes`).
    pub(crate) layouts: Vec<SlotLayout>,
    /// Total Eq. 2 work estimate, summed over nodes.
    pub(crate) estimated_work: u64,
    /// Accumulator sizing bound: the max over rows of the per-row bound
    /// (see [`prepare`]).
    pub(crate) max_row_entries: usize,
    /// Overbooked accumulator sizing: the configured quantile of the same
    /// per-row bounds `max_row_entries` is the max of (equal to it when
    /// overbooking is off or inapplicable). Worker-persistent hash scratch
    /// allocates at this size; a row whose bound exceeds it may overflow
    /// and is then recomputed at `max_row_entries` (the spill path).
    pub(crate) overbook_row_entries: usize,
    /// Dense-accumulator column bound: the widest node's `B.ncols`.
    pub(crate) max_ncols: usize,
    /// Whether the SIMD co-iteration search and the masked-scan filter
    /// are in effect for this plan (see [`resolve_simd`]).
    pub(crate) simd: bool,
    /// Whether the AVX2 group probe hash accumulator is in effect (see
    /// [`resolve_simd`]).
    pub(crate) simd_probe: bool,
    /// Unique identity; keys the workers' cross-run accumulator scratch.
    pub(crate) plan_id: u64,
}

/// Resolve the SIMD mode against the CPU, once per plan:
/// `(simd, simd_probe)`. The co-iteration search and the accumulators'
/// masked-scan filter vectorise unless `Scalar` is forced. The AVX2 group
/// probe of the hash accumulator stays
/// off under `Auto`: slack-sized tables (see `engine::hash_slack`) keep
/// probe chains within the scalar fast path, so the group probe's setup
/// cost never pays for itself there. Only `Force` (plus CPU support)
/// turns it on.
fn resolve_simd(mode: SimdMode) -> (bool, bool) {
    let avx = crate::simd::simd_available();
    match mode {
        SimdMode::Scalar => (false, false),
        SimdMode::Force => (avx, avx),
        SimdMode::Auto => (avx, false),
    }
}

/// The one symbolic phase, for any node list: shape checks, Eq. 2
/// estimation summed over nodes, one shared tiling, a slot layout per
/// node, and the accumulator bounds.
///
/// Hash-accumulator sizing (§III-C): a row's bound is the max over nodes
/// of what that node can hold in the row. Mask-preload kernels hold at
/// most `nnz(M[i,:])` entries; the vanilla kernel must hold every
/// distinct intermediate column, bounded by `Σ nnz(B[k,:])` (= `W[i]`
/// minus the mask term, saturating) and by `ncols` — or by `ncols` alone
/// when `A` is an earlier node, whose structure is unknown at freeze time
/// (its row work is proxied by the mask bound, too). The estimation runs
/// in the calling thread, panic-contained so a pathological input (or the
/// `work-estimate` failpoint) loses the plan, not the process.
pub(crate) fn prepare<T: Copy + Sync>(
    config: &Config,
    nodes: Vec<Node<T>>,
    inputs: &[&Csr<T>],
) -> Result<PlanCore<T>, SparseError> {
    // the first node's `A` is external (a node reads only earlier nodes)
    // and fixes the row count every node shares
    let nrows = match nodes.first().map(|n| n.a) {
        Some(OperandRef::Ext(e)) => inputs[e].nrows(),
        _ => 0,
    };
    let mut ncols: Vec<usize> = Vec::with_capacity(nodes.len());
    for node in &nodes {
        let (b, mask) = (inputs[node.b], inputs[node.mask]);
        let (a_rows, inner) = match node.a {
            OperandRef::Ext(e) => (inputs[e].nrows(), inputs[e].ncols()),
            OperandRef::Node(j) => (nrows, ncols[j]),
        };
        if inner != b.nrows() {
            return Err(SparseError::ShapeMismatch {
                expected: (inner, b.ncols()),
                found: (b.nrows(), b.ncols()),
                context: "masked_spgemm: A×B inner dimension",
            });
        }
        if a_rows != nrows {
            return Err(SparseError::ShapeMismatch {
                expected: (nrows, inner),
                found: (a_rows, inner),
                context: "masked_spgemm: A rows",
            });
        }
        let patterns = node.post.iter().filter_map(|p| match *p {
            PostOpSpec::Intersect(e) | PostOpSpec::Subtract(e) => Some(inputs[e]),
            _ => None,
        });
        for (m, context) in std::iter::once((mask, "masked_spgemm: mask shape"))
            .chain(patterns.map(|p| (p, "masked_spgemm: fused pattern shape")))
        {
            if (m.nrows(), m.ncols()) != (nrows, b.ncols()) {
                return Err(SparseError::ShapeMismatch {
                    expected: (nrows, b.ncols()),
                    found: (m.nrows(), m.ncols()),
                    context,
                });
            }
        }
        ncols.push(b.ncols());
    }

    let n_threads = config.resolved_threads();
    let n_tiles = config.resolved_tiles(nrows);
    let config = *config;
    let vanilla = matches!(config.kernel.iteration, IterationSpace::Vanilla);
    let prologue = catch_tile_panic(|| {
        let node_work: Vec<Vec<u64>> = nodes
            .iter()
            .map(|n| match n.a {
                OperandRef::Ext(e) => row_work(inputs[e], inputs[n.b], inputs[n.mask]),
                OperandRef::Node(_) => {
                    (0..nrows).map(|i| inputs[n.mask].row_nnz(i) as u64).collect()
                }
            })
            .collect();
        let row_bound = |i: usize| {
            let node_bound = |(n, w): (&Node<T>, &Vec<u64>)| {
                let (ncols, m) = (inputs[n.b].ncols(), inputs[n.mask].row_nnz(i));
                match n.a {
                    OperandRef::Ext(_) if vanilla => {
                        (w[i].saturating_sub(m as u64) as usize).min(ncols)
                    }
                    OperandRef::Node(_) if vanilla => ncols,
                    _ => m,
                }
            };
            nodes.iter().zip(&node_work).map(node_bound).max().unwrap_or(0)
        };
        let summed: Vec<u64>;
        let work = match &node_work[..] {
            [w] => w,
            ws => {
                summed = (0..nrows).map(|i| ws.iter().map(|w| w[i]).sum()).collect();
                &summed
            }
        };
        let estimated_work = total_work(work);
        let tiles = tiles_for(config.tiling, nrows, work, n_tiles);
        let max_row_entries = (0..nrows).map(row_bound).max().unwrap_or(1);
        // Overbooked sizing (Tailors): take the configured quantile of the
        // *same* per-row bounds instead of their max. Only the hash family
        // can detect and recover from overflow, so everything else keeps
        // the hard bound.
        let overbook_row_entries = match (config.kernel.overbook, config.kernel.accumulator) {
            (Overbook::Quantile { q }, AccumulatorKind::Hash(_)) if nrows > 0 => {
                let mut bound: Vec<usize> = (0..nrows).map(row_bound).collect();
                bound.sort_unstable();
                // nearest-rank quantile, clamped to [1, max]
                let rank = ((q.clamp(0.0, 1.0) * nrows as f64).ceil() as usize).clamp(1, nrows);
                bound[rank - 1].clamp(1, max_row_entries.max(1))
            }
            _ => max_row_entries,
        };
        let layouts: Vec<SlotLayout> =
            nodes.iter().map(|node| SlotLayout::new(&tiles, inputs[node.mask])).collect();
        (estimated_work, tiles, layouts, max_row_entries, overbook_row_entries)
    });
    let (estimated_work, tiles, layouts, max_row_entries, overbook_row_entries) = match prologue {
        Ok(v) => v,
        Err(msg) => {
            return Err(SparseError::Internal { detail: format!("work estimation: {msg}") })
        }
    };
    let (simd, simd_probe) = resolve_simd(config.kernel.simd);
    Ok(PlanCore {
        config,
        n_threads,
        nrows,
        tiles,
        nodes,
        layouts,
        estimated_work,
        max_row_entries,
        overbook_row_entries,
        max_ncols: ncols.into_iter().max().unwrap_or(0),
        simd,
        simd_probe,
        plan_id: NEXT_PLAN_ID.fetch_add(1, Ordering::Relaxed),
    })
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

/// How much of one input's structure a plan froze — and hence how much
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

/// Structural guard for one positional input. Comparable, so the service
/// layer can check a cached plan against a job's inputs without hashing
/// them twice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ExtFingerprint {
    pub(crate) pin: Pin,
    pub(crate) hash: u64,
    pub(crate) shape: (usize, usize),
}

/// Fingerprint every input at the tier the nodes froze it at.
pub(crate) fn fingerprint<T: Copy>(
    config: &Config,
    nodes: &[Node<T>],
    inputs: &[&Csr<T>],
) -> Vec<ExtFingerprint> {
    let vanilla = matches!(config.kernel.iteration, IterationSpace::Vanilla);
    let mut pins = vec![Pin::Dims; inputs.len()];
    for node in nodes {
        pins[node.mask] = pins[node.mask].max(Pin::Rows);
        if let (true, OperandRef::Ext(e)) = (vanilla, node.a) {
            pins[e] = pins[e].max(Pin::RowsAndCols);
            pins[node.b] = pins[node.b].max(Pin::Rows);
        }
    }
    inputs
        .iter()
        .zip(pins)
        .map(|(m, pin)| ExtFingerprint {
            pin,
            hash: structure_hash(m, pin),
            shape: (m.nrows(), m.ncols()),
        })
        .collect()
}

/// Cross-execution value scratch: one slot buffer per node (see
/// [`SlotBufs`]). Re-executing a plan resizes them *without clearing*
/// and gets each output node's buffers back from the compaction step — so
/// the steady state allocates nothing and memsets nothing.
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
    pub(crate) slots: Vec<SlotBufs<S::T>>,
    pub(crate) accums: Vec<Mutex<Option<Box<dyn std::any::Any + Send>>>>,
}

impl<S: Semiring> Default for PlanScratch<S> {
    fn default() -> Self {
        PlanScratch { slots: Vec::new(), accums: Vec::new() }
    }
}

/// A run's outputs, one per output node in node order, plus its stats.
pub(crate) type Outputs<T, X> = Result<(Vec<Csr<T>>, X), SparseError>;

/// The one output of a single-product run.
pub(crate) fn sole<T, X>(run: Outputs<T, X>) -> Result<(Csr<T>, X), SparseError> {
    let (mut outs, stats) = run?;
    let missing = || SparseError::Internal { detail: "product plan produced no output".into() };
    Ok((outs.pop().ok_or_else(missing)?, stats))
}

/// A reusable execution plan: the frozen symbolic phase, the structural
/// fingerprints guarding it, cross-run value scratch, and a handle to the
/// executor it runs on. Through the public API it is one masked product;
/// a [`crate::PlanGraph`] is the same plan over `N` nodes.
///
/// Built by [`Executor::plan`](crate::Executor::plan); re-executed with
/// [`execute`](Plan::execute). See [`crate::Session`] for the
/// plan-management loop (build lazily, rebuild on structure drift) done
/// for you.
pub struct Plan<S: Semiring> {
    pub(crate) core: PlanCore<S::T>,
    pub(crate) fps: Vec<ExtFingerprint>,
    pub(crate) scratch: PlanScratch<S>,
    pub(crate) exec: Arc<ExecutorShared>,
}

impl<S: Semiring> Plan<S> {
    /// Freeze `nodes` against `inputs`: the symbolic phase plus the
    /// fingerprints guarding it. A caller that already holds the inputs'
    /// fingerprints passes them as `fps` — the Service, whose cache
    /// entries count as `svc.plan_cache_misses` rather than
    /// `exec.plan_builds`.
    pub(crate) fn freeze(
        exec: Arc<ExecutorShared>,
        config: &Config,
        nodes: Vec<Node<S::T>>,
        inputs: &[&Csr<S::T>],
        fps: Option<Vec<ExtFingerprint>>,
    ) -> Result<Self, SparseError> {
        let core = prepare(config, nodes, inputs)?;
        let fps = fps.unwrap_or_else(|| {
            obs::incr(obs::Counter::ExecPlanBuilds);
            fingerprint(&core.config, &core.nodes, inputs)
        });
        Ok(Plan { core, fps, scratch: PlanScratch::default(), exec })
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
        self.check(&[a, b, mask])
    }

    /// [`validate`](Plan::validate) over the plan's positional inputs, for
    /// products and graphs alike: the input count, then every shape (a
    /// mismatch is named `"shape"`), then every structure hash, naming the
    /// first drifted input by its product position — `"A"`, `"B"` or
    /// `"mask"` (a graph renames it, see `PlanGraph::validate`).
    pub(crate) fn check(&self, inputs: &[&Csr<S::T>]) -> Result<(), SparseError> {
        let fps = &self.fps;
        if inputs.len() != fps.len() {
            return Err(SparseError::InvalidConfig {
                detail: format!(
                    "plan was built with {} inputs but {} were supplied",
                    fps.len(),
                    inputs.len()
                ),
            });
        }
        if inputs.iter().zip(fps).any(|(m, fp)| (m.nrows(), m.ncols()) != fp.shape) {
            return Err(SparseError::PlanStructureMismatch { operand: "shape" });
        }
        for (i, (m, fp)) in inputs.iter().zip(fps).enumerate() {
            if structure_hash(m, fp.pin) != fp.hash {
                let operand = ["A", "B", "mask"].get(i).copied().unwrap_or("input");
                return Err(SparseError::PlanStructureMismatch { operand });
            }
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
        sole(self.run::<Plain>(&[a, b, mask], None))
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
        sole(self.run::<Plain>(&[a, b, mask], Some(cancel)))
    }

    /// Revalidate `inputs`, then run every node and return the output
    /// nodes' results in node order.
    pub(crate) fn run<P: driver::PostOps<S::T>>(
        &mut self,
        inputs: &[&Csr<S::T>],
        cancel: Option<&CancelToken>,
    ) -> Outputs<S::T, RunStats> {
        let setup_start = Instant::now();
        self.check(inputs)?;
        let setup = setup_start.elapsed();
        let Plan { core, scratch, exec, .. } = self;
        driver::run::<S, P>(exec, core, scratch, inputs, cancel, setup, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspgemm_sparse::Idx;

    fn product(cfg: &Config, a: &Csr<f64>, b: &Csr<f64>, m: &Csr<f64>) -> PlanCore<f64> {
        prepare(cfg, vec![Node::product()], &[a, b, m]).unwrap()
    }

    fn product_fps(cfg: &Config, a: &Csr<f64>, b: &Csr<f64>, m: &Csr<f64>) -> Vec<ExtFingerprint> {
        fingerprint(cfg, &[Node::product()], &[a, b, m])
    }

    #[test]
    fn fingerprint_is_structure_only() {
        let m1 = Csr::try_from_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0f64, 2.0])
            .unwrap();
        let m2 = Csr::try_from_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![9.0f64, 8.0])
            .unwrap();
        let cfg = Config::default();
        assert_eq!(
            product_fps(&cfg, &m1, &m1, &m1),
            product_fps(&cfg, &m2, &m2, &m2),
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
        let pins = |cfg: &Config| -> Vec<Pin> {
            product_fps(cfg, &x, &x, &x).iter().map(|fp| fp.pin).collect()
        };
        assert_eq!(
            pins(&vanilla),
            [Pin::RowsAndCols, Pin::Rows, Pin::Rows],
            "vanilla sizes from Eq. 2 row work: A cols and B row lengths are frozen"
        );
        assert_eq!(
            pins(&Config::default()),
            [Pin::Dims, Pin::Dims, Pin::Rows],
            "mask-bounded kernels read A and B fresh; the mask slot layout stays pinned"
        );
    }

    #[test]
    fn plan_ids_are_unique_and_nonzero() {
        let cfg = Config::default();
        let m = Csr::try_from_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0f64; 2]).unwrap();
        let p1 = product(&cfg, &m, &m, &m);
        let p2 = product(&cfg, &m, &m, &m);
        assert_ne!(p1.plan_id, 0);
        assert_ne!(p1.plan_id, p2.plan_id);
    }

    #[test]
    fn prepare_rejects_shape_mismatches() {
        let cfg = Config::default();
        let a = Csr::<f64>::zeros(3, 4);
        let b = Csr::<f64>::zeros(5, 3); // inner 4 != 5
        let m = Csr::<f64>::zeros(3, 3);
        let prep = |b: &Csr<f64>, m: &Csr<f64>| prepare(&cfg, vec![Node::product()], &[&a, b, m]);
        assert!(matches!(
            prep(&b, &m),
            Err(SparseError::ShapeMismatch { context: "masked_spgemm: A×B inner dimension", .. })
        ));
        let b2 = Csr::<f64>::zeros(4, 3);
        let bad_mask = Csr::<f64>::zeros(2, 3);
        assert!(matches!(
            prep(&b2, &bad_mask),
            Err(SparseError::ShapeMismatch { context: "masked_spgemm: mask shape", .. })
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

        let off = product(&Config::default(), &m, &m, &m);
        assert_eq!(off.max_row_entries, 6);
        assert_eq!(off.overbook_row_entries, 6, "overbooking defaults off");

        let p90 = Config::builder()
            .kernel_policy(KernelPolicy::new().overbook(Overbook::p90()))
            .build();
        let core = product(&p90, &m, &m, &m);
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
        assert_eq!(product(&dense, &m, &m, &m).overbook_row_entries, 6);
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
        let core = product(&cfg, &m, &m, &m);
        let layout = &core.layouts[0];
        assert_eq!(layout.bound, 6, "slot bound is nnz(M)");
        assert_eq!(layout.slot_ranges.len(), core.tiles.len());
        assert_eq!(layout.row_ranges.len(), core.tiles.len());
        // slot ranges are a contiguous partition of [0, bound)
        let mut prev = 0;
        for &(lo, hi) in &layout.slot_ranges {
            assert_eq!(lo, prev);
            prev = hi;
        }
        assert_eq!(prev, layout.bound);
        assert_eq!((core.nrows, core.max_ncols), (4, 4));
    }
}
