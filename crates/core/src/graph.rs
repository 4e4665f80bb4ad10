//! Fused multi-op plan graphs: a frozen DAG of masked products plus
//! element-wise consumers, executed tile-by-tile while cache-hot.
//!
//! The paper's workloads rarely stop at one `C = M ⊙ (A × B)`: k-truss
//! peels with a *select* over the support matrix, BFS/BC chase a chain of
//! per-level products, triangle counting reduces the product it just
//! built. Run through [`crate::Session`] those steps are separate pool
//! runs with fully materialised intermediates between them — every
//! element of an intermediate is written to memory, read back by the
//! next memory-bound pass, and thrown away.
//!
//! A [`PlanGraph`] freezes the whole chain instead:
//!
//! * every node is a masked product `mask ⊙ (A × B)` whose `mask` and `B`
//!   are *external* inputs (their structure is needed at freeze time for
//!   the slot layout) while `A` may be either an external input or the
//!   output of an earlier node;
//! * element-wise consumers — `select`-by-threshold, `spones`
//!   re-canonicalisation, structural intersect/subtract — fuse into the
//!   kernel's row sink ([`mspgemm_accum::FusedSink`]) instead of running
//!   as separate passes over a materialised intermediate;
//! * all nodes share one FLOP-balanced row partition (their summed Eq. 2
//!   estimates), and one pool run executes the *entire chain per tile*:
//!   the worker that finishes node `j`'s rows `[lo, hi)` immediately runs
//!   node `j+1` on the same rows, while they are still cache-resident.
//!
//! The chaining is sound because an output row `i` of a masked product
//! reads only row `i` of its `A` operand: with a single shared row
//! partition, node `j+1`'s tile needs exactly the rows of node `j` that
//! the same worker just wrote into its own slot window — no cross-tile
//! synchronisation, no barrier between nodes.
//!
//! Fault tolerance mirrors the single-product driver: a panicking tile
//! loses only its own chain, and the degraded serial retry recomputes
//! **every node of that tile in order** (vanilla kernel + dense `u64`
//! accumulator), so a retried node's successors are rebuilt from its
//! recovered output and can never observe a poisoned intermediate. All
//! kernels fold each row's products in the same `k` order, so the retry
//! — and the whole fused graph — is bit-identical to the unfused
//! pipeline.
//!
//! External inputs are guarded by the same tiered structural fingerprints
//! as [`crate::Plan`]: re-executing against drifted structure fails with
//! [`SparseError::PlanStructureMismatch`] instead of computing garbage.
//!
//! ```
//! use mspgemm_core::{Config, Session};
//! use mspgemm_sparse::{Csr, PlusPair};
//!
//! // one peeling round of 3-truss: S = A ⊙ (A × A), keep support ≥ 1,
//! // re-canonicalise to ones — select and spones fused into the gather
//! let a = Csr::try_from_parts(
//!     4, 4,
//!     vec![0, 3, 5, 8, 10],
//!     vec![1, 2, 3, 0, 2, 0, 1, 3, 0, 2],
//!     vec![1u64; 10],
//! ).unwrap();
//! let session = Session::<PlusPair>::new(Config::default());
//! let mut gb = session.graph();
//! let x = gb.input();
//! let n = gb.product(x, x, x);
//! gb.select_ge(n, 1);
//! gb.fill(n, 1);
//! let mut g = gb.build(&[&a]).unwrap();
//! let (outs, _) = g.execute(&[&a]).unwrap();
//! assert!(outs[0].nnz() > 0); // the triangle 0-1-2 survives
//! ```

use std::sync::Arc;
use std::time::Instant;

use crate::config::{Config, IterationSpace};
use crate::driver::RunStats;
use crate::engine::{
    compact, compute_tile, dispatch, recover, tile_outcome, AccVisitor, RowKernel, SlotBufs,
    SlotLayout, TileAcc, TileLedger, TileSlots, TileWindow,
};
use crate::executor::{Executor, ExecutorShared};
use crate::plan::{next_plan_id, resolve_simd, structure_hash, Pin};
use mspgemm_accum::{Accumulator, DenseAccumulator, FusedOp, FusedStage};
use mspgemm_rt::{failpoint, obs};
use mspgemm_sched::{
    catch_tile_panic,
    tile::tiles_for,
    work::{row_work, total_work},
    PoolRunError, ThreadReport, Tile,
};
use mspgemm_sparse::{Csr, Semiring, SparseError};

/// Handle to one external input of a graph under construction. Positional:
/// the `n`-th call to [`GraphBuilder::input`] names `inputs[n]` at
/// [`build`](GraphBuilder::build) and [`execute`](PlanGraph::execute)
/// time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExtId(usize);

/// Handle to one product node of a graph under construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeId(usize);

/// The `A` operand of a product node: an external input or the output of
/// an earlier node.
#[derive(Clone, Copy, Debug)]
pub enum Operand {
    /// An external input.
    Ext(ExtId),
    /// The output of an earlier node in the same graph.
    Node(NodeId),
}

impl From<ExtId> for Operand {
    fn from(e: ExtId) -> Self {
        Operand::Ext(e)
    }
}

impl From<NodeId> for Operand {
    fn from(n: NodeId) -> Self {
        Operand::Node(n)
    }
}

/// Internal, index-resolved form of [`Operand`].
#[derive(Clone, Copy, Debug)]
enum OperandRef {
    Ext(usize),
    Node(usize),
}

/// One element-wise consumer fused into a node's row gather. Pattern ops
/// name an external input by index; the pattern is read fresh at run
/// time, so only its shape is load-bearing for the frozen graph.
#[derive(Clone, Copy, Debug)]
enum PostOpSpec<T> {
    SelectGe(T),
    Fill(T),
    Intersect(usize),
    Subtract(usize),
}

/// One node as declared on the builder, before freezing.
struct NodeDecl<T> {
    a: OperandRef,
    b: usize,
    mask: usize,
    post: Vec<PostOpSpec<T>>,
    output: bool,
}

/// Builder for a [`PlanGraph`]. Obtain one from [`crate::Session::graph`],
/// declare inputs and product nodes, fuse element-wise consumers onto
/// nodes, then [`build`](Self::build) against the concrete inputs.
pub struct GraphBuilder<S: Semiring> {
    exec: Executor,
    config: Config,
    n_ext: usize,
    nodes: Vec<NodeDecl<S::T>>,
    any_output: bool,
    broken: Option<&'static str>,
}

impl<S: Semiring> GraphBuilder<S>
where
    S::T: PartialOrd,
{
    /// A builder on a specific executor with the given configuration.
    pub fn on(exec: &Executor, config: Config) -> Self {
        GraphBuilder {
            exec: exec.clone(),
            config,
            n_ext: 0,
            nodes: Vec::new(),
            any_output: false,
            broken: None,
        }
    }

    /// Declare the next external input (positional).
    pub fn input(&mut self) -> ExtId {
        self.n_ext += 1;
        ExtId(self.n_ext - 1)
    }

    /// Declare a masked product node `mask ⊙ (A × B)`. `B` and `mask`
    /// must be external inputs (the slot layout needs their structure at
    /// freeze time); `A` may be an external input or an earlier node.
    pub fn product(&mut self, a: impl Into<Operand>, b: ExtId, mask: ExtId) -> NodeId {
        let a = match a.into() {
            Operand::Ext(e) => {
                if e.0 >= self.n_ext {
                    self.broken = Some("product A references an undeclared input");
                }
                OperandRef::Ext(e.0)
            }
            Operand::Node(n) => {
                if n.0 >= self.nodes.len() {
                    self.broken = Some("product A references a later (or foreign) node");
                }
                OperandRef::Node(n.0)
            }
        };
        if b.0 >= self.n_ext || mask.0 >= self.n_ext {
            self.broken = Some("product B/mask references an undeclared input");
        }
        self.nodes.push(NodeDecl { a, b: b.0, mask: mask.0, post: Vec::new(), output: false });
        NodeId(self.nodes.len() - 1)
    }

    fn push_post(&mut self, node: NodeId, op: PostOpSpec<S::T>) {
        match self.nodes.get_mut(node.0) {
            Some(n) => n.post.push(op),
            None => self.broken = Some("post-op references a foreign node"),
        }
    }

    /// Fuse a `select`-by-threshold onto `node`: keep entries with
    /// `v >= threshold` (the k-truss support filter).
    pub fn select_ge(&mut self, node: NodeId, threshold: S::T) {
        self.push_post(node, PostOpSpec::SelectGe(threshold));
    }

    /// Fuse an `spones`-style re-canonicalisation onto `node`: every
    /// surviving value becomes `one`.
    pub fn fill(&mut self, node: NodeId, one: S::T) {
        self.push_post(node, PostOpSpec::Fill(one));
    }

    /// Fuse a structural `ewise_mult` onto `node`: keep only columns
    /// present in `pattern`'s matching row.
    pub fn intersect(&mut self, node: NodeId, pattern: ExtId) {
        if pattern.0 >= self.n_ext {
            self.broken = Some("intersect pattern references an undeclared input");
        }
        self.push_post(node, PostOpSpec::Intersect(pattern.0));
    }

    /// Fuse a structural `ewise_without` onto `node`: drop columns
    /// present in `pattern`'s matching row.
    pub fn subtract(&mut self, node: NodeId, pattern: ExtId) {
        if pattern.0 >= self.n_ext {
            self.broken = Some("subtract pattern references an undeclared input");
        }
        self.push_post(node, PostOpSpec::Subtract(pattern.0));
    }

    /// Mark `node`'s (post-op-filtered) result for materialisation. If no
    /// node is marked, the final node is the sole output.
    pub fn mark_output(&mut self, node: NodeId) {
        match self.nodes.get_mut(node.0) {
            Some(n) => {
                n.output = true;
                self.any_output = true;
            }
            None => self.broken = Some("mark_output references a foreign node"),
        }
    }

    /// Freeze the graph against the concrete inputs: validate shapes,
    /// estimate work, cut the shared FLOP-balanced tiles, lay out every
    /// node's mask-bound slots, and fingerprint the external structure.
    pub fn build(mut self, inputs: &[&Csr<S::T>]) -> Result<PlanGraph<S>, SparseError> {
        if let Some(detail) = self.broken {
            return Err(SparseError::InvalidConfig { detail: detail.to_string() });
        }
        if self.nodes.is_empty() {
            return Err(SparseError::InvalidConfig {
                detail: "a plan graph needs at least one product node".to_string(),
            });
        }
        if inputs.len() != self.n_ext {
            return Err(SparseError::InvalidConfig {
                detail: format!(
                    "graph declared {} inputs but {} were supplied",
                    self.n_ext,
                    inputs.len()
                ),
            });
        }
        if !self.any_output {
            if let Some(last) = self.nodes.last_mut() {
                last.output = true;
            }
        }

        // --- shape validation: all nodes share one row partition ---
        let nrows = inputs[self.nodes[0].mask].nrows();
        let mut node_ncols = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let b = inputs[node.b];
            let mask = inputs[node.mask];
            let ncols = b.ncols();
            if mask.nrows() != nrows || mask.ncols() != ncols {
                return Err(SparseError::ShapeMismatch {
                    expected: (nrows, ncols),
                    found: (mask.nrows(), mask.ncols()),
                    context: "plan graph: mask shape",
                });
            }
            let a_shape = match node.a {
                OperandRef::Ext(e) => (inputs[e].nrows(), inputs[e].ncols()),
                OperandRef::Node(j) => (nrows, node_ncols[j]),
            };
            if a_shape.0 != nrows || a_shape.1 != b.nrows() {
                return Err(SparseError::ShapeMismatch {
                    expected: (nrows, b.nrows()),
                    found: a_shape,
                    context: "plan graph: A×B inner dimension",
                });
            }
            for post in &node.post {
                if let PostOpSpec::Intersect(p) | PostOpSpec::Subtract(p) = *post {
                    let pat = inputs[p];
                    if pat.nrows() != nrows || pat.ncols() != ncols {
                        return Err(SparseError::ShapeMismatch {
                            expected: (nrows, ncols),
                            found: (pat.nrows(), pat.ncols()),
                            context: "plan graph: fused pattern shape",
                        });
                    }
                }
            }
            node_ncols.push(ncols);
        }

        let config = self.config;
        let n_threads = config.resolved_threads();
        let n_tiles = config.resolved_tiles(nrows);
        let nodes = std::mem::take(&mut self.nodes);

        // --- work estimation + shared tiling + per-node slot layout ---
        // Contained like the plan prologue: a pathological input (or the
        // `work-estimate` failpoint) loses the build, not the process.
        let prologue = catch_tile_panic(|| {
            let mut summed = vec![0u64; nrows];
            let mut caps = Vec::with_capacity(nodes.len());
            for node in &nodes {
                let mask = inputs[node.mask];
                let b = inputs[node.b];
                match node.a {
                    OperandRef::Ext(e) => {
                        let w = row_work(inputs[e], b, mask);
                        let cap = match config.kernel.iteration {
                            // vanilla sizes its accumulator from the Eq. 2
                            // estimate (see the plan prologue)
                            IterationSpace::Vanilla => (0..nrows)
                                .map(|i| {
                                    (w[i].saturating_sub(mask.row_nnz(i) as u64) as usize)
                                        .min(b.ncols())
                                })
                                .max()
                                .unwrap_or(1),
                            _ => (0..nrows).map(|i| mask.row_nnz(i)).max().unwrap_or(1),
                        };
                        for (s, wi) in summed.iter_mut().zip(&w) {
                            *s += *wi;
                        }
                        caps.push(cap);
                    }
                    OperandRef::Node(_) => {
                        // the intermediate's structure is unknown at
                        // freeze time: proxy its row work with the mask
                        // bound, and fall back to the dense column bound
                        // for vanilla accumulator sizing
                        let cap = match config.kernel.iteration {
                            IterationSpace::Vanilla => b.ncols().max(1),
                            _ => (0..nrows).map(|i| mask.row_nnz(i)).max().unwrap_or(1),
                        };
                        for (i, s) in summed.iter_mut().enumerate() {
                            *s += mask.row_nnz(i) as u64;
                        }
                        caps.push(cap);
                    }
                }
            }
            let estimated_work = total_work(&summed);
            let tiles = tiles_for(config.tiling, nrows, &summed, n_tiles);
            let layouts: Vec<SlotLayout> =
                nodes.iter().map(|node| SlotLayout::new(&tiles, inputs[node.mask])).collect();
            (estimated_work, tiles, layouts, caps)
        });
        let (estimated_work, tiles, layouts, caps) = match prologue {
            Ok(v) => v,
            Err(msg) => {
                return Err(SparseError::Internal {
                    detail: format!("graph work estimation: {msg}"),
                })
            }
        };

        // --- external fingerprints, tiered exactly like Plan's ---
        let vanilla = matches!(config.kernel.iteration, IterationSpace::Vanilla);
        let mut pins = vec![Pin::Dims; self.n_ext];
        for node in &nodes {
            // the mask's row pointers feed the slot layout: always pinned
            pins[node.mask] = pins[node.mask].max(Pin::Rows);
            if vanilla {
                if let OperandRef::Ext(e) = node.a {
                    // Eq. 2 walked A's columns into B's row lengths and
                    // the estimate froze the accumulator bound
                    pins[e] = pins[e].max(Pin::RowsAndCols);
                    pins[node.b] = pins[node.b].max(Pin::Rows);
                }
            }
            // intersect/subtract patterns are read fresh at run time;
            // only their shape is load-bearing (Pin::Dims covers it)
        }
        let ext_fps: Vec<ExtFingerprint> = inputs
            .iter()
            .zip(&pins)
            .map(|(m, &pin)| ExtFingerprint {
                pin,
                hash: structure_hash(m, pin),
                shape: (m.nrows(), m.ncols()),
            })
            .collect();

        let frozen: Vec<NodePlan<S::T>> = nodes
            .into_iter()
            .zip(layouts)
            .zip(node_ncols)
            .map(|((decl, layout), ncols)| NodePlan {
                a: decl.a,
                b: decl.b,
                mask: decl.mask,
                post: decl.post,
                output: decl.output,
                ncols,
                layout,
            })
            .collect();

        let max_ncols = frozen.iter().map(|n| n.ncols).max().unwrap_or(1).max(1);
        let max_row_entries = caps.into_iter().max().unwrap_or(1).max(1);
        let row_ranges = tiles.iter().map(|t| (t.lo, t.hi)).collect();
        // one SIMD resolution, shared with single-product plans
        let (simd, simd_probe) = resolve_simd(config.kernel.simd);
        obs::incr(obs::Counter::ExecPlanBuilds);
        Ok(PlanGraph {
            core: GraphCore {
                config,
                n_threads,
                nrows,
                tiles,
                row_ranges,
                nodes: frozen,
                max_row_entries,
                max_ncols,
                simd,
                simd_probe,
                estimated_work,
                graph_id: next_plan_id(),
            },
            ext_fps,
            scratch: Vec::new(),
            exec: Arc::clone(self.exec.shared()),
        })
    }
}

/// Structural guard for one external input.
struct ExtFingerprint {
    pin: Pin,
    hash: u64,
    shape: (usize, usize),
}

/// One frozen product node.
struct NodePlan<T> {
    a: OperandRef,
    b: usize,
    mask: usize,
    post: Vec<PostOpSpec<T>>,
    output: bool,
    /// Output column count (`B.ncols`).
    ncols: usize,
    /// This node's mask-bound slot layout over the shared tiles.
    layout: SlotLayout,
}

/// The frozen symbolic phase of a whole graph.
struct GraphCore<T> {
    config: Config,
    n_threads: usize,
    nrows: usize,
    /// The shared row partition (summed per-node Eq. 2 estimates).
    tiles: Vec<Tile>,
    row_ranges: Vec<(usize, usize)>,
    nodes: Vec<NodePlan<T>>,
    /// Accumulator sizing bound, max over nodes.
    max_row_entries: usize,
    /// Dense-accumulator column bound, max over nodes.
    max_ncols: usize,
    /// SIMD co-iteration search / hash group probe in effect, resolved
    /// exactly like a single-product plan's.
    simd: bool,
    simd_probe: bool,
    estimated_work: u64,
    /// Keys the workers' cross-run accumulator scratch; drawn from the
    /// same sequence as single-product plan ids.
    graph_id: u64,
}

/// A frozen, reusable multi-op plan graph. Build with
/// [`crate::Session::graph`] → [`GraphBuilder::build`]; re-execute with
/// [`execute`](Self::execute) — external structure is revalidated against
/// the build-time fingerprints on every call.
pub struct PlanGraph<S: Semiring> {
    core: GraphCore<S::T>,
    ext_fps: Vec<ExtFingerprint>,
    /// Per-node slot buffers, kept across executions (the mask
    /// fingerprint pins each node's row layout).
    scratch: Vec<SlotBufs<S::T>>,
    exec: Arc<ExecutorShared>,
}

impl<S: Semiring> PlanGraph<S>
where
    S::T: PartialOrd,
{
    /// Product nodes in the graph.
    pub fn n_nodes(&self) -> usize {
        self.core.nodes.len()
    }

    /// Shared row tiles the graph was cut into.
    pub fn n_tiles(&self) -> usize {
        self.core.tiles.len()
    }

    /// Summed Eq. 2 work estimate across all nodes.
    pub fn estimated_work(&self) -> u64 {
        self.core.estimated_work
    }

    /// Check the inputs against the build-time structural fingerprints
    /// without executing.
    pub fn validate(&self, inputs: &[&Csr<S::T>]) -> Result<(), SparseError> {
        if inputs.len() != self.ext_fps.len() {
            return Err(SparseError::InvalidConfig {
                detail: format!(
                    "graph was built with {} inputs but {} were supplied",
                    self.ext_fps.len(),
                    inputs.len()
                ),
            });
        }
        for (m, fp) in inputs.iter().zip(&self.ext_fps) {
            if (m.nrows(), m.ncols()) != fp.shape {
                return Err(SparseError::PlanStructureMismatch { operand: "shape" });
            }
            if structure_hash(m, fp.pin) != fp.hash {
                return Err(SparseError::PlanStructureMismatch { operand: "graph input" });
            }
        }
        Ok(())
    }

    /// Execute the whole graph in one pool run and materialise the
    /// marked output nodes (in node order). Bit-identical to running the
    /// unfused pipeline node by node.
    ///
    /// The engine's three steps, chained per tile: every node of a tile
    /// runs on the same worker, reading its predecessor's rows from the
    /// slot window that worker just wrote; a lost tile is recomputed
    /// **node by node in chain order** by the degraded retry, so a
    /// retried node's successors are rebuilt from its recovered output;
    /// each output node is then compacted serially.
    pub fn execute(
        &mut self,
        inputs: &[&Csr<S::T>],
    ) -> Result<(Vec<Csr<S::T>>, RunStats), SparseError> {
        let setup_start = Instant::now();
        self.validate(inputs)?;
        let setup = setup_start.elapsed();

        let _guard = self.exec.run_lock.lock().unwrap_or_else(|e| e.into_inner());
        let before = obs::armed().then(obs::snapshot);
        obs::incr(obs::Counter::DriverRuns);
        obs::incr(obs::Counter::ExecPlanExecutes);
        let core = &self.core;
        let n_post: usize = core.nodes.iter().map(|n| n.post.len()).sum();
        obs::add(obs::Counter::FusionOpsFused, (core.nodes.len() + n_post) as u64);

        let start = Instant::now();
        let bufs = &mut self.scratch;
        if bufs.len() != core.nodes.len() {
            bufs.clear();
            bufs.resize_with(core.nodes.len(), SlotBufs::default);
        }
        for (nb, node) in bufs.iter_mut().zip(&core.nodes) {
            nb.resize(node.layout.bound, core.nrows, S::zero());
        }
        let ledger = TileLedger::new(core.tiles.len());
        let outcome = {
            let slots = bufs
                .iter_mut()
                .zip(&core.nodes)
                .map(|(nb, node)| TileSlots::new(nb, &node.layout, &core.tiles, &core.row_ranges))
                .collect::<Result<Vec<_>, _>>()?;
            let run = GraphRun { exec: &self.exec, core, inputs, slots: &slots, ledger: &ledger };
            dispatch::<S, _>(
                core.config.kernel.accumulator,
                core.simd_probe,
                core.max_ncols,
                core.max_row_entries,
                run,
            )
        };
        let (reports, failures) = tile_outcome(outcome)?;
        let retry = recover(&core.tiles, ledger, &failures, None, |t| {
            let mut windows: Vec<TileWindow<'_, S::T>> = bufs
                .iter_mut()
                .zip(&core.nodes)
                .map(|(nb, node)| node.layout.window(&core.tiles, t, nb))
                .collect();
            let mut ta = TileAcc::new(DenseAccumulator::<S, u64>::new(core.max_ncols));
            let make_full = || DenseAccumulator::<S, u64>::new(core.max_ncols);
            run_chain(core, inputs, &mut windows, RowKernel::RETRY, &mut ta, &make_full);
        })?;

        let mut outputs = Vec::new();
        for (node, nb) in core.nodes.iter().zip(bufs.iter_mut()) {
            if node.output {
                let slots = std::mem::take(nb);
                let shape = (core.nrows, node.ncols);
                let out = compact::<S>(&core.tiles, &node.layout, shape, slots, None, Some(nb))?;
                outputs.push(out);
            }
        }
        let output_nnz = outputs.iter().map(|c| c.nnz()).sum();
        let metrics = before.map(|b| obs::snapshot().delta_since(&b));
        let work = (core.estimated_work, core.tiles.len(), core.n_threads);
        let stats =
            RunStats::new(start.elapsed(), setup, retry, reports, output_nnz, work, metrics);
        Ok((outputs, stats))
    }
}

/// Instantiate the per-node fused-stage chain for one tile. Patterns
/// borrow the external inputs directly — they are co-iterated per row,
/// never copied.
fn build_stages<'p, T: Copy + PartialOrd>(
    post: &[PostOpSpec<T>],
    inputs: &'p [&'p Csr<T>],
) -> Vec<FusedStage<'p, T>> {
    post.iter()
        .map(|p| {
            FusedStage::new(match *p {
                PostOpSpec::SelectGe(t) => FusedOp::SelectGe(t),
                PostOpSpec::Fill(v) => FusedOp::Fill(v),
                PostOpSpec::Intersect(e) => FusedOp::Intersect(inputs[e]),
                PostOpSpec::Subtract(e) => FusedOp::Subtract(inputs[e]),
            })
        })
        .collect()
}

/// Run every node of one tile in chain order, each into its window of
/// `windows` with its fused post-ops applied in the gather. A node whose
/// `A` is an earlier node reads that node's window — written moments ago
/// by this same call, so cache-resident. The chaining is sound because an
/// output row `i` reads only row `i` of `A`, and every node shares the
/// row partition.
fn run_chain<S, A, G>(
    core: &GraphCore<S::T>,
    inputs: &[&Csr<S::T>],
    windows: &mut [TileWindow<'_, S::T>],
    k: RowKernel,
    ta: &mut TileAcc<S, A>,
    make_full: &G,
) where
    S: Semiring,
    S::T: PartialOrd,
    A: Accumulator<S>,
    G: Fn() -> A,
{
    for (ni, node) in core.nodes.iter().enumerate() {
        let (done, rest) = windows.split_at_mut(ni);
        let Some(w) = rest.first_mut() else { return };
        let (b, mask) = (inputs[node.b], inputs[node.mask]);
        let mut stages = build_stages(&node.post, inputs);
        match node.a {
            OperandRef::Ext(e) => {
                compute_tile(w, k, inputs[e], b, mask, &mut stages, ta, make_full)
            }
            OperandRef::Node(j) => {
                compute_tile(w, k, &done[j], b, mask, &mut stages, ta, make_full)
            }
        };
    }
}

/// The graph's parallel phase: one pool pass chaining every node per
/// tile. One worker-persistent accumulator serves the whole chain (keyed
/// by graph identity, so it survives across runs), sized at the widest
/// node's hard bound — which is also the overbook limit handed to the
/// row loop, so the graph path never spills.
struct GraphRun<'g, S: Semiring> {
    exec: &'g ExecutorShared,
    core: &'g GraphCore<S::T>,
    inputs: &'g [&'g Csr<S::T>],
    slots: &'g [TileSlots<'g, S::T>],
    ledger: &'g TileLedger,
}

impl<S: Semiring> AccVisitor<S> for GraphRun<'_, S>
where
    S::T: PartialOrd,
{
    type Out = Result<Vec<ThreadReport>, PoolRunError>;

    fn visit<A, F>(self, make: F) -> Self::Out
    where
        A: Accumulator<S> + 'static,
        F: Fn(usize) -> A + Copy + Send + Sync + 'static,
    {
        let core = self.core;
        let (n_nodes, n_tiles, full) = (core.nodes.len(), core.tiles.len(), core.max_row_entries);
        let k = RowKernel {
            iteration: core.config.kernel.iteration,
            simd: core.simd,
            overbook_limit: full,
        };
        self.exec.pool.run_tiles(core.n_threads, n_tiles, core.config.schedule, |_, ws, t| {
            if ws.current_tile_abandoned() {
                return;
            }
            let mut windows = Vec::with_capacity(n_nodes);
            for (ni, slots) in self.slots.iter().enumerate() {
                // decorrelate per-node failures under fault injection
                failpoint::maybe_fire(failpoint::TILE_KERNEL, (ni * n_tiles + t) as u64);
                let Some(w) = slots.claim(t, self.ledger) else { return };
                windows.push(w);
            }
            let ta = ws.get_or_build(core.graph_id, || TileAcc::new(make(full)));
            run_chain(core, self.inputs, &mut windows, k, ta, &|| make(full));
            if n_nodes > 1 {
                obs::add(obs::Counter::FusionTilesChained, (n_nodes - 1) as u64);
            }
            self.ledger.finish(ws, t, 0);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spgemm, Session};
    use mspgemm_sparse::{ops, PlusPair, PlusTimes};

    fn ring_with_chords(n: usize, seed: u64) -> Csr<f64> {
        let mut coo = mspgemm_sparse::Coo::new(n, n);
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..n {
            coo.push_symmetric(i, (i + 1) % n, 1.0);
            let j = (next() as usize) % n;
            if j != i {
                coo.push_symmetric(i, j, 1.0);
            }
        }
        coo.to_csr_with(|a, _| a)
    }

    fn cfg() -> Config {
        Config::builder().n_threads(2).n_tiles(4).build()
    }

    #[test]
    fn single_node_graph_matches_one_shot_spgemm() {
        let a = ring_with_chords(64, 7);
        let session = Session::<PlusTimes>::new(cfg());
        let mut gb = session.graph();
        let x = gb.input();
        let _n = gb.product(x, x, x);
        let mut g = gb.build(&[&a]).unwrap();
        let (outs, stats) = g.execute(&[&a]).unwrap();
        let (want, _) = spgemm::<PlusTimes>(&a, &a, &a, &cfg()).unwrap();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0], want);
        assert_eq!(stats.output_nnz, want.nnz());
    }

    #[test]
    fn fused_select_fill_matches_unfused_select_spones() {
        let a = ring_with_chords(80, 3).spones(1u64);
        let session = Session::<PlusPair>::new(cfg());
        let mut gb = session.graph();
        let x = gb.input();
        let n = gb.product(x, x, x);
        gb.select_ge(n, 1);
        gb.fill(n, 1);
        let mut g = gb.build(&[&a]).unwrap();
        let (outs, _) = g.execute(&[&a]).unwrap();

        let (support, _) = spgemm::<PlusPair>(&a, &a, &a, &cfg()).unwrap();
        let want = support.select(|_, _, v| v >= 1).spones(1u64);
        assert_eq!(outs[0], want);
    }

    #[test]
    fn fused_pattern_ops_match_ewise_reference() {
        let a = ring_with_chords(48, 11);
        let pat = ring_with_chords(48, 5).spones(1.0f64);
        let session = Session::<PlusTimes>::new(cfg());

        let mut gb = session.graph();
        let x = gb.input();
        let p = gb.input();
        let n = gb.product(x, x, x);
        gb.intersect(n, p);
        let mut g = gb.build(&[&a, &pat]).unwrap();
        let (outs, _) = g.execute(&[&a, &pat]).unwrap();
        let (c, _) = spgemm::<PlusTimes>(&a, &a, &a, &cfg()).unwrap();
        assert_eq!(outs[0], ops::ewise_mult::<PlusTimes>(&c, &pat).unwrap(), "intersect");

        let mut gb = session.graph();
        let x = gb.input();
        let p = gb.input();
        let n = gb.product(x, x, x);
        gb.subtract(n, p);
        let mut g = gb.build(&[&a, &pat]).unwrap();
        let (outs, _) = g.execute(&[&a, &pat]).unwrap();
        assert_eq!(outs[0], ops::ewise_without(&c, &pat).unwrap(), "subtract");
    }

    #[test]
    fn chained_node_consumes_predecessor_output() {
        // n0 = M ⊙ (A × A); n1 = M ⊙ (n0 × A): compare against running
        // the two products separately through the one-shot driver
        let a = ring_with_chords(72, 9);
        let session = Session::<PlusTimes>::new(cfg());
        let mut gb = session.graph();
        let x = gb.input();
        let n0 = gb.product(x, x, x);
        let n1 = gb.product(n0, x, x);
        gb.mark_output(n0);
        gb.mark_output(n1);
        let mut g = gb.build(&[&a]).unwrap();
        assert_eq!(g.n_nodes(), 2);
        let (outs, _) = g.execute(&[&a]).unwrap();

        let (c0, _) = spgemm::<PlusTimes>(&a, &a, &a, &cfg()).unwrap();
        let (c1, _) = spgemm::<PlusTimes>(&c0, &a, &a, &cfg()).unwrap();
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0], c0);
        assert_eq!(outs[1], c1, "successor must read the predecessor's slots");
    }

    #[test]
    fn fault_chain_retry_does_not_poison_successors() {
        // Named fault_: CI re-runs this under MSPGEMM_FAILPOINTS with
        // tile-kernel panics armed. A mid-chain tile panic must recover
        // through the whole-chain degraded retry with a bit-identical
        // result — including on re-execution over reused scratch.
        let a = ring_with_chords(96, 21);
        let session = Session::<PlusTimes>::new(cfg());
        let mut gb = session.graph();
        let x = gb.input();
        let n0 = gb.product(x, x, x);
        let n1 = gb.product(n0, x, x);
        gb.mark_output(n1);
        let mut g = gb.build(&[&a]).unwrap();

        let (c0, _) = spgemm::<PlusTimes>(&a, &a, &a, &cfg()).unwrap();
        let (want, _) = spgemm::<PlusTimes>(&c0, &a, &a, &cfg()).unwrap();
        for round in 0..3 {
            let (outs, _) = g.execute(&[&a]).unwrap();
            assert_eq!(outs[0], want, "round {round}");
        }
    }

    #[test]
    fn fault_graph_fused_ops_survive_degraded_retry() {
        // the fused select/fill chain must be re-applied by the retry too
        let a = ring_with_chords(90, 2).spones(1u64);
        let session = Session::<PlusPair>::new(cfg());
        let mut gb = session.graph();
        let x = gb.input();
        let n = gb.product(x, x, x);
        gb.select_ge(n, 2);
        gb.fill(n, 1);
        let mut g = gb.build(&[&a]).unwrap();
        let (support, _) = spgemm::<PlusPair>(&a, &a, &a, &cfg()).unwrap();
        let want = support.select(|_, _, v| v >= 2).spones(1u64);
        for round in 0..3 {
            let (outs, _) = g.execute(&[&a]).unwrap();
            assert_eq!(outs[0], want, "round {round}");
        }
    }

    #[test]
    fn graph_revalidates_external_structure() {
        let a = ring_with_chords(32, 4);
        let session = Session::<PlusTimes>::new(cfg());
        let mut gb = session.graph();
        let x = gb.input();
        let _ = gb.product(x, x, x);
        let mut g = gb.build(&[&a]).unwrap();
        let drifted = ring_with_chords(32, 5);
        let e = g.execute(&[&drifted]).unwrap_err();
        assert!(matches!(e, SparseError::PlanStructureMismatch { .. }), "{e}");
        // the graph itself stays valid for the original structure
        assert!(g.execute(&[&a]).is_ok());
    }

    #[test]
    fn builder_rejects_malformed_graphs() {
        let a = ring_with_chords(16, 1);
        let session = Session::<PlusTimes>::new(cfg());

        // no nodes
        let gb = session.graph();
        assert!(matches!(gb.build(&[]), Err(SparseError::InvalidConfig { .. })));

        // wrong input count
        let mut gb = session.graph();
        let x = gb.input();
        let _ = gb.product(x, x, x);
        assert!(matches!(gb.build(&[&a, &a]), Err(SparseError::InvalidConfig { .. })));

        // foreign node handle
        let mut gb = session.graph();
        let x = gb.input();
        let _ = gb.product(x, x, x);
        gb.mark_output(NodeId(7));
        assert!(matches!(gb.build(&[&a]), Err(SparseError::InvalidConfig { .. })));

        // inner-dimension mismatch
        let rect = {
            let mut coo = mspgemm_sparse::Coo::new(16, 8);
            coo.push(0, 1, 1.0f64);
            coo.to_csr_sum()
        };
        let mut gb = session.graph();
        let x = gb.input();
        let r = gb.input();
        let _ = gb.product(x, r, r); // mask shape 16×8 ok, but A 16×16 × B 16×8 ok...
        let mut gb2 = session.graph();
        let x2 = gb2.input();
        let r2 = gb2.input();
        let _ = gb2.product(r2, x2, x2); // A 16×8 × B 16×16: inner mismatch
        assert!(gb.build(&[&a, &rect]).is_ok());
        assert!(matches!(
            gb2.build(&[&a, &rect]),
            Err(SparseError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn outputs_default_to_the_last_node() {
        let a = ring_with_chords(40, 8);
        let session = Session::<PlusTimes>::new(cfg());
        let mut gb = session.graph();
        let x = gb.input();
        let n0 = gb.product(x, x, x);
        let _n1 = gb.product(n0, x, x);
        let mut g = gb.build(&[&a]).unwrap();
        let (outs, _) = g.execute(&[&a]).unwrap();
        assert_eq!(outs.len(), 1, "only the final node is materialised by default");
        let (c0, _) = spgemm::<PlusTimes>(&a, &a, &a, &cfg()).unwrap();
        let (c1, _) = spgemm::<PlusTimes>(&c0, &a, &a, &cfg()).unwrap();
        assert_eq!(outs[0], c1);
    }

    #[test]
    fn fusion_counters_tick_when_armed() {
        let a = ring_with_chords(64, 13).spones(1u64);
        let session = Session::<PlusPair>::new(cfg());
        let mut gb = session.graph();
        let x = gb.input();
        let n0 = gb.product(x, x, x);
        gb.select_ge(n0, 1);
        gb.fill(n0, 1);
        let mut g = gb.build(&[&a]).unwrap();
        obs::arm_metrics();
        let (_, stats) = g.execute(&[&a]).unwrap();
        let m = stats.metrics.expect("armed run must carry a metrics delta");
        assert_eq!(m.counter("fusion.ops_fused"), 3, "1 product + 2 fused post-ops");
        assert!(m.counter("fusion.sink_fused_elements") > 0);
    }
}
