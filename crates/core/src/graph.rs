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
//! A [`PlanGraph`] is the same frozen plan a single product uses
//! ([`crate::Plan`]), over `N` product nodes instead of one:
//!
//! * every node is a masked product `mask ⊙ (A × B)` whose `mask` and `B`
//!   are *external* inputs (their structure is needed at freeze time for
//!   the slot layout) while `A` may be either an external input or the
//!   output of an earlier node;
//! * element-wise consumers — `select`-by-threshold, `spones`
//!   re-canonicalisation, structural intersect/subtract — fuse into the
//!   kernel's row sink ([`mspgemm_accum::FusedSink`]) instead of running
//!   as separate passes over a materialised intermediate;
//! * all nodes share one row partition (their summed Eq. 2 estimates),
//!   and one pool run executes the *entire chain per tile*: the worker
//!   that finishes node `j`'s rows `[lo, hi)` immediately runs node `j+1`
//!   on the same rows, while they are still cache-resident.
//!
//! The builder only records and checks the declarations; freezing,
//! execution, the degraded retry (the whole chain of a lost tile, node by
//! node) and revalidation are the plan's (`crate::plan`,
//! `crate::driver`). All kernels fold each row's products in the same `k`
//! order, so the fused graph is bit-identical to the unfused pipeline,
//! and a one-node graph to a single product. Re-executing against
//! drifted external structure fails with
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

use crate::config::Config;
use crate::driver::{Fused, RunStats};
use crate::executor::Executor;
use crate::plan::{Node, OperandRef, Plan, PostOpSpec};
use mspgemm_sched::CancelToken;
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

/// Builder for a [`PlanGraph`]. Obtain one from [`crate::Session::graph`],
/// declare inputs and product nodes, fuse element-wise consumers onto
/// nodes, then [`build`](Self::build) against the concrete inputs.
pub struct GraphBuilder<S: Semiring> {
    exec: Executor,
    config: Config,
    n_ext: usize,
    nodes: Vec<Node<S::T>>,
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
        self.nodes.push(Node { a, b: b.0, mask: mask.0, post: Vec::new(), output: false });
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
        let exec = Arc::clone(self.exec.shared());
        let plan = Plan::freeze(exec, &self.config, self.nodes, inputs, None)?;
        Ok(PlanGraph { plan })
    }
}

/// A frozen, reusable multi-op plan graph. Build with
/// [`crate::Session::graph`] → [`GraphBuilder::build`]; re-execute with
/// [`execute`](Self::execute) — external structure is revalidated against
/// the build-time fingerprints on every call.
pub struct PlanGraph<S: Semiring> {
    plan: Plan<S>,
}

impl<S: Semiring> PlanGraph<S>
where
    S::T: PartialOrd,
{
    /// Product nodes in the graph.
    pub fn n_nodes(&self) -> usize {
        self.plan.core.nodes.len()
    }

    /// Shared row tiles the graph was cut into.
    pub fn n_tiles(&self) -> usize {
        self.plan.n_tiles()
    }

    /// Summed Eq. 2 work estimate across all nodes.
    pub fn estimated_work(&self) -> u64 {
        self.plan.estimated_work()
    }

    /// Check the inputs against the build-time structural fingerprints
    /// without executing. A drifted input is named `"graph input"` (a
    /// shape mismatch `"shape"`), since graph inputs are positional.
    pub fn validate(&self, inputs: &[&Csr<S::T>]) -> Result<(), SparseError> {
        graph_input(self.plan.check(inputs))
    }

    /// Execute the whole graph in one pool run and materialise the
    /// marked output nodes (in node order). Bit-identical to running the
    /// unfused pipeline node by node.
    ///
    /// Every node of a tile runs on the same worker, reading its
    /// predecessor's rows from the slot window that worker just wrote; a
    /// lost tile is recomputed **node by node in chain order** by the
    /// degraded retry, so a retried node's successors are rebuilt from its
    /// recovered output.
    pub fn execute(
        &mut self,
        inputs: &[&Csr<S::T>],
    ) -> Result<(Vec<Csr<S::T>>, RunStats), SparseError> {
        graph_input(self.plan.run::<Fused>(inputs, None))
    }

    /// [`execute`](Self::execute) under a cooperative [`CancelToken`]: the
    /// claim loop stops issuing tiles once the token fires, and the call
    /// returns [`SparseError::Cancelled`] /
    /// [`SparseError::DeadlineExceeded`], discarding the partial outputs.
    /// A run whose every tile finished before the cancel was observed
    /// still returns its (bit-identical) results, and the graph stays
    /// valid either way.
    pub fn execute_cancellable(
        &mut self,
        inputs: &[&Csr<S::T>],
        cancel: &CancelToken,
    ) -> Result<(Vec<Csr<S::T>>, RunStats), SparseError> {
        graph_input(self.plan.run::<Fused>(inputs, Some(cancel)))
    }
}

/// Rename a structure drift the plan named by product position
/// (`"A"`/`"B"`/`"mask"`) to `"graph input"`.
fn graph_input<X>(r: Result<X, SparseError>) -> Result<X, SparseError> {
    r.map_err(|e| match e {
        SparseError::PlanStructureMismatch { operand } if operand != "shape" => {
            SparseError::PlanStructureMismatch { operand: "graph input" }
        }
        e => e,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spgemm, Session};
    use mspgemm_rt::obs;
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
        assert!(matches!(e, SparseError::PlanStructureMismatch { operand: "graph input" }), "{e}");
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
