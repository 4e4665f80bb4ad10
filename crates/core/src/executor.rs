//! The persistent execution layer: an [`Executor`] owning a long-lived
//! worker pool, against which plans ([`crate::plan::Plan`]) and one-shot
//! calls run.
//!
//! The paper's motivating workloads (triangle counting, k-truss, BFS —
//! §I) all call `C = M ⊙ (A × B)` in a loop. The free functions rebuild
//! the world per call: spawn `p` threads, estimate FLOPs, cut tiles, lay
//! out slots, allocate scratch, run, tear it all down. The `Executor`
//! keeps the expensive parts alive between calls:
//!
//! * worker threads are spawned once and *parked* between runs
//!   ([`mspgemm_sched::WorkerPool`]);
//! * the symbolic phase (config resolution, Eq. 2 estimates, tile
//!   boundaries, mask slot layout) is captured once in a
//!   [`Plan`] and revalidated cheaply on re-execution;
//! * a plan's slot buffers and per-worker accumulators survive across its
//!   runs in the plan's own scratch, whatever other plans run on the
//!   pool in between.
//!
//! Fault isolation is preserved through the pool: a panicking tile kills
//! (at most) a run, never the executor. Only a panic that escapes tile
//! isolation — scheduler-infrastructure failure — poisons the pool, after
//! which every call returns [`SparseError::ExecutorPoisoned`].
//!
//! The classic free function [`crate::driver::spgemm`] is a thin wrapper
//! over a lazily-created process-wide executor ([`Executor::global`]), so
//! existing callers transparently get the persistent pool.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::config::Config;
use crate::driver::{self, Job, Plain, RunStats};
use crate::plan::{self, Node, Plan, PlanScratch};
use mspgemm_rt::obs;
use mspgemm_sched::{WatchdogConfig, WorkerPool};
use mspgemm_sparse::{Csr, Semiring, SparseError};

/// State shared between an [`Executor`] and every [`Plan`] built on it.
pub(crate) struct ExecutorShared {
    /// The long-lived worker pool; grows to the widest run ever requested.
    pub(crate) pool: WorkerPool,
    /// Serializes runs: the pool executes one job at a time, and per-run
    /// metric deltas (`RunStats::metrics`) must not interleave.
    pub(crate) run_lock: Mutex<()>,
}

/// A persistent masked-SpGEMM execution context.
///
/// Cloning is cheap and shares the same pool. Dropping the last clone
/// (and every plan built on it) shuts the workers down and joins them.
///
/// ```
/// use mspgemm_core::{Config, Executor};
/// use mspgemm_sparse::{Csr, PlusTimes};
///
/// let a = Csr::try_from_parts(
///     2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0f64; 2],
/// ).unwrap();
/// let exec = Executor::new();
/// let mut plan = exec.plan::<PlusTimes>(&a, &a, &a, &Config::default()).unwrap();
/// let (c1, _) = plan.execute(&a, &a, &a).unwrap();
/// let (c2, _) = plan.execute(&a, &a, &a).unwrap(); // reuses everything
/// assert_eq!(c1, c2);
/// ```
#[derive(Clone)]
pub struct Executor {
    shared: Arc<ExecutorShared>,
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor {
    /// Create an executor with its own (initially empty) worker pool.
    /// Threads are spawned lazily on the first run. The pool's stall
    /// watchdog uses [`WatchdogConfig::from_env`]
    /// (`MSPGEMM_WATCHDOG_MS`).
    pub fn new() -> Self {
        Self::with_watchdog(WatchdogConfig::from_env())
    }

    /// Create an executor whose pool runs an explicit liveness policy
    /// instead of the environment default — a zero stall budget disables
    /// the watchdog, a short one makes stall detection fast for tests.
    pub fn with_watchdog(watchdog: WatchdogConfig) -> Self {
        Executor {
            shared: Arc::new(ExecutorShared {
                pool: WorkerPool::with_watchdog(watchdog),
                run_lock: Mutex::new(()),
            }),
        }
    }

    /// The process-wide executor the free functions run on, created
    /// lazily on first use and alive for the rest of the process.
    pub fn global() -> &'static Executor {
        static GLOBAL: OnceLock<Executor> = OnceLock::new();
        GLOBAL.get_or_init(Executor::new)
    }

    /// Capture the symbolic phase of `C = M ⊙ (A × B)` under `config` —
    /// resolved configuration, Eq. 2 work estimates, tile boundaries and
    /// mask slot layout — into a reusable [`Plan`].
    ///
    /// The plan is bound to the *structure* of the operands; re-execute it
    /// with [`Plan::execute`] against the same (or same-structured)
    /// matrices, and it skips the whole prologue.
    pub fn plan<S: Semiring>(
        &self,
        a: &Csr<S::T>,
        b: &Csr<S::T>,
        mask: &Csr<S::T>,
        config: &Config,
    ) -> Result<Plan<S>, SparseError> {
        let (exec, nodes) = (Arc::clone(&self.shared), vec![Node::product()]);
        Plan::freeze(exec, config, nodes, &[a, b, mask], None)
    }

    /// One-shot `C = M ⊙ (A × B)` on this executor's pool: prepares the
    /// one-node plan core, runs it once, and discards it — no operand is
    /// fingerprinted. Equivalent to the
    /// [`spgemm`](crate::driver::spgemm) free function, but on this
    /// executor instead of the global one.
    pub fn execute<S: Semiring>(
        &self,
        a: &Csr<S::T>,
        b: &Csr<S::T>,
        mask: &Csr<S::T>,
        config: &Config,
    ) -> Result<(Csr<S::T>, RunStats), SparseError> {
        let setup_start = Instant::now();
        let inputs = [a, b, mask];
        let core = &plan::prepare(config, vec![Node::product()], &inputs)?;
        let setup = setup_start.elapsed();
        let scratch = &mut PlanScratch::<S>::default();
        let job = Job { core, inputs: &inputs, scratch, weight: 1, setup, cancel: None };
        plan::sole(plan::only(driver::run::<S, Plain>(&self.shared, vec![job], false))?)
    }

    /// The shared pool/lock state, for in-crate layers (the service
    /// dispatcher, `dot.rs`) that call the driver run or the pool directly.
    pub(crate) fn shared(&self) -> &Arc<ExecutorShared> {
        &self.shared
    }

    /// Worker threads spawned over the pool's lifetime. Stays flat across
    /// same-width runs — the invariant the CI executor-reuse smoke step
    /// checks (also visible as the `sched.workers_spawned` counter when
    /// metrics are armed).
    pub fn spawned_workers(&self) -> usize {
        self.shared.pool.spawned_workers()
    }

    /// Workers the pool's watchdog respawned after abandoning a stalled
    /// tile (see [`WatchdogConfig`]). Zero on a healthy pool. Respawns
    /// *replace* a worker, so [`spawned_workers`](Self::spawned_workers)
    /// stays flat — this count is the only trace (also visible as the
    /// `pool.workers_respawned` counter when metrics are armed).
    pub fn respawned_workers(&self) -> u64 {
        self.shared.pool.respawned_workers()
    }

    /// Poison the executor as if a panic had escaped tile isolation.
    /// Test/CI hook for the refusal path; not part of the public API.
    #[doc(hidden)]
    pub fn debug_poison(&self, detail: &str) {
        self.shared.pool.debug_poison(detail);
    }
}

/// A session: a configuration plus a lazily-built, automatically-rebuilt
/// plan. The ergonomic entry point for iterated workloads — call
/// [`execute`](Session::execute) in a loop and the session plans on first
/// use, reuses the plan while the operand structure holds, and rebuilds
/// it (once per structure change) when it drifts.
///
/// ```
/// use mspgemm_core::{Config, Session};
/// use mspgemm_sparse::{Csr, PlusTimes};
///
/// let a = Csr::try_from_parts(
///     2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0f64; 2],
/// ).unwrap();
/// let mut session = Session::<PlusTimes>::new(Config::default());
/// for _ in 0..3 {
///     let (c, _) = session.execute(&a, &a, &a).unwrap();
///     assert_eq!(c.nnz(), 0); // a 2-cycle is triangle-free
/// }
/// assert_eq!(session.rebuilds(), 0);
/// ```
pub struct Session<S: Semiring> {
    exec: Executor,
    config: Config,
    plan: Option<Plan<S>>,
    rebuilds: u64,
}

impl<S: Semiring> Session<S> {
    /// A session on the process-wide [`Executor::global`] pool.
    pub fn new(config: Config) -> Self {
        Session::on(Executor::global(), config)
    }

    /// A session on a specific executor.
    pub fn on(exec: &Executor, config: Config) -> Self {
        Session { exec: exec.clone(), config, plan: None, rebuilds: 0 }
    }

    /// The configuration every execution uses.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// How many times the plan was rebuilt because the operand structure
    /// changed. Zero for a well-behaved fixed-structure loop; a steadily
    /// climbing count means the workload gets no reuse benefit and a
    /// plain [`Executor::execute`] would do.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Start building a fused multi-op [`PlanGraph`](crate::graph::PlanGraph)
    /// on this session's executor and configuration. The graph shares the
    /// session's worker pool but owns its own tiling and scratch — see
    /// [`crate::graph`] for the builder walkthrough.
    pub fn graph(&self) -> crate::graph::GraphBuilder<S>
    where
        S::T: PartialOrd,
    {
        crate::graph::GraphBuilder::on(&self.exec, self.config)
    }

    /// Compute `C = M ⊙ (A × B)`, planning on first call and transparently
    /// rebuilding the plan when the operands' sparsity structure no longer
    /// matches it. The common path costs one structure hash on top of the
    /// planned execution.
    pub fn execute(
        &mut self,
        a: &Csr<S::T>,
        b: &Csr<S::T>,
        mask: &Csr<S::T>,
    ) -> Result<(Csr<S::T>, RunStats), SparseError> {
        let plan = match &mut self.plan {
            Some(plan) => plan,
            slot => slot.insert(self.exec.plan::<S>(a, b, mask, &self.config)?),
        };
        match plan.execute(a, b, mask) {
            Err(SparseError::PlanStructureMismatch { .. }) => {
                self.rebuilds += 1;
                obs::incr(obs::Counter::ExecPlanRebuilds);
                self.plan = None; // drop the stale plan before rebuilding
                let mut rebuilt = self.exec.plan::<S>(a, b, mask, &self.config)?;
                let outcome = rebuilt.execute(a, b, mask);
                self.plan = Some(rebuilt);
                outcome
            }
            outcome => outcome,
        }
    }
}
