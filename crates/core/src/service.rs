//! Concurrent submission service: an async front-end over one
//! [`Executor`].
//!
//! [`Executor`] and [`crate::Session`] are synchronous — each caller
//! blocks for the whole run, and concurrent callers serialize on the
//! executor's run lock, each paying a full pool synchronisation for what
//! is often a tiny masked product. The [`Service`] inverts that shape:
//!
//! * [`Service::submit`] is **non-blocking** — it enqueues the job on a
//!   bounded admission queue and returns a [`JobTicket`] immediately.
//!   A full queue is a structured refusal ([`SparseError::QueueFull`]),
//!   never a block-forever: backpressure is the *caller's* decision.
//! * A single dispatcher thread pops jobs in **fair batches**
//!   (per-tenant deficit round-robin with priority/deadline hints — see
//!   [`mspgemm_sched::SubmitQueue`]) and coalesces each batch into one
//!   driver run over its jobs: every job's tiles are interleaved onto a
//!   single pool synchronisation
//!   ([`mspgemm_sched::WorkerPool::run_tiles_multi`]), so the fork/join
//!   cost is paid once per *batch*, not once per product. A singleton
//!   batch is the run of one job, exactly a plan run.
//! * Results are bit-identical to serial execution: each job writes its
//!   rows into its own mask-bound slot buffers, and every kernel folds
//!   each row's products in the same `k` order no matter how tiles
//!   interleave. Tile panics in one tenant's run are charged to that run
//!   alone and recovered (or surfaced) per job — they never corrupt or
//!   poison a sibling's product.
//!
//! The dispatcher keeps a small structural **plan cache** keyed by the
//! operands' fingerprint + configuration, so a tenant resubmitting the
//! same shape gets plan reuse (no re-tiling, recycled slot buffers and
//! accumulators) without holding a [`crate::plan::Plan`] of its own.
//!
//! Every submission carries a [`CancelToken`]: [`JobTicket::cancel`]
//! withdraws a still-queued job outright and fires the token of a job the
//! dispatcher already picked up, so its remaining tiles stop at the next
//! claim boundary ([`SparseError::Cancelled`]); dropping an unresolved
//! ticket does the same best-effort cancel. A [`SubmitOptions::deadline`]
//! is *enforced* through the same token — an expired job is shed from the
//! queue before dispatch and an in-flight run past its deadline is
//! abandoned at the next tile boundary, both surfacing
//! [`SparseError::DeadlineExceeded`]. For `QueueFull` backpressure,
//! [`Service::submit_with_retry`] adds bounded exponential backoff with
//! deterministic jitter on the client side.
//!
//! Shutdown is deterministic: dropping the service closes the queue,
//! cancels everything still queued ([`SparseError::Cancelled`]) and joins
//! the dispatcher thread, so repeated construction in one process leaks
//! neither threads nor queue slots. Pool-structural failure
//! ([`SparseError::ExecutorPoisoned`]) is terminal: every queued job is
//! completed with the poison error, the queue drains and closes, and
//! later submissions are refused with the same error.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::config::{Config, IterationSpace};
use mspgemm_accum::AccumulatorKind;
use mspgemm_sched::Schedule;
use crate::driver::{self, Job, Plain, RunStats};
use crate::executor::Executor;
use crate::plan::{self, ExtFingerprint, Node, Plan};
use mspgemm_rt::obs;
use mspgemm_sched::{
    ticket, CancelOutcome, CancelToken, Entry, QueueTag, RefusalReason, SubmitQueue, Ticket,
    TicketWriter,
};
use mspgemm_sparse::{Csr, Semiring, SparseError};

/// Sizing knobs for a [`Service`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceOptions {
    /// Admission queue capacity; a submit beyond it is refused with
    /// [`SparseError::QueueFull`].
    pub queue_capacity: usize,
    /// Most jobs one dispatch batch may coalesce into a single tiled run.
    pub batch_max: usize,
    /// Cached symbolic plans kept by the dispatcher before it discards
    /// the lot (simple full-clear eviction — the cache is a reuse
    /// accelerator, not a correctness surface).
    pub plan_cache_max: usize,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions { queue_capacity: 256, batch_max: 16, plan_cache_max: 128 }
    }
}

/// Per-submission scheduling hints.
#[derive(Clone, Copy, Debug, Default)]
pub struct SubmitOptions {
    /// Fairness domain: the queue's deficit round-robin balances dispatch
    /// slots across distinct tenant ids.
    pub tenant: u32,
    /// Higher dispatches first; also weights the job's share of the
    /// multiplexed tile interleave.
    pub priority: u8,
    /// Enforced deadline. It still orders the queue (among equal-priority
    /// jobs, earlier deadlines dispatch first), but it is no longer only a
    /// hint: a job whose deadline passes while queued is shed before
    /// dispatch, and an in-flight run past its deadline is abandoned at
    /// the next tile boundary — both complete the ticket with
    /// [`SparseError::DeadlineExceeded`]. Admission itself never rejects
    /// on deadline.
    pub deadline: Option<Instant>,
}

/// Client-side retry shape for [`Service::submit_with_retry`]: bounded
/// exponential backoff with deterministic jitter, applied **only** to
/// [`SparseError::QueueFull`] — backpressure is the one refusal that is
/// expected to clear by itself. Every other error returns immediately.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total submit attempts (including the first); at least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt; attempt `k` waits about
    /// `base · 2^(k-1)`, capped at [`max_backoff`](Self::max_backoff).
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter (SplitMix64 of `seed ^ attempt`):
    /// each sleep is scaled into `[50%, 100%]` of its nominal backoff so
    /// colliding clients decorrelate, yet a fixed seed replays exactly.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
            seed: 0,
        }
    }
}

/// SplitMix64 — the jitter generator for [`RetryPolicy`]. Pure and
/// allocation-free; good enough to decorrelate backoff, not a CSPRNG.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One backoff sleep of a [`RetryPolicy`]: `base · 2^(attempt-1)` capped
/// at `max_backoff`, scaled by the deterministic jitter into
/// `[50%, 100%]`.
fn retry_backoff(policy: &RetryPolicy, attempt: u32) -> Duration {
    let shift = attempt.saturating_sub(1).min(20);
    let nominal = policy
        .base
        .saturating_mul(1u32 << shift)
        .min(policy.max_backoff);
    let r = splitmix64(policy.seed ^ u64::from(attempt));
    // top 53 bits → uniform fraction in [0, 1)
    let frac = (r >> 11) as f64 / (1u64 << 53) as f64;
    nominal.mul_f64(0.5 + 0.5 * frac)
}

/// A completed service call: the product plus queue-side measurements.
#[derive(Debug)]
pub struct ServiceReply<S: Semiring> {
    /// `C = M ⊙ (A × B)` — bit-identical to a serial
    /// [`Executor::execute`] with the same configuration.
    pub c: Csr<S::T>,
    /// Driver measurements (see [`RunStats`] for the batched-run caveats).
    pub stats: RunStats,
    /// Admission-to-dispatch latency.
    pub queue_delay: Duration,
    /// Jobs coalesced into the run that produced this reply.
    pub batch_size: usize,
}

/// What travels through the queue: the operand triple (shared, so queued
/// jobs never copy matrices), the configuration, and the one-shot
/// completion channel back to the submitter.
struct JobPayload<S: Semiring> {
    a: Arc<Csr<S::T>>,
    b: Arc<Csr<S::T>>,
    mask: Arc<Csr<S::T>>,
    config: Config,
    /// The job's cooperative cancellation token — fired by
    /// [`JobTicket::cancel`] (or ticket drop) once the job is in flight,
    /// and carrying the enforced deadline when one was set. The dispatcher
    /// threads it down to the per-tile claim loop.
    cancel: CancelToken,
    writer: TicketWriter<Result<ServiceReply<S>, SparseError>>,
}

/// What [`JobTicket::cancel`] achieved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelStatus {
    /// The job was still queued: it was withdrawn, its slot released, and
    /// its ticket completes with [`SparseError::Cancelled`]. Nothing ran.
    Withdrawn,
    /// The dispatcher had already picked the job up: its token was fired
    /// and the run stops claiming tiles at the next boundary, completing
    /// the ticket with [`SparseError::Cancelled`] (partial output
    /// discarded). A run whose every tile finished before observing the
    /// cancel still delivers its reply.
    CancelRequested,
    /// The job already settled — its reply (or error) is on the ticket;
    /// there was nothing left to cancel.
    Settled,
}

/// The submitter's half of one queued job.
///
/// Dropping an unresolved ticket performs the same best-effort
/// cancellation as [`cancel`](Self::cancel): an abandoned reply should not
/// keep burning pool time.
pub struct JobTicket<S: Semiring> {
    /// `Some` until the ticket is consumed by [`wait`](Self::wait) /
    /// [`wait_timeout`](Self::wait_timeout) (`Option` so those can move it
    /// out from under the `Drop` impl).
    ticket: Option<Ticket<Result<ServiceReply<S>, SparseError>>>,
    id: u64,
    queue: SubmitQueue<JobPayload<S>>,
    cancel: CancelToken,
}

impl<S: Semiring> JobTicket<S> {
    /// The queue id of this submission (stable across its lifetime).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether the reply is already available (non-blocking).
    pub fn is_resolved(&self) -> bool {
        self.ticket.as_ref().is_some_and(|t| t.is_resolved())
    }

    /// Block until the job completes. A ticket whose writer disappeared
    /// without completing (service dropped mid-flight) reads as
    /// [`SparseError::Cancelled`].
    pub fn wait(mut self) -> Result<ServiceReply<S>, SparseError> {
        match self.ticket.take() {
            Some(t) => match t.wait() {
                Ok(reply) => reply,
                Err(_lost) => Err(SparseError::Cancelled),
            },
            // unreachable: every public constructor stores `Some`
            None => Err(SparseError::Cancelled),
        }
    }

    /// Like [`wait`](Self::wait) with a bound; returns the ticket back on
    /// expiry so the caller can keep waiting.
    pub fn wait_timeout(
        mut self,
        timeout: Duration,
    ) -> Result<Result<ServiceReply<S>, SparseError>, Self> {
        match self.ticket.take() {
            Some(t) => match t.wait_timeout(timeout) {
                Ok(Ok(reply)) => Ok(reply),
                Ok(Err(_lost)) => Ok(Err(SparseError::Cancelled)),
                Err(ticket) => Err(JobTicket {
                    ticket: Some(ticket),
                    id: self.id,
                    queue: self.queue.clone(),
                    cancel: self.cancel.clone(),
                }),
            },
            None => Ok(Err(SparseError::Cancelled)),
        }
    }

    /// Cancel the job, wherever it is in its lifecycle:
    ///
    /// * still queued — withdrawn outright ([`CancelStatus::Withdrawn`]):
    ///   the slot is released and the ticket completes with
    ///   [`SparseError::Cancelled`] without anything running;
    /// * already dispatched — the job's [`CancelToken`] is fired
    ///   ([`CancelStatus::CancelRequested`]) and the in-flight run stops
    ///   claiming its tiles at the next boundary, discarding partial
    ///   output; sibling jobs in the same batch are untouched;
    /// * already settled — nothing to do ([`CancelStatus::Settled`]).
    ///
    /// Idempotent: repeated calls (or a later drop) degrade to
    /// [`CancelStatus::Settled`] / repeated token fires, never an error.
    pub fn cancel(&self) -> CancelStatus {
        match self.queue.cancel(self.id) {
            CancelOutcome::Removed(entry) => {
                obs::incr(obs::Counter::SvcCancelled);
                entry.job.writer.complete(Err(SparseError::Cancelled));
                CancelStatus::Withdrawn
            }
            CancelOutcome::InFlight => {
                obs::incr(obs::Counter::SvcCancelledInFlight);
                self.cancel.cancel();
                CancelStatus::CancelRequested
            }
            CancelOutcome::Unknown => CancelStatus::Settled,
        }
    }
}

impl<S: Semiring> Drop for JobTicket<S> {
    /// Best-effort cancel on abandonment: a ticket dropped before its
    /// reply resolved withdraws the queued job or fires the in-flight
    /// token, exactly like [`cancel`](Self::cancel). A consumed or
    /// resolved ticket drops inert.
    fn drop(&mut self) {
        if self.ticket.as_ref().is_some_and(|t| !t.is_resolved()) {
            let _ = self.cancel();
        }
    }
}

/// A concurrent multi-tenant submission front-end over one [`Executor`].
/// See the module docs for the architecture; see
/// [`crate::stress::run_stress`] for the adversarial harness that checks
/// its isolation and bit-identity guarantees.
pub struct Service<S: Semiring> {
    exec: Executor,
    queue: SubmitQueue<JobPayload<S>>,
    shutdown: Arc<AtomicBool>,
    poisoned: Arc<OnceLock<String>>,
    batch_max: usize,
    dispatcher: Option<JoinHandle<()>>,
}

impl<S: Semiring> Service<S> {
    /// A service over the process-wide [`Executor::global`] pool.
    pub fn new(options: ServiceOptions) -> Self {
        Service::on(Executor::global(), options)
    }

    /// A service over a specific executor. Several services may share one
    /// executor; their dispatchers serialize on its run lock.
    pub fn on(exec: &Executor, options: ServiceOptions) -> Self {
        let queue: SubmitQueue<JobPayload<S>> = SubmitQueue::new(options.queue_capacity);
        let shutdown = Arc::new(AtomicBool::new(false));
        let poisoned: Arc<OnceLock<String>> = Arc::new(OnceLock::new());
        let dispatcher = {
            let exec = exec.clone();
            let queue = queue.clone();
            let shutdown = Arc::clone(&shutdown);
            let poisoned = Arc::clone(&poisoned);
            let batch_max = options.batch_max.max(1);
            let cache_max = options.plan_cache_max.max(1);
            std::thread::Builder::new()
                .name("mspgemm-svc".into())
                .spawn(move || {
                    dispatch_loop::<S>(exec, queue, batch_max, cache_max, shutdown, poisoned)
                })
                .ok()
        };
        Service {
            exec: exec.clone(),
            queue,
            shutdown,
            poisoned,
            batch_max: options.batch_max.max(1),
            dispatcher,
        }
    }

    /// The executor this service dispatches onto.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// Jobs currently queued (admitted, not yet dispatched).
    pub fn depth(&self) -> usize {
        self.queue.depth()
    }

    /// The admission queue capacity.
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Most jobs one dispatch batch coalesces.
    pub fn batch_max(&self) -> usize {
        self.batch_max
    }

    /// Enqueue `C = M ⊙ (A × B)` and return immediately with a
    /// [`JobTicket`]. Never blocks and never computes inline:
    ///
    /// * a full queue refuses with [`SparseError::QueueFull`] — nothing
    ///   was enqueued, the caller decides whether to retry, shed, or wait;
    /// * a poisoned executor refuses with
    ///   [`SparseError::ExecutorPoisoned`];
    /// * shape validation happens at dispatch, surfacing through the
    ///   ticket like any other per-job error.
    pub fn submit(
        &self,
        a: Arc<Csr<S::T>>,
        b: Arc<Csr<S::T>>,
        mask: Arc<Csr<S::T>>,
        config: Config,
        opts: SubmitOptions,
    ) -> Result<JobTicket<S>, SparseError> {
        let (writer, ticket) = ticket();
        let cancel = match opts.deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        let payload = JobPayload { a, b, mask, config, cancel: cancel.clone(), writer };
        let tag =
            QueueTag { tenant: opts.tenant, priority: opts.priority, deadline: opts.deadline };
        match self.queue.try_push(payload, tag) {
            Ok(id) => {
                obs::incr(obs::Counter::SvcSubmitted);
                Ok(JobTicket { ticket: Some(ticket), id, queue: self.queue.clone(), cancel })
            }
            Err(refused) => {
                obs::incr(obs::Counter::SvcRejected);
                // the refused payload (and its writer) drop here; the
                // returned error is the caller's signal, not the ticket's
                match refused.reason {
                    RefusalReason::Full { capacity } => Err(SparseError::QueueFull { capacity }),
                    RefusalReason::Closed => Err(self.poison_error()),
                }
            }
        }
    }

    /// [`submit`](Self::submit) with client-side retry on
    /// [`SparseError::QueueFull`]: bounded exponential backoff with
    /// deterministic jitter (see [`RetryPolicy`]). Blocks only in the
    /// backoff sleeps — at most `max_attempts - 1` of them — and returns
    /// the last refusal if the queue never clears. Any error other than
    /// `QueueFull` (poison, closed service) returns immediately: only
    /// backpressure is worth waiting out.
    pub fn submit_with_retry(
        &self,
        a: Arc<Csr<S::T>>,
        b: Arc<Csr<S::T>>,
        mask: Arc<Csr<S::T>>,
        config: Config,
        opts: SubmitOptions,
        policy: RetryPolicy,
    ) -> Result<JobTicket<S>, SparseError> {
        let attempts = policy.max_attempts.max(1);
        let mut attempt = 1u32;
        loop {
            match self.submit(
                Arc::clone(&a),
                Arc::clone(&b),
                Arc::clone(&mask),
                config,
                opts,
            ) {
                Err(SparseError::QueueFull { capacity }) if attempt < attempts => {
                    obs::incr(obs::Counter::SvcSubmitRetries);
                    let _ = capacity;
                    std::thread::sleep(retry_backoff(&policy, attempt));
                    attempt += 1;
                }
                outcome => return outcome,
            }
        }
    }

    /// The terminal error a closed service surfaces: the recorded poison
    /// if the pool died, otherwise plain cancellation (service dropped).
    fn poison_error(&self) -> SparseError {
        match self.poisoned.get() {
            Some(detail) => SparseError::ExecutorPoisoned { detail: detail.clone() },
            None => SparseError::Cancelled,
        }
    }
}

impl<S: Semiring> Drop for Service<S> {
    /// Deterministic teardown: close the queue, let the dispatcher cancel
    /// whatever is still queued, and join it. After this no thread of the
    /// service survives — the executor (and its workers) are untouched.
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

/// A popped entry carried through planning to execution. The plan it
/// leased from the cache (or prepared fresh) travels beside it, so the
/// run can borrow the operands and the plan scratch at once.
struct PreparedJob<S: Semiring> {
    entry: Entry<JobPayload<S>>,
    key: u64,
    setup: Duration,
    queue_delay: Duration,
}

/// Plan-cache key: the per-input structure hashes folded with the
/// configuration. The hash accelerates lookup only — a hit is verified
/// against the plan's own fingerprints *and* configuration before the
/// plan is trusted.
fn cache_key(fps: &[ExtFingerprint], config: &Config) -> u64 {
    let mut h = fps.iter().fold(0, |h, fp| plan::fold(h, fp.hash));
    // fold the configuration axes numerically (this runs once per
    // dispatched job — no label-string formatting on the hot path);
    // collisions are harmless because every hit is verified with an
    // exact `config ==` comparison before the plan is trusted
    h = plan::fold(h, config.n_threads as u64);
    h = plan::fold(h, config.n_tiles as u64);
    h = plan::fold(h, config.tiling as u64);
    h = plan::fold(
        h,
        match config.schedule {
            Schedule::Static => 1,
            Schedule::Dynamic { chunk } => 2 | (chunk as u64) << 8,
            Schedule::Guided { chunk } => 3 | (chunk as u64) << 8,
        },
    );
    h = plan::fold(
        h,
        match config.kernel.accumulator {
            AccumulatorKind::Dense(w) => 1 | (w as u64) << 8,
            AccumulatorKind::Hash(w) => 2 | (w as u64) << 8,
            AccumulatorKind::Sort => 3,
        },
    );
    h = plan::fold(
        h,
        match config.kernel.iteration {
            IterationSpace::Vanilla => 1,
            IterationSpace::MaskAccumulate => 2,
            IterationSpace::CoIterate => 3,
            IterationSpace::Hybrid { kappa } => 4 | (kappa.to_bits() & !0xffu64),
        },
    );
    // the overbook and SIMD axes change the planned accumulator bound and
    // kernel instantiation, so they distinguish plans too
    h = plan::fold(
        h,
        match config.kernel.overbook {
            crate::config::Overbook::Off => 1,
            crate::config::Overbook::Quantile { q } => 2 | (q.to_bits() & !0xffu64),
        },
    );
    h = plan::fold(
        h,
        match config.kernel.simd {
            crate::config::SimdMode::Auto => 1,
            crate::config::SimdMode::Scalar => 2,
            crate::config::SimdMode::Force => 3,
        },
    );
    plan::finish(h)
}

/// The dispatcher: pop fair batches, plan (or reuse) each job, coalesce
/// the batch into one run, complete the tickets. Runs until the queue is
/// closed *and* drained, so `Service::drop` observes every job settled.
fn dispatch_loop<S: Semiring>(
    exec: Executor,
    queue: SubmitQueue<JobPayload<S>>,
    batch_max: usize,
    cache_max: usize,
    shutdown: Arc<AtomicBool>,
    poisoned: Arc<OnceLock<String>>,
) {
    let mut batch: Vec<Entry<JobPayload<S>>> = Vec::new();
    // Multi-lease plan cache: each key holds a *stack* of interchangeable
    // plans, because one batch routinely carries many same-shape jobs and
    // every job in a run needs its own plan (slot buffers cannot be
    // shared within a run). A single-plan cache would hit once per batch
    // and re-run the full symbolic phase for every sibling — the stack
    // warms up to the observed batch width instead. `cached_plans`
    // counts plans (not keys) against `cache_max`.
    let mut cache: HashMap<u64, Vec<Plan<S>>> = HashMap::new();
    let mut cached_plans = 0usize;
    // One-entry fingerprint memo keyed by operand *identity*: closed-loop
    // clients resubmit the same `Arc`'d operands job after job, and
    // re-hashing the mask's row pointers would be the largest remaining
    // per-job symbolic cost. Holding the `Arc`s (not raw pointers) makes
    // the identity check sound — the memoized operands cannot be freed
    // and their addresses reused while the memo is alive. `Csr` is
    // immutable, so same allocation ⇒ same structure ⇒ same fingerprint.
    let mut fp_memo: Option<([Arc<Csr<S::T>>; 3], Config)> = None;
    let mut memo_fps: Vec<ExtFingerprint> = Vec::new();
    while queue.pop_batch(batch_max, &mut batch) {
        if shutdown.load(Ordering::SeqCst) {
            for entry in batch.drain(..) {
                obs::incr(obs::Counter::SvcCancelled);
                entry.job.writer.complete(Err(SparseError::Cancelled));
                queue.settle(entry.id);
            }
            continue;
        }
        let popped = Instant::now();
        obs::incr(obs::Counter::SvcBatches);
        obs::add(obs::Counter::SvcBatchedJobs, batch.len() as u64);
        obs::record(obs::Hist::SvcBatchSize, batch.len() as u64);

        // --- symbolic phase: lease a cached plan per job or prepare a
        // fresh one. A lease removes the cache slot, so two same-shape
        // jobs in one batch get independent plans (their slot buffers
        // cannot be shared within a run). ---
        let mut prepared: Vec<PreparedJob<S>> = Vec::with_capacity(batch.len());
        let mut plans: Vec<Plan<S>> = Vec::with_capacity(batch.len());
        for entry in batch.drain(..) {
            let setup_start = Instant::now();
            let queue_delay = popped.saturating_duration_since(entry.enqueued);
            obs::record(obs::Hist::SvcQueueDelayUs, queue_delay.as_micros() as u64);
            // --- deadline shedding: a job whose enforced deadline passed
            // while it queued is not worth planning, let alone running.
            // (The deadline also fires the job's token, so even a job shed
            // here *and* somehow dispatched would abandon at the first
            // tile boundary — this check just refuses to pay the symbolic
            // phase for it.) ---
            if entry.tag.deadline.is_some_and(|d| Instant::now() >= d) {
                obs::incr(obs::Counter::SvcDeadlineShed);
                obs::incr(obs::Counter::SvcCompleted);
                entry.job.writer.complete(Err(SparseError::DeadlineExceeded));
                queue.settle(entry.id);
                continue;
            }
            let job = &entry.job;
            let inputs = [&*job.a, &*job.b, &*job.mask];
            let operands = [&job.a, &job.b, &job.mask];
            let memo_hit = fp_memo.as_ref().is_some_and(|(memo, config)| {
                memo.iter().zip(operands).all(|(m, o)| Arc::ptr_eq(m, o)) && *config == job.config
            });
            if !memo_hit {
                memo_fps = plan::fingerprint(&job.config, &[Node::product()], &inputs);
                fp_memo = Some((operands.map(Arc::clone), job.config));
            }
            let key = cache_key(&memo_fps, &job.config);
            let leased = cache.get_mut(&key).and_then(|stack| {
                // hash collisions or stale slots stay put; plan fresh
                let pos =
                    stack.iter().position(|p| p.fps == memo_fps && p.core.config == job.config)?;
                Some(stack.swap_remove(pos))
            });
            let plan = match leased {
                Some(plan) => {
                    cached_plans -= 1;
                    obs::incr(obs::Counter::SvcPlanCacheHits);
                    plan
                }
                None => {
                    obs::incr(obs::Counter::SvcPlanCacheMisses);
                    let (shared, fps) = (Arc::clone(exec.shared()), Some(memo_fps.clone()));
                    match Plan::freeze(shared, &job.config, vec![Node::product()], &inputs, fps) {
                        Ok(plan) => plan,
                        Err(e) => {
                            obs::incr(obs::Counter::SvcCompleted);
                            entry.job.writer.complete(Err(e));
                            queue.settle(entry.id);
                            continue;
                        }
                    }
                }
            };
            let setup = setup_start.elapsed();
            prepared.push(PreparedJob { entry, key, setup, queue_delay });
            plans.push(plan);
        }

        // --- numeric phase: one coalesced run over the batch's jobs ---
        let batch_size = prepared.len();
        let inputs: Vec<[&Csr<S::T>; 3]> = (prepared.iter().map(|p| &p.entry.job))
            .map(|job| [&*job.a, &*job.b, &*job.mask])
            .collect();
        let jobs: Vec<Job<'_, S>> = (prepared.iter().zip(&inputs).zip(&mut plans))
            .map(|((p, inputs), plan)| Job {
                core: &plan.core,
                inputs,
                scratch: &mut plan.scratch,
                weight: 1 + p.entry.tag.priority as u32,
                setup: p.setup,
                cancel: Some(&p.entry.job.cancel),
            })
            .collect();
        let outcomes: Vec<Result<(Csr<S::T>, RunStats), SparseError>> =
            (driver::run::<S, Plain>(exec.shared(), jobs, false).into_iter())
                .map(plan::sole)
                .collect();

        // --- completion: hand every ticket its reply, re-park the plan
        // leases, and latch on poison. The latch (record + close) happens
        // *before* any poisoned ticket is completed: the moment a waiter
        // can observe the poison, new submissions are already refused —
        // otherwise a submit racing the close could be admitted into a
        // dead service and hang until drop. ---
        let poison_hit: Option<String> = outcomes.iter().find_map(|o| match o {
            Err(SparseError::ExecutorPoisoned { detail }) => Some(detail.clone()),
            _ => None,
        });
        if let Some(detail) = &poison_hit {
            let _ = poisoned.set(detail.clone());
            queue.close();
        }
        for ((p, plan), outcome) in prepared.into_iter().zip(plans).zip(outcomes) {
            let reply = outcome.map(|(c, stats)| ServiceReply {
                c,
                stats,
                queue_delay: p.queue_delay,
                batch_size,
            });
            obs::incr(obs::Counter::SvcCompleted);
            p.entry.job.writer.complete(reply);
            queue.settle(p.entry.id);
            if cached_plans >= cache_max {
                cache.clear();
                cached_plans = 0;
            }
            cache.entry(p.key).or_default().push(plan);
            cached_plans += 1;
        }

        if let Some(detail) = poison_hit {
            // pool-structural loss is terminal: the queue is already
            // closed (above), so fail whatever is still queued and stop.
            // Every waiting tenant sees `ExecutorPoisoned`, and the queue
            // ends closed *and* empty.
            let mut rest: Vec<Entry<JobPayload<S>>> = Vec::new();
            queue.drain(&mut rest);
            for entry in rest {
                obs::incr(obs::Counter::SvcCompleted);
                let poisoned = SparseError::ExecutorPoisoned { detail: detail.clone() };
                entry.job.writer.complete(Err(poisoned));
            }
            break;
        }
    }
}
