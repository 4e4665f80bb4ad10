//! A persistent worker pool — threads spawned once, parked between runs.
//!
//! Spawning `p` fresh OS threads per call is the wrong shape for the
//! iterated workloads the paper motivates masked SpGEMM with (triangle
//! counting, k-truss, BFS — all call `C = M ⊙ (A × B)` in a loop). This
//! pool keeps the workers alive, and is the one pool every tile run in
//! the workspace executes on:
//!
//! * threads are spawned lazily on first use and then *parked* on a
//!   condvar between runs — a run costs one lock + broadcast, not `p`
//!   `clone(2)` calls;
//! * one claim loop, [`WorkerPool::run_tiles_multi`], serves every tile
//!   run: a list of runs whose tiles are claimed under one [`Schedule`]
//!   (a single run is the list of one). Per-run state such as the
//!   driver's accumulators lives with the caller, not the worker;
//! * tiles are fault-isolated: a panicking tile is caught, recorded as a
//!   [`TileFailure`], and the worker keeps draining (survivors drain the
//!   whole queue). A panic that
//!   escapes tile isolation (scheduler-infrastructure failure) *poisons*
//!   the pool: the in-flight run fails with [`PoolError::Poisoned`] and
//!   all future runs are refused, but the process — and the caller — live.
//!
//! # Protocol
//!
//! All coordination lives in one mutex-guarded `PoolState` plus two
//! condvars. A run bumps `epoch`, publishes the job, sets
//! `active = n_workers` and broadcasts `work_cv`; each participating
//! worker executes the job body once, then decrements `active`; the last
//! one clears the job and broadcasts `done_cv`, on which the submitter
//! blocks. The job body reference is lifetime-erased to `'static`, which
//! is sound because the submitter does not return before `active == 0` —
//! no worker can observe the body after the submitting frame unwinds its
//! stack (a stored job is always mid-run, hence always valid).
//!
//! # Watchdog and the bounded-stall fault model
//!
//! Each worker stamps a heartbeat when it starts a tile and clears it when
//! the tile ends. While a run is in flight the submitter waits on the done
//! condvar *with a timeout*, and on every timeout scans the heartbeats: a
//! tile busy past the [`WatchdogConfig::stall_budget`] is **abandoned**
//! (recorded as a [`TileFailure`] once it finally returns, so the caller's
//! degraded serial path recomputes it bit-identically) and its worker is
//! **superseded** — a replacement thread is spawned for the same index and
//! joins the in-flight run, restoring pool width while the stalled thread
//! sleeps. The soundness invariant above is never weakened: the submitter
//! still waits for *every* thread that entered the body, the stalled one
//! included, which is why the model is *bounded* stalls (an injected
//! `stall` failpoint, a paging hiccup, a priority-inverted sleep) — a
//! truly unbounded hang still hangs the run, by design, because returning
//! early would free the job body out from under the stalled thread. The
//! replacement takes over the worker index for all *future* runs (the
//! superseded thread exits once it wakes); after
//! [`WatchdogConfig::max_respawns`] replacements the watchdog stops
//! healing and poisons the pool — [`PoolError::Poisoned`] is the last
//! resort, not the first response.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cancel::CancelToken;

use mspgemm_rt::obs;

use crate::pool::{catch_tile_panic, next_range, ObsScratch, Schedule, ThreadReport, TileFailure};

/// Pool-infrastructure failure: the run never reached (or never finished)
/// tile execution. Tile-level failures are *not* reported here — they
/// surface per run in [`MultiOutcome::failures`].
#[derive(Clone, Debug)]
pub enum PoolError {
    /// A panic escaped tile isolation inside a worker. The pool refuses
    /// all further runs; build a fresh one.
    Poisoned {
        /// Stringified payload of the escaping panic.
        detail: String,
    },
    /// The OS refused to spawn a worker thread.
    Spawn {
        /// The underlying I/O error, stringified.
        detail: String,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Poisoned { detail } => {
                write!(f, "worker pool poisoned: {detail}")
            }
            PoolError::Spawn { detail } => {
                write!(f, "failed to spawn worker thread: {detail}")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Liveness policy for the pool's stall watchdog.
#[derive(Clone, Copy, Debug)]
pub struct WatchdogConfig {
    /// How long a single tile may stay busy before the watchdog calls it
    /// stalled, abandons it and respawns its worker. `Duration::ZERO`
    /// disables the watchdog entirely (no heartbeat stamping, plain
    /// untimed waits).
    pub stall_budget: Duration,
    /// Replacement workers the watchdog may spawn over the pool's
    /// lifetime before it gives up self-healing and poisons the pool.
    pub max_respawns: usize,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        // Generous by default: the budget must dwarf any honest tile (µs
        // to low ms in this workload) so only genuine stalls trip it.
        WatchdogConfig { stall_budget: Duration::from_millis(5000), max_respawns: 8 }
    }
}

impl WatchdogConfig {
    /// The default config with the stall budget overridden by the
    /// `MSPGEMM_WATCHDOG_MS` environment variable when set (`0` disables
    /// the watchdog; unparseable values are ignored).
    pub fn from_env() -> Self {
        let mut cfg = WatchdogConfig::default();
        if let Ok(v) = std::env::var("MSPGEMM_WATCHDOG_MS") {
            if let Ok(ms) = v.trim().parse::<u64>() {
                cfg.stall_budget = Duration::from_millis(ms);
            }
        }
        cfg
    }

    /// `false` iff the stall budget is zero (watchdog off).
    pub fn enabled(&self) -> bool {
        !self.stall_budget.is_zero()
    }
}

/// One worker thread's liveness record, scanned by the watchdog. Owned by
/// the thread through its [`WorkerScratch`] (each thread has its own slot,
/// so a replacement never shares a record with the stalled thread it
/// supersedes).
struct Heartbeat {
    /// Microseconds since pool birth, plus one, stamped when a tile
    /// starts; `0` while idle. The `+1` keeps `0` unambiguous.
    busy_since: AtomicU64,
    /// The `busy_since` stamp of a tile the watchdog abandoned; the claim
    /// loop compares it against its own stamp when the tile returns and
    /// records a [`TileFailure`] on match. `0` when nothing is abandoned.
    abandoned: AtomicU64,
}

impl Heartbeat {
    fn new() -> Self {
        Heartbeat { busy_since: AtomicU64::new(0), abandoned: AtomicU64::new(0) }
    }
}

/// Per-worker state that survives across runs: the thread's liveness
/// record, through which a tile body learns that the watchdog abandoned
/// it.
pub struct WorkerScratch {
    /// This thread's liveness record (see [`Heartbeat`]).
    hb: Arc<Heartbeat>,
}

impl Default for WorkerScratch {
    fn default() -> Self {
        WorkerScratch { hb: Arc::new(Heartbeat::new()) }
    }
}

impl WorkerScratch {
    /// `true` while the tile this worker is currently executing has been
    /// abandoned by the pool watchdog (it overran the stall budget and a
    /// replacement worker took over the index). A tile body that observes
    /// this should decline to publish its result — the caller's degraded
    /// serial path owns the tile now and will recompute it bit-identically.
    /// Best-effort: a race can miss the flag, in which case the tile's
    /// (fully computed, merely late) result stands — also bit-identical.
    pub fn current_tile_abandoned(&self) -> bool {
        let bs = self.hb.busy_since.load(Ordering::Acquire);
        bs != 0 && self.hb.abandoned.load(Ordering::Acquire) == bs
    }
}

/// One published run. `body` is lifetime-erased (see module docs for the
/// soundness argument); `n_workers` caps which worker indices participate.
#[derive(Clone, Copy)]
struct Job {
    n_workers: usize,
    body: &'static (dyn Fn(usize, &mut WorkerScratch) + Sync),
}

/// All mutable pool state, guarded by one mutex.
struct PoolState {
    /// Bumped once per run; workers use it to detect new work.
    epoch: u64,
    /// The in-flight job, `Some` exactly while `active > 0`.
    job: Option<Job>,
    /// Participants that have not finished the current job yet.
    active: usize,
    /// Set by `Drop`; workers exit their loop when they see it.
    shutdown: bool,
    /// First panic that escaped tile isolation; permanent.
    poison: Option<String>,
    /// Worker indices in use (the pool's width); flat across same-width
    /// runs and unchanged by watchdog respawns.
    workers: usize,
    /// Generation per worker index. A watchdog respawn bumps the slot's
    /// generation; the superseded thread observes the mismatch (under the
    /// lock, at every loop edge) and exits, so each index always has
    /// exactly one thread participating in future runs.
    gen: Vec<u64>,
    /// Replacement threads spawned by the watchdog over the pool lifetime.
    respawns: u64,
}

struct Inner {
    state: Mutex<PoolState>,
    /// Workers park here between runs.
    work_cv: Condvar,
    /// Submitters park here while a run is in flight.
    done_cv: Condvar,
    /// Liveness records of every thread that ever served, keyed by worker
    /// index (a respawned index appears once per thread). Threads register
    /// here on startup; the watchdog scans it while holding `state` —
    /// lock order is `state` → `hbs`, never the reverse.
    hbs: Mutex<Vec<(usize, Arc<Heartbeat>)>>,
    /// Heartbeat stamps are µs since this instant (+1).
    birth: Instant,
    /// Stall policy; immutable after construction.
    watchdog: WatchdogConfig,
}

/// Current heartbeat stamp: µs since pool birth, plus one so `0` stays the
/// unambiguous "idle" value.
fn stamp_now(birth: &Instant) -> u64 {
    birth.elapsed().as_micros() as u64 + 1
}

/// A long-lived worker pool. Threads are spawned lazily (growing to the
/// largest `n_workers` ever requested) and parked between runs; dropping
/// the pool shuts them down and joins them.
pub struct WorkerPool {
    inner: Arc<Inner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPool {
    /// Create an empty pool; no threads are spawned until the first run.
    /// The watchdog policy comes from [`WatchdogConfig::from_env`].
    pub fn new() -> Self {
        Self::with_watchdog(WatchdogConfig::from_env())
    }

    /// Create an empty pool with an explicit watchdog policy.
    pub fn with_watchdog(watchdog: WatchdogConfig) -> Self {
        WorkerPool {
            inner: Arc::new(Inner {
                state: Mutex::new(PoolState {
                    epoch: 0,
                    job: None,
                    active: 0,
                    shutdown: false,
                    poison: None,
                    workers: 0,
                    gen: Vec::new(),
                    respawns: 0,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
                hbs: Mutex::new(Vec::new()),
                birth: Instant::now(),
                watchdog,
            }),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// Number of worker *indices* in use (the pool's width). Flat across
    /// same-width runs — the property the CI executor-reuse smoke step
    /// asserts through the obs snapshot. Watchdog respawns replace a
    /// thread at an existing index and are counted separately by
    /// [`respawned_workers`](Self::respawned_workers).
    pub fn spawned_workers(&self) -> usize {
        self.inner.state.lock().unwrap_or_else(|e| e.into_inner()).workers
    }

    /// Replacement threads the watchdog has spawned over the pool's
    /// lifetime (0 on a healthy pool).
    pub fn respawned_workers(&self) -> u64 {
        self.inner.state.lock().unwrap_or_else(|e| e.into_inner()).respawns
    }

    /// Poison the pool as if a panic had escaped tile isolation. Test/CI
    /// hook for exercising the refusal path without an actual unwind.
    #[doc(hidden)]
    pub fn debug_poison(&self, detail: &str) {
        let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.poison.is_none() {
            st.poison = Some(detail.to_string());
        }
    }

    /// Execute `body(worker_index, &mut scratch)` once on each of
    /// `n_workers` pool workers, blocking until all complete.
    ///
    /// Errors with [`PoolError::Poisoned`] if the pool is (or becomes)
    /// poisoned, and [`PoolError::Spawn`] if the pool cannot grow to
    /// `n_workers` threads.
    pub fn run(
        &self,
        n_workers: usize,
        body: &(dyn Fn(usize, &mut WorkerScratch) + Sync),
    ) -> Result<(), PoolError> {
        let n_workers = n_workers.max(1);
        let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(detail) = &st.poison {
            return Err(PoolError::Poisoned { detail: detail.clone() });
        }
        // Serialize submitters: wait until no run is in flight. (The core
        // Executor additionally serializes at its own level; this guard
        // makes the pool safe regardless of the caller.)
        while st.active > 0 || st.job.is_some() {
            st = self.inner.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if let Some(detail) = &st.poison {
            return Err(PoolError::Poisoned { detail: detail.clone() });
        }
        // Grow the pool under the state lock, so the new workers' first
        // sight of the state already includes the job published below.
        while st.workers < n_workers {
            let idx = st.workers;
            let inner = Arc::clone(&self.inner);
            let spawned = std::thread::Builder::new()
                .name(format!("mspgemm-worker-{idx}"))
                .spawn(move || worker_loop(idx, 0, inner, None));
            match spawned {
                Ok(handle) => {
                    st.workers += 1;
                    st.gen.push(0);
                    if obs::armed() {
                        obs::add(obs::Counter::SchedWorkersSpawned, 1);
                    }
                    self.handles.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
                }
                Err(e) => return Err(PoolError::Spawn { detail: e.to_string() }),
            }
        }
        // SAFETY: the erased reference is only ever *called* by workers
        // counted in `active`, and this frame does not return before
        // `active == 0` (the wait below); the last participant clears the
        // job before broadcasting, so a stored job is always mid-run and
        // its body reference always outlives every use. Watchdog respawns
        // preserve this: a replacement joining the run *increments*
        // `active` under the lock before calling the body, so the wait
        // below covers it, and the superseded thread keeps its own pending
        // decrement — nobody decrements on another thread's behalf.
        let body: &'static (dyn Fn(usize, &mut WorkerScratch) + Sync) =
            unsafe { std::mem::transmute(body) };
        st.job = Some(Job { n_workers, body });
        st.epoch = st.epoch.wrapping_add(1);
        let my_epoch = st.epoch;
        st.active = n_workers;
        self.inner.work_cv.notify_all();
        if self.inner.watchdog.enabled() {
            // The submitter doubles as the watchdog: wake on a timeout
            // tick, scan heartbeats for a tile busy past the stall budget,
            // abandon + respawn as needed. No extra monitor thread.
            let interval =
                (self.inner.watchdog.stall_budget / 4).max(Duration::from_millis(5));
            while st.active > 0 && st.epoch == my_epoch {
                let (guard, timeout) = self
                    .inner
                    .done_cv
                    .wait_timeout(st, interval)
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
                if timeout.timed_out() && st.active > 0 && st.epoch == my_epoch {
                    st = self.watchdog_scan(st);
                }
            }
        } else {
            while st.active > 0 && st.epoch == my_epoch {
                st = self.inner.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
        if let Some(detail) = &st.poison {
            return Err(PoolError::Poisoned { detail: detail.clone() });
        }
        Ok(())
    }

    /// One watchdog tick, entered by the submitter with the state lock
    /// held. Marks every over-budget tile abandoned and supersedes its
    /// worker with a freshly spawned replacement that joins the in-flight
    /// run; exhausting the respawn budget (or failing to spawn) poisons
    /// the pool as the last resort.
    fn watchdog_scan<'a>(
        &'a self,
        mut st: MutexGuard<'a, PoolState>,
    ) -> MutexGuard<'a, PoolState> {
        let Some(job) = st.job else { return st };
        let budget_us = self.inner.watchdog.stall_budget.as_micros() as u64;
        let now = stamp_now(&self.inner.birth);
        // lock order: state (held) → hbs
        let hbs = self.inner.hbs.lock().unwrap_or_else(|e| e.into_inner());
        let mut stalled: Vec<usize> = Vec::new();
        for (idx, hb) in hbs.iter() {
            if *idx >= job.n_workers {
                continue;
            }
            let bs = hb.busy_since.load(Ordering::Acquire);
            if bs != 0
                && now.saturating_sub(bs) > budget_us
                && hb.abandoned.load(Ordering::Acquire) != bs
            {
                hb.abandoned.store(bs, Ordering::Release);
                stalled.push(*idx);
            }
        }
        drop(hbs);
        let armed = obs::armed();
        for idx in stalled {
            if armed {
                obs::add(obs::Counter::WatchdogStallsDetected, 1);
            }
            if st.respawns >= self.inner.watchdog.max_respawns as u64 {
                if st.poison.is_none() {
                    st.poison = Some(format!(
                        "watchdog: worker {idx} stalled past {}ms and the respawn \
                         budget ({}) is exhausted",
                        self.inner.watchdog.stall_budget.as_millis(),
                        self.inner.watchdog.max_respawns,
                    ));
                }
                continue;
            }
            let new_gen = st.gen.get(idx).copied().unwrap_or(0).wrapping_add(1);
            if let Some(g) = st.gen.get_mut(idx) {
                *g = new_gen;
            }
            let inner = Arc::clone(&self.inner);
            let epoch = st.epoch;
            let spawned = std::thread::Builder::new()
                .name(format!("mspgemm-worker-{idx}r{new_gen}"))
                .spawn(move || worker_loop(idx, new_gen, inner, Some(epoch)));
            match spawned {
                Ok(handle) => {
                    st.respawns += 1;
                    if armed {
                        obs::add(obs::Counter::PoolWorkersRespawned, 1);
                    }
                    self.handles.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
                }
                Err(e) => {
                    if st.poison.is_none() {
                        st.poison =
                            Some(format!("watchdog: failed to respawn worker {idx}: {e}"));
                    }
                }
            }
        }
        st
    }

    /// Sample the per-run constants of the tile loop (see [`TileCtx`]).
    fn tile_ctx(&self) -> TileCtx {
        TileCtx {
            metrics_on: obs::armed(),
            trace_on: obs::trace_armed(),
            watchdog: self.inner.watchdog.enabled().then_some(self.inner.birth),
        }
    }

    /// Execute a list of tile runs on one worker team, with per-tile
    /// fault isolation, claim metering and tracing, on parked, reusable
    /// threads. This is the pool's one tile-run entry point: a single run
    /// is the list of one, and several runs (a batch of small masked
    /// products) cost one pool synchronisation instead of one each.
    ///
    /// Workers claim positions of one claim order under `schedule` (see
    /// [`Schedule`] for the claim disciplines). With one run the order is
    /// its tiles `0..n_tiles`, so the run claims exactly as the schedule
    /// says. With several it is a weighted round-robin interleave: each
    /// fairness round, run `r` contributes up to `runs[r].weight` of its
    /// remaining tiles (a weight of 0 counts as 1). The order is a pure
    /// function of `(n_tiles, weight)` across the slice, so scheduling is
    /// deterministic even though which *worker* executes a tile is not.
    ///
    /// A cancelled run's tiles are skipped, never failed; a sole run that
    /// is cancelled also stops its workers claiming. An unwinding tile is
    /// recorded under its own run in [`MultiOutcome::failures`] while
    /// every other tile keeps draining, so tile failures never surface as
    /// an `Err` here (one tenant's failure must not fail a sibling's run;
    /// callers settle each run from its own failure list). Only a panic
    /// escaping the infrastructure, which poisons the pool, or a failed
    /// spawn does.
    pub fn run_tiles_multi(
        &self,
        n_threads: usize,
        schedule: Schedule,
        runs: &[MultiRun<'_>],
    ) -> Result<MultiOutcome, PoolError> {
        let n_threads = n_threads.max(1);
        let total: usize = runs.iter().map(|r| r.n_tiles).sum();
        if total == 0 {
            return Ok(MultiOutcome {
                reports: vec![ThreadReport::default(); n_threads],
                completed: vec![0; runs.len()],
                skipped: vec![0; runs.len()],
                failures: runs.iter().map(|_| Vec::new()).collect(),
            });
        }
        // The claim order of several runs, built once; a sole run's order
        // is the identity and is not materialised.
        let mut order: Vec<(usize, usize)> = Vec::new();
        let mut next: Vec<usize> = vec![0; runs.len()];
        while runs.len() > 1 && order.len() < total {
            for (r, run) in runs.iter().enumerate() {
                let take = (run.weight.max(1) as usize).min(run.n_tiles - next[r]);
                for _ in 0..take {
                    order.push((r, next[r]));
                    next[r] += 1;
                }
            }
        }
        let sole_cancel = match runs {
            [only] => only.cancel,
            _ => None,
        };
        let queue = AtomicUsize::new(0);
        let completed: Vec<AtomicUsize> = runs.iter().map(|_| AtomicUsize::new(0)).collect();
        let failures: Mutex<Vec<(usize, TileFailure)>> = Mutex::new(Vec::new());
        let reports: Vec<Mutex<ThreadReport>> =
            (0..n_threads).map(|_| Mutex::new(ThreadReport::default())).collect();
        let ctx = self.tile_ctx();
        let meter_claims = ctx.metrics_on && !matches!(schedule, Schedule::Static);

        let job = |t: usize, ws: &mut WorkerScratch| {
            let mut report = ThreadReport::default();
            let mut scratch = ObsScratch::default();
            let mut static_done = false;
            while !sole_cancel.is_some_and(|c| c.is_cancelled()) {
                let claim_start = if meter_claims { Some(Instant::now()) } else { None };
                let claimed = next_range(schedule, t, n_threads, total, &queue, &mut static_done);
                if let Some(s) = claim_start {
                    scratch.claims += 1;
                    scratch.claim_ns.record(s.elapsed().as_nanos() as u64);
                }
                let Some((lo, hi)) = claimed else { break };
                for pos in lo..hi {
                    let (r, tile) = order.get(pos).copied().unwrap_or((0, pos));
                    let run = &runs[r];
                    // cooperative cancellation: a cancelled run's
                    // remaining tiles are skipped (not failed)
                    if run.cancel.is_some_and(|c| c.is_cancelled()) {
                        continue;
                    }
                    let body = run.body;
                    let outcome =
                        ctx.execute(t, tile, ws, &mut report, &mut scratch, |ws| body(t, ws, tile));
                    match outcome {
                        Ok(()) => {
                            completed[r].fetch_add(1, Ordering::Relaxed);
                        }
                        Err(failure) => {
                            failures.lock().unwrap_or_else(|e| e.into_inner()).push((r, failure));
                        }
                    }
                }
            }
            // flushed here — before the worker decrements `active` — so a
            // snapshot delta taken around the run sees every sample
            if ctx.metrics_on {
                scratch.flush(report.busy);
            }
            *reports[t].lock().unwrap_or_else(|e| e.into_inner()) = report;
        };

        self.run(n_threads, &job)?;

        let mut per_run: Vec<Vec<TileFailure>> = runs.iter().map(|_| Vec::new()).collect();
        for (r, f) in failures.into_inner().unwrap_or_else(|e| e.into_inner()) {
            per_run[r].push(f);
        }
        for v in &mut per_run {
            v.sort_by_key(|f| f.tile);
        }
        let completed: Vec<usize> = completed.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        // every tile neither completed nor failed was skipped by a cancel
        let skipped: Vec<usize> = runs
            .iter()
            .zip(&completed)
            .zip(&per_run)
            .map(|((run, done), failed)| run.n_tiles - done - failed.len())
            .collect();
        let total_skipped: usize = skipped.iter().sum();
        if ctx.metrics_on && total_skipped > 0 {
            obs::add(obs::Counter::SchedTilesCancelled, total_skipped as u64);
        }
        Ok(MultiOutcome {
            reports: reports
                .into_iter()
                .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
                .collect(),
            completed,
            skipped,
            failures: per_run,
        })
    }
}

/// Per-run constants of the claim loop, sampled once per run so per-tile
/// observability costs one branch on a local bool.
#[derive(Clone, Copy)]
struct TileCtx {
    metrics_on: bool,
    trace_on: bool,
    /// The pool's birth instant (heartbeat epoch) when the watchdog is on.
    watchdog: Option<Instant>,
}

impl TileCtx {
    /// Execute one claimed tile under the pool's fault model: stamp the
    /// worker's heartbeat, run `body` panic-isolated, and account the
    /// outcome in `report` / `scratch`.
    /// A tile that unwinds — or that the watchdog abandoned while it ran —
    /// comes back as a [`TileFailure`].
    fn execute(
        &self,
        t: usize,
        tile: usize,
        ws: &mut WorkerScratch,
        report: &mut ThreadReport,
        scratch: &mut ObsScratch,
        body: impl FnOnce(&mut WorkerScratch),
    ) -> Result<(), TileFailure> {
        let ts_us = if self.trace_on { obs::now_us() } else { 0 };
        let start = Instant::now();
        if self.metrics_on {
            scratch.started += 1;
        }
        let stamp = self.watchdog.map_or(0, |birth| stamp_now(&birth));
        if self.watchdog.is_some() {
            ws.hb.busy_since.store(stamp, Ordering::Release);
        }
        let outcome = catch_tile_panic(|| body(ws));
        let was_abandoned = self.watchdog.is_some() && {
            let hit = ws.hb.abandoned.load(Ordering::Acquire) == stamp;
            ws.hb.busy_since.store(0, Ordering::Release);
            if hit {
                ws.hb.abandoned.store(0, Ordering::Release);
            }
            hit
        };
        let payload = match outcome {
            Ok(()) if !was_abandoned => {
                let elapsed = start.elapsed();
                report.busy += elapsed;
                report.tiles_run += 1;
                if self.metrics_on {
                    scratch.completed += 1;
                    scratch.tile_us.record(elapsed.as_micros() as u64);
                }
                if self.trace_on {
                    let us = elapsed.as_micros() as u64;
                    obs::complete_event("tile", tile as u64, t as u64, ts_us, us);
                }
                return Ok(());
            }
            Err(msg) => msg,
            Ok(()) => format!(
                "abandoned by watchdog: tile {tile} overran the stall budget; the degraded \
                 serial path owns it"
            ),
        };
        report.tiles_failed += 1;
        scratch.failed += 1;
        Err(TileFailure { tile, payload, elapsed: start.elapsed() })
    }
}

/// One run's tile queue, as multiplexed by [`WorkerPool::run_tiles_multi`].
pub struct MultiRun<'a> {
    /// Number of tiles this run contributes; the body sees `0..n_tiles`.
    pub n_tiles: usize,
    /// Interleave weight: tiles this run contributes per fairness round of
    /// the deterministic claim order (0 is treated as 1).
    pub weight: u32,
    /// Cooperative cancellation for *this run only*: once the token
    /// reports cancelled, the run's not-yet-started tiles are skipped at
    /// claim time while sibling runs keep draining untouched. `None`
    /// means the run is not cancellable.
    pub cancel: Option<&'a CancelToken>,
    /// Per-tile body, `body(worker, scratch, tile)`, run once per tile
    /// under the pool's fault model.
    pub body: &'a (dyn Fn(usize, &mut WorkerScratch, usize) + Sync),
}

/// Per-run accounting from [`WorkerPool::run_tiles_multi`]. Indices into
/// `completed`/`skipped`/`failures` match the input `runs` slice.
pub struct MultiOutcome {
    /// One report per worker, across all runs (workers interleave tiles
    /// from different runs, so busy time cannot be split per run).
    pub reports: Vec<ThreadReport>,
    /// Tiles completed per run.
    pub completed: Vec<usize>,
    /// Tiles skipped per run because the run's cancel token was set
    /// before they started. `completed + skipped + failures` accounts for
    /// every tile of every run.
    pub skipped: Vec<usize>,
    /// Failures per run, each sorted by tile index. A run succeeded iff
    /// its list is empty.
    pub failures: Vec<Vec<TileFailure>>,
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
            self.inner.work_cv.notify_all();
        }
        let handles =
            std::mem::take(&mut *self.handles.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Execute one published job on this thread, then decrement the latch
/// (setting poison if the body's panic escaped tile isolation). Returns
/// `false` when the thread was superseded by a watchdog respawn while it
/// was inside the body — the caller must exit so the replacement is the
/// index's only thread in future runs.
fn execute_job(
    idx: usize,
    my_gen: u64,
    inner: &Inner,
    scratch: &mut WorkerScratch,
    job: Job,
) -> bool {
    let outcome = catch_tile_panic(|| (job.body)(idx, scratch));
    let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
    if let Err(msg) = outcome {
        // a panic past tile isolation means scheduler state is
        // suspect: fail this run and refuse all future ones
        if st.poison.is_none() {
            st.poison = Some(format!("worker {idx}: {msg}"));
        }
    }
    st.active -= 1;
    if st.active == 0 {
        st.job = None;
        inner.done_cv.notify_all();
    }
    st.gen.get(idx).copied().unwrap_or(my_gen) == my_gen
}

/// The parked-worker loop: wait for an epoch bump, run the job if this
/// worker participates, decrement the latch, repeat until shutdown — or
/// until this thread's generation is superseded by a watchdog respawn.
///
/// `join_epoch` is set for watchdog replacements: if the run the thread
/// was spawned to rescue is still in flight, the replacement joins it by
/// *incrementing* `active` under the lock (taking its own pending
/// decrement — the submitter's body-lifetime wait covers it) instead of
/// waiting for the next epoch.
fn worker_loop(idx: usize, my_gen: u64, inner: Arc<Inner>, join_epoch: Option<u64>) {
    let mut scratch = WorkerScratch::default();
    inner
        .hbs
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push((idx, Arc::clone(&scratch.hb)));
    let mut seen_epoch = 0u64;
    if let Some(epoch) = join_epoch {
        let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
        seen_epoch = st.epoch;
        // Join only the exact run this thread was spawned for (epochs are
        // unique per run), only while it is still in flight, and only if
        // this thread is still the index's current generation.
        let joinable = st.epoch == epoch
            && st.active > 0
            && st.gen.get(idx).copied().unwrap_or(u64::MAX) == my_gen
            && st.job.is_some_and(|j| idx < j.n_workers);
        if joinable {
            st.active += 1;
            let job = match st.job {
                Some(job) => job,
                None => return,
            };
            drop(st);
            if !execute_job(idx, my_gen, &inner, &mut scratch, job) {
                return;
            }
        }
    }
    loop {
        let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if st.shutdown {
                return;
            }
            if st.gen.get(idx).copied().unwrap_or(my_gen) != my_gen {
                // superseded by a watchdog respawn; the replacement owns
                // the index now
                return;
            }
            if st.epoch != seen_epoch {
                if st.job.is_some() {
                    break;
                }
                // the run we missed already completed; catch up and park
                seen_epoch = st.epoch;
            }
            st = inner.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        seen_epoch = st.epoch;
        // a stored job is always mid-run (`active > 0`), so the erased
        // body reference is valid for the duration of this call
        let job = match st.job {
            Some(job) => job,
            None => continue,
        };
        drop(st);
        if idx < job.n_workers && !execute_job(idx, my_gen, &inner, &mut scratch, job) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The claim shape a batch of several runs uses.
    const BATCH: Schedule = Schedule::Dynamic { chunk: 1 };

    /// A run in which one or more tiles failed: the failures (sorted by
    /// tile) and the per-worker reports.
    #[derive(Debug)]
    struct Failed {
        failures: Vec<TileFailure>,
        reports: Vec<ThreadReport>,
    }

    /// Why a one-run call did not come back clean.
    #[derive(Debug)]
    enum RunError {
        Pool(PoolError),
        Tiles(Failed),
    }

    impl std::fmt::Display for RunError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                RunError::Pool(e) => e.fmt(f),
                RunError::Tiles(e) => write!(f, "{} tile(s) failed", e.failures.len()),
            }
        }
    }

    /// One run of `n_tiles` through the pool's single entry point, as the
    /// list of one.
    fn run_one(
        pool: &WorkerPool,
        n_threads: usize,
        n_tiles: usize,
        schedule: Schedule,
        cancel: Option<&CancelToken>,
        body: impl Fn(usize, &mut WorkerScratch, usize) + Sync,
    ) -> Result<Vec<ThreadReport>, RunError> {
        let runs = [MultiRun { n_tiles, weight: 1, cancel, body: &body }];
        let mut out = pool.run_tiles_multi(n_threads, schedule, &runs).map_err(RunError::Pool)?;
        let failures = out.failures.pop().unwrap_or_default();
        let accounted = out.completed[0] + out.skipped[0] + failures.len();
        assert_eq!(accounted, n_tiles, "every tile is completed, skipped or failed");
        if failures.is_empty() {
            Ok(out.reports)
        } else {
            Err(RunError::Tiles(Failed { failures, reports: out.reports }))
        }
    }

    #[test]
    fn every_tile_runs_exactly_once_on_every_schedule() {
        let pool = WorkerPool::new();
        for schedule in [
            Schedule::Static,
            Schedule::Dynamic { chunk: 1 },
            Schedule::Dynamic { chunk: 7 },
            Schedule::Guided { chunk: 1 },
        ] {
            let n_tiles = 97;
            let counts: Vec<AtomicU64> = (0..n_tiles).map(|_| AtomicU64::new(0)).collect();
            let reports = run_one(&pool, 4, n_tiles, schedule, None, |_, _, tile| {
                counts[tile].fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "tile {i} under {schedule:?}");
            }
            assert_eq!(reports.iter().map(|r| r.tiles_run).sum::<usize>(), n_tiles);
        }
    }

    #[test]
    fn workers_are_spawned_once_and_reused() {
        let pool = WorkerPool::new();
        for _ in 0..10 {
            run_one(&pool, 3, 32, Schedule::Dynamic { chunk: 1 }, None, |_, _, _| {}).unwrap();
        }
        assert_eq!(pool.spawned_workers(), 3, "thread count stays flat across runs");
        // a wider run grows the pool once; narrower runs after that reuse it
        run_one(&pool, 5, 32, Schedule::Static, None, |_, _, _| {}).unwrap();
        run_one(&pool, 2, 32, Schedule::Static, None, |_, _, _| {}).unwrap();
        assert_eq!(pool.spawned_workers(), 5);
    }

    #[test]
    fn tile_panic_is_isolated_and_does_not_poison_the_pool() {
        let pool = WorkerPool::new();
        let err = run_one(&pool, 4, 40, Schedule::Dynamic { chunk: 1 }, None, |_, _, tile| {
            if tile == 13 {
                panic!("kernel died on tile {tile}");
            }
        })
        .expect_err("tile 13 must be reported");
        match err {
            RunError::Tiles(e) => {
                assert_eq!(e.failures.len(), 1);
                assert_eq!(e.failures[0].tile, 13);
                assert!(e.failures[0].payload.contains("kernel died on tile 13"));
                assert_eq!(
                    e.reports.iter().map(|r| r.tiles_run).sum::<usize>(),
                    39,
                    "survivors drain the queue"
                );
            }
            RunError::Pool(e) => panic!("tile failure must not be a pool failure: {e}"),
        }
        // the pool is still healthy: a follow-up run succeeds
        let reports =
            run_one(&pool, 4, 40, Schedule::Dynamic { chunk: 1 }, None, |_, _, _| {}).unwrap();
        assert_eq!(reports.iter().map(|r| r.tiles_run).sum::<usize>(), 40);
    }

    #[test]
    fn job_level_panic_poisons_the_pool() {
        let pool = WorkerPool::new();
        let err = pool
            .run(2, &|t, _ws| {
                if t == 1 {
                    panic!("infrastructure failure");
                }
            })
            .expect_err("the escaping panic must fail the run");
        assert!(matches!(err, PoolError::Poisoned { ref detail } if detail.contains("infrastructure failure")));
        // all future runs are refused
        let err = pool.run(2, &|_, _| {}).expect_err("poison is permanent");
        assert!(matches!(err, PoolError::Poisoned { .. }));
        let err = run_one(&pool, 2, 8, Schedule::Static, None, |_, _, _| {})
            .expect_err("tile runs are refused too");
        assert!(matches!(err, RunError::Pool(PoolError::Poisoned { .. })));
    }

    #[test]
    fn debug_poison_refuses_future_runs() {
        let pool = WorkerPool::new();
        run_one(&pool, 2, 8, Schedule::Static, None, |_, _, _| {}).unwrap();
        pool.debug_poison("injected for test");
        let err = run_one(&pool, 2, 8, Schedule::Static, None, |_, _, _| {})
            .expect_err("poisoned pool refuses");
        assert!(
            matches!(err, RunError::Pool(PoolError::Poisoned { ref detail })
                if detail.contains("injected"))
        );
    }

    #[test]
    fn zero_tiles_is_a_noop() {
        let pool = WorkerPool::new();
        let reports =
            run_one(&pool, 4, 0, Schedule::Static, None, |_, _, _: usize| panic!("no tiles"))
                .unwrap();
        assert_eq!(reports.len(), 4);
        assert_eq!(pool.spawned_workers(), 0, "no work, no threads");
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = WorkerPool::new();
        run_one(&pool, 4, 16, Schedule::Dynamic { chunk: 1 }, None, |_, _, _| {}).unwrap();
        drop(pool); // must not hang or leak threads
    }

    #[test]
    fn multi_run_executes_every_tile_of_every_run_exactly_once() {
        let pool = WorkerPool::new();
        let sizes = [17usize, 1, 0, 40, 8];
        let counts: Vec<Vec<AtomicU64>> = sizes
            .iter()
            .map(|&n| (0..n).map(|_| AtomicU64::new(0)).collect())
            .collect();
        let bodies: Vec<Box<dyn Fn(usize, &mut WorkerScratch, usize) + Sync>> = counts
            .iter()
            .map(|c| {
                let c = c;
                Box::new(move |_: usize, _: &mut WorkerScratch, tile: usize| {
                    c[tile].fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn Fn(usize, &mut WorkerScratch, usize) + Sync>
            })
            .collect();
        let runs: Vec<MultiRun<'_>> = sizes
            .iter()
            .zip(&bodies)
            .map(|(&n_tiles, body)| MultiRun { n_tiles, weight: 1, cancel: None, body: body.as_ref() })
            .collect();
        let out = pool.run_tiles_multi(4, BATCH, &runs).unwrap();
        for (r, c) in counts.iter().enumerate() {
            for (i, n) in c.iter().enumerate() {
                assert_eq!(n.load(Ordering::Relaxed), 1, "run {r} tile {i}");
            }
            assert_eq!(out.completed[r], sizes[r]);
            assert!(out.failures[r].is_empty());
        }
        assert_eq!(
            out.reports.iter().map(|x| x.tiles_run).sum::<usize>(),
            sizes.iter().sum::<usize>()
        );
    }

    #[test]
    fn multi_run_interleave_is_weighted_and_deterministic() {
        // One worker drains the claim order sequentially, exposing the
        // interleave: with weights 2:1 the schedule must alternate two
        // tiles of run 0 with one of run 1 until run 0 drains.
        let pool = WorkerPool::new();
        let seen: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());
        let body0 = |_: usize, _: &mut WorkerScratch, tile: usize| {
            seen.lock().unwrap().push((0, tile));
        };
        let body1 = |_: usize, _: &mut WorkerScratch, tile: usize| {
            seen.lock().unwrap().push((1, tile));
        };
        let runs = [
            MultiRun { n_tiles: 4, weight: 2, cancel: None, body: &body0 },
            MultiRun { n_tiles: 4, weight: 1, cancel: None, body: &body1 },
        ];
        pool.run_tiles_multi(1, BATCH, &runs).unwrap();
        let seen = seen.into_inner().unwrap();
        assert_eq!(
            seen,
            vec![
                (0, 0), (0, 1), (1, 0),
                (0, 2), (0, 3), (1, 1),
                (1, 2), (1, 3),
            ],
            "weighted round-robin order"
        );
    }

    #[test]
    fn multi_run_panic_is_charged_to_its_own_run_only() {
        let pool = WorkerPool::new();
        let body_ok = |_: usize, _: &mut WorkerScratch, _: usize| {};
        let body_bad = |_: usize, _: &mut WorkerScratch, tile: usize| {
            if tile == 3 {
                panic!("tenant-local failure on tile {tile}");
            }
        };
        let runs = [
            MultiRun { n_tiles: 20, weight: 1, cancel: None, body: &body_ok },
            MultiRun { n_tiles: 10, weight: 1, cancel: None, body: &body_bad },
            MultiRun { n_tiles: 20, weight: 1, cancel: None, body: &body_ok },
        ];
        let out = pool.run_tiles_multi(4, BATCH, &runs).unwrap();
        assert!(out.failures[0].is_empty(), "healthy run 0 sees no failures");
        assert!(out.failures[2].is_empty(), "healthy run 2 sees no failures");
        assert_eq!(out.failures[1].len(), 1);
        assert_eq!(out.failures[1][0].tile, 3);
        assert!(out.failures[1][0].payload.contains("tenant-local failure"));
        assert_eq!(out.completed[0], 20, "siblings drain fully");
        assert_eq!(out.completed[1], 9);
        assert_eq!(out.completed[2], 20);
        // the pool itself stays healthy
        run_one(&pool, 2, 8, Schedule::Static, None, |_, _, _| {}).unwrap();
    }

    #[test]
    fn multi_run_empty_batch_is_a_noop() {
        let pool = WorkerPool::new();
        let out = pool.run_tiles_multi(4, BATCH, &[]).unwrap();
        assert!(out.completed.is_empty());
        assert_eq!(pool.spawned_workers(), 0, "no work, no threads");
    }

    #[test]
    fn reports_account_for_busy_time() {
        let pool = WorkerPool::new();
        let reports = run_one(&pool, 2, 8, Schedule::Dynamic { chunk: 1 }, None, |_, _, _| {
            std::thread::sleep(std::time::Duration::from_millis(2));
        })
        .unwrap();
        assert!(reports.iter().any(|r| r.busy.as_micros() > 0));
        assert_eq!(reports.iter().map(|r| r.tiles_run).sum::<usize>(), 8);
    }

    #[test]
    fn watchdog_abandons_a_stalled_tile_and_respawns_the_worker() {
        let pool = WorkerPool::with_watchdog(WatchdogConfig {
            stall_budget: Duration::from_millis(30),
            max_respawns: 4,
        });
        let err = run_one(&pool, 2, 8, Schedule::Dynamic { chunk: 1 }, None, |_, _, tile| {
            if tile == 0 {
                // a bounded stall, well past the budget
                std::thread::sleep(Duration::from_millis(200));
            }
        })
        .expect_err("the abandoned tile must be reported");
        match err {
            RunError::Tiles(e) => {
                assert_eq!(e.failures.len(), 1);
                assert_eq!(e.failures[0].tile, 0);
                assert!(
                    e.failures[0].payload.contains("abandoned by watchdog"),
                    "{}",
                    e.failures[0].payload
                );
                assert_eq!(
                    e.reports.iter().map(|r| r.tiles_run).sum::<usize>(),
                    7,
                    "every other tile drains (replacement restores width)"
                );
            }
            RunError::Pool(e) => {
                panic!("a bounded stall must not poison the pool: {e}")
            }
        }
        assert_eq!(pool.respawned_workers(), 1, "one replacement thread");
        assert_eq!(pool.spawned_workers(), 2, "pool width unchanged by the respawn");
        // the pool still serves: exactly one thread per index participates
        // (the superseded zombie exited), so a follow-up run is exact
        let reports =
            run_one(&pool, 2, 16, Schedule::Dynamic { chunk: 1 }, None, |_, _, _| {}).unwrap();
        assert_eq!(reports.iter().map(|r| r.tiles_run).sum::<usize>(), 16);
        assert_eq!(pool.respawned_workers(), 1, "healthy runs trigger no respawns");
    }

    #[test]
    fn watchdog_respawn_budget_exhaustion_poisons_as_last_resort() {
        let pool = WorkerPool::with_watchdog(WatchdogConfig {
            stall_budget: Duration::from_millis(20),
            max_respawns: 0,
        });
        let err = run_one(&pool, 2, 4, Schedule::Dynamic { chunk: 1 }, None, |_, _, tile| {
            if tile == 0 {
                std::thread::sleep(Duration::from_millis(120));
            }
        })
        .expect_err("exhausted budget must fail the run");
        assert!(
            matches!(
                err,
                RunError::Pool(PoolError::Poisoned { ref detail })
                    if detail.contains("respawn budget")
            ),
            "{err}"
        );
        let err = run_one(&pool, 2, 4, Schedule::Static, None, |_, _, _| {})
            .expect_err("poison is permanent");
        assert!(matches!(err, RunError::Pool(PoolError::Poisoned { .. })));
    }

    #[test]
    fn watchdog_disabled_by_zero_budget_tolerates_slow_tiles() {
        let pool = WorkerPool::with_watchdog(WatchdogConfig {
            stall_budget: Duration::ZERO,
            max_respawns: 4,
        });
        let reports = run_one(&pool, 2, 4, Schedule::Dynamic { chunk: 1 }, None, |_, _, tile| {
            if tile == 0 {
                std::thread::sleep(Duration::from_millis(40));
            }
        })
        .unwrap();
        assert_eq!(reports.iter().map(|r| r.tiles_run).sum::<usize>(), 4);
        assert_eq!(pool.respawned_workers(), 0);
    }

    #[test]
    fn multi_run_cancel_skips_remaining_tiles_of_that_run_only() {
        let pool = WorkerPool::new();
        let token = CancelToken::new();
        let tok = &token;
        // One worker drains the deterministic interleave A0 B0 A1 B1 …;
        // A cancels itself while executing its third tile, so A3..A5 are
        // skipped while B drains completely.
        let body_a = move |_: usize, _: &mut WorkerScratch, tile: usize| {
            if tile == 2 {
                tok.cancel();
            }
        };
        let body_b = |_: usize, _: &mut WorkerScratch, _: usize| {};
        let runs = [
            MultiRun { n_tiles: 6, weight: 1, cancel: Some(&token), body: &body_a },
            MultiRun { n_tiles: 6, weight: 1, cancel: None, body: &body_b },
        ];
        let out = pool.run_tiles_multi(1, BATCH, &runs).unwrap();
        assert_eq!(out.completed[0], 3, "A ran tiles 0..=2 then stopped");
        assert_eq!(out.skipped[0], 3, "A3..A5 skipped at claim time");
        assert!(out.failures[0].is_empty(), "cancelled tiles are skipped, not failed");
        assert_eq!(out.completed[1], 6, "sibling B is untouched");
        assert_eq!(out.skipped[1], 0);
        // the pool stays healthy for follow-up work
        let reports = run_one(&pool, 1, 4, Schedule::Static, None, |_, _, _| {}).unwrap();
        assert_eq!(reports.iter().map(|r| r.tiles_run).sum::<usize>(), 4);
    }

    #[test]
    fn single_run_stops_claiming_after_cancel() {
        let pool = WorkerPool::new();
        let token = CancelToken::new();
        let tok = &token;
        let ran = AtomicU64::new(0);
        let reports = run_one(&pool, 1, 100, Schedule::Dynamic { chunk: 1 }, Some(&token), {
            let ran = &ran;
            move |_, _, tile| {
                ran.fetch_add(1, Ordering::Relaxed);
                if tile == 4 {
                    tok.cancel();
                }
            }
        })
        .unwrap();
        let n = ran.load(Ordering::Relaxed);
        assert_eq!(n, 5, "tiles after the cancelling one are never started");
        assert_eq!(reports.iter().map(|r| r.tiles_run).sum::<usize>(), n as usize);
    }

    #[test]
    fn deadline_token_abandons_a_single_run_at_a_tile_boundary() {
        let pool = WorkerPool::new();
        let token = CancelToken::with_deadline(Instant::now() + Duration::from_millis(25));
        let ran = AtomicU64::new(0);
        let reports = run_one(&pool, 1, 50, Schedule::Dynamic { chunk: 1 }, Some(&token), {
            let ran = &ran;
            move |_, _, _| {
                ran.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(4));
            }
        })
        .unwrap();
        let n = ran.load(Ordering::Relaxed) as usize;
        assert!(n < 50, "the deadline must cut the run short");
        assert!(token.deadline_expired());
        assert_eq!(reports.iter().map(|r| r.tiles_run).sum::<usize>(), n);
    }

    // --- claim and failure behaviour across every schedule ---

    #[test]
    fn every_tile_runs_exactly_once_static() {
        let pool = WorkerPool::new();
        let n_tiles = 101;
        let counts: Vec<AtomicU64> = (0..n_tiles).map(|_| AtomicU64::new(0)).collect();
        let reports = run_one(&pool, 4, n_tiles, Schedule::Static, None, |_, _, tile| {
            counts[tile].fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "tile {i}");
        }
        assert_eq!(reports.iter().map(|r| r.tiles_run).sum::<usize>(), n_tiles);
        // static: block sizes differ by at most 1
        let max = reports.iter().map(|r| r.tiles_run).max().unwrap();
        let min = reports.iter().map(|r| r.tiles_run).min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn every_tile_runs_exactly_once_dynamic() {
        let pool = WorkerPool::new();
        for chunk in [1, 3, 16] {
            let n_tiles = 97;
            let counts: Vec<AtomicU64> = (0..n_tiles).map(|_| AtomicU64::new(0)).collect();
            let schedule = Schedule::Dynamic { chunk };
            let reports = run_one(&pool, 3, n_tiles, schedule, None, |_, _, tile| {
                counts[tile].fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "tile {i} chunk {chunk}");
            }
            assert_eq!(reports.iter().map(|r| r.tiles_run).sum::<usize>(), n_tiles);
        }
    }

    #[test]
    fn every_tile_runs_exactly_once_guided() {
        let pool = WorkerPool::new();
        for chunk in [1, 4] {
            for n_tiles in [5usize, 97, 1000] {
                let counts: Vec<AtomicU64> = (0..n_tiles).map(|_| AtomicU64::new(0)).collect();
                let schedule = Schedule::Guided { chunk };
                let reports = run_one(&pool, 3, n_tiles, schedule, None, |_, _, tile| {
                    counts[tile].fetch_add(1, Ordering::Relaxed);
                })
                .unwrap();
                for (i, c) in counts.iter().enumerate() {
                    assert_eq!(
                        c.load(Ordering::Relaxed),
                        1,
                        "tile {i}, chunk {chunk}, n {n_tiles}"
                    );
                }
                assert_eq!(reports.iter().map(|r| r.tiles_run).sum::<usize>(), n_tiles);
            }
        }
    }

    /// Spin for `spins` iterations: a deterministic CPU-bound tile.
    fn spin(spins: u64) {
        let mut x = 0u64;
        for i in 0..spins {
            x = x.wrapping_add(i);
        }
        std::hint::black_box(x);
    }

    #[test]
    fn guided_balances_skewed_work() {
        // tile 0 is much slower; guided's shrinking tail chunks must let
        // the other thread absorb the remaining tiles (like dynamic)
        let pool = WorkerPool::new();
        let reports = run_one(&pool, 2, 64, Schedule::Guided { chunk: 1 }, None, |_, _, tile| {
            spin(if tile == 0 { 6_000_000 } else { 5_000 });
        })
        .unwrap();
        let total: usize = reports.iter().map(|r| r.tiles_run).sum();
        assert_eq!(total, 64);
        let max_tiles = reports.iter().map(|r| r.tiles_run).max().unwrap();
        assert!(
            max_tiles > 32,
            "the unblocked thread should take more than half the tiles: {:?}",
            reports.iter().map(|r| r.tiles_run).collect::<Vec<_>>()
        );
    }

    #[test]
    fn dynamic_balances_skewed_work() {
        // tile 0 is 100x slower; dynamic should let the other thread take
        // everything else. With static, thread 0 would own half the tiles
        // *plus* the slow one.
        let pool = WorkerPool::new();
        let reports = run_one(&pool, 2, 32, Schedule::Dynamic { chunk: 1 }, None, |_, _, tile| {
            spin(if tile == 0 { 4_000_000 } else { 10_000 });
        })
        .unwrap();
        let min_tiles = reports.iter().map(|r| r.tiles_run).min().unwrap();
        let max_tiles = reports.iter().map(|r| r.tiles_run).max().unwrap();
        assert!(
            max_tiles > min_tiles,
            "dynamic scheduling should shift tiles away from the slow thread \
             (got {min_tiles} vs {max_tiles})"
        );
    }

    #[test]
    fn static_hands_each_worker_its_own_block() {
        // three workers, three tiles: worker t owns exactly tile t
        let pool = WorkerPool::new();
        let seen: Vec<AtomicU64> = (0..3).map(|_| AtomicU64::new(0)).collect();
        run_one(&pool, 3, 3, Schedule::Static, None, |t, _, tile| {
            assert_eq!(t, tile, "static block of worker {t}");
            seen[t].fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        for s in &seen {
            assert_eq!(s.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn every_variant_visits_each_tile_exactly_once_across_the_count_matrix() {
        // the full coverage matrix: every schedule variant × tile counts
        // around the thread count (1, p−1, p, 64·p) plus the
        // more-threads-than-tiles regime
        let pool = WorkerPool::new();
        let p = 4usize;
        let variants = [
            Schedule::Static,
            Schedule::Dynamic { chunk: 1 },
            Schedule::Dynamic { chunk: 7 },
            Schedule::Guided { chunk: 1 },
            Schedule::Guided { chunk: 4 },
        ];
        let cases = [(p, 1usize), (p, p - 1), (p, p), (p, 64 * p), (4 * p, p / 2)];
        for schedule in variants {
            for (n_threads, n_tiles) in cases {
                let counts: Vec<AtomicU64> = (0..n_tiles).map(|_| AtomicU64::new(0)).collect();
                let reports = run_one(&pool, n_threads, n_tiles, schedule, None, |_, _, tile| {
                    counts[tile].fetch_add(1, Ordering::Relaxed);
                })
                .unwrap();
                assert_eq!(reports.len(), n_threads, "{schedule:?} p={n_threads} n={n_tiles}");
                for (i, c) in counts.iter().enumerate() {
                    assert_eq!(
                        c.load(Ordering::Relaxed),
                        1,
                        "tile {i} under {schedule:?} with p={n_threads} n={n_tiles}"
                    );
                }
                assert_eq!(
                    reports.iter().map(|r| r.tiles_run).sum::<usize>(),
                    n_tiles,
                    "report totals under {schedule:?} with p={n_threads} n={n_tiles}"
                );
            }
        }
    }

    #[test]
    fn panicking_tile_is_isolated_and_survivors_drain() {
        // tile 13 always panics; every other tile must still run exactly
        // once, and the process must not abort
        let pool = WorkerPool::new();
        for schedule in Schedule::all_extended() {
            let n_tiles = 40;
            let counts: Vec<AtomicU64> = (0..n_tiles).map(|_| AtomicU64::new(0)).collect();
            let err = run_one(&pool, 4, n_tiles, schedule, None, |_, _, tile| {
                if tile == 13 {
                    panic!("kernel died on tile {tile}");
                }
                counts[tile].fetch_add(1, Ordering::Relaxed);
            })
            .expect_err("tile 13 must be reported");
            let RunError::Tiles(err) = err else { panic!("{schedule:?}: pool failure") };
            assert_eq!(err.failures.len(), 1, "{schedule:?}");
            assert_eq!(err.failures[0].tile, 13);
            assert!(err.failures[0].payload.contains("kernel died on tile 13"));
            for (i, c) in counts.iter().enumerate() {
                let want = if i == 13 { 0 } else { 1 };
                assert_eq!(c.load(Ordering::Relaxed), want, "tile {i} under {schedule:?}");
            }
            assert_eq!(
                err.reports.iter().map(|r| r.tiles_run).sum::<usize>(),
                n_tiles - 1,
                "{schedule:?}"
            );
            assert_eq!(err.reports.iter().map(|r| r.tiles_failed).sum::<usize>(), 1);
        }
    }

    #[test]
    fn multiple_failures_are_sorted_by_tile() {
        let pool = WorkerPool::new();
        let err = run_one(&pool, 3, 30, Schedule::Dynamic { chunk: 2 }, None, |_, _, tile| {
            if tile % 7 == 0 {
                panic!("bad tile");
            }
        })
        .expect_err("tiles 0,7,14,21,28 fail");
        let RunError::Tiles(err) = err else { panic!("tile failures, not a pool failure") };
        let failed: Vec<usize> = err.failures.iter().map(|f| f.tile).collect();
        assert_eq!(failed, vec![0, 7, 14, 21, 28]);
    }

}
