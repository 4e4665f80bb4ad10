//! `service-road`: one client keeping `IN_FLIGHT` jobs in flight in one
//! `Service`.
//!
//! The client submits round-robin over `TENANTS` tenant ids, each job's
//! shape a seeded draw from a small mix, and collects replies oldest
//! first, submitting a new job as each one returns: a closed loop whose
//! window keeps the queue deep enough to fill every dispatch batch. Every
//! reply is checked bit-for-bit against a serial `spgemm` of its shape.
//! A job is timed from its `Service::submit` call to when the client holds
//! its reply.

use crate::closed::io_error;
use crate::inputs::{checksum, csr_bytes, mix, suite_input, unit};
use crate::layers::{probe, serial_kernel_ms, set_probe_layers, Counted, Layers};
use crate::report::{mean, median, ms, percentile, Outcome, Samples};
use crate::trace::Tracer;
use crate::{Args, SETUP_REPS};
use mspgemm_core::{spgemm, Config, JobTicket, Service, ServiceOptions, SubmitOptions};
use mspgemm_rt::obs;
use mspgemm_rt::rng::SplitMix64;
use mspgemm_sparse::{Csr, PlusPair, SparseError};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The job mix: (graph, scale, weight). Two shapes, far fewer than
/// `ServiceOptions::default().plan_cache_max`, so plan-cache hits dominate.
const SHAPES: [(&str, f64, u32); 2] = [("GAP-road", 1.0, 3), ("com-LiveJournal", 0.1, 1)];
const TENANTS: u32 = 8;
/// Jobs in flight: twice `ServiceOptions::default().batch_max`, so a
/// dispatch always finds a full batch queued.
const IN_FLIGHT: usize = 32;
const PROBE_REPS: usize = 20;
const SERIAL_REPS: usize = 5;

struct Shape {
    a: Arc<Csr<u64>>,
    reference: Csr<u64>,
}

/// A submitted job awaiting its reply.
struct Pending {
    shape: usize,
    submit_start: Instant,
    submit_end: Instant,
    ticket: Result<JobTicket<PlusPair>, SparseError>,
}

/// What one measured phase observed.
#[derive(Default)]
struct Phase {
    samples: Samples,
    queue_ms: Vec<f64>,
    run_ms: Vec<f64>,
    batch: Vec<f64>,
    submit_us: Vec<f64>,
    /// Submissions refused with `QueueFull`.
    refused: u64,
    /// Other errors and wrong replies.
    wrong: u64,
    /// Jobs queued when the client stopped submitting.
    backlog_end: usize,
}

/// The shape whose weight band holds `u` in `[0, 1)`.
fn pick_shape(u: f64) -> usize {
    let total: u32 = SHAPES.iter().map(|s| s.2).sum();
    let mut x = u * f64::from(total);
    for (i, s) in SHAPES.iter().enumerate() {
        if x < f64::from(s.2) {
            return i;
        }
        x -= f64::from(s.2);
    }
    SHAPES.len() - 1
}

/// Keep `IN_FLIGHT` jobs in flight for `length`, then collect the rest.
fn run_phase(
    svc: &Service<PlusPair>,
    shapes: &[Shape],
    length: Duration,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let cfg = Config::default();
    let mut rng = SplitMix64::new(seed);
    let mut phase = Phase::default();
    let mut pending = VecDeque::with_capacity(IN_FLIGHT);
    let start = Instant::now();
    let (mut submitted, mut collected, mut open) = (0u32, 0u64, true);
    loop {
        if open && start.elapsed() >= length {
            open = false;
            phase.backlog_end = svc.depth();
        }
        if open && pending.len() < IN_FLIGHT {
            let shape = pick_shape(unit(&mut rng));
            let a = &shapes[shape].a;
            let opts = SubmitOptions {
                tenant: submitted % TENANTS,
                ..SubmitOptions::default()
            };
            let submit_start = Instant::now();
            let ticket = svc.submit(Arc::clone(a), Arc::clone(a), Arc::clone(a), cfg, opts);
            let submit_end = Instant::now();
            pending.push_back(Pending {
                shape,
                submit_start,
                submit_end,
                ticket,
            });
            submitted += 1;
            continue;
        }
        let Some(job) = pending.pop_front() else {
            break;
        };
        let wait_start = Instant::now();
        let reply = job.ticket.and_then(JobTicket::wait);
        let done = Instant::now();
        phase
            .submit_us
            .push(ms(job.submit_end - job.submit_start) * 1e3);
        match reply {
            Ok(r) => {
                phase.samples.lat_ms.push(ms(done - job.submit_start));
                phase.samples.end_s.push((done - start).as_secs_f64());
                phase.queue_ms.push(ms(r.queue_delay));
                phase.run_ms.push(ms(r.stats.elapsed));
                phase.batch.push(r.batch_size as f64);
                phase.wrong += u64::from(r.c != shapes[job.shape].reference);
            }
            Err(SparseError::QueueFull { .. }) => phase.refused += 1,
            Err(_) => phase.wrong += 1,
        }
        if let Some(t) = tracer.as_deref_mut() {
            let root = t.record("svc.job", collected, None, job.submit_start, done);
            let _ = t.record(
                "svc.submit",
                collected,
                Some(&root),
                job.submit_start,
                job.submit_end,
            );
            let _ = t.record("svc.wait", collected, Some(&root), wait_start, done);
        }
        collected += 1;
    }
    phase.samples.wall = start.elapsed();
    phase
}

pub fn service_road(args: &Args) -> Result<Outcome, SparseError> {
    let cfg = Config::default();
    let gen = |i: usize| {
        let (name, scale, _) = SHAPES[i];
        suite_input(name, scale, mix(args.seed, i as u64))
    };
    // References first: the checker's cost is not set-up.
    let mut shapes = Vec::new();
    for i in 0..SHAPES.len() {
        let a = gen(i);
        let (reference, _) = spgemm::<PlusPair>(&a, &a, &a, &cfg)?;
        shapes.push(Shape {
            a: Arc::new(a),
            reference,
        });
    }
    // Each set-up generates the shapes, starts a service and runs one
    // warm-up job per shape, which fills its plan cache.
    let (mut attempted, mut wrong) = (0u64, 0u64);
    let (mut setup_s, mut gen_s, mut svc) = (Vec::new(), Vec::new(), None);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let inputs: Vec<Csr<u64>> = (0..SHAPES.len()).map(gen).collect();
        gen_s.push(t.elapsed().as_secs_f64());
        let s = Service::<PlusPair>::new(ServiceOptions::default());
        for (a, shape) in inputs.into_iter().zip(&shapes) {
            let a = Arc::new(a);
            let opts = SubmitOptions::default();
            let reply = s
                .submit(Arc::clone(&a), Arc::clone(&a), a, cfg, opts)?
                .wait()?;
            attempted += 1;
            wrong += u64::from(reply.c != shape.reference);
        }
        setup_s.push(t.elapsed().as_secs_f64());
        svc = Some(s);
    }
    let svc = svc.expect("at least one set-up");
    let mut notes = vec![];
    for ((name, scale, weight), s) in SHAPES.iter().zip(&shapes) {
        notes.push(format!(
            "shape {name} scale {scale} weight {weight}: n {} nnz {}, output nnz {} checksum {:016x}",
            s.a.nrows(),
            s.a.nnz(),
            s.reference.nnz(),
            checksum(&s.reference)
        ));
    }
    // One job reads one shape (as A, B and mask) and writes its product.
    let ws = shapes
        .iter()
        .map(|s| csr_bytes(&s.a) + csr_bytes(&s.reference))
        .max();
    notes.push(format!("working_set_bytes={}", ws.unwrap_or(0)));
    let phase_note = |name: &str, p: &Phase| {
        format!(
            "{}; batch mean {:.2}, refused {}, backlog {}",
            p.samples.note(name),
            mean(&p.batch),
            p.refused,
            p.backlog_end
        )
    };

    if !args.trace {
        let p = run_phase(&svc, &shapes, args.budget(), mix(args.seed, 7), None);
        notes.push(phase_note("timed", &p));
        attempted += p.samples.lat_ms.len() as u64 + p.refused;
        wrong += p.wrong;
        let metrics = p.samples.end_to_end(&setup_s);
        return Ok(Outcome {
            attempted,
            failed: wrong + p.refused,
            wrong,
            metrics,
            notes,
        });
    }

    let half = args.budget() / 2;
    let plain = run_phase(&svc, &shapes, half, mix(args.seed, 7), None);
    notes.push(phase_note("untraced", &plain));
    obs::arm_metrics();
    let mut tracer = Tracer::new();
    let mut counted = Counted::default();
    let before = obs::snapshot();
    let traced = run_phase(&svc, &shapes, half, mix(args.seed, 8), Some(&mut tracer));
    counted.add_since(&before);
    notes.push(phase_note("traced", &traced));
    let road = &shapes[0].a;
    let mut samples = Vec::new();
    for i in 0..PROBE_REPS as u64 {
        let root = tracer.open("probe", i, None);
        match probe(&mut tracer, i, &root, road, &cfg) {
            Ok((s, c)) if c == shapes[0].reference => samples.push(s),
            _ => wrong += 1,
        }
        tracer.close(root);
    }
    let jobs = traced.samples.lat_ms.len();
    attempted += (plain.samples.lat_ms.len() + jobs) as u64 + PROBE_REPS as u64;
    wrong += plain.wrong + traced.wrong;
    let failed = wrong + plain.refused + traced.refused;

    let mut layers = Layers::default();
    layers.set("gen.input_s", median(&gen_s));
    layers.set("gen.nnz", shapes.iter().map(|s| s.a.nnz() as f64).sum());
    set_probe_layers(
        &mut layers,
        &samples,
        serial_kernel_ms(&[road], &cfg, SERIAL_REPS)?,
    );
    counted.set_kernel_layers(&mut layers, jobs.max(1) as f64);
    layers.set("svc.submit_us", median(&traced.submit_us));
    layers.set("svc.queue_delay_ms.p50", percentile(&traced.queue_ms, 50.0));
    layers.set("svc.queue_delay_ms.p99", percentile(&traced.queue_ms, 99.0));
    layers.set("svc.run_ms", median(&traced.run_ms));
    layers.set("svc.batch_size.mean", mean(&traced.batch));
    let (hits, misses) = (
        counted.counter("svc.plan_cache_hits"),
        counted.counter("svc.plan_cache_misses"),
    );
    let lookups = hits + misses;
    layers.set(
        "svc.plan_cache_hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    layers.set("svc.rejected", counted.counter("svc.rejected"));
    layers.set("svc.backlog_end", traced.backlog_end as f64);
    layers.set(
        "trace.overhead",
        traced.samples.p(50.0) / plain.samples.p(50.0),
    );
    tracer.write(&args.trace_path()).map_err(io_error)?;
    Ok(Outcome {
        attempted,
        failed,
        wrong,
        metrics: layers.into_metrics(),
        notes,
    })
}
