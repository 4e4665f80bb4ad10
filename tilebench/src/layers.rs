//! Per-layer metrics of a traced run.
//!
//! Every traced run reports the whole table below; a layer a workload
//! does not reach reports 0. The layers are the repository's crates and
//! modules: `gen`, `sched` (symbolic helpers and the persistent pool),
//! `core.plan`, `core.driver`, `accum` / `core.kernels`, `core.graph` and
//! `core.service`. `BENCHMARK.json` lists the same names.

use crate::inputs::csr_bytes;
use crate::report::{median, Metrics};
use crate::trace::{Open, Tracer};
use mspgemm_core::{Config, Executor, RunStats};
use mspgemm_rt::obs::{self, MetricsSnapshot};
use mspgemm_sched::{row_work, tile::tiles_for};
use mspgemm_sparse::{Csr, PlusPair, SparseError};
use std::collections::BTreeMap;

/// Name and unit of every per-layer metric, in report order.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("gen.input_s", "s"),
    ("gen.nnz", "count"),
    ("sched.estimate_ms", "ms"),
    ("sched.tiling_ms", "ms"),
    ("plan.build_ms", "ms"),
    ("plan.validate_ms", "ms"),
    ("plan.symbolic_share", "ratio"),
    ("exec.execute_ms", "ms"),
    ("run.kernel_ms", "ms"),
    ("run.setup_ms", "ms"),
    ("run.retry_ms", "ms"),
    ("run.busy_frac", "ratio"),
    ("run.idle_ms", "ms"),
    ("run.imbalance", "ratio"),
    ("run.retried_tiles", "count"),
    ("run.overbook_spills", "count"),
    ("run.parallel_eff", "ratio"),
    ("kernel.work_per_s", "1/s"),
    ("kernel.bytes_per_work_computed", "B/work"),
    ("accum.hash.probe_steps_per_probe", "ratio"),
    ("accum.mask_preload.hit_ratio", "ratio"),
    ("accum.full_resets", "count"),
    ("kernel.hybrid.coiterate_share", "ratio"),
    ("kernel.binary_search_steps", "count"),
    ("sched.tiles_completed", "count"),
    ("sched.queue_claims", "count"),
    ("sched.claim_latency_ns.p50", "ns"),
    ("sched.claim_latency_ns.p99", "ns"),
    ("sched.workers_spawned", "count"),
    ("graph.build_ms", "ms"),
    ("graph.execute_ms", "ms"),
    ("graph.rounds", "count"),
    ("fusion.sink_fused_elements", "count"),
    ("graph.fused_vs_unfused", "ratio"),
    ("svc.submit_us", "us"),
    ("svc.queue_delay_ms.p50", "ms"),
    ("svc.queue_delay_ms.p99", "ms"),
    ("svc.run_ms", "ms"),
    ("svc.batch_size.mean", "count"),
    ("svc.plan_cache_hit_ratio", "ratio"),
    ("svc.rejected", "count"),
    ("svc.backlog_end", "count"),
    ("trace.overhead", "ratio"),
];

/// Per-layer values of one traced run, filled by name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Every metric of the table, 0 where this workload set none.
    pub fn into_metrics(self) -> Metrics {
        let mut m = Metrics::default();
        for &(name, unit) in LAYER_METRICS {
            m.put(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
        m
    }
}

/// One product `A ⊙ (A × A)` split into its public layer calls: the Eq. 2
/// estimate, plan build, tiling, fingerprint validation and the numeric
/// phase.
pub struct ProbeSample {
    pub estimate_ms: f64,
    pub build_ms: f64,
    pub tiling_ms: f64,
    pub validate_ms: f64,
    pub execute_ms: f64,
    pub stats: RunStats,
    pub bytes: u64,
}

/// Run one probe product inside `parent`, returning its sample and output.
pub fn probe(
    tracer: &mut Tracer,
    op: u64,
    parent: &Open,
    a: &Csr<u64>,
    config: &Config,
) -> Result<(ProbeSample, Csr<u64>), SparseError> {
    let exec = Executor::global();
    let (work, est) = tracer.time("sched.row_work", op, Some(parent), || row_work(a, a, a));
    let (plan, build) = tracer.time("plan.build", op, Some(parent), || {
        exec.plan::<PlusPair>(a, a, a, config)
    });
    let mut plan = plan?;
    let (tiles, tiling) = tracer.time("sched.tiles_for", op, Some(parent), || {
        tiles_for(config.tiling, a.nrows(), &work, plan.n_tiles())
    });
    std::hint::black_box(tiles);
    let (valid, validate) =
        tracer.time("plan.validate", op, Some(parent), || plan.validate(a, a, a));
    valid?;
    let (out, execute) = tracer.time("plan.execute", op, Some(parent), || plan.execute(a, a, a));
    let (c, stats) = out?;
    let bytes = 3 * csr_bytes(a) + csr_bytes(&c);
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let sample = ProbeSample {
        estimate_ms: ms(est),
        build_ms: ms(build),
        tiling_ms: ms(tiling),
        validate_ms: ms(validate),
        execute_ms: ms(execute),
        stats,
        bytes,
    };
    Ok((sample, c))
}

/// Single-threaded numeric time of the probe product, median over `reps`
/// passes over `inputs`: the serial base of `run.parallel_eff`.
pub fn serial_kernel_ms(
    inputs: &[&Csr<u64>],
    config: &Config,
    reps: usize,
) -> Result<f64, SparseError> {
    let serial = config.to_builder().n_threads(1).build();
    let mut t = Vec::with_capacity(reps * inputs.len());
    for &a in inputs {
        let mut plan = Executor::global().plan::<PlusPair>(a, a, a, &serial)?;
        for _ in 0..reps {
            let (_, stats) = plan.execute(a, a, a)?;
            t.push(stats.elapsed.as_secs_f64() * 1e3);
        }
    }
    Ok(median(&t))
}

/// Fill the `sched.*` symbolic, `core.plan` and `core.driver` metrics
/// from probe samples (medians over samples).
pub fn set_probe_layers(layers: &mut Layers, samples: &[ProbeSample], serial_ms: f64) {
    let med = |f: &dyn Fn(&ProbeSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let kernel_ms = med(&|s| s.stats.elapsed.as_secs_f64() * 1e3);
    let threads = samples.first().map_or(1, |s| s.stats.n_threads.max(1)) as f64;
    let busy_ms = |s: &ProbeSample| {
        s.stats
            .thread_reports
            .iter()
            .map(|r| r.busy.as_secs_f64() * 1e3)
            .sum::<f64>()
    };
    let execute_ms = med(&|s| s.execute_ms);
    let build_ms = med(&|s| s.build_ms);
    let work = med(&|s| s.stats.estimated_work as f64);
    layers.set("sched.estimate_ms", med(&|s| s.estimate_ms));
    layers.set("sched.tiling_ms", med(&|s| s.tiling_ms));
    layers.set("plan.build_ms", build_ms);
    layers.set("plan.validate_ms", med(&|s| s.validate_ms));
    layers.set("plan.symbolic_share", build_ms / execute_ms);
    layers.set("exec.execute_ms", execute_ms);
    layers.set("run.kernel_ms", kernel_ms);
    layers.set("run.setup_ms", med(&|s| s.stats.setup.as_secs_f64() * 1e3));
    layers.set(
        "run.retry_ms",
        med(&|s| s.stats.retry_elapsed.as_secs_f64() * 1e3),
    );
    layers.set(
        "run.busy_frac",
        med(&|s| busy_ms(s) / (s.stats.elapsed.as_secs_f64() * 1e3 * threads)),
    );
    layers.set(
        "run.idle_ms",
        med(&|s| s.stats.elapsed.as_secs_f64() * 1e3 * threads - busy_ms(s)),
    );
    layers.set("run.imbalance", med(&|s| s.stats.imbalance()));
    layers.set(
        "run.retried_tiles",
        samples.iter().map(|s| s.stats.retried_tiles as f64).sum(),
    );
    layers.set(
        "run.overbook_spills",
        samples.iter().map(|s| s.stats.overbook_spills as f64).sum(),
    );
    layers.set("run.parallel_eff", serial_ms / (threads * kernel_ms));
    layers.set("kernel.work_per_s", work / (kernel_ms / 1e3));
    layers.set(
        "kernel.bytes_per_work_computed",
        med(&|s| s.bytes as f64) / work,
    );
}

/// Counter and histogram deltas of the traced operations.
#[derive(Default)]
pub struct Counted {
    delta: Option<MetricsSnapshot>,
}

impl Counted {
    /// Add the registry's change since `before`.
    pub fn add_since(&mut self, before: &MetricsSnapshot) {
        let d = obs::snapshot().delta_since(before);
        self.delta = Some(match self.delta.take() {
            None => d,
            Some(mut acc) => {
                for ((_, a), (_, b)) in acc.counters.iter_mut().zip(&d.counters) {
                    *a += b;
                }
                for ((_, a), (_, b)) in acc.hists.iter_mut().zip(&d.hists) {
                    a.iter_mut().zip(b).for_each(|(x, y)| *x += y);
                }
                acc
            }
        });
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.delta.as_ref().map_or(0.0, |d| d.counter(name) as f64)
    }

    /// Percentile `p` of a power-of-two histogram, as the upper edge of
    /// the bucket it falls in (bucket `i >= 1` spans `[2^(i-1), 2^i)`).
    pub fn hist_percentile(&self, name: &str, p: f64) -> f64 {
        let Some(buckets) = self.delta.as_ref().and_then(|d| d.hist(name)) else {
            return 0.0;
        };
        let total: u64 = buckets.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            }
        }
        0.0
    }

    /// Fill the `accum`, `core.kernels` and `sched.persistent` metrics,
    /// counts divided over `ops` products.
    pub fn set_kernel_layers(&self, layers: &mut Layers, ops: f64) {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let c = |n| self.counter(n);
        layers.set(
            "accum.hash.probe_steps_per_probe",
            ratio(c("accum.hash.probe_steps"), c("accum.hash.probes")),
        );
        layers.set(
            "accum.mask_preload.hit_ratio",
            ratio(
                c("accum.mask_preload.hits"),
                c("accum.mask_preload.hits") + c("accum.mask_preload.misses"),
            ),
        );
        layers.set(
            "accum.full_resets",
            ratio(
                c("accum.dense.full_resets") + c("accum.hash.full_resets"),
                ops,
            ),
        );
        layers.set(
            "kernel.hybrid.coiterate_share",
            ratio(
                c("kernel.hybrid.coiterate"),
                c("kernel.hybrid.coiterate") + c("kernel.hybrid.saxpy"),
            ),
        );
        layers.set(
            "kernel.binary_search_steps",
            ratio(c("kernel.binary_search_steps"), ops),
        );
        layers.set(
            "sched.tiles_completed",
            ratio(c("sched.tiles_completed"), ops),
        );
        layers.set("sched.queue_claims", ratio(c("sched.queue_claims"), ops));
        layers.set(
            "sched.claim_latency_ns.p50",
            self.hist_percentile("sched.claim_latency_ns", 50.0),
        );
        layers.set(
            "sched.claim_latency_ns.p99",
            self.hist_percentile("sched.claim_latency_ns", 99.0),
        );
        layers.set(
            "sched.workers_spawned",
            Executor::global().spawned_workers() as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-layer table and `BENCHMARK.json` name the same metrics with
    /// the same units, in the same order.
    #[test]
    fn table_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = mspgemm_rt::json::parse(&text).expect("valid JSON");
        let listed: Vec<(String, String)> = doc
            .get("per_layer")
            .and_then(|v| v.as_arr())
            .expect("per_layer list")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(|v| v.as_str())
                        .expect("string field")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect();
        let table: Vec<(String, String)> = LAYER_METRICS
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, table);
    }
}
