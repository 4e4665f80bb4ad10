//! Result records, order statistics and the one-line JSON the benchmark
//! prints last.

use std::fmt::Write as _;
use std::time::Duration;

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in the order they are reported.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }
}

/// What one run of a workload produced: its operation tallies, its
/// metrics and the human-readable notes printed before the result line.
pub struct Outcome {
    /// Operations whose output was checked (timed and warm-up alike).
    pub attempted: u64,
    /// Operations that were refused, returned an error or a wrong output.
    pub failed: u64,
    /// Operations whose output differed from the reference.
    pub wrong: u64,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

impl Outcome {
    /// No wrong output and no error: refusals under overload count in
    /// `failed` but are not correctness failures.
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Every digit of a finite value. A non-finite value (a percentile that
/// reaches refused jobs, or one of no samples) reads as the largest
/// double, so it can never pass for a good result.
fn json_number(v: f64) -> String {
    format!("{:?}", if v.is_finite() { v } else { f64::MAX })
}

/// Windows of a measured phase whose rates and percentiles are reported
/// as a median over windows.
pub const WINDOWS: usize = 10;

/// Latencies of the operations of one measured phase, with when each
/// ended (seconds from the phase start).
#[derive(Default)]
pub struct Samples {
    pub lat_ms: Vec<f64>,
    pub end_s: Vec<f64>,
    pub wall: Duration,
}

impl Samples {
    /// Completed ops per second, median over the windows.
    pub fn ops_per_s(&self) -> f64 {
        let width = self.wall.as_secs_f64() / WINDOWS as f64;
        let mut count = [0u32; WINDOWS];
        for &t in &self.end_s {
            count[((t / width) as usize).min(WINDOWS - 1)] += 1;
        }
        median(&count.map(|c| f64::from(c) / width))
    }

    /// Latency percentile `q`, median over the windows.
    pub fn p(&self, q: f64) -> f64 {
        windowed_percentile(
            &self.end_s,
            &self.lat_ms,
            q,
            self.wall.as_secs_f64(),
            WINDOWS,
        )
    }

    pub fn note(&self, name: &str) -> String {
        format!(
            "{name}: {} ops in {:.2} s; whole run {:.2} ops/s, p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms; median of {WINDOWS} windows {:.2} ops/s, p50 {:.3} ms, p90 {:.3} ms (samples {})",
            self.lat_ms.len(),
            self.wall.as_secs_f64(),
            self.lat_ms.len() as f64 / self.wall.as_secs_f64(),
            percentile(&self.lat_ms, 50.0),
            percentile(&self.lat_ms, 90.0),
            percentile(&self.lat_ms, 99.0),
            self.ops_per_s(),
            self.p(50.0),
            self.p(90.0),
            self.lat_ms.len()
        )
    }

    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(&self, setup_s: &[f64]) -> Metrics {
        let mut m = Metrics::default();
        m.put("setup_s", median(setup_s), "s");
        m.put("ops_per_s", self.ops_per_s(), "1/s");
        m.put("op_p50_ms", self.p(50.0), "ms");
        m.put("op_p90_ms", self.p(90.0), "ms");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
        m
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile `p` in `[0, 100]` of an unsorted sample; `NaN`
/// when empty. `f64::INFINITY` entries (refused jobs) sort last.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Split a run of `length_s` seconds into `windows` equal windows, take
/// percentile `q` of the values that fall in each (by their time `at_s`,
/// in seconds from the start) and return the median over windows. A
/// stall of the host that spans less than half the windows leaves the
/// result where it was.
pub fn windowed_percentile(
    at_s: &[f64],
    values: &[f64],
    q: f64,
    length_s: f64,
    windows: usize,
) -> f64 {
    let width = length_s / windows as f64;
    let mut per = vec![Vec::new(); windows];
    for (&at, &v) in at_s.iter().zip(values) {
        per[((at / width).max(0.0) as usize).min(windows - 1)].push(v);
    }
    let per: Vec<f64> = per
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| percentile(w, q))
        .collect();
    median(&per)
}

/// Median as Python's `statistics.median` computes it.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the default "exclusive" method). Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Peak resident set of this process in MiB (`VmHWM`), or `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[f64::INFINITY, 1.0], 99.0), f64::INFINITY);
    }

    #[test]
    fn windowed_percentile_ignores_a_minority_of_bad_windows() {
        // four windows of one second; the third holds a stall
        let at: Vec<f64> = (0..40).map(|i| f64::from(i) / 10.0).collect();
        let v: Vec<f64> = (0..40)
            .map(|i| if (20..30).contains(&i) { 100.0 } else { 1.0 })
            .collect();
        assert_eq!(windowed_percentile(&at, &v, 90.0, 4.0, 4), 1.0);
        assert_eq!(windowed_percentile(&at, &v, 90.0, 4.0, 1), 100.0);
    }
}
