//! Measurement plumbing shared by every workload: order statistics with the
//! tail-percentile rule, failure accounting, the metric set and its JSON
//! line, telemetry-report lookups, and peak memory.

use ssn_telemetry::json;
use ssn_telemetry::Report;
use std::time::Duration;

/// Percentiles a tail is chosen from, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n.max(1))
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile no greater than `cap` that has at least
/// [`MIN_BEYOND`] samples beyond it. With too few samples for any of them
/// the median is used, and the caller states the sample count.
pub fn tail_percentile(n: usize, cap: f64) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Nearest-rank percentile `p` of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// A latency or pass-time distribution summarised as a median and a tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Distribution {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The percentile the tail was read at (see [`tail_percentile`]).
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
}

impl Distribution {
    /// Summarises `values`, reading the tail at most at `cap`.
    pub fn of(values: &[f64], cap: f64) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(sorted.len(), cap);
        let p50 = median(&sorted);
        Self {
            n: sorted.len(),
            p50,
            tail_pct,
            // Too few samples for a tail: the tail is the median itself.
            tail: if tail_pct == 50.0 {
                p50
            } else {
                percentile(&sorted, tail_pct)
            },
        }
    }
}

/// Operations attempted and failed in one run. An operation is a pass, an
/// HTTP request or an output check; a non-2xx status, a transport error, a
/// 503 shed and a failed check each count as one failure.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure descriptions, for stderr.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one operation that succeeded or failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Adds another tally's operations to this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }

    /// Records one output check.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.op(ok, || format!("check failed: {name}"));
    }

    /// Records an operation that returned an error.
    pub fn result<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.op(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.op(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Failed over attempted operations.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// One named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// An ordered metric set.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends `name = value unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let body = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::escape(&m.name),
                json::number(m.value),
                json::escape(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    )
}

/// Total time and count of every span whose path is `suffix` or ends in
/// `.suffix`, wherever in the span tree (or on whichever thread) it ran.
pub fn span_sum(report: &Report, suffix: &str) -> (Duration, u64) {
    report
        .spans
        .iter()
        .filter(|s| {
            s.path == suffix
                || (s.path.len() > suffix.len()
                    && s.path.ends_with(suffix)
                    && s.path.as_bytes()[s.path.len() - suffix.len() - 1] == b'.')
        })
        .fold((Duration::ZERO, 0), |(t, n), s| (t + s.total, n + s.count))
}

/// The total of [`span_sum`].
pub fn span_total(report: &Report, suffix: &str) -> Duration {
    span_sum(report, suffix).0
}

/// A counter's value, 0 when it was never recorded.
pub fn counter(report: &Report, name: &str) -> u64 {
    report.counter(name).unwrap_or(0)
}

/// `num / den`, 0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), NaN where
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
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000, 99.0), 99.0);
        assert_eq!(tail_percentile(10_000, 99.9), 99.9);
        assert_eq!(tail_percentile(1000, 99.9), 99.0);
        assert_eq!(tail_percentile(1000, 99.0), 99.0);
        assert_eq!(beyond(1000, 99.0), 10);
        // One sample short of ten beyond p99 falls to p95.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(999, 99.0), 95.0);
        assert_eq!(tail_percentile(200, 99.0), 95.0);
        assert_eq!(tail_percentile(100, 99.0), 90.0);
        assert_eq!(tail_percentile(40, 99.0), 75.0);
        assert_eq!(tail_percentile(20, 99.0), 50.0);
        // Too few for any percentile: the median, with the count stated.
        assert_eq!(tail_percentile(5, 99.0), 50.0);
    }

    #[test]
    fn distribution_reads_nearest_rank_values() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let d = Distribution::of(&v, 99.0);
        assert_eq!(d.n, 1000);
        assert_eq!(d.p50, 500.5);
        assert_eq!(d.tail_pct, 99.0);
        assert_eq!(d.tail, 990.0);
        let small = Distribution::of(&[3.0, 1.0, 2.0], 99.0);
        assert_eq!((small.p50, small.tail_pct, small.tail), (2.0, 50.0, 2.0));
        let even = Distribution::of(&[1.0, 2.0, 3.0, 4.0], 99.0);
        assert_eq!((even.p50, even.tail), (2.5, 2.5));
    }

    #[test]
    fn error_rate_counts_every_failure_kind_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        // 2xx responses and passing checks are successes.
        t.op(true, String::new);
        t.check("hit bytes equal miss bytes", true);
        // A 503 shed, a transport error and a failed check are failures.
        t.op(false, || "status 503".into());
        let r: Result<(), std::io::Error> = Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            "reset",
        ));
        assert!(t.result("GET /healthz", r).is_none());
        t.check("front digest", false);
        assert_eq!(t.attempted, 5);
        assert_eq!(t.failed, 3);
        assert!((t.error_rate() - 0.6).abs() < 1e-12);
        assert_eq!(t.notes.len(), 3);
        assert!(t.notes[1].contains("reset"));
        // Tallies of concurrent clients add up.
        let mut total = Tally::default();
        total.merge(t.clone());
        total.merge(t);
        assert_eq!((total.attempted, total.failed), (10, 6));
    }

    #[test]
    fn result_line_round_trips_through_the_telemetry_json_parser() {
        let mut m = Metrics::default();
        m.put("wall_s", 0.123_456_789_012_345_6, "s");
        m.put("latency_p99_ms", 4.5, "ms");
        m.put("peak_rss_mb", 31.25, "MB");
        let mut t = Tally::default();
        t.op(true, String::new);
        let line = result_line(&t, &m);
        let parsed = json::parse(&line).expect("valid JSON");
        let json::Json::Obj(fields) = &parsed else {
            panic!("not an object: {line}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&json::Json::Bool(true)));
        assert_eq!(
            parsed.get("attempted").and_then(json::Json::as_u64),
            Some(1)
        );
        assert_eq!(parsed.get("failed").and_then(json::Json::as_u64), Some(0));
        let metrics = parsed.get("metrics").expect("metrics");
        for metric in &m.0 {
            let entry = metrics.get(&metric.name).expect("every metric present");
            // All digits survive: the parsed value is the measured value.
            assert_eq!(
                entry.get("value").and_then(json::Json::as_f64),
                Some(metric.value)
            );
            assert_eq!(
                entry.get("unit").and_then(json::Json::as_str),
                Some(metric.unit)
            );
        }
    }

    #[test]
    fn span_lookup_matches_whole_path_segments() {
        let session = ssn_telemetry::Session::start();
        {
            let _a = ssn_telemetry::span("opt.refine");
            let _b = ssn_telemetry::span("durable.run");
        }
        {
            let _c = ssn_telemetry::span("xdurable.run");
        }
        let report = session.finish();
        assert_eq!(
            span_total(&report, "opt.refine.durable.run"),
            report.span("opt.refine.durable.run").unwrap().total
        );
        // `xdurable.run` is not a `durable.run` span.
        assert_eq!(
            span_total(&report, "durable.run"),
            report.span("opt.refine.durable.run").unwrap().total
        );
        assert_eq!(span_sum(&report, "durable.run").1, 1);
        assert_eq!(counter(&report, "missing"), 0);
    }
}
