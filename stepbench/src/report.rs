//! The run's outcome: the human-readable table, the failure tally and
//! the one-line JSON result the benchmark prints last.

use crate::stats::Summary;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Reported {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// The samples the value was taken from, when there are several.
    pub summary: Option<Summary>,
}

/// Attempted and failed operations, and the checks that missed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations that returned an error, plus checks that missed.
    pub failed: u64,
    /// One line per failure.
    pub misses: Vec<String>,
}

impl Tally {
    /// Counts one operation, recording its error if it failed.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.misses.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts one correctness check.
    pub fn check(&mut self, what: &str, r: Result<(), String>) {
        self.op(what, r);
    }

    /// Failed share of attempted operations.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Renders a number for JSON: full precision, never NaN or infinite.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The human-readable table: every metric with its unit, sample count,
/// value (the median or percentile for sampled metrics), quartiles and
/// interquartile spread relative to the median.
pub fn table(metrics: &[Reported]) -> String {
    let mut s = format!(
        "{:<32} {:>8} {:>6} {:>16} {:>16} {:>16} {:>9}\n",
        "metric", "unit", "n", "value", "q1", "q3", "iqr/med"
    );
    for m in metrics {
        let (n, q1, q3, spread) = match m.summary {
            Some(sm) => (
                sm.n.to_string(),
                format!("{:.6}", sm.q1),
                format!("{:.6}", sm.q3),
                format!("{:.4}", sm.spread()),
            ),
            None => ("1".into(), "-".into(), "-".into(), "-".into()),
        };
        let _ = writeln!(
            s,
            "{:<32} {:>8} {:>6} {:>16.6} {:>16} {:>16} {:>9}",
            m.name, m.unit, n, m.value, q1, q3, spread
        );
    }
    s
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, tally: &Tally, metrics: &[Reported]) -> String {
    json_object(&[
        ("correct", correct.to_string()),
        ("attempted", tally.attempted.max(1).to_string()),
        ("failed", tally.failed.to_string()),
        ("metrics", metrics_json(metrics)),
    ])
}

/// A flat JSON object of `(key, value)` pairs whose values are already
/// rendered JSON.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON string literal (the benchmark's strings need no escapes beyond
/// quotes and backslashes).
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A metric list as a JSON object `{name: {value, unit}}`.
pub fn metrics_json(metrics: &[Reported]) -> String {
    let fields: Vec<(&str, String)> = metrics
        .iter()
        .map(|m| {
            (
                m.name,
                json_object(&[("value", json_num(m.value)), ("unit", json_str(m.unit))]),
            )
        })
        .collect();
    json_object(&fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_errors_and_misses() {
        let mut t = Tally::default();
        assert_eq!(t.op("a", Ok::<_, String>(3)), Some(3));
        assert_eq!(t.op::<(), _>("b", Err("boom")), None);
        t.check("c", Err("miss".into()));
        t.check("d", Ok(()));
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert!((t.failed_frac() - 0.5).abs() < 1e-12);
        assert_eq!(t.misses, vec!["b: boom".to_string(), "c: miss".to_string()]);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m = [Reported {
            name: "setup_s",
            unit: "s",
            value: 0.8127,
            summary: None,
        }];
        let t = Tally {
            attempted: 5,
            ..Tally::default()
        };
        assert_eq!(
            result_json(true, &t, &m),
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn non_finite_values_never_reach_json() {
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
