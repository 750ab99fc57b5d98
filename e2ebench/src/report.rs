//! Metrics, correctness checks and the result line.

use std::fmt::Write as _;

/// Which list of `BENCHMARK.json` a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A number a user of the system sees; measured with tracing off.
    EndToEnd,
    /// A number of one layer; reported by the traced run.
    Layer,
}

/// One measured number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How many samples the value summarises.
    pub samples: usize,
    /// End-to-end or per-layer.
    pub kind: Kind,
}

/// One correctness check and its verdict.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// Counts or the first mismatch, for the log.
    pub detail: String,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric, both kinds.
    pub metrics: Vec<Metric>,
    /// Operations attempted (each correctness check counts as one).
    pub attempted: u64,
    /// Operations that failed (a failed check counts as one).
    pub failed: u64,
    /// Correctness checks in the order they ran.
    pub checks: Vec<Check>,
}

impl Outcome {
    /// Record an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.push(name, value, unit, samples, Kind::EndToEnd);
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.push(name, value, unit, samples, Kind::Layer);
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize, kind: Kind) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
            kind,
        });
    }

    /// Record a correctness check; a failure counts as a failed operation.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    /// True when every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Record as 0, with no samples, every metric of `listed` that was
    /// not measured: the counts and shares of a layer the workload does
    /// not reach.
    pub fn zero_unmeasured(&mut self, listed: &[(&str, &'static str)]) {
        for &(name, unit) in listed {
            if !self.metrics.iter().any(|m| m.name == name) {
                self.layer(name, 0.0, unit, 0);
            }
        }
    }

    /// The result line: the four keys, with exactly the `listed`
    /// metrics, in that order. Fails if one was not measured or was
    /// measured in another unit.
    pub fn result_line(&self, listed: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = String::new();
        for &(name, unit) in listed {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if m.unit != unit {
                return Err(format!("metric {name} is in {}, not {unit}", m.unit));
            }
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics
        ))
    }
}

/// A JSON number; non-finite values (which no metric should produce)
/// become `null` so the line still parses and the gap shows.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Escape a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Nearest-rank quantile of `xs` (`q` in [0, 1]); 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Tracing overhead in percent: how much slower the traced units ran
/// than the untraced ones, by median unit time.
pub fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    let base = median(untraced);
    if base > 0.0 {
        100.0 * (median(traced) / base - 1.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn result_line_has_the_four_keys_and_the_listed_metrics() {
        let mut o = Outcome::default();
        o.e2e("setup_s", 0.5, "s", 3);
        o.e2e("sim_suite_s", 7.0, "s", 3);
        o.layer("sim.events", 10.0, "count", 1);
        o.check("ok", true, "");
        let line = o.result_line(&[("setup_s", "s")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        o.check("broken", false, "x");
        assert!(o
            .result_line(&[("sim.events", "count")])
            .unwrap()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    #[test]
    fn missing_metrics_fail_unless_zeroed() {
        let mut o = Outcome::default();
        o.layer("sim.events", 10.0, "count", 1);
        assert!(o.result_line(&[("setup_s", "s")]).is_err());
        assert!(o.result_line(&[("sim.events", "ms")]).is_err());
        o.zero_unmeasured(&[
            ("sim.events", "count"),
            ("net.frames_per_migration", "count"),
        ]);
        let line = o
            .result_line(&[
                ("sim.events", "count"),
                ("net.frames_per_migration", "count"),
            ])
            .unwrap();
        assert!(line.ends_with(
            "{\"sim.events\": {\"value\": 10, \"unit\": \"count\"}, \
             \"net.frames_per_migration\": {\"value\": 0, \"unit\": \"count\"}}}"
        ));
    }
}
