//! Metric records, summary statistics and the result line.

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`jobs_per_s`, `token_swap.stuck_ms`, ...).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit (`jobs/s`, `ms`, `ratio`, `count`, ...).
    pub unit: String,
}

/// An ordered list of metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Append one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.0
            .push(Metric { name: name.into(), value, unit: unit.to_string() });
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Every outcome passed its checks (`failed == 0`) and every
    /// self-check held.
    pub correct: bool,
    /// Jobs attempted in the timed phases.
    pub attempted: u64,
    /// Jobs that errored, went missing or failed verification.
    pub failed: u64,
    /// Reported metrics.
    pub metrics: Metrics,
    /// Human-readable reasons for `correct == false`.
    pub problems: Vec<String>,
}

impl RunResult {
    /// Record a failed self-check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.correct = false;
        self.problems.push(what.into());
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|m| {
                format!(
                    r#""{}":{{"value":{},"unit":"{}"}}"#,
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// Parse a line written by [`RunResult::to_json`] (without problems,
    /// which go to standard error).
    pub fn from_json(line: &str) -> Result<RunResult, String> {
        let doc: serde_json::Value =
            serde_json::from_str(line).map_err(|e| format!("bad result line {line:?}: {e}"))?;
        let field = |k: &str| {
            doc.get(k)
                .ok_or_else(|| format!("result line without {k:?}"))
        };
        let count = |k: &str| field(k)?.as_u64().ok_or_else(|| format!("bad {k:?}"));
        let mut result = RunResult {
            correct: field("correct")?.as_bool().ok_or("bad \"correct\"")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            ..RunResult::default()
        };
        let Some(serde_json::Value::Object(metrics)) = doc.get("metrics") else {
            return Err("result line without a \"metrics\" object".to_string());
        };
        for (name, m) in metrics {
            let value = m.get("value").and_then(|v| v.as_f64());
            let unit = m.get("unit").and_then(|u| u.as_str());
            let (Some(value), Some(unit)) = (value, unit) else {
                return Err(format!("bad metric {name:?}"));
            };
            result.metrics.push(name.clone(), value, unit);
        }
        Ok(result)
    }
}

/// A JSON number with full precision (non-finite values become 0, which
/// JSON cannot otherwise carry).
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// Quantile `q` of `values` by linear interpolation between order
/// statistics (the "type 7" rule); 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Running geometric mean of positive ratios.
#[derive(Debug, Clone, Copy, Default)]
pub struct GeoMean {
    log_sum: f64,
    n: u64,
}

impl GeoMean {
    /// Add `num / den`; skipped when `den == 0`.
    pub fn add(&mut self, num: usize, den: usize) {
        if den > 0 && num > 0 {
            self.log_sum += (num as f64 / den as f64).ln();
            self.n += 1;
        }
    }

    /// Fold in another accumulator's samples.
    pub fn merge(&mut self, other: &GeoMean) {
        self.log_sum += other.log_sum;
        self.n += other.n;
    }

    /// The geometric mean so far (1 with no samples).
    pub fn value(&self) -> f64 {
        if self.n == 0 {
            1.0
        } else {
            (self.log_sum / self.n as f64).exp()
        }
    }
}

/// Depth and size quality of a set of routes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    /// Depth ÷ depth lower bound.
    pub depth: GeoMean,
    /// Swaps ÷ ⌈total distance / 2⌉ (each swap moves two tokens one step).
    pub size: GeoMean,
}

impl Quality {
    /// Add one route.
    pub fn add(&mut self, depth: usize, lower_bound: usize, size: usize, total_distance: usize) {
        self.depth.add(depth, lower_bound);
        self.size.add(size, total_distance.div_ceil(2));
    }
}

/// Peak resident set size of this process in MB (`VmHWM`). It never goes
/// down, so each workload runs in a process of its own.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let mut result =
            RunResult { correct: true, attempted: 7, failed: 1, ..RunResult::default() };
        result
            .metrics
            .push("jobs_per_s", 12.345678901234567, "jobs/s");
        result
            .metrics
            .push("token_swap.dist_calls", 464974027.0, "count");
        let back = RunResult::from_json(&result.to_json()).unwrap();
        assert_eq!((back.correct, back.attempted, back.failed), (true, 7, 1));
        assert_eq!(back.metrics.0, result.metrics.0);
    }
}
