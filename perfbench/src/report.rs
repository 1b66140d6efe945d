//! Sample statistics, the oracle tally, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The median of `samples` (mean of the middle two for an even count; 0
/// for none).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `q`-quantile of `samples`, linearly interpolated between order
/// statistics (0 for no samples).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

/// Named metrics with their units.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Metrics {
    /// Sets `name` to `value`, measured in `unit`.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.values.insert(name, (value, unit));
    }

    /// The value and unit of `name`.
    pub fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.values.get(name).copied()
    }

    /// Keeps exactly the metrics listed in `names`, filling the missing
    /// ones with 0 in their listed unit.
    pub fn select(&self, names: &[(&'static str, &'static str)]) -> Metrics {
        let mut out = Metrics::default();
        for &(name, unit) in names {
            let value = self.get(name).map_or(0.0, |(value, _)| value);
            out.set(name, value, unit);
        }
        out
    }

    /// Names in order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.values.keys().copied()
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, (value, unit))) in self.values.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints the shortest string that reads back as the same
            // f64, so no digit is lost.
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// Oracle checks made and failed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed, with what failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes it should it fail.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Adds the checks of `other`.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// What one benchmark run prints as its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The oracle tally.
    pub checks: Checks,
    /// The metrics of the run.
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    /// A metric that is not a finite number counts as one more failed check
    /// and prints as 0.
    pub fn to_json(&self) -> String {
        let mut metrics = self.metrics.clone();
        let mut failed = self.checks.failures.len() as u64;
        let mut attempted = self.checks.attempted;
        if attempted == 0 {
            // A run that checked nothing cannot claim to be correct.
            attempted = 1;
            failed += 1;
        }
        for (_, (value, _)) in metrics.values.iter_mut() {
            if !value.is_finite() {
                *value = 0.0;
                attempted += 1;
                failed += 1;
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
            failed == 0,
            attempted,
            metrics.to_json()
        )
    }
}

/// The process's peak resident set size in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets the peak resident set size to the current one, where the kernel
/// allows it (Linux `clear_refs`). Where it does not, later readings of
/// [`peak_rss_mb`] keep covering the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.95), 9.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_counts_non_finite_values_as_failures() {
        let mut metrics = Metrics::default();
        metrics.set("a", 1.5, "s");
        metrics.set("b", f64::NAN, "s");
        let line = Outcome {
            checks: Checks::default(),
            metrics,
        }
        .to_json();
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 2, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }
}
