//! Order statistics and the metric/check ledgers every workload fills.

use std::collections::BTreeMap;
use std::time::Duration;

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank quantile `q` in `[0, 1]` of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median (nearest rank, so an odd count returns a measured value).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn share(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Everything one run reports: metric values by name, output-check
/// violations, and the attempted/failed operation tallies.
#[derive(Debug, Default)]
pub struct Ledger {
    metrics: BTreeMap<&'static str, f64>,
    violations: Vec<String>,
    /// Operations attempted (setups, served requests, back-traces).
    pub attempted: u64,
    /// Operations that failed (rejected requests, setup errors).
    pub failed: u64,
}

impl Ledger {
    /// Records metric `name`; a metric set twice is a benchmark bug.
    pub fn set(&mut self, name: &'static str, value: f64) {
        if self.metrics.insert(name, value).is_some() {
            self.violate(format!("metric `{name}` recorded twice"));
        }
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Records an output-check violation; the run then reports
    /// `"correct": false` and exits non-zero.
    pub fn violate(&mut self, what: String) {
        eprintln!("perfbench: check failed: {what}");
        self.violations.push(what);
    }

    /// Records a violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violate(what());
        }
    }

    /// `true` when every output check passed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.99), 5.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(median(&[2.0, 1.0]), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn ledger_flags_double_recording() {
        let mut l = Ledger::default();
        l.set("a", 1.0);
        assert_eq!(l.get("a"), Some(1.0));
        assert!(l.correct());
        l.set("a", 2.0);
        assert!(!l.correct());
    }
}
