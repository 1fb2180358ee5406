//! Per-dataset utility aggregation backing `GET /evaluate`.
//!
//! Every completed synthesis job compares its released graph against the
//! registered original (`agmdp_eval::UtilityReport` — pure post-processing,
//! no ε) and folds the result into an `Accumulator` held by the dataset's
//! registry entry ([`crate::registry::DatasetRegistry::record_utility`]), so
//! the server can report the *utility* of what it has released alongside
//! the budget ledger's record of what the releases *cost*. Aggregation keeps
//! running sums per metric, not the reports themselves, so memory stays
//! constant per dataset no matter how many jobs run.

use agmdp_eval::report::NUM_METRICS;
use agmdp_eval::UtilityReport;

/// Aggregated utility of every release served for one dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetUtility {
    /// Number of synthesis runs folded in.
    pub runs: u64,
    /// Element-wise mean over the runs.
    pub mean: UtilityReport,
    /// Element-wise sample standard deviation (zero for fewer than two runs).
    pub stddev: UtilityReport,
}

/// Running sums of one dataset's utility reports.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Accumulator {
    count: u64,
    sum: [f64; NUM_METRICS],
    sum_sq: [f64; NUM_METRICS],
}

impl Accumulator {
    pub(crate) fn new() -> Self {
        Self {
            count: 0,
            sum: [0.0; NUM_METRICS],
            sum_sq: [0.0; NUM_METRICS],
        }
    }

    pub(crate) fn record(&mut self, report: &UtilityReport) {
        self.count += 1;
        for ((s, sq), v) in self
            .sum
            .iter_mut()
            .zip(&mut self.sum_sq)
            .zip(report.values())
        {
            *s += v;
            *sq += v * v;
        }
    }

    pub(crate) fn summary(&self) -> DatasetUtility {
        let n = self.count as f64;
        let mut mean = [0.0; NUM_METRICS];
        let mut stddev = [0.0; NUM_METRICS];
        if self.count > 0 {
            for (m, s) in mean.iter_mut().zip(self.sum) {
                *m = s / n;
            }
        }
        if self.count > 1 {
            for ((sd, sq), m) in stddev.iter_mut().zip(self.sum_sq).zip(mean) {
                // Sample variance from running sums: (Σx² − n·x̄²) / (n − 1),
                // clamped at zero against floating-point cancellation.
                *sd = ((sq - n * m * m) / (n - 1.0)).max(0.0).sqrt();
            }
        }
        DatasetUtility {
            runs: self.count,
            mean: UtilityReport::from_values(mean),
            stddev: UtilityReport::from_values(stddev),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev_match_direct_computation() {
        let a = UtilityReport {
            ks_degree: 0.2,
            edge_count_re: 0.1,
            ..Default::default()
        };
        let b = UtilityReport {
            ks_degree: 0.4,
            edge_count_re: 0.3,
            ..Default::default()
        };
        let mut acc = Accumulator::new();
        acc.record(&a);
        // One run: its own mean, with zero spread.
        let single = acc.summary();
        assert_eq!(single.runs, 1);
        assert_eq!(single.mean, a);
        assert_eq!(single.stddev, UtilityReport::default());

        acc.record(&b);
        let utility = acc.summary();
        assert_eq!(utility.runs, 2);
        let direct_mean = UtilityReport::mean(&[a, b]);
        let direct_sd = UtilityReport::stddev(&[a, b]);
        for (got, want) in utility.mean.values().iter().zip(direct_mean.values()) {
            assert!((got - want).abs() < 1e-12);
        }
        for (got, want) in utility.stddev.values().iter().zip(direct_sd.values()) {
            assert!((got - want).abs() < 1e-12);
        }
    }
}
