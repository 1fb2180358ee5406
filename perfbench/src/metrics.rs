//! Reading the program's own Prometheus exposition: the in-process
//! `MetricsRegistry::render` text and `GET /metrics` share one format, so
//! one parser serves both, and layer metrics are deltas between scrapes.

use std::collections::BTreeMap;

/// The pipeline stages the engine times into `agmdp_stage_duration_seconds`,
/// with the per-layer metric each is reported as.
pub const STAGES: [(&str, &str); 7] = [
    ("fit", "core.fit_s"),
    ("attr_sample", "models.attr_sample_s"),
    ("edge_sample", "models.edge_sample_s"),
    ("rewire", "models.rewire_s"),
    ("freeze", "graph.freeze_s"),
    ("score", "eval.score_s"),
    ("serialize", "service.store_write_s"),
];

/// One scrape: series (`name{labels}` exactly as rendered) to value.
#[derive(Debug, Clone, Default)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Self {
        let series = text
            .lines()
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .filter_map(|line| {
                let (key, value) = line.rsplit_once(' ')?;
                Some((key.to_string(), value.parse().ok()?))
            })
            .collect();
        Self(series)
    }

    /// The value of one series; 0 when absent (a counter never incremented
    /// is not rendered).
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Sum over every label set of the family `name`.
    pub fn family_sum(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(key, _)| {
                key.as_str() == name || key.strip_prefix(name).is_some_and(|r| r.starts_with('{'))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// `self - before` for one series.
    pub fn delta(&self, before: &Scrape, series: &str) -> f64 {
        self.get(series) - before.get(series)
    }

    /// `self - before` summed over a family.
    pub fn family_delta(&self, before: &Scrape, name: &str) -> f64 {
        self.family_sum(name) - before.family_sum(name)
    }

    /// Seconds spent in `stage` between two scrapes.
    pub fn stage_secs(&self, before: &Scrape, stage: &str) -> f64 {
        self.delta(
            before,
            &format!("agmdp_stage_duration_seconds_sum{{stage=\"{stage}\"}}"),
        )
    }

    /// Times `stage` was entered between two scrapes.
    pub fn stage_count(&self, before: &Scrape, stage: &str) -> f64 {
        self.delta(
            before,
            &format!("agmdp_stage_duration_seconds_count{{stage=\"{stage}\"}}"),
        )
    }

    /// Mean handler latency of `endpoint` between two scrapes, in ms.
    pub fn handler_ms(&self, before: &Scrape, endpoint: &str) -> f64 {
        let sum = self.delta(
            before,
            &format!("agmdp_request_duration_seconds_sum{{endpoint=\"{endpoint}\"}}"),
        );
        let count = self.delta(
            before,
            &format!("agmdp_request_duration_seconds_count{{endpoint=\"{endpoint}\"}}"),
        );
        crate::stats::ratio(sum, count) * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_series_and_deltas() {
        let before = Scrape::parse(
            "# HELP x y\n# TYPE x counter\nagmdp_stage_duration_seconds_sum{stage=\"fit\"} 1.5\nsheds{reason=\"a\"} 1\n",
        );
        let after = Scrape::parse(
            "agmdp_stage_duration_seconds_sum{stage=\"fit\"} 4\nsheds{reason=\"a\"} 2\nsheds{reason=\"b\"} 3\nshedsx 9\n",
        );
        assert_eq!(after.stage_secs(&before, "fit"), 2.5);
        assert_eq!(after.family_delta(&before, "sheds"), 4.0);
        assert_eq!(after.get("missing"), 0.0);
    }
}
