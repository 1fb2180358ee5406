//! The graph profile, the per-trial utility report and its aggregation
//! arithmetic.
//!
//! [`GraphProfile`] is the one whole-graph summary: sizes, degrees, `n_Δ`,
//! `C̄`, `C`, `Θ_F` and the distributions the distances compare.
//! [`UtilityReport::between`] is the one fidelity score: it bundles every
//! metric column of the harness for one (original, synthetic) pair of
//! profiles: the structural columns the paper's tables report (degree
//! KS/Hellinger, triangle/clustering/edge-count relative errors), the
//! attribute–edge correlation distance (Hellinger on Θ_F), and the
//! joint-structure measures added for the reproduction's results book
//! (degree-CCDF KS, degree assortativity, attribute–attribute and
//! attribute–degree correlation distances).
//!
//! The report is deliberately a flat list of `f64` columns with a parallel
//! name table ([`UtilityReport::METRIC_NAMES`]). A harness row carries its
//! columns as [`Scores`], named values in the plan's column order, so
//! mean/stddev aggregation, CSV headers and markdown tables all derive from
//! one source of truth whatever the plan measures.

use serde::{Serialize, Value};

use agmdp_core::ThetaF;
use agmdp_graph::clustering::ClusteringSummary;
use agmdp_graph::degree::DegreeSequence;
use agmdp_graph::GraphView;
use agmdp_metrics::assortativity::degree_assortativity;
use agmdp_metrics::correlation::{
    attribute_attribute_correlations, attribute_degree_correlations, correlation_distance,
};
use agmdp_metrics::distance::{hellinger_distance, ks_ccdf, ks_statistic, relative_error};

/// Every whole-graph statistic the system reports, one traversal per
/// statistic family (one triangle pass for `n_Δ`, `C̄` and `C`): the CLI
/// prints it, and [`UtilityReport::between`] scores a synthetic graph's
/// profile against its original's.
///
/// The harness profiles each input once and reuses it across every release
/// scored against it, and profiles each release once.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphProfile {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of edges, `m`.
    pub edges: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Average degree `2m / n`.
    pub avg_degree: f64,
    /// `n_Δ`, `C̄` and `C`, from one per-node triangle count.
    pub clustering: ClusteringSummary,
    /// The attribute–edge correlation distribution `Θ_F`.
    pub theta_f: ThetaF,
    degree_distribution: Vec<f64>,
    degree_ccdf: Vec<f64>,
    assortativity: f64,
    attr_attr: Vec<f64>,
    attr_degree: Vec<f64>,
}

impl GraphProfile {
    /// Computes every statistic of `graph`.
    ///
    /// Accepts any [`GraphView`], with bit-identical results in either
    /// representation; pass the frozen CSR snapshot where one exists so the
    /// whole-graph traversals stream linearly through memory.
    #[must_use]
    pub fn of<G: GraphView>(graph: &G) -> Self {
        let distribution = DegreeSequence::from_graph(graph).distribution();
        Self {
            nodes: graph.num_nodes(),
            edges: graph.num_edges(),
            max_degree: graph.max_degree(),
            avg_degree: graph.avg_degree(),
            clustering: ClusteringSummary::of(graph),
            theta_f: ThetaF::from_graph(graph),
            degree_ccdf: ccdf_of(&distribution),
            degree_distribution: distribution,
            assortativity: degree_assortativity(graph),
            attr_attr: attribute_attribute_correlations(graph),
            attr_degree: attribute_degree_correlations(graph),
        }
    }
}

/// The CCDF over integer degrees implied by a degree histogram — the same
/// accumulation `DegreeSequence::ccdf` performs, factored out so a profile
/// can derive it from an already-built distribution.
fn ccdf_of(distribution: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    distribution
        .iter()
        .map(|&p| {
            acc += p;
            1.0 - acc
        })
        .collect()
}

/// All utility metrics of one synthetic graph relative to its original.
///
/// Every field is a *discrepancy* (distance or error): 0 means the synthetic
/// graph matches the original perfectly on that measure, larger is worse.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct UtilityReport {
    /// KS statistic between degree distributions (`KS_S`).
    pub ks_degree: f64,
    /// KS statistic between degree CCDF curves (the paper's Figure 2 axis);
    /// numerically equal to `ks_degree`, reported in CCDF terms.
    pub ks_degree_ccdf: f64,
    /// Hellinger distance between degree distributions (`H_S`).
    pub hellinger_degree: f64,
    /// Absolute difference of degree assortativity coefficients.
    pub assortativity_dist: f64,
    /// Hellinger distance between attribute–edge correlation distributions
    /// (`Θ_F` of the original vs the synthetic graph).
    pub attr_edge_hellinger: f64,
    /// Mean absolute difference of pairwise attribute–attribute (φ)
    /// correlations.
    pub attr_attr_corr_dist: f64,
    /// Mean absolute difference of attribute–degree correlations.
    pub attr_degree_corr_dist: f64,
    /// Relative error of the triangle count (`n_Δ`).
    pub triangle_count_re: f64,
    /// Relative error of the average local clustering coefficient (`C̄`).
    pub avg_clustering_re: f64,
    /// Relative error of the global clustering coefficient (`C`).
    pub global_clustering_re: f64,
    /// Relative error of the edge count (`m`).
    pub edge_count_re: f64,
}

/// Number of metric columns in a [`UtilityReport`].
pub const NUM_METRICS: usize = 11;

impl UtilityReport {
    /// Column names, in the order [`UtilityReport::values`] returns them.
    /// These are the tokens a plan's `metrics` line selects from.
    pub const METRIC_NAMES: [&'static str; NUM_METRICS] = [
        "ks_degree",
        "ks_degree_ccdf",
        "hellinger_degree",
        "assortativity_dist",
        "attr_edge_hellinger",
        "attr_attr_corr_dist",
        "attr_degree_corr_dist",
        "triangle_count_re",
        "avg_clustering_re",
        "global_clustering_re",
        "edge_count_re",
    ];

    /// Scores a synthetic graph against its original on every metric
    /// column, from the two graphs' profiles.
    #[must_use]
    pub fn between(original: &GraphProfile, synthetic: &GraphProfile) -> Self {
        let (o, s) = (original, synthetic);
        Self {
            ks_degree: ks_statistic(&o.degree_distribution, &s.degree_distribution),
            ks_degree_ccdf: ks_ccdf(&o.degree_ccdf, &s.degree_ccdf),
            hellinger_degree: hellinger_distance(&o.degree_distribution, &s.degree_distribution),
            assortativity_dist: (o.assortativity - s.assortativity).abs(),
            attr_edge_hellinger: hellinger_distance(
                o.theta_f.probabilities(),
                s.theta_f.probabilities(),
            ),
            attr_attr_corr_dist: correlation_distance(&o.attr_attr, &s.attr_attr),
            attr_degree_corr_dist: correlation_distance(&o.attr_degree, &s.attr_degree),
            triangle_count_re: relative_error(
                o.clustering.triangles as f64,
                s.clustering.triangles as f64,
            ),
            avg_clustering_re: relative_error(
                o.clustering.average_local,
                s.clustering.average_local,
            ),
            global_clustering_re: relative_error(o.clustering.global, s.clustering.global),
            edge_count_re: relative_error(o.edges as f64, s.edges as f64),
        }
    }

    /// The metric values in [`UtilityReport::METRIC_NAMES`] order.
    #[must_use]
    pub fn values(&self) -> [f64; NUM_METRICS] {
        [
            self.ks_degree,
            self.ks_degree_ccdf,
            self.hellinger_degree,
            self.assortativity_dist,
            self.attr_edge_hellinger,
            self.attr_attr_corr_dist,
            self.attr_degree_corr_dist,
            self.triangle_count_re,
            self.avg_clustering_re,
            self.global_clustering_re,
            self.edge_count_re,
        ]
    }
}

/// One row's metric values under their column names, in the plan's
/// recorded order (`EvalPlan::recorded_columns`). Serialises as a JSON
/// object, so a row of the eleven [`UtilityReport`] columns writes the same
/// bytes as the report itself.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Scores(Vec<(&'static str, f64)>);

impl Scores {
    /// The value of column `name`, if the row records it.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The (name, value) pairs in column order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().copied()
    }

    /// Appends a column.
    pub(crate) fn push(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// Column-wise mean over rows of one column set (empty for no rows).
    #[must_use]
    pub fn mean(rows: &[Scores]) -> Self {
        let Some(first) = rows.first() else {
            return Self::default();
        };
        let n = rows.len() as f64;
        (0..first.0.len())
            .map(|c| {
                let mut acc = 0.0;
                for row in rows {
                    acc += row.0[c].1;
                }
                (first.0[c].0, acc / n)
            })
            .collect()
    }

    /// Column-wise *sample* standard deviation (denominator `n − 1`), zero
    /// for fewer than two rows.
    #[must_use]
    pub fn stddev(rows: &[Scores]) -> Self {
        let mean = Self::mean(rows);
        if rows.len() < 2 {
            return mean.iter().map(|(name, _)| (name, 0.0)).collect();
        }
        let denom = (rows.len() - 1) as f64;
        mean.iter()
            .enumerate()
            .map(|(c, (name, m))| {
                let mut acc = 0.0;
                for row in rows {
                    let d = row.0[c].1 - m;
                    acc += d * d;
                }
                (name, (acc / denom).sqrt())
            })
            .collect()
    }
}

impl FromIterator<(&'static str, f64)> for Scores {
    fn from_iter<I: IntoIterator<Item = (&'static str, f64)>>(iter: I) -> Self {
        Self(iter.into_iter().collect())
    }
}

impl From<UtilityReport> for Scores {
    fn from(report: UtilityReport) -> Self {
        UtilityReport::METRIC_NAMES
            .into_iter()
            .zip(report.values())
            .collect()
    }
}

impl Serialize for Scores {
    fn to_json_value(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|&(name, value)| (name.to_string(), Value::Float(value)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agmdp_graph::{AttributeSchema, AttributedGraph};

    fn score(original: &AttributedGraph, synthetic: &AttributedGraph) -> UtilityReport {
        UtilityReport::between(&GraphProfile::of(original), &GraphProfile::of(synthetic))
    }

    fn ring(n: usize) -> AttributedGraph {
        let mut g = AttributedGraph::new(n, AttributeSchema::new(2));
        let codes: Vec<u32> = (0..n as u32).map(|v| v % 4).collect();
        g.set_all_attribute_codes(&codes).unwrap();
        for v in 0..n {
            g.add_edge(v as u32, ((v + 1) % n) as u32).unwrap();
        }
        g
    }

    fn star(leaves: usize) -> AttributedGraph {
        let mut g = AttributedGraph::new(leaves + 1, AttributeSchema::new(2));
        let codes: Vec<u32> = (0..=leaves as u32).map(|v| v % 4).collect();
        g.set_all_attribute_codes(&codes).unwrap();
        for leaf in 1..=leaves {
            g.add_edge(0, leaf as u32).unwrap();
        }
        g
    }

    #[test]
    fn identical_graphs_score_zero_everywhere() {
        let g = ring(8);
        let r = score(&g, &g);
        for (name, v) in UtilityReport::METRIC_NAMES.iter().zip(r.values()) {
            assert!(v.abs() < 1e-12, "{name} = {v} on identical graphs");
        }
    }

    #[test]
    fn different_graphs_score_positive_on_structural_columns() {
        let r = score(&ring(8), &star(7));
        assert!(r.ks_degree > 0.0);
        assert!(r.ks_degree_ccdf > 0.0);
        assert!(r.hellinger_degree > 0.0);
        // Ring assortativity 0 (regular), star −1 -> distance 1.
        assert!((r.assortativity_dist - 1.0).abs() < 1e-12);
        assert!(r.edge_count_re > 0.0);
    }

    #[test]
    fn ks_ccdf_column_equals_cdf_ks_column() {
        // CCDF(d) = 1 − CDF(d) on a shared support: the two KS columns agree.
        let r = score(&ring(10), &star(9));
        assert!((r.ks_degree - r.ks_degree_ccdf).abs() < 1e-12);
    }

    #[test]
    fn frozen_scoring_is_bit_identical_to_adjacency_scoring() {
        // The harness freezes both sides before scoring; the committed
        // golden aggregates rely on that changing nothing.
        let original = ring(9);
        let synthetic = star(8);
        let mutable = score(&original, &synthetic);
        let frozen = UtilityReport::between(
            &GraphProfile::of(&original.freeze()),
            &GraphProfile::of(&synthetic.freeze()),
        );
        assert_eq!(mutable, frozen);
        assert_eq!(
            GraphProfile::of(&original),
            GraphProfile::of(&original.freeze())
        );
    }

    #[test]
    fn mean_and_stddev_hand_computed() {
        let a = Scores::from(UtilityReport {
            ks_degree: 0.2,
            ..Default::default()
        });
        let b = Scores::from(UtilityReport {
            ks_degree: 0.4,
            ..Default::default()
        });
        let mean = Scores::mean(&[a.clone(), b.clone()]);
        assert!((mean.get("ks_degree").unwrap() - 0.3).abs() < 1e-12);
        // Sample stddev of {0.2, 0.4}: sqrt(((0.1)² + (0.1)²) / 1) ≈ 0.1414.
        let sd = Scores::stddev(&[a.clone(), b]);
        assert!((sd.get("ks_degree").unwrap() - (0.02f64).sqrt()).abs() < 1e-12);
        // Degenerate cases: no rows is no columns, one row has zero spread.
        assert_eq!(Scores::mean(&[]), Scores::default());
        assert_eq!(Scores::stddev(&[a]), Scores::from(UtilityReport::default()));
    }
}
