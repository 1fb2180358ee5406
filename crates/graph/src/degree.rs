//! Degree sequences, degree distributions and CCDFs.
//!
//! The structural models of Section 3.3 are parameterised by the *unordered*
//! degree sequence `S` of the input graph; the evaluation (Section 5.1)
//! compares degree distributions via the Kolmogorov–Smirnov statistic and
//! Hellinger distance, both of which are computed from the normalised degree
//! histogram. This module provides those primitives.

use serde::{Deserialize, Serialize};

use crate::view::GraphView;

/// The unordered degree sequence of a graph together with derived views.
///
/// The sequence stores one entry per node. The paper's constrained-inference
/// estimator (Appendix C.3.1) operates on the sequence sorted in
/// non-decreasing order; [`Self::sorted`] provides that view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegreeSequence {
    degrees: Vec<f64>,
}

impl DegreeSequence {
    /// Builds the degree sequence of `g` (one entry per node, by node id).
    ///
    /// Accepts any [`GraphView`] — the mutable build-phase graph or the
    /// frozen CSR snapshot — and streams degrees through the allocation-free
    /// iterator (no intermediate `Vec<usize>`).
    #[must_use]
    pub fn from_graph<G: GraphView>(g: &G) -> Self {
        Self {
            degrees: g.degree_iter().map(|d| d as f64).collect(),
        }
    }

    /// Wraps an existing (possibly noisy, fractional) sequence.
    #[must_use]
    pub fn from_vec(degrees: Vec<f64>) -> Self {
        Self { degrees }
    }

    /// Number of nodes described by the sequence.
    #[must_use]
    pub fn len(&self) -> usize {
        self.degrees.len()
    }

    /// True when the sequence is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.degrees.is_empty()
    }

    /// Raw degrees, indexed by node id (or arbitrary order for noisy sequences).
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.degrees
    }

    /// The sequence sorted in non-decreasing order.
    #[must_use]
    pub fn sorted(&self) -> Vec<f64> {
        let mut s = self.degrees.clone();
        s.sort_by(|a, b| a.partial_cmp(b).expect("degrees must not be NaN"));
        s
    }

    /// Sum of all degrees (`2m` for an integral sequence read off a graph).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.degrees.iter().sum()
    }

    /// Implied number of edges, `total() / 2`.
    #[must_use]
    pub fn implied_edges(&self) -> f64 {
        self.total() / 2.0
    }

    /// Maximum degree in the sequence (0 for an empty sequence).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.degrees.iter().copied().fold(0.0, f64::max)
    }

    /// Normalised degree histogram `D_S(d)`: the fraction of nodes with degree
    /// `d` (entries rounded to the nearest non-negative integer).
    ///
    /// The histogram length is `max_degree + 1`; an empty sequence yields an
    /// empty histogram.
    #[must_use]
    pub fn distribution(&self) -> Vec<f64> {
        if self.degrees.is_empty() {
            return Vec::new();
        }
        let rounded: Vec<usize> = self
            .degrees
            .iter()
            .map(|&d| if d < 0.0 { 0 } else { d.round() as usize })
            .collect();
        let max_d = rounded.iter().copied().max().unwrap_or(0);
        let mut hist = vec![0.0; max_d + 1];
        for d in rounded {
            hist[d] += 1.0;
        }
        let n = self.degrees.len() as f64;
        for h in &mut hist {
            *h /= n;
        }
        hist
    }

    /// Empirical cumulative distribution function `F_S(d)` over integer degrees
    /// `0..=max`, i.e. the fraction of nodes with degree `<= d`.
    #[must_use]
    pub fn cdf(&self) -> Vec<f64> {
        let mut dist = self.distribution();
        let mut acc = 0.0;
        for p in &mut dist {
            acc += *p;
            *p = acc;
        }
        dist
    }

    /// Complementary CDF (the paper's Figure 2 y-axis): fraction of nodes with
    /// degree *strictly greater* than `d`, for `d` in `0..=max`.
    #[must_use]
    pub fn ccdf(&self) -> Vec<f64> {
        self.cdf().into_iter().map(|c| 1.0 - c).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::AttributeSchema;
    use crate::graph::AttributedGraph;

    fn path_graph(n: usize) -> AttributedGraph {
        let mut g = AttributedGraph::new(n, AttributeSchema::new(0));
        for v in 1..n {
            g.add_edge((v - 1) as u32, v as u32).unwrap();
        }
        g
    }

    #[test]
    fn degree_sequence_from_graph() {
        let g = path_graph(4);
        let s = DegreeSequence::from_graph(&g);
        assert_eq!(s.values(), &[1.0, 2.0, 2.0, 1.0]);
        assert_eq!(s.sorted(), vec![1.0, 1.0, 2.0, 2.0]);
        assert_eq!(s.total(), 6.0);
        assert_eq!(s.implied_edges(), 3.0);
        assert_eq!(s.max(), 2.0);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
    }

    #[test]
    fn empty_sequence_edge_cases() {
        let s = DegreeSequence::from_vec(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.distribution(), Vec::<f64>::new());
        assert_eq!(s.cdf(), Vec::<f64>::new());
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn distribution_sums_to_one() {
        let g = path_graph(7);
        let s = DegreeSequence::from_graph(&g);
        let dist = s.distribution();
        let sum: f64 = dist.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Path with 7 nodes: 2 endpoints of degree 1, 5 inner of degree 2.
        assert!((dist[1] - 2.0 / 7.0).abs() < 1e-12);
        assert!((dist[2] - 5.0 / 7.0).abs() < 1e-12);
        assert_eq!(dist[0], 0.0);
    }

    #[test]
    fn cdf_and_ccdf_are_consistent() {
        let s = DegreeSequence::from_vec(vec![1.0, 1.0, 2.0, 3.0]);
        let cdf = s.cdf();
        let ccdf = s.ccdf();
        assert_eq!(cdf.len(), 4);
        assert!((cdf[3] - 1.0).abs() < 1e-12);
        for (c, cc) in cdf.iter().zip(&ccdf) {
            assert!((c + cc - 1.0).abs() < 1e-12);
        }
        // CDF must be non-decreasing.
        for w in cdf.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn noisy_sequences_round_and_clamp() {
        let s = DegreeSequence::from_vec(vec![-0.7, 1.4, 2.6, 99.0]);
        let dist = s.distribution();
        // Negative degrees clamp to 0 in the histogram.
        assert!(dist[0] > 0.0);
        let sum: f64 = dist.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }
}
