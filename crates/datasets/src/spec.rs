//! Dataset specifications calibrated to Table 6 of the paper.

use serde::Serialize;

/// Target statistics of a synthetic dataset stand-in.
///
/// The four presets carry the exact Table 6 numbers; [`DatasetSpec::scaled`]
/// shrinks node, edge and triangle counts proportionally for experiments that
/// must stay laptop-friendly (the paper's Pokec crawl has 592k nodes).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DatasetSpec {
    /// Human-readable dataset name (e.g. `"lastfm"`).
    pub name: String,
    /// Number of nodes `n`.
    pub nodes: usize,
    /// Number of edges `m`.
    pub edges: usize,
    /// Maximum degree `d_max`.
    pub max_degree: usize,
    /// Number of triangles `n_Δ`.
    pub triangles: u64,
    /// Average local clustering coefficient `C̄` (informational; the generator
    /// targets the triangle count).
    pub avg_clustering: f64,
    /// Marginal distribution of the `2^w` attribute configurations
    /// (must sum to 1; length fixes `w`).
    pub attribute_marginals: Vec<f64>,
    /// Homophily strength in `[0, 1]`: 0 means attributes and edges are
    /// independent, 1 means only same-configuration edges are proposed.
    pub homophily: f64,
}

impl DatasetSpec {
    /// The Last.fm stand-in (Table 6: n=1,843, m=12,668, d_max=119,
    /// n_Δ=19,651, C̄=0.183).
    #[must_use]
    pub fn lastfm() -> Self {
        Self {
            name: "lastfm".to_string(),
            nodes: 1_843,
            edges: 12_668,
            max_degree: 119,
            triangles: 19_651,
            avg_clustering: 0.183,
            attribute_marginals: vec![0.45, 0.25, 0.20, 0.10],
            homophily: 0.55,
        }
    }

    /// The Petster (hamster friendships) stand-in (Table 6: n=1,788,
    /// m=12,476, d_max=272, n_Δ=16,741, C̄=0.143).
    #[must_use]
    pub fn petster() -> Self {
        Self {
            name: "petster".to_string(),
            nodes: 1_788,
            edges: 12_476,
            max_degree: 272,
            triangles: 16_741,
            avg_clustering: 0.143,
            attribute_marginals: vec![0.30, 0.30, 0.25, 0.15],
            homophily: 0.45,
        }
    }

    /// The Epinions stand-in (Table 6: n=26,427, m=104,075, d_max=625,
    /// n_Δ=231,645, C̄=0.138).
    #[must_use]
    pub fn epinions() -> Self {
        Self {
            name: "epinions".to_string(),
            nodes: 26_427,
            edges: 104_075,
            max_degree: 625,
            triangles: 231_645,
            avg_clustering: 0.138,
            attribute_marginals: vec![0.55, 0.20, 0.15, 0.10],
            homophily: 0.50,
        }
    }

    /// The Pokec stand-in (Table 6: n=592,627, m=3,725,424, d_max=1,274,
    /// n_Δ=2,492,216, C̄=0.104).
    #[must_use]
    pub fn pokec() -> Self {
        Self {
            name: "pokec".to_string(),
            nodes: 592_627,
            edges: 3_725_424,
            max_degree: 1_274,
            triangles: 2_492_216,
            avg_clustering: 0.104,
            attribute_marginals: vec![0.30, 0.28, 0.22, 0.20],
            homophily: 0.40,
        }
    }

    /// All four paper presets at full size.
    #[must_use]
    pub fn paper_presets() -> Vec<Self> {
        vec![
            Self::lastfm(),
            Self::petster(),
            Self::epinions(),
            Self::pokec(),
        ]
    }

    /// The paper preset called `name` (`lastfm`, `petster`, `epinions` or
    /// `pokec`) at full size.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        Self::paper_presets()
            .into_iter()
            .find(|spec| spec.name == name)
    }

    /// Scales node, edge and triangle counts by `factor` (clamped to at least
    /// 32 nodes); the degree cap is kept but never exceeds the scaled node
    /// count. The name gains a `@factor` suffix so reports stay unambiguous.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        let factor = factor.clamp(1e-6, 1.0);
        if (factor - 1.0).abs() < f64::EPSILON {
            return self.clone();
        }
        let nodes = ((self.nodes as f64 * factor).round() as usize).max(32);
        let edges = ((self.edges as f64 * factor).round() as usize).max(nodes);
        let triangles = ((self.triangles as f64 * factor).round() as u64).max(1);
        let max_degree = self.max_degree.min(nodes.saturating_sub(1)).max(4);
        Self {
            name: format!("{}@{factor:.2}", self.name),
            nodes,
            edges,
            triangles,
            max_degree,
            avg_clustering: self.avg_clustering,
            attribute_marginals: self.attribute_marginals.clone(),
            homophily: self.homophily,
        }
    }

    /// Number of binary attributes `w` implied by the marginal vector length.
    #[must_use]
    pub fn attribute_width(&self) -> usize {
        (self.attribute_marginals.len() as f64).log2().round() as usize
    }

    /// Average degree `2m / n`.
    #[must_use]
    pub fn avg_degree(&self) -> f64 {
        2.0 * self.edges as f64 / self.nodes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table6_numbers() {
        // Note: Table 6 reports the edges-per-node ratio m/n as "average degree";
        // we check that ratio against the table and the standard 2m/n separately.
        let l = DatasetSpec::lastfm();
        assert_eq!(
            (l.nodes, l.edges, l.max_degree, l.triangles),
            (1_843, 12_668, 119, 19_651)
        );
        assert!((l.edges as f64 / l.nodes as f64 - 6.9).abs() < 0.1);
        assert!((l.avg_degree() - 2.0 * 6.87).abs() < 0.2);
        let p = DatasetSpec::petster();
        assert_eq!((p.nodes, p.edges), (1_788, 12_476));
        assert!((p.edges as f64 / p.nodes as f64 - 7.0).abs() < 0.1);
        let e = DatasetSpec::epinions();
        assert_eq!((e.nodes, e.edges), (26_427, 104_075));
        assert!((e.edges as f64 / e.nodes as f64 - 3.9).abs() < 0.1);
        let k = DatasetSpec::pokec();
        assert_eq!((k.nodes, k.edges), (592_627, 3_725_424));
        assert!((k.edges as f64 / k.nodes as f64 - 6.3).abs() < 0.1);
        assert_eq!(DatasetSpec::paper_presets().len(), 4);
    }

    #[test]
    fn presets_are_found_by_name() {
        for spec in DatasetSpec::paper_presets() {
            assert_eq!(DatasetSpec::by_name(&spec.name), Some(spec));
        }
        assert_eq!(DatasetSpec::by_name("toy"), None);
    }

    #[test]
    fn marginals_are_distributions() {
        for spec in DatasetSpec::paper_presets() {
            let sum: f64 = spec.attribute_marginals.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "{} marginals sum to {sum}",
                spec.name
            );
            assert_eq!(spec.attribute_width(), 2);
            assert!((0.0..=1.0).contains(&spec.homophily));
        }
    }

    #[test]
    fn scaling_shrinks_proportionally() {
        let full = DatasetSpec::pokec();
        let s = full.scaled(0.05);
        assert!((s.nodes as f64 - full.nodes as f64 * 0.05).abs() < 2.0);
        assert!((s.edges as f64 - full.edges as f64 * 0.05).abs() < 2.0);
        assert!(s.max_degree <= full.max_degree);
        assert!(s.name.contains("pokec@"));
        // Scaling by 1.0 is the identity.
        assert_eq!(full.scaled(1.0), full);
        // Extreme factors stay usable.
        let tiny = full.scaled(1e-9);
        assert!(tiny.nodes >= 32);
        assert!(tiny.edges >= tiny.nodes);
    }
}
