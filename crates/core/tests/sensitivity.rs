//! The sensitivities the fit's noise is calibrated to, checked by brute
//! force for the statistics a [`FitStatistics`] keeps: every graph on at
//! most five nodes, every width-1 attribute assignment, and every neighbour
//! one edge away (and, for the attribute counts, one node's attribute away).
//! The L1 change of each statistic must stay within its constant:
//!
//! - `Q_X`: 2 (`QX_SENSITIVITY`, Theorem 8);
//! - `Q_F` of µ(G, k) at k = 2 and 3: 2k (the truncation learner's
//!   `Lap(2k/ε)`);
//! - the sorted degree sequence: 2 (`dp_degree_sequence`'s `Lap(2/ε)`);
//!
//! and the Ladder's local sensitivity may move by at most 1, which is what
//! makes a rung index change by at most one between neighbours.

use agmdp_core::attributes_dp::QX_SENSITIVITY;
use agmdp_core::FitStatistics;
use agmdp_graph::{AttributeSchema, AttributedGraph};

/// Every node pair of a graph on `n` nodes, in a fixed order.
fn pairs(n: u32) -> Vec<(u32, u32)> {
    (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .collect()
}

fn graph(n: u32, pairs: &[(u32, u32)], mask: u32, codes: &[u32]) -> AttributedGraph {
    let mut g = AttributedGraph::new(n as usize, AttributeSchema::new(1));
    g.set_all_attribute_codes(codes).unwrap();
    for (bit, &(u, v)) in pairs.iter().enumerate() {
        if mask >> bit & 1 == 1 {
            g.add_edge(u, v).unwrap();
        }
    }
    g
}

fn l1<T: Copy + Into<f64>>(a: &[T], b: &[T]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x.into() - y.into()).abs())
        .sum()
}

/// The largest L1 change seen for each statistic.
#[derive(Default)]
struct Observed {
    node_configs: f64,
    truncated: [f64; 2],
    sorted_degrees: f64,
    local_sensitivity: usize,
}

impl Observed {
    /// Compares the attribute-dependent counts of two neighbouring graphs.
    fn compare_counts(&mut self, g: &AttributedGraph, h: &AttributedGraph) {
        let (a, b) = (FitStatistics::new(), FitStatistics::new());
        self.node_configs = self
            .node_configs
            .max(l1(a.node_configs(g), b.node_configs(h)));
        for (seen, k) in self.truncated.iter_mut().zip([2, 3]) {
            let change = l1(
                &a.truncated_edge_configs(g, k),
                &b.truncated_edge_configs(h, k),
            );
            assert!(change <= 2.0 * k as f64, "k = {k}: L1 change {change}");
            *seen = seen.max(change);
        }
    }

    /// Compares the statistics that ignore attributes.
    fn compare_structure(&mut self, g: &AttributedGraph, h: &AttributedGraph) {
        let (a, b) = (FitStatistics::new(), FitStatistics::new());
        let degrees = |s: &FitStatistics, g| -> Vec<u32> {
            s.sorted_degrees(g).iter().map(|&d| d as u32).collect()
        };
        self.sorted_degrees = self
            .sorted_degrees
            .max(l1(&degrees(&a, g), &degrees(&b, h)));
        let (ls_g, ls_h) = (
            a.triangles(g).local_sensitivity,
            b.triangles(h).local_sensitivity,
        );
        self.local_sensitivity = self.local_sensitivity.max(ls_g.abs_diff(ls_h));
    }
}

#[test]
fn cached_statistics_stay_within_their_calibrated_sensitivity() {
    let mut observed = Observed::default();
    let mut neighbours = 0usize;
    for n in 1..=5u32 {
        let pairs = pairs(n);
        for mask in 0..1u32 << pairs.len() {
            for attributes in 0..1u32 << n {
                let codes: Vec<u32> = (0..n).map(|v| attributes >> v & 1).collect();
                let g = graph(n, &pairs, mask, &codes);
                // One edge added or removed (each pair once per unordered
                // neighbour couple: the mask with the bit clear).
                for bit in 0..pairs.len() {
                    if mask >> bit & 1 == 0 {
                        let h = graph(n, &pairs, mask | 1 << bit, &codes);
                        observed.compare_counts(&g, &h);
                        if attributes == 0 {
                            observed.compare_structure(&g, &h);
                        }
                        neighbours += 1;
                    }
                }
                // One node's attribute flipped (each couple once).
                for v in 0..n as usize {
                    if codes[v] == 0 {
                        let mut flipped = codes.clone();
                        flipped[v] = 1;
                        observed.compare_counts(&g, &graph(n, &pairs, mask, &flipped));
                        neighbours += 1;
                    }
                }
            }
        }
    }
    assert!(neighbours > 100_000, "{neighbours} neighbour couples");
    // Every bound is reached, so none is looser than it needs to be here.
    assert_eq!(observed.node_configs, QX_SENSITIVITY);
    assert_eq!(observed.truncated, [4.0, 6.0]);
    assert_eq!(observed.sorted_degrees, 2.0);
    assert_eq!(observed.local_sensitivity, 1);
}
