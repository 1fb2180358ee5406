//! The graph-only statistics behind the ε-spending fit steps (Algorithm 3,
//! lines 2–5), computed once per input.
//!
//! Every count-based learner is a statistic of the graph plus a noise draw:
//! `Θ_X` adds noise to `Q_X`, the truncation learner (Algorithm 4) to the
//! `Q_F` of µ(G, k), the smooth and naïve learners to the exact `Q_F`, the
//! degree estimator to the sorted degree sequence, and the Ladder to the
//! triangle count at its local sensitivity. The statistic does not depend
//! on ε or on the RNG, so one input's fits can share it: a
//! [`FitStatistics`] fills each statistic the first time a fit needs it and
//! hands the stored value to every later fit, whose draws and result are
//! those of a fit on the graph alone. Sample-and-aggregate partitions the
//! nodes with the RNG, so that learner keeps reading the graph.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use agmdp_graph::GraphView;
use agmdp_privacy::ladder::TriangleStatistics;

use crate::params::{edge_config_counts, node_config_counts, truncated_edge_config_counts};

/// The un-noised statistics of one input graph that its fits add noise to,
/// each filled from the graph by the first fit that needs it.
///
/// Pair one `FitStatistics` with one graph: every accessor takes the graph
/// to fill a missing statistic from, and returns a stored one without
/// reading it. The values are sensitive — exact functions of the graph —
/// so they are kept beside the graph and never serialized, exported, or put
/// in a response or metric; `Debug` prints none of them.
#[derive(Default)]
pub struct FitStatistics {
    node_configs: OnceLock<Vec<f64>>,
    edge_configs: OnceLock<Vec<f64>>,
    truncated_edge_configs: Mutex<BTreeMap<usize, Arc<[f64]>>>,
    sorted_degrees: OnceLock<Vec<usize>>,
    triangles: OnceLock<TriangleStatistics>,
}

impl std::fmt::Debug for FitStatistics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FitStatistics").finish_non_exhaustive()
    }
}

impl FitStatistics {
    /// Statistics with nothing filled yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// `Q_X`, the node-configuration counts.
    pub fn node_configs<G: GraphView>(&self, graph: &G) -> &[f64] {
        self.node_configs.get_or_init(|| node_config_counts(graph))
    }

    /// `Q_F`, the edge-configuration counts of the whole graph.
    pub fn edge_configs<G: GraphView>(&self, graph: &G) -> &[f64] {
        self.edge_configs.get_or_init(|| edge_config_counts(graph))
    }

    /// `Q_F` of the truncated graph µ(G, k), one entry per `k` asked for.
    pub fn truncated_edge_configs<G: GraphView>(&self, graph: &G, k: usize) -> Arc<[f64]> {
        // Every update is one insert of a finished value, so a poisoned
        // map is still consistent. Concurrent first callers for one `k`
        // wait for one count.
        let mut counts = self
            .truncated_edge_configs
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            counts
                .entry(k)
                .or_insert_with(|| truncated_edge_config_counts(graph, k).into()),
        )
    }

    /// The degree sequence in non-decreasing order.
    pub fn sorted_degrees<G: GraphView>(&self, graph: &G) -> &[usize] {
        self.sorted_degrees.get_or_init(|| {
            let mut degrees = graph.degrees();
            degrees.sort_unstable();
            degrees
        })
    }

    /// The Ladder's triangle count, local sensitivity and node count.
    pub fn triangles<G: GraphView>(&self, graph: &G) -> TriangleStatistics {
        *self.triangles.get_or_init(|| TriangleStatistics::of(graph))
    }
}
