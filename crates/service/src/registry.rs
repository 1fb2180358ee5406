//! The in-memory dataset registry: one entry per dataset name.
//!
//! A dataset is registered once and then only ever read. Its entry holds
//! the **read-only** graph and the graph-only statistics its cold fits add
//! noise to (each built by the first fit that needs it). Nothing else is
//! computed from the graph: past registration only the fit reads it (and
//! the request checks read its public n), so every value a job sends out
//! is a function of its release.
//!
//! Every dataset is a [`FrozenGraph`]: owned CSR words for text
//! registrations and in-process embedding, or a memory-mapped `.agb` file
//! for binary path registrations (microseconds to register, one page-cache
//! copy shared across processes). The DP fit reads it in place. Graphs are
//! held behind `Arc` so synthesis jobs can read them concurrently without
//! cloning; the registry itself is never persisted (re-register after a
//! restart — the *budget* is what must survive, and that lives in the
//! ledger).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use agmdp_core::FitStatistics;
use agmdp_graph::{FrozenGraph, GraphView};

use crate::error::{validate_dataset_name, ServiceError};

/// The name the repository benchmark (`perfbench/`) uses for a registered
/// graph: the same [`FrozenGraph`].
pub type Dataset = FrozenGraph;

/// Summary of one registered dataset, for `GET /datasets`: public values
/// only (n is public under edge adjacency; the edge count is not).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct DatasetSummary {
    /// Registry key.
    pub name: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Attribute width w.
    pub attribute_width: usize,
    /// `true` when the dataset is served zero-copy from a memory-mapped
    /// `.agb` file rather than owned heap arrays.
    pub mapped: bool,
}

impl DatasetSummary {
    /// The summary of `graph` registered under `name`.
    pub(crate) fn of(name: &str, graph: &FrozenGraph) -> Self {
        Self {
            name: name.to_string(),
            nodes: graph.num_nodes(),
            attribute_width: graph.schema().width(),
            mapped: graph.is_mapped(),
        }
    }
}

/// One registered dataset.
#[derive(Debug, Clone)]
struct Entry {
    graph: Arc<FrozenGraph>,
    /// The graph-only statistics of the DP fit, filled by the cold fits
    /// that need them. Un-noised functions of the graph: they never leave
    /// the engine's fit.
    statistics: Arc<FitStatistics>,
}

/// A thread-safe name → dataset map.
#[derive(Debug, Default)]
pub struct DatasetRegistry {
    entries: Mutex<BTreeMap<String, Entry>>,
}

impl DatasetRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The table, recovered from poisoning: every update is one insert or
    /// remove, so the table stays consistent even if a holder panicked.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Entry>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn entry(&self, name: &str) -> Result<Entry, ServiceError> {
        self.lock()
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownDataset(name.to_string()))
    }

    /// Registers a frozen or memory-mapped graph under `name`.
    ///
    /// Re-registering the same name is idempotent when the graph content is
    /// identical, owned or mapped (the restart path); different data is a
    /// conflict.
    pub fn register(
        &self,
        name: &str,
        graph: FrozenGraph,
    ) -> Result<Arc<FrozenGraph>, ServiceError> {
        validate_dataset_name(name)?;
        let mut entries = self.lock();
        if let Some(existing) = entries.get(name) {
            if *existing.graph == graph {
                return Ok(Arc::clone(&existing.graph));
            }
            return Err(ServiceError::DatasetConflict(format!(
                "'{name}' is already registered with different data"
            )));
        }
        let graph = Arc::new(graph);
        entries.insert(
            name.to_string(),
            Entry {
                graph: Arc::clone(&graph),
                statistics: Arc::new(FitStatistics::new()),
            },
        );
        Ok(graph)
    }

    /// Removes a dataset (used to roll back a failed registration).
    pub(crate) fn remove(&self, name: &str) {
        self.lock().remove(name);
    }

    /// Looks up a dataset.
    pub fn get(&self, name: &str) -> Result<Arc<FrozenGraph>, ServiceError> {
        Ok(self.entry(name)?.graph)
    }

    /// A dataset's graph and the fit statistics that belong to it.
    pub(crate) fn fit_input(
        &self,
        name: &str,
    ) -> Result<(Arc<FrozenGraph>, Arc<FitStatistics>), ServiceError> {
        let Entry { graph, statistics } = self.entry(name)?;
        Ok((graph, statistics))
    }

    /// Summaries of all registered datasets, sorted by name.
    #[must_use]
    pub fn summaries(&self) -> Vec<DatasetSummary> {
        self.lock()
            .iter()
            .map(|(name, entry)| DatasetSummary::of(name, &entry.graph))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agmdp_datasets::toy_social_graph;
    use agmdp_graph::AttributedGraph;

    #[test]
    fn register_get_and_list() {
        let reg = DatasetRegistry::new();
        let g = toy_social_graph();
        reg.register("toy", g.freeze()).unwrap();
        assert_eq!(*reg.get("toy").unwrap(), g.freeze());
        assert_eq!(reg.get("toy").unwrap().thaw(), g);
        assert!(matches!(
            reg.get("other"),
            Err(ServiceError::UnknownDataset(_))
        ));
        let summaries = reg.summaries();
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].name, "toy");
        assert_eq!(summaries[0].nodes, g.num_nodes());
        assert!(!summaries[0].mapped);
    }

    #[test]
    fn idempotent_reregistration_conflicting_data_rejected() {
        let reg = DatasetRegistry::new();
        let g = toy_social_graph();
        reg.register("toy", g.freeze()).unwrap();
        reg.register("toy", g.freeze()).unwrap(); // identical: fine
        let different = AttributedGraph::unattributed(3);
        assert!(matches!(
            reg.register("toy", different.freeze()),
            Err(ServiceError::DatasetConflict(_))
        ));
        assert!(reg.register("bad name", g.freeze()).is_err());
    }

    #[test]
    fn mapped_registration_is_interchangeable_with_owned() {
        let dir = std::env::temp_dir().join(format!("agmdp_registry_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.agb");
        let g = toy_social_graph();
        agmdp_graph::io::write_binary_file(&g, &path).unwrap();

        let reg = DatasetRegistry::new();
        let mapped = FrozenGraph::open(&path).unwrap();
        reg.register("toy", mapped).unwrap();
        // Re-registering the same content — owned or mapped — is
        // idempotent; different content conflicts.
        reg.register("toy", g.freeze()).unwrap();
        reg.register("toy", FrozenGraph::open(&path).unwrap())
            .unwrap();
        assert!(reg
            .register("toy", AttributedGraph::unattributed(2).freeze())
            .is_err());

        let ds = reg.get("toy").unwrap();
        assert_eq!(*ds, g.freeze());
        assert_eq!(ds.thaw(), g);
        let summaries = reg.summaries();
        assert_eq!(summaries[0].mapped, cfg!(target_endian = "little"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
