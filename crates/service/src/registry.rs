//! The in-memory dataset registry.
//!
//! Maps dataset names to **read-only** graphs: a dataset is registered once
//! and then only ever read (parameter fits, metric profiles,
//! `GET /evaluate`). Every dataset is a [`FrozenGraph`]: owned CSR words for
//! text registrations and in-process embedding, or a memory-mapped `.agb`
//! file for binary path registrations (microseconds to register, one
//! page-cache copy shared across processes). The DP fit reads it in place.
//! Datasets are held behind `Arc` so synthesis jobs can read them
//! concurrently without cloning; the registry itself is never persisted
//! (re-register after a restart — the *budget* is what must survive, and
//! that lives in the ledger).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use agmdp_graph::{FrozenGraph, GraphView};

use crate::error::{validate_dataset_name, ServiceError};

/// The name the repository benchmark (`perfbench/`) uses for a registered
/// graph: the same [`FrozenGraph`].
pub type Dataset = FrozenGraph;

/// Summary of one registered dataset, for `GET /datasets`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct DatasetSummary {
    /// Registry key.
    pub name: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Number of edges.
    pub edges: usize,
    /// Attribute width w.
    pub attribute_width: usize,
    /// `true` when the dataset is served zero-copy from a memory-mapped
    /// `.agb` file rather than owned heap arrays.
    pub mapped: bool,
}

/// A thread-safe name → graph map.
#[derive(Debug, Default)]
pub struct DatasetRegistry {
    graphs: Mutex<BTreeMap<String, Arc<FrozenGraph>>>,
}

impl DatasetRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
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
        let mut graphs = self.graphs.lock().expect("registry lock poisoned");
        if let Some(existing) = graphs.get(name) {
            if **existing == graph {
                return Ok(Arc::clone(existing));
            }
            return Err(ServiceError::DatasetConflict(format!(
                "'{name}' is already registered with different data"
            )));
        }
        let arc = Arc::new(graph);
        graphs.insert(name.to_string(), Arc::clone(&arc));
        Ok(arc)
    }

    /// Removes a dataset (used to roll back a failed registration).
    pub(crate) fn remove(&self, name: &str) {
        self.graphs
            .lock()
            .expect("registry lock poisoned")
            .remove(name);
    }

    /// Looks up a dataset.
    pub fn get(&self, name: &str) -> Result<Arc<FrozenGraph>, ServiceError> {
        self.graphs
            .lock()
            .expect("registry lock poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownDataset(name.to_string()))
    }

    /// Summaries of all registered datasets, sorted by name.
    #[must_use]
    pub fn summaries(&self) -> Vec<DatasetSummary> {
        self.graphs
            .lock()
            .expect("registry lock poisoned")
            .iter()
            .map(|(name, g)| DatasetSummary {
                name: name.clone(),
                nodes: g.num_nodes(),
                edges: g.num_edges(),
                attribute_width: g.schema().width(),
                mapped: g.is_mapped(),
            })
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
        assert_eq!(summaries[0].edges, g.num_edges());
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
