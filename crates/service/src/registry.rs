//! The in-memory dataset registry: one entry per dataset name.
//!
//! A dataset is registered once and then only ever read. Its entry holds
//! the **read-only** graph, the original-side metric profile every job
//! scores its release against (built on first use), the graph-only
//! statistics its cold fits add noise to (each built by the first fit that
//! needs it), and the running utility of every release served from it
//! (`GET /evaluate`).
//!
//! Every completed job compares its release against the registered original
//! (`agmdp_eval::UtilityReport`, ε-free post-processing) and folds the
//! result into its dataset's `Accumulator`, so the server reports the
//! *utility* of what it has released alongside the budget ledger's record of
//! what the releases *cost*. The accumulator keeps running sums per metric,
//! not the reports themselves, so memory stays constant per dataset no
//! matter how many jobs run.
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
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use agmdp_core::FitStatistics;
use agmdp_eval::report::NUM_METRICS;
use agmdp_eval::{GraphProfile, UtilityReport};
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

impl DatasetSummary {
    /// The summary of `graph` registered under `name`.
    pub(crate) fn of(name: &str, graph: &FrozenGraph) -> Self {
        Self {
            name: name.to_string(),
            nodes: graph.num_nodes(),
            edges: graph.num_edges(),
            attribute_width: graph.schema().width(),
            mapped: graph.is_mapped(),
        }
    }
}

/// Aggregated utility of every release served for one dataset.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
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
struct Accumulator {
    count: u64,
    sum: [f64; NUM_METRICS],
    sum_sq: [f64; NUM_METRICS],
}

impl Accumulator {
    fn new() -> Self {
        Self {
            count: 0,
            sum: [0.0; NUM_METRICS],
            sum_sq: [0.0; NUM_METRICS],
        }
    }

    fn record(&mut self, report: &UtilityReport) {
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

    fn summary(&self) -> DatasetUtility {
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

/// One registered dataset.
#[derive(Debug)]
struct Entry {
    graph: Arc<FrozenGraph>,
    /// Original-side metric statistics, computed by the first job that needs
    /// them and reused by every later one. The registry refuses
    /// re-registration with different data, so a profile never goes stale.
    profile: OnceLock<Arc<GraphProfile>>,
    /// The graph-only statistics of the DP fit, filled by the cold fits
    /// that need them. Un-noised functions of the graph: they never leave
    /// the engine's fit.
    statistics: Arc<FitStatistics>,
    /// Running utility of every release served from this dataset.
    utility: Mutex<Accumulator>,
}

/// A thread-safe name → dataset map.
#[derive(Debug, Default)]
pub struct DatasetRegistry {
    entries: Mutex<BTreeMap<String, Arc<Entry>>>,
}

impl DatasetRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The table, recovered from poisoning: every update is one insert or
    /// remove, so the table stays consistent even if a holder panicked.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Arc<Entry>>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn entry(&self, name: &str) -> Result<Arc<Entry>, ServiceError> {
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
            Arc::new(Entry {
                graph: Arc::clone(&graph),
                profile: OnceLock::new(),
                statistics: Arc::new(FitStatistics::new()),
                utility: Mutex::new(Accumulator::new()),
            }),
        );
        Ok(graph)
    }

    /// Removes a dataset (used to roll back a failed registration).
    pub(crate) fn remove(&self, name: &str) {
        self.lock().remove(name);
    }

    /// Looks up a dataset.
    pub fn get(&self, name: &str) -> Result<Arc<FrozenGraph>, ServiceError> {
        Ok(Arc::clone(&self.entry(name)?.graph))
    }

    /// A dataset's graph and the fit statistics that belong to it.
    pub(crate) fn fit_input(
        &self,
        name: &str,
    ) -> Result<(Arc<FrozenGraph>, Arc<FitStatistics>), ServiceError> {
        let entry = self.entry(name)?;
        Ok((Arc::clone(&entry.graph), Arc::clone(&entry.statistics)))
    }

    /// The original-side metric profile of a dataset, computed on first use.
    /// Concurrent first callers wait for one computation; the profile's
    /// whole-graph traversals run on the CSR arrays, outside the table lock.
    pub fn profile(&self, name: &str) -> Result<Arc<GraphProfile>, ServiceError> {
        let entry = self.entry(name)?;
        let profile = entry
            .profile
            .get_or_init(|| Arc::new(GraphProfile::of(entry.graph.as_ref())));
        Ok(Arc::clone(profile))
    }

    /// Folds one release's utility report into the dataset's aggregate.
    pub fn record_utility(&self, name: &str, report: &UtilityReport) -> Result<(), ServiceError> {
        self.entry(name)?
            .utility
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record(report);
        Ok(())
    }

    /// Aggregated utility of the datasets with at least one recorded run,
    /// sorted by name.
    #[must_use]
    pub fn utilities(&self) -> Vec<(String, DatasetUtility)> {
        self.lock()
            .iter()
            .map(|(name, entry)| {
                let utility = entry
                    .utility
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .summary();
                (name.clone(), utility)
            })
            .filter(|(_, utility)| utility.runs > 0)
            .collect()
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
        assert_eq!(summaries[0].edges, g.num_edges());
        assert!(!summaries[0].mapped);
    }

    #[test]
    fn entries_hold_the_profile_and_the_utility_aggregate() {
        let reg = DatasetRegistry::new();
        let g = toy_social_graph();
        reg.register("b", g.freeze()).unwrap();
        reg.register("a", g.freeze()).unwrap();
        // No runs yet: no dataset is listed.
        assert!(reg.utilities().is_empty());

        // The profile is built once and shared by every later caller.
        let profile = reg.profile("a").unwrap();
        assert_eq!(*profile, GraphProfile::of(&g.freeze()));
        assert!(Arc::ptr_eq(&profile, &reg.profile("a").unwrap()));

        let report = UtilityReport {
            ks_degree: 0.25,
            ..Default::default()
        };
        reg.record_utility("b", &report).unwrap();
        reg.record_utility("a", &report).unwrap();
        reg.record_utility("a", &report).unwrap();
        let utilities = reg.utilities();
        let names: Vec<&str> = utilities.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["a", "b"], "sorted by name, datasets kept apart");
        assert_eq!(utilities[0].1.runs, 2);
        assert_eq!(utilities[1].1.runs, 1);
        assert_eq!(utilities[1].1.mean, report);

        assert!(matches!(
            reg.profile("other"),
            Err(ServiceError::UnknownDataset(_))
        ));
        assert!(matches!(
            reg.record_utility("other", &report),
            Err(ServiceError::UnknownDataset(_))
        ));
    }

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
