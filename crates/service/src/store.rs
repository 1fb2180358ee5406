//! The content-addressed release store.
//!
//! Every completed synthesis job writes its synthetic graph as a `.agb`
//! artifact (plus a small JSON sidecar with the release's stats and utility)
//! into a directory, keyed by the hash of everything that determines the
//! released bytes: dataset, ε, structural model, correlation method, seed,
//! and refinement iterations. A repeat `/synthesize` for the same key is
//! then served straight from the store — **no job runs, no ε is drawn** —
//! which is sound by post-processing invariance (Proposition 1 of
//! Jorgensen–Yu–Cormode): a released graph can be re-sent byte-for-byte at
//! zero privacy cost.
//!
//! Unlike the in-memory [`FitCache`](crate::cache::FitCache), the store
//! survives restarts: lookups recompute the key's filename and open the
//! artifact with the trusted mmap tier ([`FrozenGraph::open_trusted`]), so a
//! hit costs microseconds regardless of graph size and no index file is
//! needed. Writers stage into a `.tmp` sibling and `rename` into place — the
//! artifact first, the sidecar last — so a half-written release is invisible
//! (the sidecar is the commit record) and readers can never map a partially
//! written file. Identical keys always produce identical bytes (the pipeline
//! is deterministic), so concurrent same-key writers race benignly.
//!
//! Sidecar floats (ε, utility metrics, average degree) are stored as their
//! IEEE-754 bit patterns, not decimal text, so a store hit reproduces the
//! cold outcome *exactly* — no formatting round-trip can perturb a
//! comparison. This file is in the workspace panic-freedom lint scope: a
//! corrupt sidecar or artifact degrades to a miss, never a panic.

use std::fs;
use std::path::{Path, PathBuf};

use agmdp_eval::UtilityReport;
use agmdp_graph::io::fnv1a64;
use agmdp_graph::FrozenGraph;
use serde::Value;

use crate::engine::{GraphStats, SynthesisRequest};
use crate::error::ServiceError;
use crate::json;

/// Sidecar format version; bumped on any layout change so stale sidecars
/// degrade to misses instead of misparses.
const META_VERSION: u64 = 1;

/// Aggregate store occupancy, for the `agmdp_release_store_size_bytes`
/// gauge at `GET /metrics` scrape time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Number of committed releases (sidecar count).
    pub releases: usize,
    /// Total bytes of `.agb` artifacts on disk.
    pub bytes: u64,
}

/// One release served from the store.
#[derive(Debug)]
pub struct StoredRelease {
    /// ε of the original (cold) release.
    pub epsilon: f64,
    /// Structural summary recorded when the release was written.
    pub stats: GraphStats,
    /// Utility of the release relative to the registered original.
    pub utility: UtilityReport,
    /// The artifact, mapped zero-copy via the trusted tier.
    pub graph: FrozenGraph,
    /// Size of the artifact in bytes.
    pub bytes: u64,
}

/// A directory of content-addressed `.agb` releases.
#[derive(Debug)]
pub struct ReleaseStore {
    dir: PathBuf,
}

impl ReleaseStore {
    /// Opens (creating if needed) a release store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, ServiceError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| ServiceError::Store(format!("cannot create '{}': {e}", dir.display())))?;
        Ok(Self { dir })
    }

    /// The store's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The canonical key string of a request: every input that determines
    /// the released bytes, rendered collision-free (floats as bit patterns
    /// via [`FitKey`](crate::cache::FitKey)'s tokens). `threads` and
    /// `return_graph` are
    /// deliberately absent — neither changes the sampled graph.
    #[must_use]
    pub fn release_key(request: &SynthesisRequest) -> String {
        let fit = request.fit_key();
        let eps = fit
            .epsilon_bits
            .map_or_else(|| "none".to_string(), |bits| format!("{bits:016x}"));
        format!(
            "v{META_VERSION};dataset={};eps={eps};model={:?};method={};seed={:016x};refine={}",
            fit.dataset, fit.model, fit.method, fit.seed, request.refinement_iterations,
        )
    }

    /// The filename stem for a request: the (journal-safe) dataset name plus
    /// the FNV-1a 64 hash of the canonical key. The sidecar stores the full
    /// key string, so a hash collision degrades to a miss, never a wrong
    /// release.
    #[must_use]
    pub fn release_stem(request: &SynthesisRequest) -> String {
        let key = Self::release_key(request);
        format!("{}-{:016x}", request.dataset, fnv1a64(key.as_bytes()))
    }

    fn artifact_path(&self, stem: &str) -> PathBuf {
        self.dir.join(format!("{stem}.agb"))
    }

    fn meta_path(&self, stem: &str) -> PathBuf {
        self.dir.join(format!("{stem}.meta.json"))
    }

    /// Looks up the stored release for `request`. `None` on any miss:
    /// absent, version-skewed, key-mismatched (hash collision), or corrupt —
    /// the caller falls through to a normal synthesis, which rewrites the
    /// entry.
    #[must_use]
    pub fn lookup(&self, request: &SynthesisRequest) -> Option<StoredRelease> {
        let stem = Self::release_stem(request);
        let text = fs::read_to_string(self.meta_path(&stem)).ok()?;
        let meta = json::parse(&text).ok()?;
        if json::get(&meta, "version").and_then(json::as_u64) != Some(META_VERSION) {
            return None;
        }
        if json::get(&meta, "key").and_then(json::as_str)
            != Some(Self::release_key(request).as_str())
        {
            return None;
        }
        let epsilon = f64::from_bits(json::get(&meta, "epsilon_bits").and_then(json::as_u64)?);
        let stats = parse_stats(json::get(&meta, "stats")?)?;
        let utility = parse_utility(json::get(&meta, "utility_bits")?)?;
        // The service wrote this artifact itself (tmp + rename), so the
        // trusted tier's layout + offsets scan is the right validation
        // level: a hit on a large graph costs microseconds, not a
        // full-payload checksum pass.
        let graph = FrozenGraph::open_trusted(self.artifact_path(&stem)).ok()?;
        let bytes = graph.byte_len() as u64;
        Some(StoredRelease {
            epsilon,
            stats,
            utility,
            graph,
            bytes,
        })
    }

    /// Commits a completed release: the `.agb` artifact plus its sidecar,
    /// each staged to a `.tmp` sibling and renamed into place (artifact
    /// first — the sidecar's appearance is what makes the entry visible).
    pub fn insert(
        &self,
        request: &SynthesisRequest,
        artifact: &[u8],
        stats: &GraphStats,
        utility: &UtilityReport,
    ) -> Result<(), ServiceError> {
        let stem = Self::release_stem(request);
        self.write_atomic(&self.artifact_path(&stem), artifact)?;
        let meta = render_meta(&Self::release_key(request), request.epsilon, stats, utility);
        self.write_atomic(&self.meta_path(&stem), meta.as_bytes())
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), ServiceError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let fail = |e: std::io::Error| {
            ServiceError::Store(format!("cannot write '{}': {e}", path.display()))
        };
        fs::write(&tmp, bytes).map_err(fail)?;
        fs::rename(&tmp, path).map_err(fail)
    }

    /// Walks the store directory: committed release count and total artifact
    /// bytes. Called at metrics scrape time, not on the request path.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let mut out = StoreStats::default();
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return out;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".meta.json") {
                out.releases += 1;
            } else if name.ends_with(".agb") {
                if let Ok(meta) = entry.metadata() {
                    out.bytes += meta.len();
                }
            }
        }
        out
    }
}

/// Renders the sidecar JSON. Floats are written as `to_bits()` integers so
/// the parse in [`ReleaseStore::lookup`] reproduces them bit-exactly.
fn render_meta(key: &str, epsilon: f64, stats: &GraphStats, utility: &UtilityReport) -> String {
    let utility_bits: Vec<String> = utility_values(utility)
        .iter()
        .map(|v| v.to_bits().to_string())
        .collect();
    format!(
        concat!(
            "{{\"version\":{},\"key\":\"{}\",\"epsilon_bits\":{},",
            "\"stats\":{{\"nodes\":{},\"edges\":{},\"triangles\":{},",
            "\"max_degree\":{},\"avg_degree_bits\":{}}},",
            "\"utility_bits\":[{}]}}\n"
        ),
        META_VERSION,
        key,
        epsilon.to_bits(),
        stats.nodes,
        stats.edges,
        stats.triangles,
        stats.max_degree,
        stats.avg_degree.to_bits(),
        utility_bits.join(",")
    )
}

/// The 11 utility metrics in `UtilityReport::METRIC_NAMES` order.
fn utility_values(u: &UtilityReport) -> [f64; 11] {
    [
        u.ks_degree,
        u.ks_degree_ccdf,
        u.hellinger_degree,
        u.assortativity_dist,
        u.attr_edge_hellinger,
        u.attr_attr_corr_dist,
        u.attr_degree_corr_dist,
        u.triangle_count_re,
        u.avg_clustering_re,
        u.global_clustering_re,
        u.edge_count_re,
    ]
}

fn parse_stats(v: &Value) -> Option<GraphStats> {
    let field = |key: &str| json::get(v, key).and_then(json::as_u64);
    Some(GraphStats {
        nodes: usize::try_from(field("nodes")?).ok()?,
        edges: usize::try_from(field("edges")?).ok()?,
        triangles: field("triangles")?,
        max_degree: usize::try_from(field("max_degree")?).ok()?,
        avg_degree: f64::from_bits(field("avg_degree_bits")?),
    })
}

fn parse_utility(v: &Value) -> Option<UtilityReport> {
    let Value::Array(items) = v else { return None };
    let mut bits = items.iter().map(json::as_u64);
    let mut next = || bits.next().flatten().map(f64::from_bits);
    let report = UtilityReport {
        ks_degree: next()?,
        ks_degree_ccdf: next()?,
        hellinger_degree: next()?,
        assortativity_dist: next()?,
        attr_edge_hellinger: next()?,
        attr_attr_corr_dist: next()?,
        attr_degree_corr_dist: next()?,
        triangle_count_re: next()?,
        avg_clustering_re: next()?,
        global_clustering_re: next()?,
        edge_count_re: next()?,
    };
    // Trailing entries mean a layout skew: degrade to a miss.
    if bits.next().is_some() {
        return None;
    }
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use agmdp_datasets::toy_social_graph;
    use agmdp_graph::{io, GraphView};

    fn temp_store(tag: &str) -> ReleaseStore {
        let dir = std::env::temp_dir().join(format!("agmdp_store_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ReleaseStore::open(dir).unwrap()
    }

    fn sample_outcome() -> (SynthesisRequest, Vec<u8>, GraphStats, UtilityReport) {
        let request = SynthesisRequest::new("toy", 0.5, 42);
        let frozen = toy_social_graph().freeze();
        let artifact = io::to_binary(&frozen);
        let stats = GraphStats {
            nodes: frozen.num_nodes(),
            edges: frozen.num_edges(),
            triangles: 3,
            max_degree: frozen.max_degree(),
            avg_degree: frozen.avg_degree(),
        };
        let utility = UtilityReport {
            ks_degree: 0.125,
            edge_count_re: 0.1 + 0.2, // deliberately not decimal-exact
            ..UtilityReport::default()
        };
        (request, artifact, stats, utility)
    }

    #[test]
    fn insert_then_lookup_round_trips_bit_exactly() {
        let store = temp_store("roundtrip");
        let (request, artifact, stats, utility) = sample_outcome();
        assert!(store.lookup(&request).is_none());
        store.insert(&request, &artifact, &stats, &utility).unwrap();
        let hit = store.lookup(&request).unwrap();
        assert_eq!(hit.epsilon.to_bits(), request.epsilon.to_bits());
        assert_eq!(hit.stats, stats);
        assert_eq!(hit.utility, utility);
        assert_eq!(hit.bytes, artifact.len() as u64);
        assert_eq!(io::to_binary(&hit.graph), artifact);
        let s = store.stats();
        assert_eq!(s.releases, 1);
        assert_eq!(s.bytes, artifact.len() as u64);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    /// Artifact names must not drift across builds, or stores written by
    /// earlier binaries would stop hitting.
    #[test]
    fn release_stem_is_stable_across_builds() {
        assert_eq!(
            ReleaseStore::release_stem(&SynthesisRequest::new("toy", 0.5, 42)),
            "toy-8197ae529bbcfbbf"
        );
    }

    #[test]
    fn lookup_survives_reopen() {
        let store = temp_store("reopen");
        let (request, artifact, stats, utility) = sample_outcome();
        store.insert(&request, &artifact, &stats, &utility).unwrap();
        let reopened = ReleaseStore::open(store.dir().to_path_buf()).unwrap();
        assert!(reopened.lookup(&request).is_some());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn distinct_requests_get_distinct_entries() {
        let store = temp_store("distinct");
        let (request, artifact, stats, utility) = sample_outcome();
        store.insert(&request, &artifact, &stats, &utility).unwrap();
        // Any key ingredient change misses: ε, seed, refinement iterations.
        let mut other = request.clone();
        other.epsilon = 0.25;
        assert!(store.lookup(&other).is_none());
        let mut other = request.clone();
        other.seed += 1;
        assert!(store.lookup(&other).is_none());
        let mut other = request.clone();
        other.refinement_iterations += 1;
        assert!(store.lookup(&other).is_none());
        // Non-key knobs still hit.
        let mut other = request.clone();
        other.threads = 8;
        other.return_graph = true;
        assert!(store.lookup(&other).is_some());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn corrupt_sidecar_or_artifact_degrades_to_miss() {
        let store = temp_store("corrupt");
        let (request, artifact, stats, utility) = sample_outcome();
        store.insert(&request, &artifact, &stats, &utility).unwrap();
        let stem = ReleaseStore::release_stem(&request);

        // Truncated artifact: the trusted open refuses, lookup misses.
        std::fs::write(store.artifact_path(&stem), &artifact[..10]).unwrap();
        assert!(store.lookup(&request).is_none());

        // Unparseable sidecar.
        store.insert(&request, &artifact, &stats, &utility).unwrap();
        std::fs::write(store.meta_path(&stem), b"not json").unwrap();
        assert!(store.lookup(&request).is_none());

        // Version skew.
        let meta = render_meta(&ReleaseStore::release_key(&request), 0.5, &stats, &utility)
            .replace("\"version\":1", "\"version\":999");
        std::fs::write(store.meta_path(&stem), meta).unwrap();
        assert!(store.lookup(&request).is_none());

        // Key mismatch (as a hash collision would present).
        let meta = render_meta("v1;dataset=other", 0.5, &stats, &utility);
        std::fs::write(store.meta_path(&stem), meta).unwrap();
        assert!(store.lookup(&request).is_none());

        std::fs::remove_dir_all(store.dir()).ok();
    }
}
