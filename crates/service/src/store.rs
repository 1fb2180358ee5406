//! The content-addressed release store.
//!
//! Every completed synthesis job writes its synthetic graph as a `.agb`
//! artifact (plus a small JSON sidecar with the release's stats) into a
//! directory, keyed by the hash of everything that determines the
//! released bytes: dataset, ε, structural model, correlation method, seed,
//! and refinement iterations. A repeat `/synthesize` for the same key is
//! then served straight from the store — **no job runs, no ε is drawn** —
//! which is sound by post-processing invariance (Proposition 1 of
//! Jorgensen–Yu–Cormode): a released graph can be re-sent byte-for-byte at
//! zero privacy cost.
//!
//! Unlike the in-memory [`FitCache`](crate::cache::FitCache), the store
//! survives restarts: lookups recompute the key's filename, so no index file
//! is needed. An artifact's first hit in a process opens it with the
//! verified mmap tier ([`FrozenGraph::open`]: checksum and every CSR
//! invariant), so bytes the service never released — a torn write, a
//! flipped bit — are a miss, not a hit; the store remembers the stem, and
//! later hits open it with the trusted tier ([`FrozenGraph::open_trusted`])
//! in microseconds regardless of graph size. Writers stage into a `.tmp` sibling and `rename` into place — the
//! artifact first, the sidecar last — so a half-written release is invisible
//! (the sidecar is the commit record) and readers can never map a partially
//! written file. Identical keys always produce identical bytes (the pipeline
//! is deterministic), so concurrent same-key writers race benignly.
//!
//! Sidecar floats (ε, average degree) are stored as their IEEE-754 bit
//! patterns, not decimal text, so a store hit reproduces the cold outcome
//! *exactly* — no formatting round-trip can perturb a comparison. A lookup
//! ignores fields it does not read, so sidecars of the earlier layout, which
//! also carried a `utility_bits` array, still hit. This file is in the
//! workspace panic-freedom lint scope: a corrupt sidecar or artifact
//! degrades to a miss, never a panic.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use agmdp_graph::io::fnv1a64;
use agmdp_graph::FrozenGraph;
use serde::Value;

use crate::engine::{GraphStats, SynthesisRequest};
use crate::error::ServiceError;
use crate::json;

/// Sidecar format version; bumped on any layout change so stale sidecars
/// degrade to misses instead of misparses. It is part of every release key
/// (and so of every artifact name), so it changes only with the layout of
/// what a lookup reads.
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
    /// The artifact, mapped zero-copy.
    pub graph: FrozenGraph,
    /// Size of the artifact in bytes.
    pub bytes: u64,
}

/// A directory of content-addressed `.agb` releases.
#[derive(Debug)]
pub struct ReleaseStore {
    dir: PathBuf,
    /// Stems whose artifact passed the verified tier in this process.
    verified: Mutex<BTreeSet<String>>,
}

impl ReleaseStore {
    /// Opens (creating if needed) a release store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, ServiceError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| ServiceError::Store(format!("cannot create '{}': {e}", dir.display())))?;
        Ok(Self {
            dir,
            verified: Mutex::new(BTreeSet::new()),
        })
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
        let graph = self.open_artifact(&stem)?;
        let bytes = graph.byte_len() as u64;
        Some(StoredRelease {
            epsilon,
            stats,
            graph,
            bytes,
        })
    }

    /// Maps a committed artifact: through the verified tier on the stem's
    /// first hit in this process, then through the trusted tier. A file
    /// that fails verification stays unverified, so every lookup of it
    /// misses until a rewrite passes.
    fn open_artifact(&self, stem: &str) -> Option<FrozenGraph> {
        let path = self.artifact_path(stem);
        // Every update is one insert, so a poisoned set is still consistent.
        let mut verified = self.verified.lock().unwrap_or_else(PoisonError::into_inner);
        if verified.contains(stem) {
            return FrozenGraph::open_trusted(path).ok();
        }
        drop(verified);
        let graph = FrozenGraph::open(path).ok()?;
        verified = self.verified.lock().unwrap_or_else(PoisonError::into_inner);
        verified.insert(stem.to_string());
        Some(graph)
    }

    /// Commits a completed release: the `.agb` artifact plus its sidecar,
    /// each staged to a `.tmp` sibling and renamed into place (artifact
    /// first — the sidecar's appearance is what makes the entry visible).
    pub fn insert(
        &self,
        request: &SynthesisRequest,
        artifact: &[u8],
        stats: &GraphStats,
    ) -> Result<(), ServiceError> {
        let stem = Self::release_stem(request);
        self.write_atomic(&self.artifact_path(&stem), artifact)?;
        let meta = render_meta(&Self::release_key(request), request.epsilon, stats);
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
fn render_meta(key: &str, epsilon: f64, stats: &GraphStats) -> String {
    format!(
        concat!(
            "{{\"version\":{},\"key\":\"{}\",\"epsilon_bits\":{},",
            "\"stats\":{{\"nodes\":{},\"edges\":{},\"triangles\":{},",
            "\"max_degree\":{},\"avg_degree_bits\":{}}}}}\n"
        ),
        META_VERSION,
        key,
        epsilon.to_bits(),
        stats.nodes,
        stats.edges,
        stats.triangles,
        stats.max_degree,
        stats.avg_degree.to_bits(),
    )
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

    fn sample_outcome() -> (SynthesisRequest, Vec<u8>, GraphStats) {
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
        (request, artifact, stats)
    }

    #[test]
    fn insert_then_lookup_round_trips_bit_exactly() {
        let store = temp_store("roundtrip");
        let (request, artifact, stats) = sample_outcome();
        assert!(store.lookup(&request).is_none());
        store.insert(&request, &artifact, &stats).unwrap();
        let hit = store.lookup(&request).unwrap();
        assert_eq!(hit.epsilon.to_bits(), request.epsilon.to_bits());
        assert_eq!(hit.stats, stats);
        assert_eq!(hit.bytes, artifact.len() as u64);
        assert_eq!(io::to_binary(&hit.graph), artifact);
        let s = store.stats();
        assert_eq!(s.releases, 1);
        assert_eq!(s.bytes, artifact.len() as u64);

        // A sidecar in the earlier layout, which also carried eleven
        // utility bit patterns, still hits and replays the same release.
        let meta = render_meta(&ReleaseStore::release_key(&request), 0.5, &stats);
        let bits = vec![(0.1f64 + 0.2).to_bits().to_string(); 11].join(",");
        let earlier = meta.replacen("}}\n", &format!("}},\"utility_bits\":[{bits}]}}\n"), 1);
        assert!(earlier.ends_with("]}\n"), "{earlier}");
        let stem = ReleaseStore::release_stem(&request);
        std::fs::write(store.meta_path(&stem), earlier).unwrap();
        let hit = store.lookup(&request).unwrap();
        assert_eq!(hit.stats, stats);
        assert_eq!(io::to_binary(&hit.graph), artifact);
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
        let (request, artifact, stats) = sample_outcome();
        store.insert(&request, &artifact, &stats).unwrap();
        let reopened = ReleaseStore::open(store.dir().to_path_buf()).unwrap();
        assert!(reopened.lookup(&request).is_some());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn distinct_requests_get_distinct_entries() {
        let store = temp_store("distinct");
        let (request, artifact, stats) = sample_outcome();
        store.insert(&request, &artifact, &stats).unwrap();
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

    /// A flipped bit keeps the file's layout, so only the checksum finds
    /// it; the first hit in a process checks it, later hits trust the stem.
    #[test]
    fn a_flipped_neighbour_byte_is_a_miss_on_the_first_hit() {
        let store = temp_store("flipped");
        let (request, mut artifact, stats) = sample_outcome();
        store.insert(&request, &artifact, &stats).unwrap();
        let stem = ReleaseStore::release_stem(&request);
        // A 28-byte header and n + 1 offset words precede the neighbours.
        let neighbours = 28 + 4 * (stats.nodes + 1);
        artifact[neighbours + 4 * stats.edges] ^= 1;
        std::fs::write(store.artifact_path(&stem), &artifact).unwrap();
        assert!(FrozenGraph::open_trusted(store.artifact_path(&stem)).is_ok());
        assert!(store.lookup(&request).is_none());
        assert!(
            store.lookup(&request).is_none(),
            "a failed stem stays unverified"
        );

        // A rewrite of the released bytes hits, and keeps hitting after the
        // file goes bad, without re-reading the whole artifact.
        let (_, released, _) = sample_outcome();
        store.insert(&request, &released, &stats).unwrap();
        assert_eq!(
            io::to_binary(&store.lookup(&request).unwrap().graph),
            released
        );
        std::fs::write(store.artifact_path(&stem), &artifact).unwrap();
        assert!(store.lookup(&request).is_some());
        // A fresh process verifies again.
        let reopened = ReleaseStore::open(store.dir().to_path_buf()).unwrap();
        assert!(reopened.lookup(&request).is_none());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn corrupt_sidecar_or_artifact_degrades_to_miss() {
        let store = temp_store("corrupt");
        let (request, artifact, stats) = sample_outcome();
        store.insert(&request, &artifact, &stats).unwrap();
        let stem = ReleaseStore::release_stem(&request);

        // Truncated artifact: the trusted open refuses, lookup misses.
        std::fs::write(store.artifact_path(&stem), &artifact[..10]).unwrap();
        assert!(store.lookup(&request).is_none());

        // Unparseable sidecar.
        store.insert(&request, &artifact, &stats).unwrap();
        std::fs::write(store.meta_path(&stem), b"not json").unwrap();
        assert!(store.lookup(&request).is_none());

        // Version skew.
        let meta = render_meta(&ReleaseStore::release_key(&request), 0.5, &stats)
            .replace("\"version\":1", "\"version\":999");
        std::fs::write(store.meta_path(&stem), meta).unwrap();
        assert!(store.lookup(&request).is_none());

        // Key mismatch (as a hash collision would present).
        let meta = render_meta("v1;dataset=other", 0.5, &stats);
        std::fs::write(store.meta_path(&stem), meta).unwrap();
        assert!(store.lookup(&request).is_none());

        std::fs::remove_dir_all(store.dir()).ok();
    }
}
