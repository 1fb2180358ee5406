//! The policy table: which lint families apply to which workspace paths.
//!
//! This module is the only place that decides where a contract holds, and
//! it decides by crate; no comment in a scanned file can exempt it. Paths
//! are workspace-relative with forward slashes. The table is the
//! machine-readable half of `docs/INVARIANTS.md`; keep the two in sync.

/// The lint families in force for one source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Scope {
    /// Forbid ambient RNGs, wall clocks, and hash-ordered containers.
    pub determinism: bool,
    /// Check noise-primitive call sites and sensitive imports.
    pub epsilon_flow: bool,
    /// Forbid panicking constructs.
    pub panic_freedom: bool,
    /// Forbid stray debug output.
    pub hygiene: bool,
    /// True inside the privacy boundary (the `privacy` crate and
    /// `core/src/*_dp.rs`), where noise primitives are legal.
    pub noise_allowed: bool,
    /// True for the `models` crate, which must not import from `datasets`.
    pub models_crate: bool,
}

/// Crates whose non-test code must be bit-identical at any thread count:
/// everything from the fit's noise (`privacy`) through sampling (`models`)
/// to the eval golden's scores (`metrics`).
const DETERMINISTIC_CRATES: &[&str] = &[
    "core", "datasets", "eval", "graph", "metrics", "models", "privacy",
];

/// Crates whose every file runs on a service worker or reactor thread: a
/// panic there kills the thread serving a request (or, in the reactor, every
/// open connection at once), and a poisoned or panicking metric must never
/// fail a request.
const PANIC_FREE_CRATES: &[&str] = &["obs", "service"];

/// The one panic-free file outside those crates: the `.agb` mmap loader
/// reads a file whose contents the process does not control, so a corrupt
/// or truncated file must degrade to a typed error. The rest of the graph
/// crate indexes by contract.
const MMAP_LOADER: &str = "crates/graph/src/mmap.rs";

/// Classifies one workspace-relative path. Returns `None` for files the
/// linter should not scan at all (vendored code, tests, benches, fixtures).
pub fn scope_for(rel_path: &str) -> Option<Scope> {
    // Never scan vendored third-party code or out-of-line test/bench trees.
    if rel_path.starts_with("vendor/")
        || rel_path.contains("/tests/")
        || rel_path.contains("/benches/")
        || rel_path.contains("/examples/")
        || rel_path.contains("/fixtures/")
    {
        return None;
    }
    if !rel_path.ends_with(".rs") {
        return None;
    }

    let mut scope = Scope {
        // Hygiene applies everywhere except the CLI binary and the bench
        // crate, which exist to print.
        hygiene: !rel_path.starts_with("src/") && !rel_path.starts_with("crates/bench/"),
        ..Scope::default()
    };

    if let Some(rest) = rel_path.strip_prefix("crates/") {
        let crate_name = rest.split('/').next().unwrap_or_default();
        scope.determinism = DETERMINISTIC_CRATES.contains(&crate_name);
        scope.panic_freedom = PANIC_FREE_CRATES.contains(&crate_name) || rel_path == MMAP_LOADER;
        scope.epsilon_flow = true;
        scope.models_crate = crate_name == "models";
        scope.noise_allowed = crate_name == "privacy"
            || (crate_name == "core"
                && rel_path.starts_with("crates/core/src/")
                && rel_path.ends_with("_dp.rs"));
    } else {
        // Root `src/` — the CLI. ε-flow still applies (the CLI must not
        // sample noise directly either).
        scope.epsilon_flow = true;
    }
    Some(scope)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workspace_root() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// Every `.rs` file under `crates/<name>/src`, workspace-relative.
    fn crate_files(name: &str) -> Vec<String> {
        let root = workspace_root();
        let mut files = Vec::new();
        crate::collect_rs_files(&root.join("crates").join(name).join("src"), &mut files).unwrap();
        assert!(!files.is_empty(), "no sources under crates/{name}/src");
        files
            .iter()
            .map(|path| crate::rel_path(&root, path))
            .collect()
    }

    #[test]
    fn deterministic_crates_get_determinism() {
        for path in [
            "crates/core/src/workflow.rs",
            "crates/models/src/parallel.rs",
            "crates/graph/src/csr.rs",
            "crates/eval/src/lib.rs",
            "crates/datasets/src/lib.rs",
            "crates/privacy/src/lib.rs",
            "crates/metrics/src/lib.rs",
        ] {
            assert!(scope_for(path).unwrap().determinism, "{path}");
        }
        for path in ["crates/service/src/server.rs", "src/main.rs"] {
            assert!(!scope_for(path).unwrap().determinism, "{path}");
        }
    }

    #[test]
    fn noise_boundary_is_privacy_and_core_dp_files() {
        assert!(
            scope_for("crates/privacy/src/laplace.rs")
                .unwrap()
                .noise_allowed
        );
        assert!(
            scope_for("crates/core/src/degree_dp.rs")
                .unwrap()
                .noise_allowed
        );
        assert!(
            !scope_for("crates/core/src/workflow.rs")
                .unwrap()
                .noise_allowed
        );
        assert!(!scope_for("crates/models/src/agm.rs").unwrap().noise_allowed);
    }

    #[test]
    fn panic_freedom_covers_exactly_the_request_and_exposition_paths() {
        // The request path, the event-driven front end (a panic in the
        // reactor drops every open connection), the budget ledger, the
        // release store and the exposition path, file by file.
        for path in [
            "crates/service/src/server.rs",
            "crates/service/src/http.rs",
            "crates/service/src/json.rs",
            "crates/service/src/engine.rs",
            "crates/service/src/cache.rs",
            "crates/service/src/registry.rs",
            "crates/service/src/jobs.rs",
            "crates/service/src/ledger.rs",
            "crates/service/src/reactor.rs",
            "crates/service/src/conn.rs",
            "crates/service/src/sys.rs",
            "crates/service/src/ratelimit.rs",
            "crates/service/src/store.rs",
            "crates/service/src/telemetry.rs",
            "crates/obs/src/lib.rs",
            "crates/obs/src/registry.rs",
            "crates/obs/src/trace.rs",
            "crates/graph/src/mmap.rs",
        ] {
            assert!(scope_for(path).unwrap().panic_freedom, "{path}");
        }
        // Other graph-crate files and the pipeline stay outside.
        assert!(!scope_for("crates/graph/src/io.rs").unwrap().panic_freedom);
        assert!(
            !scope_for("crates/core/src/workflow.rs")
                .unwrap()
                .panic_freedom
        );
        // The obs crate is outside the determinism boundary — it owns the
        // clocks — but still gets hygiene + panics.
        let registry = scope_for("crates/obs/src/registry.rs").unwrap();
        assert!(!registry.determinism);
        assert!(registry.hygiene);
    }

    #[test]
    fn crate_scopes_cover_every_file_of_the_crate() {
        for name in ["service", "obs"] {
            for path in crate_files(name) {
                assert!(scope_for(&path).unwrap().panic_freedom, "{path}");
            }
        }
        for name in ["privacy", "metrics"] {
            for path in crate_files(name) {
                assert!(scope_for(&path).unwrap().determinism, "{path}");
            }
        }
    }

    #[test]
    fn every_scoped_path_exists() {
        let root = workspace_root();
        for name in DETERMINISTIC_CRATES.iter().chain(PANIC_FREE_CRATES) {
            let src = root.join("crates").join(name).join("src");
            assert!(src.is_dir(), "stale scope entry crates/{name}");
        }
        assert!(
            root.join(MMAP_LOADER).is_file(),
            "stale scope entry {MMAP_LOADER}"
        );
    }

    #[test]
    fn hygiene_exempts_cli_and_bench() {
        assert!(!scope_for("src/main.rs").unwrap().hygiene);
        assert!(!scope_for("crates/bench/src/lib.rs").unwrap().hygiene);
        assert!(scope_for("crates/core/src/workflow.rs").unwrap().hygiene);
    }

    #[test]
    fn vendored_and_test_trees_are_never_scanned() {
        assert_eq!(scope_for("vendor/rand/src/lib.rs"), None);
        assert_eq!(scope_for("crates/analysis/tests/fixtures/bad.rs"), None);
        assert_eq!(scope_for("crates/graph/benches/csr.rs"), None);
        assert_eq!(scope_for("crates/core/src/data.bin"), None);
    }
}
