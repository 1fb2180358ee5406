//! The policy table: which lint families apply to which workspace paths.
//!
//! Paths are workspace-relative with forward slashes. The table is the
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

/// Crates whose non-test code must be bit-identical at any thread count.
const DETERMINISTIC_CRATES: &[&str] = &["core", "datasets", "eval", "graph", "models"];

/// The service request path: files where a panic kills a worker thread
/// serving a request instead of a CLI run. The reactor path is stricter
/// still: a panic there takes down *every* connection at once, not just the
/// one being served.
const REQUEST_PATH_FILES: &[&str] = &[
    "crates/service/src/server.rs",
    "crates/service/src/http.rs",
    "crates/service/src/json.rs",
    "crates/service/src/engine.rs",
    "crates/service/src/reactor.rs",
    "crates/service/src/conn.rs",
    "crates/service/src/sys.rs",
    "crates/service/src/ratelimit.rs",
];

/// The metrics/tracing exposition path: every request ticks counters and
/// `GET /metrics` renders the registry, so the observability code runs on
/// the same worker threads as the request path and must be equally
/// panic-free (a poisoned or panicking metric must never fail a request).
const EXPOSITION_PATH_FILES: &[&str] = &[
    "crates/obs/src/registry.rs",
    "crates/obs/src/trace.rs",
    "crates/service/src/telemetry.rs",
];

/// The zero-copy storage path: the `.agb` parser and mmap loader read a
/// file whose contents the process does not control, and the release
/// store's lookups run on the `/synthesize` request path — a corrupt or
/// truncated file must degrade to a typed error (or a store miss), never a
/// panic in a worker.
const STORAGE_PATH_FILES: &[&str] = &["crates/graph/src/mmap.rs", "crates/service/src/store.rs"];

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

    scope.panic_freedom = REQUEST_PATH_FILES.contains(&rel_path)
        || EXPOSITION_PATH_FILES.contains(&rel_path)
        || STORAGE_PATH_FILES.contains(&rel_path);
    Some(scope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_crates_get_determinism() {
        for path in [
            "crates/core/src/workflow.rs",
            "crates/models/src/parallel.rs",
            "crates/graph/src/csr.rs",
            "crates/eval/src/lib.rs",
            "crates/datasets/src/lib.rs",
        ] {
            assert!(scope_for(path).unwrap().determinism, "{path}");
        }
        for path in [
            "crates/service/src/server.rs",
            "crates/privacy/src/lib.rs",
            "src/main.rs",
        ] {
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
        for path in REQUEST_PATH_FILES
            .iter()
            .chain(EXPOSITION_PATH_FILES)
            .chain(STORAGE_PATH_FILES)
        {
            assert!(scope_for(path).unwrap().panic_freedom, "{path}");
        }
        // The event-driven front end is inside the policy: a panic in the
        // reactor drops every open connection.
        for path in [
            "crates/service/src/reactor.rs",
            "crates/service/src/conn.rs",
            "crates/service/src/sys.rs",
            "crates/service/src/ratelimit.rs",
        ] {
            assert!(scope_for(path).unwrap().panic_freedom, "{path}");
        }
        assert!(
            !scope_for("crates/service/src/cache.rs")
                .unwrap()
                .panic_freedom
        );
        // The storage path keeps both the mmap loader (graph crate) and the
        // release store (service crate) inside the policy; other graph-crate
        // files stay outside.
        assert!(scope_for("crates/graph/src/mmap.rs").unwrap().panic_freedom);
        assert!(
            scope_for("crates/service/src/store.rs")
                .unwrap()
                .panic_freedom
        );
        assert!(!scope_for("crates/graph/src/io.rs").unwrap().panic_freedom);
        assert!(
            !scope_for("crates/core/src/workflow.rs")
                .unwrap()
                .panic_freedom
        );
        // The obs crate is outside the determinism boundary — it owns the
        // clocks — but its exposition files still get hygiene + panics.
        let registry = scope_for("crates/obs/src/registry.rs").unwrap();
        assert!(!registry.determinism);
        assert!(registry.hygiene);
        assert!(!scope_for("crates/obs/src/lib.rs").unwrap().panic_freedom);
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
