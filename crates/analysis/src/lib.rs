//! `agmdp-lint`: a workspace invariant checker for determinism, ε-flow,
//! and panic-freedom.
//!
//! The AGM-DP guarantee rests on discipline the compiler cannot see: ε is
//! only consumed inside the Θ-learners, output is bit-identical at any
//! thread count, and the service request path degrades instead of
//! panicking. This crate turns those contracts (spelled out in
//! `docs/INVARIANTS.md`) into machine checks — a hand-rolled, dependency-free
//! line/token-level scanner in the house style of the vendored proc-macro
//! derives, with no `syn` in sight.
//!
//! Four lint families, each scoped by the policy table in [`policy`]:
//!
//! | family | scope | forbids |
//! |---|---|---|
//! | `determinism` | `core`, `datasets`, `eval`, `graph`, `metrics`, `models`, `privacy` (non-test) | `thread_rng`/`rand::random`/`OsRng`, `Instant`/`SystemTime`, `HashMap`/`HashSet` |
//! | `epsilon-flow` | everywhere outside `privacy` + `core/src/*_dp.rs` | the ε-spending entry points `LaplaceMechanism`/`dp_degree_sequence`/`dp_triangle_count`/`sample_and_aggregate_distribution`/`sample_laplace`; `models` importing `agmdp_datasets` |
//! | `panic-freedom` | every file of `service` and `obs`, plus `graph/src/mmap.rs` | `.unwrap()`, `.expect()`, `panic!`/`todo!`, slice indexing |
//! | `hygiene` | everywhere outside the CLI, benches, tests | `println!`/`print!`, `dbg!` |
//!
//! No comment silences a finding. The only exemptions are the scopes in
//! [`policy`], and changing one is a reviewed edit of that module and its
//! tests.
//!
//! The CLI surface is `agmdp lint [--json]`; it exits nonzero on any finding
//! and the JSON output is stable (sorted, one finding per line) so CI can
//! diff two runs.
//!
//! # Example
//!
//! ```
//! use agmdp_analysis::{lint_source, LintFamily};
//!
//! let findings = lint_source(
//!     "crates/models/src/example.rs",
//!     "let rng = rand::thread_rng();\n",
//! );
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].family, LintFamily::Determinism);
//! assert_eq!(findings[0].rule, "ambient-rng");
//! ```

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod lints;
pub mod policy;
pub mod report;
pub mod strip;

pub use lints::lint_source;
pub use policy::{scope_for, Scope};
pub use report::{Finding, LintFamily, LintReport};

/// Failure to walk or read the workspace source tree.
#[derive(Debug)]
pub struct AnalysisError {
    /// The path being read when the error occurred.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub source: io::Error,
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot read {}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for AnalysisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Lints every first-party source file under `root` (the workspace root):
/// `src/**/*.rs` plus `crates/*/src/**/*.rs`, in sorted order. Vendored
/// code, tests, benches, and fixtures are never scanned.
///
/// A root with neither `src/` nor `crates/` is an error, not a clean
/// report: a mistyped root must not pass the lint by scanning nothing.
pub fn lint_workspace(root: &Path) -> Result<LintReport, AnalysisError> {
    let mut files = Vec::new();
    let cli_src = root.join("src");
    let crates_dir = root.join("crates");
    if !cli_src.is_dir() && !crates_dir.is_dir() {
        let source = io::Error::new(io::ErrorKind::NotFound, "no `src/` or `crates/` to lint");
        return Err(AnalysisError {
            path: root.to_path_buf(),
            source,
        });
    }
    if cli_src.is_dir() {
        collect_rs_files(&cli_src, &mut files)?;
    }
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
            .map_err(|source| AnalysisError {
                path: crates_dir.clone(),
                source,
            })?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .collect();
        crate_dirs.sort();
        for crate_dir in crate_dirs {
            let src = crate_dir.join("src");
            if src.is_dir() {
                collect_rs_files(&src, &mut files)?;
            }
        }
    }
    files.sort();

    let mut report = LintReport::default();
    for path in files {
        let rel = rel_path(root, &path);
        if scope_for(&rel).is_none() {
            continue;
        }
        let source = fs::read_to_string(&path).map_err(|source| AnalysisError {
            path: path.clone(),
            source,
        })?;
        report.files_scanned += 1;
        report.findings.extend(lint_source(&rel, &source));
    }
    report.finalize();
    Ok(report)
}

/// Workspace-relative path with forward slashes, as the policy table and
/// reports expect.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Recursively collects `.rs` files under `dir` in sorted order.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), AnalysisError> {
    let map_err = |source| AnalysisError {
        path: dir.to_path_buf(),
        source,
    };
    let mut entries: Vec<_> = fs::read_dir(dir)
        .map_err(map_err)?
        .collect::<Result<Vec<_>, _>>()
        .map_err(map_err)?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let file_type = entry.file_type().map_err(|source| AnalysisError {
            path: path.clone(),
            source,
        })?;
        if file_type.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_path_uses_forward_slashes() {
        let root = Path::new("/ws");
        let path = Path::new("/ws/crates/core/src/lib.rs");
        assert_eq!(rel_path(root, path), "crates/core/src/lib.rs");
    }

    #[test]
    fn missing_root_is_an_error() {
        let err = lint_workspace(Path::new("/nonexistent/agmdp-lint-test")).unwrap_err();
        assert_eq!(err.path, Path::new("/nonexistent/agmdp-lint-test"));
        assert_eq!(err.source.kind(), io::ErrorKind::NotFound);
    }
}
