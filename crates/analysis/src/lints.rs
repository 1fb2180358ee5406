//! The rule engine: runs every in-scope lint family over one prepared file.
//!
//! All rules work on *stripped* text ([`crate::strip::prepare`]), so tokens
//! inside strings, comments, and doc-tests can never fire, and anything
//! gated behind a `test` attribute is skipped via
//! [`crate::strip::test_item_ranges`]. Every finding stands: the only way to
//! keep a construct out of a family is to keep the file out of its scope in
//! [`crate::policy`].

use std::collections::BTreeSet;

use crate::policy::{scope_for, Scope};
use crate::report::{Finding, LintFamily};
use crate::strip::{find_word, prepare, test_item_ranges};

/// Every way to spend ε: the one noise type, the mechanisms that draw
/// noise (the Ladder through either of its entry points), and the noise
/// type's crate-private raw draw (caught should it be re-exported).
const NOISE_ENTRY_POINTS: &[&str] = &[
    "LaplaceMechanism",
    "dp_degree_sequence",
    "dp_triangle_count",
    "ladder_triangle_count",
    "sample_and_aggregate_distribution",
    "sample_laplace",
];

/// Lints one source file. `rel_path` is workspace-relative with forward
/// slashes and selects the policy scope; files outside every scope return
/// no findings.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let Some(scope) = scope_for(rel_path) else {
        return Vec::new();
    };
    let stripped = prepare(source);
    let test_lines = test_line_set(&stripped);

    let mut findings = Vec::new();
    for (idx, text) in stripped.lines().enumerate() {
        let line = idx + 1;
        if test_lines.contains(&line) {
            continue;
        }
        scan_line(&scope, rel_path, line, text, &mut findings);
    }
    findings
}

/// 1-based line numbers covered by test-gated items.
fn test_line_set(stripped: &str) -> BTreeSet<usize> {
    let ranges = test_item_ranges(stripped);
    let mut set = BTreeSet::new();
    if ranges.is_empty() {
        return set;
    }
    let mut starts = vec![0usize];
    for (i, b) in stripped.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    // `partition_point` over line starts <= offset yields the 1-based line.
    let line_of = |off: usize| starts.partition_point(|&s| s <= off);
    for (s, e) in ranges {
        for line in line_of(s)..=line_of(e) {
            set.insert(line);
        }
    }
    set
}

/// Runs every in-scope rule over one stripped line.
fn scan_line(scope: &Scope, file: &str, line: usize, text: &str, findings: &mut Vec<Finding>) {
    let mut push =
        |family: LintFamily, rule: &'static str, column: usize, snippet: &str, message: String| {
            findings.push(Finding {
                family,
                rule,
                file: file.to_string(),
                line,
                column,
                message,
                snippet: snippet.to_string(),
            });
        };

    if scope.determinism {
        for tok in ["thread_rng", "from_entropy", "OsRng"] {
            each_word(text, tok, |at| {
                push(
                    LintFamily::Determinism,
                    "ambient-rng",
                    at + 1,
                    tok,
                    format!(
                        "ambient RNG `{tok}` breaks run-to-run determinism; derive RNGs from `derive_chunk_seed` or a caller-supplied seed"
                    ),
                );
            });
        }
        if let Some(at) = find_substring_token(text, "rand::random") {
            push(
                LintFamily::Determinism,
                "ambient-rng",
                at + 1,
                "rand::random",
                "ambient RNG `rand::random` breaks run-to-run determinism; derive RNGs from `derive_chunk_seed` or a caller-supplied seed".to_string(),
            );
        }
        for tok in ["Instant", "SystemTime"] {
            each_word(text, tok, |at| {
                push(
                    LintFamily::Determinism,
                    "wall-clock",
                    at + 1,
                    tok,
                    format!("wall-clock `{tok}` in deterministic code; thread timing must not influence output"),
                );
            });
        }
        for tok in ["HashMap", "HashSet"] {
            each_word(text, tok, |at| {
                push(
                    LintFamily::Determinism,
                    "hash-container",
                    at + 1,
                    tok,
                    format!("`{tok}` has nondeterministic iteration order; use BTreeMap/BTreeSet or sort before iterating"),
                );
            });
        }
    }

    if scope.epsilon_flow && !scope.noise_allowed {
        for &tok in NOISE_ENTRY_POINTS {
            each_word(text, tok, |at| {
                push(
                    LintFamily::EpsilonFlow,
                    "noise-primitive",
                    at + 1,
                    tok,
                    format!(
                        "noise primitive `{tok}` outside the privacy boundary; \u{3b5} may only be spent in `crates/privacy` and `core/src/*_dp.rs`"
                    ),
                );
            });
        }
    }
    if scope.models_crate {
        each_word(text, "agmdp_datasets", |at| {
            push(
                LintFamily::EpsilonFlow,
                "sensitive-import",
                at + 1,
                "agmdp_datasets",
                "`models` must not depend on `agmdp_datasets`; sensitive graphs are passed in by the caller".to_string(),
            );
        });
    }

    if scope.panic_freedom {
        for tok in ["unwrap", "expect"] {
            each_word(text, tok, |at| {
                if text[..at].trim_end().ends_with('.') {
                    push(
                        LintFamily::PanicFreedom,
                        // Same rule for both spellings: the fix is the same.
                        if tok == "unwrap" { "unwrap" } else { "expect" },
                        at + 1,
                        tok,
                        format!("`.{tok}()` can panic and kill a request worker; return a typed error instead"),
                    );
                }
            });
        }
        for tok in ["panic", "todo", "unimplemented"] {
            each_word(text, tok, |at| {
                if text.as_bytes().get(at + tok.len()) == Some(&b'!') {
                    push(
                        LintFamily::PanicFreedom,
                        "panic-macro",
                        at + 1,
                        tok,
                        format!(
                            "`{tok}!` in the request path; degrade with an error response instead"
                        ),
                    );
                }
            });
        }
        scan_slice_index(text, |at, snippet| {
            push(
                LintFamily::PanicFreedom,
                "slice-index",
                at + 1,
                snippet,
                "slice indexing can panic on out-of-bounds input; use `.get(..)` and handle `None`"
                    .to_string(),
            );
        });
    }

    if scope.hygiene {
        for tok in ["println", "print"] {
            each_word(text, tok, |at| {
                if text.as_bytes().get(at + tok.len()) == Some(&b'!') {
                    push(
                        LintFamily::Hygiene,
                        "stdout-print",
                        at + 1,
                        tok,
                        format!("`{tok}!` writes to stdout outside the CLI; return the value or use `eprintln!` for diagnostics"),
                    );
                }
            });
        }
        each_word(text, "dbg", |at| {
            if text.as_bytes().get(at + 3) == Some(&b'!') {
                push(
                    LintFamily::Hygiene,
                    "debug-print",
                    at + 1,
                    "dbg",
                    "`dbg!` left in committed code".to_string(),
                );
            }
        });
    }
}

/// Calls `f` with the byte offset of every identifier-bounded occurrence of
/// `word` in `text`.
fn each_word(text: &str, word: &str, mut f: impl FnMut(usize)) {
    let mut from = 0usize;
    while let Some(at) = find_word(&text[from..], word) {
        f(from + at);
        from = from + at + word.len();
    }
}

/// Finds a `::`-joined token like `rand::random` with identifier boundaries
/// on the outer ends.
fn find_substring_token(text: &str, token: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = text[from..].find(token) {
        let at = from + pos;
        let end = at + token.len();
        let before_ok = at == 0
            || !(bytes[at - 1].is_ascii_alphanumeric()
                || bytes[at - 1] == b'_'
                || bytes[at - 1] == b':');
        let after_ok =
            end >= bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// Keywords that can legally precede `[` without it being an index
/// expression (array literals, patterns, returns).
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "do", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "trait", "type", "unsafe", "use", "where", "while",
    "yield",
];

/// Heuristic index-expression detector: a `[` whose previous non-space
/// character ends a value (identifier, `)`, `]`, or `?`) is an index. Type
/// positions (`&[u8]`, `: [f64; 2]`), attributes (`#[...]`), macros
/// (`vec![...]`), and array literals after keywords are all excluded by the
/// preceding character.
fn scan_slice_index(text: &str, mut f: impl FnMut(usize, &str)) {
    for (i, b) in text.bytes().enumerate() {
        if b != b'[' {
            continue;
        }
        let before = text[..i].trim_end();
        let Some(prev) = before.chars().last() else {
            continue;
        };
        let is_index = if prev == ')' || prev == ']' || prev == '?' {
            true
        } else if prev.is_ascii_alphanumeric() || prev == '_' {
            let ident_start = before
                .char_indices()
                .rev()
                .take_while(|&(_, c)| c.is_ascii_alphanumeric() || c == '_')
                .last()
                .map(|(p, _)| p)
                .unwrap_or(before.len());
            // `&'a [u8]` is a type position: a lifetime, not an index base.
            !before[..ident_start].ends_with('\'') && !KEYWORDS.contains(&&before[ident_start..])
        } else {
            false
        };
        if is_index {
            let snippet_start = text[..i]
                .char_indices()
                .rev()
                .take_while(|&(_, c)| c.is_ascii_alphanumeric() || c == '_' || c == '.')
                .last()
                .map(|(p, _)| p)
                .unwrap_or(i);
            f(i, &text[snippet_start..=i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(findings: &[Finding]) -> Vec<(&'static str, usize)> {
        findings.iter().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn determinism_rules_fire_in_deterministic_crates_only() {
        let src =
            "use std::collections::HashMap;\nlet r = thread_rng();\nlet t = Instant::now();\n";
        let fired = lint_source("crates/models/src/x.rs", src);
        assert_eq!(
            names(&fired),
            vec![("hash-container", 1), ("ambient-rng", 2), ("wall-clock", 3)]
        );
        assert!(lint_source("crates/service/src/ledger.rs", src).is_empty());
    }

    #[test]
    fn strings_comments_and_tests_do_not_fire() {
        let src = "let s = \"thread_rng\"; // thread_rng in prose\n#[cfg(test)]\nmod tests {\n    fn f() { let r = thread_rng(); }\n}\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn noise_primitives_respect_the_privacy_boundary() {
        let src = "let z = sample_laplace(&mut rng, scale);\n";
        assert!(lint_source("crates/privacy/src/laplace.rs", src).is_empty());
        assert!(lint_source("crates/core/src/degree_dp.rs", src).is_empty());
        assert_eq!(
            names(&lint_source("crates/models/src/x.rs", src)),
            vec![("noise-primitive", 1)]
        );
        assert_eq!(
            names(&lint_source("src/commands.rs", src)),
            vec![("noise-primitive", 1)]
        );
    }

    /// A rule that names a function nobody defines checks nothing.
    #[test]
    fn noise_entry_points_are_defined_in_the_privacy_crate() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = Vec::new();
        crate::collect_rs_files(&root.join("crates/privacy/src"), &mut files).unwrap();
        let mut all = String::new();
        for path in files {
            all += &std::fs::read_to_string(path).unwrap();
        }
        for name in NOISE_ENTRY_POINTS {
            let defined =
                all.contains(&format!("fn {name}<")) || all.contains(&format!("struct {name} "));
            assert!(defined, "`{name}` is not defined under crates/privacy/src");
        }
    }

    #[test]
    fn panic_freedom_covers_unwrap_expect_macros_and_indexing() {
        let src = "let a = x.unwrap();\nlet b = y.expect(\"msg\");\npanic!(\"boom\");\nlet c = buf[i];\nlet d: &[u8] = &buf;\nlet e = [1, 2, 3];\nreturn [0; 4];\nstruct S<'a> { bytes: &'a [u8] }\n";
        let fired = lint_source("crates/service/src/server.rs", src);
        assert_eq!(
            names(&fired),
            vec![
                ("unwrap", 1),
                ("expect", 2),
                ("panic-macro", 3),
                ("slice-index", 4)
            ]
        );
        // The budget ledger is held to the same rules; outside the panic-free
        // crates the same code is fine.
        assert_eq!(
            names(&lint_source("crates/service/src/ledger.rs", src)),
            names(&fired)
        );
        assert!(lint_source("crates/graph/src/io.rs", src).is_empty());
    }

    #[test]
    fn method_position_is_required_for_unwrap_expect() {
        let src = "fn expect_byte(&mut self) {}\nlet unwrap = 1;\nself.expect_byte();\n";
        assert!(lint_source("crates/service/src/json.rs", src).is_empty());
    }

    #[test]
    fn hygiene_fires_outside_cli_and_bench() {
        let src = "println!(\"x\");\ndbg!(v);\neprintln!(\"log\");\n";
        let fired = lint_source("crates/graph/src/x.rs", src);
        assert_eq!(names(&fired), vec![("stdout-print", 1), ("debug-print", 2)]);
        assert!(lint_source("src/main.rs", src).is_empty());
        assert!(lint_source("crates/bench/src/report.rs", src).is_empty());
    }

    #[test]
    fn sensitive_import_fires_only_in_models() {
        let src = "use agmdp_datasets::load_graph;\n";
        assert_eq!(
            names(&lint_source("crates/models/src/x.rs", src)),
            vec![("sensitive-import", 1)]
        );
        assert!(lint_source("crates/eval/src/x.rs", src).is_empty());
    }

    #[test]
    fn rand_random_path_form_is_caught() {
        let src = "let x: f64 = rand::random();\n";
        assert_eq!(
            names(&lint_source("crates/graph/src/x.rs", src)),
            vec![("ambient-rng", 1)]
        );
    }
}
