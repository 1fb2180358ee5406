//! Fixture corpus for the four lint families.
//!
//! Each family has a firing fixture and a clean fixture; the JSON snapshot
//! locks the exact report (order, columns, escaping) the CI job diffs.
//! Fixtures live under `tests/fixtures/`, which the workspace walker never
//! scans — they are linted here with virtual workspace paths.

use agmdp_analysis::{lint_source, Finding, LintFamily, LintReport};

const DETERMINISM_BAD: &str = include_str!("fixtures/determinism_bad.rs");
const DETERMINISM_GOOD: &str = include_str!("fixtures/determinism_good.rs");
const EPSILON_BAD: &str = include_str!("fixtures/epsilon_bad.rs");
const EPSILON_GOOD: &str = include_str!("fixtures/epsilon_good.rs");
const PANIC_BAD: &str = include_str!("fixtures/panic_bad.rs");
const PANIC_GOOD: &str = include_str!("fixtures/panic_good.rs");
const HYGIENE_BAD: &str = include_str!("fixtures/hygiene_bad.rs");
const HYGIENE_GOOD: &str = include_str!("fixtures/hygiene_good.rs");
const OBS_EXPOSITION_BAD: &str = include_str!("fixtures/obs_exposition_bad.rs");
const OBS_EXPOSITION_GOOD: &str = include_str!("fixtures/obs_exposition_good.rs");
const STORAGE_PANIC_BAD: &str = include_str!("fixtures/storage_panic_bad.rs");
const STORAGE_PANIC_GOOD: &str = include_str!("fixtures/storage_panic_good.rs");
const WAIVER_GOOD: &str = include_str!("fixtures/waiver_good.rs");

fn rules(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn determinism_fires_on_bad_and_not_on_good() {
    let fired = lint_source("crates/models/src/fixture.rs", DETERMINISM_BAD);
    assert!(fired.iter().all(|f| f.family == LintFamily::Determinism));
    let fired_rules = rules(&fired);
    assert!(fired_rules.contains(&"ambient-rng"));
    assert!(fired_rules.contains(&"wall-clock"));
    assert!(fired_rules.contains(&"hash-container"));
    assert!(lint_source("crates/models/src/fixture.rs", DETERMINISM_GOOD).is_empty());
}

#[test]
fn epsilon_flow_fires_on_bad_and_not_inside_the_boundary() {
    let fired = lint_source("crates/models/src/fixture.rs", EPSILON_BAD);
    assert!(fired.iter().all(|f| f.family == LintFamily::EpsilonFlow));
    assert!(rules(&fired).contains(&"sensitive-import"));
    // Every ε-spending entry point fires anywhere outside the boundary ...
    let entry_points = [
        "LaplaceMechanism",
        "dp_degree_sequence",
        "dp_triangle_count",
        "sample_and_aggregate_distribution",
        "ladder_triangle_count",
        "sample_laplace",
    ];
    for path in [
        "crates/models/src/fixture.rs",
        "crates/eval/src/fixture.rs",
        "crates/core/src/workflow.rs",
        "src/main.rs",
    ] {
        let fired = lint_source(path, EPSILON_BAD);
        let noise = fired.iter().filter(|f| f.rule == "noise-primitive");
        assert_eq!(
            noise.map(|f| f.snippet.as_str()).collect::<Vec<_>>(),
            entry_points,
            "{path}"
        );
    }
    // ... and the identical calls are legal inside it.
    for path in [
        "crates/privacy/src/fixture.rs",
        "crates/core/src/correlations_dp.rs",
        "crates/core/src/node_dp.rs",
    ] {
        assert!(lint_source(path, EPSILON_GOOD).is_empty(), "{path}");
    }
}

#[test]
fn panic_freedom_fires_on_bad_and_not_on_good() {
    let fired = lint_source("crates/service/src/server.rs", PANIC_BAD);
    assert!(fired.iter().all(|f| f.family == LintFamily::PanicFreedom));
    assert_eq!(
        rules(&fired),
        vec!["unwrap", "slice-index", "panic-macro", "expect"]
    );
    assert!(lint_source("crates/service/src/server.rs", PANIC_GOOD).is_empty());
    // Every service file is held to the same rules, the budget ledger too;
    // outside the panic-free crates the same code is not panic-freedom scoped.
    assert_eq!(
        rules(&lint_source("crates/service/src/ledger.rs", PANIC_BAD)),
        rules(&fired)
    );
    assert!(lint_source("crates/core/src/workflow.rs", PANIC_BAD).is_empty());
}

#[test]
fn hygiene_fires_on_bad_and_not_on_good() {
    let fired = lint_source("crates/graph/src/fixture.rs", HYGIENE_BAD);
    assert!(fired.iter().all(|f| f.family == LintFamily::Hygiene));
    assert_eq!(rules(&fired), vec!["stdout-print", "debug-print"]);
    assert!(lint_source("crates/graph/src/fixture.rs", HYGIENE_GOOD).is_empty());
    // The CLI binary is allowed to print.
    assert!(lint_source("src/main.rs", HYGIENE_BAD).is_empty());
}

#[test]
fn obs_exposition_path_is_panic_freedom_scoped() {
    let fired = lint_source("crates/obs/src/registry.rs", OBS_EXPOSITION_BAD);
    let fired_rules = rules(&fired);
    assert!(fired_rules.contains(&"unwrap"), "{fired:?}");
    assert!(fired_rules.contains(&"slice-index"), "{fired:?}");
    assert!(fired_rules.contains(&"stdout-print"), "{fired:?}");
    assert!(lint_source("crates/obs/src/registry.rs", OBS_EXPOSITION_GOOD).is_empty());
    // Every obs file is on the exposition path, the crate root too.
    assert_eq!(
        rules(&lint_source("crates/obs/src/lib.rs", OBS_EXPOSITION_BAD)),
        fired_rules
    );
}

#[test]
fn storage_path_is_panic_freedom_scoped() {
    // The same fixture is linted as both storage-path files: the mmap loader
    // in the graph crate and the release store in the service crate.
    for path in ["crates/graph/src/mmap.rs", "crates/service/src/store.rs"] {
        let fired = lint_source(path, STORAGE_PANIC_BAD);
        assert!(fired.iter().all(|f| f.family == LintFamily::PanicFreedom));
        let fired_rules = rules(&fired);
        assert!(fired_rules.contains(&"slice-index"), "{path}: {fired:?}");
        assert!(fired_rules.contains(&"panic-macro"), "{path}: {fired:?}");
        assert!(fired_rules.contains(&"unwrap"), "{path}: {fired:?}");
        assert!(fired_rules.contains(&"expect"), "{path}: {fired:?}");
        assert!(lint_source(path, STORAGE_PANIC_GOOD).is_empty(), "{path}");
    }
    // The rest of the graph crate stays outside the panic-freedom policy:
    // the owned deserialiser may index freely after validation.
    assert!(lint_source("crates/graph/src/io.rs", STORAGE_PANIC_BAD).is_empty());
}

#[test]
fn comments_never_silence_a_finding() {
    // `agmdp: allow(...)` comments, trailing and on the line above, are
    // plain comments: both unwraps fire exactly as they do with every
    // comment removed.
    let fired = lint_source("crates/service/src/engine.rs", WAIVER_GOOD);
    assert_eq!(rules(&fired), vec!["unwrap", "unwrap"], "{fired:?}");
    assert_eq!(fired.iter().map(|f| f.line).collect::<Vec<_>>(), vec![7, 8]);
    let uncommented: Vec<&str> = WAIVER_GOOD
        .lines()
        .map(|line| line.split("//").next().unwrap_or_default())
        .collect();
    assert_eq!(
        lint_source("crates/service/src/engine.rs", &uncommented.join("\n")),
        fired
    );
}

#[test]
fn json_report_matches_snapshot() {
    let mut report = LintReport::default();
    for (path, source) in [
        ("crates/models/src/determinism_bad.rs", DETERMINISM_BAD),
        ("crates/models/src/epsilon_bad.rs", EPSILON_BAD),
        ("crates/service/src/server.rs", PANIC_BAD),
        ("crates/graph/src/hygiene_bad.rs", HYGIENE_BAD),
    ] {
        report.files_scanned += 1;
        report.findings.extend(lint_source(path, source));
    }
    report.finalize();
    let actual = report.to_json();
    let expected = include_str!("fixtures/report.json");
    if actual != expected {
        // Leave the actual output next to the snapshot for easy diffing.
        let out = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/report.actual.json"
        );
        let _ = std::fs::write(out, &actual);
        panic!("snapshot mismatch; actual report written to {out}");
    }
}

#[test]
fn json_report_is_stable_across_runs_and_insertion_orders() {
    let mut a = LintReport::default();
    let mut b = LintReport::default();
    let inputs = [
        ("crates/models/src/determinism_bad.rs", DETERMINISM_BAD),
        ("crates/service/src/server.rs", PANIC_BAD),
    ];
    for (path, source) in inputs {
        a.files_scanned += 1;
        a.findings.extend(lint_source(path, source));
    }
    for (path, source) in inputs.iter().rev() {
        b.files_scanned += 1;
        b.findings.extend(lint_source(path, source));
    }
    a.finalize();
    b.finalize();
    assert_eq!(a.to_json(), b.to_json());
}
