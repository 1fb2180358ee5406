//! Finding and report types, plus the stable JSON renderer used by CI.
//!
//! The JSON is hand-rolled (this crate is dependency-free) and deliberately
//! boring: findings are sorted by `(file, line, column, family, rule)` and
//! printed one per line, so two runs over the same tree produce byte-identical
//! output and a CI diff of two reports is a diff of findings.

use std::fmt;

/// The four lint families, mirroring the policy table in
/// `docs/INVARIANTS.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintFamily {
    /// Ambient RNGs, wall clocks, and hash-ordered containers in the
    /// deterministic crates.
    Determinism,
    /// Noise primitives outside the privacy boundary, and sensitive-data
    /// imports into `models`.
    EpsilonFlow,
    /// Panicking constructs in the service request path.
    PanicFreedom,
    /// Stray debug output outside the CLI, benches, and tests.
    Hygiene,
}

impl LintFamily {
    /// The kebab-case name used in reports and docs.
    pub fn name(self) -> &'static str {
        match self {
            LintFamily::Determinism => "determinism",
            LintFamily::EpsilonFlow => "epsilon-flow",
            LintFamily::PanicFreedom => "panic-freedom",
            LintFamily::Hygiene => "hygiene",
        }
    }
}

impl fmt::Display for LintFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding. Every finding fails the lint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which family the finding belongs to.
    pub family: LintFamily,
    /// The specific rule within the family, e.g. `ambient-rng`.
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the offending token.
    pub column: usize,
    /// Short description of what fired and why it matters.
    pub message: String,
    /// The offending token or line excerpt.
    pub snippet: String,
}

impl Finding {
    fn sort_key(&self) -> (&str, usize, usize, LintFamily, &'static str) {
        (&self.file, self.line, self.column, self.family, self.rule)
    }
}

/// The result of linting a set of files.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// All findings; the tool exits nonzero if this is nonempty.
    pub findings: Vec<Finding>,
}

impl LintReport {
    /// Sorts findings into the stable report order. Call once after the last
    /// file is scanned; both renderers assume it.
    pub fn finalize(&mut self) {
        self.findings
            .sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    }

    /// Human-readable report, one finding per line plus a summary.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}:{}: [{}/{}] {} (error)\n",
                f.file, f.line, f.column, f.family, f.rule, f.message
            ));
        }
        out.push_str(&format!(
            "agmdp-lint: {} file(s) scanned, {} finding(s)\n",
            self.files_scanned,
            self.findings.len()
        ));
        out
    }

    /// Stable JSON for CI diffing: sorted findings, one per line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"version\": 2,\n  \"files_scanned\": {},\n  \"total\": {},\n  \"findings\": [",
            self.files_scanned,
            self.findings.len()
        ));
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"family\": {}", json_string(f.family.name())));
            out.push_str(&format!(", \"rule\": {}", json_string(f.rule)));
            out.push_str(&format!(", \"file\": {}", json_string(&f.file)));
            out.push_str(&format!(", \"line\": {}", f.line));
            out.push_str(&format!(", \"column\": {}", f.column));
            out.push_str(&format!(", \"message\": {}", json_string(&f.message)));
            out.push_str(&format!(", \"snippet\": {}", json_string(&f.snippet)));
            out.push('}');
        }
        if self.findings.is_empty() {
            out.push_str("]\n}\n");
        } else {
            out.push_str("\n  ]\n}\n");
        }
        out
    }
}

/// Escapes a string into a JSON string literal, quotes included.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, line: usize, column: usize) -> Finding {
        Finding {
            family: LintFamily::Hygiene,
            rule: "stdout-print",
            file: file.to_string(),
            line,
            column,
            message: "m".to_string(),
            snippet: "println!".to_string(),
        }
    }

    #[test]
    fn finalize_sorts_by_file_then_position() {
        let mut report = LintReport {
            files_scanned: 2,
            findings: vec![
                finding("b.rs", 1, 1),
                finding("a.rs", 9, 2),
                finding("a.rs", 9, 1),
            ],
        };
        report.finalize();
        let order: Vec<_> = report
            .findings
            .iter()
            .map(|f| (f.file.as_str(), f.line, f.column))
            .collect();
        assert_eq!(order, vec![("a.rs", 9, 1), ("a.rs", 9, 2), ("b.rs", 1, 1)]);
    }

    #[test]
    fn json_escapes_specials_and_is_one_finding_per_line() {
        let mut report = LintReport {
            files_scanned: 1,
            findings: vec![Finding {
                message: "quote \" slash \\ tab \t".to_string(),
                ..finding("a.rs", 1, 1)
            }],
        };
        report.finalize();
        let json = report.to_json();
        assert!(json.contains("\"quote \\\" slash \\\\ tab \\t\""));
        assert_eq!(
            json.lines()
                .filter(|l| l.trim_start().starts_with('{') && l.contains("family"))
                .count(),
            1
        );
    }

    #[test]
    fn empty_report_is_valid_json_shape() {
        let report = LintReport::default();
        let json = report.to_json();
        assert!(json.contains("\"version\": 2"));
        assert!(json.contains("\"findings\": []"));
    }
}
