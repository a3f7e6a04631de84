//! Workspace walking, scope classification, allowlist filtering, and the
//! lint wall — everything between the rule registry and the CLI.
//!
//! Scope policy (calibrated against this tree, documented in DESIGN.md
//! §11):
//!
//! * **Result-affecting crates** — `ctk-prob`, `ctk-rank`, `ctk-tpo`,
//!   `ctk-crowd`, `ctk-quality`, `ctk-datagen`, `ctk-core`,
//!   `ctk-service`, and the facade `src/` — get every rule family: a
//!   wrong iteration order or a stray panic in any of them changes or
//!   kills a top-K verdict.
//! * **`ctk-analyze` itself** — panic rules only: the tool must not crash
//!   on arbitrary source, but it handles no floats and spawns no threads.
//! * **`ctk-bench`** — exempt from per-file rules (a diagnostics harness
//!   that *should* read clocks and core counts) but inside the lint wall.
//! * **`shims/`** — stand-ins for external crates; never analyzed.
//! * Test code (`#[cfg(test)]` / `#[test]` regions) is exempt everywhere,
//!   as are `tests/`, `benches/`, `examples/`, and `src/bin` trees.
//!
//! One file-level blessing exists: `crates/service/src/metrics.rs` may
//! read the wall clock (it is the metrics sink). The one core-count read,
//! ctk-service's cached accessor, carries its own `ctk-allow`.

use crate::lexer::SourceFile;
use crate::rules::{known_rule, missing_lint_wall, scan, Finding, RuleSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose library code is result-affecting (full rule coverage).
pub const RESULT_AFFECTING_CRATES: &[&str] = &[
    "prob", "rank", "tpo", "crowd", "quality", "datagen", "core", "service",
];

/// Crate roots inside the lint wall, as paths relative to the workspace
/// root. The facade's root is `src/lib.rs`.
pub const LINT_WALL_ROOTS: &[&str] = &[
    "src/lib.rs",
    "crates/prob/src/lib.rs",
    "crates/rank/src/lib.rs",
    "crates/tpo/src/lib.rs",
    "crates/crowd/src/lib.rs",
    "crates/quality/src/lib.rs",
    "crates/datagen/src/lib.rs",
    "crates/core/src/lib.rs",
    "crates/service/src/lib.rs",
    "crates/bench/src/lib.rs",
    "crates/analyze/src/lib.rs",
];

/// A finding located in a file.
#[derive(Debug, Clone)]
pub struct FileFinding {
    /// Path relative to the workspace root (unix separators).
    pub path: String,
    /// The diagnostic.
    pub finding: Finding,
}

impl FileFinding {
    /// `path:line: [rule] message` — the CLI output format.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.path, self.finding.line, self.finding.rule, self.finding.message
        )
    }
}

/// Which rule families apply to the file at workspace-relative `path`.
fn rule_set_for(path: &str) -> RuleSet {
    let mut rs = RuleSet::default();
    // Only library sources are in scope; integration tests, benches,
    // examples, and binaries are not result-affecting.
    let in_aux_tree = path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
        || path.contains("/bin/")
        || path.starts_with("tests/")
        || path.starts_with("benches/")
        || path.starts_with("examples/");
    if in_aux_tree || path.starts_with("shims/") {
        return rs;
    }
    let result_affecting = path.starts_with("src/")
        || RESULT_AFFECTING_CRATES
            .iter()
            .any(|c| path.starts_with(&format!("crates/{c}/src/")));
    if result_affecting {
        rs.determinism = true;
        rs.float = true;
        rs.panic = true;
        rs.bless_wall_clock = path == "crates/service/src/metrics.rs";
    } else if path.starts_with("crates/analyze/src/") {
        rs.panic = true;
    }
    rs
}

/// Analyzes one file's source as if it lived at workspace-relative
/// `path`. Applies `ctk-allow` filtering; reports meta findings
/// (`allow-syntax`, `unused-allow`) alongside rule findings.
pub fn analyze_source(path: &str, source: &str) -> Vec<FileFinding> {
    let rules = rule_set_for(path);
    let file = SourceFile::parse(source);
    let raw = scan(&file, rules);
    let mut out: Vec<FileFinding> = Vec::new();
    let mut used = vec![false; file.allows.len()];

    // A directive on a comment-only line covers the next line; a trailing
    // directive covers its own line.
    let standalone =
        |line: usize| line <= file.num_lines() && file.code_line(line).trim().is_empty();
    for f in raw {
        let suppressed = file.allows.iter().enumerate().any(|(i, a)| {
            let covered = if standalone(a.line) {
                a.line + 1 == f.line
            } else {
                a.line == f.line
            };
            let applies = a.malformed.is_none() && covered && a.rules.iter().any(|r| r == f.rule);
            if applies {
                used[i] = true;
            }
            applies
        });
        if !suppressed {
            out.push(FileFinding {
                path: path.to_string(),
                finding: f,
            });
        }
    }

    for (i, a) in file.allows.iter().enumerate() {
        if file.is_test_line(a.line) {
            continue; // test code is out of scope, directives there inert
        }
        if let Some(msg) = &a.malformed {
            out.push(FileFinding {
                path: path.to_string(),
                finding: Finding {
                    rule: "allow-syntax",
                    line: a.line,
                    message: msg.clone(),
                },
            });
            continue;
        }
        for r in &a.rules {
            if !known_rule(r) {
                out.push(FileFinding {
                    path: path.to_string(),
                    finding: Finding {
                        rule: "allow-syntax",
                        line: a.line,
                        message: format!(
                            "unknown rule `{r}` in ctk-allow (see `ctk-analyze rules`)"
                        ),
                    },
                });
            }
        }
        if !used[i] && a.rules.iter().all(|r| known_rule(r)) {
            out.push(FileFinding {
                path: path.to_string(),
                finding: Finding {
                    rule: "unused-allow",
                    line: a.line,
                    message: format!(
                        "ctk-allow({}) suppressed nothing — remove it or move it next to \
                         the finding it excuses",
                        a.rules.join(", ")
                    ),
                },
            });
        }
    }
    out.sort_by(|a, b| (a.finding.line, a.finding.rule).cmp(&(b.finding.line, b.finding.rule)));
    out
}

/// Runs the whole check over the workspace at `root`.
pub fn check_workspace(root: &Path) -> Result<Vec<FileFinding>, String> {
    let mut findings = Vec::new();

    // Per-file rules over every library source tree.
    let mut files: Vec<PathBuf> = Vec::new();
    let src_roots: Vec<PathBuf> = std::iter::once(root.join("src"))
        .chain(
            list_dir(&root.join("crates"))?
                .into_iter()
                .map(|c| c.join("src")),
        )
        .collect();
    for dir in src_roots {
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    for file in &files {
        let rel = rel_path(root, file);
        let source = fs::read_to_string(file)
            .map_err(|e| format!("failed to read {}: {e}", file.display()))?;
        findings.extend(analyze_source(&rel, &source));
    }

    // The lint wall over every crate root.
    for rel in LINT_WALL_ROOTS {
        let path = root.join(rel);
        let source = fs::read_to_string(&path)
            .map_err(|e| format!("failed to read crate root {}: {e}", path.display()))?;
        for missing in missing_lint_wall(&source) {
            findings.push(FileFinding {
                path: (*rel).to_string(),
                finding: Finding {
                    rule: "lint-wall",
                    line: 1,
                    message: format!("crate root is missing `{missing}`"),
                },
            });
        }
    }

    findings.sort_by(|a, b| {
        (a.path.as_str(), a.finding.line, a.finding.rule).cmp(&(
            b.path.as_str(),
            b.finding.line,
            b.finding.rule,
        ))
    });
    Ok(findings)
}

fn list_dir(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let entries =
        fs::read_dir(dir).map_err(|e| format!("failed to list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("failed to list {}: {e}", dir.display()))?;
        out.push(entry.path());
    }
    out.sort();
    Ok(out)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for path in list_dir(dir)? {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_classification() {
        assert!(rule_set_for("crates/tpo/src/worlds.rs").determinism);
        assert!(rule_set_for("crates/tpo/src/precision.rs").determinism);
        assert!(rule_set_for("crates/tpo/src/precision.rs").float);
        assert!(rule_set_for("crates/prob/src/bounds.rs").panic);
        assert!(rule_set_for("crates/quality/src/estimator.rs").determinism);
        assert!(rule_set_for("crates/quality/src/crowd.rs").panic);
        assert!(!rule_set_for("crates/quality/tests/x.rs").panic);
        assert!(rule_set_for("src/lib.rs").float);
        assert!(rule_set_for("crates/analyze/src/engine.rs").panic);
        assert!(!rule_set_for("crates/analyze/src/engine.rs").determinism);
        assert!(!rule_set_for("crates/bench/src/lib.rs").panic);
        assert!(!rule_set_for("crates/tpo/tests/proptests.rs").panic);
        assert!(!rule_set_for("crates/bench/src/bin/run_all.rs").determinism);
        assert!(!rule_set_for("shims/rand/src/lib.rs").panic);
        assert!(rule_set_for("crates/service/src/metrics.rs").bless_wall_clock);
        // The run loop is result-affecting library code: full
        // determinism + panic scope.
        assert!(rule_set_for("crates/service/src/service.rs").determinism);
        assert!(rule_set_for("crates/service/src/service.rs").panic);
        assert!(!rule_set_for("crates/service/src/service.rs").bless_wall_clock);
    }

    #[test]
    fn core_count_reads_are_findings_in_every_result_affecting_file() {
        // No file is blessed any more: the former accessor's home is
        // checked like every other file, and only a `ctk-allow` suppresses.
        let src = "fn cores() -> usize {\n    std::thread::available_parallelism().map_or(1, |n| n.get())\n}\n";
        for path in [
            "crates/prob/src/compare.rs",
            "crates/service/src/service.rs",
        ] {
            let out = analyze_source(path, src);
            assert_eq!(out.len(), 1, "{path}: {out:?}");
            assert_eq!(out[0].finding.rule, "det-available-parallelism");
        }
        let allowed = "fn cores() -> usize {\n    // ctk-allow(det-available-parallelism): the one cached read\n    std::thread::available_parallelism().map_or(1, |n| n.get())\n}\n";
        assert!(analyze_source("crates/service/src/service.rs", allowed).is_empty());
    }

    #[test]
    fn allow_suppresses_same_and_next_line() {
        let src = "fn f() {\n    // ctk-allow(panic-unwrap): invariant: non-empty by construction\n    x.unwrap();\n    y.unwrap(); // ctk-allow(panic-unwrap): checked above\n    z.unwrap();\n}\n";
        let out = analyze_source("crates/tpo/src/x.rs", src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].finding.line, 5);
    }

    #[test]
    fn unused_allow_is_reported() {
        let src = "// ctk-allow(panic-unwrap): nothing here needs it\nfn f() {}\n";
        let out = analyze_source("crates/tpo/src/x.rs", src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].finding.rule, "unused-allow");
    }

    #[test]
    fn unknown_rule_in_allow_is_reported() {
        let src = "// ctk-allow(no-such-rule): reason text\nfn f() {}\n";
        let out = analyze_source("crates/tpo/src/x.rs", src);
        assert!(
            out.iter().any(|f| f.finding.rule == "allow-syntax"),
            "{out:?}"
        );
    }

    #[test]
    fn malformed_allow_is_reported() {
        let src = "fn f() { x.unwrap() } // ctk-allow(panic-unwrap)\n";
        let out = analyze_source("crates/tpo/src/x.rs", src);
        assert!(out.iter().any(|f| f.finding.rule == "allow-syntax"));
        // The malformed directive must not suppress the finding.
        assert!(out.iter().any(|f| f.finding.rule == "panic-unwrap"));
    }
}
