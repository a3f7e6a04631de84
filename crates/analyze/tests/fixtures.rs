//! Fixture tests: every rule family has a positive fixture (each rule
//! fires), a negative fixture (the compliant idiom passes), and the
//! allowlist fixtures exercise suppression plus the meta rules. The
//! final test re-runs the whole analyzer over the shipped tree and
//! demands zero findings — the same gate CI runs via
//! `cargo run -p ctk-analyze -- check`.
#![forbid(unsafe_code)]
#![deny(warnings)]

use std::collections::BTreeSet;
use std::path::Path;

use ctk_analyze::{analyze_source, check_workspace, missing_lint_wall};

/// Fixtures are analyzed as if they lived in a result-affecting crate's
/// library tree, which puts every rule family in scope.
const VIRTUAL_PATH: &str = "crates/tpo/src/fixture.rs";

fn rules_hit(source: &str) -> BTreeSet<&'static str> {
    analyze_source(VIRTUAL_PATH, source)
        .into_iter()
        .map(|f| f.finding.rule)
        .collect()
}

#[test]
fn determinism_fixture_trips_every_determinism_rule() {
    let hit = rules_hit(include_str!("fixtures/determinism_bad.rs"));
    for rule in [
        "det-hash-collection",
        "det-thread-spawn",
        "det-available-parallelism",
        "det-wall-clock",
    ] {
        assert!(hit.contains(rule), "expected {rule} to fire, got {hit:?}");
    }
}

#[test]
fn deterministic_idioms_pass() {
    let out = analyze_source(VIRTUAL_PATH, include_str!("fixtures/determinism_ok.rs"));
    assert!(
        out.is_empty(),
        "BTreeMap/BTreeSet, prose mentions, string literals, and test-only \
         HashMaps must all pass: {out:?}"
    );
}

#[test]
fn float_fixture_trips_every_float_rule() {
    let hit = rules_hit(include_str!("fixtures/float_bad.rs"));
    for rule in ["float-eq", "float-partial-cmp-unwrap", "float-stable-sort"] {
        assert!(hit.contains(rule), "expected {rule} to fire, got {hit:?}");
    }
}

#[test]
fn float_fixture_reports_partial_cmp_not_panic() {
    // `.unwrap()`/`.expect(..)` terminating a partial_cmp chain is the
    // float finding, not a second panic finding on the same site.
    let hit = rules_hit(include_str!("fixtures/float_bad.rs"));
    assert!(!hit.contains("panic-unwrap"), "got {hit:?}");
}

#[test]
fn float_total_order_idioms_pass() {
    let out = analyze_source(VIRTUAL_PATH, include_str!("fixtures/float_ok.rs"));
    assert!(
        out.is_empty(),
        "total_cmp, tolerances, sort_unstable_*, and doc-fence examples \
         must all pass: {out:?}"
    );
}

#[test]
fn panic_fixture_trips_both_panic_rules() {
    let hit = rules_hit(include_str!("fixtures/panic_bad.rs"));
    for rule in ["panic-unwrap", "panic-macro"] {
        assert!(hit.contains(rule), "expected {rule} to fire, got {hit:?}");
    }
}

#[test]
fn error_returns_and_asserts_pass() {
    let out = analyze_source(VIRTUAL_PATH, include_str!("fixtures/panic_ok.rs"));
    assert!(
        out.is_empty(),
        "Result returns, assert!/debug_assert_*, and test-only unwraps \
         must all pass: {out:?}"
    );
}

#[test]
fn well_formed_allows_suppress_and_count_as_used() {
    let out = analyze_source(VIRTUAL_PATH, include_str!("fixtures/allow_ok.rs"));
    assert!(
        out.is_empty(),
        "standalone and trailing ctk-allow directives must suppress their \
         findings without tripping unused-allow: {out:?}"
    );
}

#[test]
fn broken_allows_report_and_do_not_suppress() {
    let out = analyze_source(VIRTUAL_PATH, include_str!("fixtures/allow_bad.rs"));
    let hit: BTreeSet<&str> = out.iter().map(|f| f.finding.rule).collect();
    // Reason-less and unknown-rule directives are both allow-syntax; a
    // directive that matches nothing is unused-allow.
    assert!(hit.contains("allow-syntax"), "got {out:?}");
    assert!(hit.contains("unused-allow"), "got {out:?}");
    // Neither broken directive may suppress the unwrap it sits beside.
    let panic_hits = out
        .iter()
        .filter(|f| f.finding.rule == "panic-unwrap")
        .count();
    assert_eq!(
        panic_hits, 2,
        "both unwrap sites must still be reported: {out:?}"
    );
}

#[test]
fn every_fixture_violation_is_nonempty() {
    // The acceptance bar: the analyzer must reject each violation
    // fixture outright (the CLI exits non-zero whenever findings are
    // non-empty).
    for (name, src) in [
        (
            "determinism_bad.rs",
            include_str!("fixtures/determinism_bad.rs"),
        ),
        ("float_bad.rs", include_str!("fixtures/float_bad.rs")),
        ("panic_bad.rs", include_str!("fixtures/panic_bad.rs")),
        ("allow_bad.rs", include_str!("fixtures/allow_bad.rs")),
    ] {
        assert!(
            !analyze_source(VIRTUAL_PATH, src).is_empty(),
            "{name} must produce findings"
        );
    }
}

#[test]
fn lint_wall_positive_and_negative() {
    assert!(missing_lint_wall(
        "#![forbid(unsafe_code)]\n#![deny(warnings)]\n//! docs\npub fn f() {}\n"
    )
    .is_empty());
    let missing = missing_lint_wall("//! docs\npub fn f() {}\n");
    assert_eq!(
        missing.len(),
        2,
        "both headers must be reported: {missing:?}"
    );
}

#[test]
fn fixtures_outside_library_scope_pass() {
    // The same violating source under tests/ is out of scope: fixture
    // and bench code may use HashMaps and unwraps freely.
    let src = include_str!("fixtures/determinism_bad.rs");
    let out = analyze_source("crates/tpo/tests/fixture.rs", src);
    assert!(out.is_empty(), "aux trees are exempt: {out:?}");
}

#[test]
fn shipped_tree_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root two levels above crates/analyze");
    let findings = check_workspace(root).expect("workspace walk succeeds");
    assert!(
        findings.is_empty(),
        "the shipped tree must pass its own analyzer:\n{}",
        findings
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
