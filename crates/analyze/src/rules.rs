//! The rule registry: every invariant `ctk-analyze check` enforces.
//!
//! Rules are lexical checks over sanitized source (see [`crate::lexer`]),
//! calibrated against this workspace — each one encodes a policy the
//! paper's determinism contract depends on (DESIGN.md §11):
//!
//! | family | rule id | policy |
//! |--------|---------|--------|
//! | determinism | `det-hash-collection` | no `HashMap`/`HashSet` in result-affecting library code: iteration order is seeded per-process; use `BTreeMap`/`BTreeSet` or plan-ordered loops, or allowlist provably order-insensitive uses |
//! | determinism | `det-thread-spawn` | no ad-hoc `thread::spawn`/`thread::scope`/`thread::Builder`: fanout goes through ctk-service's `run_parallel` (per-item claims merged by item index), with its order-invariance argument written down in a `ctk-allow` reason |
//! | determinism | `det-available-parallelism` | `available_parallelism` only at ctk-service's one cached read (`default_threads`), which carries a `ctk-allow` |
//! | determinism | `det-wall-clock` | no `Instant::now`/`SystemTime::now` outside metrics code: wall-clock reads in result paths make replays diverge |
//! | float | `float-eq` | no `==`/`!=` against float values: exact equality is not total and rarely means what it says; compare via `total_cmp`, explicit tolerances, or allowlist exact-sentinel checks |
//! | float | `float-partial-cmp-unwrap` | no `partial_cmp(..).unwrap()`/`.expect(..)`: use the total-order comparator `f64::total_cmp` |
//! | float | `float-stable-sort` | stable `sort`/`sort_by`/`sort_by_key` flagged in result-affecting code: stability launders whatever pre-sort order the input had (often a hash map's); sort with `sort_unstable_*` over a *total* key instead |
//! | panic | `panic-unwrap` | no `.unwrap()`/`.expect(..)` in library code: return the crate's error type, or allowlist a written invariant |
//! | panic | `panic-macro` | no `panic!`/`todo!`/`unimplemented!` in library code |
//! | lint-wall | `lint-wall` | every crate root carries `#![forbid(unsafe_code)]` and `#![deny(warnings)]` |
//! | meta | `allow-syntax` | malformed or unknown-rule `ctk-allow` directives |
//! | meta | `unused-allow` | `ctk-allow` directives that suppress nothing |

use crate::lexer::{find_tokens, is_ident_byte, skip_balanced, skip_ws, SourceFile};

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (see the registry table in the module docs).
    pub rule: &'static str,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

/// Static description of a rule, for `ctk-analyze rules` and the docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule id, used in `ctk-allow(<id>)`.
    pub id: &'static str,
    /// Rule family.
    pub family: &'static str,
    /// One-line policy statement.
    pub summary: &'static str,
}

/// Every rule id the analyzer knows (the only ids `ctk-allow` accepts).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "det-hash-collection",
        family: "determinism",
        summary: "HashMap/HashSet in result-affecting library code (iteration order is \
                  per-process; use BTreeMap/BTreeSet or allowlist order-insensitive uses)",
    },
    RuleInfo {
        id: "det-thread-spawn",
        family: "determinism",
        summary: "thread::spawn/scope/Builder outside the run loop's run_parallel \
                  (allowlist requires an order-invariance argument)",
    },
    RuleInfo {
        id: "det-available-parallelism",
        family: "determinism",
        summary: "available_parallelism outside the service's cached accessor \
                  (allowlist requires a reason)",
    },
    RuleInfo {
        id: "det-wall-clock",
        family: "determinism",
        summary: "Instant::now/SystemTime::now outside metrics code",
    },
    RuleInfo {
        id: "float-eq",
        family: "float",
        summary: "==/!= on float values (compare via total_cmp or an explicit tolerance)",
    },
    RuleInfo {
        id: "float-partial-cmp-unwrap",
        family: "float",
        summary: "partial_cmp(..).unwrap()/.expect(..) (use the total-order comparator \
                  f64::total_cmp)",
    },
    RuleInfo {
        id: "float-stable-sort",
        family: "float",
        summary: "stable sort in result-affecting code (stability launders pre-sort order; \
                  use sort_unstable_* over a total key)",
    },
    RuleInfo {
        id: "panic-unwrap",
        family: "panic",
        summary: ".unwrap()/.expect(..) in library code (return the crate error type)",
    },
    RuleInfo {
        id: "panic-macro",
        family: "panic",
        summary: "panic!/todo!/unimplemented! in library code",
    },
    RuleInfo {
        id: "lint-wall",
        family: "lint-wall",
        summary: "crate root missing #![forbid(unsafe_code)] / #![deny(warnings)]",
    },
    RuleInfo {
        id: "allow-syntax",
        family: "meta",
        summary: "malformed ctk-allow directive (or unknown rule id)",
    },
    RuleInfo {
        id: "unused-allow",
        family: "meta",
        summary: "ctk-allow directive that suppressed no finding",
    },
];

/// Is `id` a registered rule id?
pub fn known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Which rule families apply to a file (decided by the engine from its
/// workspace location).
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleSet {
    /// Determinism family (hash collections, threads, wall clock).
    pub determinism: bool,
    /// Float-discipline family.
    pub float: bool,
    /// Panic-freedom family.
    pub panic: bool,
    /// File-level blessing: metrics module (wall-clock reads allowed).
    pub bless_wall_clock: bool,
}

/// Runs every applicable per-file rule over non-test lines.
///
/// Returned findings are deduplicated per `(rule, line)` and are **not**
/// yet filtered through `ctk-allow` directives — the engine does that so
/// it can also report unused allows.
pub fn scan(file: &SourceFile, rules: RuleSet) -> Vec<Finding> {
    let mut findings = Vec::new();
    if rules.panic {
        scan_panic_unwrap(file, &mut findings);
        scan_panic_macro(file, &mut findings);
    }
    if rules.float {
        scan_partial_cmp_unwrap(file, &mut findings);
        scan_float_eq(file, &mut findings);
        scan_stable_sort(file, &mut findings);
    }
    if rules.determinism {
        scan_hash_collections(file, &mut findings);
        scan_thread_spawn(file, &mut findings);
        scan_token_rule(
            file,
            "available_parallelism",
            "det-available-parallelism",
            "core-count read outside the service's cached default_threads(); thread \
             counts come from TopKService, never from the host",
            &mut findings,
        );
        if !rules.bless_wall_clock {
            scan_token_rule(
                file,
                "Instant::now",
                "det-wall-clock",
                "wall-clock read outside metrics code; results must not depend on time",
                &mut findings,
            );
            scan_token_rule(
                file,
                "SystemTime::now",
                "det-wall-clock",
                "wall-clock read outside metrics code; results must not depend on time",
                &mut findings,
            );
        }
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    findings
}

fn push(findings: &mut Vec<Finding>, rule: &'static str, line: usize, message: String) {
    findings.push(Finding {
        rule,
        line,
        message,
    });
}

/// `.unwrap()` / `.expect(` on non-test lines. `partial_cmp` chains are
/// reported by `float-partial-cmp-unwrap` instead (one finding per site).
fn scan_panic_unwrap(file: &SourceFile, findings: &mut Vec<Finding>) {
    for at in find_tokens(&file.code, ".unwrap") {
        let line = file.line_of(at);
        if file.is_test_line(line) || is_partial_cmp_chain(&file.code, at) {
            continue;
        }
        let after = skip_ws(&file.code, at + ".unwrap".len());
        if file.code[after..].starts_with('(') {
            push(
                findings,
                "panic-unwrap",
                line,
                ".unwrap() in library code: return the crate's error type or \
                 ctk-allow with the invariant that makes this infallible"
                    .to_string(),
            );
        }
    }
    for at in find_tokens(&file.code, ".expect") {
        let line = file.line_of(at);
        if file.is_test_line(line) || is_partial_cmp_chain(&file.code, at) {
            continue;
        }
        let after = skip_ws(&file.code, at + ".expect".len());
        if file.code[after..].starts_with('(') {
            push(
                findings,
                "panic-unwrap",
                line,
                ".expect(..) in library code: return the crate's error type or \
                 ctk-allow with the invariant that makes this infallible"
                    .to_string(),
            );
        }
    }
}

/// Does the `.unwrap`/`.expect` at `at` terminate a `partial_cmp(...)`
/// call chain?
fn is_partial_cmp_chain(code: &str, at: usize) -> bool {
    // Walk left over the `)` closing a call whose callee is partial_cmp.
    let b = code.as_bytes();
    let mut i = at;
    while i > 0 && b[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    if i == 0 || b[i - 1] != b')' {
        return false;
    }
    // Find the matching `(`.
    let mut depth = 0i32;
    let mut j = i - 1;
    loop {
        match b[j] {
            b')' => depth += 1,
            b'(' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        if j == 0 {
            return false;
        }
        j -= 1;
    }
    // The identifier immediately before `(`.
    let mut k = j;
    while k > 0 && b[k - 1].is_ascii_whitespace() {
        k -= 1;
    }
    let end = k;
    while k > 0 && is_ident_byte(b[k - 1]) {
        k -= 1;
    }
    &code[k..end] == "partial_cmp"
}

fn scan_panic_macro(file: &SourceFile, findings: &mut Vec<Finding>) {
    for tok in ["panic!", "todo!", "unimplemented!"] {
        for at in find_tokens(&file.code, tok) {
            let line = file.line_of(at);
            if file.is_test_line(line) {
                continue;
            }
            push(
                findings,
                "panic-macro",
                line,
                format!(
                    "`{tok}` in library code: return the crate's error type or ctk-allow \
                     with the invariant that makes this unreachable"
                ),
            );
        }
    }
}

fn scan_partial_cmp_unwrap(file: &SourceFile, findings: &mut Vec<Finding>) {
    for at in find_tokens(&file.code, "partial_cmp") {
        let line = file.line_of(at);
        if file.is_test_line(line) {
            continue;
        }
        let open = skip_ws(&file.code, at + "partial_cmp".len());
        if !file.code[open..].starts_with('(') {
            continue;
        }
        let Some(close) = skip_balanced(&file.code, open) else {
            continue;
        };
        let next = skip_ws(&file.code, close);
        let rest = &file.code[next..];
        if rest.starts_with(".unwrap") || rest.starts_with(".expect") {
            push(
                findings,
                "float-partial-cmp-unwrap",
                line,
                "partial_cmp(..).unwrap(): floats need the total-order comparator — \
                 use f64::total_cmp (ties by a discrete key for bit-stable sorts)"
                    .to_string(),
            );
        }
    }
}

/// `==` / `!=` with a float literal in either operand window.
fn scan_float_eq(file: &SourceFile, findings: &mut Vec<Finding>) {
    let b = file.code.as_bytes();
    for i in 0..b.len().saturating_sub(1) {
        let op = match (b[i], b[i + 1]) {
            (b'=', b'=') => "==",
            (b'!', b'=') => "!=",
            _ => continue,
        };
        // Exclude `===`(never valid), `<=`, `>=`, `=>`, `+=` family, `!==`.
        if i > 0 && matches!(b[i - 1], b'=' | b'!' | b'<' | b'>') {
            continue;
        }
        if i + 2 < b.len() && b[i + 2] == b'=' {
            continue;
        }
        let line = file.line_of(i);
        if file.is_test_line(line) {
            continue;
        }
        let code_line = file.code_line(line);
        let line_start = i - (file.code[..i].rfind('\n').map(|p| p + 1).unwrap_or(0));
        let (left, right) = operand_windows(code_line, line_start);
        if has_float_literal(left) || has_float_literal(right) {
            push(
                findings,
                "float-eq",
                line,
                format!(
                    "float `{op}` comparison: exact equality on floats is fragile — use \
                     total_cmp, an explicit tolerance, or ctk-allow an exact-sentinel check"
                ),
            );
        }
    }
}

/// The operand text to the left and right of the operator at `op_at`
/// (a column within `line`), clipped at expression boundaries.
fn operand_windows(line: &str, op_at: usize) -> (&str, &str) {
    let stop = |c: char| matches!(c, ',' | ';' | '{' | '}' | '&' | '|');
    let op_at = op_at.min(line.len());
    let left_start = line[..op_at].rfind(stop).map(|p| p + 1).unwrap_or(0);
    let right_end_rel = line[(op_at + 2).min(line.len())..]
        .find(stop)
        .unwrap_or(line.len() - (op_at + 2).min(line.len()));
    let right_start = (op_at + 2).min(line.len());
    (
        &line[left_start..op_at],
        &line[right_start..right_start + right_end_rel],
    )
}

/// Does `s` contain a float literal (`1.0`, `.5` excluded, `1e-7`, `1f64`)?
fn has_float_literal(s: &str) -> bool {
    let b = s.as_bytes();
    let mut i = 0usize;
    while i < b.len() {
        if b[i].is_ascii_digit() {
            let mut j = i;
            while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
                j += 1;
            }
            // Fractional part: `1.` or `1.5`, but not a range `1..` and
            // not a method call `1.max(..)`.
            if j < b.len() && b[j] == b'.' {
                let after = b.get(j + 1).copied();
                let is_range = after == Some(b'.');
                let is_method = after
                    .map(|c| c.is_ascii_alphabetic() || c == b'_')
                    .unwrap_or(false);
                if !is_range && !is_method {
                    return true;
                }
            }
            // Exponent: `1e9`, `2E-7`.
            if j < b.len() && (b[j] == b'e' || b[j] == b'E') {
                let mut k = j + 1;
                if k < b.len() && (b[k] == b'+' || b[k] == b'-') {
                    k += 1;
                }
                if k < b.len() && b[k].is_ascii_digit() {
                    return true;
                }
            }
            // Typed suffix: `1f64` / `1f32`.
            if s[j..].starts_with("f64") || s[j..].starts_with("f32") {
                return true;
            }
            i = j.max(i + 1);
        } else if is_ident_byte(b[i]) {
            // Skip identifiers wholesale so `x1`, `f64::NAN` digits, etc.
            // are not mistaken for numbers.
            while i < b.len() && is_ident_byte(b[i]) {
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    false
}

/// Stable `sort` family calls.
fn scan_stable_sort(file: &SourceFile, findings: &mut Vec<Finding>) {
    const STABLE: &[&str] = &["sort", "sort_by", "sort_by_key", "sort_by_cached_key"];
    let mut from = 0usize;
    while let Some(rel) = file.code[from..].find(".sort") {
        let at = from + rel;
        from = at + 1;
        let line = file.line_of(at);
        if file.is_test_line(line) {
            continue;
        }
        // Extract the full method name.
        let b = file.code.as_bytes();
        let mut j = at + 1;
        while j < b.len() && is_ident_byte(b[j]) {
            j += 1;
        }
        let name = &file.code[at + 1..j];
        if !STABLE.contains(&name) {
            continue;
        }
        let open = skip_ws(&file.code, j);
        if !file.code[open..].starts_with('(') {
            continue;
        }
        push(
            findings,
            "float-stable-sort",
            line,
            format!(
                "stable `.{name}(..)`: stability preserves whatever pre-sort order the \
                 input had — sort_unstable_* over a total key is deterministic by \
                 construction (ctk-allow if stability is semantically required)"
            ),
        );
    }
}

fn scan_hash_collections(file: &SourceFile, findings: &mut Vec<Finding>) {
    for tok in ["HashMap", "HashSet"] {
        for at in find_tokens(&file.code, tok) {
            let line = file.line_of(at);
            if file.is_test_line(line) {
                continue;
            }
            push(
                findings,
                "det-hash-collection",
                line,
                format!(
                    "`{tok}` in result-affecting library code: iteration order is seeded \
                     per-process — use BTreeMap/BTreeSet or plan-ordered iteration, or \
                     ctk-allow a provably order-insensitive use"
                ),
            );
        }
    }
}

fn scan_thread_spawn(file: &SourceFile, findings: &mut Vec<Finding>) {
    for tok in ["thread::spawn", "thread::scope", "thread::Builder"] {
        for at in find_tokens(&file.code, tok) {
            let line = file.line_of(at);
            if file.is_test_line(line) {
                continue;
            }
            push(
                findings,
                "det-thread-spawn",
                line,
                format!(
                    "`{tok}` outside run_parallel: fan out through the run loop's \
                     run_parallel, whose results merge in item order — ctk-allow \
                     with the invariance argument"
                ),
            );
        }
    }
}

fn scan_token_rule(
    file: &SourceFile,
    token: &str,
    rule: &'static str,
    message: &str,
    findings: &mut Vec<Finding>,
) {
    for at in find_tokens(&file.code, token) {
        let line = file.line_of(at);
        if file.is_test_line(line) {
            continue;
        }
        push(findings, rule, line, format!("`{token}`: {message}"));
    }
}

/// The two headers the lint wall requires of every crate root.
pub const LINT_WALL_HEADERS: &[&str] = &["#![forbid(unsafe_code)]", "#![deny(warnings)]"];

/// Which lint-wall headers are missing from a crate root's source.
pub fn missing_lint_wall(root_source: &str) -> Vec<&'static str> {
    let file = SourceFile::parse(root_source);
    let squashed: String = file.code.chars().filter(|c| !c.is_whitespace()).collect();
    LINT_WALL_HEADERS
        .iter()
        .filter(|h| {
            let want: String = h.chars().filter(|c| !c.is_whitespace()).collect();
            !squashed.contains(&want)
        })
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_all(src: &str) -> Vec<Finding> {
        let file = SourceFile::parse(src);
        scan(
            &file,
            RuleSet {
                determinism: true,
                float: true,
                panic: true,
                ..RuleSet::default()
            },
        )
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn unwrap_and_expect_flagged_once_each() {
        let f = scan_all("fn f() { x.unwrap(); y.expect(\"msg\"); }\n");
        assert_eq!(rules_of(&f), vec!["panic-unwrap"]); // same line dedup
        let f = scan_all("fn f() {\n x.unwrap();\n y.expect(\"m\");\n}\n");
        assert_eq!(rules_of(&f), vec!["panic-unwrap", "panic-unwrap"]);
    }

    #[test]
    fn unwrap_or_variants_pass() {
        let f =
            scan_all("fn f() { x.unwrap_or(0); x.unwrap_or_else(|| 1); x.unwrap_or_default(); }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn partial_cmp_unwrap_is_the_float_rule_not_panic() {
        let f = scan_all("fn f() { a.partial_cmp(&b).unwrap(); }\n");
        assert_eq!(rules_of(&f), vec!["float-partial-cmp-unwrap"]);
        let f = scan_all("fn f() { a.partial_cmp(&(b + c)).expect(\"finite\"); }\n");
        assert_eq!(rules_of(&f), vec!["float-partial-cmp-unwrap"]);
    }

    #[test]
    fn float_eq_heuristic() {
        assert_eq!(
            rules_of(&scan_all("fn f(w: f64) -> bool { w == 0.5 }\n")),
            vec!["float-eq"]
        );
        assert_eq!(
            rules_of(&scan_all("fn f(x: f64) -> bool { x != 1e-7 }\n")),
            vec!["float-eq"]
        );
        // Integer comparisons, range patterns, inequalities: fine.
        assert!(scan_all("fn f(n: usize) -> bool { n == 0 }\n").is_empty());
        assert!(scan_all("fn f(x: f64) -> bool { x <= 0.0 }\n").is_empty());
        assert!(scan_all("fn f(n: usize) -> bool { (0..10).contains(&n) && n == 3 }\n").is_empty());
    }

    #[test]
    fn stable_sort_flagged_unstable_passes() {
        assert_eq!(
            rules_of(&scan_all("fn f(v: &mut [u32]) { v.sort(); }\n")),
            vec!["float-stable-sort"]
        );
        assert_eq!(
            rules_of(&scan_all(
                "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.total_cmp(b)); }\n"
            )),
            vec!["float-stable-sort"]
        );
        assert!(scan_all("fn f(v: &mut [u32]) { v.sort_unstable(); }\n").is_empty());
        assert!(
            scan_all("fn f(v: &mut [f64]) { v.sort_unstable_by(f64::total_cmp); }\n").is_empty()
        );
    }

    #[test]
    fn hash_collections_and_threads() {
        assert_eq!(
            rules_of(&scan_all("use std::collections::HashMap;\n")),
            vec!["det-hash-collection"]
        );
        assert_eq!(
            rules_of(&scan_all("fn f() { std::thread::spawn(|| {}); }\n")),
            vec!["det-thread-spawn"]
        );
        assert_eq!(
            rules_of(&scan_all(
                "fn f() { std::thread::scope(|s| { let _ = s; }); }\n"
            )),
            vec!["det-thread-spawn"]
        );
    }

    #[test]
    fn wall_clock_and_parallelism() {
        assert_eq!(
            rules_of(&scan_all("fn f() { let _ = std::time::Instant::now(); }\n")),
            vec!["det-wall-clock"]
        );
        assert_eq!(
            rules_of(&scan_all(
                "fn f() { let _ = std::thread::available_parallelism(); }\n"
            )),
            vec!["det-available-parallelism"]
        );
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn t() { x.unwrap(); v.sort(); }\n}\n";
        assert!(scan_all(src).is_empty());
    }

    #[test]
    fn lint_wall_detection() {
        assert!(
            missing_lint_wall("#![forbid(unsafe_code)]\n#![deny(warnings)]\nfn f() {}\n")
                .is_empty()
        );
        assert_eq!(
            missing_lint_wall("//! docs\n#![forbid(unsafe_code)]\n"),
            vec!["#![deny(warnings)]"]
        );
        assert_eq!(missing_lint_wall("fn f() {}\n").len(), 2);
    }

    #[test]
    fn panic_macros() {
        assert_eq!(
            rules_of(&scan_all("fn f() { panic!(\"boom\"); }\n")),
            vec!["panic-macro"]
        );
        assert_eq!(
            rules_of(&scan_all("fn f() { todo!() }\n")),
            vec!["panic-macro"]
        );
        // assert!/debug_assert!/unreachable! are the sanctioned loud-failure
        // forms and pass.
        assert!(scan_all("fn f(x: usize) { assert!(x > 0); debug_assert!(x < 9); }\n").is_empty());
    }
}
