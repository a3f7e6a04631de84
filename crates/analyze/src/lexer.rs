//! A lightweight Rust lexer: enough syntax awareness to scan library
//! sources for policy violations without a real parser.
//!
//! The environment has no registry access, so `syn` is not an option; the
//! rules in [`crate::rules`] only need three things a plain `grep` cannot
//! give them:
//!
//! 1. **Sanitized text** — the source with every comment, string literal,
//!    and char literal blanked to spaces (byte-for-byte same length, so
//!    offsets and line numbers survive). Doc examples full of `unwrap()`
//!    and prose mentioning `HashMap` stop producing findings.
//! 2. **Test regions** — the byte ranges of items under `#[cfg(test)]` /
//!    `#[test]`, where the panic/determinism/float policies do not apply.
//! 3. **Allow directives** — parsed `// ctk-allow(<rule>): <reason>`
//!    comments, the per-site escape hatch every rule honours.

use std::fmt;

/// One parsed `ctk-allow` directive.
#[derive(Debug, Clone)]
pub struct Allow {
    /// 1-based line the directive comment sits on.
    pub line: usize,
    /// Rule ids the directive suppresses (comma-separated in the source).
    pub rules: Vec<String>,
    /// The written justification (required).
    pub reason: String,
    /// Parse error, if the directive is malformed.
    pub malformed: Option<String>,
}

/// A source file after lexing (see module docs).
pub struct SourceFile {
    /// Sanitized source text; same length as the input.
    pub code: String,
    /// Byte offset where each 0-based line starts.
    line_starts: Vec<usize>,
    /// Per 0-based line: is it inside a `#[cfg(test)]`/`#[test]` item?
    test_lines: Vec<bool>,
    /// Every `ctk-allow` directive found in comments.
    pub allows: Vec<Allow>,
}

impl fmt::Debug for SourceFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SourceFile")
            .field("lines", &self.line_starts.len())
            .field("allows", &self.allows.len())
            .finish()
    }
}

impl SourceFile {
    /// Lexes one file.
    pub fn parse(source: &str) -> Self {
        let (code, allows) = sanitize(source);
        let line_starts = line_starts(&code);
        let test_lines = mark_test_lines(&code, &line_starts);
        Self {
            code,
            line_starts,
            test_lines,
            allows,
        }
    }

    /// 1-based line containing byte `offset`.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i, // insertion point = 1 + (line index containing it) - 1
        }
    }

    /// Is 1-based `line` inside a test-only region?
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_lines
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// Number of lines.
    pub fn num_lines(&self) -> usize {
        self.line_starts.len()
    }

    /// The sanitized text of 1-based `line`.
    pub fn code_line(&self, line: usize) -> &str {
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .map(|&e| e.saturating_sub(1)) // strip the newline
            .unwrap_or(self.code.len());
        &self.code[start..end.max(start)]
    }
}

fn line_starts(code: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, b) in code.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    if starts.last() == Some(&code.len()) && !code.is_empty() {
        starts.pop();
    }
    starts
}

/// Replaces comments, string literals, and char literals with spaces
/// (newlines preserved), collecting `ctk-allow` directives on the way.
fn sanitize(source: &str) -> (String, Vec<Allow>) {
    let bytes = source.as_bytes();
    let mut out = bytes.to_vec();
    let mut allows = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    // Blanks bytes [from, to) except newlines.
    fn blank(out: &mut [u8], from: usize, to: usize) {
        for b in &mut out[from..to] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    }

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                let text = &source[start..i];
                // Only plain `//` comments can carry directives; doc
                // comments (`///`, `//!`) are prose and may legitimately
                // *mention* the grammar without invoking it.
                let body = text.trim_start_matches('/');
                let is_doc = text.starts_with("///") || text.starts_with("//!");
                if !is_doc && body.trim_start().starts_with("ctk-allow") {
                    if let Some(allow) = parse_allow(text, line) {
                        allows.push(allow);
                    }
                }
                blank(&mut out, start, i);
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                blank(&mut out, start, i);
            }
            b'"' => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                blank(&mut out, start, i.min(bytes.len()));
            }
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                let start = i;
                // Skip the `r`/`br` prefix.
                i += if bytes[i] == b'b' { 2 } else { 1 };
                let mut hashes = 0usize;
                while i < bytes.len() && bytes[i] == b'#' {
                    hashes += 1;
                    i += 1;
                }
                i += 1; // opening quote
                let closer = {
                    let mut c = vec![b'"'];
                    c.extend(std::iter::repeat_n(b'#', hashes));
                    c
                };
                while i < bytes.len() {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i..].starts_with(&closer) {
                        i += closer.len();
                        break;
                    } else {
                        i += 1;
                    }
                }
                blank(&mut out, start, i.min(bytes.len()));
            }
            b'\'' => {
                // Char literal vs lifetime. `'\...'` and `'x'` are
                // literals; `'ident` (no closing quote in reach) is a
                // lifetime.
                if i + 1 < bytes.len() && bytes[i + 1] == b'\\' {
                    let start = i;
                    i += 2;
                    while i < bytes.len() && bytes[i] != b'\'' {
                        i += 1;
                    }
                    i = (i + 1).min(bytes.len());
                    blank(&mut out, start, i);
                } else if i + 2 < bytes.len() && bytes[i + 2] == b'\'' {
                    blank(&mut out, i, i + 3);
                    i += 3;
                } else {
                    i += 1; // lifetime tick: leave the identifier visible
                }
            }
            _ => i += 1,
        }
    }
    // The sanitizer only writes ASCII spaces over existing bytes, so the
    // result is valid UTF-8 whenever the input was (multi-byte chars are
    // either left intact or fully blanked byte-by-byte inside
    // comments/strings, which keeps byte count — and blanking every byte
    // of a multi-byte char yields plain spaces).
    let code = String::from_utf8_lossy(&out).into_owned();
    (code, allows)
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // r"..." | r#"..."# | br"..." | br#"..."# — and not part of an
    // identifier like `number` or `for`.
    if i > 0 && is_ident_byte(bytes[i - 1]) {
        return false;
    }
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
        if j >= bytes.len() || bytes[j] != b'r' {
            return false;
        }
    }
    if bytes[j] != b'r' {
        return false;
    }
    j += 1;
    while j < bytes.len() && bytes[j] == b'#' {
        j += 1;
    }
    j < bytes.len() && bytes[j] == b'"'
}

/// Is `b` an identifier byte (`[A-Za-z0-9_]`)?
pub fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Parses a `ctk-allow(<rule>[, <rule>...]): <reason>` directive out of a
/// line-comment's text, if present.
fn parse_allow(comment: &str, line: usize) -> Option<Allow> {
    let idx = comment.find("ctk-allow")?;
    let rest = &comment[idx + "ctk-allow".len()..];
    let malformed = |msg: &str| {
        Some(Allow {
            line,
            rules: Vec::new(),
            reason: String::new(),
            malformed: Some(msg.to_string()),
        })
    };
    let Some(rest) = rest.strip_prefix('(') else {
        return malformed("expected `ctk-allow(<rule>): <reason>`");
    };
    let Some(close) = rest.find(')') else {
        return malformed("unclosed `(` in ctk-allow directive");
    };
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return malformed("ctk-allow names no rule");
    }
    let after = rest[close + 1..].trim_start();
    let Some(reason) = after.strip_prefix(':') else {
        return malformed("ctk-allow requires `: <reason>` after the rule list");
    };
    let reason = reason.trim().to_string();
    if reason.is_empty() {
        return malformed("ctk-allow requires a non-empty reason");
    }
    Some(Allow {
        line,
        rules,
        reason,
        malformed: None,
    })
}

/// Marks every line belonging to a `#[cfg(test)]` / `#[test]` item body.
fn mark_test_lines(code: &str, line_starts: &[usize]) -> Vec<bool> {
    let bytes = code.as_bytes();
    let mut test = vec![false; line_starts.len()];
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'#' {
            i += 1;
            continue;
        }
        let attr_start = i;
        let Some((attr_text, attr_end)) = read_attribute(code, i) else {
            i += 1;
            continue;
        };
        i = attr_end;
        if !is_test_attribute(&attr_text) {
            continue;
        }
        // Scan past any further attributes to the item body.
        let mut j = attr_end;
        loop {
            j = skip_ws(code, j);
            if j < bytes.len() && bytes[j] == b'#' {
                match read_attribute(code, j) {
                    Some((_, e)) => j = e,
                    None => break,
                }
            } else {
                break;
            }
        }
        // Find the item's opening `{` (or terminating `;`) at top level.
        let mut depth = 0i32;
        let mut body_open = None;
        while j < bytes.len() {
            match bytes[j] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b'{' if depth == 0 => {
                    body_open = Some(j);
                    break;
                }
                b';' if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body_open else {
            // `mod tests;` style or end of file: mark just the item line.
            mark_range(&mut test, line_starts, attr_start, j.min(bytes.len()));
            i = j;
            continue;
        };
        // Matching close brace.
        let mut depth = 0i32;
        let mut k = open;
        while k < bytes.len() {
            match bytes[k] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        mark_range(&mut test, line_starts, attr_start, k.min(bytes.len()));
        i = attr_end;
    }
    test
}

fn mark_range(test: &mut [bool], line_starts: &[usize], from: usize, to: usize) {
    let first = match line_starts.binary_search(&from) {
        Ok(i) => i,
        Err(i) => i.saturating_sub(1),
    };
    let last = match line_starts.binary_search(&to) {
        Ok(i) => i,
        Err(i) => i.saturating_sub(1),
    };
    for t in test.iter_mut().take(last + 1).skip(first) {
        *t = true;
    }
}

/// Reads an attribute starting at `#`; returns its inner text (spaces
/// stripped) and the byte offset one past the closing `]`.
fn read_attribute(code: &str, at: usize) -> Option<(String, usize)> {
    let bytes = code.as_bytes();
    let mut i = skip_ws(code, at + 1);
    if i >= bytes.len() || bytes[i] != b'[' {
        return None;
    }
    let open = i;
    let mut depth = 0i32;
    while i < bytes.len() {
        match bytes[i] {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    let inner: String = code[open + 1..i]
                        .chars()
                        .filter(|c| !c.is_whitespace())
                        .collect();
                    return Some((inner, i + 1));
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Does a (whitespace-stripped) attribute body gate the item to tests?
fn is_test_attribute(attr: &str) -> bool {
    if attr == "test" {
        return true;
    }
    if !attr.starts_with("cfg(") {
        return false;
    }
    // `cfg(test)`, `cfg(all(test, ...))`, `cfg(any(test, ...))` — but not
    // `cfg(not(test))`, which gates *library* code.
    contains_token(attr, "test") && !attr.contains("not(test")
}

/// Whole-token containment check.
fn contains_token(haystack: &str, token: &str) -> bool {
    find_tokens(haystack, token).next().is_some()
}

/// Iterator over byte offsets where `token` occurs with identifier
/// boundaries on both sides (when the token edge is an identifier byte).
pub fn find_tokens<'a>(haystack: &'a str, token: &'a str) -> impl Iterator<Item = usize> + 'a {
    let h = haystack.as_bytes();
    let t = token.as_bytes();
    let check_left = t.first().map(|&b| is_ident_byte(b)).unwrap_or(false);
    let check_right = t.last().map(|&b| is_ident_byte(b)).unwrap_or(false);
    let mut from = 0usize;
    std::iter::from_fn(move || {
        while from + t.len() <= h.len() {
            match haystack[from..].find(token) {
                None => return None,
                Some(rel) => {
                    let at = from + rel;
                    from = at + 1;
                    let left_ok = !check_left || at == 0 || !is_ident_byte(h[at - 1]);
                    let right_ok =
                        !check_right || at + t.len() >= h.len() || !is_ident_byte(h[at + t.len()]);
                    if left_ok && right_ok {
                        return Some(at);
                    }
                }
            }
        }
        None
    })
}

/// First index >= `i` holding a non-whitespace byte.
pub fn skip_ws(code: &str, mut i: usize) -> usize {
    let b = code.as_bytes();
    while i < b.len() && b[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Given `i` at an opening `(`, returns the index one past the matching
/// `)`.
pub fn skip_balanced(code: &str, i: usize) -> Option<usize> {
    let b = code.as_bytes();
    if i >= b.len() || b[i] != b'(' {
        return None;
    }
    let mut depth = 0i32;
    let mut j = i;
    while j < b.len() {
        match b[j] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(j + 1);
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let src = "let x = \"unwrap()\"; // .unwrap() in comment\nlet y = 1;\n";
        let f = SourceFile::parse(src);
        assert!(!f.code.contains("unwrap"));
        assert!(f.code.contains("let y = 1;"));
        assert_eq!(f.code.len(), src.len());
    }

    #[test]
    fn raw_strings_and_chars() {
        let src = "let s = r#\"panic!(\"x\")\"#; let c = 'a'; let l: &'static str = \"todo!\";";
        let f = SourceFile::parse(src);
        assert!(!f.code.contains("panic!"));
        assert!(!f.code.contains("todo!"));
        assert!(f.code.contains("&'static str"));
    }

    #[test]
    fn doc_examples_do_not_leak() {
        let src = "//! let answer = crowd.ask(q).unwrap();\npub fn f() {}\n";
        let f = SourceFile::parse(src);
        assert!(!f.code.contains("unwrap"));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = "pub fn lib_code() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\npub fn more() {}\n";
        let f = SourceFile::parse(src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn cfg_not_test_is_library_code() {
        let src = "#[cfg(not(test))]\nfn shipped() { x.unwrap(); }\n";
        let f = SourceFile::parse(src);
        assert!(!f.is_test_line(2));
    }

    #[test]
    fn test_attr_functions_are_marked() {
        let src = "fn lib() {}\n#[test]\nfn check() {\n    boom();\n}\n";
        let f = SourceFile::parse(src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(4));
    }

    #[test]
    fn allow_directives_parse() {
        let src = "x.unwrap(); // ctk-allow(panic-unwrap): invariant: x checked above\n";
        let f = SourceFile::parse(src);
        assert_eq!(f.allows.len(), 1);
        let a = &f.allows[0];
        assert_eq!(a.line, 1);
        assert_eq!(a.rules, vec!["panic-unwrap".to_string()]);
        assert!(a.reason.contains("invariant"));
        assert!(a.malformed.is_none());
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let f = SourceFile::parse("// ctk-allow(panic-unwrap)\nx.unwrap();\n");
        assert_eq!(f.allows.len(), 1);
        assert!(f.allows[0].malformed.is_some());
    }

    #[test]
    fn multi_rule_allow() {
        let f = SourceFile::parse("// ctk-allow(a-rule, b-rule): one reason for both\n");
        assert_eq!(f.allows[0].rules.len(), 2);
    }

    #[test]
    fn token_boundaries() {
        assert!(contains_token("use std::collections::HashMap;", "HashMap"));
        assert!(!contains_token("MyHashMapLike", "HashMap"));
        assert!(contains_token("thread::spawn(f)", "thread::spawn"));
        assert!(!contains_token("unwrap_or(0)", "unwrap"));
    }

    #[test]
    fn balanced_paren_skipping() {
        let s = "partial_cmp(&(a + b)).unwrap()";
        let open = s.find('(').unwrap();
        let end = skip_balanced(s, open).unwrap();
        assert_eq!(&s[end..], ".unwrap()");
    }
}
