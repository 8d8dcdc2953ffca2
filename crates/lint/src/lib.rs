//! Workspace invariant linter.
//!
//! `bns-lint` enforces the repo's concurrency and documentation invariants
//! as machine-checked rules with rustc-style `file:line` diagnostics. It is
//! deliberately *not* a Rust parser: a std-only line scanner with just
//! enough lexing to split each line into a **code part** and a **comment
//! part** (line, block, and doc comments; string/raw-string/char literals
//! are excluded from the code part) is fast, dependency-free, and
//! impossible to break with a toolchain upgrade.
//!
//! # Rules
//!
//! | rule | what it flags |
//! |------|---------------|
//! | `atomic-import` | `std::sync::atomic` / `core::sync::atomic` outside the `bns-sync` facade (`crates/sync/src/`) |
//! | `relaxed-justify` | `Ordering::Relaxed` without an `// ordering:` justification comment |
//! | `seqcst-ban` | any `Ordering::SeqCst` (a SeqCst that seems needed means the protocol is not understood) |
//! | `unsafe-safety` | `unsafe` without a `// SAFETY:` comment |
//! | `wall-clock` | `SystemTime` / `Instant::now` in the determinism-critical crates (`crates/core/src/`, `crates/model/src/`, `crates/data/src/`) and in the serve wire modules (`net.rs`, `proto.rs`, `metrics.rs`), which must observe time only at `lint:allow`-justified edge sites |
//! | `missing-docs` | a published crate root (`crates/*/src/lib.rs`) without `#![deny(missing_docs)]` |
//!
//! Justification markers (`ordering:`, `SAFETY:`) and the escape hatch
//! `lint:allow(<rule>)` are honored on the same line's comment or in the
//! contiguous comment block immediately above the flagged line.
//!
//! ```
//! use bns_lint::lint_source;
//!
//! let diags = lint_source("crates/x/src/a.rs", "let v = c.load(Ordering::Relaxed);\n");
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].rule, "relaxed-justify");
//! let clean = lint_source(
//!     "crates/x/src/a.rs",
//!     "// ordering: Relaxed — statistics only.\nlet v = c.load(Ordering::Relaxed);\n",
//! );
//! assert!(clean.is_empty());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding, formatted `path:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path of the offending file, relative to the linted root, with `/`
    /// separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (the `lint:allow(...)` key).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Directories never descended into: third-party code, build output, VCS
/// metadata, and the linter's own deliberately-bad test fixtures.
const SKIP_DIRS: [&str; 4] = ["vendor", "target", ".git", "fixtures"];

/// Crate roots exempt from the `missing-docs` rule: internal benchmark and
/// experiment harnesses, not published API surface.
const MISSING_DOCS_EXEMPT: [&str; 2] = ["crates/bench/src/lib.rs", "crates/experiments/src/lib.rs"];

/// Lints every `.rs` file under `root` (skipping `vendor/`, `target/`,
/// `.git/`, fixtures, and dot-directories) and
/// returns diagnostics ordered by path, then line.
pub fn lint_workspace(root: &Path) -> Vec<Diagnostic> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files);
    files.sort();
    let mut diags = Vec::new();
    for rel in files {
        let abs = root.join(&rel);
        let Ok(text) = std::fs::read_to_string(&abs) else {
            // Unreadable (permissions, non-UTF-8): ignore rather than fail
            // the whole lint run on a file rustc could not compile anyway.
            continue;
        };
        let rel_str = rel
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        diags.extend(lint_source(&rel_str, &text));
    }
    diags
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
}

/// One source line split into its code and comment parts.
#[derive(Debug, Default, Clone)]
struct SplitLine {
    code: String,
    comment: String,
}

/// Lints a single file's text. `relpath` must use `/` separators and be
/// relative to the workspace root (rule scoping keys off its prefix).
pub fn lint_source(relpath: &str, text: &str) -> Vec<Diagnostic> {
    let lines = split_lines(text);
    let mut diags = Vec::new();

    check_missing_docs(relpath, &lines, &mut diags);

    let in_facade = relpath.starts_with("crates/sync/src/");
    // The serve wire modules carry the ban too: protocol encoding, metric
    // structs, and the request path must stay clock-free so latency is
    // only observed at the network edge (one justified site in net.rs).
    let serve_wire = [
        "crates/serve/src/net.rs",
        "crates/serve/src/proto.rs",
        "crates/serve/src/metrics.rs",
    ]
    .contains(&relpath);
    let determinism_critical = relpath.starts_with("crates/core/src/")
        || relpath.starts_with("crates/model/src/")
        || relpath.starts_with("crates/data/src/")
        || serve_wire;

    for (i, line) in lines.iter().enumerate() {
        let lineno = i + 1;
        let code = line.code.as_str();

        if !in_facade
            && (code.contains("std::sync::atomic") || code.contains("core::sync::atomic"))
            && !allowed(&lines, i, "atomic-import")
        {
            diags.push(Diagnostic {
                path: relpath.to_string(),
                line: lineno,
                rule: "atomic-import",
                message: "raw atomics are only allowed inside the bns-sync facade; \
                          use its types (ClaimCursor, Generation, Counter, PoisonFlag) \
                          or add one there"
                    .to_string(),
            });
        }

        if code.contains("Ordering::Relaxed")
            && !has_marker(&lines, i, "ordering:")
            && !allowed(&lines, i, "relaxed-justify")
        {
            diags.push(Diagnostic {
                path: relpath.to_string(),
                line: lineno,
                rule: "relaxed-justify",
                message: "Ordering::Relaxed requires an `// ordering:` comment justifying \
                          why no synchronization is needed here"
                    .to_string(),
            });
        }

        if code.contains("Ordering::SeqCst") && !allowed(&lines, i, "seqcst-ban") {
            diags.push(Diagnostic {
                path: relpath.to_string(),
                line: lineno,
                rule: "seqcst-ban",
                message: "Ordering::SeqCst is banned: name the actual Acquire/Release \
                          protocol instead of reaching for total order"
                    .to_string(),
            });
        }

        if contains_word(code, "unsafe")
            && !has_marker(&lines, i, "SAFETY:")
            && !allowed(&lines, i, "unsafe-safety")
        {
            diags.push(Diagnostic {
                path: relpath.to_string(),
                line: lineno,
                rule: "unsafe-safety",
                message: "unsafe requires a `// SAFETY:` comment stating the invariant \
                          that makes it sound"
                    .to_string(),
            });
        }

        if determinism_critical
            && (code.contains("SystemTime") || code.contains("Instant::now"))
            && !allowed(&lines, i, "wall-clock")
        {
            diags.push(Diagnostic {
                path: relpath.to_string(),
                line: lineno,
                rule: "wall-clock",
                message: "wall-clock reads are banned here: bns-core/bns-model/bns-data \
                          must be reproducible from their seeds alone, and the serve wire \
                          modules observe time only at the network edge; keep timing in \
                          reporting layers or justify the edge site with lint:allow"
                    .to_string(),
            });
        }
    }
    diags
}

/// `missing-docs`: every published crate root must deny undocumented
/// public items.
fn check_missing_docs(relpath: &str, lines: &[SplitLine], diags: &mut Vec<Diagnostic>) {
    let is_crate_root = relpath.starts_with("crates/")
        && relpath.ends_with("/src/lib.rs")
        && relpath.matches('/').count() == 3;
    if !is_crate_root || MISSING_DOCS_EXEMPT.contains(&relpath) {
        return;
    }
    let has_attr = lines
        .iter()
        .any(|l| l.code.contains("#![deny(missing_docs)]"));
    let allowed_in_header = lines
        .iter()
        .take(10)
        .any(|l| l.comment.contains("lint:allow(missing-docs)"));
    if !has_attr && !allowed_in_header {
        diags.push(Diagnostic {
            path: relpath.to_string(),
            line: 1,
            rule: "missing-docs",
            message: "published crate roots must carry #![deny(missing_docs)]".to_string(),
        });
    }
}

/// Whether the flagged line carries `lint:allow(<rule>)` in its own
/// comment or the contiguous comment block above it.
fn allowed(lines: &[SplitLine], i: usize, rule: &str) -> bool {
    let needle = format!("lint:allow({rule})");
    has_marker(lines, i, &needle)
}

/// Looks for `needle` in line `i`'s comment, or in the contiguous run of
/// comment-only lines immediately above it (a blank or code line ends the
/// run).
fn has_marker(lines: &[SplitLine], i: usize, needle: &str) -> bool {
    if lines[i].comment.contains(needle) {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        if !l.code.trim().is_empty() || l.comment.trim().is_empty() {
            return false;
        }
        if l.comment.contains(needle) {
            return true;
        }
    }
    false
}

/// Substring match with identifier boundaries on both sides.
fn contains_word(haystack: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let pre_ok = start == 0
            || !haystack[..start]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let post_ok = end == haystack.len()
            || !haystack[end..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Cross-line lexer state.
enum LexState {
    Code,
    /// Inside nested `/* */` comments, with depth.
    Block(usize),
    /// Inside a `"…"` string literal.
    Str,
    /// Inside a raw string, closed by `"` + this many `#`.
    RawStr(usize),
}

/// Splits source text into per-line (code, comment) parts. String, raw
/// string, and char literal *contents* are dropped from the code part (a
/// single space marks their position); all comment flavors — `//`, `///`,
/// `//!`, and `/* */` — land in the comment part.
fn split_lines(text: &str) -> Vec<SplitLine> {
    let mut out = Vec::new();
    let mut state = LexState::Code;
    for raw_line in text.lines() {
        let chars: Vec<char> = raw_line.chars().collect();
        let mut line = SplitLine::default();
        let mut i = 0;
        let n = chars.len();
        while i < n {
            match state {
                LexState::Code => {
                    let c = chars[i];
                    if c == '/' && i + 1 < n && chars[i + 1] == '/' {
                        line.comment.push_str(&raw_line[byte_at(raw_line, i)..]);
                        i = n;
                    } else if c == '/' && i + 1 < n && chars[i + 1] == '*' {
                        state = LexState::Block(1);
                        i += 2;
                    } else if c == '"' {
                        line.code.push(' ');
                        state = LexState::Str;
                        i += 1;
                    } else if (c == 'r' || c == 'b') && !prev_is_ident(&line.code) {
                        if let Some((hashes, consumed)) = raw_string_open(&chars[i..]) {
                            line.code.push(' ');
                            state = LexState::RawStr(hashes);
                            i += consumed;
                        } else {
                            line.code.push(c);
                            i += 1;
                        }
                    } else if c == '\'' {
                        i += char_or_lifetime(&chars[i..], &mut line.code);
                    } else {
                        line.code.push(c);
                        i += 1;
                    }
                }
                LexState::Block(depth) => {
                    if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                        state = if depth == 1 {
                            LexState::Code
                        } else {
                            LexState::Block(depth - 1)
                        };
                        i += 2;
                    } else if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                        state = LexState::Block(depth + 1);
                        i += 2;
                    } else {
                        line.comment.push(chars[i]);
                        i += 1;
                    }
                }
                LexState::Str => {
                    if chars[i] == '\\' {
                        i += 2; // skip the escaped char (incl. \" and \\)
                    } else if chars[i] == '"' {
                        state = LexState::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                LexState::RawStr(hashes) => {
                    if chars[i] == '"' && closes_raw(&chars[i + 1..], hashes) {
                        state = LexState::Code;
                        i += 1 + hashes;
                    } else {
                        i += 1;
                    }
                }
            }
        }
        out.push(line);
    }
    out
}

/// Byte offset of char index `i` in `s` (for slicing the comment tail).
fn byte_at(s: &str, char_idx: usize) -> usize {
    s.char_indices()
        .nth(char_idx)
        .map(|(b, _)| b)
        .unwrap_or(s.len())
}

fn prev_is_ident(code: &str) -> bool {
    code.chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Matches `r"`, `r#"`, `br##"`, `b"` … at the head of `chars`; returns
/// (hash count, chars consumed through the opening quote).
fn raw_string_open(chars: &[char]) -> Option<(usize, usize)> {
    let mut i = 0;
    if chars[0] == 'b' {
        i = 1;
        if i < chars.len() && chars[i] == 'r' {
            i += 1;
        } else if i < chars.len() && chars[i] == '"' {
            return Some((0, i + 1)); // b"…": a plain byte string
        } else {
            return None;
        }
    } else if chars[0] == 'r' {
        i = 1;
    }
    let mut hashes = 0;
    while i < chars.len() && chars[i] == '#' {
        hashes += 1;
        i += 1;
    }
    // `r"` with zero hashes is still a raw string; `r`/`b` followed by
    // anything other than #*" was an identifier head.
    if i < chars.len() && chars[i] == '"' {
        Some((hashes, i + 1))
    } else {
        None
    }
}

fn closes_raw(rest: &[char], hashes: usize) -> bool {
    rest.len() >= hashes && rest[..hashes].iter().all(|&c| c == '#')
}

/// Consumes a `'…'` char literal (contents dropped) or passes a lifetime
/// tick through to the code part; returns chars consumed.
fn char_or_lifetime(chars: &[char], code: &mut String) -> usize {
    debug_assert_eq!(chars[0], '\'');
    if chars.len() >= 2 && chars[1] == '\\' {
        // Escaped char literal: consume through the closing quote.
        let mut i = 2;
        while i < chars.len() {
            if chars[i] == '\\' {
                i += 2;
                continue;
            }
            if chars[i] == '\'' {
                code.push(' ');
                return i + 1;
            }
            i += 1;
        }
        code.push(' ');
        return chars.len();
    }
    if chars.len() >= 3 && chars[2] == '\'' {
        code.push(' '); // 'x' char literal
        return 3;
    }
    code.push('\''); // lifetime tick: the following ident stays code
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitter_separates_line_comments() {
        let lines = split_lines("let x = 1; // trailing note\n// full comment\n");
        assert_eq!(lines[0].code.trim(), "let x = 1;");
        assert!(lines[0].comment.contains("trailing note"));
        assert!(lines[1].code.trim().is_empty());
        assert!(lines[1].comment.contains("full comment"));
    }

    #[test]
    fn splitter_drops_string_contents() {
        let lines = split_lines(r#"let s = "Ordering::SeqCst inside a string";"#);
        assert!(!lines[0].code.contains("SeqCst"));
        assert!(lines[0].code.contains("let s ="));
    }

    #[test]
    fn splitter_handles_raw_strings_and_multiline() {
        let text = "let s = r#\"Ordering::SeqCst\nstill \"inside\"#;\nlet y = 2;\n";
        let lines = split_lines(text);
        assert!(!lines[0].code.contains("SeqCst"));
        assert!(!lines[1].code.contains("still"));
        assert!(lines[2].code.contains("let y = 2;"));
    }

    #[test]
    fn splitter_handles_block_comments_and_nesting() {
        let text = "let a = 1; /* unsafe /* nested */ still comment */ let b = 2;\n";
        let lines = split_lines(text);
        assert!(lines[0].code.contains("let a = 1;"));
        assert!(lines[0].code.contains("let b = 2;"));
        assert!(!lines[0].code.contains("unsafe"));
        assert!(lines[0].comment.contains("still comment"));
    }

    #[test]
    fn splitter_distinguishes_char_literal_from_lifetime() {
        let lines = split_lines("fn f<'a>(x: &'a str) -> char { 'u' }\n");
        assert!(lines[0].code.contains("&'a str"));
        assert!(!lines[0].code.contains('u'), "char literal content dropped");
    }

    #[test]
    fn doc_comments_are_not_code() {
        let text = "/// Mentions Ordering::SeqCst and unsafe in prose.\nlet x = 1;\n";
        let diags = lint_source("crates/x/src/a.rs", text);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn relaxed_needs_justification_marker() {
        let bad = "let v = c.load(Ordering::Relaxed);\n";
        assert_eq!(lint_source("crates/x/src/a.rs", bad).len(), 1);
        let same_line = "let v = c.load(Ordering::Relaxed); // ordering: stats only\n";
        assert!(lint_source("crates/x/src/a.rs", same_line).is_empty());
        let above = "// ordering: stats only\nlet v = c.load(Ordering::Relaxed);\n";
        assert!(lint_source("crates/x/src/a.rs", above).is_empty());
        let gap = "// ordering: stats only\n\nlet v = c.load(Ordering::Relaxed);\n";
        assert_eq!(
            lint_source("crates/x/src/a.rs", gap).len(),
            1,
            "a blank line must break the justification block"
        );
    }

    #[test]
    fn lint_allow_suppresses_exactly_its_rule() {
        let text = "// lint:allow(seqcst-ban) — fixture\nlet v = c.load(Ordering::SeqCst);\n";
        assert!(lint_source("crates/x/src/a.rs", text).is_empty());
        let wrong = "// lint:allow(relaxed-justify)\nlet v = c.load(Ordering::SeqCst);\n";
        assert_eq!(lint_source("crates/x/src/a.rs", wrong).len(), 1);
    }

    #[test]
    fn atomic_import_exempts_facade() {
        let text = "use std::sync::atomic::AtomicU32;\n";
        assert_eq!(lint_source("crates/serve/src/engine.rs", text).len(), 1);
        assert!(lint_source("crates/sync/src/cell.rs", text).is_empty());
    }

    #[test]
    fn wall_clock_scoped_to_core_model_and_data() {
        let text = "let t = Instant::now();\n";
        assert_eq!(lint_source("crates/core/src/trainer.rs", text).len(), 1);
        assert_eq!(lint_source("crates/model/src/hogwild.rs", text).len(), 1);
        assert_eq!(lint_source("crates/data/src/synthetic.rs", text).len(), 1);
        assert!(lint_source("crates/serve/src/engine.rs", text).is_empty());
    }

    #[test]
    fn wall_clock_covers_the_serve_wire_modules() {
        let text = "let t = Instant::now();\n";
        for file in ["net.rs", "proto.rs", "metrics.rs"] {
            let path = format!("crates/serve/src/{file}");
            assert_eq!(lint_source(&path, text).len(), 1, "{path} must be covered");
        }
        // The justified edge site pattern used in net.rs stays clean.
        let edge = "// lint:allow(wall-clock): the network edge observes time\n\
                    let t = Instant::now();\n";
        assert!(lint_source("crates/serve/src/net.rs", edge).is_empty());
        // Engine/query/index stay exempt — they are timed by callers.
        assert!(lint_source("crates/serve/src/query.rs", text).is_empty());
    }

    #[test]
    fn unsafe_wants_safety_comment_with_word_boundary() {
        assert_eq!(lint_source("src/a.rs", "unsafe { ptr.read() }\n").len(), 1);
        assert!(lint_source(
            "src/a.rs",
            "// SAFETY: checked above\nunsafe { ptr.read() }\n"
        )
        .is_empty());
        assert!(
            lint_source("src/a.rs", "let unsafe_count = 1;\n").is_empty(),
            "identifier containing the word must not match"
        );
    }

    #[test]
    fn missing_docs_rule_scopes_to_crate_roots() {
        assert_eq!(
            lint_source("crates/newcrate/src/lib.rs", "pub fn f() {}\n").len(),
            1
        );
        assert!(lint_source(
            "crates/newcrate/src/lib.rs",
            "//! Docs.\n#![deny(missing_docs)]\npub fn f() {}\n"
        )
        .is_empty());
        // Not a crate root: module files and the workspace facade root.
        assert!(lint_source("crates/newcrate/src/util.rs", "pub fn f() {}\n").is_empty());
        assert!(lint_source("crates/bench/src/lib.rs", "pub fn f() {}\n").is_empty());
    }

    #[test]
    fn diagnostic_display_format() {
        let d = Diagnostic {
            path: "crates/x/src/a.rs".into(),
            line: 7,
            rule: "seqcst-ban",
            message: "nope".into(),
        };
        assert_eq!(d.to_string(), "crates/x/src/a.rs:7: seqcst-ban: nope");
    }
}
