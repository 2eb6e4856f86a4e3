//! # copydet-audit
//!
//! In-tree static analysis for the copydetect workspace. Four repo-specific
//! lints that `rustc` and `clippy` cannot express, enforced over a
//! hand-rolled token scan (no `syn`, no network, no dependencies):
//!
//! * **no-panic** — the recovery-, wire- and hot-path-facing modules
//!   (all of `crates/{serve, detect, store, fusion, obs}/src`, plus
//!   `bayes::pair`, `index::shared_items` and `model::codec`) must not call
//!   `.unwrap()` / `.expect(..)`, invoke `panic!`-family macros, or
//!   index/slice with `[..]` outside `#[cfg(test)]` code. These modules
//!   parse whatever a crash or a remote peer left behind — or run inside
//!   every instrumented ingest/detect operation; every failure must surface
//!   as a typed error (or, for instrumentation, degrade silently).
//! * **lossy-cast** — the codec/format/wire/observability modules (all of
//!   `crates/serve/src` among them), plus the cross-shard merge
//!   (`detect::sharded`), must not use bare `as` integer
//!   casts; widths change via `try_from` (or the checked helpers in
//!   `copydet_model::codec`), so truncation is a typed error, not silence.
//! * **lock-rank** — every `Mutex`/`RwLock`/`RankedMutex`/`RankedRwLock`
//!   declaration in `crates/serve/src`, `crates/store/src` and
//!   `crates/obs/src` carries a `// lock-rank: N (name)` annotation, the
//!   registry is internally consistent (one rank per name), and the
//!   generated table in `DESIGN.md` §8 matches the code (regenerate with
//!   `--emit-ranks`).
//! * **lint-header** — every workspace crate's `lib.rs` opts into the
//!   agreed header: `#![forbid(unsafe_code)]`, `#![deny(unused_must_use)]`,
//!   `#![warn(missing_docs)]`.
//!
//! Findings can be waived inline with `// audit: allow(<lint>) — reason`
//! on the flagged line or up to three lines above it, or centrally in
//! `crates/audit/allowlist.txt` (`lint|path-suffix|line-substring`).
//!
//! Usage: `copydet-audit [--root PATH] [--deny] [--json] [--emit-ranks]`.
//! `--deny` exits nonzero when findings remain (the CI mode); `--json`
//! emits the report machine-readably; `--emit-ranks` rewrites the lock-rank
//! table in `DESIGN.md` from the annotations found in the tree.

#![forbid(unsafe_code)]
#![deny(unused_must_use)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

// ---------------------------------------------------------------------------
// Lexer: a line-accurate token scan that skips string/char literals and
// collects comments, which is exactly the precision the lints need.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokenKind {
    Ident,
    Punct,
}

#[derive(Debug, Clone)]
struct Token {
    line: usize,
    kind: TokenKind,
    text: String,
}

#[derive(Debug, Default)]
struct Lexed {
    tokens: Vec<Token>,
    /// Line number -> concatenated `//` comment text on that line.
    comments: BTreeMap<usize, String>,
    /// Inclusive line ranges covered by `#[cfg(test)]` / `#[test]` items.
    test_ranges: Vec<(usize, usize)>,
}

impl Lexed {
    fn in_test_code(&self, line: usize) -> bool {
        self.test_ranges.iter().any(|&(lo, hi)| lo <= line && line <= hi)
    }

    /// The comment on `line` or (for annotations that sit above the code
    /// they describe) up to `back` lines before it.
    fn comment_near(&self, line: usize, back: usize) -> impl Iterator<Item = &str> {
        let lo = line.saturating_sub(back);
        self.comments.range(lo..=line).map(|(_, text)| text.as_str())
    }
}

fn lex(source: &str) -> Lexed {
    let chars: Vec<char> = source.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0;
    let mut line = 1;
    let at = |i: usize| chars.get(i).copied().unwrap_or('\0');
    while i < chars.len() {
        let c = at(i);
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && at(i + 1) == '/' {
            let start = i + 2;
            while i < chars.len() && at(i) != '\n' {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            let text = text.trim_start_matches(['/', '!']).trim().to_owned();
            let entry = out.comments.entry(line).or_default();
            if !entry.is_empty() {
                entry.push(' ');
            }
            entry.push_str(&text);
        } else if c == '/' && at(i + 1) == '*' {
            // Block comments nest in Rust.
            let mut depth = 1;
            i += 2;
            while i < chars.len() && depth > 0 {
                if at(i) == '/' && at(i + 1) == '*' {
                    depth += 1;
                    i += 2;
                } else if at(i) == '*' && at(i + 1) == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    if at(i) == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
        } else if c == 'r'
            && (at(i + 1) == '"' || at(i + 1) == '#')
            && raw_string_len(&chars, i + 1).is_some()
        {
            let (len, newlines) = raw_string_len(&chars, i + 1).unwrap_or((0, 0));
            line += newlines;
            i += 1 + len;
        } else if c == 'b' && at(i + 1) == 'r' && raw_string_len(&chars, i + 2).is_some() {
            let (len, newlines) = raw_string_len(&chars, i + 2).unwrap_or((0, 0));
            line += newlines;
            i += 2 + len;
        } else if c == '"' || (c == 'b' && at(i + 1) == '"') {
            i += if c == 'b' { 2 } else { 1 };
            while i < chars.len() {
                match at(i) {
                    '\\' => i += 2,
                    '"' => {
                        i += 1;
                        break;
                    }
                    '\n' => {
                        line += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
        } else if c == '\'' || (c == 'b' && at(i + 1) == '\'') {
            let q = if c == 'b' { i + 1 } else { i };
            if at(q + 1) == '\\' {
                // Escaped char literal: skip to the closing quote.
                i = q + 2;
                while i < chars.len() && at(i) != '\'' {
                    i += 1;
                }
                i += 1;
            } else if at(q + 2) == '\'' {
                i = q + 3; // plain char literal 'x'
            } else {
                // A lifetime: consume the tick and the identifier after it.
                i = q + 1;
                while i < chars.len() && (at(i).is_alphanumeric() || at(i) == '_') {
                    i += 1;
                }
            }
        } else if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (at(i).is_alphanumeric() || at(i) == '_') {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            out.tokens.push(Token { line, kind: TokenKind::Ident, text });
        } else if c.is_ascii_digit() {
            while i < chars.len() && (at(i).is_alphanumeric() || at(i) == '_') {
                i += 1;
            }
            // Float constants: consume `.5` but never a `..` range.
            if at(i) == '.' && at(i + 1).is_ascii_digit() {
                i += 1;
                while i < chars.len() && (at(i).is_alphanumeric() || at(i) == '_') {
                    i += 1;
                }
            }
        } else {
            out.tokens.push(Token { line, kind: TokenKind::Punct, text: c.to_string() });
            i += 1;
        }
    }
    out.test_ranges = find_test_ranges(&out.tokens);
    out
}

/// If `chars[from..]` opens a raw string (`#*"`), its length from `from` to
/// just past the closing quote, plus the newline count inside.
fn raw_string_len(chars: &[char], from: usize) -> Option<(usize, usize)> {
    let mut i = from;
    let mut hashes = 0;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    if chars.get(i) != Some(&'"') {
        return None;
    }
    i += 1;
    let mut newlines = 0;
    while i < chars.len() {
        if chars[i] == '\n' {
            newlines += 1;
        }
        if chars[i] == '"'
            && chars[i + 1..].iter().take(hashes).filter(|&&c| c == '#').count() == hashes
        {
            return Some((i + 1 + hashes - from, newlines));
        }
        i += 1;
    }
    Some((chars.len() - from, newlines))
}

/// Line ranges of items marked `#[test]` or `#[cfg(test)]` (but not
/// `#[cfg(not(test))]`): the attribute line through the item's closing
/// brace (or its `;` for brace-less items).
fn find_test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text == "#" && tokens.get(i + 1).is_some_and(|t| t.text == "[") {
            let attr_line = tokens[i].line;
            // Collect the attribute's identifiers up to the matching `]`.
            let mut depth = 0;
            let mut j = i + 1;
            let mut idents = Vec::new();
            while j < tokens.len() {
                match (tokens[j].kind, tokens[j].text.as_str()) {
                    (TokenKind::Punct, "[") => depth += 1,
                    (TokenKind::Punct, "]") => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    (TokenKind::Ident, text) => idents.push(text.to_owned()),
                    _ => {}
                }
                j += 1;
            }
            let is_test_attr = idents.iter().any(|id| id == "test")
                && !idents.iter().any(|id| id == "not")
                && matches!(idents.first().map(String::as_str), Some("test" | "cfg"));
            if is_test_attr {
                ranges.push((attr_line, item_end_line(tokens, j + 1)));
                // Skip past the attribute so stacked attrs still scan.
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    ranges
}

/// The line where the item starting at token `from` ends: its matching
/// closing brace, or the `;` of a brace-less item.
fn item_end_line(tokens: &[Token], from: usize) -> usize {
    let mut depth = 0;
    let mut j = from;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return tokens[j].line;
                }
            }
            ";" if depth == 0 => return tokens[j].line,
            _ => {}
        }
        j += 1;
    }
    tokens.last().map_or(from, |t| t.line)
}

// ---------------------------------------------------------------------------
// Findings, waivers, allowlist.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Finding {
    lint: &'static str,
    path: String,
    line: usize,
    message: String,
}

#[derive(Debug, Default)]
struct Allowlist {
    /// `(lint, path-suffix, line-substring)` rows from `allowlist.txt`.
    rows: Vec<(String, String, String)>,
}

impl Allowlist {
    fn load(root: &Path) -> Self {
        let path = root.join("crates/audit/allowlist.txt");
        let Ok(text) = std::fs::read_to_string(path) else { return Self::default() };
        let mut rows = Vec::new();
        for raw in text.lines() {
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let mut parts = trimmed.splitn(3, '|');
            if let (Some(lint), Some(suffix), Some(needle)) =
                (parts.next(), parts.next(), parts.next())
            {
                rows.push((
                    lint.trim().to_owned(),
                    suffix.trim().to_owned(),
                    needle.trim().to_owned(),
                ));
            }
        }
        Self { rows }
    }

    fn waives(&self, finding: &Finding, source_line: &str) -> bool {
        self.rows.iter().any(|(lint, suffix, needle)| {
            lint == finding.lint
                && finding.path.ends_with(suffix.as_str())
                && source_line.contains(needle.as_str())
        })
    }
}

/// `// audit: allow(<lint>)` on the flagged line or up to three lines above.
fn inline_waived(lexed: &Lexed, line: usize, lint: &str) -> bool {
    let marker = format!("audit: allow({lint})");
    lexed.comment_near(line, 3).any(|comment| comment.contains(&marker))
}

// ---------------------------------------------------------------------------
// Lint scopes.
// ---------------------------------------------------------------------------

const LINT_NO_PANIC: &str = "no-panic";
const LINT_LOSSY_CAST: &str = "lossy-cast";
const LINT_LOCK_RANK: &str = "lock-rank";
const LINT_HEADER: &str = "lint-header";

/// The serving crate: every file under it parses network or crash input or
/// runs per request, so it is in the no-panic and lossy-cast scopes whole —
/// a file added or split there is covered without being listed.
const SERVE_SCOPE: &str = "crates/serve/src/";

/// Crates in the no-panic scope whole, like `SERVE_SCOPE`: the round, the
/// claim store, the vote and the observability layer run per request (the
/// last instruments ingest/detect/serve, so a panic in it takes the
/// instrumented operation down with it). A file leaves the scope only
/// through an `allowlist.txt` row with its reason.
const PANIC_CRATES: &[&str] =
    &["crates/detect/src/", "crates/store/src/", "crates/fusion/src/", "crates/obs/src/"];

/// Modules outside the whole-crate scopes that parse crash or network input
/// or run per request (the pair evidence every scan builds) — plus the
/// shared-item counts, which stay in scope after leaving the served path —
/// and must stay panic-free.
const PANIC_SCOPE: &[&str] =
    &["crates/bayes/src/pair.rs", "crates/index/src/shared_items.rs", "crates/model/src/codec.rs"];

/// Codec/format/wire modules outside `SERVE_SCOPE` — plus the cross-shard
/// merge, which folds evidence counts across id spaces, and the fixed-point
/// score type, which converts between `f64` and `i128` — where `as` integer
/// casts hide truncation.
const CAST_SCOPE: &[&str] = &[
    "crates/bayes/src/fixed.rs",
    "crates/model/src/codec.rs",
    "crates/store/src/format.rs",
    "crates/detect/src/sharded.rs",
    "crates/detect/src/topk.rs",
    "crates/obs/src/metrics.rs",
    "crates/obs/src/trace.rs",
    "crates/obs/src/event.rs",
    "crates/obs/src/health.rs",
];

fn in_lock_scope(path: &str) -> bool {
    path.starts_with("crates/serve/src/")
        || path.starts_with("crates/store/src/")
        || path.starts_with("crates/obs/src/")
        || path.starts_with("crates/detect/src/")
}

const INT_TYPES: &[&str] =
    &["u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize"];

const LOCK_TYPES: &[&str] = &["Mutex", "RwLock", "RankedMutex", "RankedRwLock"];

/// Keywords that can directly precede `[` without it being an index
/// expression (array patterns, array expressions, slice types).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "return", "ref", "mut", "else", "match", "move", "box", "const", "static", "dyn",
    "as", "await", "yield", "where", "impl", "fn", "pub", "use", "break", "continue", "loop",
    "while", "for", "if", "unsafe", "async", "type", "struct", "enum", "trait", "mod",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

// ---------------------------------------------------------------------------
// The per-file lint pass.
// ---------------------------------------------------------------------------

/// One `// lock-rank: N (name)` annotation attached to a lock declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RankSite {
    rank: u32,
    name: String,
    path: String,
}

fn parse_rank_annotation(comment: &str) -> Option<(u32, String)> {
    let rest = comment.split("lock-rank:").nth(1)?.trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    let rank: u32 = digits.parse().ok()?;
    let after = rest.get(digits.len()..)?.trim_start();
    let name = after.strip_prefix('(')?.split(')').next()?.trim();
    if name.is_empty() {
        return None;
    }
    Some((rank, name.to_owned()))
}

fn audit_source(
    rel: &str,
    source: &str,
    findings: &mut Vec<Finding>,
    registry: &mut Vec<RankSite>,
) {
    let lexed = lex(source);
    let lines: Vec<&str> = source.lines().collect();
    let mut push = |lint: &'static str, line: usize, message: String| {
        if lexed.in_test_code(line) || inline_waived(&lexed, line, lint) {
            return;
        }
        findings.push(Finding { lint, path: rel.to_owned(), line, message });
    };

    let tokens = &lexed.tokens;
    let in_serve_scope = rel.starts_with(SERVE_SCOPE);
    let in_panic_scope = in_serve_scope
        || PANIC_CRATES.iter().any(|scope| rel.starts_with(scope))
        || PANIC_SCOPE.contains(&rel);
    let in_cast_scope = in_serve_scope || CAST_SCOPE.contains(&rel);
    for (i, token) in tokens.iter().enumerate() {
        let prev = i.checked_sub(1).and_then(|p| tokens.get(p));
        let next = tokens.get(i + 1);
        if in_panic_scope && token.kind == TokenKind::Ident {
            if (token.text == "unwrap" || token.text == "expect")
                && prev.is_some_and(|p| p.text == ".")
            {
                push(
                    LINT_NO_PANIC,
                    token.line,
                    format!("`.{}(..)` can panic; return a typed error instead", token.text),
                );
            }
            if PANIC_MACROS.contains(&token.text.as_str()) && next.is_some_and(|n| n.text == "!") {
                push(
                    LINT_NO_PANIC,
                    token.line,
                    format!("`{}!` in a module that must fail with typed errors", token.text),
                );
            }
        }
        if in_panic_scope && token.kind == TokenKind::Punct && token.text == "[" {
            let indexes = prev.is_some_and(|p| match p.kind {
                TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&p.text.as_str()),
                TokenKind::Punct => p.text == ")" || p.text == "]",
            });
            if indexes {
                push(
                    LINT_NO_PANIC,
                    token.line,
                    "indexing/slicing with `[..]` can panic; use `.get(..)` or `split_at_checked`"
                        .to_owned(),
                );
            }
        }
        if in_cast_scope
            && token.kind == TokenKind::Ident
            && token.text == "as"
            && next
                .is_some_and(|n| n.kind == TokenKind::Ident && INT_TYPES.contains(&n.text.as_str()))
        {
            push(
                LINT_LOSSY_CAST,
                token.line,
                format!(
                    "bare `as {}` cast can truncate silently; use `try_from` or a checked helper",
                    next.map_or("", |n| n.text.as_str())
                ),
            );
        }
        if in_lock_scope(rel)
            && token.kind == TokenKind::Ident
            && LOCK_TYPES.contains(&token.text.as_str())
        {
            let is_decl = match next {
                Some(n) if n.text == "<" => true,
                Some(n) if n.text == ":" => tokens.get(i + 2).is_some_and(|t| t.text == ":"),
                _ => false,
            };
            if is_decl && !lexed.in_test_code(token.line) {
                let annotation = lexed.comment_near(token.line, 3).find_map(parse_rank_annotation);
                match annotation {
                    Some((rank, name)) => {
                        registry.push(RankSite { rank, name, path: rel.to_owned() });
                    }
                    None => {
                        let malformed =
                            lexed.comment_near(token.line, 3).any(|c| c.contains("lock-rank"));
                        let detail = if malformed {
                            "malformed `lock-rank:` annotation; expected `// lock-rank: N (name)`"
                        } else {
                            "lock declaration without a `// lock-rank: N (name)` annotation"
                        };
                        push(LINT_LOCK_RANK, token.line, format!("`{}` {detail}", token.text));
                    }
                }
            }
        }
    }

    // The header lint runs on crate roots only.
    if rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs")) {
        for header in
            ["#![forbid(unsafe_code)]", "#![deny(unused_must_use)]", "#![warn(missing_docs)]"]
        {
            if !lines.iter().any(|l| l.trim() == header) {
                push(LINT_HEADER, 1, format!("crate root is missing the agreed `{header}` header"));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Lock-rank registry consistency + the generated DESIGN.md table.
// ---------------------------------------------------------------------------

const TABLE_BEGIN: &str = "<!-- lock-rank-table:begin -->";
const TABLE_END: &str = "<!-- lock-rank-table:end -->";

/// Deduplicated `(rank, name) -> sorted declaring files` view of the
/// registry, with findings for conflicting assignments.
fn rank_table(
    registry: &[RankSite],
    findings: &mut Vec<Finding>,
) -> BTreeMap<(u32, String), Vec<String>> {
    let mut by_key: BTreeMap<(u32, String), Vec<String>> = BTreeMap::new();
    for site in registry {
        let files = by_key.entry((site.rank, site.name.clone())).or_default();
        if !files.contains(&site.path) {
            files.push(site.path.clone());
        }
    }
    for files in by_key.values_mut() {
        files.sort();
    }
    // One rank per name and one name per rank, or ordering stops meaning
    // anything.
    let keys: Vec<(u32, &str)> = by_key.keys().map(|(rank, name)| (*rank, name.as_str())).collect();
    for (i, &(rank, name)) in keys.iter().enumerate() {
        for &(other_rank, other_name) in keys.iter().skip(i + 1) {
            if name == other_name || rank == other_rank {
                findings.push(Finding {
                    lint: LINT_LOCK_RANK,
                    path: "DESIGN.md".to_owned(),
                    line: 1,
                    message: format!(
                        "conflicting lock-rank assignments: {rank} ({name}) vs {other_rank} ({other_name})"
                    ),
                });
            }
        }
    }
    by_key
}

fn render_table(table: &BTreeMap<(u32, String), Vec<String>>) -> Vec<String> {
    let mut rows = vec!["| Rank | Lock | Declared in |".to_owned(), "|---:|---|---|".to_owned()];
    for ((rank, name), files) in table {
        let files = files.iter().map(|f| format!("`{f}`")).collect::<Vec<_>>().join(", ");
        rows.push(format!("| {rank} | `{name}` | {files} |"));
    }
    rows
}

/// Compares the generated rank table against the one committed in
/// `DESIGN.md` between the `lock-rank-table` markers.
fn check_design_table(
    root: &Path,
    table: &BTreeMap<(u32, String), Vec<String>>,
    findings: &mut Vec<Finding>,
) {
    let stale = |line: usize, message: String| Finding {
        lint: LINT_LOCK_RANK,
        path: "DESIGN.md".to_owned(),
        line,
        message,
    };
    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();
    let marker_line = design.lines().position(|l| l.trim() == TABLE_BEGIN);
    let Some(begin) = marker_line else {
        if !table.is_empty() {
            findings.push(stale(
                1,
                format!(
                    "no `{TABLE_BEGIN}` marker, but the tree declares {} ranked locks",
                    table.len()
                ),
            ));
        }
        return;
    };
    let committed: Vec<&str> = design
        .lines()
        .skip(begin + 1)
        .take_while(|l| l.trim() != TABLE_END)
        .map(str::trim)
        .filter(|l| l.starts_with('|'))
        .collect();
    let expected = render_table(table);
    if committed != expected.iter().map(String::as_str).collect::<Vec<_>>() {
        findings.push(stale(
            begin + 1,
            "lock-rank table is stale; regenerate with `cargo run -p copydet-audit -- --emit-ranks`"
                .to_owned(),
        ));
    }
}

/// Rewrites the table between the markers in `DESIGN.md`.
fn emit_ranks(root: &Path, table: &BTreeMap<(u32, String), Vec<String>>) -> Result<(), String> {
    let path = root.join("DESIGN.md");
    let design = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = Vec::new();
    let mut lines = design.lines();
    let mut replaced = false;
    while let Some(line) = lines.next() {
        out.push(line.to_owned());
        if line.trim() == TABLE_BEGIN {
            out.extend(render_table(table));
            for skipped in lines.by_ref() {
                if skipped.trim() == TABLE_END {
                    out.push(skipped.to_owned());
                    break;
                }
            }
            replaced = true;
        }
    }
    if !replaced {
        return Err(format!("{} has no `{TABLE_BEGIN}` marker to fill", path.display()));
    }
    out.push(String::new());
    std::fs::write(&path, out.join("\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// Walker + report.
// ---------------------------------------------------------------------------

fn rust_sources(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut found = Vec::new();
    let mut roots = vec![root.join("src")];
    let crates = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates) {
        for entry in entries.flatten() {
            roots.push(entry.path().join("src"));
        }
    }
    for dir in roots {
        walk(&dir, &mut found)?;
    }
    found.sort();
    Ok(found)
}

fn walk(dir: &Path, found: &mut Vec<PathBuf>) -> Result<(), String> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Ok(()) };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, found)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            found.push(path);
        }
    }
    Ok(())
}

fn relative_unix(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[derive(Debug, Default)]
struct Options {
    root: PathBuf,
    deny: bool,
    json: bool,
    emit_ranks: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options { root: PathBuf::from("."), ..Options::default() };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--root" => {
                options.root =
                    PathBuf::from(iter.next().ok_or("--root requires a path".to_owned())?);
            }
            "--deny" => options.deny = true,
            "--json" => options.json = true,
            "--emit-ranks" => options.emit_ranks = true,
            other => {
                return Err(format!(
                    "unknown argument `{other}`; usage: copydet-audit [--root PATH] [--deny] [--json] [--emit-ranks]"
                ))
            }
        }
    }
    Ok(options)
}

fn run(options: &Options) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    let mut registry = Vec::new();
    let allowlist = Allowlist::load(&options.root);
    let mut audited = 0usize;
    for path in rust_sources(&options.root)? {
        let rel = relative_unix(&options.root, &path);
        let source = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut file_findings = Vec::new();
        audit_source(&rel, &source, &mut file_findings, &mut registry);
        let lines: Vec<&str> = source.lines().collect();
        file_findings.retain(|f| {
            let source_line = lines.get(f.line.saturating_sub(1)).copied().unwrap_or("");
            !allowlist.waives(f, source_line)
        });
        findings.extend(file_findings);
        audited += 1;
    }
    let table = rank_table(&registry, &mut findings);
    if options.emit_ranks {
        emit_ranks(&options.root, &table)?;
        eprintln!("copydet-audit: wrote {}-row lock-rank table to DESIGN.md", table.len());
    } else {
        check_design_table(&options.root, &table, &mut findings);
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    eprintln!(
        "copydet-audit: {audited} files audited, {} ranked locks, {} finding(s)",
        table.len(),
        findings.len()
    );
    Ok(findings)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("copydet-audit: {message}");
            return ExitCode::from(2);
        }
    };
    let findings = match run(&options) {
        Ok(findings) => findings,
        Err(message) => {
            eprintln!("copydet-audit: {message}");
            return ExitCode::from(2);
        }
    };
    if options.json {
        let rows: Vec<String> = findings
            .iter()
            .map(|f| {
                format!(
                    "  {{\"lint\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                    json_escape(f.lint),
                    json_escape(&f.path),
                    f.line,
                    json_escape(&f.message)
                )
            })
            .collect();
        println!("[\n{}\n]", rows.join(",\n"));
    } else {
        for f in &findings {
            println!("{}:{}: [{}] {}", f.path, f.line, f.lint, f.message);
        }
    }
    if options.deny && !findings.is_empty() {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Unit tests: lexer precision and lint heuristics on inline sources.
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn audit_str(rel: &str, source: &str) -> Vec<Finding> {
        let mut findings = Vec::new();
        let mut registry = Vec::new();
        audit_source(rel, source, &mut findings, &mut registry);
        findings
    }

    #[test]
    fn lexer_skips_strings_and_comments() {
        let lexed = lex(r##"let s = "unwrap() [0] as u32"; // trailing note
let raw = r#"panic!("inside")"#;
let c = '\n';
let life: &'static str = "x";"##);
        assert!(lexed.tokens.iter().all(|t| t.text != "unwrap" && t.text != "panic"));
        assert_eq!(lexed.comments.get(&1).map(String::as_str), Some("trailing note"));
        assert!(lexed.tokens.iter().any(|t| t.text == "life"), "idents around literals survive");
    }

    #[test]
    fn test_regions_cover_cfg_test_items() {
        let lexed = lex("fn live() {}\n#[cfg(test)]\nmod tests {\n    fn inner() {}\n}\n");
        assert!(!lexed.in_test_code(1));
        assert!(lexed.in_test_code(4));
        let not_test = lex("#[cfg(not(test))]\nfn shipped() {}\n");
        assert!(!not_test.in_test_code(2), "cfg(not(test)) is live code");
    }

    #[test]
    fn no_panic_flags_unwrap_indexing_and_macros() {
        let source = "fn f(v: &[u8]) -> u8 {\n    let x = v.get(0).unwrap();\n    let y = v[1];\n    panic!(\"no\");\n}\n";
        let findings = audit_str("crates/model/src/codec.rs", source);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3, 4], "{findings:?}");
        assert!(findings.iter().all(|f| f.lint == LINT_NO_PANIC));
    }

    #[test]
    fn no_panic_spares_patterns_arrays_and_tests() {
        let source = "fn f(v: [u8; 2]) {\n    let [a, b] = v;\n    let all = [a, b];\n    let _ = (all, b);\n}\n#[cfg(test)]\nmod tests {\n    fn g(v: &[u8]) -> u8 { v[0] }\n}\n";
        assert!(audit_str("crates/model/src/codec.rs", source).is_empty());
    }

    #[test]
    fn waivers_silence_findings() {
        let source = "fn f(v: &[u8]) -> u8 {\n    // audit: allow(no-panic) — bounds checked above\n    v[0]\n}\n";
        assert!(audit_str("crates/model/src/codec.rs", source).is_empty());
    }

    #[test]
    fn lossy_cast_flags_integer_casts_only() {
        let source = "fn f(x: u64) -> (u32, f64) { (x as u32, x as f64) }\n";
        let findings = audit_str("crates/model/src/codec.rs", source);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].lint, LINT_LOSSY_CAST);
        assert!(audit_str("crates/index/src/scoring.rs", source).is_empty(), "out of cast scope");
    }

    #[test]
    fn lock_rank_requires_annotation_on_declarations_not_imports() {
        let bare = "use std::sync::Mutex;\nstruct S {\n    inner: Mutex<u32>,\n}\n";
        let findings = audit_str("crates/store/src/concurrent.rs", bare);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!((findings[0].lint, findings[0].line), (LINT_LOCK_RANK, 3));

        let annotated = "use std::sync::Mutex;\nstruct S {\n    // lock-rank: 20 (store.claim_store.shard)\n    inner: Mutex<u32>,\n}\nfn make() -> Mutex<u32> {\n    // lock-rank: 20 (store.claim_store.shard)\n    Mutex::new(0)\n}\n";
        let mut findings = Vec::new();
        let mut registry = Vec::new();
        audit_source("crates/store/src/concurrent.rs", annotated, &mut findings, &mut registry);
        assert!(findings.is_empty(), "{findings:?}");
        // Field, return type and constructor are three declaration sites.
        assert_eq!(registry.len(), 3);
        assert_eq!(registry[0].rank, 20);
        assert_eq!(registry[0].name, "store.claim_store.shard");
    }

    #[test]
    fn conflicting_ranks_are_findings() {
        let registry = vec![
            RankSite { rank: 10, name: "a".into(), path: "x.rs".into() },
            RankSite { rank: 10, name: "b".into(), path: "y.rs".into() },
        ];
        let mut findings = Vec::new();
        let table = rank_table(&registry, &mut findings);
        assert_eq!(table.len(), 2);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("conflicting"));
    }

    #[test]
    fn header_lint_checks_crate_roots_only() {
        let bare = "//! docs\npub fn f() {}\n";
        let findings = audit_str("crates/model/src/lib.rs", bare);
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings.iter().all(|f| f.lint == LINT_HEADER));
        assert!(audit_str("crates/model/src/codec.rs", bare).is_empty());

        let full = "#![forbid(unsafe_code)]\n#![deny(unused_must_use)]\n#![warn(missing_docs)]\n";
        assert!(audit_str("crates/model/src/lib.rs", full).is_empty());
    }

    #[test]
    fn rank_annotation_parses_strictly() {
        assert_eq!(
            parse_rank_annotation("lock-rank: 30 (serve.frontend.connections)"),
            Some((30, "serve.frontend.connections".to_owned()))
        );
        assert_eq!(parse_rank_annotation("lock-rank: banana"), None);
        assert_eq!(parse_rank_annotation("lock-rank: 30"), None, "name is required");
        assert_eq!(parse_rank_annotation("unrelated comment"), None);
    }
}
