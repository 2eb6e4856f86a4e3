//! The repository rules that the compiler's lints do not express, checked
//! line by line over the source tree, plus one run of the clippy denies the
//! serving crates carry in their roots (DESIGN.md §8).
//!
//! * every crate root opts into the agreed lint header;
//! * every lock declaration in the serving stack names its rank, each name
//!   has one rank and each rank one name, and the table in DESIGN.md §8
//!   matches the tree;
//! * `cargo clippy` passes with every lint but the in-source denies
//!   silenced, so a panic path or a silent `as` cast fails this suite.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

const HEADER: [&str; 3] =
    ["#![forbid(unsafe_code)]", "#![deny(unused_must_use)]", "#![warn(missing_docs)]"];
const LOCK_CRATES: [&str; 4] = ["serve", "store", "obs", "detect"];
const LOCK_TYPES: [&str; 4] = ["Mutex", "RwLock", "RankedMutex", "RankedRwLock"];
const TABLE_BEGIN: &str = "<!-- lock-rank-table:begin -->";
const TABLE_END: &str = "<!-- lock-rank-table:end -->";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The `*.rs` files under `dir`, recursively, sorted.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(dir) = pending.pop() {
        for entry in std::fs::read_dir(&dir).expect("read source dir").flatten() {
            let path = entry.path();
            if path.is_dir() {
                pending.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                found.push(path);
            }
        }
    }
    found.sort();
    found
}

/// The line with its `//` comment and the insides of its string literals
/// removed, so neither can pass for code.
fn code_of(line: &str) -> String {
    let mut code = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_string = false;
    while let Some(c) = chars.next() {
        if in_string {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => {
                    in_string = false;
                    code.push(c);
                }
                _ => {}
            }
        } else if c == '/' && chars.peek() == Some(&'/') {
            break;
        } else {
            in_string = c == '"';
            code.push(c);
        }
    }
    code
}

/// Line numbers (0-based) outside `#[cfg(test)]` items, each item skipped
/// up to its closing brace or, when braceless, its `;` — the rule
/// `scripts/loc.sh` counts by.
fn non_test_lines(lines: &[&str]) -> Vec<usize> {
    let mut kept = Vec::new();
    let mut skip = false;
    let (mut depth, mut opened) = (0i64, false);
    for (n, line) in lines.iter().enumerate() {
        if !skip && line.trim_start().starts_with("#[cfg(test)]") {
            (skip, depth, opened) = (true, 0, false);
            continue;
        }
        if !skip {
            kept.push(n);
            continue;
        }
        let code = code_of(line);
        for c in code.chars() {
            match c {
                '{' => (depth, opened) = (depth + 1, true),
                '}' => depth -= 1,
                _ => {}
            }
        }
        if (opened && depth <= 0) || (!opened && code.trim_end().ends_with(';')) {
            skip = false;
        }
    }
    kept
}

/// Whether the code declares or constructs a lock: a lock type name as a
/// whole identifier, followed by `<` or `::`.
fn declares_lock(code: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    LOCK_TYPES.iter().any(|ty| {
        code.match_indices(ty).any(|(at, _)| {
            let before = code[..at].chars().next_back();
            let after = &code[at + ty.len()..];
            !before.is_some_and(is_ident) && (after.starts_with('<') || after.starts_with("::"))
        })
    })
}

/// `N (name)` from a `// lock-rank: N (name)` comment.
fn parse_rank(line: &str) -> Option<(u32, String)> {
    let rest = line.split("// lock-rank:").nth(1)?.trim_start();
    let (rank, rest) = rest.split_once(' ')?;
    let rank = rank.parse().ok()?;
    let name = rest.trim_start().strip_prefix('(')?.split(')').next()?.trim();
    (!name.is_empty()).then(|| (rank, name.to_owned()))
}

/// The lock-rank table as DESIGN.md §8 renders it.
fn render_table(table: &BTreeMap<(u32, String), BTreeSet<String>>) -> Vec<String> {
    let mut rows = vec!["| Rank | Lock | Declared in |".to_owned(), "|---:|---|---|".to_owned()];
    for ((rank, name), files) in table {
        let files = files.iter().map(|f| format!("`{f}`")).collect::<Vec<_>>().join(", ");
        rows.push(format!("| {rank} | `{name}` | {files} |"));
    }
    rows
}

#[test]
fn crate_roots_carry_the_lint_header() {
    let mut roots = vec![root().join("src/lib.rs")];
    for entry in std::fs::read_dir(root().join("crates")).expect("read crates/").flatten() {
        let lib = entry.path().join("src/lib.rs");
        if lib.exists() {
            roots.push(lib);
        }
    }
    let mut missing = Vec::new();
    for lib in &roots {
        let source = read(lib);
        for header in HEADER {
            if !source.lines().any(|line| line.trim() == header) {
                missing.push(format!("{}: missing `{header}`", lib.display()));
            }
        }
    }
    assert!(roots.len() > 10, "found only {} crate roots", roots.len());
    assert!(missing.is_empty(), "crate roots without the lint header:\n{}", missing.join("\n"));
}

#[test]
fn locks_carry_ranks_and_design_table_matches() {
    let mut table: BTreeMap<(u32, String), BTreeSet<String>> = BTreeMap::new();
    let mut problems = Vec::new();
    for krate in LOCK_CRATES {
        for path in rust_files(&root().join("crates").join(krate).join("src")) {
            let rel = path.strip_prefix(root()).expect("under the root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            let source = read(&path);
            let lines: Vec<&str> = source.lines().collect();
            for n in non_test_lines(&lines) {
                if !declares_lock(&code_of(lines[n])) {
                    continue;
                }
                let near = &lines[n.saturating_sub(3)..=n];
                match near.iter().rev().find_map(|line| parse_rank(line)) {
                    Some(key) => {
                        table.entry(key).or_default().insert(rel.clone());
                    }
                    None => problems.push(format!(
                        "{rel}:{}: lock without a `// lock-rank: N (name)` comment on its line \
                         or the 3 above",
                        n + 1
                    )),
                }
            }
        }
    }
    let keys: Vec<&(u32, String)> = table.keys().collect();
    for (i, (rank, name)) in keys.iter().enumerate() {
        for (other_rank, other_name) in &keys[i + 1..] {
            if name == other_name || rank == other_rank {
                problems.push(format!(
                    "conflicting lock ranks: {rank} ({name}) vs {other_rank} ({other_name})"
                ));
            }
        }
    }
    assert!(problems.is_empty(), "lock-rank problems:\n{}", problems.join("\n"));
    assert!(!table.is_empty(), "no ranked locks found");

    let design = read(&root().join("DESIGN.md"));
    let committed: Vec<&str> = design
        .lines()
        .skip_while(|line| line.trim() != TABLE_BEGIN)
        .skip(1)
        .take_while(|line| line.trim() != TABLE_END)
        .map(str::trim)
        .filter(|line| line.starts_with('|'))
        .collect();
    let rendered = render_table(&table);
    assert_eq!(
        committed,
        rendered,
        "DESIGN.md §8's lock-rank table is stale; paste this between the markers:\n{}",
        rendered.join("\n")
    );
}

/// The no-panic and no-silent-cast rules are the `deny` attributes at the
/// top of the serving crates (and of a few modules elsewhere). `-A
/// clippy::all` silences every other clippy lint, so only those can fail.
#[test]
fn clippy_denies_hold() {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let output = Command::new(cargo)
        .current_dir(root())
        .env("CARGO_TARGET_DIR", root().join("target/static-rules"))
        .args(["clippy", "--offline", "--quiet", "--workspace", "--lib", "--"])
        .args(["-A", "clippy::all"])
        .output()
        .expect("spawn cargo clippy");
    assert!(
        output.status.success(),
        "cargo clippy found a denied lint:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}
