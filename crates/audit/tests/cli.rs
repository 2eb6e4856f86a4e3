//! End-to-end runs of the `copydet-audit` binary over fixture trees, plus
//! the acceptance check that the real repository is clean.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn audit(root: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_copydet-audit"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("spawn copydet-audit")
}

fn stdout_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn clean_fixture_passes_deny() {
    let output = audit(&fixture("clean"), &["--deny"]);
    assert!(output.status.success(), "stdout: {}", stdout_of(&output));
    assert!(stdout_of(&output).is_empty(), "no findings expected");
}

#[test]
fn panic_path_fixture_fails_deny() {
    let output = audit(&fixture("panic_path"), &["--deny"]);
    assert_eq!(output.status.code(), Some(1));
    let report = stdout_of(&output);
    assert!(report.contains("[no-panic]"), "report: {report}");
    assert!(report.contains("codec.rs:4"), "indexing flagged: {report}");
    assert!(report.contains("codec.rs:8"), "unwrap flagged: {report}");
    assert!(report.contains("codec.rs:12"), "panic! flagged: {report}");
    assert_eq!(report.matches("[no-panic]").count(), 3, "tests are exempt: {report}");
}

#[test]
fn lossy_cast_fixture_fails_deny() {
    let output = audit(&fixture("lossy_cast"), &["--deny"]);
    assert_eq!(output.status.code(), Some(1));
    let report = stdout_of(&output);
    assert_eq!(report.matches("[lossy-cast]").count(), 2, "float cast exempt: {report}");
}

#[test]
fn serve_directory_is_in_scope_without_being_listed() {
    let output = audit(&fixture("serve_scope"), &["--deny"]);
    assert_eq!(output.status.code(), Some(1));
    let report = stdout_of(&output);
    assert!(report.contains("pool.rs:5: [no-panic]"), "unwrap flagged: {report}");
    assert!(report.contains("pool.rs:10: [lossy-cast]"), "cast flagged: {report}");
}

#[test]
fn missing_rank_fixture_fails_deny() {
    let output = audit(&fixture("missing_rank"), &["--deny"]);
    assert_eq!(output.status.code(), Some(1));
    let report = stdout_of(&output);
    assert!(report.contains("[lock-rank]"), "report: {report}");
    assert!(report.contains("without a `// lock-rank: N (name)` annotation"), "report: {report}");
}

#[test]
fn bad_header_fixture_fails_deny() {
    let output = audit(&fixture("bad_header"), &["--deny"]);
    assert_eq!(output.status.code(), Some(1));
    let report = stdout_of(&output);
    assert_eq!(report.matches("[lint-header]").count(), 2, "two headers missing: {report}");
    assert!(report.contains("unused_must_use"), "report: {report}");
    assert!(report.contains("missing_docs"), "report: {report}");
}

#[test]
fn stale_table_fixture_fails_deny_and_emit_ranks_repairs_it() {
    let output = audit(&fixture("stale_table"), &["--deny"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(stdout_of(&output).contains("--emit-ranks"), "points at the fix");

    // Repair a copy of the fixture with --emit-ranks, then re-audit it.
    let scratch = std::env::temp_dir().join(format!("copydet-audit-emit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    copy_tree(&fixture("stale_table"), &scratch);
    let emit = audit(&scratch, &["--emit-ranks"]);
    assert!(emit.status.success(), "emit-ranks failed");
    let design = std::fs::read_to_string(scratch.join("DESIGN.md")).expect("DESIGN.md");
    assert!(design.contains("| 20 | `demo.store.shard` |"), "table rewritten: {design}");
    let output = audit(&scratch, &["--deny"]);
    assert!(output.status.success(), "repaired tree is clean: {}", stdout_of(&output));
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn allowlist_waives_findings() {
    let root = fixture("allowlisted");
    let output = audit(&root, &["--deny"]);
    assert!(output.status.success(), "waived: {}", stdout_of(&output));
}

#[test]
fn json_report_is_machine_readable() {
    let output = audit(&fixture("lossy_cast"), &["--json"]);
    assert!(output.status.success(), "no --deny, so findings do not fail the run");
    let report = stdout_of(&output);
    assert!(report.trim_start().starts_with('['), "report: {report}");
    assert!(report.contains("\"lint\": \"lossy-cast\""), "report: {report}");
    assert!(report.contains("\"path\": \"crates/model/src/codec.rs\""), "report: {report}");
    assert!(report.contains("\"line\": 4"), "report: {report}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let output = audit(&fixture("clean"), &["--frobnicate"]);
    assert_eq!(output.status.code(), Some(2));
}

/// The acceptance bar: the real tree audits clean under `--deny`.
#[test]
fn real_repository_is_clean() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let output = audit(&repo_root, &["--deny"]);
    assert!(output.status.success(), "findings in the real tree:\n{}", stdout_of(&output));
}

fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create scratch dir");
    for entry in std::fs::read_dir(from).expect("read fixture").flatten() {
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).expect("copy fixture file");
        }
    }
}
