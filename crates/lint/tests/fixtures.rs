//! Fixture-tree integration tests: the lint must stay silent on the
//! clean tree, fire on every planted violation in the violating tree,
//! and the binary must map those outcomes onto exit codes 0/1/2.

use std::path::{Path, PathBuf};
use std::process::Command;

use rv_lint::{rules, scan_tree, Config};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn clean_tree_produces_no_findings() {
    let (findings, scanned) = scan_tree(&fixture("clean"), &Config::default()).expect("scan");
    assert!(
        findings.is_empty(),
        "clean tree must be clean, got:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(scanned, 5, "all five clean fixture files are scanned");
}

#[test]
fn violating_tree_fires_once_per_planted_violation() {
    let (findings, _) = scan_tree(&fixture("violating"), &Config::default()).expect("scan");
    let has = |file: &str, rule: &str, needle: &str| {
        assert!(
            findings
                .iter()
                .any(|f| f.file == file && f.rule == rule && f.message.contains(needle)),
            "expected a `{rule}` finding in {file} mentioning {needle:?}, got:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    };

    // panic family: bare unwrap, todo!, and the fail-closed waiver.
    has("crates/core/src/wire.rs", rules::PANIC, ".unwrap()");
    has("crates/core/src/wire.rs", rules::PANIC, "`todo!`");
    has("crates/core/src/wire.rs", rules::WAIVER, "no justification");

    // unsafe family: missing SAFETY in the allowlisted file, any unsafe
    // outside it (rv-core's parallel map included).
    has("crates/serve/src/signal.rs", rules::UNSAFE, "SAFETY");
    has("crates/core/src/stream.rs", rules::UNSAFE, "allowlist");
    has("crates/core/src/parallel.rs", rules::UNSAFE, "allowlist");

    // determinism family: hash collections, wall clock, float formatting.
    has("crates/core/src/batch.rs", rules::DETERMINISM, "HashMap");
    has(
        "crates/core/src/batch.rs",
        rules::DETERMINISM,
        "Instant::now",
    );
    has("crates/core/src/json.rs", rules::DETERMINISM, "float `v`");

    // forbid family: missing blanket forbid, missing deny + module allow,
    // and a deny + module allow on a root that must forbid.
    has(
        "crates/other/src/lib.rs",
        rules::FORBID,
        "forbid(unsafe_code)",
    );
    has(
        "crates/serve/src/lib.rs",
        rules::FORBID,
        "deny(unsafe_code)",
    );
    has("crates/serve/src/lib.rs", rules::FORBID, "mod signal");
    has(
        "crates/core/src/lib.rs",
        rules::FORBID,
        "forbid(unsafe_code)",
    );

    // The unjustified waiver must NOT have suppressed its finding.
    let waived_line = findings
        .iter()
        .filter(|f| f.file == "crates/core/src/wire.rs" && f.rule == rules::PANIC)
        .count();
    assert!(
        waived_line >= 3,
        "unwrap, todo!, and the unjustified-waiver unwrap must all fire"
    );
}

#[test]
fn binary_exit_codes_match_findings() {
    let bin = env!("CARGO_BIN_EXE_rv-lint");

    let clean = Command::new(bin)
        .args(["--root", fixture("clean").to_str().expect("utf-8 path")])
        .output()
        .expect("run rv-lint");
    assert_eq!(
        clean.status.code(),
        Some(0),
        "clean tree must exit 0, stderr: {}",
        String::from_utf8_lossy(&clean.stderr)
    );
    assert!(clean.stdout.is_empty(), "clean run prints no findings");

    let violating = Command::new(bin)
        .args(["--root", fixture("violating").to_str().expect("utf-8 path")])
        .output()
        .expect("run rv-lint");
    assert_eq!(violating.status.code(), Some(1), "findings must exit 1");
    let stdout = String::from_utf8_lossy(&violating.stdout);
    // Findings print as file:line: rule: message, sorted by file.
    assert!(
        stdout.contains("crates/core/src/wire.rs:"),
        "findings on stdout: {stdout}"
    );
    assert!(stdout.contains(": panic: "), "rule names printed: {stdout}");

    let usage = Command::new(bin)
        .args(["--frobnicate"])
        .output()
        .expect("run rv-lint");
    assert_eq!(usage.status.code(), Some(2), "bad usage must exit 2");

    let missing = Command::new(bin)
        .args([
            "--root",
            fixture("does-not-exist").to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("run rv-lint");
    assert_eq!(
        missing.status.code(),
        Some(2),
        "unreadable root must exit 2"
    );
}
