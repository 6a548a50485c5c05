//! `bench-guard` run on synthetic artifacts: a pass, a 2× slowdown, a
//! missing row, a machine mismatch and malformed input.

use std::process::{Command, Output};

const MACHINE: &str = "2 x Test CPU | rustc 1.0.0";

/// Baseline rows; the `par_map/` row is outside the guarded prefix.
const ROWS: [(&str, f64); 4] = [
    ("hotpath/ratio_add_64", 900.0),
    ("hotpath/kinematics_4k", 250_000.0),
    ("hotpath/aur_exhaust_20k", 4_000_000.0),
    ("par_map/cheap_100k", 300_000.0),
];

/// A campaign bench artifact with `rows`, measured on `machine`.
fn artifact(machine: &str, rows: &[(&str, f64)]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|(id, m)| {
            format!(
                "    {{\"id\": \"{id}\", \"median_ns\": {m}, \"mean_ns\": {m}, \"min_ns\": {m}}}"
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": 2,\n  \"bench\": \"campaign\",\n  \"machine\": \"{machine}\",\n  \"results\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    )
}

/// Runs the guard with `fresh` against `baseline`, each written to its
/// own file in a directory named after the test.
fn guard(test: &str, baseline: &str, fresh: &str) -> Output {
    let dir = std::env::temp_dir().join(format!("rv-bench-guard-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (base_path, fresh_path) = (dir.join("baseline.json"), dir.join("fresh.json"));
    std::fs::write(&base_path, baseline).expect("write baseline");
    std::fs::write(&fresh_path, fresh).expect("write fresh");
    let out = Command::new(env!("CARGO_BIN_EXE_bench-guard"))
        .arg("--fresh")
        .arg(&fresh_path)
        .arg("--baseline")
        .arg(&base_path)
        .output()
        .expect("run bench-guard");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn identical_artifact_passes() {
    let base = artifact(MACHINE, &ROWS);
    let out = guard("identical", &base, &base);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("bench-guard: ok"));
}

#[test]
fn doubled_medians_fail_and_name_every_row() {
    let doubled: Vec<(&str, f64)> = ROWS.iter().map(|&(id, m)| (id, 2.0 * m)).collect();
    let out = guard(
        "doubled",
        &artifact(MACHINE, &ROWS),
        &artifact(MACHINE, &doubled),
    );
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let report = stdout(&out);
    for (id, _) in ROWS.iter().filter(|(id, _)| id.starts_with("hotpath/")) {
        assert!(
            report
                .lines()
                .any(|line| line.starts_with(id) && line.ends_with("REGRESSED")),
            "{id} not flagged in:\n{report}"
        );
    }
    assert!(!report.contains("par_map/"), "{report}");
}

#[test]
fn missing_row_is_a_regression() {
    let out = guard(
        "missing",
        &artifact(MACHINE, &ROWS),
        &artifact(MACHINE, &ROWS[1..]),
    );
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out)
        .lines()
        .any(|line| line.starts_with("hotpath/ratio_add_64") && line.contains("MISSING")));
}

#[test]
fn other_machine_has_no_comparable_baseline() {
    let doubled: Vec<(&str, f64)> = ROWS.iter().map(|&(id, m)| (id, 2.0 * m)).collect();
    let out = guard(
        "machine",
        &artifact(MACHINE, &ROWS),
        &artifact("4 x Other CPU | rustc 1.0.0", &doubled),
    );
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no comparable baseline"), "{stderr}");
    assert!(stderr.contains("4 x Other CPU"), "{stderr}");
}

#[test]
fn malformed_json_exits_2() {
    let out = guard("malformed", &artifact(MACHINE, &ROWS), "{\"results\": [");
    assert_eq!(out.status.code(), Some(2));
}
