//! `bench-guard` — the hot-path regression gate.
//!
//! Compares the `hotpath/` rows of a fresh campaign bench artifact
//! (`target/BENCH_campaign.json`) with the committed
//! `crates/bench/BENCH_hotpath_baseline.json` by raw median, and fails
//! (exit 1) when a row's median is more than 25% above its baseline or
//! the row is missing from the fresh artifact.
//!
//! Raw nanoseconds compare only on the same machine shape, so the rows
//! are compared only when both artifacts carry the same `machine`
//! fingerprint (available parallelism, CPU model, `rustc -V`). Otherwise
//! the guard reports that there is no comparable baseline and exits 0.
//!
//! ```text
//! bench-guard [--fresh PATH] [--baseline PATH]
//! ```
//!
//! Exit codes: 0 = within threshold, or no comparable baseline;
//! 1 = regression; 2 = missing or malformed input.

use rv_core::wire::Value;

/// Largest allowed slowdown of a row's median, in percent.
const THRESHOLD_PCT: f64 = 25.0;

/// Only rows whose id starts with this prefix are compared.
const PREFIX: &str = "hotpath/";

fn fail(msg: &str) -> ! {
    eprintln!("bench-guard: {msg}");
    std::process::exit(2);
}

/// An artifact's machine fingerprint and its `(id, median_ns)` rows
/// under [`PREFIX`].
fn load(path: &str) -> (String, Vec<(String, f64)>) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let doc = Value::parse(text.trim())
        .unwrap_or_else(|e| fail(&format!("{path} is not strict JSON: {e}")));
    let machine = match doc.get("machine") {
        Some(Value::Str(machine)) => machine.to_string(),
        _ => fail(&format!("{path}: no \"machine\" fingerprint")),
    };
    let results = match doc.get("results") {
        Some(Value::Arr(rows)) => rows,
        _ => fail(&format!("{path}: no \"results\" array")),
    };
    let rows = results
        .iter()
        .map(|row| {
            let id = match row.get("id") {
                Some(Value::Str(id)) => id.to_string(),
                _ => fail(&format!("{path}: entry without a string \"id\"")),
            };
            let median = match row.get("median_ns") {
                Some(Value::Num(raw)) => raw
                    .parse::<f64>()
                    .ok()
                    .filter(|m| m.is_finite() && *m > 0.0)
                    .unwrap_or_else(|| fail(&format!("{path}: bad median_ns for {id:?}"))),
                _ => fail(&format!("{path}: no median_ns for {id:?}")),
            };
            (id, median)
        })
        .filter(|(id, _)| id.starts_with(PREFIX))
        .collect();
    (machine, rows)
}

fn main() {
    let manifest = env!("CARGO_MANIFEST_DIR");
    let mut fresh = format!("{manifest}/../../target/BENCH_campaign.json");
    let mut baseline = format!("{manifest}/BENCH_hotpath_baseline.json");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let slot = match flag.as_str() {
            "--fresh" => &mut fresh,
            "--baseline" => &mut baseline,
            _ => fail(&format!(
                "unknown argument {flag:?} (usage: bench-guard [--fresh PATH] [--baseline PATH])"
            )),
        };
        *slot = args
            .next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")));
    }

    let (base_machine, base_rows) = load(&baseline);
    let (fresh_machine, fresh_rows) = load(&fresh);
    if base_machine != fresh_machine {
        eprintln!(
            "bench-guard: no comparable baseline (baseline {base_machine}, this machine {fresh_machine})"
        );
        return;
    }

    let allowed = 1.0 + THRESHOLD_PCT / 100.0;
    let mut regressions = 0usize;
    println!("bench-guard: {PREFIX} rows vs {baseline} (threshold +{THRESHOLD_PCT}%)");
    println!(
        "{:<34} {:>14} {:>14} {:>8}",
        "entry", "baseline ns", "fresh ns", "ratio"
    );
    for (id, base) in &base_rows {
        let Some((_, now)) = fresh_rows.iter().find(|(f, _)| f == id) else {
            // A silently vanished row could hide a regression.
            println!(
                "{id:<34} {base:>14.1} {:>14} {:>8} REGRESSED",
                "MISSING", "-"
            );
            regressions += 1;
            continue;
        };
        let ratio = now / base;
        let verdict = if ratio > allowed { " REGRESSED" } else { "" };
        println!("{id:<34} {base:>14.1} {now:>14.1} {ratio:>8.3}{verdict}");
        if ratio > allowed {
            regressions += 1;
        }
    }
    for (id, now) in &fresh_rows {
        if !base_rows.iter().any(|(b, _)| b == id) {
            // New rows have no baseline yet: report, never fail.
            println!("{id:<34} {:>14} {now:>14.1} {:>8}  (new)", "-", "-");
        }
    }

    if regressions > 0 {
        eprintln!("bench-guard: {regressions} row(s) regressed beyond +{THRESHOLD_PCT}%");
        std::process::exit(1);
    }
    println!("bench-guard: ok");
}
