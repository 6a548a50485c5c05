//! `bench-guard` — the CI bench-regression gate.
//!
//! Compares freshly generated bench artifacts against the committed
//! baselines and fails (exit 1) when any guarded entry regressed by
//! more than the threshold (default 25% throughput, i.e. median time
//! > 1.25× the baseline's). Two guarded groups:
//!
//! - **`exec_backends/`** from `BENCH_campaign.json` vs
//!   `crates/bench/BENCH_baseline.json` (required);
//! - **`serve/`** from `BENCH_serve.json` (the `rv-serve bench`
//!   loadtest) vs `crates/bench/BENCH_serve_baseline.json` — compared
//!   only when that baseline exists, skipped silently otherwise so
//!   the guard keeps working on trees predating the campaign service;
//! - **`cache/`** from the same `BENCH_campaign.json` vs
//!   `crates/bench/BENCH_cache_baseline.json` — the result cache's
//!   warm-replay row, gated on its baseline the same way;
//! - **`hotpath/`** from the same `BENCH_campaign.json` vs
//!   `crates/bench/BENCH_hotpath_baseline.json` — the per-layer
//!   micro-bench rows (Ratio ops, kinematics, one engine run, stats
//!   fold), gated on its baseline the same way.
//!
//! Raw nanoseconds are not comparable across machines, so every entry
//! is normalized by its own file's reference median before comparing
//! (`exec_backends/local_64x20k`, `serve/campaign_1client`, and
//! `cache/cold_64x20k` respectively): the guard asks "did this entry
//! get slower *relative to the single-runner case on the same box*",
//! which is the overhead the layer under test owns. For the cache
//! group that is the warm/cold ratio — replay cost relative to
//! recomputation.
//!
//! With `--record`, the fresh medians are additionally appended as one
//! JSON line to the tracked history file (`crates/bench/BENCH_history.jsonl`
//! by default, `--history PATH` to override) before the comparison runs —
//! CI calls this once per PR so the file accumulates one per-layer
//! snapshot per merge.
//!
//! ```text
//! bench-guard [--fresh PATH] [--baseline PATH] [--threshold PCT]
//!             [--serve-fresh PATH] [--serve-baseline PATH]
//!             [--cache-baseline PATH] [--hotpath-baseline PATH]
//!             [--record] [--history PATH]
//! ```
//!
//! Exit codes: 0 = within threshold, 1 = regression, 2 = missing or
//! malformed input.

use rv_core::wire::Value;

/// One guarded comparison: the entries under `prefix`, normalized by
/// `reference`.
struct Group {
    /// Human-readable label for the report.
    label: &'static str,
    /// Only ids starting with this prefix are compared.
    prefix: &'static str,
    /// The id every other one is normalized by.
    reference: &'static str,
}

const EXEC_GROUP: Group = Group {
    label: "exec_backends",
    prefix: "exec_backends/",
    reference: "exec_backends/local_64x20k",
};

const SERVE_GROUP: Group = Group {
    label: "serve",
    prefix: "serve/",
    reference: "serve/campaign_1client",
};

const CACHE_GROUP: Group = Group {
    label: "cache",
    prefix: "cache/",
    reference: "cache/cold_64x20k",
};

const HOTPATH_GROUP: Group = Group {
    label: "hotpath",
    prefix: "hotpath/",
    reference: "hotpath/sim_engine_50k",
};

fn fail(msg: &str) -> ! {
    eprintln!("bench-guard: {msg}");
    std::process::exit(2);
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    let at = args.iter().position(|a| a == name)?;
    match args.get(at + 1) {
        Some(v) if !v.starts_with("--") => Some(v.clone()),
        _ => fail(&format!("{name} needs a value")),
    }
}

/// `(id, median_ns)` for every benchmark entry in a results artifact.
fn entries(path: &str) -> Vec<(String, f64)> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let doc = Value::parse(text.trim())
        .unwrap_or_else(|e| fail(&format!("{path} is not strict JSON: {e}")));
    let results = match doc.get("results") {
        Some(Value::Arr(rows)) => rows,
        _ => fail(&format!("{path}: no \"results\" array")),
    };
    results
        .iter()
        .map(|row| {
            let id = match row.get("id") {
                Some(Value::Str(id)) => id.to_string(),
                _ => fail(&format!("{path}: entry without a string \"id\"")),
            };
            let median = match row.get("median_ns") {
                Some(Value::Num(raw)) => raw
                    .parse::<f64>()
                    .unwrap_or_else(|_| fail(&format!("{path}: bad median_ns for {id:?}"))),
                _ => fail(&format!("{path}: no median_ns for {id:?}")),
            };
            (id, median)
        })
        .collect()
}

/// The group's entries of one artifact, normalized by that artifact's
/// reference median (so cross-machine clock speed cancels).
fn normalized(path: &str, group: &Group) -> Vec<(String, f64)> {
    let all = entries(path);
    let reference = all
        .iter()
        .find(|(id, _)| id == group.reference)
        .map(|(_, m)| *m)
        .unwrap_or_else(|| {
            fail(&format!(
                "{path}: missing the {:?} reference entry",
                group.reference
            ))
        });
    if reference.is_nan() || reference <= 0.0 {
        fail(&format!("{path}: non-positive reference median"));
    }
    all.into_iter()
        .filter(|(id, _)| id.starts_with(group.prefix) && id != group.reference)
        .map(|(id, median)| (id, median / reference))
        .collect()
}

/// Prints the comparison table for one group and returns how many
/// entries regressed beyond the threshold.
fn compare(group: &Group, fresh: &str, baseline: &str, threshold: f64) -> usize {
    let allowed = 1.0 + threshold / 100.0;
    let fresh_rows = normalized(fresh, group);
    let base_rows = normalized(baseline, group);

    let mut regressions = 0usize;
    println!(
        "bench-guard: {} vs baseline (threshold +{threshold}%)",
        group.label
    );
    println!(
        "{:<34} {:>10} {:>10} {:>8}",
        "entry", "baseline", "fresh", "ratio"
    );
    for (id, base_norm) in &base_rows {
        let Some((_, fresh_norm)) = fresh_rows.iter().find(|(f, _)| f == id) else {
            // A silently vanished benchmark could hide a regression.
            println!(
                "{:<34} {:>10.3} {:>10} {:>8}",
                id, base_norm, "MISSING", "-"
            );
            regressions += 1;
            continue;
        };
        let ratio = fresh_norm / base_norm;
        let verdict = if ratio > allowed { " REGRESSED" } else { "" };
        println!("{id:<34} {base_norm:>10.3} {fresh_norm:>10.3} {ratio:>8.3}{verdict}");
        if ratio > allowed {
            regressions += 1;
        }
    }
    for (id, fresh_norm) in &fresh_rows {
        if !base_rows.iter().any(|(b, _)| b == id) {
            // New entries have no baseline yet: report, never fail.
            println!("{id:<34} {:>10} {fresh_norm:>10.3} {:>8}  (new)", "-", "-");
        }
    }
    regressions
}

/// Appends one JSON line with every fresh median to the history file
/// (ids sorted so identical runs produce identical lines).
fn record_history(fresh: &str, history: &str) {
    let mut rows = entries(fresh);
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    let body: Vec<String> = rows
        .iter()
        .map(|(id, median)| format!("{{\"id\":{id:?},\"median_ns\":{median}}}"))
        .collect();
    let line = format!("{{\"schema\":1,\"rows\":[{}]}}\n", body.join(","));
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(history)
        .unwrap_or_else(|e| fail(&format!("cannot open {history}: {e}")));
    file.write_all(line.as_bytes())
        .unwrap_or_else(|e| fail(&format!("cannot append to {history}: {e}")));
    println!(
        "bench-guard: recorded {} medians into {history}",
        rows.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let manifest = env!("CARGO_MANIFEST_DIR");
    let fresh = flag_value(&args, "--fresh")
        .unwrap_or_else(|| format!("{manifest}/../../target/BENCH_campaign.json"));
    let baseline = flag_value(&args, "--baseline")
        .unwrap_or_else(|| format!("{manifest}/BENCH_baseline.json"));
    let serve_fresh = flag_value(&args, "--serve-fresh")
        .unwrap_or_else(|| format!("{manifest}/../../target/BENCH_serve.json"));
    let serve_baseline = flag_value(&args, "--serve-baseline")
        .unwrap_or_else(|| format!("{manifest}/BENCH_serve_baseline.json"));
    let cache_baseline = flag_value(&args, "--cache-baseline")
        .unwrap_or_else(|| format!("{manifest}/BENCH_cache_baseline.json"));
    let hotpath_baseline = flag_value(&args, "--hotpath-baseline")
        .unwrap_or_else(|| format!("{manifest}/BENCH_hotpath_baseline.json"));
    let history =
        flag_value(&args, "--history").unwrap_or_else(|| format!("{manifest}/BENCH_history.jsonl"));
    let threshold: f64 = flag_value(&args, "--threshold")
        .map(|raw| {
            raw.parse()
                .unwrap_or_else(|_| fail(&format!("bad --threshold {raw:?}")))
        })
        .unwrap_or(25.0);

    if args.iter().any(|a| a == "--record") {
        record_history(&fresh, &history);
    }

    let mut regressions = compare(&EXEC_GROUP, &fresh, &baseline, threshold);

    // The serve group is guarded only once its baseline is committed;
    // a tree without one (or a CI leg that skipped the loadtest) is
    // not an error.
    if std::path::Path::new(&serve_baseline).is_file() {
        if std::path::Path::new(&serve_fresh).is_file() {
            regressions += compare(&SERVE_GROUP, &serve_fresh, &serve_baseline, threshold);
        } else {
            println!("bench-guard: serve baseline present but no fresh {serve_fresh}; skipping the serve group");
        }
    }

    // Likewise for the result cache's rows, which live in the campaign
    // artifact itself: guarded once crates/bench commits their baseline.
    if std::path::Path::new(&cache_baseline).is_file() {
        regressions += compare(&CACHE_GROUP, &fresh, &cache_baseline, threshold);
    }

    // And the per-layer hot-path micro-bench rows, same gating.
    if std::path::Path::new(&hotpath_baseline).is_file() {
        regressions += compare(&HOTPATH_GROUP, &fresh, &hotpath_baseline, threshold);
    }

    if regressions > 0 {
        eprintln!("bench-guard: {regressions} entry(ies) regressed beyond +{threshold}%");
        std::process::exit(1);
    }
    println!("bench-guard: ok");
}
