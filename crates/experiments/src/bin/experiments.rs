//! CLI entry point: regenerates the reproduction's tables and figures, and
//! offers ad-hoc `classify` / `solve` subcommands for single instances.
//!
//! ```text
//! experiments [ids…] [--quick] [--out DIR]     # run experiments (default: all)
//! experiments classify "r=1 x=3 y=4 t=4"       # Theorem 3.1 verdict
//! experiments solve    "r=1 x=3 y=1 tau=2" [--segments N]
//! ```

use rv_core::analysis::phase_bound;
use rv_core::{classify, solve, solve_dedicated, Budget};
use rv_experiments::exp::{run_one, ALL_IDS};
use rv_experiments::report::Ctx;
use rv_experiments::workloads::Scale;
use rv_model::Instance;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("classify") => cmd_classify(&args[1..]),
        Some("solve") => cmd_solve(&args[1..]),
        _ => cmd_experiments(&args),
    }
}

/// Splits `args` into (instance tokens, flag tokens with their values).
fn split_flags(args: &[String]) -> (Vec<String>, Vec<String>) {
    let mut inst = Vec::new();
    let mut flags = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(a) = iter.next() {
        if a.starts_with("--") {
            flags.push(a.clone());
            if let Some(v) = iter.peek() {
                if !v.starts_with("--") && !v.contains('=') {
                    flags.push(iter.next().unwrap().clone());
                }
            }
        } else {
            inst.push(a.clone());
        }
    }
    (inst, flags)
}

fn parse_instance(args: &[String]) -> Instance {
    let text = args.to_vec().join(" ");
    text.parse().unwrap_or_else(|e| {
        eprintln!("cannot parse instance {text:?}: {e}");
        eprintln!("example: r=1 x=3 y=4/3 phi=1/2pi tau=1 v=1 t=2 chi=-1");
        std::process::exit(2);
    })
}

fn cmd_classify(args: &[String]) {
    let (inst_args, _) = split_flags(args);
    let inst = parse_instance(&inst_args);
    let class = classify(&inst);
    println!("instance      : {inst}");
    println!("classification: {class}");
    println!("feasible      : {}", class.feasible());
    println!("AUR-guaranteed: {}", class.aur_guaranteed());
    if let Some(bound) = phase_bound(&inst) {
        println!("phase bound   : {bound} (worst case, Lemmas 3.2–3.5)");
    }
    println!("dist          : {:.6}", inst.initial_dist());
    println!("dist(proj)    : {:.6}", inst.proj_dist());
}

fn cmd_solve(args: &[String]) {
    let (inst_args, flags) = split_flags(args);
    let inst = parse_instance(&inst_args);
    let mut budget = Budget::default();
    let mut iter = flags.iter();
    while let Some(a) = iter.next() {
        if a == "--segments" {
            let n = iter.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("--segments needs a number");
                std::process::exit(2);
            });
            budget = budget.segments(n);
        }
    }
    println!("instance      : {inst}  [{}]", classify(&inst));
    let start = Instant::now();
    let report = solve(&inst, &budget);
    println!(
        "AlmostUniversalRV: {} ({} segments, {:.2?} wall)",
        report.outcome,
        report.segments,
        start.elapsed()
    );
    if !report.met() {
        println!("  closest approach: {:.6}", report.min_dist);
    }
    let ded = solve_dedicated(&inst, &budget);
    println!("dedicated        : {}", ded.outcome);
}

fn cmd_experiments(args: &[String]) {
    let mut ids: Vec<String> = Vec::new();
    let mut scale = Scale::full();
    let mut out_dir = String::from("results");
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::quick(),
            "--out" => out_dir = iter.next().expect("--out needs a directory").clone(),
            "all" => ids.extend(ALL_IDS.iter().map(|s| s.to_string())),
            id if ALL_IDS.contains(&id) => ids.push(id.to_string()),
            other => {
                eprintln!("unknown argument {other:?}; known ids: {ALL_IDS:?}");
                std::process::exit(2);
            }
        }
    }
    if ids.is_empty() {
        ids.extend(ALL_IDS.iter().map(|s| s.to_string()));
    }

    let ctx = Ctx::new(&out_dir, scale);
    let mut summary = String::from("# Experiment summary\n\n");
    summary.push_str(&format!(
        "Scale: {} instances/family, {} / {} segment budgets.\n\n",
        ctx.scale.per_family, ctx.scale.success_segments, ctx.scale.failure_segments
    ));
    let total = Instant::now();
    for id in &ids {
        let start = Instant::now();
        eprintln!("running {id} …");
        for output in run_one(id, &ctx) {
            let section = output.section();
            println!("{section}");
            summary.push_str(&section);
            summary.push('\n');
        }
        eprintln!("  {id} done in {:?}", start.elapsed());
    }
    // Wall time goes to stderr only, never into an artifact.
    ctx.write("summary.md", &summary);
    eprintln!("all done in {:?}; artifacts in {out_dir}/", total.elapsed());
}
