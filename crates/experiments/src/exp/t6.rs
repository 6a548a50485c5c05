//! T6 — the Latecomers contract (Section 2, GATHER(2) from \[38\]) and the
//! delay-ratio sweep across the feasibility boundary.
//!
//! For shifted synchronous frames the contract is `t > dist − r`. We sweep
//! the ratio `ρ = t / (dist − r)` through the boundary: below 1 the
//! instance is infeasible (Lemma 3.8) and Latecomers must fail; above 1
//! it must meet, faster the larger the slack.

use crate::report::{Ctx, ExperimentOutput};
use crate::runner::{Campaign, FixedPair, SummaryExt};
use crate::table::Table;
use crate::util::fnum;
use rv_baselines::latecomers;
use rv_core::Budget;
use rv_model::{classify, Instance};
use rv_numeric::{ratio, Ratio};

const RATIOS: [(i64, i64); 8] = [
    (1, 4),
    (1, 2),
    (3, 4),
    (9, 10),
    (11, 10),
    (3, 2),
    (2, 1),
    (4, 1),
];

/// Geometry pool: off-grid displacement directions, mixed radii.
fn geometries(n: usize) -> Vec<(Ratio, Ratio, Ratio)> {
    (0..n)
        .map(|k| {
            let x = &ratio(3, 1) + &(&ratio(1, 8) * &Ratio::from_int((k % 10) as i64));
            let y = &ratio(1, 1) + &(&ratio(1, 4) * &Ratio::from_int((k % 7) as i64));
            let r = &ratio(1, 2) + &(&ratio(1, 8) * &Ratio::from_int((k % 5) as i64));
            (x, y, r)
        })
        .collect()
}

/// Runs the experiment.
pub fn run(ctx: &Ctx) -> ExperimentOutput {
    let per_point = (ctx.scale.per_family / 8).max(5);
    let geoms = geometries(per_point);
    let mut table = Table::new([
        "t / (dist − r)",
        "feasible",
        "met",
        "median time",
        "min dist / r",
    ]);
    let mut stats = Vec::new();

    for (p, q) in RATIOS {
        let rho = ratio(p, q);
        let feasible = p > q;
        let instances: Vec<Instance> = geoms
            .iter()
            .map(|(x, y, r)| {
                let base = Instance::builder()
                    .position(x.clone(), y.clone())
                    .r(r.clone())
                    .build()
                    .unwrap();
                let boundary = base.initial_dist() - base.r.to_f64();
                let t = Ratio::from_f64_exact(boundary).unwrap() * &rho;
                Instance { t, ..base }
            })
            .collect();
        for inst in &instances {
            assert_eq!(classify(inst).feasible(), feasible, "ρ={p}/{q}: {inst}");
        }
        let budget = if feasible {
            Budget::default().segments(ctx.scale.success_segments)
        } else {
            Budget::default().segments(ctx.scale.failure_segments)
        };
        let report = Campaign::new(FixedPair::symmetric("latecomers", |_| latecomers()), budget)
            .run(&instances);
        let s = &report.stats;
        table.row([
            format!("{p}/{q}"),
            if feasible { "yes".into() } else { "no".into() },
            s.rate(),
            s.median_time_str(),
            fnum(s.min_dist_over_r),
        ]);
        stats.push((format!("rho={p}/{q}"), report.stats));
    }

    ctx.write("t6_latecomers_contract.md", &table.to_markdown());
    ctx.write("t6_latecomers_contract.csv", &table.to_csv());
    ctx.write_stats_json("t6_stats.json", "t6", &stats);

    let markdown = format!(
        "Contract validation of the reconstructed Latecomers procedure \
         (substitution note in crates/baselines/src/latecomers.rs) with a \
         sweep of the delay across the feasibility \
         boundary t = dist − r: failure below, success above — the \
         crossover the theory demands.\n\n{}",
        table.to_markdown()
    );
    ExperimentOutput {
        id: "t6",
        title: "Latecomers contract and delay sweep",
        markdown,
        artifacts: vec![
            "t6_latecomers_contract.md".into(),
            "t6_latecomers_contract.csv".into(),
            "t6_stats.json".into(),
        ],
    }
}
