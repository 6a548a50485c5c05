//! T5 — the CGKK contract (Section 2, procedure from \[18\]).
//!
//! Our reconstructed `CGKK` must achieve rendezvous for every simultaneous
//! start (`t = 0`) instance that is non-synchronous or rotated with equal
//! chirality — and must *fail* on the glide-reflection control family
//! (`τ = v = 1, χ = −1`, projections farther apart than `r`), which is
//! infeasible at `t = 0` and excluded from the contract.

use crate::report::{Ctx, ExperimentOutput};
use crate::runner::{Campaign, FixedPair, SummaryExt};
use crate::table::Table;
use crate::util::fnum;
use crate::workloads::sample;
use rv_baselines::cgkk;
use rv_core::Budget;
use rv_model::{Instance, TargetClass};
use rv_numeric::Ratio;

/// Zeroes the delay (CGKK's contract requires simultaneous start).
fn with_zero_delay(instances: Vec<Instance>) -> Vec<Instance> {
    instances
        .into_iter()
        .map(|inst| Instance {
            t: Ratio::zero(),
            ..inst
        })
        .collect()
}

/// Runs the experiment.
pub fn run(ctx: &Ctx) -> ExperimentOutput {
    let n = ctx.scale.per_family / 2;
    let families: [(&str, Vec<Instance>, bool); 4] = [
        (
            "clock mismatch (τ ≠ 1)",
            with_zero_delay(sample(TargetClass::Type3, n, 0x75_0001)),
            true,
        ),
        (
            "speed mismatch (v ≠ 1)",
            with_zero_delay(sample(TargetClass::Type4Speed, n, 0x75_0002)),
            true,
        ),
        (
            "rotation (φ ≠ 0, χ = +1)",
            with_zero_delay(sample(TargetClass::Type4Rotation, n, 0x75_0003)),
            true,
        ),
        (
            "control: glide reflection (χ = −1, sync)",
            with_zero_delay(sample(TargetClass::InfeasibleMirror, n, 0x75_0004)),
            false,
        ),
    ];

    let mut table = Table::new([
        "family",
        "in CGKK contract",
        "met",
        "median time",
        "min dist / r",
    ]);
    let mut stats = Vec::new();

    for (name, instances, in_contract) in families {
        let budget = if in_contract {
            Budget::default().segments(ctx.scale.success_segments)
        } else {
            Budget::default().segments(ctx.scale.failure_segments)
        };
        let report =
            Campaign::new(FixedPair::symmetric("cgkk", |_| cgkk()), budget).run(&instances);
        let s = &report.stats;
        table.row([
            name.to_string(),
            if in_contract {
                "yes".into()
            } else {
                "no".into()
            },
            s.rate(),
            s.median_time_str(),
            fnum(s.min_dist_over_r),
        ]);
        stats.push((name.to_string(), report.stats));
    }

    ctx.write("t5_cgkk_contract.md", &table.to_markdown());
    ctx.write("t5_cgkk_contract.csv", &table.to_csv());
    ctx.write_stats_json("t5_stats.json", "t5", &stats);

    let markdown = format!(
        "Contract validation of the reconstructed CGKK procedure \
         (substitution note in crates/baselines/src/cgkk.rs): rendezvous on \
         all t = 0 instances that are \
         non-synchronous or rotated with equal chirality; no rendezvous on \
         the excluded glide-reflection family.\n\n{}",
        table.to_markdown()
    );
    ExperimentOutput {
        id: "t5",
        title: "CGKK contract validation",
        markdown,
        artifacts: vec![
            "t5_cgkk_contract.md".into(),
            "t5_cgkk_contract.csv".into(),
            "t5_stats.json".into(),
        ],
    }
}
