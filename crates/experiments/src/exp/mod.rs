//! The experiment suite: one module per table (`t1`..`t7`) or figure
//! (`f1`..`f10`) family of the reproduction.

pub mod f4_f5;
pub mod f9_f10;
pub mod figures_geometry;
pub mod sweeps;
pub mod t1;
pub mod t2;
pub mod t3;
pub mod t4;
pub mod t5;
pub mod t6;
pub mod t7;

use crate::report::{Ctx, ExperimentOutput};

/// Experiment ids in presentation order.
pub const ALL_IDS: [&str; 17] = [
    "t1", "t2", "t3", "t4", "t5", "t6", "t7", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9",
    "f10",
];

/// Runs one experiment by id.
pub fn run_one(id: &str, ctx: &Ctx) -> Vec<ExperimentOutput> {
    match id {
        "t1" => vec![t1::run(ctx)],
        "t2" => vec![t2::run(ctx)],
        "t3" => vec![t3::run(ctx)],
        "t4" => vec![t4::run(ctx)],
        "t5" => vec![t5::run(ctx)],
        "t6" => vec![t6::run(ctx)],
        "t7" => vec![t7::run(ctx)],
        "f1" => vec![figures_geometry::f1(ctx)],
        "f2" => vec![figures_geometry::f2(ctx)],
        "f3" => vec![figures_geometry::f3(ctx)],
        "f4" => vec![f4_f5::f4(ctx)],
        "f5" => vec![f4_f5::f5(ctx)],
        "f6" => vec![sweeps::f6(ctx)],
        "f7" => vec![sweeps::f7(ctx)],
        "f8" => vec![sweeps::f8(ctx)],
        "f9" => vec![f9_f10::f9(ctx)],
        "f10" => vec![f9_f10::f10(ctx)],
        other => panic!("unknown experiment id: {other}"),
    }
}
