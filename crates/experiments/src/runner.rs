//! Batch execution for experiments, built on [`rv_core::batch`].
//!
//! The bespoke per-experiment loops (and the old lock-per-item parallel
//! runner) are gone: every experiment constructs a [`Campaign`] — a
//! first-class [`Solver`] value + per-run budget + parallelism — and
//! consumes its records and aggregate stats. Baseline programs plug in as
//! [`FixedPair`] solvers (with [`Visibility`] for Section 5's per-agent
//! radii) rather than ad-hoc closures. This module only adds the
//! experiment-facing sugar: re-exports under the historical names and
//! display helpers for tables.

use crate::util::fnum;

pub use rv_core::batch::{
    Campaign, CampaignReport, CampaignStats as Summary, RunRecord as RunResult, StatsAccumulator,
};
pub use rv_core::{Aur, Dedicated, FixedPair, Solver, Visibility};

/// Table-display helpers for [`Summary`] (kept out of `rv-core`, which
/// stays formatting-free).
pub trait SummaryExt {
    /// Median time as a display string (or "—").
    fn median_time_str(&self) -> String;
    /// Max time as a display string (or "—").
    fn max_time_str(&self) -> String;
}

impl SummaryExt for Summary {
    fn median_time_str(&self) -> String {
        self.median_time.map(fnum).unwrap_or_else(|| "—".into())
    }

    fn max_time_str(&self) -> String {
        self.max_time.map(fnum).unwrap_or_else(|| "—".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_core::Budget;
    use rv_model::TargetClass;

    #[test]
    fn campaign_runs_and_summarises() {
        let instances = crate::workloads::sample(TargetClass::S1, 6, 11);
        let report = Campaign::new(Dedicated, Budget::default().segments(10_000)).run(&instances);
        let s = &report.stats;
        assert_eq!(s.n, 6);
        assert_eq!(s.met, 6, "dedicated beeline must meet all S1 instances");
        assert_eq!(s.infeasible, 0);
        assert!(s.median_time.is_some());
        assert_ne!(s.median_time_str(), "—");
        assert!(s.min_dist_over_r <= 1.0 + 1e-6);
    }
}
