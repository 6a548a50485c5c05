//! The batch-campaign engine: run a [`Solver`] over many instances in
//! parallel and aggregate the outcomes.
//!
//! A [`Campaign`] bundles a first-class solver (any [`Solver`] impl — the
//! bundled [`crate::Aur`] / [`crate::Dedicated`] / [`crate::FixedPair`],
//! or your own), a per-run [`Budget`], a worker count, and an optional
//! streaming [`RecordSink`]. Running it over an instance slice (or a
//! seed-indexed generator, via [`Campaign::run_seeded`]) produces one
//! distilled [`RunRecord`] per instance plus aggregate [`CampaignStats`].
//! Because the solver is type-erased behind an `Arc`, campaigns are plain
//! storable, clonable values.
//!
//! Aggregation is an explicit monoid: [`StatsAccumulator`] folds records
//! one [`push`](StatsAccumulator::push) at a time, two accumulators
//! [`merge`](StatsAccumulator::merge), and
//! [`finish`](StatsAccumulator::finish) produces the [`CampaignStats`].
//! Merging the accumulators of *any* partition of a record stream yields
//! stats byte-identical to a single-shot fold — the invariant the
//! executor layer ([`crate::exec`]) builds on to scatter campaigns across
//! processes and hosts (and to re-scatter failed shards) without changing
//! a single output byte.
//!
//! Determinism: records land in *input order* (the parallel map returns
//! results in index order, see [`crate::parallel`]), every instance is
//! identified by its index, and all statistics are folded from that
//! ordered record stream — so a campaign's output is a pure function of
//! `(instances, budget, solver)`, independent of the number of threads or
//! how the OS schedules them. Seed-indexed workloads should derive
//! per-index seeds with [`mix_seed`], which (unlike a plain xor) maps
//! distinct `(seed, index)` pairs to well-separated RNG seeds.

use crate::json;
use crate::parallel::par_map;
use crate::solver::{Aur, Dedicated, Solver};
use crate::stream::RecordSink;
use crate::Budget;
use rv_model::{classify, Classification, Instance};
use rv_sim::SimReport;
use std::sync::Arc;

/// The SplitMix64 finalizer: bijective, full-avalanche.
fn splitmix_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64-style seed derivation: mixes `(seed, index)` into a single
/// 64-bit RNG seed with full avalanche, so neighbouring indices (and
/// neighbouring campaign seeds) produce unrelated streams. Index 0 does
/// **not** reuse `seed` verbatim.
///
/// Each input is finalized separately (with distinct offset constants)
/// before the combination is finalized again — folding the pair into one
/// word *first* would leave a linear collision class
/// (`mix(s, i+1) == mix(s+c, i)`), the kind of structure the old
/// `seed ^ i·GOLDEN` scheme suffered from.
pub fn mix_seed(seed: u64, index: u64) -> u64 {
    let a = splitmix_finalize(seed.wrapping_add(0x9e37_79b9_7f4a_7c15));
    let b = splitmix_finalize(index.wrapping_add(0xd1b5_4a32_d192_ed03));
    splitmix_finalize(a ^ b)
}

/// Distilled result of one campaign run (everything the aggregate stats
/// and the experiment tables need, nothing else — a few dozen bytes, so
/// million-run campaigns stay cheap to hold).
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Taxonomy class of the instance.
    pub class: Classification,
    /// Whether the instance is feasible at all (Theorem 3.1; see
    /// [`crate::recommend`]). Infeasible runs are *expected* to miss, and
    /// stats keep them visible via [`CampaignStats::infeasible`].
    pub feasible: bool,
    /// Whether rendezvous happened.
    pub met: bool,
    /// Simulated meeting time (`None` when not met).
    pub time: Option<f64>,
    /// Motion segments processed.
    pub segments: u64,
    /// Minimum distance observed over the run.
    pub min_dist: f64,
    /// The instance's visibility radius (for min-dist normalisation).
    pub radius: f64,
}

impl RunRecord {
    /// Distils a full simulation report.
    pub fn from_report(inst: &Instance, report: &SimReport) -> RunRecord {
        let class = classify(inst);
        RunRecord {
            class,
            feasible: class.feasible(),
            met: report.met(),
            time: report.meeting_time(),
            segments: report.segments,
            min_dist: report.min_dist,
            radius: inst.r.to_f64(),
        }
    }

    /// `min_dist / radius`; < 1 means the run got inside the radius.
    pub fn min_dist_over_r(&self) -> f64 {
        self.min_dist / self.radius
    }

    /// Renders the record as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"class\": {}, \"feasible\": {}, \"met\": {}, \"time\": {}, \
             \"segments\": {}, \"min_dist_over_r\": {}}}",
            json::string(self.class.name()),
            self.feasible,
            self.met,
            json::opt_f64(self.time),
            self.segments,
            json::f64(self.min_dist_over_r()),
        )
    }
}

/// Aggregate statistics of a campaign, folded from the index-ordered
/// record stream (scheduling-independent by construction). Produced by
/// [`StatsAccumulator::finish`] / [`CampaignStats::of`].
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignStats {
    /// Number of runs.
    pub n: usize,
    /// Number of successful rendezvous.
    pub met: usize,
    /// Number of runs on infeasible instances (expected misses; a high
    /// count explains a low met-rate without any solver defect).
    pub infeasible: usize,
    /// Median meeting time over successful runs.
    pub median_time: Option<f64>,
    /// 90th-percentile meeting time over successful runs.
    pub p90_time: Option<f64>,
    /// Maximum meeting time over successful runs.
    pub max_time: Option<f64>,
    /// Median segments over all runs.
    pub median_segments: u64,
    /// 90th-percentile segments over all runs.
    pub p90_segments: u64,
    /// Maximum segments over all runs.
    pub max_segments: u64,
    /// Minimum over runs of `min_dist / radius` (`inf` for empty
    /// campaigns); < 1 means some run got inside the radius.
    pub min_dist_over_r: f64,
    /// Per-taxonomy-class breakdown, in fixed taxonomy order.
    pub per_class: Vec<ClassStats>,
}

/// Aggregate statistics of one taxonomy class within a campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassStats {
    /// The class.
    pub class: Classification,
    /// Runs of this class.
    pub n: usize,
    /// Successful rendezvous of this class.
    pub met: usize,
    /// Median meeting time over this class's successful runs.
    pub median_time: Option<f64>,
}

impl ClassStats {
    /// Renders the class breakdown as a JSON object.
    pub fn to_json(&self) -> String {
        format!("{{{}}}", self.json_fields(json::opt_f64))
    }

    /// The breakdown's JSON fields, without braces, with `opt` rendering
    /// the optional float (shared with the wire's `campaign_report`
    /// line).
    pub(crate) fn json_fields(&self, opt: fn(Option<f64>) -> String) -> String {
        format!(
            "\"class\": {}, \"n\": {}, \"met\": {}, \"median_time\": {}",
            json::string(self.class.name()),
            self.n,
            self.met,
            opt(self.median_time)
        )
    }
}

/// Fixed presentation order for per-class breakdowns (deterministic
/// regardless of which classes a workload happens to contain), and the
/// order of [`StatsAccumulator`]'s per-class buckets.
pub(crate) const CLASS_ORDER: [Classification; 8] = [
    Classification::Trivial,
    Classification::Type1,
    Classification::Type2,
    Classification::Type3,
    Classification::Type4,
    Classification::ExceptionS1,
    Classification::ExceptionS2,
    Classification::Infeasible,
];

/// Nearest-rank quantile: the smallest value with at least `num/den` of
/// the data at or below it (`⌈len·num/den⌉`-th smallest).
fn rank(len: usize, num: usize, den: usize) -> usize {
    ((len * num).div_ceil(den)).saturating_sub(1)
}

/// Upper median position (the `len/2`-th order statistic), matching the
/// pre-campaign table code so refactored experiments report identical
/// medians.
const MEDIAN: fn(usize) -> usize = |len| len / 2;
/// Nearest-rank 90th-percentile position.
const P90: fn(usize) -> usize = |len| rank(len, 9, 10);
/// Maximum position.
const MAX: fn(usize) -> usize = |len| len - 1;

/// The order statistic at position `at(len)` under `cmp`, via linear-time
/// selection instead of a full sort. Under a total order (`Ord`, or
/// `total_cmp` for `f64`, whose equality means equal bits) the `k`-th
/// smallest element of a multiset is unique, so every quantile matches
/// what sort-then-index produces. `None` on empty input — callers decide
/// how to render the absence, it is never silently a number.
fn select<T: Copy>(
    values: &mut [T],
    at: fn(usize) -> usize,
    cmp: fn(&T, &T) -> std::cmp::Ordering,
) -> Option<T> {
    if values.is_empty() {
        return None;
    }
    Some(*values.select_nth_unstable_by(at(values.len()), cmp).1)
}

/// Incremental, mergeable aggregation state over [`RunRecord`] streams.
///
/// `(StatsAccumulator, merge)` is a commutative monoid with
/// [`StatsAccumulator::new`] as identity: quantiles are computed from the
/// full value multisets at [`finish`](StatsAccumulator::finish) time (the
/// sort erases accumulation order), counts and the min-ratio fold are
/// order-free. Consequently, folding any partition of a record stream
/// shard-by-shard and merging gives stats *byte-identical* to folding the
/// whole stream at once — the contract sharded campaigns rely on, and the
/// one the `stats_merge` property suite pins down.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsAccumulator {
    n: usize,
    met: usize,
    infeasible: usize,
    times: Vec<f64>,
    segments: Vec<u64>,
    min_ratio: f64,
    /// (n, met, times) per [`CLASS_ORDER`] slot.
    buckets: [(usize, usize, Vec<f64>); CLASS_ORDER.len()],
}

impl Default for StatsAccumulator {
    fn default() -> StatsAccumulator {
        StatsAccumulator::new()
    }
}

impl StatsAccumulator {
    /// The empty accumulator (the monoid identity).
    pub fn new() -> StatsAccumulator {
        StatsAccumulator {
            n: 0,
            met: 0,
            infeasible: 0,
            times: Vec::new(),
            segments: Vec::new(),
            min_ratio: f64::INFINITY,
            buckets: std::array::from_fn(|_| (0, 0, Vec::new())),
        }
    }

    /// Folds `records` into a fresh accumulator, in iteration order —
    /// how every holder of a record stream (an in-process campaign, the
    /// pool gather, a cache load) gets its stats.
    pub fn of<'a, I>(records: I) -> StatsAccumulator
    where
        I: IntoIterator<Item = &'a RunRecord>,
        I::IntoIter: ExactSizeIterator,
    {
        let records = records.into_iter();
        let mut acc = StatsAccumulator::new();
        acc.reserve(records.len());
        for rec in records {
            acc.push(rec);
        }
        acc
    }

    /// Pre-reserves push-side capacity for `additional` more records
    /// (every per-record vector is bounded by the record count).
    pub fn reserve(&mut self, additional: usize) {
        self.times.reserve(additional);
        self.segments.reserve(additional);
    }

    /// Folds one record in.
    pub fn push(&mut self, rec: &RunRecord) {
        self.n += 1;
        if rec.met {
            self.met += 1;
        }
        if !rec.feasible {
            self.infeasible += 1;
        }
        if let Some(t) = rec.time {
            self.times.push(t);
        }
        self.segments.push(rec.segments);
        self.min_ratio = self.min_ratio.min(rec.min_dist_over_r());
        let slot = CLASS_ORDER
            .iter()
            .position(|&c| c == rec.class)
            .expect("CLASS_ORDER covers every classification");
        self.buckets[slot].0 += 1;
        if rec.met {
            self.buckets[slot].1 += 1;
        }
        if let Some(t) = rec.time {
            self.buckets[slot].2.push(t);
        }
    }

    /// Combines two accumulators (the monoid operation). Associative, and
    /// commutative up to [`finish`](StatsAccumulator::finish) — quantile
    /// sorts erase concatenation order.
    pub fn merge(mut self, other: StatsAccumulator) -> StatsAccumulator {
        self.n += other.n;
        self.met += other.met;
        self.infeasible += other.infeasible;
        self.times.extend(other.times);
        self.segments.extend(other.segments);
        self.min_ratio = self.min_ratio.min(other.min_ratio);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
            mine.2.extend(theirs.2);
        }
        self
    }

    /// Number of records folded in so far.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no record has been folded in yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Selects the quantiles out of the value multisets and produces the
    /// aggregate stats (linear-time selection; no full sorts).
    pub fn finish(self) -> CampaignStats {
        let StatsAccumulator {
            n,
            met,
            infeasible,
            mut times,
            mut segments,
            min_ratio,
            mut buckets,
        } = self;

        let per_class = CLASS_ORDER
            .iter()
            .zip(&mut buckets)
            .filter(|(_, (cn, _, _))| *cn > 0)
            .map(|(&class, (cn, cmet, class_times))| ClassStats {
                class,
                n: *cn,
                met: *cmet,
                median_time: select(class_times, MEDIAN, f64::total_cmp),
            })
            .collect();

        CampaignStats {
            n,
            met,
            infeasible,
            median_time: select(&mut times, MEDIAN, f64::total_cmp),
            p90_time: select(&mut times, P90, f64::total_cmp),
            max_time: select(&mut times, MAX, f64::total_cmp),
            // The u64 quantiles are `None` only for an empty campaign;
            // the report schema renders that as 0 (an explicit decision
            // here, not a default buried in the helper).
            median_segments: select(&mut segments, MEDIAN, u64::cmp).unwrap_or(0),
            p90_segments: select(&mut segments, P90, u64::cmp).unwrap_or(0),
            max_segments: select(&mut segments, MAX, u64::cmp).unwrap_or(0),
            min_dist_over_r: min_ratio,
            per_class,
        }
    }
}

impl CampaignStats {
    /// Folds the aggregate from an ordered record stream: one
    /// [`StatsAccumulator`] pass plus the quantile selections.
    pub fn of(records: &[RunRecord]) -> CampaignStats {
        StatsAccumulator::of(records).finish()
    }

    /// `met/n` as a display string.
    pub fn rate(&self) -> String {
        format!("{}/{}", self.met, self.n)
    }

    /// Renders the aggregate as a JSON object (schema 2: includes the
    /// `infeasible` count; non-finite floats become `null`).
    pub fn to_json(&self) -> String {
        self.json_with(json::f64, json::opt_f64)
    }

    /// Renders the aggregate as a JSON object with `float` and `opt`
    /// rendering its floats: the artifact form above passes the
    /// `null`-collapsing [`json`] encoders, the wire's `campaign_report`
    /// line its lossless sentinels.
    pub(crate) fn json_with(
        &self,
        float: fn(f64) -> String,
        opt: fn(Option<f64>) -> String,
    ) -> String {
        let per_class: Vec<String> = self
            .per_class
            .iter()
            .map(|cs| format!("{{{}}}", cs.json_fields(opt)))
            .collect();
        format!(
            "{{\"n\": {}, \"met\": {}, \"infeasible\": {}, \
             \"median_time\": {}, \"p90_time\": {}, \"max_time\": {}, \
             \"median_segments\": {}, \"p90_segments\": {}, \"max_segments\": {}, \
             \"min_dist_over_r\": {}, \"per_class\": [{}]}}",
            self.n,
            self.met,
            self.infeasible,
            opt(self.median_time),
            opt(self.p90_time),
            opt(self.max_time),
            self.median_segments,
            self.p90_segments,
            self.max_segments,
            float(self.min_dist_over_r),
            per_class.join(", ")
        )
    }
}

/// The full output of a campaign: per-run records in input order plus the
/// aggregate fold over them.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignReport {
    /// One record per instance, in input (index) order.
    pub records: Vec<RunRecord>,
    /// Aggregate statistics.
    pub stats: CampaignStats,
}

impl CampaignReport {
    fn of(records: Vec<RunRecord>) -> CampaignReport {
        let stats = CampaignStats::of(&records);
        CampaignReport { records, stats }
    }

    /// Renders the whole report (schema version, aggregate stats, and the
    /// per-run record array in input order) as a JSON object.
    pub fn to_json(&self) -> String {
        let records: Vec<String> = self.records.iter().map(RunRecord::to_json).collect();
        format!(
            "{{\"schema\": 2, \"stats\": {}, \"records\": [{}]}}",
            self.stats.to_json(),
            records.join(", ")
        )
    }
}

/// A batch campaign: a first-class solver + per-run budget + parallelism
/// (+ an optional streaming sink). A plain value — clonable, storable,
/// shippable across threads — because the solver is an `Arc<dyn Solver>`
/// rather than a type parameter.
///
/// ```
/// use rv_core::batch::Campaign;
/// use rv_core::Budget;
/// use rv_model::Instance;
/// use rv_numeric::ratio;
///
/// let instances: Vec<Instance> = (0..8)
///     .map(|k| {
///         Instance::builder()
///             .position(ratio(3 + k, 1), ratio(0, 1))
///             .tau(ratio(2, 1))
///             .build()
///             .unwrap()
///     })
///     .collect();
/// let report = Campaign::aur(Budget::default().segments(300_000)).run(&instances);
/// assert_eq!(report.stats.n, 8);
/// assert_eq!(report.stats.met, 8); // type 3 is AUR-guaranteed
/// ```
#[derive(Clone)]
pub struct Campaign {
    solver: Arc<dyn Solver>,
    budget: Budget,
    threads: usize,
    sink: Option<Arc<dyn RecordSink>>,
}

impl Campaign {
    /// Campaign running an arbitrary [`Solver`] value.
    pub fn new(solver: impl Solver + 'static, budget: Budget) -> Campaign {
        Campaign {
            solver: Arc::new(solver),
            budget,
            threads: 0,
            sink: None,
        }
    }

    /// Campaign running `AlmostUniversalRV` on both agents
    /// ([`crate::Aur`]).
    pub fn aur(budget: Budget) -> Campaign {
        Campaign::new(Aur, budget)
    }

    /// Campaign running the per-instance dedicated algorithm
    /// ([`crate::Dedicated`]).
    pub fn dedicated(budget: Budget) -> Campaign {
        Campaign::new(Dedicated, budget)
    }

    /// Sets the worker count (`0` = all available cores, the default).
    pub fn threads(mut self, threads: usize) -> Campaign {
        self.threads = threads;
        self
    }

    /// Attaches a streaming [`RecordSink`]: workers report every finished
    /// run to it as the run lands (see [`crate::stream`]).
    pub fn sink(mut self, sink: impl RecordSink + 'static) -> Campaign {
        self.sink = Some(Arc::new(sink));
        self
    }

    /// [`Campaign::sink`] for an already-shared sink (e.g. a
    /// [`crate::stream::VecSink`] the caller wants to keep a handle to).
    pub fn sink_arc(mut self, sink: Arc<dyn RecordSink>) -> Campaign {
        self.sink = Some(sink);
        self
    }

    /// The solver's machine-friendly name (for labels and artifacts).
    pub fn solver_name(&self) -> &str {
        self.solver.name()
    }

    /// One record: solve, distill, notify the sink.
    fn run_one(&self, index: usize, inst: &Instance) -> RunRecord {
        let rec = RunRecord::from_report(inst, &self.solver.solve(inst, &self.budget));
        if let Some(sink) = &self.sink {
            sink.record(index, &rec);
        }
        rec
    }

    /// Runs the campaign over a materialised instance slice.
    pub fn run(&self, instances: &[Instance]) -> CampaignReport {
        CampaignReport::of(par_map(self.threads, instances.len(), |i| {
            self.run_one(i, &instances[i])
        }))
    }

    /// Runs the campaign over a seed-indexed instance stream: `gen(i)`
    /// builds instance `i` *inside the worker*, so arbitrarily large
    /// campaigns never hold more than the distilled records. Combine with
    /// [`mix_seed`] for deterministic per-index RNG seeds.
    pub fn run_seeded<G>(&self, n: usize, gen: G) -> CampaignReport
    where
        G: Fn(usize) -> Instance + Sync,
    {
        CampaignReport::of(self.records_seeded(n, gen))
    }

    /// [`Campaign::run_seeded`] without the report: the records in index
    /// order, for callers that fold their own stats (a worker's unit, an
    /// executor's cache write-through).
    pub fn records_seeded<G>(&self, n: usize, gen: G) -> Vec<RunRecord>
    where
        G: Fn(usize) -> Instance + Sync,
    {
        par_map(self.threads, n, |i| self.run_one(i, &gen(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::solve_dedicated;
    use crate::solver::FixedPair;
    use crate::stream::{ChannelSink, VecSink};
    use rv_numeric::{ratio, Ratio};

    fn type3(k: i64) -> Instance {
        Instance::builder()
            .position(
                &ratio(2, 1) + &(&ratio(1, 4) * &Ratio::from_int(k)),
                ratio(1, 2),
            )
            .r(ratio(2, 1))
            .tau(ratio(2, 1))
            .build()
            .unwrap()
    }

    #[test]
    fn aur_campaign_meets_type3() {
        let instances: Vec<Instance> = (0..6).map(type3).collect();
        let report = Campaign::aur(Budget::default().segments(300_000)).run(&instances);
        assert_eq!(report.stats.n, 6);
        assert_eq!(report.stats.met, 6);
        assert_eq!(report.stats.infeasible, 0);
        assert_eq!(report.stats.rate(), "6/6");
        assert!(report.stats.median_time.is_some());
        assert_eq!(report.stats.per_class.len(), 1);
        assert_eq!(report.stats.per_class[0].class, Classification::Type3);
        assert_eq!(report.stats.per_class[0].met, 6);
    }

    #[test]
    fn campaigns_are_plain_clonable_values() {
        // The whole point of dropping the type parameter: campaigns with
        // *different* solvers share one type and can live in collections.
        let budget = Budget::default().segments(50_000);
        let fleet: Vec<Campaign> = vec![
            Campaign::aur(budget.clone()),
            Campaign::dedicated(budget.clone()),
            Campaign::new(
                FixedPair::symmetric("stay-put", |_| std::iter::empty()),
                budget,
            ),
        ];
        let names: Vec<&str> = fleet.iter().map(Campaign::solver_name).collect();
        assert_eq!(names, ["aur", "dedicated", "stay-put"]);
        let cloned = fleet[0].clone();
        let instances: Vec<Instance> = (0..3).map(type3).collect();
        assert_eq!(cloned.run(&instances), fleet[0].run(&instances));
    }

    #[test]
    fn run_and_run_seeded_agree() {
        let instances: Vec<Instance> = (0..10).map(type3).collect();
        let campaign = Campaign::aur(Budget::default().segments(100_000));
        let a = campaign.run(&instances);
        let b = campaign.run_seeded(instances.len(), |i| instances[i].clone());
        assert_eq!(a, b);
        let records = campaign.records_seeded(instances.len(), |i| instances[i].clone());
        assert_eq!(records, b.records);
    }

    #[test]
    fn thread_counts_do_not_change_the_report() {
        let instances: Vec<Instance> = (0..12).map(type3).collect();
        let budget = Budget::default().segments(100_000);
        let one = Campaign::aur(budget.clone()).threads(1).run(&instances);
        for threads in [2, 4, 0] {
            let multi = Campaign::aur(budget.clone())
                .threads(threads)
                .run(&instances);
            assert_eq!(one, multi);
        }
    }

    #[test]
    fn custom_solver_runs_pairs() {
        // Empty programs: only the trivial instance meets.
        let far = Instance::builder()
            .position(ratio(5, 1), Ratio::zero())
            .r(Ratio::one())
            .delay(ratio(5, 1))
            .build()
            .unwrap();
        let near = Instance::builder()
            .position(ratio(1, 2), Ratio::zero())
            .r(Ratio::one())
            .build()
            .unwrap();
        let report = Campaign::new(
            FixedPair::symmetric("stay-put", |_| std::iter::empty()),
            Budget::default().segments(100),
        )
        .run(&[far, near]);
        assert_eq!(report.stats.met, 1);
        assert!(!report.records[0].met);
        assert!(report.records[1].met);
    }

    #[test]
    fn infeasible_runs_are_counted_not_hidden() {
        // One infeasible instance (sync shifts, t = 0 < dist − r) among
        // feasible type-3 ones: the record carries feasible: false and
        // the aggregate surfaces the count.
        let bad = Instance::builder()
            .position(ratio(5, 1), Ratio::zero())
            .r(Ratio::one())
            .build()
            .unwrap();
        let instances = vec![type3(0), bad, type3(1)];
        let report = Campaign::dedicated(Budget::default().segments(50_000)).run(&instances);
        assert!(report.records[0].feasible);
        assert!(!report.records[1].feasible);
        assert!(!report.records[1].met);
        assert_eq!(report.stats.infeasible, 1);
        assert_eq!(report.stats.met, 2);
    }

    #[test]
    fn empty_campaign_is_well_defined() {
        let report = Campaign::aur(Budget::default()).run(&[]);
        assert_eq!(report.stats.n, 0);
        assert_eq!(report.stats.infeasible, 0);
        assert_eq!(report.stats.median_time, None);
        assert_eq!(report.stats.median_segments, 0);
        assert!(report.stats.min_dist_over_r.is_infinite());
        assert!(report.stats.per_class.is_empty());
    }

    #[test]
    fn empty_quantiles_are_none_not_zero() {
        // The helper must make the empty case explicit; the 0 in the
        // report schema is finish()'s rendering decision, not a silent
        // default that could mask a lost shard.
        for at in [MEDIAN, P90, MAX] {
            assert_eq!(select(&mut [], at, u64::cmp), None);
            assert_eq!(select(&mut [], at, f64::total_cmp), None);
            // One record: every quantile is that record.
            assert_eq!(select(&mut [7], at, u64::cmp), Some(7));
        }
        let empty = StatsAccumulator::new().finish();
        assert_eq!(empty.median_segments, 0);
        assert_eq!(empty.p90_segments, 0);
        assert_eq!(empty.max_segments, 0);
        assert_eq!(empty.median_time, None);
        assert_eq!(empty.p90_time, None);
        assert_eq!(empty.max_time, None);
    }

    #[test]
    fn selection_quantiles_match_sorted_extraction() {
        // The select_nth path must agree with the definitional
        // sort-then-index quantiles on awkward sizes (1, 2, 9, 10, 11),
        // including duplicate-heavy data.
        for n in [1usize, 2, 3, 9, 10, 11, 64] {
            let vals: Vec<u64> = (0..n as u64).map(|k| (k * 7919) % 13).collect();
            let mut sorted = vals.clone();
            sorted.sort_unstable();
            let mut scratch = vals.clone();
            assert_eq!(
                select(&mut scratch, MEDIAN, u64::cmp),
                Some(sorted[n / 2]),
                "n={n}"
            );
            let mut scratch = vals.clone();
            assert_eq!(
                select(&mut scratch, P90, u64::cmp),
                Some(sorted[rank(n, 9, 10)]),
                "n={n}"
            );
            let mut scratch = vals.clone();
            assert_eq!(
                select(&mut scratch, MAX, u64::cmp),
                Some(sorted[n - 1]),
                "n={n}"
            );

            let fvals: Vec<f64> = vals.iter().map(|&v| v as f64 / 3.0).collect();
            let mut fsorted = fvals.clone();
            fsorted.sort_by(f64::total_cmp);
            let mut scratch = fvals.clone();
            assert_eq!(
                select(&mut scratch, MEDIAN, f64::total_cmp).map(f64::to_bits),
                Some(fsorted[n / 2].to_bits()),
                "n={n}"
            );
            let mut scratch = fvals.clone();
            assert_eq!(
                select(&mut scratch, P90, f64::total_cmp).map(f64::to_bits),
                Some(fsorted[rank(n, 9, 10)].to_bits()),
                "n={n}"
            );
        }
    }

    #[test]
    fn accumulator_merge_matches_single_shot_fold() {
        let instances: Vec<Instance> = (0..9).map(type3).collect();
        let campaign = Campaign::aur(Budget::default().segments(100_000));
        let full = campaign.run(&instances);

        // Shard the record stream at every split point: merged stats must
        // be byte-identical to the single-shot fold.
        for split in 0..=full.records.len() {
            let (left, right) = full.records.split_at(split);
            let mut a = StatsAccumulator::new();
            left.iter().for_each(|r| a.push(r));
            let mut b = StatsAccumulator::new();
            right.iter().for_each(|r| b.push(r));
            assert_eq!(a.len() + b.len(), full.records.len());
            let merged = a.merge(b).finish();
            assert_eq!(merged, full.stats, "split at {split}");
            assert_eq!(format!("{merged:?}"), format!("{:?}", full.stats));
        }

        // Identity on both sides.
        let mut acc = StatsAccumulator::new();
        assert!(acc.is_empty());
        full.records.iter().for_each(|r| acc.push(r));
        assert_eq!(
            acc.clone().merge(StatsAccumulator::new()).finish(),
            full.stats
        );
        assert_eq!(StatsAccumulator::new().merge(acc).finish(), full.stats);
    }

    #[test]
    fn accumulator_of_matches_push_by_push_fold() {
        let instances: Vec<Instance> = (0..7).map(type3).collect();
        let report = Campaign::aur(Budget::default().segments(100_000)).run(&instances);
        let mut pushed = StatsAccumulator::new();
        report.records.iter().for_each(|r| pushed.push(r));
        let folded = StatsAccumulator::of(&report.records);
        assert_eq!(format!("{folded:?}"), format!("{pushed:?}"));
        assert_eq!(folded.len(), report.records.len());
        assert_eq!(folded.finish(), report.stats);
        assert!(StatsAccumulator::of(&[]).is_empty());
    }

    #[test]
    fn sink_sees_every_record_exactly_once() {
        let instances: Vec<Instance> = (0..10).map(type3).collect();
        let budget = Budget::default().segments(50_000);
        for threads in [1, 3, 0] {
            let sink = Arc::new(VecSink::new());
            let report = Campaign::aur(budget.clone())
                .threads(threads)
                .sink_arc(sink.clone())
                .run(&instances);
            let mut seen = sink.take();
            seen.sort_by_key(|(i, _)| *i);
            assert_eq!(seen.len(), instances.len(), "threads = {threads}");
            for (i, (idx, rec)) in seen.iter().enumerate() {
                assert_eq!(*idx, i, "threads = {threads}");
                assert_eq!(rec, &report.records[i], "threads = {threads}");
            }
        }
    }

    #[test]
    fn channel_sink_streams_seeded_campaigns() {
        let instances: Vec<Instance> = (0..8).map(type3).collect();
        let (sink, rx) = ChannelSink::new();
        let campaign = Campaign::aur(Budget::default().segments(50_000)).sink(sink);
        let report = campaign.run_seeded(instances.len(), |i| instances[i].clone());
        // All sends happened during the run; drain the buffered channel.
        let mut seen: Vec<(usize, RunRecord)> = rx.try_iter().collect();
        seen.sort_by_key(|(i, _)| *i);
        assert_eq!(seen.len(), report.records.len());
        for (i, (idx, rec)) in seen.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(rec, &report.records[i]);
        }
    }

    // `mix_seed` edge-case coverage lives in `tests/edge_budgets.rs`.

    fn synthetic(time: Option<f64>, segments: u64) -> RunRecord {
        RunRecord {
            class: Classification::Type3,
            feasible: true,
            met: time.is_some(),
            time,
            segments,
            min_dist: 1.0,
            radius: 2.0,
        }
    }

    #[test]
    fn stats_quantiles_follow_sorted_order() {
        let records: Vec<RunRecord> = (0..10)
            .map(|i| synthetic(Some(i as f64), 100 - i as u64))
            .collect();
        let s = CampaignStats::of(&records);
        assert_eq!(s.median_time, Some(5.0));
        // Nearest-rank p90 of 10 values is the 9th smallest, not the max.
        assert_eq!(s.p90_time, Some(8.0));
        assert_eq!(s.max_time, Some(9.0));
        assert_eq!(s.median_segments, 96);
        assert_eq!(s.p90_segments, 99);
        assert_eq!(s.max_segments, 100);
        assert_eq!(s.min_dist_over_r, 0.5);
    }

    #[test]
    fn report_json_is_schema_2_and_balanced() {
        let records = vec![synthetic(Some(2.5), 10), synthetic(None, 40)];
        let report = CampaignReport::of(records);
        let json = report.to_json();
        assert!(json.starts_with("{\"schema\": 2, "));
        assert!(json.contains("\"infeasible\": 0"));
        assert!(json.contains("\"class\": \"type 3\""));
        assert!(json.contains("\"met\": true"));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
        // Non-finite floats must render as null (strict JSON).
        let empty = CampaignStats::of(&[]).to_json();
        assert!(empty.contains("\"min_dist_over_r\": null"));
    }

    #[test]
    fn legacy_solve_dedicated_matches_dedicated_campaign() {
        let instances: Vec<Instance> = (0..4).map(type3).collect();
        let budget = Budget::default().segments(50_000);
        let via_campaign = Campaign::dedicated(budget.clone()).run(&instances);
        let via_wrapper: Vec<RunRecord> = instances
            .iter()
            .map(|inst| RunRecord::from_report(inst, &solve_dedicated(inst, &budget)))
            .collect();
        assert_eq!(via_campaign.records, via_wrapper);
    }
}
