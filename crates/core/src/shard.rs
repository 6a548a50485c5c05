//! Cross-process campaign splitting: a reconstructible [`CampaignSpec`]
//! plus the index units worker processes execute against it, and the
//! one format a unit's answer travels and rests in.
//!
//! The protocol is deliberately tiny, built entirely on [`crate::wire`]
//! (schema-3 JSON lines; the normative session grammar lives in
//! `WIRE.md` at the repository root):
//!
//! 1. **Scatter** — [`plan_units`] splits `0..n` into contiguous units;
//!    the pool (see [`crate::exec::PoolExecutor`]) opens a session on
//!    each worker with one `campaign_spec` line and hands out units as
//!    [`UnitTask`] lines.
//! 2. **Answer** — a worker runs each unit ([`CampaignSpec::run_range`],
//!    records in index order) and answers on stdout with one `record`
//!    line per index ([`push_record_lines`]), tagged with the *global*
//!    campaign index, then a [`UnitTelemetry`] line and a [`UnitDone`]
//!    line that ends the unit, written once per unit.
//! 3. **Gather** — the executor reads the answer through a
//!    [`UnitReader`], which accepts the unit's records only in index
//!    order over exactly its range, forwards them to an optional
//!    [`crate::RecordSink`], folds them into the unit's
//!    [`crate::StatsAccumulator`], merges the unit accumulators in unit
//!    order, and finishes the merge once.
//!
//! A cache entry ([`crate::cache`]) holds the same body — the record
//! lines [`push_record_lines`] writes, then a `unit_done` line — and is
//! read back by the same [`UnitReader`], so a worker answer and a stored
//! entry are one format under one set of rules.
//!
//! **Determinism guarantee:** a campaign is a pure function of
//! `(spec, seed, n)` — instances come from
//! [`generate_seeded`]`(`[`mix_seed`]`(seed, index), class)`, records are
//! folded in index order, and the accumulator merge is partition-
//! invariant — so the gathered stats are **byte-identical** to the
//! single-process [`CampaignSpec::run_local`] run for *any* unit plan,
//! on *any* [`crate::exec::Executor`] backend, even after worker failures
//! and re-scattered units. The `executor_differential` suite pins
//! exactly that, subprocesses and fault injection included.

use crate::api::Budget;
use crate::batch::{mix_seed, Campaign, CampaignReport, RunRecord};
use crate::cache::CachedShard;
use crate::wire::{self, Line, WireError};
use rv_model::{generate_seeded, Instance, TargetClass};
use std::fmt;
use std::ops::Range;

/// Which bundled solver a shard runs. Arbitrary [`crate::Solver`] values
/// cannot cross a process boundary, so the wire format names one of the
/// closed set of reconstructible solvers instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverSpec {
    /// [`crate::Aur`] — `AlmostUniversalRV` on both agents.
    Aur,
    /// [`crate::Dedicated`] — the per-instance dedicated algorithm.
    Dedicated,
}

impl SolverSpec {
    /// Every valid wire name, in declaration order (what
    /// [`UnknownSolver`] lists back to the user).
    pub const NAMES: [&'static str; 2] = ["aur", "dedicated"];

    /// Stable wire name (round-trips through [`SolverSpec::from_name`]).
    pub fn name(self) -> &'static str {
        match self {
            SolverSpec::Aur => "aur",
            SolverSpec::Dedicated => "dedicated",
        }
    }

    /// Parses a wire name back, case-insensitively. The error names the
    /// rejected input *and* the valid set, so CLI and wire failures are
    /// self-explanatory.
    pub fn from_name(name: &str) -> Result<SolverSpec, UnknownSolver> {
        match name.to_ascii_lowercase().as_str() {
            "aur" => Ok(SolverSpec::Aur),
            "dedicated" => Ok(SolverSpec::Dedicated),
            _ => Err(UnknownSolver {
                given: name.to_string(),
            }),
        }
    }
}

/// Typed rejection of a solver name: carries what was given and displays
/// the full valid set ([`SolverSpec::NAMES`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownSolver {
    /// The rejected input, verbatim.
    pub given: String,
}

impl fmt::Display for UnknownSolver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown solver {:?} (valid: {})",
            self.given,
            SolverSpec::NAMES.join(", ")
        )
    }
}

impl std::error::Error for UnknownSolver {}

/// Which executor backend a campaign-service request asks for. Like
/// [`SolverSpec`], this is the closed, reconstructible subset that can
/// cross a process boundary: arbitrary [`crate::exec::Executor`] values
/// cannot travel over the wire, so a request names one of these and the
/// server builds the backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportSpec {
    /// [`crate::exec::LocalExecutor`] — the server's own threads.
    Local,
    /// [`crate::exec::PoolExecutor`] — persistent session workers with
    /// driver-side work stealing. One contiguous range per worker is the
    /// pool at unit ⌈n/workers⌉.
    Pool,
}

impl TransportSpec {
    /// Every valid wire name, in declaration order (what
    /// [`UnknownTransport`] lists back to the user).
    pub const NAMES: [&'static str; 2] = ["local", "pool"];

    /// Stable wire name (round-trips through
    /// [`TransportSpec::from_name`]).
    pub fn name(self) -> &'static str {
        match self {
            TransportSpec::Local => "local",
            TransportSpec::Pool => "pool",
        }
    }

    /// Parses a wire name back, case-insensitively. The error names the
    /// rejected input *and* the valid set, mirroring
    /// [`SolverSpec::from_name`].
    pub fn from_name(name: &str) -> Result<TransportSpec, UnknownTransport> {
        match name.to_ascii_lowercase().as_str() {
            "local" => Ok(TransportSpec::Local),
            "pool" => Ok(TransportSpec::Pool),
            _ => Err(UnknownTransport {
                given: name.to_string(),
            }),
        }
    }
}

/// Typed rejection of a transport name: carries what was given and
/// displays the full valid set ([`TransportSpec::NAMES`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownTransport {
    /// The rejected input, verbatim.
    pub given: String,
}

impl fmt::Display for UnknownTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown transport {:?} (valid: {})",
            self.given,
            TransportSpec::NAMES.join(", ")
        )
    }
}

impl std::error::Error for UnknownTransport {}

/// One campaign-service request: how many indices to run and which
/// executor backend to run them on. Travels as the `request` wire line
/// right after a `campaign_spec` line opens (or re-keys) a service
/// session — see the "Campaign service over TCP" section of `WIRE.md`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignRequest {
    /// Campaign size: the server executes indices `0..n`.
    pub n: usize,
    /// Which executor backend runs the campaign.
    pub transport: TransportSpec,
    /// Worker process count for the `pool` transport, clamped to
    /// `1..=n` ([`CampaignRequest::worker_count`]). Ignored by `local`.
    pub workers: usize,
    /// Steal-unit size in indices for the pool transport (`0` = auto).
    pub unit: usize,
    /// Per-unit retry budget for the `pool` transport.
    pub retries: u32,
    /// Opaque result-cache *name* (`None` = uncached). The server
    /// validates it against a safe charset and joins it under its own
    /// configured cache root, opening `rv_core::cache::ResultCache`
    /// there to replay/store finished shards content-addressed — a
    /// client never names a filesystem path. See the "Cached results"
    /// section of `WIRE.md`.
    pub cache: Option<String>,
}

impl CampaignRequest {
    /// Worker processes the `pool` transport runs: `workers`
    /// clamped to `1..=max(n, 1)` — never zero, and never more workers
    /// than indices to hand out. Worker count never changes a single
    /// output byte.
    pub fn worker_count(&self) -> usize {
        self.workers.clamp(1, self.n.max(1))
    }
}

/// A reconstructible description of a seeded campaign: everything a
/// worker process needs to rebuild instance `i` and solve it exactly as
/// the single-process run would.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// The solver to run.
    pub solver: SolverSpec,
    /// Target classes, cycled by index (instance `i` samples
    /// `classes[i % classes.len()]`). Must be non-empty.
    pub classes: Vec<TargetClass>,
    /// Per-run segment budget ([`Budget::segments`]).
    pub segments: u64,
}

impl CampaignSpec {
    /// Builds a spec. Panics if `classes` is empty (the wire decoder
    /// rejects empty class lists with a typed error instead).
    pub fn new(solver: SolverSpec, classes: Vec<TargetClass>, segments: u64) -> CampaignSpec {
        assert!(!classes.is_empty(), "CampaignSpec needs at least one class");
        CampaignSpec {
            solver,
            classes,
            segments,
        }
    }

    /// The per-run budget this spec describes.
    pub fn budget(&self) -> Budget {
        Budget::default().segments(self.segments)
    }

    /// Materialises the runnable [`Campaign`] value.
    pub fn campaign(&self) -> Campaign {
        match self.solver {
            SolverSpec::Aur => Campaign::aur(self.budget()),
            SolverSpec::Dedicated => Campaign::dedicated(self.budget()),
        }
    }

    /// Instance `index` of the seeded campaign — a pure function of
    /// `(self, seed, index)`, identical in every process.
    pub fn instance(&self, seed: u64, index: usize) -> Instance {
        let class = self.classes[index % self.classes.len()];
        generate_seeded(mix_seed(seed, index as u64), class)
    }

    /// The single-process reference run over indices `0..n` (what the
    /// pooled scatter/gather must reproduce byte-for-byte).
    pub fn run_local(&self, seed: u64, n: usize) -> CampaignReport {
        self.campaign().run_seeded(n, |i| self.instance(seed, i))
    }

    /// Executes the global indices `range` of the seeded campaign
    /// in-process — what a worker does with one unit — and returns its
    /// records in index order, each tagged with its global index.
    /// `threads` caps the campaign threads (`0` = all cores): K
    /// same-host workers should each run `cores / K` so the scatter does
    /// not oversubscribe the CPU K-fold. Thread count never changes a
    /// single output byte.
    pub fn run_range(
        &self,
        seed: u64,
        range: Range<usize>,
        threads: usize,
    ) -> Vec<(usize, RunRecord)> {
        let records = self
            .campaign()
            .threads(threads)
            .records_seeded(range.len(), |i| self.instance(seed, range.start + i));
        range.zip(records).collect()
    }
}

/// Appends one `record` line per `(index, record)`, each ending in `\n`,
/// in the order given: the record lines of a unit body, as a worker
/// answers them and as a cache entry stores them.
pub fn push_record_lines(out: &mut String, records: &[(usize, RunRecord)]) {
    for (index, rec) in records {
        wire::push_record(out, *index, rec);
        out.push('\n');
    }
}

/// The one reader of a unit body: `record` lines whose indices run
/// `range.start, range.start + 1, …` up to `range.end`, then a
/// `unit_done` line whose `start` is `range.start`. Lines are pushed one
/// at a time as they are decoded; the `unit_done` line yields the unit's
/// [`CachedShard`]. The pool gather reads worker answers through it
/// (sealing it at the `unit_telemetry` line), and the result cache reads
/// and checks its entries through it, so both obey the same rules.
///
/// Each refusal is a message naming the broken rule; the caller wraps
/// it in its own typed error ([`ShardError::Protocol`],
/// [`crate::CacheError::Layout`]).
#[derive(Debug)]
pub struct UnitReader {
    range: Range<usize>,
    /// The next index a record line must carry.
    next: usize,
    records: Vec<(usize, RunRecord)>,
    /// Set once the record lines are over ([`UnitReader::seal`]).
    sealed: bool,
}

impl UnitReader {
    /// A reader for the unit over `range`, before its first line.
    pub fn new(range: Range<usize>) -> UnitReader {
        UnitReader {
            next: range.start,
            range,
            records: Vec::new(),
            sealed: false,
        }
    }

    /// Checks that `indices` run over exactly the range, in order, as a
    /// body's record lines must: what a cache store checks its input
    /// against before writing it.
    pub fn check(
        range: Range<usize>,
        indices: impl IntoIterator<Item = usize>,
    ) -> Result<(), String> {
        let start = range.start;
        let mut reader = UnitReader::new(range);
        for index in indices {
            reader.take_index(index)?;
        }
        reader.take_end(start)
    }

    /// How many record lines the reader has taken.
    pub fn taken(&self) -> usize {
        self.next - self.range.start
    }

    /// Ends the record lines: any later `record` line is refused. A
    /// worker answer's `unit_telemetry` line comes after its records.
    pub fn seal(&mut self) {
        self.sealed = true;
    }

    /// Takes one decoded line of the body. `Ok(None)` asks for the next
    /// line; `Ok(Some(..))` is the end of the body — its `unit_done` and
    /// the shard folded from its records. Any line but `record` and
    /// `unit_done` is refused.
    pub fn push(&mut self, line: Line) -> Result<Option<(UnitDone, CachedShard)>, String> {
        match line {
            Line::Record { index, record } => {
                self.take_index(index)?;
                if self.records.is_empty() {
                    self.records.reserve_exact(self.range.len());
                }
                self.records.push((index, record));
                Ok(None)
            }
            Line::UnitDone(done) => {
                self.take_end(done.start)?;
                let records = std::mem::take(&mut self.records);
                Ok(Some((done, CachedShard::of(records))))
            }
            other => Err(format!("unexpected line kind: {other:?}")),
        }
    }

    fn take_index(&mut self, index: usize) -> Result<(), String> {
        if self.sealed {
            return Err(format!(
                "record index {index} after the unit_telemetry line"
            ));
        }
        if self.next == self.range.end {
            return Err(format!(
                "record index {index} past the end of range {:?}",
                self.range
            ));
        }
        if index != self.next {
            return Err(format!(
                "record index {index} where {} was expected (range {:?})",
                self.next, self.range
            ));
        }
        self.next += 1;
        Ok(())
    }

    fn take_end(&self, start: usize) -> Result<(), String> {
        if self.next != self.range.end {
            return Err(format!(
                "{} records for a range of {}",
                self.taken(),
                self.range.len()
            ));
        }
        if start != self.range.start {
            return Err(format!(
                "unit_done starts at {start}, expected {}",
                self.range.start
            ));
        }
        Ok(())
    }
}

/// One work unit of a pool session: a global index range, identified by
/// `task_id`, carrying the attempt number so a worker can implement
/// deterministic fault injection per unit. A task line carries no
/// campaign — the session opened with a `campaign_spec` line
/// established that once, which is what makes units cheap enough to
/// hand out in small, steal-friendly chunks (see
/// [`crate::exec::PoolExecutor`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitTask {
    /// Position of this unit in the campaign's unit plan (0-based).
    pub task_id: u32,
    /// Zero-based attempt number for this unit (a retried unit counts
    /// up; fresh units are attempt 0).
    pub attempt: u32,
    /// Global index range `start..end` this unit executes.
    pub range: Range<usize>,
}

/// Per-unit worker telemetry: how long a unit took on the worker's
/// clock and which attempt produced it. This is a *side channel* — it
/// feeds scheduling and diagnostics, never the campaign report, so the
/// byte-identity guarantee is untouched by timing noise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitTelemetry {
    /// Echo of [`UnitTask::task_id`].
    pub task_id: u32,
    /// Echo of [`UnitTask::attempt`].
    pub attempt: u32,
    /// Wall time the unit took on the worker, in nanoseconds.
    pub wall_ns: u64,
}

/// What a pool worker sends back at the end of each unit: the unit's
/// identity, after its last record. It carries no statistics — the
/// driver folds the unit's [`crate::StatsAccumulator`] from the records
/// it already holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitDone {
    /// Echo of [`UnitTask::task_id`].
    pub task_id: u32,
    /// Echo of the unit range's start (integrity check for the gather).
    pub start: usize,
}

/// Splits `0..n` into contiguous units of `unit` indices each (the last
/// unit may be short). `unit` is clamped to at least 1; `n == 0` yields
/// no units. Units are the steal-friendly currency of
/// [`crate::exec::PoolExecutor`]: small enough that heterogeneous
/// workers self-balance, contiguous and ascending so the gather merges
/// them exactly like shards.
pub fn plan_units(n: usize, unit: usize) -> Vec<Range<usize>> {
    let unit = unit.max(1);
    (0..n)
        .step_by(unit)
        .map(|start| start..(start + unit).min(n))
        .collect()
}

/// Why one unit attempt failed. Worker misbehavior surfaces as typed
/// errors; the gather never panics on worker output. Executors (see
/// [`crate::exec`]) treat every variant as retryable — the attempt
/// budget, not the variant, bounds recovery.
#[derive(Debug)]
pub enum ShardError {
    /// The worker binary could not be spawned.
    Spawn(std::io::Error),
    /// Pipe I/O with a worker failed.
    Io {
        /// Which shard.
        shard_id: u32,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A worker emitted a line the wire decoder rejected.
    Wire {
        /// Which shard.
        shard_id: u32,
        /// The decoding failure.
        source: WireError,
    },
    /// A worker exited unsuccessfully.
    Worker {
        /// Which shard.
        shard_id: u32,
        /// The exit code, if any.
        code: Option<i32>,
        /// Captured stderr (trimmed).
        stderr: String,
    },
    /// A worker's output violated the protocol (missing telemetry line,
    /// identity or count mismatch, unexpected line kind).
    Protocol {
        /// Which shard.
        shard_id: u32,
        /// What went wrong.
        what: String,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Spawn(e) => write!(f, "cannot spawn shard worker: {e}"),
            ShardError::Io { shard_id, source } => write!(f, "shard {shard_id} I/O: {source}"),
            ShardError::Wire { shard_id, source } => {
                write!(f, "shard {shard_id} wire: {source}")
            }
            ShardError::Worker {
                shard_id,
                code,
                stderr,
            } => {
                write!(f, "shard {shard_id} worker failed (code {code:?})")?;
                if !stderr.is_empty() {
                    write!(f, ": {stderr}")?;
                }
                Ok(())
            }
            ShardError::Protocol { shard_id, what } => {
                write!(f, "shard {shard_id} protocol violation: {what}")
            }
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Spawn(e) | ShardError::Io { source: e, .. } => Some(e),
            ShardError::Wire { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        CampaignSpec::new(
            SolverSpec::Dedicated,
            vec![TargetClass::Type3, TargetClass::S1],
            30_000,
        )
    }

    #[test]
    fn plan_covers_the_range_exactly_once() {
        // A `shards`-way scatter is the unit plan at ⌈n/shards⌉: at most
        // `shards` non-empty contiguous ranges covering `0..n`, equal
        // lengths whenever `shards` divides `n`.
        for n in [0usize, 1, 7, 16, 24] {
            for shards in [0usize, 1, 2, 3, 4, 5, 16, 100] {
                let units = plan_units(n, n.div_ceil(shards.max(1)));
                assert!(units.len() <= shards.max(1), "n = {n}, shards = {shards}");
                let mut next = 0;
                for r in &units {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, n, "n = {n}, shards = {shards}");
                if shards > 0 && n % shards == 0 && n >= shards {
                    assert_eq!(units.len(), shards);
                    assert!(units.iter().all(|r| r.len() == n / shards));
                }
            }
        }
    }

    #[test]
    fn plan_units_covers_the_range_in_order() {
        assert!(plan_units(0, 4).is_empty());
        assert_eq!(plan_units(1, 0), vec![0..1], "unit clamps to 1");
        for n in [1usize, 7, 16, 65] {
            for unit in [1usize, 2, 5, 64, 1000] {
                let units = plan_units(n, unit);
                let mut next = 0;
                for r in &units {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    assert!(r.len() <= unit.max(1));
                    next = r.end;
                }
                assert_eq!(next, n, "n = {n}, unit = {unit}");
                // Only the last unit may be short.
                for r in &units[..units.len().saturating_sub(1)] {
                    assert_eq!(r.len(), unit.max(1));
                }
            }
        }
    }

    #[test]
    fn solver_spec_names_round_trip() {
        for s in [SolverSpec::Aur, SolverSpec::Dedicated] {
            assert_eq!(SolverSpec::from_name(s.name()), Ok(s));
        }
        assert_eq!(SolverSpec::NAMES, ["aur", "dedicated"]);
    }

    #[test]
    fn solver_spec_parsing_is_case_insensitive() {
        assert_eq!(SolverSpec::from_name("AUR"), Ok(SolverSpec::Aur));
        assert_eq!(
            SolverSpec::from_name("Dedicated"),
            Ok(SolverSpec::Dedicated)
        );
    }

    #[test]
    fn unknown_solver_error_lists_the_valid_names() {
        let err = SolverSpec::from_name("custom").unwrap_err();
        assert_eq!(err.given, "custom");
        let msg = err.to_string();
        assert!(msg.contains("\"custom\""), "{msg}");
        for name in SolverSpec::NAMES {
            assert!(msg.contains(name), "{msg} should list {name}");
        }
    }

    #[test]
    fn execute_reports_global_indices_and_matches_local_slice() {
        let c = spec();
        let seed = 0x5EED;
        let n = 10;
        let local = c.run_local(seed, n);
        let seen = c.run_range(seed, 4..9, 0);
        let indices: Vec<usize> = seen.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, vec![4, 5, 6, 7, 8]);
        for (i, rec) in &seen {
            assert_eq!(rec, &local.records[*i], "index {i}");
        }
    }
}
