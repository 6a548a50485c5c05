//! The executor layer: one fault-tolerant surface over every way to run
//! a campaign — in-process threads, or persistent worker processes that
//! may sit behind an arbitrary command wrapper on other hosts.
//!
//! [`Executor::execute`] takes the same reconstructible
//! `(spec, seed, n)` triple everywhere and returns a full
//! [`CampaignReport`]; which machinery ran the runs is a deployment
//! choice, not an API fork:
//!
//! - [`LocalExecutor`] — the threaded [`Campaign`](crate::Campaign)
//!   engine, in this process.
//! - [`PoolExecutor`] — the one scatter engine: `workers` long-lived
//!   worker processes each hold one session (a `campaign_spec` line
//!   once, then a stream of `task` lines), pulling index units off a
//!   shared queue. Spawn cost amortizes across the whole campaign (and
//!   across repeated `execute` calls — sessions survive between runs of
//!   the same executor value), and heterogeneous workers self-balance
//!   because fast ones simply steal more units. Each unit answers with
//!   record lines, a `unit_telemetry` line (wall time + attempt — a side
//!   channel, see [`Executor::take_worker_telemetry`]), and a `unit_done`
//!   line that ends it. The driver folds each unit's stats from the
//!   records it gathered; no statistics cross the pipe.
//!
//! Both take a result cache ([`crate::cache`]) through `.cache(..)`;
//! the local engine's whole campaign is one unit `0..n`.
//!
//! [`backend`] turns a [`CampaignRequest`] into one of the two. A classic
//! K-shard scatter is a pool of K workers with unit ⌈n/K⌉, and a remote
//! transport is a pool whose [`WorkerCommand`] is wrapped in `ssh host --`
//! or similar ([`WorkerCommand::wrap`]): the worker protocol is pure
//! stdin/stdout JSON lines, so any prefix that forwards standard streams
//! works.
//!
//! # Fault tolerance
//!
//! Each unit has an attempt budget (`1 + `[`PoolExecutor::retries`]),
//! and every `task` line carries its attempt number so workers can
//! implement deterministic failure injection (the `rv-shard` binary's
//! `--flaky` mode). A failed unit re-queues with the next attempt
//! number; the slot that ran it is torn down and respawns onto a worker
//! command not yet observed failing ([`PoolExecutor::add_command`]), so
//! a dead host's units re-scatter onto the survivors. A unit's records
//! are buffered per attempt and released to the caller's [`RecordSink`]
//! only when the unit *succeeds* — a failed attempt's partial stream is
//! discarded wholesale, so the exactly-once-per-index sink contract
//! survives retries. The first unit to exhaust its budget kills every
//! in-flight worker and fails the run.
//!
//! # Determinism
//!
//! Every backend produces a report **byte-identical** to
//! [`CampaignSpec::run_local`] — records are a pure function of
//! `(spec, seed, index)`, the accumulator merge is partition-invariant,
//! and retries re-run the same pure function — so retry/re-scatter can
//! never change a single output byte. The `executor_differential` suite
//! pins both backends (and recovery after injected failures) against
//! the single-process run.

use crate::batch::{CampaignReport, CampaignStats, RunRecord, StatsAccumulator};
use crate::cache::{CachedShard, ResultCache};
use crate::json;
use crate::shard::{
    plan_units, CampaignRequest, CampaignSpec, ShardError, TransportSpec, UnitTask, UnitTelemetry,
};
use crate::stream::RecordSink;
use crate::wire::{self, Line};
use std::collections::VecDeque;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::ops::Range;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A uniform way to run the seeded campaign `(spec, seed, 0..n)`.
///
/// Implementations must uphold the determinism contract: the returned
/// report is byte-identical to [`CampaignSpec::run_local`]`(seed, n)`,
/// and `sink` (when given) sees every index in `0..n` exactly once.
pub trait Executor {
    /// Runs the campaign, streaming records to `sink` as work completes,
    /// and returns the full report (records in index order + stats).
    fn execute(
        &self,
        spec: &CampaignSpec,
        seed: u64,
        n: usize,
        sink: Option<Arc<dyn RecordSink>>,
    ) -> Result<CampaignReport, ExecError>;

    /// [`Executor::execute`] without materialising the record list —
    /// what stats-only callers (the `rv-shard campaign` CLI, sweeps that
    /// stream records through `sink` instead) should use. The pool
    /// overrides this to drop each unit's buffer after its sink release,
    /// keeping driver memory O(unit size), not O(n).
    fn execute_stats(
        &self,
        spec: &CampaignSpec,
        seed: u64,
        n: usize,
        sink: Option<Arc<dyn RecordSink>>,
    ) -> Result<CampaignStats, ExecError> {
        self.execute(spec, seed, n, sink).map(|report| report.stats)
    }

    /// Stable backend name (for labels, artifacts, and CLI selection).
    fn name(&self) -> &'static str;

    /// Takes the telemetry collected by the most recent execution: one
    /// line per unit a worker process ran successfully, tagged with the
    /// worker slot index that ran it (the raw material of a
    /// [`UtilizationReport`]) and sorted by `(task_id, attempt)`. Timing
    /// is worker-side wall time. Backends without worker processes, and
    /// cache replays, report none. A side channel: nothing here feeds the
    /// campaign report.
    fn take_worker_telemetry(&self) -> Vec<(usize, UnitTelemetry)> {
        Vec::new()
    }
}

/// Why an execution failed for good. Transient unit failures are
/// retried inside the executor; this surfaces only once recovery is
/// exhausted (or an integrity check no retry can fix trips).
#[derive(Debug)]
pub enum ExecError {
    /// A unit failed on every attempt its budget allowed.
    Exhausted {
        /// Which unit gave up (its `task_id`).
        shard_id: u32,
        /// How many attempts were made (`1 + retries`).
        attempts: u32,
        /// The last attempt's failure.
        last: ShardError,
    },
    /// The gathered units did not reassemble into exactly `0..n`
    /// records (a cross-unit integrity failure no retry can repair).
    Coverage {
        /// What failed to reconcile.
        what: String,
    },
    /// The caller's [`RecordSink`] reported itself closed
    /// ([`RecordSink::is_closed`]) mid-campaign: its consumer hung up and
    /// can never observe another record, so the pool aborts the
    /// remaining work through the kill switch instead of draining it
    /// into the void. No retry can help — the observer is gone.
    SinkClosed,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Exhausted {
                shard_id,
                attempts,
                last,
            } => write!(
                f,
                "shard {shard_id} failed all {attempts} attempt(s); last error: {last}"
            ),
            ExecError::Coverage { what } => write!(f, "gather integrity failure: {what}"),
            ExecError::SinkClosed => {
                write!(f, "record sink closed mid-campaign (consumer hung up)")
            }
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Exhausted { last, .. } => Some(last),
            ExecError::Coverage { .. } | ExecError::SinkClosed => None,
        }
    }
}

/// Runs the campaign on this process's own threads — the plain
/// [`Campaign`](crate::Campaign) engine behind the [`Executor`] surface.
/// Uncached, `execute` never returns `Err`; cached, it fails only with
/// [`ExecError::SinkClosed`] when the sink is already closed.
#[derive(Clone, Debug, Default)]
pub struct LocalExecutor {
    threads: usize,
    cache: Option<Arc<ResultCache>>,
}

impl LocalExecutor {
    /// Executor using all available cores.
    pub fn new() -> LocalExecutor {
        LocalExecutor::default()
    }

    /// Sets the worker-thread count (`0` = all cores). Thread counts
    /// never change a single output byte.
    pub fn threads(mut self, threads: usize) -> LocalExecutor {
        self.threads = threads;
        self
    }

    /// Attaches a content-addressed result cache, as
    /// [`PoolExecutor::cache`] does, with the whole campaign `0..n` as
    /// its one unit: a warm run replays the stored entry through the
    /// caller's sink without solving anything, and a cold run writes its
    /// outcome through.
    pub fn cache(mut self, cache: Arc<ResultCache>) -> LocalExecutor {
        self.cache = Some(cache);
        self
    }

    /// Runs the campaign as the one-unit plan `0..n` through the pool's
    /// [`cache_prepass`] and [`CachedShard::write_through`], so a cache
    /// entry is keyed, stored and replayed exactly as a pool unit over
    /// the same range would be.
    fn run_unit(
        &self,
        spec: &CampaignSpec,
        seed: u64,
        n: usize,
        sink: Option<Arc<dyn RecordSink>>,
        keep_records: bool,
    ) -> Result<Vec<Option<CachedShard>>, ExecError> {
        let whole = 0..n;
        let cache = self.cache.as_deref();
        let mut slots = vec![None];
        let units = std::slice::from_ref(&whole);
        if cache_prepass(cache, spec, seed, units, &sink, keep_records, &mut slots)?.is_empty() {
            return Ok(slots);
        }
        let mut campaign = spec.campaign().threads(self.threads);
        if let Some(sink) = sink {
            campaign = campaign.sink_arc(sink);
        }
        let records = campaign
            .records_seeded(n, |i| spec.instance(seed, i))
            .into_iter()
            .enumerate()
            .collect();
        let outcome = CachedShard::of(records);
        slots[0] = Some(outcome.write_through(cache, spec, seed, &whole, keep_records));
        Ok(slots)
    }
}

impl Executor for LocalExecutor {
    fn execute(
        &self,
        spec: &CampaignSpec,
        seed: u64,
        n: usize,
        sink: Option<Arc<dyn RecordSink>>,
    ) -> Result<CampaignReport, ExecError> {
        self.run_unit(spec, seed, n, sink, true)
            .and_then(|slots| assemble(n, slots))
    }

    fn execute_stats(
        &self,
        spec: &CampaignSpec,
        seed: u64,
        n: usize,
        sink: Option<Arc<dyn RecordSink>>,
    ) -> Result<CampaignStats, ExecError> {
        self.run_unit(spec, seed, n, sink, false)
            .and_then(|slots| assemble_stats(n, slots))
    }

    fn name(&self) -> &'static str {
        "local"
    }
}

/// Locks a mutex, riding through poisoning (a panicking sibling thread
/// must not turn into a second panic here).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Cooperative abort for a scatter/gather in progress. The first fatal
/// error flips the switch and kills every registered in-flight worker
/// child, so a failed run returns promptly instead of waiting out
/// healthy workers whose results can no longer matter (a unit that
/// exhausted its budget already doomed the run).
#[derive(Default)]
struct KillSwitch {
    aborted: AtomicBool,
    children: Mutex<Vec<Arc<Mutex<Child>>>>,
}

impl KillSwitch {
    fn new() -> KillSwitch {
        KillSwitch::default()
    }

    /// Registers a spawned child for abort-kill. If the switch already
    /// flipped (registration raced the abort), the child is killed on
    /// the spot — no new work outlives the decision to fail.
    fn register(&self, child: &Arc<Mutex<Child>>) {
        lock(&self.children).push(Arc::clone(child));
        if self.aborted.load(Ordering::SeqCst) {
            let _ = lock(child).kill();
        }
    }

    /// Whether the run was aborted.
    fn aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }

    /// Flips the switch and kills everything registered so far. Already
    /// -exited children ignore the signal; their owning threads reap
    /// them as usual.
    fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
        for child in lock(&self.children).iter() {
            let _ = lock(child).kill();
        }
    }
}

/// One worker invocation: a program plus fixed arguments. The command
/// must speak the schema-3 session protocol (see `WIRE.md`): a
/// `campaign_spec` line opens a session on stdin, each `task` line is
/// answered on stdout by `record` lines, one `unit_telemetry` line and
/// one `unit_done` line, and stdin EOF ends the session with exit 0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerCommand {
    program: PathBuf,
    args: Vec<String>,
}

impl WorkerCommand {
    /// A worker command with no arguments yet.
    pub fn new(program: impl Into<PathBuf>) -> WorkerCommand {
        WorkerCommand {
            program: program.into(),
            args: Vec::new(),
        }
    }

    /// Appends one fixed argument (e.g. the `worker` mode selector of the
    /// `rv-shard` binary).
    pub fn arg(mut self, arg: impl Into<String>) -> WorkerCommand {
        self.args.push(arg.into());
        self
    }

    /// Prefixes this command with a wrapper (`prefix[0]` becomes the
    /// program; the old program and arguments shift into the argument
    /// list). `["ssh", "host", "--"]` turns a local worker command into
    /// a remote one. Panics on an empty prefix.
    pub fn wrap<I, S>(self, prefix: I) -> WorkerCommand
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut parts: Vec<String> = prefix.into_iter().map(Into::into).collect();
        assert!(!parts.is_empty(), "wrapper prefix must be non-empty");
        let program = PathBuf::from(parts.remove(0));
        parts.push(self.program.to_string_lossy().into_owned());
        parts.extend(self.args);
        WorkerCommand {
            program,
            args: parts,
        }
    }

    /// The command as one display line (for error messages and logs).
    pub fn display_line(&self) -> String {
        let mut line = self.program.to_string_lossy().into_owned();
        for a in &self.args {
            line.push(' ');
            line.push_str(a);
        }
        line
    }

    fn command(&self) -> Command {
        let mut cmd = Command::new(&self.program);
        cmd.args(&self.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        cmd
    }
}

/// The process-backed executor: `workers` long-lived worker
/// subprocesses, each holding one protocol *session* (a `campaign_spec`
/// line opens it; a stream of `task` lines follows), fed index units
/// from a shared queue — driver-side work stealing. A fast worker
/// simply steals more units, so heterogeneous workers self-balance
/// without any up-front split, and spawn cost amortizes across the
/// campaign *and* across repeated [`Executor::execute`] calls on the
/// same executor value (sessions survive between runs).
///
/// Fault tolerance: per-unit retry budgets, exactly-once sink release
/// on unit success, prompt kill-on-abort, and failover across the
/// registered worker commands. A worker that dies mid-unit is torn down
/// and its slot respawned on the next unit; the failed unit re-queues
/// with the next attempt number.
///
/// ```no_run
/// use rv_core::exec::{Executor, PoolExecutor, WorkerCommand};
/// use rv_core::shard::{CampaignSpec, SolverSpec};
/// use rv_model::TargetClass;
///
/// let spec = CampaignSpec::new(SolverSpec::Aur, vec![TargetClass::Type3], 60_000);
/// let worker = WorkerCommand::new("/opt/rv/bin/rv-shard").arg("worker");
/// let pool = PoolExecutor::new(worker.clone().wrap(["ssh", "hostA", "--"]))
///     .add_command(worker.wrap(["ssh", "hostB", "--"]))
///     .workers(4)
///     .unit(250)
///     .retries(2);
/// let report = pool.execute(&spec, 42, 1_000, None).expect("pooled scatter/gather");
/// assert_eq!(report.stats.n, 1_000);
/// ```
pub struct PoolExecutor {
    /// The worker commands slots spawn from; index 0 is the one given
    /// to [`PoolExecutor::new`].
    commands: Vec<WorkerCommand>,
    workers: usize,
    unit: usize,
    retries: u32,
    cache: Option<Arc<ResultCache>>,
    /// One slot per worker; `None` = not spawned (or torn down after a
    /// failure). Locked for the whole of `scatter_gather`, which also
    /// serializes concurrent `execute` calls on one pool.
    pool: Mutex<Vec<Option<PoolWorker>>>,
    /// Telemetry gathered during the most recent execution (cleared at
    /// the start of each), tagged with the worker slot index that ran
    /// the unit.
    telemetry: Mutex<Vec<(usize, UnitTelemetry)>>,
}

impl PoolExecutor {
    /// Pool over subprocesses of `worker`: 1 worker, auto unit size, no
    /// retries — tune with the builder methods.
    pub fn new(worker: WorkerCommand) -> PoolExecutor {
        PoolExecutor {
            commands: vec![worker],
            workers: 1,
            unit: 0,
            retries: 0,
            cache: None,
            pool: Mutex::new(Vec::new()),
            telemetry: Mutex::new(Vec::new()),
        }
    }

    /// Registers another worker command — typically the same worker
    /// behind a second host's wrapper. Slots spawn round-robin over the
    /// command list, and a slot whose unit failed respawns onto a
    /// command not yet observed failing, so extra commands are both
    /// load-spreading targets and failover capacity.
    pub fn add_command(mut self, worker: WorkerCommand) -> PoolExecutor {
        self.commands.push(worker);
        self
    }

    /// Sets the number of persistent worker processes (clamped to at
    /// least 1). Changing the count tears down any existing pool on the
    /// next execution.
    pub fn workers(mut self, workers: usize) -> PoolExecutor {
        self.workers = workers.max(1);
        self
    }

    /// Sets the unit size in indices (`0` = auto: `n / (workers * 4)`,
    /// at least 1 — four steal rounds per worker).
    pub fn unit(mut self, unit: usize) -> PoolExecutor {
        self.unit = unit;
        self
    }

    /// Sets the per-unit retry budget: a unit may fail `retries` times
    /// and still succeed on a later attempt; failure `retries + 1` aborts
    /// the whole execution with [`ExecError::Exhausted`].
    pub fn retries(mut self, retries: u32) -> PoolExecutor {
        self.retries = retries;
        self
    }

    /// Attaches a content-addressed result cache
    /// ([`crate::cache::ResultCache`]): units whose `(spec, seed, range)`
    /// key is already stored replay through the caller's sink without
    /// feeding a worker, and units that do run write their outcome
    /// through on success. A spec tweak re-executes only the units whose
    /// key changed. Cached units emit no telemetry line (nothing ran, so
    /// there is no wall time to report).
    pub fn cache(mut self, cache: Arc<ResultCache>) -> PoolExecutor {
        self.cache = Some(cache);
        self
    }

    /// Picks the worker command a slot spawns for `(slot, attempt)`:
    /// round-robin by `slot + attempt`, skipping commands already
    /// observed failing while at least one survivor remains (so a dead
    /// host's units re-scatter instead of hammering it).
    ///
    /// When *every* command has been observed failing, the blacklist is
    /// cleared: a retry round with no survivors gets a fresh chance at
    /// every command instead of falling back onto one known-failed pick
    /// for the rest of the attempt budget — a transiently-failing sole
    /// worker (or a fleet that all hiccuped at once) can still recover.
    fn pick_worker(&self, slot: u32, attempt: u32, failed: &Mutex<Vec<bool>>) -> usize {
        let len = self.commands.len();
        let start = (slot as usize + attempt as usize) % len;
        let mut failed = lock(failed);
        if failed.iter().all(|&f| f) {
            failed.iter_mut().for_each(|f| *f = false);
        }
        (0..len)
            .map(|k| (start + k) % len)
            .find(|&idx| !failed[idx])
            // rv-lint: allow(panic) — unreachable: the all-failed branch
            // above just cleared the blacklist, so at least one index is
            // not failed.
            .expect("blacklist was cleared if it was full")
    }

    /// The scatter/gather core: one drain thread per worker slot, each
    /// pulling `(unit, attempt)` tasks off the shared queue and feeding
    /// them to its persistent worker (spawning/respawning the worker as
    /// needed). Unit outcomes land in `slots` indexed by unit, which are
    /// contiguous and ascending by construction. With `keep_records`
    /// false, each unit's record buffer is dropped right after its sink
    /// release, so stats-only gathers hold O(unit size) memory instead
    /// of O(n).
    fn scatter_gather(
        &self,
        spec: &CampaignSpec,
        seed: u64,
        n: usize,
        sink: Option<Arc<dyn RecordSink>>,
        keep_records: bool,
    ) -> Result<Vec<Option<CachedShard>>, ExecError> {
        if sink.as_ref().is_some_and(|s| s.is_closed()) {
            // The consumer is already gone; never replay cached units
            // (or feed workers) into the void.
            return Err(ExecError::SinkClosed);
        }
        let unit = match self.unit {
            0 => (n / (self.workers * 4)).max(1),
            u => u,
        };
        let units = plan_units(n, unit);

        let mut pool = lock(&self.pool);
        if pool.len() != self.workers {
            // Worker count changed since the last run: drop the old pool
            // (each worker's Drop kills and reaps it) and start fresh.
            *pool = std::iter::repeat_with(|| None).take(self.workers).collect();
        }
        lock(&self.telemetry).clear();

        // Cache fast path: cached units replay into their slots before
        // any worker is fed; a fully warm run touches no worker session
        // (and spawns none that were not already running).
        let mut slot_init: Vec<Option<CachedShard>> = vec![None; units.len()];
        let pending = cache_prepass(
            self.cache.as_deref(),
            spec,
            seed,
            &units,
            &sink,
            keep_records,
            &mut slot_init,
        )?;

        // task = (index into units, attempt number)
        let queue: Mutex<VecDeque<(usize, u32)>> = Mutex::new(pending);
        let slots: Mutex<Vec<Option<CachedShard>>> = Mutex::new(slot_init);
        let failed: Mutex<Vec<bool>> = Mutex::new(vec![false; self.commands.len()]);
        let fatal: Mutex<Option<ExecError>> = Mutex::new(None);
        let kills = KillSwitch::new();

        std::thread::scope(|scope| {
            let queue = &queue;
            let slots = &slots;
            let failed = &failed;
            let fatal = &fatal;
            let kills = &kills;
            let units = &units;
            let sink = &sink;
            for (widx, slot) in pool.iter_mut().enumerate() {
                scope.spawn(move || loop {
                    let (k, attempt) = {
                        if lock(fatal).is_some() {
                            break;
                        }
                        // A closed sink means the consumer is gone for
                        // good: fail the run and kill in-flight workers
                        // rather than drain the rest of the queue into
                        // the void.
                        if sink.as_ref().is_some_and(|s| s.is_closed()) {
                            let mut f = lock(fatal);
                            if f.is_none() {
                                *f = Some(ExecError::SinkClosed);
                                drop(f);
                                kills.abort();
                            }
                            break;
                        }
                        match lock(queue).pop_front() {
                            Some(t) => t,
                            None => break,
                        }
                    };
                    let task = UnitTask {
                        task_id: k as u32,
                        attempt,
                        range: units[k].clone(),
                    };
                    let spawn = || {
                        let command = self.pick_worker(widx as u32, attempt, failed);
                        PoolWorker::spawn(&self.commands[command], command, kills)
                            .map_err(|e| (command, e))
                    };
                    match run_pool_unit(slot, &spawn, spec, seed, &task, kills) {
                        Ok((outcome, unit_telemetry)) => {
                            // Success releases the unit's buffered records
                            // to the caller's sink exactly once; a failed
                            // attempt's partial stream was never forwarded.
                            if let Some(sink) = sink {
                                for (index, rec) in &outcome.records {
                                    sink.record(*index, rec);
                                }
                            }
                            lock(slots)[k] = Some(outcome.write_through(
                                self.cache.as_deref(),
                                spec,
                                seed,
                                &units[k],
                                keep_records,
                            ));
                            lock(&self.telemetry).push((widx, unit_telemetry));
                        }
                        Err((command, last)) => {
                            lock(failed)[command] = true;
                            if attempt >= self.retries {
                                let mut f = lock(fatal);
                                if f.is_none() {
                                    *f = Some(ExecError::Exhausted {
                                        shard_id: task.task_id,
                                        attempts: attempt + 1,
                                        last,
                                    });
                                    // In-flight siblings are killed, not
                                    // waited out: the run is already lost.
                                    drop(f);
                                    kills.abort();
                                }
                                break;
                            }
                            lock(queue).push_back((k, attempt + 1));
                        }
                    }
                });
            }
        });

        if let Some(err) = fatal.into_inner().unwrap_or_else(|e| e.into_inner()) {
            // Abort killed workers indiscriminately; none of the
            // surviving sessions can be trusted to be line-aligned, so
            // the next execution starts from a clean pool.
            for slot in pool.iter_mut() {
                *slot = None;
            }
            return Err(err);
        }
        Ok(slots.into_inner().unwrap_or_else(|e| e.into_inner()))
    }
}

impl Executor for PoolExecutor {
    fn execute(
        &self,
        spec: &CampaignSpec,
        seed: u64,
        n: usize,
        sink: Option<Arc<dyn RecordSink>>,
    ) -> Result<CampaignReport, ExecError> {
        self.scatter_gather(spec, seed, n, sink, true)
            .and_then(|slots| assemble(n, slots))
    }

    fn execute_stats(
        &self,
        spec: &CampaignSpec,
        seed: u64,
        n: usize,
        sink: Option<Arc<dyn RecordSink>>,
    ) -> Result<CampaignStats, ExecError> {
        self.scatter_gather(spec, seed, n, sink, false)
            .and_then(|slots| assemble_stats(n, slots))
    }

    fn name(&self) -> &'static str {
        "pool"
    }

    fn take_worker_telemetry(&self) -> Vec<(usize, UnitTelemetry)> {
        let mut t = std::mem::take(&mut *lock(&self.telemetry));
        t.sort_by_key(|(_, u)| (u.task_id, u.attempt));
        t
    }
}

/// The standard session-worker invocation: `worker` (an
/// `rv-shard`-compatible binary, possibly behind a
/// [`WorkerCommand::wrap`] prefix) in `worker` mode, with the host's
/// cores split across `concurrency` same-host workers (`cores /
/// concurrency`, at least 1 thread each) so a scatter does not
/// oversubscribe the CPU. Thread counts never change a single output
/// byte.
pub fn worker_command(worker: WorkerCommand, concurrency: usize) -> WorkerCommand {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let per_worker = (cores / concurrency.max(1)).max(1);
    worker
        .arg("worker")
        .arg("--threads")
        .arg(per_worker.to_string())
}

/// Why [`backend`] cannot serve a request: it names the `pool`
/// transport, but no worker command was given.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NoWorker {
    /// The transport that needed a worker.
    pub transport: TransportSpec,
}

impl fmt::Display for NoWorker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.transport.name();
        write!(
            f,
            "no worker binary for the {name:?} transport; only \"local\" runs without one"
        )
    }
}

impl std::error::Error for NoWorker {}

/// Builds the backend a [`CampaignRequest`] asks for — the one mapping
/// from transport to executor, shared by `rv-serve` and `rv-shard
/// campaign`. `local` is a [`LocalExecutor`] on `local_threads` threads;
/// `pool` is a [`PoolExecutor`] of K = [`CampaignRequest::worker_count`]
/// workers stealing `req.unit`-sized units (one range per worker at
/// unit ⌈n/K⌉). Workers run [`worker_command`]`(worker, K)`; without a
/// `worker`, `pool` is a [`NoWorker`] error. `cache`
/// attaches to either backend (`req.cache` is a name for the caller to
/// resolve, and is not read here).
pub fn backend(
    req: &CampaignRequest,
    worker: Option<WorkerCommand>,
    local_threads: usize,
    cache: Option<Arc<ResultCache>>,
) -> Result<Box<dyn Executor>, NoWorker> {
    let transport = req.transport;
    if transport == TransportSpec::Local {
        return Ok(Box::new(LocalExecutor {
            threads: local_threads,
            cache,
        }));
    }
    let worker = worker.ok_or(NoWorker { transport })?;
    let workers = req.worker_count();
    Ok(Box::new(PoolExecutor {
        cache,
        ..PoolExecutor::new(worker_command(worker, workers))
            .workers(workers)
            .unit(req.unit)
            .retries(req.retries)
    }))
}

/// How much work one pool worker slot did during an execution — folded
/// from the worker-tagged unit telemetry
/// ([`PoolExecutor::take_worker_telemetry`]).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerUtilization {
    /// Worker slot index (`0..workers`).
    pub worker: usize,
    /// Units this worker completed successfully.
    pub units: usize,
    /// Total worker-side wall time across those units, in nanoseconds.
    pub total_wall_ns: u64,
    /// Mean per-unit wall time in nanoseconds (`0` with no units).
    pub mean_wall_ns: f64,
    /// Slowest single unit in nanoseconds (`0` with no units).
    pub max_wall_ns: u64,
}

/// Per-worker utilization breakdown of one pool execution: how evenly
/// the work stealing spread the campaign across the worker slots. A
/// side channel like the telemetry it folds — nothing here feeds the
/// campaign report — and the first observable slice of telemetry-driven
/// scheduling: a slot with outsized `total_wall_ns` is the straggler a
/// smarter unit size would split around.
#[derive(Clone, Debug, PartialEq)]
pub struct UtilizationReport {
    /// One row per worker slot, in slot order (workers that stole no
    /// units still appear, with zero counts).
    pub workers: Vec<WorkerUtilization>,
}

impl UtilizationReport {
    /// Folds worker-tagged unit telemetry into per-slot summaries.
    /// `workers` is the pool's slot count; tags outside `0..workers`
    /// (impossible from a well-behaved pool) are ignored rather than
    /// panicking.
    pub fn from_worker_telemetry(
        workers: usize,
        telemetry: &[(usize, UnitTelemetry)],
    ) -> UtilizationReport {
        let mut rows: Vec<WorkerUtilization> = (0..workers)
            .map(|worker| WorkerUtilization {
                worker,
                units: 0,
                total_wall_ns: 0,
                mean_wall_ns: 0.0,
                max_wall_ns: 0,
            })
            .collect();
        for (widx, unit) in telemetry {
            let Some(row) = rows.get_mut(*widx) else {
                continue;
            };
            row.units += 1;
            row.total_wall_ns = row.total_wall_ns.saturating_add(unit.wall_ns);
            row.max_wall_ns = row.max_wall_ns.max(unit.wall_ns);
        }
        for row in &mut rows {
            if row.units > 0 {
                row.mean_wall_ns = row.total_wall_ns as f64 / row.units as f64;
            }
        }
        UtilizationReport { workers: rows }
    }

    /// Renders the report as one JSON line (schema-2 artifact style,
    /// like [`CampaignStats::to_json`]).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .workers
            .iter()
            .map(|w| {
                format!(
                    "{{\"worker\": {}, \"units\": {}, \"total_wall_ns\": {}, \
                     \"mean_wall_ns\": {}, \"max_wall_ns\": {}}}",
                    w.worker,
                    w.units,
                    w.total_wall_ns,
                    json::f64(w.mean_wall_ns),
                    w.max_wall_ns,
                )
            })
            .collect();
        format!("{{\"utilization\": [{}]}}", rows.join(", "))
    }
}

/// One persistent worker process holding a protocol session. All four
/// standard streams are detached at spawn: stdin/stdout stay with the
/// drain thread, stderr drains continuously on a side thread into a
/// shared buffer (so a mid-session failure can still report what the
/// worker said), and the child handle itself lives behind the run's
/// [`KillSwitch`].
struct PoolWorker {
    /// Index of the [`WorkerCommand`] this worker was spawned from (the
    /// one marked failing if a unit on it fails).
    command: usize,
    child: Arc<Mutex<Child>>,
    /// `Some` until shutdown; taken in `Drop` so closing stdin (session
    /// EOF — the graceful stop signal) precedes the kill/reap.
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    stderr_buf: Arc<Mutex<String>>,
    stderr_thread: Option<JoinHandle<()>>,
    /// The `(spec, seed)` the worker's session currently holds; a task
    /// for any other campaign re-opens the session first.
    session: Option<(CampaignSpec, u64)>,
}

impl PoolWorker {
    /// Spawns a fresh worker from `commands[command]` (passed as
    /// `worker`) and registers it with the run's kill switch.
    fn spawn(
        worker: &WorkerCommand,
        command: usize,
        kills: &KillSwitch,
    ) -> Result<PoolWorker, ShardError> {
        let mut spawned = worker.command().spawn().map_err(ShardError::Spawn)?;
        // `WorkerCommand::command` pipes all three streams unconditionally,
        // so `take()` on a freshly spawned child always yields them.
        // rv-lint: allow(panic) — unreachable: command() pipes stdin
        let stdin = spawned.stdin.take().expect("stdin was piped");
        // rv-lint: allow(panic) — unreachable: command() pipes stdout
        let stdout = spawned.stdout.take().expect("stdout was piped");
        // rv-lint: allow(panic) — unreachable: command() pipes stderr
        let mut stderr_pipe = spawned.stderr.take().expect("stderr was piped");
        let child = Arc::new(Mutex::new(spawned));
        kills.register(&child);

        let stderr_buf = Arc::new(Mutex::new(String::new()));
        let buf = Arc::clone(&stderr_buf);
        let stderr_thread = std::thread::spawn(move || {
            let mut chunk = [0u8; 4096];
            loop {
                match stderr_pipe.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(k) => lock(&buf).push_str(&String::from_utf8_lossy(&chunk[..k])),
                }
            }
        });

        Ok(PoolWorker {
            command,
            child,
            stdin: Some(stdin),
            stdout: BufReader::new(stdout),
            stderr_buf,
            stderr_thread: Some(stderr_thread),
            session: None,
        })
    }

    /// Reaps the worker after its stdout hit EOF (it has exited or is
    /// exiting, so this does not stall) and returns `(exit code, what it
    /// wrote to stderr)`.
    fn reap(mut self) -> (Option<i32>, String) {
        let code = lock(&self.child).wait().ok().and_then(|s| s.code());
        if let Some(t) = self.stderr_thread.take() {
            let _ = t.join();
        }
        let stderr = lock(&self.stderr_buf).trim().to_string();
        (code, stderr)
    }
}

impl Drop for PoolWorker {
    fn drop(&mut self) {
        // Closing stdin is the graceful stop (a session worker exits 0 on
        // EOF); the kill right after covers wedged ones, and the reap
        // precludes zombies. Kill/wait on an already-reaped child are
        // harmless no-ops.
        drop(self.stdin.take());
        {
            let mut child = lock(&self.child);
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(t) = self.stderr_thread.take() {
            let _ = t.join();
        }
    }
}

/// Runs one unit on the drain thread's persistent worker: spawn it (via
/// `spawn`) if the slot is empty, (re-)open the session if the campaign
/// changed, write the task line, and gather the answer
/// ([`gather_unit`]). A failure carries the index of the worker command
/// it happened on, so the caller can steer the slot's respawn away from
/// it.
///
/// One transparent respawn: a *reused* worker may have died between
/// units (its host rebooted, an operator killed it), which surfaces as a
/// write error on the task line. That costs a respawn, not an attempt —
/// a fresh worker failing the same write is a real error.
fn run_pool_unit(
    slot: &mut Option<PoolWorker>,
    spawn: &dyn Fn() -> Result<PoolWorker, (usize, ShardError)>,
    spec: &CampaignSpec,
    seed: u64,
    task: &UnitTask,
    kills: &KillSwitch,
) -> Result<(CachedShard, UnitTelemetry), (usize, ShardError)> {
    let command = loop {
        let fresh = slot.is_none();
        if fresh {
            *slot = Some(spawn()?);
        }
        // rv-lint: allow(panic) — unreachable: the `fresh` branch above
        // fills the slot before this runs.
        let w = slot.as_mut().expect("slot was just filled");
        let mut lines = String::new();
        if w.session.as_ref() != Some(&(spec.clone(), seed)) {
            lines.push_str(&wire::encode_campaign_spec(spec, seed));
            lines.push('\n');
        }
        lines.push_str(&wire::encode_task(task));
        lines.push('\n');
        // rv-lint: allow(panic) — unreachable: `stdin` is Some from spawn
        // until `Drop` takes it, and dropping consumes the worker.
        let stdin = w.stdin.as_mut().expect("stdin open until shutdown");
        match stdin
            .write_all(lines.as_bytes())
            .and_then(|()| stdin.flush())
        {
            Ok(()) => {
                w.session = Some((spec.clone(), seed));
                break w.command;
            }
            // A fresh worker that died before reading its task breaks
            // the pipe; the exit status the gather reaps below is
            // strictly more informative than EPIPE.
            Err(e) if fresh && e.kind() == std::io::ErrorKind::BrokenPipe => break w.command,
            Err(e) => {
                let command = w.command;
                *slot = None;
                if fresh {
                    let shard_id = task.task_id;
                    return Err((
                        command,
                        ShardError::Io {
                            shard_id,
                            source: e,
                        },
                    ));
                }
                // The next pass respawns (fresh), so this costs one
                // respawn, never more.
            }
        }
    };
    gather_unit(slot, task, kills).map_err(|e| (command, e))
}

/// Reads one unit's answer off the slot's live worker — record lines
/// until the `unit_done` line — validates identity and exactly-once
/// index coverage against the task, and folds the unit's accumulator
/// from its records. Any failure tears the worker down (`*slot = None`
/// — its `Drop` kills and reaps it), so the next unit on this thread
/// starts from a fresh process.
fn gather_unit(
    slot: &mut Option<PoolWorker>,
    task: &UnitTask,
    kills: &KillSwitch,
) -> Result<(CachedShard, UnitTelemetry), ShardError> {
    let shard_id = task.task_id;
    let io = |source| ShardError::Io { shard_id, source };
    let protocol = |what: String| ShardError::Protocol { shard_id, what };

    enum ReadFail {
        /// The worker closed stdout mid-unit (it died or bailed).
        Eof,
        Fail(ShardError),
    }

    // rv-lint: allow(panic) — unreachable: the caller's handshake only
    // returns with the slot filled.
    let w = slot.as_mut().expect("worker is live after handshake");
    let streamed = (|| {
        let mut unit_telemetry: Option<UnitTelemetry> = None;
        let mut records: Vec<(usize, RunRecord)> = Vec::with_capacity(task.range.len());
        let mut line = String::new();
        loop {
            line.clear();
            if w.stdout
                .read_line(&mut line)
                .map_err(|e| ReadFail::Fail(io(e)))?
                == 0
            {
                return Err(ReadFail::Eof);
            }
            if line.trim().is_empty() {
                continue;
            }
            match wire::decode_line(line.trim_end())
                .map_err(|source| ReadFail::Fail(ShardError::Wire { shard_id, source }))?
            {
                Line::Record { index, record } => {
                    if !task.range.contains(&index) {
                        return Err(ReadFail::Fail(protocol(format!(
                            "record index {index} outside unit range {:?}",
                            task.range
                        ))));
                    }
                    records.push((index, record));
                }
                Line::UnitTelemetry(t) => {
                    if t.task_id != task.task_id || t.attempt != task.attempt {
                        return Err(ReadFail::Fail(protocol(format!(
                            "telemetry identifies as task {} attempt {}, expected task {} \
                             attempt {}",
                            t.task_id, t.attempt, task.task_id, task.attempt
                        ))));
                    }
                    if unit_telemetry.replace(t).is_some() {
                        return Err(ReadFail::Fail(protocol(
                            "duplicate unit_telemetry line".into(),
                        )));
                    }
                }
                Line::UnitDone(d) => {
                    return Ok((d, unit_telemetry, records));
                }
                other => {
                    return Err(ReadFail::Fail(protocol(format!(
                        "unexpected line kind in session: {other:?}"
                    ))));
                }
            }
        }
    })();

    let (done, unit_telemetry, mut records) = match streamed {
        Ok(ok) => ok,
        Err(ReadFail::Eof) => {
            // rv-lint: allow(panic) — unreachable: the slot was live for
            // the streaming read that just hit EOF; nothing clears it
            // between there and here.
            let (code, stderr) = slot.take().expect("worker is live").reap();
            if kills.aborted() {
                return Err(protocol("unit aborted by a failing sibling".into()));
            }
            return Err(ShardError::Worker {
                shard_id,
                code,
                stderr,
            });
        }
        Err(ReadFail::Fail(e)) => {
            // A misbehaving worker's session is unusable; tear it down.
            *slot = None;
            return Err(e);
        }
    };

    let mut fail = |what: String| -> ShardError {
        *slot = None;
        ShardError::Protocol { shard_id, what }
    };
    if done.task_id != task.task_id {
        return Err(fail(format!(
            "unit_done identifies as task {}",
            done.task_id
        )));
    }
    if done.start != task.range.start {
        return Err(fail(format!(
            "unit_done start {} != unit start {}",
            done.start, task.range.start
        )));
    }
    let Some(unit_telemetry) = unit_telemetry else {
        return Err(fail("unit finished without a unit_telemetry line".into()));
    };
    // The streamed records must be a permutation of exactly the unit
    // range — one record per index, no duplicates, no gaps.
    records.sort_by_key(|(index, _)| *index);
    if records.len() != task.range.len() {
        return Err(fail(format!(
            "expected {} record lines, streamed {}",
            task.range.len(),
            records.len()
        )));
    }
    for (k, (index, _)) in records.iter().enumerate() {
        let expect = task.range.start + k;
        if *index != expect {
            return Err(fail(format!(
                "streamed indices do not cover {:?} exactly once (position {k} holds index \
                 {index}, expected {expect})",
                task.range
            )));
        }
    }
    Ok((CachedShard::of(records), unit_telemetry))
}

impl CachedShard {
    /// Settles a freshly executed unit: writes it through to `cache`
    /// under `(spec, seed, range)`, then drops the record buffer unless
    /// the caller keeps records. A full disk must not fail the run, so
    /// store errors are ignored.
    fn write_through(
        mut self,
        cache: Option<&ResultCache>,
        spec: &CampaignSpec,
        seed: u64,
        range: &Range<usize>,
        keep_records: bool,
    ) -> CachedShard {
        if let Some(cache) = cache {
            let _ = cache.store(spec, seed, range, &self.records, &self.acc);
        }
        if !keep_records {
            self.records = Vec::new();
        }
        self
    }
}

/// The cache fast path: probes each planned unit range, replays hits
/// straight into `slots` (releasing their records to `sink` exactly
/// once, just as a gathered unit would), and returns the queue of
/// misses still needing execution. Corrupt entries were already evicted
/// by [`ResultCache::lookup`], so they come back as plain misses.
///
/// The drain loops' sink contract holds here too: `sink.is_closed()`
/// is checked per unit, so a consumer that hangs up mid-replay of a
/// large warm run aborts with [`ExecError::SinkClosed`] instead of
/// receiving the rest of the replay.
fn cache_prepass(
    cache: Option<&ResultCache>,
    spec: &CampaignSpec,
    seed: u64,
    ranges: &[Range<usize>],
    sink: &Option<Arc<dyn RecordSink>>,
    keep_records: bool,
    slots: &mut [Option<CachedShard>],
) -> Result<VecDeque<(usize, u32)>, ExecError> {
    let Some(cache) = cache else {
        return Ok((0..ranges.len()).map(|k| (k, 0)).collect());
    };
    let mut misses = VecDeque::new();
    for (k, range) in ranges.iter().enumerate() {
        if sink.as_ref().is_some_and(|s| s.is_closed()) {
            return Err(ExecError::SinkClosed);
        }
        match cache.lookup(spec, seed, range) {
            Some(mut hit) => {
                if let Some(sink) = sink {
                    for (index, rec) in &hit.records {
                        sink.record(*index, rec);
                    }
                }
                if !keep_records {
                    hit.records = Vec::new();
                }
                if let Some(slot) = slots.get_mut(k) {
                    *slot = Some(hit);
                }
            }
            None => misses.push_back((k, 0)),
        }
    }
    Ok(misses)
}

/// Reassembles the per-unit outcomes into the campaign report: records
/// concatenated in unit order (each unit's slice is already sorted and
/// contiguous, and units partition `0..n`), stats from the accumulator
/// merge in unit order — exactly the single-process bytes.
fn assemble(n: usize, slots: Vec<Option<CachedShard>>) -> Result<CampaignReport, ExecError> {
    let mut merged = StatsAccumulator::new();
    let mut records = Vec::with_capacity(n);
    for (k, slot) in slots.into_iter().enumerate() {
        let outcome = slot.ok_or_else(|| ExecError::Coverage {
            what: format!("unit {k} finished without a result"),
        })?;
        merged = merged.merge(outcome.acc);
        records.extend(outcome.records.into_iter().map(|(_, rec)| rec));
    }
    if records.len() != n || merged.len() != n {
        return Err(ExecError::Coverage {
            what: format!(
                "expected {n} records, reassembled {} ({} accumulated)",
                records.len(),
                merged.len()
            ),
        });
    }
    Ok(CampaignReport {
        records,
        stats: merged.finish(),
    })
}

/// [`assemble`] without the record list: merges the accumulators in
/// unit order and finishes once. Per-unit index coverage was already
/// validated against each task at gather time, so `merged.len()` is the
/// remaining cross-unit check.
fn assemble_stats(n: usize, slots: Vec<Option<CachedShard>>) -> Result<CampaignStats, ExecError> {
    let mut merged = StatsAccumulator::new();
    for (k, slot) in slots.into_iter().enumerate() {
        let outcome = slot.ok_or_else(|| ExecError::Coverage {
            what: format!("unit {k} finished without a result"),
        })?;
        merged = merged.merge(outcome.acc);
    }
    if merged.len() != n {
        return Err(ExecError::Coverage {
            what: format!("expected {n} records, accumulated {}", merged.len()),
        });
    }
    Ok(merged.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::SolverSpec;
    use crate::stream::VecSink;
    use rv_model::TargetClass;

    fn spec() -> CampaignSpec {
        CampaignSpec::new(
            SolverSpec::Dedicated,
            vec![TargetClass::Type3, TargetClass::S1],
            30_000,
        )
    }

    #[test]
    fn local_executor_is_byte_identical_to_run_local() {
        let c = spec();
        let (seed, n) = (0x5EED, 12);
        let reference = c.run_local(seed, n);
        for threads in [0usize, 1, 3] {
            let sink = Arc::new(VecSink::new());
            let report = LocalExecutor::new()
                .threads(threads)
                .execute(&c, seed, n, Some(sink.clone() as Arc<dyn RecordSink>))
                .expect("local execution is infallible");
            assert_eq!(report, reference, "threads = {threads}");
            assert_eq!(
                report.stats.to_json(),
                reference.stats.to_json(),
                "threads = {threads}"
            );
            let seen = sink.take_sorted();
            assert_eq!(seen.len(), n);
            for (i, (idx, rec)) in seen.iter().enumerate() {
                assert_eq!(*idx, i);
                assert_eq!(rec, &reference.records[i]);
            }
        }
    }

    #[test]
    fn spawn_failure_exhausts_the_attempt_budget() {
        // Every registered command fails to spawn: failover walks the
        // list, the blacklist resets once it is full, and the unit still
        // gives up after exactly 1 + retries attempts.
        let exec = PoolExecutor::new(WorkerCommand::new("/nonexistent/rv-shard-worker-a"))
            .add_command(WorkerCommand::new("/nonexistent/rv-shard-worker-b"))
            .workers(2)
            .unit(2)
            .retries(2);
        let err = exec.execute(&spec(), 1, 4, None).unwrap_err();
        match err {
            ExecError::Exhausted {
                attempts, ref last, ..
            } => {
                assert_eq!(attempts, 3, "1 initial + 2 retries");
                assert!(matches!(last, ShardError::Spawn(_)), "{last}");
            }
            ref other => panic!("expected Exhausted, got {other}"),
        }
        assert!(err.to_string().contains("attempt"), "{err}");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn failing_workers_are_excluded_in_favor_of_survivors() {
        let exec = PoolExecutor::new(WorkerCommand::new("/nonexistent/a"))
            .add_command(WorkerCommand::new("/nonexistent/b"));
        let failed = Mutex::new(vec![false, false]);
        // Fresh state: round-robin by slot + attempt.
        assert_eq!(exec.pick_worker(0, 0, &failed), 0);
        assert_eq!(exec.pick_worker(1, 0, &failed), 1);
        assert_eq!(exec.pick_worker(0, 1, &failed), 1);
        // Command 0 observed failing: every slot prefers command 1.
        failed.lock().unwrap()[0] = true;
        assert_eq!(exec.pick_worker(0, 0, &failed), 1);
        assert_eq!(exec.pick_worker(2, 0, &failed), 1);
        // All failed: the blacklist clears (every survivor-less retry
        // round gets a fresh chance) and round-robin resumes.
        failed.lock().unwrap()[1] = true;
        assert_eq!(exec.pick_worker(0, 0, &failed), 0);
        assert_eq!(*failed.lock().unwrap(), vec![false, false]);
        assert_eq!(exec.pick_worker(0, 1, &failed), 1);
    }

    #[test]
    fn a_transiently_failing_sole_worker_is_retried_not_abandoned() {
        // Regression: with one worker command, the first failure used to
        // blacklist it permanently and `unwrap_or(start)` papered over
        // the empty survivor set — every remaining retry went to a pick
        // the executor itself considered dead. The blacklist must clear
        // when it fills, so the sole worker's transient failure still
        // leaves it eligible for the next attempt.
        let exec = PoolExecutor::new(WorkerCommand::new("/nonexistent/only"));
        let failed = Mutex::new(vec![true]);
        assert_eq!(exec.pick_worker(7, 3, &failed), 0);
        assert_eq!(*failed.lock().unwrap(), vec![false]);
    }

    #[test]
    fn wrap_prefixes_compose_into_the_program_and_args() {
        let worker = WorkerCommand::new("/opt/rv/rv-shard")
            .arg("worker")
            .arg("--threads")
            .arg("2");
        let wrapped = worker.wrap(["ssh", "host", "--"]);
        assert_eq!(
            wrapped.display_line(),
            "ssh host -- /opt/rv/rv-shard worker --threads 2"
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_wrap_prefix_panics() {
        let _ = WorkerCommand::new("w").wrap(Vec::<String>::new());
    }

    #[test]
    fn executor_names_are_stable() {
        assert_eq!(LocalExecutor::new().name(), "local");
        assert_eq!(PoolExecutor::new(WorkerCommand::new("w")).name(), "pool");
    }

    #[test]
    fn backend_maps_transports_and_refuses_process_transports_without_a_worker() {
        let req = |transport| CampaignRequest {
            n: 4,
            transport,
            workers: 9,
            unit: 0,
            retries: 0,
            cache: None,
        };
        let local = backend(&req(TransportSpec::Local), None, 1, None).expect("local");
        assert_eq!(local.name(), "local");
        assert!(
            local.take_worker_telemetry().is_empty(),
            "local reports none"
        );
        let transport = TransportSpec::Pool;
        let worker = Some(WorkerCommand::new("/nonexistent/rv-shard"));
        let pool = backend(&req(transport), worker, 1, None).expect("with a worker");
        assert_eq!(pool.name(), "pool");
        let err = backend(&req(transport), None, 1, None).err();
        assert_eq!(err, Some(NoWorker { transport }));
        assert!(err.is_some_and(|e| e.to_string().contains(transport.name())));
        // Nine requested workers over four indices clamp to four.
        assert_eq!(req(TransportSpec::Pool).worker_count(), 4);
    }

    #[test]
    fn pool_spawn_failure_exhausts_the_attempt_budget() {
        let exec = PoolExecutor::new(WorkerCommand::new("/nonexistent/rv-shard-worker"))
            .workers(2)
            .unit(2)
            .retries(1);
        let err = exec.execute(&spec(), 1, 8, None).unwrap_err();
        match err {
            ExecError::Exhausted {
                attempts, ref last, ..
            } => {
                assert_eq!(attempts, 2, "1 initial + 1 retry");
                assert!(matches!(last, ShardError::Spawn(_)), "{last}");
            }
            ref other => panic!("expected Exhausted, got {other}"),
        }
        assert!(exec.take_worker_telemetry().is_empty());
    }

    #[test]
    fn utilization_report_folds_worker_tagged_telemetry() {
        let t = |task_id: u32, wall_ns: u64| UnitTelemetry {
            task_id,
            attempt: 0,
            wall_ns,
        };
        let telemetry = vec![
            (0usize, t(0, 100)),
            (1, t(1, 50)),
            (0, t(2, 300)),
            (7, t(3, 999)), // out-of-range tag: ignored, never panics
        ];
        let report = UtilizationReport::from_worker_telemetry(3, &telemetry);
        assert_eq!(report.workers.len(), 3);
        assert_eq!(report.workers[0].units, 2);
        assert_eq!(report.workers[0].total_wall_ns, 400);
        assert_eq!(report.workers[0].mean_wall_ns, 200.0);
        assert_eq!(report.workers[0].max_wall_ns, 300);
        assert_eq!(report.workers[1].units, 1);
        assert_eq!(report.workers[2].units, 0, "idle slot still reported");
        assert_eq!(report.workers[2].mean_wall_ns, 0.0);
        let json = report.to_json();
        assert!(json.starts_with("{\"utilization\": ["), "{json}");
        assert!(json.contains("\"worker\": 2, \"units\": 0"), "{json}");
    }

    #[test]
    fn closed_sink_aborts_instead_of_draining_the_queue() {
        use crate::stream::ChannelSink;
        // Receiver dropped before the run: the sink latches closed at the
        // first delivered record, and the pool must fail with SinkClosed
        // instead of draining all remaining units. The worker command is
        // irrelevant — the closed-sink check fires before the first task
        // pull — so even a nonexistent binary never gets spawned.
        let (sink, rx) = ChannelSink::new();
        sink.record(0, &spec().run_local(0, 1).records[0].clone());
        drop(rx);
        sink.record(0, &spec().run_local(0, 1).records[0].clone());
        assert!(sink.is_closed());
        let sink: Arc<dyn RecordSink> = Arc::new(sink);

        let pool = PoolExecutor::new(WorkerCommand::new("/nonexistent/rv-shard-worker"))
            .workers(2)
            .unit(1);
        let err = pool.execute(&spec(), 1, 64, Some(sink)).unwrap_err();
        assert!(matches!(err, ExecError::SinkClosed), "{err}");
        assert!(err.to_string().contains("sink closed"), "{err}");
        assert!(std::error::Error::source(&err).is_none());
    }

    #[cfg(unix)]
    #[test]
    fn pool_folds_stats_from_records_not_from_a_shipped_acc() {
        // A worker answering in the older layout, whose `unit_done` line
        // still ships an accumulator — here one that contradicts its
        // records. The gather ignores it and folds the records.
        let (c, seed, n) = (spec(), 0x5EED, 6);
        let reference = c.run_local(seed, n);
        let mut answer = String::new();
        for (i, rec) in reference.records.iter().enumerate() {
            answer.push_str(&wire::encode_record(i, rec));
            answer.push('\n');
        }
        answer.push_str(&wire::encode_unit_telemetry(&UnitTelemetry {
            task_id: 0,
            attempt: 0,
            wall_ns: 1,
        }));
        answer.push('\n');
        answer.push_str(
            "{\"schema\": 3, \"kind\": \"unit_done\", \"task_id\": 0, \"start\": 0, \
             \"acc\": {\"n\": 6, \"met\": 0, \"infeasible\": 6, \"times\": [], \
             \"segments\": [1, 1, 1, 1, 1, 1], \"min_ratio\": 0, \"buckets\": []}}\n",
        );
        let file = std::env::temp_dir().join(format!("rv-legacy-answer-{}", std::process::id()));
        std::fs::write(&file, answer).unwrap();
        // Read the session opener and the one task, answer, then idle
        // until the driver closes stdin.
        let script = format!(
            "read spec; read task; cat '{}'; while read line; do :; done",
            file.display()
        );
        let worker = WorkerCommand::new("/bin/sh").arg("-c").arg(script);
        let report = PoolExecutor::new(worker).unit(n).execute(&c, seed, n, None);
        let _ = std::fs::remove_file(&file);
        let report = report.expect("a legacy answer gathers");
        assert_eq!(format!("{report:?}"), format!("{reference:?}"));
        assert_eq!(report.stats.to_json(), reference.stats.to_json());
    }

    #[test]
    fn assemble_rejects_missing_and_short_shards() {
        let err = assemble(3, vec![None]).unwrap_err();
        assert!(matches!(err, ExecError::Coverage { .. }), "{err}");

        let outcome = CachedShard::of(Vec::new());
        let err = assemble(3, vec![Some(outcome)]).unwrap_err();
        assert!(err.to_string().contains("expected 3 records"), "{err}");
    }
}
