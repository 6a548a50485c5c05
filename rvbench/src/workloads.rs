//! The three workloads. Each is a closed-loop driver: a lane holds one
//! op in flight and sends the next only when the previous report has
//! been validated.

use crate::Pinned;
use rv_core::batch::CampaignReport;
use rv_core::cache::ResultCache;
use rv_core::exec::{Executor, LocalExecutor, PoolExecutor, WorkerCommand};
use rv_core::shard::{CampaignRequest, CampaignSpec, SolverSpec, TransportSpec};
use rv_model::TargetClass;
use rv_serve::{Client, ClientError, ServeConfig, Server, ShutdownHandle};
use rvbench::check::{stats_bytes, Coverage, OpResult, Traffic};
use rvbench::trace::Trace;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// The workloads, by the name `--workload` takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// AUR campaigns on in-process threads: bound by stepping cost.
    SweepAur,
    /// Half-cached Dedicated campaigns on a persistent worker pool: bound
    /// by pool transport, wire, and cache.
    ResweepPool,
    /// AUR campaigns through the TCP service.
    ServeClosed,
}

/// The five classes `AlmostUniversalRV` is guaranteed on (Theorem 3.2).
const AUR_CLASSES: [TargetClass; 5] = [
    TargetClass::Type1,
    TargetClass::Type2,
    TargetClass::Type3,
    TargetClass::Type4Speed,
    TargetClass::Type4Rotation,
];

/// Index-unit size of the pool workload. Fixed: the pool's automatic unit
/// depends on `n`, which would move the cache grid with the op size.
pub const POOL_UNIT: usize = 128;

impl Workload {
    /// Parses a `--workload` value.
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "sweep_aur" => Some(Workload::SweepAur),
            "resweep_pool" => Some(Workload::ResweepPool),
            "serve_closed" => Some(Workload::ServeClosed),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepAur => "sweep_aur",
            Workload::ResweepPool => "resweep_pool",
            Workload::ServeClosed => "serve_closed",
        }
    }

    /// The campaign every op of this workload runs (with its own seed).
    pub fn spec(self) -> CampaignSpec {
        match self {
            Workload::SweepAur => CampaignSpec::new(SolverSpec::Aur, AUR_CLASSES.to_vec(), 20_000),
            Workload::ResweepPool => CampaignSpec::new(
                SolverSpec::Dedicated,
                vec![
                    TargetClass::Type1,
                    TargetClass::Type2,
                    TargetClass::S1,
                    TargetClass::S2,
                ],
                2_000,
            ),
            Workload::ServeClosed => {
                CampaignSpec::new(SolverSpec::Aur, AUR_CLASSES.to_vec(), 2_000)
            }
        }
    }

    /// Campaign size of one op.
    pub fn n(self) -> usize {
        match self {
            Workload::SweepAur | Workload::ServeClosed => 64,
            Workload::ResweepPool => 4096,
        }
    }

    /// Warm-up ops per lane in each set-up.
    pub fn warmup_ops(self) -> u64 {
        match self {
            Workload::SweepAur => 3,
            Workload::ResweepPool => 3,
            Workload::ServeClosed => 3,
        }
    }

    /// Builds the workload's resources (no warm-up yet).
    pub fn start(self, pinned: &Pinned, scratch: &Path) -> Result<Box<dyn Driver>, String> {
        Ok(match self {
            Workload::SweepAur => Box::new(Sweep {
                spec: self.spec(),
                n: self.n(),
                exec: LocalExecutor::new().threads(pinned.threads),
                threads: pinned.threads,
            }),
            Workload::ResweepPool => Box::new(Resweep::start(self, pinned, scratch)?),
            Workload::ServeClosed => Box::new(Serve::start(self.spec(), self.n(), pinned)?),
        })
    }
}

/// One workload's live resources, driven lane by lane.
pub trait Driver: Sync {
    /// Concurrent lanes (client connections), each with one op in flight.
    fn lanes(&self) -> usize;

    /// Compute threads one op may use (the denominator of parallel
    /// efficiency).
    fn op_threads(&self) -> usize;

    /// Runs op `k` with campaign seed `seed` on `lane`. The op's latency
    /// is measured inside, from request to validated report; work the op
    /// needs but a user would not wait for (the pool workload's cache
    /// preparation) stays outside it. With `trace`, spans are recorded
    /// around the calls into each layer.
    fn op(
        &self,
        lane: usize,
        k: u64,
        seed: u64,
        keep_stats: bool,
        trace: Option<&Trace>,
    ) -> OpResult;

    /// The server address, for workloads that run one.
    fn server(&self) -> Option<SocketAddr> {
        None
    }
}

/// Checks a report against the delivery counts and the requested size.
fn delivered(
    k: u64,
    started: Instant,
    n: usize,
    report: &CampaignReport,
    coverage: &Coverage,
    keep_stats: bool,
) -> OpResult {
    let ok = coverage.exactly_once() && report.stats.n == n && report.records.len() == n;
    OpResult::delivered(
        k,
        started.elapsed().as_secs_f64() * 1e3,
        ok,
        &report.records,
        &report.stats,
        keep_stats,
    )
}

/// Runs `f` inside a span when tracing, plainly otherwise.
fn maybe_span<R>(
    trace: Option<&Trace>,
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    f: impl FnOnce(Option<usize>) -> R,
) -> R {
    match trace {
        Some(t) => t.span(name, op, parent, |id| f(Some(id))),
        None => f(None),
    }
}

// ---------------------------------------------------------------------------
// sweep_aur
// ---------------------------------------------------------------------------

struct Sweep {
    spec: CampaignSpec,
    n: usize,
    exec: LocalExecutor,
    threads: usize,
}

impl Driver for Sweep {
    fn lanes(&self) -> usize {
        1
    }

    fn op_threads(&self) -> usize {
        self.threads
    }

    fn op(&self, _lane: usize, k: u64, seed: u64, keep: bool, trace: Option<&Trace>) -> OpResult {
        let coverage = Arc::new(Coverage::new(self.n));
        let started = Instant::now();
        maybe_span(trace, "op", k, None, |parent| {
            let report = maybe_span(trace, "rv_core.exec.local", k, parent, |_| {
                self.exec
                    .execute(&self.spec, seed, self.n, Some(coverage.clone()))
            });
            match report {
                Ok(report) => delivered(k, started, self.n, &report, &coverage, keep),
                Err(_) => OpResult::failed(k),
            }
        })
    }
}

// ---------------------------------------------------------------------------
// resweep_pool
// ---------------------------------------------------------------------------

struct Resweep {
    spec: CampaignSpec,
    n: usize,
    pool: PoolExecutor,
    cache: Arc<ResultCache>,
    workers: usize,
}

impl Resweep {
    fn start(w: Workload, pinned: &Pinned, scratch: &Path) -> Result<Resweep, String> {
        let dir = scratch.join("resweep-cache");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(ResultCache::open(&dir).map_err(|e| e.to_string())?);
        let pool = PoolExecutor::new(pool_worker(&pinned.worker_bin))
            .workers(pinned.workers)
            .unit(POOL_UNIT)
            .cache(Arc::clone(&cache));
        Ok(Resweep {
            spec: w.spec(),
            n: w.n(),
            pool,
            cache,
            workers: pinned.workers,
        })
    }
}

/// The pool worker: one persistent single-threaded `rv-shard` session.
pub fn pool_worker(bin: &Path) -> WorkerCommand {
    WorkerCommand::new(bin)
        .arg("worker")
        .arg("--threads")
        .arg("1")
}

/// Removes every entry of a cache directory.
fn clear_dir(dir: &Path) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

impl Driver for Resweep {
    fn lanes(&self) -> usize {
        1
    }

    fn op_threads(&self) -> usize {
        self.workers
    }

    fn op(&self, _lane: usize, k: u64, seed: u64, keep: bool, trace: Option<&Trace>) -> OpResult {
        // The user's earlier sweep: the first half of this op's units.
        let half = self.n / 2;
        let prefilled = maybe_span(trace, "prefill", k, None, |_| {
            self.pool.execute_stats(&self.spec, seed, half, None)
        });
        if prefilled.is_err() {
            clear_dir(self.cache.dir());
            return OpResult::failed(k);
        }
        let before = self.cache.stats();
        let coverage = Arc::new(Coverage::new(self.n));
        let started = Instant::now();
        let mut out = maybe_span(trace, "op", k, None, |parent| {
            let report = maybe_span(trace, "rv_core.exec.pool", k, parent, |_| {
                self.pool
                    .execute(&self.spec, seed, self.n, Some(coverage.clone()))
            });
            match report {
                Ok(report) => delivered(k, started, self.n, &report, &coverage, keep),
                Err(_) => OpResult::failed(k),
            }
        });
        let after = self.cache.stats();
        let telemetry = self.pool.take_worker_telemetry();
        let mut busy = vec![0.0; self.workers];
        for (slot, unit) in &telemetry {
            if let Some(b) = busy.get_mut(*slot) {
                *b += unit.wall_ns as f64 / 1e6;
            }
        }
        out.traffic = Traffic {
            units_run: telemetry.len() as u64,
            retries: telemetry.iter().map(|(_, u)| u64::from(u.attempt)).sum(),
            cache_hits: after.hits - before.hits,
            cache_misses: after.misses - before.misses,
            cache_stores: after.stores - before.stores,
            refused: 0,
        };
        out.worker_busy_ms = busy;
        // Exactly the first half of the units replays from the cache; the
        // other half runs on workers and is written through.
        let units = self.n.div_ceil(POOL_UNIT) as u64;
        let expected = units - units / 2;
        let t = out.traffic;
        if t.cache_hits != units / 2
            || t.cache_misses != expected
            || t.cache_stores != expected
            || t.units_run != expected
        {
            out.fail();
        }
        maybe_span(trace, "cleanup", k, None, |_| clear_dir(self.cache.dir()));
        out
    }
}

// ---------------------------------------------------------------------------
// serve_closed
// ---------------------------------------------------------------------------

/// An in-process campaign server on a free loopback port.
struct ServerThread {
    addr: SocketAddr,
    handle: ShutdownHandle,
    join: Option<JoinHandle<std::io::Result<()>>>,
}

impl ServerThread {
    /// Binds and starts serving with `local_threads` threads per
    /// local-transport campaign.
    fn start(local_threads: usize) -> Result<ServerThread, String> {
        let config = ServeConfig {
            local_threads,
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run());
        Ok(ServerThread {
            addr,
            handle,
            join: Some(join),
        })
    }

    /// The bound address.
    fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ServerThread {
    fn drop(&mut self) {
        // Drains once every client connection has closed.
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Served campaigns over `connections` client connections to an
/// in-process server.
pub struct Serve {
    spec: CampaignSpec,
    n: usize,
    // Declared before the server so the connections close first on drop
    // and the server can drain.
    clients: Vec<Mutex<Client>>,
    twin: LocalExecutor,
    threads: usize,
    server: ServerThread,
}

impl Serve {
    /// Starts a server and connects the pinned number of clients; each op
    /// runs `(spec, seed, n)` over the local transport.
    pub fn start(spec: CampaignSpec, n: usize, pinned: &Pinned) -> Result<Serve, String> {
        let server = ServerThread::start(pinned.threads)?;
        let clients = (0..pinned.connections)
            .map(|_| Client::connect(server.addr()).map(Mutex::new))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Serve {
            spec,
            n,
            clients,
            twin: LocalExecutor::new().threads(pinned.threads),
            threads: pinned.threads,
            server,
        })
    }
}

impl Driver for Serve {
    fn lanes(&self) -> usize {
        self.clients.len()
    }

    fn op_threads(&self) -> usize {
        self.threads
    }

    /// One campaign through this lane's connection. A traced op is then
    /// run again as `(spec, seed, n)` through `LocalExecutor` from the same
    /// thread, its local twin: the service overhead is the difference.
    fn op(&self, lane: usize, k: u64, seed: u64, keep: bool, trace: Option<&Trace>) -> OpResult {
        let (spec, n) = (&self.spec, self.n);
        let mut client = self.clients[lane].lock().expect("one thread per lane");
        let request = CampaignRequest {
            n,
            transport: TransportSpec::Local,
            workers: 0,
            unit: 0,
            retries: 0,
            cache: None,
        };
        let started = Instant::now();
        let answer = maybe_span(trace, "op", k, None, |parent| {
            maybe_span(trace, "rv_serve.run_campaign", k, parent, |_| {
                client.run_campaign(spec, seed, &request)
            })
        });
        let latency_ms = started.elapsed().as_secs_f64() * 1e3;
        let run = match answer {
            Ok(run) => run,
            Err(e) => {
                let mut out = OpResult::failed(k);
                if matches!(e, ClientError::Server(_)) {
                    out.traffic.refused = 1;
                }
                return out;
            }
        };
        let coverage = Coverage::new(n);
        for (index, _) in &run.records {
            coverage.mark(*index);
        }
        let ok = coverage.exactly_once() && run.stats.n == n;
        let records = run.records.iter().map(|(_, r)| r);
        let keep = keep || trace.is_some();
        let mut out = OpResult::delivered(k, latency_ms, ok, records, &run.stats, keep);
        if let Some(trace) = trace {
            let t0 = Instant::now();
            let local = trace.span("local.twin", k, None, |_| {
                self.twin.execute(spec, seed, n, None)
            });
            out.twin_ms = Some(t0.elapsed().as_secs_f64() * 1e3);
            let same = local
                .ok()
                .is_some_and(|r| out.stats.as_deref() == Some(stats_bytes(&r.stats).as_str()));
            if !same {
                out.fail();
            }
        }
        out
    }

    fn server(&self) -> Option<SocketAddr> {
        Some(self.server.addr())
    }
}

/// Where the benchmark keeps its scratch files for this process.
pub fn scratch_dir(target: &Path, workload: Workload) -> PathBuf {
    target
        .join("rvbench-scratch")
        .join(format!("{}-{}", workload.name(), std::process::id()))
}
