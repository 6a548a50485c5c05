//! The traced run: the same closed loop with spans around the calls into
//! each layer, then a replay of traced ops through each layer's public
//! functions from this file, then per-layer metrics.
//!
//! Counts describe the op path and are zero where a workload's ops do
//! not pass through a layer. Times of such an off-path layer come from a
//! probe of that layer on the workload's own campaign spec (a probe pool
//! for `rv_core.exec`, a probe server for `rv_serve`), so every per-layer
//! number of every workload is measured.

use crate::workloads::{pool_worker, Driver, Serve, Workload};
use crate::{
    check_references, metric, run_loop, set_up, Args, Metric, Outcome, MIN_TRACED_LOOP_OPS,
    SENTINEL_OPS,
};
use rv_baselines::{beeline, canonical_march};
use rv_core::batch::{mix_seed, RunRecord, StatsAccumulator};
use rv_core::cache::ResultCache;
use rv_core::exec::{Executor, PoolExecutor};
use rv_core::shard::{plan_units, CampaignSpec, SolverSpec};
use rv_core::solver::{Aur, Dedicated, Solver};
use rv_core::{compiled_aur, recommend, wire, DedicatedChoice};
use rv_model::{Instance, TargetClass};
use rv_serve::Client;
use rv_sim::{BudgetReason, Outcome as SimOutcome};
use rv_trajectory::{Instr, Motion};
use rvbench::check::{stats_bytes, OpResult};
use rvbench::stats::{mean, nearest_rank, percentile, ratio};
use rvbench::sys::CpuTicks;
use rvbench::trace::Trace;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

/// Traced ops replayed layer by layer: enough solves for a p99 on every
/// workload (20 × 64 ≥ 1000) and enough ops for per-op means.
const REPLAY_OPS: usize = 20;
/// Index-unit size of the cache probe (the pool workload's unit).
const CACHE_UNIT: usize = crate::workloads::POOL_UNIT;
/// Probe campaigns run on a probe pool for off-pool workloads.
const EXEC_PROBE_OPS: u64 = 3;
/// Fresh pools the spawn probe starts.
const SPAWN_PROBES: usize = 3;
/// Probe connections the connect probe opens.
const CONNECT_PROBES: usize = 10;
/// Served probe campaigns for off-service workloads: a p90 needs 100.
const SERVE_PROBE_OPS: u64 = 100;
/// Op numbers of probe campaigns start here, apart from the loop's ops.
const PROBE_BASE: u64 = 1 << 40;
/// Salt separating probe seeds from measured ones.
const PROBE_SALT: u64 = 0x5052_4f42_4500_0001;

/// One replayed solve.
struct Solve {
    ns: f64,
    step_ns: f64,
    stepped: u64,
    segments: u64,
    exhausted: bool,
}

/// What replaying one op through the layers measured.
struct Replay {
    k: u64,
    solves: Vec<Solve>,
    instance_ns: Vec<f64>,
    fold_ns: f64,
    encode_ns: f64,
    decode_ns: f64,
    wire_bytes: u64,
    store_ns: Vec<f64>,
    hit_ns: Vec<f64>,
    miss_ns: Vec<f64>,
    cache_bytes: u64,
    ok: bool,
}

/// Steps the two agents' motions in the order the engine merges them
/// (earliest segment end first, both on a tie) until `target` segments
/// have been pulled; returns how many were.
fn pull<PA, PB>(mut ma: Motion<PA>, mut mb: Motion<PB>, target: u64) -> u64
where
    PA: Iterator<Item = Instr>,
    PB: Iterator<Item = Instr>,
{
    let (Some(mut a), Some(mut b)) = (ma.next(), mb.next()) else {
        return 0;
    };
    let mut pulled = 2;
    while pulled < target {
        let (a_ends, b_ends) = match (&a.end, &b.end) {
            (None, None) => break,
            (Some(_), None) => (true, false),
            (None, Some(_)) => (false, true),
            (Some(ea), Some(eb)) => match ea.cmp(eb) {
                std::cmp::Ordering::Less => (true, false),
                std::cmp::Ordering::Greater => (false, true),
                std::cmp::Ordering::Equal => (true, true),
            },
        };
        if a_ends {
            let Some(next) = ma.next() else { break };
            a = next;
            pulled += 1;
        }
        if b_ends {
            let Some(next) = mb.next() else { break };
            b = next;
            pulled += 1;
        }
    }
    std::hint::black_box((&a, &b));
    pulled
}

/// Steps the programs the solver ran on `inst` for `target` segments.
fn step(inst: &Instance, solver: SolverSpec, target: u64) -> u64 {
    let choice = match solver {
        SolverSpec::Aur => DedicatedChoice::Aur,
        SolverSpec::Dedicated => recommend(inst).solver,
    };
    let (a, b) = (inst.agent_a(), inst.agent_b());
    let both = |p: Vec<Instr>| (p.clone().into_iter(), p.into_iter());
    let (pa, pb) = match choice {
        DedicatedChoice::Aur => {
            let aur = compiled_aur();
            return pull(
                Motion::new(a, aur.cursor()),
                Motion::new(b, aur.cursor()),
                target,
            );
        }
        DedicatedChoice::StayPut => both(Vec::new()),
        DedicatedChoice::Beeline => both(beeline(inst)),
        DedicatedChoice::CanonicalMarch => both(canonical_march(inst)),
    };
    pull(Motion::new(a, pa), Motion::new(b, pb), target)
}

/// Replays op `k` — `(spec, seed, 0..n)` — through each layer in turn,
/// one span per call, and checks the result against the op's own stats.
fn replay(
    spec: &CampaignSpec,
    seed: u64,
    n: usize,
    op: &OpResult,
    trace: &Trace,
    cache: &ResultCache,
) -> Replay {
    let k = op.k;
    let budget = spec.budget();
    let solver: &dyn Solver = match spec.solver {
        SolverSpec::Aur => &Aur,
        SolverSpec::Dedicated => &Dedicated,
    };
    trace.span("replay", k, None, |root| {
        let root = Some(root);
        let mut out = Replay {
            k,
            solves: Vec::with_capacity(n),
            instance_ns: Vec::with_capacity(n),
            fold_ns: 0.0,
            encode_ns: 0.0,
            decode_ns: 0.0,
            wire_bytes: 0,
            store_ns: Vec::new(),
            hit_ns: Vec::new(),
            miss_ns: Vec::new(),
            cache_bytes: 0,
            ok: true,
        };
        let mut records: Vec<RunRecord> = Vec::with_capacity(n);
        for i in 0..n {
            let (inst, ns) = trace.timed("rv_model.instance", k, root, || spec.instance(seed, i));
            out.instance_ns.push(ns);
            let (report, solve_ns) =
                trace.timed("rv_sim.solve", k, root, || solver.solve(&inst, &budget));
            let (stepped, step_ns) = trace.timed("rv_trajectory.step", k, root, || {
                step(&inst, spec.solver, report.segments)
            });
            out.solves.push(Solve {
                ns: solve_ns,
                step_ns,
                stepped,
                segments: report.segments,
                exhausted: matches!(report.outcome, SimOutcome::Budget(BudgetReason::Segments)),
            });
            records.push(RunRecord::from_report(&inst, &report));
        }

        let (stats, ns) = trace.timed("rv_core.batch.fold", k, root, || {
            let mut acc = StatsAccumulator::new();
            acc.reserve(records.len());
            for rec in &records {
                acc.push(rec);
            }
            acc.finish()
        });
        out.fold_ns = ns;
        out.ok &= op.stats.as_deref() == Some(stats_bytes(&stats).as_str());

        let (lines, ns) = trace.timed("rv_core.wire.encode", k, root, || {
            records
                .iter()
                .enumerate()
                .map(|(i, rec)| wire::encode_record(i, rec))
                .collect::<Vec<_>>()
        });
        out.encode_ns = ns;
        out.wire_bytes = lines.iter().map(|l| l.len() as u64 + 1).sum();
        let (decoded, ns) = trace.timed("rv_core.wire.decode", k, root, || {
            lines
                .iter()
                .map(|l| wire::decode_record(l))
                .collect::<Vec<_>>()
        });
        out.decode_ns = ns;
        out.ok &= decoded
            .iter()
            .enumerate()
            .all(|(i, d)| matches!(d, Ok((j, rec)) if *j == i && *rec == records[i]));

        for range in plan_units(n, CACHE_UNIT) {
            let unit: Vec<(usize, RunRecord)> =
                range.clone().map(|i| (i, records[i].clone())).collect();
            let mut acc = StatsAccumulator::new();
            for (_, rec) in &unit {
                acc.push(rec);
            }
            let (stored, ns) = trace.timed("rv_core.cache.store", k, root, || {
                cache.store(spec, seed, &range, &unit, &acc)
            });
            out.store_ns.push(ns);
            let Ok(key) = stored else {
                out.ok = false;
                continue;
            };
            out.cache_bytes += std::fs::metadata(cache.entry_path(key)).map_or(0, |m| m.len());
            let (hit, ns) = trace.timed("rv_core.cache.lookup_hit", k, root, || {
                cache.lookup(spec, seed, &range)
            });
            out.hit_ns.push(ns);
            out.ok &= hit.is_some_and(|h| h.records == unit);
            let (miss, ns) = trace.timed("rv_core.cache.lookup_miss", k, root, || {
                cache.lookup(spec, seed ^ PROBE_SALT, &range)
            });
            out.miss_ns.push(ns);
            out.ok &= miss.is_none();
            cache.evict(key);
        }
        out
    })
}

/// Per-op pool figures: `(op latency, busy time per worker slot)`.
type PoolOp = (f64, Vec<f64>);

/// Runs probe campaigns of the workload's spec on a probe pool.
fn exec_probe(args: &Args, probe_seed: &dyn Fn(u64) -> u64) -> Result<Vec<PoolOp>, String> {
    let w = args.workload;
    let workers = args.pinned.workers;
    let pool = PoolExecutor::new(pool_worker(&args.pinned.worker_bin))
        .workers(workers)
        .unit(8);
    let spec = w.spec();
    let mut ops = Vec::new();
    // The first campaign spawns the workers; it is not measured.
    for j in 0..=EXEC_PROBE_OPS {
        let started = Instant::now();
        pool.execute_stats(&spec, probe_seed(j), w.n(), None)
            .map_err(|e| format!("exec probe: {e}"))?;
        let latency_ms = started.elapsed().as_secs_f64() * 1e3;
        let mut busy = vec![0.0; workers];
        for (slot, unit) in pool.take_worker_telemetry() {
            if let Some(b) = busy.get_mut(slot) {
                *b += unit.wall_ns as f64 / 1e6;
            }
        }
        if j > 0 {
            ops.push((latency_ms, busy));
        }
    }
    Ok(ops)
}

/// Worker start-up cost: the first campaign on a fresh pool minus the
/// same campaign on the now-warm pool. The campaign is one cheap
/// Dedicated run per worker, so the difference is spawn plus session
/// opening.
fn spawn_probe(args: &Args, probe_seed: &dyn Fn(u64) -> u64) -> Result<Vec<f64>, String> {
    let workers = args.pinned.workers;
    let spec = CampaignSpec::new(SolverSpec::Dedicated, vec![TargetClass::Type1], 2_000);
    (0..SPAWN_PROBES as u64)
        .map(|j| {
            let pool = PoolExecutor::new(pool_worker(&args.pinned.worker_bin))
                .workers(workers)
                .unit(1);
            let mut walls = [0.0; 2];
            for wall in &mut walls {
                let started = Instant::now();
                pool.execute_stats(&spec, probe_seed(j), workers, None)
                    .map_err(|e| format!("spawn probe: {e}"))?;
                *wall = started.elapsed().as_secs_f64() * 1e3;
            }
            Ok(walls[0] - walls[1])
        })
        .collect()
}

/// Times `Client::connect` against `addr`.
fn connect_probe(addr: SocketAddr) -> Result<Vec<f64>, String> {
    (0..CONNECT_PROBES)
        .map(|_| {
            let started = Instant::now();
            let client = Client::connect(addr).map_err(|e| format!("connect probe: {e}"))?;
            let ms = started.elapsed().as_secs_f64() * 1e3;
            drop(client);
            Ok(ms)
        })
        .collect()
}

/// The traced run of `args.workload`.
pub fn traced(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let w = args.workload;
    let spec = w.spec();
    let n = w.n();
    let seed = args.seed;
    // Ops come in pairs on one campaign seed: the even op runs untraced,
    // the odd one traced, so the tracing overhead is a paired comparison.
    let seed_of = &move |k: u64| mix_seed(seed, k / 2);
    let probe_seed = move |j: u64| mix_seed(seed ^ PROBE_SALT, j);
    let trace = Trace::new();

    let (driver, _) = set_up(args, scratch)?;
    let is_traced = |k: u64| k % 2 == 1;
    let ticks = CpuTicks::now();
    let mut ops = run_loop(
        driver.as_ref(),
        args.seconds,
        MIN_TRACED_LOOP_OPS,
        0,
        seed_of,
        Some((&trace, &is_traced)),
    );
    let window = CpuTicks::now().since(ticks);
    let op_threads = driver.op_threads() as f64;

    // Off-path probes, and the connect probe against the live server.
    let connect_ms = match driver.server() {
        Some(addr) => connect_probe(addr)?,
        None => Vec::new(),
    };
    drop(driver);
    check_references(args, seed_of, &mut ops);
    let traced_ops: Vec<&OpResult> = ops.iter().filter(|o| is_traced(o.k) && o.ok).collect();

    let (connect_ms, overheads): (Vec<f64>, Vec<f64>) = if w == Workload::ServeClosed {
        let overheads = traced_ops
            .iter()
            .filter_map(|o| o.twin_ms.map(|t| o.latency_ms - t))
            .collect();
        (connect_ms, overheads)
    } else {
        // Small probe campaigns keep the probe short: 2 runs of the
        // stepping-bound spec, one unit of the pool spec.
        let probe_n = if w == Workload::SweepAur {
            2
        } else {
            CACHE_UNIT
        };
        let probe = Serve::start(spec.clone(), probe_n, &args.pinned)?;
        let connect_ms = connect_probe(probe.server().expect("a server"))?;
        let probe_ops = run_loop(
            &probe,
            0.0,
            SERVE_PROBE_OPS,
            PROBE_BASE,
            &probe_seed,
            Some((&trace, &|_| true)),
        );
        if probe_ops.iter().any(|o| !o.ok) {
            return Err("a served probe campaign failed".to_string());
        }
        let overheads = probe_ops
            .iter()
            .filter_map(|o| o.twin_ms.map(|t| o.latency_ms - t))
            .collect();
        (connect_ms, overheads)
    };

    let pool_ops: Vec<PoolOp> = if w == Workload::ResweepPool {
        traced_ops
            .iter()
            .map(|o| (o.latency_ms, o.worker_busy_ms.clone()))
            .collect()
    } else {
        exec_probe(args, &probe_seed)?
    };
    let spawn_ms = spawn_probe(args, &probe_seed)?;

    let probe_cache = ResultCache::open(scratch.join("probe-cache")).map_err(|e| e.to_string())?;
    let replays: Vec<Replay> = traced_ops
        .iter()
        .take(REPLAY_OPS)
        .map(|op| replay(&spec, seed_of(op.k), n, op, &trace, &probe_cache))
        .collect();
    let replay_ok = replays.len() == REPLAY_OPS && replays.iter().all(|r| r.ok);

    let mut metrics = layer_metrics(&replays, &traced_ops, op_threads);
    let workers = args.pinned.workers as f64;
    let busy: Vec<f64> = pool_ops.iter().map(|(_, b)| b.iter().sum()).collect();
    let share: Vec<f64> = pool_ops
        .iter()
        .map(|(lat, b)| ratio(b.iter().sum(), lat * workers))
        .collect();
    let gather: Vec<f64> = pool_ops
        .iter()
        .map(|(lat, b)| lat - b.iter().copied().fold(0.0, f64::max))
        .collect();
    let sentinel_ops = ops.iter().filter(|o| o.k < SENTINEL_OPS);
    let units_run: u64 = sentinel_ops.clone().map(|o| o.traffic.units_run).sum();
    let retries: u64 = sentinel_ops.map(|o| o.traffic.retries).sum();
    let hits: u64 = ops.iter().map(|o| o.traffic.cache_hits).sum();
    let lookups: u64 = hits + ops.iter().map(|o| o.traffic.cache_misses).sum::<u64>();
    let refused: u64 = ops.iter().map(|o| o.traffic.refused).sum();
    // Traced over untraced latency of the same campaign, pair by pair.
    let paired: Vec<f64> = traced_ops
        .iter()
        .filter_map(|t| {
            // `ops` holds every op `0..len` in order, so op k sits at k.
            let u = ops.get(t.k as usize - 1).filter(|u| u.ok)?;
            Some(t.latency_ms / u.latency_ms)
        })
        .collect();
    metrics.extend([
        metric("rv_core.exec.worker_busy_ms", "ms", mean(&busy)),
        metric("rv_core.exec.worker_busy_share", "ratio", mean(&share)),
        metric("rv_core.exec.gather_overhead_ms", "ms", mean(&gather)),
        metric("rv_core.exec.spawn_ms", "ms", nearest_rank(&spawn_ms, 50)),
        metric("rv_core.exec.units_run", "count", units_run as f64),
        metric("rv_core.exec.retries", "count", retries as f64),
        metric(
            "rv_core.cache.hit_ratio",
            "ratio",
            ratio(hits as f64, lookups as f64),
        ),
        metric("rv_serve.connect_ms", "ms", mean(&connect_ms)),
        metric("rv_serve.overhead_p50_ms", "ms", percentile(&overheads, 50)),
        metric("rv_serve.overhead_p90_ms", "ms", percentile(&overheads, 90)),
        metric("rv_serve.refused", "count", refused as f64),
        metric(
            "trace.overhead_share",
            "ratio",
            percentile(&paired, 50).map(|r| r - 1.0),
        ),
    ]);

    let trace_dir = args.target.join("rvbench-traces");
    let trace_file = trace_dir.join(format!("{}-seed{}.jsonl", w.name(), seed));
    std::fs::create_dir_all(&trace_dir)
        .and_then(|()| trace.write_jsonl(&trace_file))
        .map_err(|e| format!("writing {}: {e}", trace_file.display()))?;

    Ok(Outcome {
        ops,
        metrics,
        extra_ok: replay_ok,
        window,
        trace_file: Some(trace_file),
    })
}

/// Metrics of the layers the replay went through.
fn layer_metrics(replays: &[Replay], traced_ops: &[&OpResult], op_threads: f64) -> Vec<Metric> {
    let solves: Vec<&Solve> = replays.iter().flat_map(|r| &r.solves).collect();
    let solve_ns: Vec<f64> = solves.iter().map(|s| s.ns).collect();
    let total_ns: f64 = solve_ns.iter().sum();
    let step_ns: f64 = solves.iter().map(|s| s.step_ns).sum();
    let stepped: u64 = solves.iter().map(|s| s.stepped).sum();
    let segments: u64 = solves.iter().map(|s| s.segments).sum();
    let exhausted: Vec<&&Solve> = solves.iter().filter(|s| s.exhausted).collect();
    let exhausted_ns: f64 = exhausted.iter().map(|s| s.ns).sum();
    let instance_ns: Vec<f64> = replays.iter().flat_map(|r| r.instance_ns.clone()).collect();
    let records: f64 = solves.len() as f64;

    // Parallel attribution per replayed op: serial solve time, the longest
    // single solve, and serial time over the op's wall times its threads.
    let mut serial = Vec::new();
    let mut critical = Vec::new();
    let mut efficiency = Vec::new();
    for r in replays {
        let s: f64 = r.solves.iter().map(|s| s.ns).sum::<f64>() / 1e6;
        serial.push(s);
        critical.push(r.solves.iter().map(|s| s.ns).fold(0.0, f64::max) / 1e6);
        if let Some(op) = traced_ops.iter().find(|o| o.k == r.k) {
            efficiency.push(ratio(s, op.latency_ms * op_threads));
        }
    }
    let flat = |f: fn(&Replay) -> &Vec<f64>| -> Vec<f64> {
        replays.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let per = |f: fn(&Replay) -> f64| -> f64 { replays.iter().map(f).sum() };
    let us = |ns: f64| ns / 1e3;
    vec![
        metric("rv_model.instance_us", "us", us(mean(&instance_ns))),
        metric(
            "rv_trajectory.ns_per_segment",
            "ns",
            ratio(step_ns, stepped as f64),
        ),
        metric(
            "rv_sim.solve_ns_per_segment",
            "ns",
            ratio(total_ns, segments as f64),
        ),
        metric(
            "rv_sim.engine_ns_per_segment",
            "ns",
            ratio(total_ns - step_ns, segments as f64),
        ),
        metric(
            "rv_sim.solve_p50_us",
            "us",
            percentile(&solve_ns, 50).map(us),
        ),
        metric(
            "rv_sim.solve_p99_us",
            "us",
            percentile(&solve_ns, 99).map(us),
        ),
        metric("rv_sim.segments", "count", segments as f64),
        metric(
            "rv_sim.exhausted_share",
            "ratio",
            ratio(exhausted.len() as f64, records),
        ),
        metric(
            "rv_sim.exhausted_time_share",
            "ratio",
            ratio(exhausted_ns, total_ns),
        ),
        metric("rv_core.parallel.serial_ms", "ms", mean(&serial)),
        metric("rv_core.parallel.critical_path_ms", "ms", mean(&critical)),
        metric("rv_core.parallel.efficiency", "ratio", mean(&efficiency)),
        metric(
            "rv_core.batch.fold_us",
            "us",
            us(per(|r| r.fold_ns) / replays.len().max(1) as f64),
        ),
        metric(
            "rv_core.wire.encode_ns_per_record",
            "ns",
            ratio(per(|r| r.encode_ns), records),
        ),
        metric(
            "rv_core.wire.decode_ns_per_record",
            "ns",
            ratio(per(|r| r.decode_ns), records),
        ),
        metric(
            "rv_core.wire.bytes_per_record",
            "bytes",
            ratio(per(|r| r.wire_bytes as f64), records),
        ),
        metric(
            "rv_core.cache.lookup_hit_us",
            "us",
            us(mean(&flat(|r| &r.hit_ns))),
        ),
        metric(
            "rv_core.cache.lookup_miss_us",
            "us",
            us(mean(&flat(|r| &r.miss_ns))),
        ),
        metric(
            "rv_core.cache.store_us",
            "us",
            us(mean(&flat(|r| &r.store_ns))),
        ),
        metric(
            "rv_core.cache.bytes_per_record",
            "bytes",
            ratio(per(|r| r.cache_bytes as f64), records),
        ),
    ]
}
