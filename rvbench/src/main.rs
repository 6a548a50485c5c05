//! `rvbench` — end-to-end and per-layer benchmark of the plane-rendezvous
//! campaign stack.
//!
//! ```text
//! rvbench --workload sweep_aur|resweep_pool|serve_closed --seed N
//!         --seconds S --trace 0|1 --threads T --workers K --connections C
//!         --worker-bin PATH
//! ```
//!
//! Prints one line of sentinels and provenance, then, as the last line,
//! the result object `{"correct", "attempted", "failed", "metrics"}`:
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. See `rvbench/NOTES.md` for what every number means.

mod layers;
mod workloads;

use rv_core::batch::mix_seed;
use rv_core::json;
use rvbench::check::{stats_bytes, OpResult, Traffic};
use rvbench::stats::{block_median, failed_share, nearest_rank, percentile, BLOCKS};
use rvbench::sys::{self, CpuTicks};
use rvbench::trace::Trace;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use workloads::{Driver, Workload};

/// Thread, worker, and connection counts, pinned on the command line
/// (never read from the machine) so that runs on different core counts
/// do the same work.
pub struct Pinned {
    /// In-process compute threads per campaign.
    pub threads: usize,
    /// Persistent pool worker processes.
    pub workers: usize,
    /// Client connections of the served workload.
    pub connections: usize,
    /// The `rv-shard` binary the pool spawns.
    pub worker_bin: PathBuf,
}

struct Args {
    workload: Workload,
    /// Build directory; traces are written under it.
    target: PathBuf,
    seed: u64,
    seconds: f64,
    trace: bool,
    pinned: Pinned,
}

/// Ops whose counts form the exact-count sentinels (always run: the timed
/// loop never stops before them).
const SENTINEL_OPS: u64 = 100;
/// Every this-many-th op has its stats checked against `run_local`.
const SAMPLE_EVERY: u64 = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest ops a timed loop runs: the p90 of each of the [`BLOCKS`] blocks
/// needs 10 samples beyond it.
const MIN_OPS: u64 = 100 * BLOCKS as u64;
/// Fewest ops a traced loop runs: half are traced, and the served
/// overhead p90 needs 100 traced ops.
const MIN_TRACED_LOOP_OPS: u64 = 200;
/// Seed of the warm-up campaigns. The same for every run, so every
/// set-up does the same work and `setup_s` varies only with the machine.
const WARMUP_SEED: u64 = 0x5741_524d_5550_0001;

fn usage() -> ! {
    eprintln!(
        "usage: rvbench --workload sweep_aur|resweep_pool|serve_closed --seed N \
         --seconds S --trace 0|1 --threads T --workers K --connections C --worker-bin PATH"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> String {
        let at = argv.iter().position(|a| a == name).unwrap_or_else(|| {
            eprintln!("rvbench: missing {name}");
            usage()
        });
        argv.get(at + 1).cloned().unwrap_or_else(|| usage())
    };
    fn num<T: std::str::FromStr>(name: &str, raw: String) -> T {
        raw.parse().unwrap_or_else(|_| {
            eprintln!("rvbench: {name} needs a number, got {raw:?}");
            usage()
        })
    }
    let workload = Workload::from_name(&get("--workload")).unwrap_or_else(|| usage());
    let seconds: f64 = num("--seconds", get("--seconds"));
    let trace: u8 = num("--trace", get("--trace"));
    let pinned = Pinned {
        threads: num("--threads", get("--threads")),
        workers: num("--workers", get("--workers")),
        connections: num("--connections", get("--connections")),
        worker_bin: PathBuf::from(get("--worker-bin")),
    };
    let counts = [pinned.threads, pinned.workers, pinned.connections];
    if !seconds.is_finite() || seconds <= 0.0 || trace > 1 || counts.contains(&0) {
        usage();
    }
    Args {
        workload,
        target: std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(".bench_build")),
        seed: num("--seed", get("--seed")),
        seconds,
        trace: trace == 1,
        pinned,
    }
}

/// Runs ops on every lane of `driver` until `seconds` have passed and at
/// least `min_ops` ops have been claimed. Ops are numbered in claim order
/// from `first`; op `k` runs with campaign seed `seed_of(k)`. `traced(k)`
/// says which ops record spans.
fn run_loop(
    driver: &dyn Driver,
    seconds: f64,
    min_ops: u64,
    first: u64,
    seed_of: &(dyn Fn(u64) -> u64 + Sync),
    trace: Option<(&Trace, &(dyn Fn(u64) -> bool + Sync))>,
) -> Vec<OpResult> {
    let next = AtomicU64::new(first);
    let results = Mutex::new(Vec::new());
    let window = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for lane in 0..driver.lanes() {
            let (next, results) = (&next, &results);
            scope.spawn(move || loop {
                let k = next.fetch_add(1, Ordering::SeqCst);
                if k - first >= min_ops && started.elapsed() >= window {
                    break;
                }
                let tr = trace.and_then(|(t, traced)| traced(k).then_some(t));
                // Traced ops keep their stats for the replay's check.
                let keep = k % SAMPLE_EVERY == 0 || tr.is_some();
                let out = driver.op(lane, k, seed_of(k), keep, tr);
                results.lock().expect("lane panicked").push(out);
            });
        }
    });
    let mut ops = results.into_inner().expect("lane panicked");
    ops.sort_by_key(|o| o.k);
    ops
}

/// Builds the workload and warms it up: everything before the first timed
/// op. Returns the driver and how long that took.
fn set_up(args: &Args, scratch: &Path) -> Result<(Box<dyn Driver>, f64), String> {
    let started = Instant::now();
    let driver = args.workload.start(&args.pinned, scratch)?;
    let warm = args.workload.warmup_ops() * driver.lanes() as u64;
    let ops = run_loop(
        driver.as_ref(),
        0.0,
        warm,
        0,
        &|k| mix_seed(WARMUP_SEED, k),
        None,
    );
    if ops.iter().any(|o| !o.ok) {
        return Err("a warm-up op failed".to_string());
    }
    Ok((driver, started.elapsed().as_secs_f64()))
}

/// Checks the sampled ops' stats bytes against the single-process
/// reference, outside any timed window.
fn check_references(args: &Args, seed_of: &dyn Fn(u64) -> u64, ops: &mut [OpResult]) {
    let spec = args.workload.spec();
    let n = args.workload.n();
    for op in ops.iter_mut().filter(|o| o.ok && o.k % SAMPLE_EVERY == 0) {
        let reference = spec.run_local(seed_of(op.k), n);
        if op.stats.as_deref() != Some(stats_bytes(&reference.stats).as_str()) {
            op.fail();
        }
    }
}

/// Exact counts over ops `0..SENTINEL_OPS`: they repeat exactly for a
/// given seed, so a determinism break shows up as a mismatch.
fn sentinels(ops: &[OpResult]) -> String {
    let mut segments = 0;
    let mut exhausted = 0;
    let mut traffic = Traffic::default();
    for op in ops.iter().filter(|o| o.k < SENTINEL_OPS) {
        segments += op.segments;
        exhausted += op.exhausted;
        traffic.add(&op.traffic);
    }
    let refused: u64 = ops.iter().map(|o| o.traffic.refused).sum();
    format!(
        "{{\"ops\": {SENTINEL_OPS}, \"rv_sim.segments\": {segments}, \
         \"rv_sim.exhausted_runs\": {exhausted}, \
         \"rv_core.exec.units_run\": {}, \"rv_core.exec.retries\": {}, \
         \"rv_core.cache.hits\": {}, \"rv_core.cache.misses\": {}, \
         \"rv_core.cache.stores\": {}, \"rv_serve.refused\": {refused}}}",
        traffic.units_run,
        traffic.retries,
        traffic.cache_hits,
        traffic.cache_misses,
        traffic.cache_stores,
    )
}

/// One metric of the result line.
pub struct Metric {
    name: &'static str,
    unit: &'static str,
    value: Option<f64>,
}

/// Shorthand for a [`Metric`].
pub fn metric(name: &'static str, unit: &'static str, value: impl Into<Option<f64>>) -> Metric {
    Metric {
        name,
        unit,
        value: value.into(),
    }
}

struct Outcome {
    ops: Vec<OpResult>,
    metrics: Vec<Metric>,
    /// Extra checks beyond the per-op ones (the traced replay).
    extra_ok: bool,
    window: CpuTicks,
    trace_file: Option<PathBuf>,
}

fn measure(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let seed = args.seed;
    if args.trace {
        return layers::traced(args, scratch);
    }
    let seed_of = move |k: u64| mix_seed(seed, k);
    // Several set-ups, each torn down but the last: set-up time is their
    // median, so one slow process spawn or page-fault burst cannot move it.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut driver = None;
    for _ in 0..SETUP_REPS {
        drop(driver.take());
        let (d, secs) = set_up(args, scratch)?;
        setups.push(secs);
        driver = Some(d);
    }
    let driver = driver.expect("at least one set-up");
    let ticks = CpuTicks::now();
    let mut ops = run_loop(driver.as_ref(), args.seconds, MIN_OPS, 0, &seed_of, None);
    let window = CpuTicks::now().since(ticks);
    let lanes = driver.lanes() as f64;
    drop(driver);
    check_references(args, &seed_of, &mut ops);

    // Closed loop: each lane always has one op in flight, so a block's
    // window is its op time summed over a lane.
    let runs_per_s = |block: &[OpResult]| {
        let ok = block.iter().filter(|o| o.ok);
        let busy_s = ok.clone().map(|o| o.latency_ms / 1e3).sum::<f64>() / lanes;
        let validated: u64 = ok.map(|o| o.records).sum();
        (busy_s > 0.0).then(|| validated as f64 / busy_s)
    };
    let latency = |pct| {
        move |block: &[OpResult]| {
            let latencies: Vec<f64> = block.iter().map(|o| o.latency_ms).collect();
            percentile(&latencies, pct)
        }
    };
    let metrics = vec![
        metric("setup_s", "s", nearest_rank(&setups, 50)),
        metric("runs_per_s", "1/s", block_median(&ops, runs_per_s)),
        metric("campaign_p50_ms", "ms", block_median(&ops, latency(50))),
        metric("campaign_p90_ms", "ms", block_median(&ops, latency(90))),
        metric("peak_rss_mb", "MiB", sys::peak_rss_mb()),
    ];
    Ok(Outcome {
        ops,
        metrics,
        extra_ok: true,
        window,
        trace_file: None,
    })
}

fn main() {
    let args = parse_args();
    let scratch = workloads::scratch_dir(&args.target, args.workload);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("rvbench: cannot create {}: {e}", scratch.display());
        std::process::exit(1);
    }
    let outcome = measure(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rvbench: {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    };

    let attempted = outcome.ops.len() as u64;
    let failed = outcome.ops.iter().filter(|o| !o.ok).count() as u64;
    let all_present = outcome
        .metrics
        .iter()
        .all(|m| m.value.is_some_and(f64::is_finite));
    let correct = failed == 0 && attempted > 0 && all_present && outcome.extra_ok;

    let p = &args.pinned;
    let provenance = format!(
        "{{\"nproc\": {}, \"cpu_model\": {}, \"commit\": {}, \"source_digest\": {}, \
         \"threads\": {}, \"workers\": {}, \"worker_threads\": 1, \"connections\": {}, \
         \"steal_ticks\": {}, \"window_ticks\": {}, \"trace_file\": {}}}",
        sys::nproc(),
        json::string(&sys::cpu_model()),
        json::string(&sys::commit()),
        json::string(&sys::source_digest(
            Path::new("."),
            &[
                "Cargo.toml",
                "Cargo.lock",
                "src",
                "crates",
                "vendor",
                "rvbench/src"
            ],
        )),
        p.threads,
        p.workers,
        p.connections,
        outcome.window.steal,
        outcome.window.total,
        outcome
            .trace_file
            .as_ref()
            .map_or("null".to_string(), |f| json::string(
                &f.display().to_string()
            )),
    );
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"failed_share\": {}, \
         \"sentinels\": {}, \"provenance\": {provenance}}}",
        json::string(args.workload.name()),
        args.seed,
        u8::from(args.trace),
        json::f64(failed_share(failed, attempted)),
        sentinels(&outcome.ops),
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(m.name),
                json::opt_f64(m.value),
                json::string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
}
