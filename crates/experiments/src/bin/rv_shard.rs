//! `rv-shard` — the cross-process campaign worker and its executor-backed
//! driver CLI (the schema-3 wire protocol; see `rv_core::exec`,
//! `rv_core::shard`, and `WIRE.md`).
//!
//! ```text
//! rv-shard worker [--threads T] [--flaky]
//!     Speak the schema-3 session protocol on stdin/stdout. The first
//!     line must be a campaign_spec line, which opens the session; each
//!     subsequent task line executes one index unit (record lines, then
//!     a unit_telemetry line, then a unit_done line), a new
//!     campaign_spec line re-keys the session, and stdin EOF ends it
//!     with exit 0. A bad or missing opener — including the retired
//!     one-shot work order — exits 2. With --flaky, every task
//!     whose line carries attempt 0 fails deterministically (exit 3,
//!     after writing one genuine record) — a test mode proving driver
//!     retry works.
//!
//! rv-shard campaign --n N [--shards K] [--seed S] [--solver aur|dedicated]
//!                   [--classes type3,s1,...] [--segments M]
//!                   [--transport local|pool] [--retries R] [--unit U]
//!                   [--wrap "ssh host --"] [--utilization] [--cache DIR]
//!     Run the seeded campaign through the backend rv_core::exec::backend
//!     builds for the request (the same front door rv-serve uses) and
//!     print the gathered CampaignStats JSON — byte-identical on every
//!     backend. local runs the campaign on this process's threads. pool
//!     (the default) runs it on at most N persistent rv-shard workers:
//!     --shards is the worker count and --unit the steal-unit size in
//!     indices (0 = auto; --unit ceil(n/K) gives one contiguous range per
//!     worker). --wrap puts each pool worker behind a command prefix,
//!     e.g. an ssh hop, and is a usage error with local.
//!     --utilization prints a second JSON line after the stats — the
//!     per-worker utilization fold of the pool's unit telemetry
//!     (UtilizationReport; idle workers report zero units) — and is a
//!     usage error with the local transport. --cache DIR attaches a
//!     content-addressed result cache (created if missing) to any
//!     transport: a warm re-run replays finished units (the whole
//!     campaign, for local) from DIR byte-identically and only
//!     re-executes units whose spec hash changed. A DIR that exists but
//!     is not a directory is a usage error (exit 2), and so is any flag
//!     not listed above.
//! ```

use rv_core::cache::{CacheError, ResultCache};
use rv_core::exec::{self, UtilizationReport, WorkerCommand};
use rv_core::shard::{
    CampaignRequest, CampaignSpec, SolverSpec, TransportSpec, UnitDone, UnitTelemetry,
};
use rv_core::wire::Line;
use rv_core::{wire, JsonLinesSink, RecordSink};
use rv_model::TargetClass;
use std::io::{BufRead, StdinLock};
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("worker") => worker(&args[1..]),
        Some("campaign") => campaign(&args[1..]),
        _ => {
            eprintln!(
                "usage: rv-shard worker [--threads T] [--flaky] | \
                 rv-shard campaign --n N [--shards K] [--seed S] [--solver aur|dedicated] \
                 [--classes a,b,...] [--segments M] \
                 [--transport local|pool] [--retries R] [--unit U] [--wrap CMD] \
                 [--utilization] [--cache DIR]"
            );
            std::process::exit(2);
        }
    }
}

/// Worker mode: a campaign spec opens a persistent session serving task
/// lines until stdin EOF. `--threads T` caps this worker's campaign
/// threads (0 = all cores) so K same-host workers can split the CPU
/// instead of oversubscribing it. `--flaky` injects deterministic
/// first-attempt failures (see [`session`]).
fn worker(args: &[String]) {
    // Validate the full flag set up front: an unknown flag silently
    // ignored here would make a typo'd driver invocation (say
    // `--thread 2`) run with defaults and *look* healthy.
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--flaky" => i += 1,
            "--threads" => i += 2,
            other => {
                eprintln!(
                    "rv-shard worker: unknown flag {other:?} \
                     (usage: rv-shard worker [--threads T] [--flaky])"
                );
                std::process::exit(2);
            }
        }
    }
    let threads: usize = parsed_flag(args, "--threads", 0);
    let flaky = args.iter().any(|a| a == "--flaky");
    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    let mut line = String::new();
    if let Err(e) = input.read_line(&mut line) {
        eprintln!("rv-shard worker: cannot read shard spec: {e}");
        std::process::exit(2);
    }
    match wire::decode_line(line.trim()) {
        Ok(Line::CampaignSpec { spec, seed }) => session(input, spec, seed, threads, flaky),
        Ok(other) => {
            eprintln!(
                "rv-shard worker: bad shard spec: expected a campaign_spec line, got {other:?}"
            );
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("rv-shard worker: bad shard spec: {e}");
            std::process::exit(2);
        }
    }
}

/// The session worker protocol (the `PoolExecutor` side): keyed by the
/// opening `campaign_spec` line, each `task` line executes one index
/// unit and answers with record lines, one `unit_telemetry` line, and
/// one `unit_done` line. A fresh `campaign_spec` line re-keys the
/// session in place; stdin EOF is the graceful shutdown (exit 0).
///
/// Each unit's answer is rendered into one buffer and written to stdout
/// with a single `write_all` and `flush`: the driver holds a unit's
/// records until its `unit_done` anyway, so batching changes neither the
/// bytes nor their order, only the number of writes (one per unit, not
/// one per record).
///
/// With `flaky`, a task line carrying attempt 0 writes ONE genuine
/// record (a partial stream the driver must discard wholesale —
/// replaying it would double-deliver the index) and exits 3. Attempts
/// >= 1 run clean, so exactly one retry per unit recovers the campaign.
fn session(mut input: StdinLock<'_>, spec: CampaignSpec, seed: u64, threads: usize, flaky: bool) {
    let mut session = (spec, seed);
    // The per-unit answer buffer; records land in it as each run
    // finishes, from whichever campaign thread computed them.
    let sink = Arc::new(JsonLinesSink::new(Vec::new()));
    let mut stdout = std::io::stdout().lock();
    let mut line = String::new();
    loop {
        line.clear();
        match input.read_line(&mut line) {
            // EOF: the driver closed the session; all handed-out units
            // were answered, so this worker's job is done.
            Ok(0) => std::process::exit(0),
            Ok(_) => {}
            Err(e) => {
                eprintln!("rv-shard worker: session read failed: {e}");
                std::process::exit(1);
            }
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match wire::decode_line(trimmed) {
            Ok(Line::CampaignSpec { spec, seed }) => session = (spec, seed),
            Ok(Line::Task(task)) => {
                let (spec, seed) = &session;
                if flaky && task.attempt == 0 {
                    let start = task.range.start;
                    if !task.range.is_empty() {
                        spec.run_range(*seed, start..start + 1, sink.clone(), 1);
                    }
                    let _ = sink.drain_to(&mut stdout);
                    eprintln!("rv-shard worker: injected flaky failure (attempt 0)");
                    std::process::exit(3);
                }
                let started = std::time::Instant::now();
                spec.run_range(
                    *seed,
                    task.range.clone(),
                    sink.clone() as Arc<dyn RecordSink>,
                    threads,
                );
                let telemetry = UnitTelemetry {
                    task_id: task.task_id,
                    attempt: task.attempt,
                    wall_ns: started.elapsed().as_nanos() as u64,
                };
                sink.write_line(&wire::encode_unit_telemetry(&telemetry));
                sink.write_line(&wire::encode_unit_done(&UnitDone {
                    task_id: task.task_id,
                    start: task.range.start,
                }));
                if let Err(e) = sink.drain_to(&mut stdout) {
                    eprintln!("rv-shard worker: unit answer write failed: {e}");
                    std::process::exit(1);
                }
            }
            Ok(other) => {
                eprintln!("rv-shard worker: unexpected session line: {other:?}");
                std::process::exit(2);
            }
            Err(e) => {
                eprintln!("rv-shard worker: bad session line: {e}");
                std::process::exit(2);
            }
        }
    }
}

/// The operand following `name`, or `None` when the flag is absent. A
/// *dangling* flag — present but followed by nothing, or by another
/// `--flag` — is a usage error (exit 2), not a silent fall-through to
/// the default: `campaign --n 100 --seed` must not quietly run with
/// seed 0.
fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == name)?;
    match args.get(at + 1).map(String::as_str) {
        Some(value) if !value.starts_with("--") => Some(value),
        _ => {
            eprintln!("rv-shard: {name} needs a value");
            std::process::exit(2);
        }
    }
}

fn parsed_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match flag_value(args, name) {
        None => default,
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("rv-shard: {name} needs a valid value, got {raw:?}");
            std::process::exit(2);
        }),
    }
}

/// Driver mode: build the requested executor backend, run the campaign
/// through it, print the stats JSON (byte-identical on every backend).
fn campaign(args: &[String]) {
    // Validate the full flag set up front, as worker mode does: a typo
    // (`--shard 4`) or a retired flag silently ignored here would run
    // with defaults and *look* healthy.
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--utilization" => i += 1,
            "--n" | "--shards" | "--seed" | "--solver" | "--classes" | "--segments"
            | "--transport" | "--retries" | "--unit" | "--wrap" | "--cache" => i += 2,
            other => {
                eprintln!("rv-shard campaign: unknown flag {other:?} (run rv-shard for usage)");
                std::process::exit(2);
            }
        }
    }
    if !args.iter().any(|a| a == "--n") {
        // Without this check the default would be n = 0 — an "empty
        // campaign" that prints all-zero stats and exits 0, which reads
        // like success.
        eprintln!("rv-shard campaign: --n N is required");
        std::process::exit(2);
    }
    let n: usize = parsed_flag(args, "--n", 0);
    if n == 0 {
        eprintln!("rv-shard campaign: --n N (> 0) is required");
        std::process::exit(2);
    }
    let shards: usize = parsed_flag(args, "--shards", 1);
    let seed: u64 = parsed_flag(args, "--seed", 0);
    let segments: u64 = parsed_flag(args, "--segments", 60_000);
    let retries: u32 = parsed_flag(args, "--retries", 0);
    let unit: usize = parsed_flag(args, "--unit", 0);
    let solver_name = flag_value(args, "--solver").unwrap_or("aur");
    let solver = SolverSpec::from_name(solver_name).unwrap_or_else(|e| {
        eprintln!("rv-shard: {e}");
        std::process::exit(2);
    });
    let classes: Vec<TargetClass> = flag_value(args, "--classes")
        .unwrap_or("type3")
        .split(',')
        .map(|name| {
            TargetClass::from_name(name.trim()).unwrap_or_else(|| {
                eprintln!("rv-shard: unknown target class {name:?}");
                std::process::exit(2);
            })
        })
        .collect();
    let spec = CampaignSpec::new(solver, classes, segments);

    let transport = TransportSpec::from_name(flag_value(args, "--transport").unwrap_or("pool"))
        .unwrap_or_else(|e| {
            eprintln!("rv-shard campaign: {e}");
            std::process::exit(2);
        });
    let wrap: Option<Vec<String>> =
        flag_value(args, "--wrap").map(|raw| raw.split_whitespace().map(String::from).collect());
    if wrap.is_some() && transport == TransportSpec::Local {
        // A wrapper the chosen transport would silently drop means the
        // run would execute somewhere other than where the user asked.
        eprintln!("rv-shard campaign: --wrap conflicts with --transport local");
        std::process::exit(2);
    }
    if wrap.as_ref().is_some_and(|w| w.is_empty()) {
        eprintln!("rv-shard campaign: --wrap needs a command");
        std::process::exit(2);
    }
    let utilization = args.iter().any(|a| a == "--utilization");
    if utilization && transport == TransportSpec::Local {
        // Only a worker pool has slots to report on; silently ignoring
        // the flag would look like "all workers idle".
        eprintln!("rv-shard campaign: --utilization needs a worker transport, not local");
        std::process::exit(2);
    }
    // The cache opens (creating DIR if needed) before any worker spawns
    // or protocol I/O: a path that exists but is not a directory is a
    // usage error, not a mid-campaign failure.
    let cache: Option<Arc<ResultCache>> =
        flag_value(args, "--cache").map(|dir| match ResultCache::open(dir) {
            Ok(cache) => Arc::new(cache),
            Err(e @ CacheError::NotADirectory { .. }) => {
                eprintln!("rv-shard campaign: {e}");
                std::process::exit(2);
            }
            Err(e) => {
                eprintln!("rv-shard campaign: cannot open cache: {e}");
                std::process::exit(1);
            }
        });

    let request = CampaignRequest {
        n,
        transport,
        workers: shards,
        unit,
        retries,
        cache: None,
    };
    let mut worker = WorkerCommand::new(own_binary());
    if let Some(wrap) = wrap {
        worker = worker.wrap(wrap);
    }
    let exec = exec::backend(&request, Some(worker), 0, cache).unwrap_or_else(|e| {
        eprintln!("rv-shard campaign: {e}");
        std::process::exit(2);
    });
    // Stats-only: execute_stats keeps pool driver memory at O(unit size)
    // even for huge campaigns (records are never materialised).
    match exec.execute_stats(&spec, seed, n, None) {
        Ok(stats) => println!("{}", stats.to_json()),
        Err(e) => {
            eprintln!("rv-shard campaign [{}]: {e}", transport.name());
            std::process::exit(1);
        }
    }
    if utilization {
        // One row per pool slot, idle workers included.
        let telemetry = exec.take_worker_telemetry();
        println!(
            "{}",
            UtilizationReport::from_worker_telemetry(request.worker_count(), &telemetry).to_json()
        );
    }
}

/// Locates this very binary — the campaign driver scatters over
/// subprocesses of itself in `worker` mode.
fn own_binary() -> std::path::PathBuf {
    std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("rv-shard: cannot locate own binary: {e}");
        std::process::exit(1);
    })
}
