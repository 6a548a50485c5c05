//! The headline differential: the same seeded campaign run through every
//! `Executor` backend — `LocalExecutor`, and `PoolExecutor` over real
//! `rv-shard` session workers in every shape the CLI and the service
//! build (a K-shard scatter of one ⌈n/K⌉ unit per worker, a
//! work-stealing pool of small units, and a pool behind an identity
//! command wrapper) — must produce byte-identical `CampaignStats`
//! (struct, Debug rendering, and `to_json` artifact) and identical
//! record streams. Fault tolerance is proven the hard way: the worker's
//! `--flaky` mode deterministically kills every first attempt (after
//! leaking a partial record stream the driver must discard), so a retry
//! budget of 1 recovers byte-identically while a budget of 0 fails
//! typed. Driver failure paths, failover onto surviving worker
//! commands, abort promptness, the exactly-once sink contract under
//! concurrent retries, and the CLI transports are exercised against real
//! processes too.

use rv_core::cache::ResultCache;
use rv_core::exec::{
    backend, worker_command, ExecError, Executor, LocalExecutor, PoolExecutor, WorkerCommand,
};
use rv_core::shard::{
    CampaignRequest, CampaignSpec, ShardError, SolverSpec, TransportSpec, UnitTask,
};
use rv_core::stream::VecSink;
use rv_core::{wire, CampaignReport, CampaignStats, RecordSink};
use rv_model::TargetClass;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

/// The worker binary, built by cargo for this test run.
const WORKER: &str = env!("CARGO_BIN_EXE_rv-shard");

fn mixed_spec() -> CampaignSpec {
    CampaignSpec::new(
        SolverSpec::Dedicated,
        vec![
            TargetClass::Type1,
            TargetClass::Type3,
            TargetClass::S1,
            TargetClass::InfeasibleShift,
        ],
        30_000,
    )
}

fn worker_cmd() -> WorkerCommand {
    WorkerCommand::new(WORKER).arg("worker")
}

/// A `shards`-way scatter of `0..n` over `worker`: one worker per shard,
/// one contiguous ⌈n/shards⌉ unit each — what `rv-shard campaign
/// --shards K --unit ⌈n/K⌉` builds.
fn scatter(worker: WorkerCommand, n: usize, shards: usize) -> PoolExecutor {
    PoolExecutor::new(worker)
        .workers(shards)
        .unit(n.div_ceil(shards))
}

fn assert_byte_identical(a: &CampaignStats, b: &CampaignStats, ctx: &str) {
    assert_eq!(a, b, "{ctx}");
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{ctx}");
    assert_eq!(a.to_json(), b.to_json(), "{ctx}");
}

/// Runs `exec` with a sink attached and checks the report *and* the
/// streamed records against the single-process reference.
fn assert_backend_matches(
    exec: &dyn Executor,
    spec: &CampaignSpec,
    seed: u64,
    n: usize,
    ctx: &str,
) {
    let local = spec.run_local(seed, n);
    let sink = Arc::new(VecSink::new());
    let report: CampaignReport = exec
        .execute(spec, seed, n, Some(sink.clone() as Arc<dyn RecordSink>))
        .unwrap_or_else(|e| panic!("{ctx} [{}]: {e}", exec.name()));
    assert_byte_identical(&report.stats, &local.stats, ctx);
    assert_eq!(report.records, local.records, "{ctx}: report record order");

    // The records streamed through the sink cover 0..n exactly once and
    // match the single-process records.
    let seen = sink.take_sorted();
    assert_eq!(seen.len(), n, "{ctx}");
    for (expect, (idx, rec)) in seen.iter().enumerate() {
        assert_eq!(*idx, expect, "{ctx}");
        assert_eq!(rec, &local.records[*idx], "{ctx}, index {idx}");
    }
}

/// Asserts `err` is exhaustion after `attempts` attempts whose last
/// failure is the `--flaky` worker's injected exit 3.
fn assert_flaky_exhaustion(err: ExecError, attempts: u32) {
    match err {
        ExecError::Exhausted {
            attempts: made,
            last,
            ..
        } => {
            assert_eq!(made, attempts);
            match last {
                ShardError::Worker { code, stderr, .. } => {
                    assert_eq!(code, Some(3));
                    assert!(
                        stderr.contains("injected flaky failure"),
                        "stderr: {stderr}"
                    );
                }
                other => panic!("expected Worker error, got {other}"),
            }
        }
        other => panic!("expected Exhausted, got {other}"),
    }
}

#[test]
fn local_executor_is_byte_identical_to_single_process() {
    let spec = mixed_spec();
    assert_backend_matches(&LocalExecutor::new(), &spec, 0xD1FF_5EED, 24, "local");
}

#[test]
fn subprocess_executor_is_byte_identical_for_1_2_4_shards() {
    // The K-shard scatter: K worker subprocesses, one contiguous ⌈n/K⌉
    // unit each.
    let spec = mixed_spec();
    let seed = 0xD1FF_5EED;
    let n = 24;
    let local = spec.run_local(seed, n);
    assert!(local.stats.met > 0, "workload must exercise real runs");
    assert!(
        local.stats.infeasible > 0,
        "workload must include infeasible instances"
    );
    for shards in [1usize, 2, 4] {
        let exec = scatter(worker_cmd(), n, shards);
        assert_backend_matches(&exec, &spec, seed, n, &format!("{shards} shards"));
    }
}

#[test]
fn pool_executor_is_byte_identical_for_1_2_4_workers() {
    let spec = mixed_spec();
    let seed = 0xD1FF_5EED;
    let n = 24;
    for workers in [1usize, 2, 4] {
        // Work-stealing shape: many small units per worker.
        let exec = PoolExecutor::new(worker_cmd()).workers(workers).unit(3);
        assert_backend_matches(&exec, &spec, seed, n, &format!("pool, {workers} workers"));
        // The pool's sessions survive between executions: a second run
        // on the same executor value reuses the live workers (no
        // respawn) and must still produce the reference bytes.
        assert_backend_matches(
            &exec,
            &spec,
            seed,
            n,
            &format!("pool, {workers} workers, reused sessions"),
        );
    }

    // Auto unit sizing (unit 0) and a unit larger than n both degenerate
    // gracefully and keep the bytes.
    for unit in [0usize, 1000] {
        let exec = PoolExecutor::new(worker_cmd()).workers(2).unit(unit);
        assert_backend_matches(&exec, &spec, seed, n, &format!("pool, unit {unit}"));
    }
}

#[test]
fn command_executor_identity_wrapper_is_byte_identical() {
    if !Path::new("/usr/bin/env").exists() {
        eprintln!("skipping: /usr/bin/env not available");
        return;
    }
    let spec = mixed_spec();
    // `env worker args...` execs the worker unchanged: the identity
    // wrapper, standing in for `ssh host --`.
    let exec = scatter(worker_cmd().wrap(["/usr/bin/env"]), 24, 3);
    assert_backend_matches(&exec, &spec, 0xD1FF_5EED, 24, "command(env)");
}

#[test]
fn flaky_workers_recover_byte_identically_with_one_retry() {
    let spec = mixed_spec();
    let seed = 0xF1A6;
    let n = 16;
    let flaky = WorkerCommand::new(WORKER).arg("worker").arg("--flaky");

    // Without a retry budget every shard's first attempt dies (exit 3,
    // after leaking one genuine record line the driver must discard):
    // typed exhaustion carrying the worker's stderr, not a panic and not
    // a partial result.
    let err = scatter(flaky.clone(), n, 2)
        .execute(&spec, seed, n, None)
        .unwrap_err();
    assert_flaky_exhaustion(err, 1);

    // With one retry, attempt 1 (read off each task line) runs clean on
    // a respawned session and the gathered bytes — including the sink
    // stream, which must not contain the failed attempts' partial
    // records — are identical to the single-process run.
    for shards in [1usize, 2, 4] {
        let exec = scatter(flaky.clone(), n, shards).retries(1);
        assert_backend_matches(&exec, &spec, seed, n, &format!("flaky, {shards} shards"));
    }
}

#[test]
fn pool_transport_flaky_workers_recover_byte_identically() {
    let spec = mixed_spec();
    let seed = 0xF1A6;
    let n = 16;
    let flaky = WorkerCommand::new(WORKER).arg("worker").arg("--flaky");

    // No retry budget: the first unit's attempt-0 failure (exit 3 after
    // leaking one genuine record the driver must discard) is typed
    // exhaustion carrying the worker's stderr.
    let err = PoolExecutor::new(flaky.clone())
        .workers(2)
        .unit(4)
        .execute(&spec, seed, n, None)
        .unwrap_err();
    assert_flaky_exhaustion(err, 1);

    // With one retry every unit recovers (each task line carries its
    // attempt number, so the respawned session runs attempt 1 clean) and
    // the result — report, stats, and sink stream — is byte-identical.
    for workers in [1usize, 2, 4] {
        let exec = PoolExecutor::new(flaky.clone())
            .workers(workers)
            .unit(4)
            .retries(1);
        assert_backend_matches(
            &exec,
            &spec,
            seed,
            n,
            &format!("flaky pool, {workers} workers"),
        );
    }
}

#[test]
fn pool_telemetry_reports_every_unit_exactly_once() {
    let spec = mixed_spec();
    let (seed, n, unit) = (5, 23, 5);
    let exec = PoolExecutor::new(worker_cmd()).workers(2).unit(unit);
    exec.execute_stats(&spec, seed, n, None).expect("pool run");
    let telemetry: Vec<_> = exec
        .take_worker_telemetry()
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    assert_eq!(telemetry.len(), n.div_ceil(unit), "one line per unit");
    for (k, t) in telemetry.iter().enumerate() {
        assert_eq!(t.task_id, k as u32);
        assert_eq!(t.attempt, 0, "clean run: all first attempts");
    }
    assert!(
        telemetry.iter().any(|t| t.wall_ns > 0),
        "worker-side wall time must be measured"
    );
    // take_worker_telemetry drains: a second take is empty until the
    // next run.
    assert!(exec.take_worker_telemetry().is_empty());
}

#[test]
fn flaky_workers_exactly_once_delivery_stress() {
    // The exactly-once sink contract under fire: flaky workers fail every
    // first attempt after leaking a genuine record, several drain threads
    // retry concurrently, and the sink must still see every index exactly
    // once — from one worker draining everything to one worker per unit.
    // The `flaky_workers` name marker routes this test into CI's
    // dedicated fault-injection step (see `.github/workflows/ci.yml`).
    let spec = mixed_spec();
    let (seed, n) = (0x5789, 16);
    let local = spec.run_local(seed, n);
    let flaky = WorkerCommand::new(WORKER).arg("worker").arg("--flaky");

    for workers in [1usize, 2, 4, 6] {
        let exec = PoolExecutor::new(flaky.clone())
            .workers(workers)
            .unit(3)
            .retries(1);
        let ctx = format!("{workers} workers");
        let sink = Arc::new(VecSink::new());
        let stats = exec
            .execute_stats(&spec, seed, n, Some(sink.clone() as Arc<dyn RecordSink>))
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_byte_identical(&stats, &local.stats, &ctx);
        // Raw arrival order: count per-index deliveries before sorting.
        let raw = sink.take();
        let mut seen = vec![0usize; n];
        for (idx, rec) in &raw {
            seen[*idx] += 1;
            assert_eq!(rec, &local.records[*idx], "{ctx}: index {idx}");
        }
        for (idx, count) in seen.iter().enumerate() {
            assert_eq!(
                *count, 1,
                "{ctx}: index {idx} delivered {count} times, not exactly once"
            );
        }
    }
}

#[test]
fn abort_kills_in_flight_workers_promptly() {
    if !Path::new("/bin/sleep").exists() {
        eprintln!("skipping: /bin/sleep not available");
        return;
    }
    let spec = mixed_spec();
    // Slot 0 spawns command 0, which wedges for 30s (sleep ignores the
    // protocol, so its stdout just stays open); slot 1 spawns command 1,
    // which fails to spawn instantly and, with no retry budget, dooms
    // the run. The driver must kill the wedged child on abort instead of
    // waiting out its 30 seconds.
    let exec = PoolExecutor::new(WorkerCommand::new("/bin/sleep").arg("30"))
        .add_command(WorkerCommand::new("/nonexistent/rv-shard-dead"))
        .workers(2)
        .unit(4)
        .retries(0);
    let started = std::time::Instant::now();
    let err = exec.execute(&spec, 3, 8, None).unwrap_err();
    let elapsed = started.elapsed();
    assert!(matches!(err, ExecError::Exhausted { .. }), "{err}");
    assert!(
        elapsed < std::time::Duration::from_secs(15),
        "abort should kill the in-flight sleep worker promptly, took {elapsed:?}"
    );
}

#[test]
fn execute_stats_matches_execute_and_still_streams_exactly_once() {
    let spec = mixed_spec();
    let (seed, n) = (21, 10);
    let exec = scatter(worker_cmd(), n, 3);
    let report = exec.execute(&spec, seed, n, None).expect("full report");

    // The stats-only path (what the CLI uses — O(unit) driver memory)
    // must produce the same bytes as the full-report path, and its sink
    // contract is unchanged: every index delivered exactly once.
    let sink = Arc::new(VecSink::new());
    let stats = exec
        .execute_stats(&spec, seed, n, Some(sink.clone() as Arc<dyn RecordSink>))
        .expect("stats-only");
    assert_byte_identical(&stats, &report.stats, "execute_stats vs execute");
    let seen = sink.take_sorted();
    assert_eq!(seen.len(), n);
    for (expect, (idx, rec)) in seen.iter().enumerate() {
        assert_eq!(*idx, expect);
        assert_eq!(rec, &report.records[*idx]);
    }
}

#[test]
fn failed_ranges_rescatter_onto_surviving_workers() {
    let spec = mixed_spec();
    let seed = 11;
    let n = 12;
    // Worker command 0 always fails before speaking the protocol, and
    // slots 0 and 2 spawn it first; the pool must mark it failed and
    // respawn those slots onto the surviving real worker command within
    // the retry budget, re-running the dead host's units there.
    let dead = WorkerCommand::new("/nonexistent/rv-shard-on-a-dead-host");
    let local = spec.run_local(seed, n);
    let exec = scatter(dead, n, 4).add_command(worker_cmd()).retries(1);
    let report = exec
        .execute(&spec, seed, n, None)
        .expect("survivor absorbs the dead worker's ranges");
    assert_byte_identical(&report.stats, &local.stats, "re-scatter onto survivor");
    assert_eq!(report.records, local.records);
    assert_eq!(
        exec.take_worker_telemetry().len(),
        4,
        "every unit ran once, clean"
    );
}

#[test]
fn aur_campaigns_run_sharded_identically_too() {
    let spec = CampaignSpec::new(SolverSpec::Aur, vec![TargetClass::Type3], 60_000);
    let seed = 42;
    let n = 10;
    let local = spec.run_local(seed, n).stats;
    assert_eq!(local.met, n, "type 3 is AUR-guaranteed");
    // Through the request front door both the CLI and the server use.
    let run = |transport, unit| {
        let req = CampaignRequest {
            n,
            transport,
            workers: 2,
            unit,
            retries: 0,
            cache: None,
        };
        backend(&req, Some(WorkerCommand::new(WORKER)), 0, None)
            .expect("a worker was given")
            .execute_stats(&spec, seed, n, None)
            .expect("process-backed run")
    };
    assert_byte_identical(
        &run(TransportSpec::Pool, n.div_ceil(2)),
        &local,
        "aur 2 shards",
    );
    assert_byte_identical(&run(TransportSpec::Pool, 3), &local, "aur 2-worker pool");
}

#[test]
fn shard_counts_beyond_n_clamp_instead_of_spawning_empty_workers() {
    let spec = mixed_spec();
    let local = spec.run_local(3, 5).stats;
    let exec = scatter(worker_command(WorkerCommand::new(WORKER), 64), 5, 64);
    let sharded = exec.execute_stats(&spec, 3, 5, None).expect("clamped run");
    assert_byte_identical(&sharded, &local, "clamped shards");
    // 64 shards of 5 indices plan 5 one-index units, not 64 ranges.
    assert_eq!(exec.take_worker_telemetry().len(), 5);
}

#[test]
fn driver_failure_paths_are_typed_not_panics() {
    let spec = mixed_spec();

    // Nonexistent worker binary: exhausted with Spawn as the last error.
    let err = scatter(WorkerCommand::new("/nonexistent/rv-shard"), 4, 2)
        .execute(&spec, 1, 4, None)
        .unwrap_err();
    match err {
        ExecError::Exhausted { last, .. } => {
            assert!(matches!(last, ShardError::Spawn(_)), "{last}")
        }
        other => panic!("expected Exhausted, got {other}"),
    }

    // Real binary, wrong mode: exits non-zero with usage on stderr.
    let err = scatter(WorkerCommand::new(WORKER).arg("not-a-mode"), 4, 2)
        .execute(&spec, 1, 4, None)
        .unwrap_err();
    match err {
        ExecError::Exhausted {
            last: ShardError::Worker { code, stderr, .. },
            ..
        } => {
            assert_eq!(code, Some(2));
            assert!(stderr.contains("usage"), "stderr: {stderr}");
        }
        other => panic!("expected Worker exhaustion, got {other}"),
    }

    // A worker that echoes its input back (cat) violates the protocol:
    // the driver must reject the echoed campaign_spec line, typed.
    if Path::new("/bin/cat").exists() {
        let err = PoolExecutor::new(WorkerCommand::new("/bin/cat"))
            .execute(&spec, 1, 4, None)
            .unwrap_err();
        match err {
            ExecError::Exhausted { last, .. } => {
                assert!(matches!(last, ShardError::Protocol { .. }), "{last}")
            }
            other => panic!("expected Protocol exhaustion, got {other}"),
        }
    }
}

#[test]
fn worker_rejects_garbage_specs_with_exit_2() {
    use std::io::Write;
    // A wrong-schema opener, and the retired one-shot `shard_spec` work
    // order: both are refused typed, before any execution.
    let retired = "{\"schema\": 3, \"kind\": \"shard_spec\", \"shard_id\": 0, \"seed\": 1, \
                   \"start\": 0, \"end\": 4, \"campaign\": {\"solver\": \"aur\", \
                   \"segments\": 1000, \"classes\": [\"type3\"]}}";
    for (input, needle) in [
        ("{\"schema\": 2, \"kind\": \"shard_spec\"}", "schema"),
        (retired, "retired wire kind \"shard_spec\""),
    ] {
        let mut child = Command::new(WORKER)
            .arg("worker")
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn worker");
        writeln!(child.stdin.take().unwrap(), "{input}").unwrap();
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{input}");
        assert!(out.stdout.is_empty(), "{input}: no records on a bad spec");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("bad shard spec"), "stderr: {stderr}");
        assert!(
            stderr.contains(needle),
            "error should contain {needle:?}: {stderr}"
        );
    }
}

#[test]
fn worker_rejects_unknown_solver_names_listing_the_valid_set() {
    let out = Command::new(WORKER)
        .args(["campaign", "--n", "4", "--solver", "bogus"])
        .output()
        .expect("campaign mode");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"bogus\""), "stderr: {stderr}");
    for name in SolverSpec::NAMES {
        assert!(stderr.contains(name), "stderr should list {name}: {stderr}");
    }
}

#[test]
fn cli_transports_match_byte_for_byte() {
    let flags = [
        "--solver",
        "dedicated",
        "--classes",
        "type3,s1",
        "--n",
        "12",
        "--seed",
        "9",
        "--segments",
        "30000",
    ];
    let run = |extra: &[&str]| {
        let out = Command::new(WORKER)
            .arg("campaign")
            .args(flags)
            .args(extra)
            .output()
            .expect("campaign mode");
        assert!(
            out.status.success(),
            "{extra:?} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };

    let local = run(&["--transport", "local"]);
    // One contiguous ⌈12/3⌉ = 4-index range per worker.
    let scatter = run(&["--transport", "pool", "--shards", "3", "--unit", "4"]);
    let default_transport = run(&["--shards", "5"]);
    let with_knobs = run(&["--shards", "3", "--unit", "4", "--retries", "2"]);
    let pool = run(&["--transport", "pool", "--shards", "2", "--unit", "5"]);
    let pool_auto = run(&["--transport", "pool", "--shards", "3"]);
    assert_eq!(scatter, local, "one range per worker must match local");
    assert_eq!(
        default_transport, local,
        "the default (pool) transport must match local"
    );
    assert_eq!(with_knobs, local, "the retry knob must not change bytes");
    assert_eq!(pool, local, "pool transport must match local");
    assert_eq!(pool_auto, local, "auto unit sizing must not change bytes");
    if Path::new("/usr/bin/env").exists() {
        let wrapped = run(&["--shards", "2", "--unit", "6", "--wrap", "/usr/bin/env"]);
        assert_eq!(wrapped, local, "wrapped pool workers must match local");
    }

    // Sanity: it is the stats artifact, and it parses as strict JSON.
    assert!(local.contains("\"n\": 12"));
    rv_core::wire::Value::parse(local.trim()).expect("stats JSON must parse");

    // The solver name is accepted case-insensitively.
    let upper = Command::new(WORKER)
        .args(["campaign", "--solver", "DEDICATED", "--classes", "type3,s1"])
        .args(["--n", "12", "--seed", "9", "--segments", "30000"])
        .args(["--transport", "local"])
        .output()
        .expect("campaign mode");
    assert!(upper.status.success());
    assert_eq!(String::from_utf8(upper.stdout).unwrap(), local);
}

/// Runs `rv-shard campaign ARGS` and asserts a usage error: exit 2, no
/// stats on stdout, and `needle` on stderr.
fn usage_error(args: &[&str], needle: &str) {
    let out = Command::new(WORKER)
        .arg("campaign")
        .args(args)
        .output()
        .expect("campaign mode");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2, stderr: {stderr}"
    );
    assert!(
        stderr.contains(needle),
        "{args:?} stderr should contain {needle:?}: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{args:?} must not print stats: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn campaign_cli_rejects_missing_n_and_dangling_flag_values() {
    // Omitting --n used to run an "empty campaign" (n defaulted to 0):
    // all-zero stats on stdout and exit 0 — success-shaped garbage.
    usage_error(
        &["--seed", "5", "--transport", "local"],
        "--n N is required",
    );
    // An explicit zero is equally meaningless.
    usage_error(&["--n", "0", "--transport", "local"], "--n N (> 0)");
    // A dangling flag value (trailing flag, or a flag swallowed by the
    // next flag) used to silently fall back to the default.
    usage_error(&["--n", "12", "--seed"], "--seed needs a value");
    usage_error(
        &["--n", "12", "--seed", "--utilization"],
        "--seed needs a value",
    );
    usage_error(&["--n", "12", "--shards"], "--shards needs a value");
    usage_error(
        &["--n", "12", "--unit", "--utilization"],
        "--unit needs a value",
    );
}

#[test]
fn campaign_cli_rejects_retired_transports_and_a_dropped_wrap() {
    // Retired transport names are unknown, listed back with the valid
    // set.
    for name in ["subprocess", "command"] {
        usage_error(
            &["--n", "12", "--transport", name],
            &format!("unknown transport \"{name}\" (valid: local, pool)"),
        );
    }
    // A wrapper the local transport would silently drop, and an empty
    // one, are refused before any worker spawns.
    usage_error(
        &[
            "--n",
            "12",
            "--transport",
            "local",
            "--wrap",
            "/usr/bin/env",
        ],
        "--wrap conflicts with --transport local",
    );
    usage_error(&["--n", "12", "--wrap", ""], "--wrap needs a command");
}

#[test]
fn campaign_cli_rejects_unknown_flags() {
    // A typo (`--shard 4`), the retired `--max-inflight` and `--local`,
    // and a stray operand are usage errors before any campaign runs: ignoring them
    // would run the defaults and look healthy.
    for (args, flag) in [
        (&["--n", "8", "--shard", "4"][..], "--shard"),
        (
            &["--n", "8", "--shards", "2", "--max-inflight", "2"][..],
            "--max-inflight",
        ),
        (&["--n", "8", "--utilization", "stray"][..], "stray"),
        // The retired shorthand for `--transport local`.
        (&["--n", "8", "--local"][..], "--local"),
    ] {
        let out = Command::new(WORKER)
            .arg("campaign")
            .args(args)
            .output()
            .expect("campaign mode");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2, stderr: {stderr}"
        );
        assert!(
            stderr.contains(&format!("unknown flag {flag:?}")),
            "{args:?} stderr should name {flag:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} must not print stats");
    }
}

#[test]
fn cache_cli_rejects_a_cache_path_that_is_not_a_directory() {
    // `--cache` pointing at an existing *file* must be a usage error
    // (exit 2) before any protocol I/O — not an entry-by-entry I/O
    // failure halfway through a sweep.
    let file = std::env::temp_dir().join(format!("rv-cache-not-a-dir-{}", std::process::id()));
    fs::write(&file, b"occupied\n").unwrap();
    let out = Command::new(WORKER)
        .arg("campaign")
        .args(["--solver", "dedicated", "--classes", "type3", "--n", "8"])
        .args(["--seed", "1", "--segments", "20000", "--shards", "2"])
        .args(["--cache", file.to_str().unwrap()])
        .output()
        .expect("campaign mode");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("is not a directory"), "stderr: {stderr}");
    assert!(
        stderr.contains(file.file_name().unwrap().to_str().unwrap()),
        "stderr should name the offending path: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "no stats on a usage error: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let _ = fs::remove_file(&file);
}

#[test]
fn worker_cli_rejects_unknown_flags() {
    use std::process::Stdio;
    // An unknown worker flag used to be silently ignored, so a typo'd
    // driver invocation (`--thread 2`) ran with defaults and looked
    // healthy. It must be a usage error before any protocol I/O.
    let worker_error = |args: &[&str], needle: &str| {
        let out = Command::new(WORKER)
            .arg("worker")
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("worker mode");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2, stderr: {stderr}"
        );
        assert!(
            stderr.contains(needle),
            "{args:?} stderr should contain {needle:?}: {stderr}"
        );
    };
    worker_error(&["--bogus"], "unknown flag \"--bogus\"");
    worker_error(&["--thread", "2"], "unknown flag \"--thread\"");
    worker_error(
        &["--threads", "2", "--flaky", "--oops"],
        "unknown flag \"--oops\"",
    );
    // Known flags still pass validation: with stdin closed the worker
    // gets past the flag check and fails on the missing spec instead.
    worker_error(&["--threads", "2", "--flaky"], "bad shard spec");
}

#[test]
fn session_worker_serves_units_and_exits_0_on_eof() {
    use std::io::Write;
    // Drive one session by hand: open with a campaign_spec line, hand
    // over two task lines, close stdin. The worker must answer each task
    // with record lines + unit_telemetry + unit_done, then exit 0 — the
    // graceful shutdown the pool relies on.
    let spec = mixed_spec();
    let seed = 77;
    let tasks = [(0u32, 0..3), (1u32, 3..5)];
    let mut child = Command::new(WORKER)
        .arg("worker")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn worker");
    let mut stdin = child.stdin.take().unwrap();
    writeln!(stdin, "{}", wire::encode_campaign_spec(&spec, seed)).unwrap();
    for (task_id, range) in tasks.clone() {
        let task = UnitTask {
            task_id,
            attempt: 0,
            range,
        };
        writeln!(stdin, "{}", wire::encode_task(&task)).unwrap();
    }
    drop(stdin);

    let out = child.wait_with_output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let local = spec.run_local(seed, 5);
    // Records within a unit arrive in any order (WIRE.md: `index` is the
    // reordering key), but a unit's records are exactly its range and
    // all precede that unit's telemetry and unit_done lines.
    let mut unit_records = Vec::new();
    let mut unit_counts = Vec::new();
    let mut telemetry = Vec::new();
    let mut done = Vec::new();
    for line in stdout.lines().filter(|l| !l.trim().is_empty()) {
        match wire::decode_line(line).expect("worker speaks valid wire lines") {
            wire::Line::Record { index, record } => {
                assert_eq!(record, local.records[index], "index {index}");
                assert_eq!(telemetry.len(), done.len(), "record after telemetry");
                unit_records.push(index);
            }
            wire::Line::UnitTelemetry(t) => telemetry.push(t),
            wire::Line::UnitDone(d) => {
                let (task_id, range) = &tasks[done.len()];
                unit_records.sort_unstable();
                assert_eq!(
                    unit_records,
                    range.clone().collect::<Vec<_>>(),
                    "task {task_id}: records must be exactly its range"
                );
                unit_counts.push(unit_records.len());
                unit_records.clear();
                assert_eq!(telemetry.len(), done.len() + 1, "telemetry before done");
                assert_eq!((d.task_id, d.start), (*task_id, range.start));
                done.push(d);
            }
            other => panic!("unexpected session answer: {other:?}"),
        }
    }
    assert!(unit_records.is_empty(), "records after the last unit_done");
    assert_eq!(
        telemetry.iter().map(|t| t.task_id).collect::<Vec<_>>(),
        vec![0, 1]
    );
    assert_eq!(done.len(), 2);
    assert_eq!(unit_counts, vec![3, 2], "records per unit");
    // A session re-keyed by a second campaign_spec line is exercised
    // end-to-end by the pool differential (same executor, new seed).
}

#[test]
fn cli_reports_exhaustion_when_the_wrapper_is_broken() {
    // `--wrap` pointing at a program that exits immediately (rv-shard in
    // an unknown mode) kills every attempt before the protocol starts:
    // the CLI must exit 1 with a self-explanatory exhaustion message.
    let out = Command::new(WORKER)
        .args(["campaign", "--solver", "dedicated", "--classes", "type3"])
        .args(["--n", "6", "--seed", "5", "--segments", "20000"])
        .args(["--shards", "2", "--retries", "1"])
        .args(["--wrap", &format!("{WORKER} broken-wrap-mode")])
        .output()
        .expect("campaign mode");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("failed all 2 attempt"),
        "stderr should report exhaustion: {stderr}"
    );
    assert!(stderr.contains("[pool]"), "stderr: {stderr}");
}

// ---------------------------------------------------------------------------
// Content-addressed result cache (`rv_core::cache`) differentials. The
// `cache_` name prefix routes these into CI's dedicated cache step (see
// `.github/workflows/ci.yml`).
// ---------------------------------------------------------------------------

fn cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rv-cache-diff-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn cache_warm_reruns_replay_byte_identically_and_execute_zero_shards() {
    let spec = mixed_spec();
    let (seed, n) = (0xCAC4E, 24);
    let dir = cache_dir("warm");

    // Cold: a 4-shard scatter over real workers fills the cache while
    // producing the reference bytes (stats, report records, and sink
    // stream are all checked against the single-process run inside the
    // helper).
    let cold_cache = Arc::new(ResultCache::open(&dir).expect("open cold"));
    let exec = scatter(worker_cmd(), n, 4).cache(Arc::clone(&cold_cache));
    assert_backend_matches(&exec, &spec, seed, n, "cold 4 shards");
    let cold = cold_cache.stats();
    assert_eq!((cold.hits, cold.misses, cold.stores), (0, 4, 4), "{cold:?}");

    // Warm, same shape — but the worker binary does not exist, so the
    // run can only succeed if zero units are re-executed.
    let warm_cache = Arc::new(ResultCache::open(&dir).expect("open warm"));
    let broken = WorkerCommand::new("/nonexistent/rv-shard-warm-proof");
    let exec = scatter(broken.clone(), n, 4).cache(Arc::clone(&warm_cache));
    assert_backend_matches(&exec, &spec, seed, n, "warm 4 shards, broken worker");
    let warm = warm_cache.stats();
    assert_eq!(
        (warm.hits, warm.misses, warm.evictions),
        (4, 0, 0),
        "{warm:?}"
    );

    // Warm on a different worker count: 6-instance units address exactly
    // the (spec, seed, range) entries the scatter wrote, so no session
    // worker is ever spawned — with the same broken binary, success
    // again proves zero executions.
    let pool_cache = Arc::new(ResultCache::open(&dir).expect("open pool"));
    let exec = PoolExecutor::new(broken)
        .workers(2)
        .unit(6)
        .cache(Arc::clone(&pool_cache));
    assert_backend_matches(&exec, &spec, seed, n, "warm pool, broken worker");
    let pool = pool_cache.stats();
    assert_eq!((pool.hits, pool.misses), (4, 0), "{pool:?}");
    assert!(
        exec.take_worker_telemetry().is_empty(),
        "cached units never ran, so none may report telemetry"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cache_spec_tweak_reexecutes_exactly_the_changed_shards() {
    let spec = mixed_spec();
    let seed = 0xCAC4E;
    let dir = cache_dir("tweak");

    // Cold: n = 24 over 4 shards caches the ranges 0..6 … 18..24.
    let cold_cache = Arc::new(ResultCache::open(&dir).expect("open cold"));
    let exec = scatter(worker_cmd(), 24, 4).cache(Arc::clone(&cold_cache));
    assert_backend_matches(&exec, &spec, seed, 24, "cold n=24");
    assert_eq!(cold_cache.stats().stores, 4);

    // Tweak one parameter — n: 24 → 30 over 5 shards keeps the first four
    // ranges byte-for-byte and appends 24..30. Exactly that one new shard
    // misses, executes, and is stored; the rest replay from disk.
    let warm_cache = Arc::new(ResultCache::open(&dir).expect("open warm"));
    let exec = scatter(worker_cmd(), 30, 5).cache(Arc::clone(&warm_cache));
    assert_backend_matches(&exec, &spec, seed, 30, "tweaked n=30");
    let s = warm_cache.stats();
    assert_eq!((s.hits, s.misses, s.stores), (4, 1, 1), "{s:?}");

    // Tweaking the campaign itself (segments) relocates *every* key: the
    // grown cache dir is useless for it and all shards re-execute.
    let mut other = spec.clone();
    other.segments += 1;
    let moved_cache = Arc::new(ResultCache::open(&dir).expect("open moved"));
    let exec = scatter(worker_cmd(), 24, 4).cache(Arc::clone(&moved_cache));
    assert_backend_matches(&exec, &other, seed, 24, "segments-tweaked n=24");
    let m = moved_cache.stats();
    assert_eq!((m.hits, m.misses, m.stores), (0, 4, 4), "{m:?}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cache_local_runs_store_and_replay_the_whole_campaign_entry() {
    // A cached local run is the one-unit plan `0..n`: its entry sits at
    // the whole-campaign key, so cache directories written by earlier
    // local runs keep replaying.
    let spec = mixed_spec();
    let (seed, n) = (0xC0DE, 12);
    let dir = cache_dir("local");

    let cold_cache = Arc::new(ResultCache::open(&dir).expect("open cold"));
    let exec = LocalExecutor::new().cache(Arc::clone(&cold_cache));
    assert_backend_matches(&exec, &spec, seed, n, "cold local");
    let cold = cold_cache.stats();
    assert_eq!((cold.hits, cold.misses, cold.stores), (0, 1, 1), "{cold:?}");

    let probe = ResultCache::open(&dir).expect("open probe");
    let entry = probe.lookup(&spec, seed, &(0..n)).expect("entry at 0..n");
    assert_eq!(entry.records.len(), n);

    let warm_cache = Arc::new(ResultCache::open(&dir).expect("open warm"));
    let exec = LocalExecutor::new().cache(Arc::clone(&warm_cache));
    assert_backend_matches(&exec, &spec, seed, n, "warm local");
    let warm = warm_cache.stats();
    assert_eq!((warm.hits, warm.stores), (1, 0), "{warm:?}");
    let stats = exec
        .execute_stats(&spec, seed, n, None)
        .expect("warm stats");
    assert_byte_identical(&stats, &spec.run_local(seed, n).stats, "warm stats");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cache_cli_cold_warm_and_cross_transport_runs_match_byte_for_byte() {
    let dir = cache_dir("cli");
    let cache_arg = dir.to_string_lossy().into_owned();
    let run = |extra: &[&str]| {
        let out = Command::new(WORKER)
            .arg("campaign")
            .args(["--solver", "dedicated", "--classes", "type3,s1"])
            .args(["--n", "12", "--seed", "9", "--segments", "30000"])
            .args(extra)
            .output()
            .expect("campaign mode");
        assert!(
            out.status.success(),
            "{extra:?} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };

    // Reference: an uncached local run of the same campaign.
    let reference = run(&["--transport", "local"]);

    // Cold CLI run fills the cache dir (created on demand), one
    // ⌈12/3⌉ = 4-index unit per worker.
    let cold = run(&["--shards", "3", "--unit", "4", "--cache", &cache_arg]);
    assert_eq!(cold, reference, "cold cached run must not change bytes");
    assert!(dir.is_dir(), "--cache created the directory");

    // Warm rerun behind a wrapper that cannot possibly run: success
    // proves the CLI replayed every shard from the cache.
    let warm = run(&[
        "--shards",
        "3",
        "--unit",
        "4",
        "--cache",
        &cache_arg,
        "--wrap",
        "/nonexistent/rv-wrap-warm-proof",
    ]);
    assert_eq!(warm, reference, "warm run must replay identical bytes");

    // Two workers on the same 4-instance units replay the entries the
    // three-worker run wrote.
    let pool = run(&[
        "--transport",
        "pool",
        "--shards",
        "2",
        "--unit",
        "4",
        "--cache",
        &cache_arg,
    ]);
    assert_eq!(
        pool, reference,
        "pool transport must replay the same entries"
    );
    let _ = fs::remove_dir_all(&dir);
}
