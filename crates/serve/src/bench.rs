//! `rv-serve bench` — the campaign-service loadtest.
//!
//! Boots an in-process server on a loopback port, drives it with N
//! concurrent client connections running mixed-size local-transport
//! campaigns, validates every answer (records exactly-once, stats
//! consistent), and writes latency quantiles to a schema-2 bench
//! artifact (`target/BENCH_serve.json` by default) with two stable
//! entries:
//!
//! - `serve/campaign_1client` — single-connection round-trip latency;
//! - `serve/campaign_concurrent` — per-campaign latency under the full
//!   concurrent client load.
//!
//! The entry ids are independent of `--clients`, so artifacts stay
//! comparable across loadtest shapes. Any failed, duplicated, or
//! missing record fails the whole loadtest (exit 1 from the CLI).

use crate::{Client, ServeConfig, Server};
use rv_core::json;
use rv_core::shard::{CampaignRequest, CampaignSpec, SolverSpec, TransportSpec};
use rv_model::TargetClass;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Instant;

/// Single-client round trips measured for the reference entry.
const REFERENCE_RUNS: usize = 5;

/// Loadtest shape. `Default` is the acceptance shape: 100 concurrent
/// clients; `--quick` shrinks the campaigns for CI smoke runs.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Concurrent client connections.
    pub clients: usize,
    /// Serial campaigns per client.
    pub campaigns: usize,
    /// Smaller campaign sizes for smoke runs.
    pub quick: bool,
    /// Where the schema-2 bench artifact is written.
    pub out: PathBuf,
}

impl Default for BenchArgs {
    fn default() -> BenchArgs {
        BenchArgs {
            clients: 100,
            campaigns: 2,
            quick: false,
            out: PathBuf::from("target/BENCH_serve.json"),
        }
    }
}

/// What a completed loadtest produced.
#[derive(Debug)]
pub struct BenchReport {
    /// The artifact text written to [`BenchArgs::out`].
    pub json: String,
    /// Human-readable summary for the CLI.
    pub summary: String,
}

fn spec() -> CampaignSpec {
    CampaignSpec::new(
        SolverSpec::Aur,
        vec![TargetClass::Type3, TargetClass::S1],
        2_000,
    )
}

fn request(n: usize) -> CampaignRequest {
    CampaignRequest {
        n,
        transport: TransportSpec::Local,
        workers: 0,
        unit: 0,
        retries: 0,
        cache: None,
    }
}

/// Runs one campaign and validates the answer: every index in `0..n`
/// delivered exactly once and a consistent final report. Returns the
/// round-trip latency in nanoseconds.
fn run_one(client: &mut Client, n: usize, seed: u64) -> Result<u64, String> {
    let started = Instant::now();
    let run = client
        .run_campaign(&spec(), seed, &request(n))
        .map_err(|e| format!("campaign (seed {seed}, n {n}) failed: {e}"))?;
    let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut indices: Vec<usize> = run.records.iter().map(|(i, _)| *i).collect();
    indices.sort_unstable();
    if indices != (0..n).collect::<Vec<_>>() {
        return Err(format!(
            "records not exactly-once for seed {seed}: {} records for n = {n}",
            indices.len()
        ));
    }
    if run.stats.n != n {
        return Err(format!(
            "report n mismatch for seed {seed}: {} != {n}",
            run.stats.n
        ));
    }
    Ok(elapsed)
}

/// Nearest-rank quantile of a sorted latency list.
fn quantile(sorted: &[u64], fraction: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = ((sorted.len() - 1) as f64 * fraction).round() as usize;
    sorted.get(pos).or(sorted.last()).copied().unwrap_or(0) as f64
}

/// One schema-2 results row (`id`, `median_ns`, `mean_ns`, `min_ns`,
/// plus the `p90_ns` and `max_ns` quantiles).
fn results_row(id: &str, latencies: &mut [u64]) -> String {
    latencies.sort_unstable();
    let mean = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().map(|&v| v as f64).sum::<f64>() / latencies.len() as f64
    };
    format!(
        "{{\"id\": {}, \"median_ns\": {}, \"mean_ns\": {}, \"min_ns\": {}, \"p90_ns\": {}, \"max_ns\": {}}}",
        json::string(id),
        json::f64(quantile(latencies, 0.5)),
        json::f64(mean),
        json::f64(latencies.first().copied().unwrap_or(0) as f64),
        json::f64(quantile(latencies, 0.9)),
        json::f64(latencies.last().copied().unwrap_or(0) as f64),
    )
}

struct Measurements {
    reference: Vec<u64>,
    concurrent: Vec<u64>,
    total_records: usize,
    wall_ns: u64,
}

/// The measuring phases, separated so the caller can always drain the
/// server afterwards regardless of outcome.
fn phases(
    addr: SocketAddr,
    clients: usize,
    per_client: usize,
    quick: bool,
) -> Result<Measurements, String> {
    let sizes: &[usize] = if quick {
        &[4, 8, 16]
    } else {
        &[16, 32, 64, 128]
    };

    let mut reference = Vec::new();
    {
        let mut client = Client::connect(addr).map_err(|e| format!("reference connect: {e}"))?;
        for i in 0..REFERENCE_RUNS {
            reference.push(run_one(&mut client, 32, 1_000 + i as u64)?);
        }
    }

    let started = Instant::now();
    let mut joins = Vec::new();
    for c in 0..clients {
        let sizes: Vec<usize> = sizes.to_vec();
        let handle = std::thread::Builder::new()
            .name(format!("bench-client-{c}"))
            .spawn(move || -> Result<(Vec<u64>, usize), String> {
                let mut client =
                    Client::connect(addr).map_err(|e| format!("client {c} connect: {e}"))?;
                let mut latencies = Vec::new();
                let mut records = 0usize;
                for k in 0..per_client {
                    let n = sizes.get((c + k) % sizes.len()).copied().unwrap_or(32);
                    let seed = ((c as u64) << 16) | k as u64;
                    latencies.push(run_one(&mut client, n, seed)?);
                    records += n;
                }
                Ok((latencies, records))
            })
            .map_err(|e| format!("spawn client {c}: {e}"))?;
        joins.push(handle);
    }

    let mut concurrent = Vec::new();
    let mut total_records = 0usize;
    let mut failures: Vec<String> = Vec::new();
    for handle in joins {
        match handle.join() {
            Ok(Ok((latencies, records))) => {
                concurrent.extend(latencies);
                total_records += records;
            }
            Ok(Err(msg)) => failures.push(msg),
            Err(_) => failures.push("client thread panicked".to_string()),
        }
    }
    let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    if let Some(first) = failures.first() {
        return Err(format!(
            "{} of {clients} clients failed; first: {first}",
            failures.len()
        ));
    }
    Ok(Measurements {
        reference,
        concurrent,
        total_records,
        wall_ns,
    })
}

/// Runs the loadtest end to end and writes the artifact. Any validation
/// failure (failed campaign, duplicated or missing record) is an `Err`.
pub fn run(args: &BenchArgs) -> Result<BenchReport, String> {
    let clients = args.clients.max(1);
    let per_client = args.campaigns.max(1);

    let config = ServeConfig {
        // Admit the whole fleet: the loadtest measures throughput, the
        // busy path has its own deterministic tests.
        max_campaigns: clients,
        // One thread per campaign: with `clients` campaigns in flight,
        // per-campaign fan-out would only thrash the scheduler.
        local_threads: 1,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let handle = server.shutdown_handle();
    let server_thread = std::thread::Builder::new()
        .name("rv-serve-bench".to_string())
        .spawn(move || server.run())
        .map_err(|e| format!("spawn server: {e}"))?;

    let measured = phases(addr, clients, per_client, args.quick);
    handle.shutdown();
    let served = server_thread
        .join()
        .map_err(|_| "server thread panicked".to_string())?;
    served.map_err(|e| format!("server failed: {e}"))?;
    let mut measured = measured?;

    let json = format!(
        "{{\n  \"schema\": 2,\n  \"bench\": \"serve\",\n  \"results\": [\n    {},\n    {}\n  ]\n}}\n",
        results_row("serve/campaign_1client", &mut measured.reference),
        results_row("serve/campaign_concurrent", &mut measured.concurrent),
    );
    if let Some(parent) = args.out.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(&args.out, &json).map_err(|e| format!("write {}: {e}", args.out.display()))?;

    let campaigns = clients * per_client;
    let wall_ms = measured.wall_ns as f64 / 1e6;
    let throughput = if measured.wall_ns == 0 {
        0.0
    } else {
        measured.total_records as f64 / (measured.wall_ns as f64 / 1e9)
    };
    let summary = format!(
        "rv-serve bench: {clients} clients x {per_client} campaigns ({campaigns} total, \
         {} records, 0 failed/duplicated)\n\
         concurrent wall {:.0} ms, {:.0} records/s\n\
         campaign latency p50 {:.2} ms, p90 {:.2} ms, max {:.2} ms\n\
         wrote {}",
        measured.total_records,
        wall_ms,
        throughput,
        quantile(&measured.concurrent, 0.5) / 1e6,
        quantile(&measured.concurrent, 0.9) / 1e6,
        measured.concurrent.last().copied().unwrap_or(0) as f64 / 1e6,
        args.out.display(),
    );
    Ok(BenchReport { json, summary })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let sorted = [10, 20, 30, 40];
        assert_eq!(quantile(&sorted, 0.0), 10.0);
        assert_eq!(quantile(&sorted, 0.5), 30.0);
        assert_eq!(quantile(&sorted, 1.0), 40.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tiny_loadtest_round_trips_and_writes_the_artifact() {
        let out =
            std::env::temp_dir().join(format!("BENCH_serve_test_{}.json", std::process::id()));
        let args = BenchArgs {
            clients: 4,
            campaigns: 2,
            quick: true,
            out: out.clone(),
        };
        let report = run(&args).expect("loadtest");
        assert!(report.json.contains("\"serve/campaign_1client\""));
        assert!(report.json.contains("\"serve/campaign_concurrent\""));
        assert!(report.summary.contains("4 clients"));
        let written = std::fs::read_to_string(&out).expect("artifact");
        assert_eq!(written, report.json);
        let _ = std::fs::remove_file(&out);
    }
}
