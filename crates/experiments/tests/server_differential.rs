//! The campaign-service differential: a campaign served over a real TCP
//! socket must be **byte-identical** to the in-process reference — the
//! streamed `record` wire lines match `wire::encode_record` of
//! `CampaignSpec::run_local`'s records line for line, and the decoded
//! `campaign_report`'s `CampaignStats::to_json` matches the local
//! artifact byte for byte — on the local and pool transports (the pool
//! also as a K-shard scatter, one ⌈n/K⌉ unit per worker), for 32
//! concurrent clients, and across serial re-keyed campaigns on one
//! connection. The overload and hangup paths are
//! pinned too: a full server answers a typed `busy` error, and a client
//! that hangs up mid-stream frees its campaign slot promptly (the
//! sink-closed abort) instead of draining the rest of the campaign into
//! the void.

use rv_core::shard::{CampaignRequest, CampaignSpec, SolverSpec, TransportSpec};
use rv_core::wire::{self, ErrorCode};
use rv_model::TargetClass;
use rv_serve::{CampaignRun, Client, ClientError, ServeConfig, Server, ShutdownHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The worker binary for the pool transport, built by cargo for this
/// test run.
const WORKER: &str = env!("CARGO_BIN_EXE_rv-shard");

fn spec() -> CampaignSpec {
    CampaignSpec::new(
        SolverSpec::Dedicated,
        vec![
            TargetClass::Type1,
            TargetClass::Type3,
            TargetClass::S1,
            TargetClass::InfeasibleShift,
        ],
        10_000,
    )
}

fn request(n: usize, transport: TransportSpec, workers: usize) -> CampaignRequest {
    CampaignRequest {
        n,
        transport,
        workers,
        unit: 0,
        retries: 0,
        cache: None,
    }
}

fn start(config: ServeConfig) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("local_addr");
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().expect("serve"));
    (addr, handle, join)
}

fn with_worker() -> ServeConfig {
    ServeConfig {
        worker: Some(WORKER.into()),
        ..ServeConfig::default()
    }
}

/// A run's raw record lines paired with their indices, in index order
/// (arrival order is unspecified; `index` is the reordering key).
fn lines_by_index(run: &CampaignRun) -> Vec<(usize, &String)> {
    let mut lines: Vec<(usize, &String)> = run
        .records
        .iter()
        .map(|(i, _)| *i)
        .zip(run.record_lines.iter())
        .collect();
    lines.sort_by_key(|(i, _)| *i);
    lines
}

/// The byte-identity check: streamed record lines == locally encoded
/// record lines (after index reordering), and the decoded report's
/// to_json == the local stats artifact.
fn assert_served_matches_local(
    run: &CampaignRun,
    spec: &CampaignSpec,
    seed: u64,
    n: usize,
    ctx: &str,
) {
    let local = spec.run_local(seed, n);

    let streamed = lines_by_index(run);
    assert_eq!(streamed.len(), n, "{ctx}: record count");
    for (expect, (index, line)) in streamed.iter().enumerate() {
        assert_eq!(*index, expect, "{ctx}: exactly-once index coverage");
        assert_eq!(
            **line,
            wire::encode_record(*index, &local.records[*index]),
            "{ctx}: record line {index} must be byte-identical"
        );
    }
    assert_eq!(
        run.stats.to_json(),
        local.stats.to_json(),
        "{ctx}: stats artifact must be byte-identical"
    );
    assert_eq!(run.stats, local.stats, "{ctx}: decoded stats struct");
}

#[test]
fn served_local_campaign_is_byte_identical() {
    let (addr, handle, join) = start(ServeConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let run = client
        .run_campaign(&spec(), 42, &request(64, TransportSpec::Local, 0))
        .expect("served campaign");
    assert_served_matches_local(&run, &spec(), 42, 64, "local transport");
    assert!(run.telemetry.is_empty(), "local transport has no units");
    drop(client);
    handle.shutdown();
    join.join().expect("join");
}

#[test]
fn served_pool_campaign_is_byte_identical_with_telemetry() {
    let (addr, handle, join) = start(with_worker());
    let mut client = Client::connect(addr).expect("connect");
    let mut req = request(48, TransportSpec::Pool, 2);
    req.unit = 8;
    let run = client
        .run_campaign(&spec(), 7, &req)
        .expect("served pool campaign");
    assert_served_matches_local(&run, &spec(), 7, 48, "pool transport");
    assert_eq!(
        run.telemetry.len(),
        48 / 8,
        "one telemetry row per pool unit"
    );
    drop(client);
    handle.shutdown();
    join.join().expect("join");
}

#[test]
fn served_pool_with_one_unit_per_worker_is_byte_identical() {
    let (addr, handle, join) = start(with_worker());
    let mut client = Client::connect(addr).expect("connect");
    let mut req = request(32, TransportSpec::Pool, 2);
    req.unit = 32usize.div_ceil(2);
    let run = client
        .run_campaign(&spec(), 9, &req)
        .expect("served 2-shard campaign");
    assert_served_matches_local(&run, &spec(), 9, 32, "2-shard pool");
    // A 2-shard scatter is a 2-worker pool with one 16-index unit each,
    // so the answer carries one telemetry line per shard.
    let units: Vec<u32> = run.telemetry.iter().map(|t| t.task_id).collect();
    assert_eq!(units, vec![0, 1], "one unit_telemetry line per shard");
    drop(client);
    handle.shutdown();
    join.join().expect("join");
}

#[test]
fn concurrent_clients_each_get_byte_identical_streams() {
    // 32 clients at once, every one admitted: exactly-once, byte-identical
    // delivery under concurrent load.
    const CLIENTS: u64 = 32;
    let (addr, handle, join) = start(ServeConfig {
        max_campaigns: CLIENTS as usize,
        local_threads: 1,
        ..ServeConfig::default()
    });
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        clients.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let n = 16 + (c as usize % 3) * 8;
            let run = client
                .run_campaign(&spec(), 100 + c, &request(n, TransportSpec::Local, 0))
                .expect("served campaign");
            assert_served_matches_local(&run, &spec(), 100 + c, n, &format!("client {c}"));
        }));
    }
    for c in clients {
        c.join().expect("client thread");
    }
    handle.shutdown();
    join.join().expect("join");
}

#[test]
fn serial_campaigns_rekey_the_session_byte_identically() {
    let (addr, handle, join) = start(ServeConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    // Distinct specs AND seeds per campaign: the second answer must
    // reflect the re-keyed spec, not a stale session.
    let second_spec = CampaignSpec::new(SolverSpec::Aur, vec![TargetClass::Type3], 20_000);
    let run1 = client
        .run_campaign(&spec(), 1, &request(24, TransportSpec::Local, 0))
        .expect("first campaign");
    assert_served_matches_local(&run1, &spec(), 1, 24, "first campaign");
    let run2 = client
        .run_campaign(&second_spec, 2, &request(16, TransportSpec::Local, 0))
        .expect("re-keyed campaign");
    assert_served_matches_local(&run2, &second_spec, 2, 16, "re-keyed campaign");

    drop(client);
    handle.shutdown();
    join.join().expect("join");
}

#[test]
fn full_server_answers_typed_busy() {
    let (addr, handle, join) = start(ServeConfig {
        max_campaigns: 0,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    match client.run_campaign(&spec(), 1, &request(8, TransportSpec::Local, 0)) {
        Err(ClientError::Server(err)) => {
            assert_eq!(err.code, ErrorCode::Busy);
            assert!(err.message.contains("limit"), "message: {}", err.message);
        }
        other => panic!("expected busy, got {other:?}"),
    }
    handle.shutdown();
    join.join().expect("join");
}

#[test]
fn served_cached_campaigns_replay_byte_identically_and_bad_cache_names_are_typed() {
    let root = std::env::temp_dir().join(format!("rv-serve-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("cache root");
    let (addr, handle, join) = start(ServeConfig {
        cache_root: Some(root.clone()),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let mut req = request(48, TransportSpec::Local, 0);
    // The wire field is an opaque *name* the server resolves under its
    // own --cache-root; the client never sees a filesystem path.
    req.cache = Some("sweep".to_string());

    // Cold fills the server-side cache; the warm re-key of the same
    // connection replays it. Both must match the local reference.
    let cold = client.run_campaign(&spec(), 42, &req).expect("cold");
    assert_served_matches_local(&cold, &spec(), 42, 48, "cached local (cold)");
    assert!(
        root.join("sweep").is_dir(),
        "the named cache lives under the server's root"
    );
    let warm = client.run_campaign(&spec(), 42, &req).expect("warm");
    assert_served_matches_local(&warm, &spec(), 42, 48, "cached local (warm)");
    // A cold run streams records in completion order and a warm replay
    // in index order (WIRE.md: "any order; `index` is the reordering
    // key"), so the lines are compared keyed by index, each byte-equal.
    assert_eq!(
        lines_by_index(&cold),
        lines_by_index(&warm),
        "warm replay streams the same wire bytes"
    );

    // Names that try to escape the root — absolute paths, `..`
    // traversal, separators, hidden/tmp prefixes — are refused with one
    // typed error line, before any filesystem or executor work.
    for escape in ["/tmp/evil", "..", "../sibling", "a/b", ".hidden", ""] {
        let mut bad = request(8, TransportSpec::Local, 0);
        bad.cache = Some(escape.to_string());
        let mut other_client = Client::connect(addr).expect("connect 2");
        match other_client.run_campaign(&spec(), 42, &bad) {
            Err(ClientError::Server(err)) => {
                assert_eq!(err.code, ErrorCode::Protocol, "name {escape:?}");
                assert!(
                    err.message.contains("bad cache name"),
                    "name {escape:?}: message: {}",
                    err.message
                );
            }
            other => panic!("name {escape:?}: expected a typed protocol error, got {other:?}"),
        }
    }

    // A valid name whose slot under the root is occupied by a plain
    // file is a typed error too (the store refuses to open it).
    std::fs::write(root.join("occupied"), b"x").expect("occupy");
    let mut bad = request(8, TransportSpec::Local, 0);
    bad.cache = Some("occupied".to_string());
    let mut other_client = Client::connect(addr).expect("connect 3");
    match other_client.run_campaign(&spec(), 42, &bad) {
        Err(ClientError::Server(err)) => {
            assert_eq!(err.code, ErrorCode::Protocol);
            assert!(
                err.message.contains("not a directory"),
                "message: {}",
                err.message
            );
        }
        other => panic!("expected a typed protocol error, got {other:?}"),
    }
    drop(client);
    drop(other_client);
    handle.shutdown();
    join.join().expect("join");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn cache_requests_without_a_configured_root_are_unsupported() {
    // No cache_root in the config: the `cache` field cannot be honoured
    // and must be refused typed — never opened relative to the server's
    // cwd.
    let (addr, handle, join) = start(ServeConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let mut req = request(8, TransportSpec::Local, 0);
    req.cache = Some("sweep".to_string());
    match client.run_campaign(&spec(), 42, &req) {
        Err(ClientError::Server(err)) => {
            assert_eq!(err.code, ErrorCode::Unsupported);
            assert!(
                err.message.contains("cache root"),
                "message: {}",
                err.message
            );
        }
        other => panic!("expected an unsupported error, got {other:?}"),
    }
    handle.shutdown();
    join.join().expect("join");
}

#[test]
fn hangup_mid_campaign_frees_the_slot_promptly_and_server_stays_healthy() {
    // One campaign slot total: the follow-up campaign can only be
    // admitted if the hung-up campaign's slot was released by the
    // sink-closed abort — not after draining all 512 pool units.
    let (addr, handle, join) = start(ServeConfig {
        max_campaigns: 1,
        ..with_worker()
    });

    {
        let mut raw = TcpStream::connect(addr).expect("connect");
        let opener = wire::encode_campaign_spec(&spec(), 5);
        let mut req = request(512, TransportSpec::Pool, 2);
        req.unit = 1; // 512 single-index units: a full drain is long.
        let request_line = wire::encode_request(&req);
        raw.write_all(format!("{opener}\n{request_line}\n").as_bytes())
            .expect("send");
        // Read a few streamed records to prove the campaign is live,
        // then hang up without warning.
        let mut reader = BufReader::new(raw.try_clone().expect("clone"));
        for _ in 0..3 {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).expect("read") > 0);
            wire::decode_record(line.trim()).expect("a record line");
        }
    } // <- both halves dropped: the client is gone mid-stream.

    let started = Instant::now();
    let deadline = Duration::from_secs(60);
    let mut served = None;
    while started.elapsed() < deadline {
        let mut client = Client::connect(addr).expect("connect");
        match client.run_campaign(&spec(), 6, &request(8, TransportSpec::Local, 0)) {
            Ok(run) => {
                served = Some(run);
                break;
            }
            // Slot still held: the abort hasn't landed yet. Retry.
            Err(ClientError::Server(err)) if err.code == ErrorCode::Busy => {
                std::thread::sleep(Duration::from_millis(50));
            }
            other => panic!("server unhealthy after hangup: {other:?}"),
        }
    }
    let run = served.expect("slot was never freed within an abort-sized deadline");
    assert_served_matches_local(&run, &spec(), 6, 8, "post-hangup campaign");

    handle.shutdown();
    join.join().expect("join");
}
