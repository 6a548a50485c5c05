//! Wire-level abuse at the server boundary: every malformed, hostile,
//! or out-of-grammar input must be answered with exactly one typed
//! `error` line followed by a closed connection — never a panic, never
//! a hung campaign slot. The server runs with a single campaign slot in
//! these tests, so any leaked admission would fail the follow-up health
//! check with `busy`.

use rv_core::shard::{CampaignRequest, CampaignSpec, SolverSpec, TransportSpec};
use rv_core::wire::{self, ErrorCode};
use rv_model::TargetClass;
use rv_serve::{Client, ServeConfig, Server, ShutdownHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

fn spec() -> CampaignSpec {
    CampaignSpec::new(SolverSpec::Aur, vec![TargetClass::Type3], 5_000)
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

/// An abuse-test server: one campaign slot (leaks show up as `busy`),
/// tight line cap and read timeout so the hostile paths are fast.
fn start() -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            max_campaigns: 1,
            read_timeout: Duration::from_millis(400),
            max_line_bytes: 4 * 1024,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("local_addr");
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().expect("serve"));
    (addr, handle, join)
}

/// Asserts the server answers with exactly one typed error line of the
/// expected code and then closes the connection.
fn expect_error(stream: TcpStream, code: ErrorCode) {
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    assert!(
        reader.read_line(&mut line).expect("read the error line") > 0,
        "connection closed with no error line"
    );
    let err = wire::decode_error(line.trim()).expect("a typed error line");
    assert_eq!(err.code, code, "unexpected code; message: {}", err.message);
    let mut rest = Vec::new();
    // A clean EOF and a reset both count as closed (the server tearing
    // down a connection with unread abuse bytes in flight sends RST).
    if reader.read_to_end(&mut rest).is_ok() {
        assert!(
            rest.is_empty(),
            "connection must close right after the error line, got {rest:?}"
        );
    }
}

/// The slot-leak probe: a healthy server with one free slot serves a
/// small campaign to completion.
fn assert_healthy(addr: SocketAddr) {
    let mut client = Client::connect(addr).expect("connect");
    let run = client
        .run_campaign(&spec(), 99, &request(4))
        .expect("the abuse must not have hung the campaign slot");
    assert_eq!(run.records.len(), 4);
}

#[test]
fn junk_opener_is_a_wire_error() {
    let (addr, handle, join) = start();
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.write_all(b"hello, is this the campaign service?\n")
        .expect("send");
    expect_error(raw, ErrorCode::Wire);
    assert_healthy(addr);
    handle.shutdown();
    join.join().expect("join");
}

#[test]
fn truncated_campaign_spec_is_a_wire_error() {
    let (addr, handle, join) = start();
    let mut raw = TcpStream::connect(addr).expect("connect");
    let full = wire::encode_campaign_spec(&spec(), 3);
    let truncated = &full[..full.len() / 2];
    raw.write_all(format!("{truncated}\n").as_bytes())
        .expect("send");
    expect_error(raw, ErrorCode::Wire);
    assert_healthy(addr);
    handle.shutdown();
    join.join().expect("join");
}

#[test]
fn wrong_schema_number_is_a_wire_error() {
    let (addr, handle, join) = start();
    let mut raw = TcpStream::connect(addr).expect("connect");
    let line = wire::encode_campaign_spec(&spec(), 3).replacen("\"schema\": 3", "\"schema\": 2", 1);
    raw.write_all(format!("{line}\n").as_bytes()).expect("send");
    expect_error(raw, ErrorCode::Wire);
    assert_healthy(addr);
    handle.shutdown();
    join.join().expect("join");
}

#[test]
fn wrong_kind_opener_is_a_wire_error() {
    let (addr, handle, join) = start();
    let mut raw = TcpStream::connect(addr).expect("connect");
    // A well-formed schema-3 line of the wrong kind where the
    // campaign_spec belongs.
    let line = wire::encode_request(&request(8));
    raw.write_all(format!("{line}\n").as_bytes()).expect("send");
    expect_error(raw, ErrorCode::Wire);
    assert_healthy(addr);
    handle.shutdown();
    join.join().expect("join");
}

#[test]
fn second_campaign_spec_in_place_of_the_request_is_a_wire_error() {
    let (addr, handle, join) = start();
    let mut raw = TcpStream::connect(addr).expect("connect");
    let opener = wire::encode_campaign_spec(&spec(), 3);
    raw.write_all(format!("{opener}\n{opener}\n").as_bytes())
        .expect("send");
    expect_error(raw, ErrorCode::Wire);
    assert_healthy(addr);
    handle.shutdown();
    join.join().expect("join");
}

#[test]
fn retired_subprocess_transport_is_a_wire_error() {
    let (addr, handle, join) = start();
    let mut raw = TcpStream::connect(addr).expect("connect");
    // A retired transport name is as unknown as any other.
    let opener = wire::encode_campaign_spec(&spec(), 3);
    let retired = wire::encode_request(&request(8)).replacen("\"local\"", "\"subprocess\"", 1);
    assert!(retired.contains("\"subprocess\""), "{retired}");
    raw.write_all(format!("{opener}\n{retired}\n").as_bytes())
        .expect("send");
    expect_error(raw, ErrorCode::Wire);
    assert_healthy(addr);
    handle.shutdown();
    join.join().expect("join");
}

#[test]
fn eof_before_the_request_line_is_a_protocol_error() {
    let (addr, handle, join) = start();
    let raw = TcpStream::connect(addr).expect("connect");
    let mut writer = raw.try_clone().expect("clone");
    let opener = wire::encode_campaign_spec(&spec(), 3);
    writer
        .write_all(format!("{opener}\n").as_bytes())
        .expect("send");
    writer.shutdown(Shutdown::Write).expect("half-close");
    expect_error(raw, ErrorCode::Protocol);
    assert_healthy(addr);
    handle.shutdown();
    join.join().expect("join");
}

#[test]
fn invalid_utf8_is_a_protocol_error() {
    let (addr, handle, join) = start();
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.write_all(b"\xff\xfe{\"schema\": 3}\n").expect("send");
    expect_error(raw, ErrorCode::Protocol);
    assert_healthy(addr);
    handle.shutdown();
    join.join().expect("join");
}

#[test]
fn oversized_line_is_refused_before_buffering_it_all() {
    let (addr, handle, join) = start();
    let mut raw = TcpStream::connect(addr).expect("connect");
    // 64 KiB of line with no newline against a 4 KiB cap: the server
    // must refuse once the cap is crossed, not buffer forever. The
    // write side may hit a reset once the server answers; that's fine.
    let junk = vec![b'a'; 64 * 1024];
    let _ = raw.write_all(&junk);
    expect_error(raw, ErrorCode::Oversized);
    assert_healthy(addr);
    handle.shutdown();
    join.join().expect("join");
}

#[test]
fn slow_loris_partial_line_times_out() {
    let (addr, handle, join) = start();
    let mut raw = TcpStream::connect(addr).expect("connect");
    // A partial line with no newline, then silence: the 400 ms stall
    // deadline must cut the connection with a typed timeout.
    raw.write_all(b"{\"schema\": 3, \"kind\": \"campaign")
        .expect("send");
    expect_error(raw, ErrorCode::Timeout);
    assert_healthy(addr);
    handle.shutdown();
    join.join().expect("join");
}

#[test]
fn idle_connection_times_out_without_taking_a_slot() {
    let (addr, handle, join) = start();
    let raw = TcpStream::connect(addr).expect("connect");
    // Connect and send nothing at all.
    expect_error(raw, ErrorCode::Timeout);
    assert_healthy(addr);
    handle.shutdown();
    join.join().expect("join");
}

#[test]
fn garbage_after_a_completed_campaign_is_typed_not_fatal() {
    let (addr, handle, join) = start();
    let mut client = Client::connect(addr).expect("connect");
    let run = client.run_campaign(&spec(), 5, &request(4)).expect("run");
    assert_eq!(run.records.len(), 4);
    // Abuse the same (re-keyable) session the good campaign ran on.
    let mut raw = client.into_stream();
    raw.write_all(b"not a campaign_spec\n").expect("send");
    expect_error(raw, ErrorCode::Wire);
    assert_healthy(addr);
    handle.shutdown();
    join.join().expect("join");
}
