//! `rv-serve` — the campaign service CLI.
//!
//! ```text
//! rv-serve [--addr HOST:PORT] [--worker PATH] [--max-campaigns N]
//!          [--read-timeout-secs S] [--max-line-bytes B] [--local-threads T]
//!          [--cache-root DIR]
//! ```
//!
//! The default mode binds a TCP listener (port `0` picks a free port,
//! printed as `rv-serve: listening on ADDR`), installs the
//! SIGTERM/SIGINT drain handler, and serves schema-3 campaign sessions
//! until drained — see `WIRE.md`, "Campaign service over TCP".
//! `--cache-root DIR` is the server-side home for client-named result
//! caches (the `request` line's `cache` field); without it, cache
//! requests are answered `unsupported`.
//!
//! Served latency under load is measured by rvbench's `serve_closed`
//! workload (`--connections N` concurrent clients).
//!
//! Exit codes: 0 = clean drain, 1 = runtime failure, 2 = usage error.

use rv_serve::{signal, ServeConfig, Server};
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: rv-serve [--addr HOST:PORT] [--worker PATH] [--max-campaigns N]\n\
         \x20               [--read-timeout-secs S] [--max-line-bytes B] [--local-threads T]\n\
         \x20               [--cache-root DIR]"
    );
    std::process::exit(2);
}

/// The value after `--flag`, if the flag is present. A dangling flag is
/// a usage error.
fn flag_value(args: &[String], name: &str) -> Option<String> {
    let at = args.iter().position(|a| a == name)?;
    match args.get(at + 1) {
        Some(v) if !v.starts_with("--") => Some(v.clone()),
        _ => {
            eprintln!("rv-serve: {name} needs a value");
            usage();
        }
    }
}

fn parsed<T: std::str::FromStr>(raw: Option<String>, name: &str, default: T) -> T {
    match raw {
        None => default,
        Some(raw) => match raw.parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("rv-serve: bad {name} value {raw:?}");
                usage();
            }
        },
    }
}

/// Rejects unknown flags so typos fail loudly.
fn check_flags(args: &[String], known_values: &[&str]) {
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if !known_values.contains(&arg.as_str()) {
            eprintln!("rv-serve: unknown argument {arg:?}");
            usage();
        }
        i += 2;
    }
}

fn serve(args: &[String]) -> ! {
    check_flags(
        args,
        &[
            "--addr",
            "--worker",
            "--max-campaigns",
            "--read-timeout-secs",
            "--max-line-bytes",
            "--local-threads",
            "--cache-root",
        ],
    );
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:0".to_string());
    let config = ServeConfig {
        max_campaigns: parsed(flag_value(args, "--max-campaigns"), "--max-campaigns", 64),
        read_timeout: Duration::from_secs(parsed(
            flag_value(args, "--read-timeout-secs"),
            "--read-timeout-secs",
            30,
        )),
        max_line_bytes: parsed(
            flag_value(args, "--max-line-bytes"),
            "--max-line-bytes",
            1 << 20,
        ),
        worker: flag_value(args, "--worker").map(PathBuf::from),
        local_threads: parsed(flag_value(args, "--local-threads"), "--local-threads", 0),
        cache_root: flag_value(args, "--cache-root").map(PathBuf::from),
    };

    signal::install();
    let server = match Server::bind(addr.as_str(), config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("rv-serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(bound) => {
            // The parseable readiness line supervisors and tests wait for.
            println!("rv-serve: listening on {bound}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("rv-serve: cannot read the bound address: {e}");
            std::process::exit(1);
        }
    }
    match server.run() {
        Ok(()) => {
            println!("rv-serve: drained, exiting");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("rv-serve: serving failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve(args.get(1..).unwrap_or(&[])),
        Some(flag) if flag.starts_with("--") => serve(&args),
        None => serve(&args),
        Some(other) => {
            eprintln!("rv-serve: unknown mode {other:?}");
            usage();
        }
    }
}
