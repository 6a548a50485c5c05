//! # rv-serve — rendezvous as a service
//!
//! A concurrent TCP campaign server multiplexing the schema-3 wire
//! protocol (see `WIRE.md`, "Campaign service over TCP"). A client
//! connects, sends one `campaign_spec` line (the spec plus the session
//! seed) followed by one `request` line (`n`, transport, workers, unit,
//! retries), and the server streams back `record` lines as runs finish,
//! then any `unit_telemetry` lines (pool transport), then one
//! `campaign_report` line carrying the full [`CampaignStats`]. Failures
//! are answered with a single typed `error` line and the connection is
//! closed — the server never panics on client input and never strands a
//! campaign slot.
//!
//! The serving loop is plain `std` (no async runtime): one thread per
//! connection, the kernel's TCP flow control as per-client backpressure,
//! and the executor layer's sink-closed abort path
//! ([`rv_core::exec::ExecError::SinkClosed`]) to cancel campaigns whose
//! client hung up mid-stream.
//!
//! Guarantees, in protocol terms:
//!
//! - **Byte identity.** The streamed `record` lines and the decoded
//!   report's [`CampaignStats::to_json`] are byte-identical to an
//!   in-process [`rv_core::exec::LocalExecutor`] run of the same
//!   `(spec, seed, n)` — the transport moves bytes, it never rounds
//!   them. Pinned by the `server_differential` suite.
//! - **Bounded admission.** At most [`ServeConfig::max_campaigns`]
//!   campaigns execute at once; the next request is refused with a
//!   typed `busy` error instead of queueing without bound.
//! - **Session re-keying.** One connection may run any number of
//!   campaigns serially; each `campaign_spec` line re-keys the session
//!   exactly like the pool worker protocol.
//! - **Graceful drain.** On SIGTERM (or [`ShutdownHandle::shutdown`])
//!   the server stops accepting, refuses new campaigns with a
//!   `shutdown` error, lets in-flight campaigns finish, and
//!   [`Server::run`] returns.
//!
//! ```no_run
//! use rv_serve::{Client, ServeConfig, Server};
//! use rv_core::shard::{CampaignRequest, CampaignSpec, SolverSpec, TransportSpec};
//! use rv_model::TargetClass;
//!
//! let server = Server::bind("127.0.0.1:0", ServeConfig::default())?;
//! let addr = server.local_addr()?;
//! let handle = server.shutdown_handle();
//! let join = std::thread::spawn(move || server.run());
//!
//! let spec = CampaignSpec::new(SolverSpec::Aur, vec![TargetClass::Type3], 50_000);
//! let req = CampaignRequest {
//!     n: 64,
//!     transport: TransportSpec::Local,
//!     workers: 0,
//!     unit: 0,
//!     retries: 0,
//!     cache: None,
//! };
//! let mut client = Client::connect(addr)?;
//! let run = client.run_campaign(&spec, 42, &req).expect("campaign");
//! assert_eq!(run.records.len(), 64);
//!
//! handle.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

// The one unsafe site in this crate: registering the SIGTERM handler
// through libc's `signal`. Everything else is `deny(unsafe_code)` above.
#[allow(unsafe_code)]
pub mod signal;

use rv_core::batch::{CampaignStats, RunRecord};
use rv_core::cache::ResultCache;
use rv_core::exec::{self, ExecError, WorkerCommand};
use rv_core::shard::{CampaignRequest, CampaignSpec, UnitTelemetry};
use rv_core::stream::RecordSink;
use rv_core::wire::{self, ErrorCode, ErrorLine, WireError};
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often the accept loop and idle readers poll for shutdown.
const POLL: Duration = Duration::from_millis(25);

/// Locks a mutex, riding through poisoning (a panicking sibling thread
/// must not turn into a second panic here).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Server policy knobs. `Default` is the production shape; tests tighten
/// the limits to make the overload paths deterministic.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Campaigns allowed to execute concurrently across all
    /// connections. The next request beyond this is refused with a
    /// typed `busy` error line. `0` refuses everything (used by tests
    /// to pin the busy path).
    pub max_campaigns: usize,
    /// How long a client may stall — mid-line or between campaigns —
    /// before the server answers with a `timeout` error and closes the
    /// connection (the slow-loris bound).
    pub read_timeout: Duration,
    /// Longest accepted request line in bytes; anything longer is
    /// refused with an `oversized` error before buffering more.
    pub max_line_bytes: usize,
    /// Worker binary (an `rv-shard`-compatible CLI) for the `pool`
    /// transport. `None` serves the `local` transport only and answers
    /// `pool` with an `unsupported` error.
    pub worker: Option<PathBuf>,
    /// Threads per `local`-transport campaign (`0` = all cores). Loaded
    /// servers cap this so concurrent campaigns don't oversubscribe;
    /// thread count never changes campaign bytes.
    pub local_threads: usize,
    /// Server-side directory under which client-named result caches
    /// live. The wire `request` line's `cache` field is an opaque cache
    /// *name* (validated by the private `resolve_cache` helper) joined under
    /// this root — clients never choose filesystem paths, exactly like the
    /// worker binary being server config. `None` answers any cache
    /// request with an `unsupported` error.
    pub cache_root: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_campaigns: 64,
            read_timeout: Duration::from_secs(30),
            max_line_bytes: 1 << 20,
            worker: None,
            local_threads: 0,
            cache_root: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Shared server state: the drain latch plus the two load gauges.
struct ServerState {
    draining: AtomicBool,
    /// Campaigns currently executing (admission gauge).
    active: AtomicUsize,
    /// Open connections (drain gauge).
    connections: AtomicUsize,
}

impl ServerState {
    fn new() -> ServerState {
        ServerState {
            draining: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            connections: AtomicUsize::new(0),
        }
    }

    /// Whether the server is draining — by handle or by SIGTERM.
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || signal::termination_requested()
    }

    /// Claims one campaign slot unless `max` are already running.
    fn try_admit(&self, max: usize) -> bool {
        let mut current = self.active.load(Ordering::SeqCst);
        loop {
            if current >= max {
                return false;
            }
            match self.active.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return true,
                Err(now) => current = now,
            }
        }
    }

    fn release(&self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Asks a running [`Server`] to drain and exit (the programmatic
/// equivalent of SIGTERM). Cloneable and cheap to hold.
#[derive(Clone)]
pub struct ShutdownHandle {
    state: Arc<ServerState>,
}

impl ShutdownHandle {
    /// Starts the drain: no new connections or campaigns are accepted,
    /// in-flight campaigns finish, then [`Server::run`] returns.
    pub fn shutdown(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
    }
}

/// The campaign server: a bound listener plus its policy. [`Server::run`]
/// serves until drained.
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listener. Port `0` picks a free port — read it back
    /// with [`Server::local_addr`].
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            config,
            state: Arc::new(ServerState::new()),
        })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can drain this server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serves until drained (by [`ShutdownHandle::shutdown`] or
    /// SIGTERM): accepts connections, one handler thread each, then
    /// waits for every open connection to finish before returning.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        loop {
            if self.state.draining() {
                if self.state.connections.load(Ordering::SeqCst) == 0 {
                    return Ok(());
                }
                std::thread::sleep(POLL);
                continue;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let config = self.config.clone();
                    let state = Arc::clone(&self.state);
                    state.connections.fetch_add(1, Ordering::SeqCst);
                    let spawned = std::thread::Builder::new()
                        .name("rv-serve-conn".to_string())
                        .spawn(move || {
                            handle_connection(stream, &config, &state);
                            state.connections.fetch_sub(1, Ordering::SeqCst);
                        });
                    if spawned.is_err() {
                        // Could not spawn a handler (resource pressure):
                        // drop the connection and keep serving.
                        self.state.connections.fetch_sub(1, Ordering::SeqCst);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
                // Transient accept errors (e.g. ECONNABORTED) must not
                // kill the serving loop.
                Err(_) => std::thread::sleep(POLL),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

/// What one blocking line read produced.
enum ReadOutcome {
    /// A complete line (newline stripped, CRLF tolerated).
    Line(String),
    /// Clean end of stream at a line boundary.
    Eof,
}

/// A line reader with the server's protocol-abuse bounds: a byte cap
/// per line, a stall deadline, and a drain check while idle.
struct LineReader {
    stream: TcpStream,
    pending: Vec<u8>,
    max_line_bytes: usize,
    timeout: Duration,
}

impl LineReader {
    fn new(stream: TcpStream, config: &ServeConfig) -> io::Result<LineReader> {
        // Short socket timeouts turn blocking reads into a poll loop so
        // the stall deadline and the drain latch are both observed.
        stream.set_read_timeout(Some(POLL))?;
        Ok(LineReader {
            stream,
            pending: Vec::new(),
            max_line_bytes: config.max_line_bytes,
            timeout: config.read_timeout,
        })
    }

    /// Reads one line, enforcing the size cap and the stall deadline.
    /// `draining` is polled while waiting so a drained server reaps
    /// idle connections promptly (with a `shutdown` error) instead of
    /// waiting out the full timeout.
    fn read_line(&mut self, draining: &dyn Fn() -> bool) -> Result<ReadOutcome, ErrorLine> {
        let started = Instant::now();
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let rest = self.pending.split_off(pos + 1);
                let mut raw = std::mem::replace(&mut self.pending, rest);
                raw.pop();
                if raw.last() == Some(&b'\r') {
                    raw.pop();
                }
                return match String::from_utf8(raw) {
                    Ok(line) => Ok(ReadOutcome::Line(line)),
                    Err(_) => Err(ErrorLine::new(
                        ErrorCode::Protocol,
                        "line is not valid UTF-8",
                    )),
                };
            }
            if self.pending.len() > self.max_line_bytes {
                return Err(ErrorLine::new(
                    ErrorCode::Oversized,
                    format!(
                        "line exceeds the {}-byte limit before its newline",
                        self.max_line_bytes
                    ),
                ));
            }
            if draining() && self.pending.is_empty() {
                return Err(ErrorLine::new(
                    ErrorCode::Shutdown,
                    "server is draining; no new campaigns",
                ));
            }
            if started.elapsed() > self.timeout {
                return Err(ErrorLine::new(
                    ErrorCode::Timeout,
                    format!("no complete line within {:?}", self.timeout),
                ));
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return if self.pending.is_empty() {
                        Ok(ReadOutcome::Eof)
                    } else {
                        Err(ErrorLine::new(
                            ErrorCode::Protocol,
                            "connection closed mid-line",
                        ))
                    };
                }
                Ok(k) => self
                    .pending
                    .extend_from_slice(chunk.get(..k).unwrap_or(&[])),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(e) => {
                    return Err(ErrorLine::new(
                        ErrorCode::Protocol,
                        format!("read failed: {e}"),
                    ));
                }
            }
        }
    }
}

/// The server side of one client's record stream: a shared socket
/// writer that is also the campaign's [`RecordSink`]. Write failures
/// latch [`SocketSink::is_closed`] — the executor polls it and aborts
/// the campaign via its kill switch once the client is gone.
struct SocketSink {
    out: Mutex<TcpStream>,
    failed: AtomicBool,
}

impl SocketSink {
    fn new(stream: TcpStream) -> SocketSink {
        SocketSink {
            out: Mutex::new(stream),
            failed: AtomicBool::new(false),
        }
    }

    /// Writes one wire line (newline-terminated, flushed). Returns
    /// `false` — and latches the failure — once the client is gone.
    fn write_line(&self, line: &str) -> bool {
        if self.failed.load(Ordering::Relaxed) {
            return false;
        }
        let mut out = lock(&self.out);
        let wrote = out
            .write_all(line.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
            .and_then(|()| out.flush());
        if wrote.is_err() {
            self.failed.store(true, Ordering::Relaxed);
            return false;
        }
        true
    }
}

impl RecordSink for SocketSink {
    fn record(&self, index: usize, rec: &RunRecord) {
        let line = wire::encode_record(index, rec);
        self.write_line(&line);
    }

    /// A dead socket is a closed consumer; the executor aborts.
    fn is_closed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }
}

/// Best-effort typed error answer (the client may already be gone).
fn send_error(out: &SocketSink, err: &ErrorLine) {
    out.write_line(&wire::encode_error(err));
}

/// Serves one connection: any number of serial campaigns (each a
/// `campaign_spec` + `request` pair), until EOF, a protocol error, or
/// drain. Every early return closes the connection.
fn handle_connection(stream: TcpStream, config: &ServeConfig, state: &ServerState) {
    // Per-record flushes stay timely without Nagle batching.
    let _ = stream.set_nodelay(true);
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let out = Arc::new(SocketSink::new(writer));
    let mut reader = match LineReader::new(stream, config) {
        Ok(reader) => reader,
        Err(_) => return,
    };
    let draining = || state.draining();
    loop {
        let opener = match reader.read_line(&draining) {
            Ok(ReadOutcome::Eof) => return,
            Ok(ReadOutcome::Line(line)) => line,
            Err(err) => {
                send_error(&out, &err);
                return;
            }
        };
        if state.draining() {
            send_error(
                &out,
                &ErrorLine::new(ErrorCode::Shutdown, "server is draining; no new campaigns"),
            );
            return;
        }
        let (spec, seed) = match wire::decode_campaign_spec(&opener) {
            Ok(pair) => pair,
            Err(e) => {
                send_error(
                    &out,
                    &ErrorLine::new(ErrorCode::Wire, format!("bad campaign_spec line: {e}")),
                );
                return;
            }
        };
        let request = match reader.read_line(&draining) {
            Ok(ReadOutcome::Line(line)) => line,
            Ok(ReadOutcome::Eof) => {
                send_error(
                    &out,
                    &ErrorLine::new(
                        ErrorCode::Protocol,
                        "connection closed before the request line",
                    ),
                );
                return;
            }
            Err(err) => {
                send_error(&out, &err);
                return;
            }
        };
        let req = match wire::decode_request(&request) {
            Ok(req) => req,
            Err(e) => {
                send_error(
                    &out,
                    &ErrorLine::new(ErrorCode::Wire, format!("bad request line: {e}")),
                );
                return;
            }
        };
        if !state.try_admit(config.max_campaigns) {
            send_error(
                &out,
                &ErrorLine::new(
                    ErrorCode::Busy,
                    format!(
                        "server is at its limit of {} concurrent campaigns",
                        config.max_campaigns
                    ),
                ),
            );
            return;
        }
        let ran = run_campaign(&spec, seed, &req, config, Arc::clone(&out));
        state.release();
        match ran {
            Ok((stats, telemetry)) => {
                for t in &telemetry {
                    if !out.write_line(&wire::encode_unit_telemetry(t)) {
                        return;
                    }
                }
                if !out.write_line(&wire::encode_campaign_report(&stats)) {
                    return;
                }
                // Loop: the next campaign_spec line re-keys the session.
            }
            Err(err) => {
                send_error(&out, &err);
                return;
            }
        }
    }
}

/// Executes one admitted campaign on the backend the request names
/// ([`exec::backend`]), streaming records into `out`. Worker-backed
/// campaigns also return their unit telemetry (sorted, worker tags
/// stripped) for the client-visible tail; local ones return none.
fn run_campaign(
    spec: &CampaignSpec,
    seed: u64,
    req: &CampaignRequest,
    config: &ServeConfig,
    out: Arc<SocketSink>,
) -> Result<(CampaignStats, Vec<UnitTelemetry>), ErrorLine> {
    // A requested cache name resolves (creating if needed) to a
    // server-side content-addressed result store under the configured
    // cache root. A name the server cannot honour is a typed error
    // before any execution starts.
    let cache = match &req.cache {
        None => None,
        Some(name) => Some(resolve_cache(config, name)?),
    };
    let worker = config.worker.as_ref().map(WorkerCommand::new);
    let exec = exec::backend(req, worker, config.local_threads, cache)
        .map_err(|e| ErrorLine::new(ErrorCode::Unsupported, e))?;
    let sink: Arc<dyn RecordSink> = Arc::clone(&out) as Arc<dyn RecordSink>;
    let stats = exec
        .execute_stats(spec, seed, req.n, Some(sink))
        .map_err(|e| {
            // A campaign aborted because this client hung up needs no
            // error line (nobody is listening); anything else is a real
            // failure.
            if out.is_closed() {
                ErrorLine::new(ErrorCode::Exec, ExecError::SinkClosed)
            } else {
                ErrorLine::new(ErrorCode::Exec, e)
            }
        })?;
    let telemetry = exec.take_worker_telemetry().into_iter().map(|(_, t)| t);
    Ok((stats, telemetry.collect()))
}

/// The bounds a wire-supplied cache name must satisfy before it is
/// joined under [`ServeConfig::cache_root`]: 1–64 bytes of
/// `[A-Za-z0-9._-]`, not starting with `.` or `-`. That shuts out
/// absolute paths, `..` traversal, path separators, hidden files (the
/// store's own temporaries are dot-prefixed), and flag-shaped names —
/// a client picks a cache *namespace*, never a filesystem location.
pub fn validate_cache_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > 64 {
        return Err(format!("must be 1-64 bytes, got {}", name.len()));
    }
    if name.starts_with('.') || name.starts_with('-') {
        return Err("must not start with '.' or '-'".to_string());
    }
    match name
        .chars()
        .find(|c| !c.is_ascii_alphanumeric() && !matches!(c, '.' | '_' | '-'))
    {
        Some(bad) => Err(format!("contains {bad:?}; allowed: [A-Za-z0-9._-]")),
        None => Ok(()),
    }
}

/// Resolves a wire-supplied cache name to an open store under the
/// server's cache root. The name is untrusted socket input: without a
/// configured root the request is `unsupported`, and a name failing
/// [`validate_cache_name`] is a `protocol` error — the client never
/// reaches `ResultCache::open` with a path of its own choosing.
fn resolve_cache(config: &ServeConfig, name: &str) -> Result<Arc<ResultCache>, ErrorLine> {
    let Some(root) = &config.cache_root else {
        return Err(ErrorLine::new(
            ErrorCode::Unsupported,
            "no cache root configured; the server serves uncached campaigns only",
        ));
    };
    validate_cache_name(name).map_err(|why| {
        ErrorLine::new(
            ErrorCode::Protocol,
            format!("bad cache name {name:?}: {why}"),
        )
    })?;
    ResultCache::open(root.join(name))
        .map(Arc::new)
        .map_err(|e| ErrorLine::new(ErrorCode::Protocol, e))
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Everything one served campaign produced, in arrival order.
#[derive(Debug)]
pub struct CampaignRun {
    /// Decoded `(index, record)` pairs, in arrival order.
    pub records: Vec<(usize, RunRecord)>,
    /// The raw `record` wire lines as received (for byte-identity
    /// checks against a local [`wire::encode_record`] stream).
    pub record_lines: Vec<String>,
    /// Unit telemetry rows (pool transport; empty for local).
    pub telemetry: Vec<UnitTelemetry>,
    /// The decoded final report.
    pub stats: CampaignStats,
}

/// Why a client-side campaign failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// A line that did not decode as schema-3 wire.
    Wire(WireError),
    /// The server answered with a typed `error` line.
    Server(ErrorLine),
    /// The server broke the answer grammar (e.g. EOF before the
    /// `campaign_report` line, or an out-of-place kind).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Wire(e) => write!(f, "bad wire line from server: {e}"),
            ClientError::Server(e) => write!(f, "server refused: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A blocking client for the campaign service. One client maps to one
/// connection; [`Client::run_campaign`] may be called repeatedly to run
/// serial campaigns on it (session re-keying).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a campaign server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Unwraps the underlying connection (for raw-socket tests and
    /// callers that want to speak the wire protocol directly on an
    /// already-established session).
    pub fn into_stream(self) -> TcpStream {
        self.writer
    }

    /// Runs one campaign: sends the `campaign_spec` + `request` pair,
    /// then collects the streamed answer through the final
    /// `campaign_report` line.
    pub fn run_campaign(
        &mut self,
        spec: &CampaignSpec,
        seed: u64,
        req: &CampaignRequest,
    ) -> Result<CampaignRun, ClientError> {
        let opener = wire::encode_campaign_spec(spec, seed);
        let request = wire::encode_request(req);
        self.writer
            .write_all(format!("{opener}\n{request}\n").as_bytes())?;
        self.writer.flush()?;

        let mut records = Vec::new();
        let mut record_lines = Vec::new();
        let mut telemetry = Vec::new();
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(ClientError::Protocol(
                    "connection closed before the campaign_report line".to_string(),
                ));
            }
            let trimmed = line.trim_end_matches(['\n', '\r']);
            match wire::decode_line(trimmed).map_err(ClientError::Wire)? {
                wire::Line::Record { index, record } => {
                    record_lines.push(trimmed.to_string());
                    records.push((index, record));
                }
                wire::Line::UnitTelemetry(t) => telemetry.push(t),
                wire::Line::CampaignReport(stats) => {
                    return Ok(CampaignRun {
                        records,
                        record_lines,
                        telemetry,
                        stats,
                    });
                }
                wire::Line::Error(err) => return Err(ClientError::Server(err)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected line kind in a campaign answer: {other:?}"
                    )));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_core::shard::{SolverSpec, TransportSpec};
    use rv_model::TargetClass;

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

    fn start(config: ServeConfig) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
        let server = Server::bind("127.0.0.1:0", config).expect("bind");
        let addr = server.local_addr().expect("local_addr");
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || {
            server.run().expect("serve");
        });
        (addr, handle, join)
    }

    #[test]
    fn cache_names_are_validated_not_treated_as_paths() {
        for ok in ["sweep", "t1-grid", "a", "x.y_z-9", &"n".repeat(64)] {
            assert!(validate_cache_name(ok).is_ok(), "{ok:?}");
        }
        for bad in [
            "",
            "/abs/path",
            "..",
            "../up",
            "a/b",
            "a\\b",
            ".hidden",
            "-flag",
            "sp ace",
            "nul\0byte",
            &"n".repeat(65),
        ] {
            assert!(validate_cache_name(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn serves_a_local_campaign_and_matches_run_local() {
        let (addr, handle, join) = start(ServeConfig {
            local_threads: 2,
            ..ServeConfig::default()
        });
        let mut client = Client::connect(addr).expect("connect");
        let run = client.run_campaign(&spec(), 11, &request(16)).expect("run");
        let reference = spec().run_local(11, 16);
        let mut sorted = run.records.clone();
        sorted.sort_by_key(|(i, _)| *i);
        let indices: Vec<usize> = sorted.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, (0..16).collect::<Vec<_>>());
        for (i, rec) in &sorted {
            assert_eq!(Some(rec), reference.records.get(*i));
        }
        assert_eq!(run.stats.to_json(), reference.stats.to_json());
        drop(client);
        handle.shutdown();
        join.join().expect("join");
    }

    #[test]
    fn rekeys_serial_campaigns_on_one_connection() {
        let (addr, handle, join) = start(ServeConfig::default());
        let mut client = Client::connect(addr).expect("connect");
        for seed in [1u64, 2, 3] {
            let run = client
                .run_campaign(&spec(), seed, &request(8))
                .expect("run");
            assert_eq!(run.records.len(), 8);
            assert_eq!(
                run.stats.to_json(),
                spec().run_local(seed, 8).stats.to_json(),
                "seed {seed} must be independent of earlier campaigns"
            );
        }
        drop(client);
        handle.shutdown();
        join.join().expect("join");
    }

    #[test]
    fn zero_slot_server_answers_busy() {
        let (addr, handle, join) = start(ServeConfig {
            max_campaigns: 0,
            ..ServeConfig::default()
        });
        let mut client = Client::connect(addr).expect("connect");
        match client.run_campaign(&spec(), 1, &request(4)) {
            Err(ClientError::Server(err)) => assert_eq!(err.code, ErrorCode::Busy),
            other => panic!("expected a busy error, got {other:?}"),
        }
        handle.shutdown();
        join.join().expect("join");
    }

    #[test]
    fn pool_transport_without_worker_is_unsupported() {
        let (addr, handle, join) = start(ServeConfig::default());
        let mut client = Client::connect(addr).expect("connect");
        let req = CampaignRequest {
            transport: TransportSpec::Pool,
            ..request(4)
        };
        match client.run_campaign(&spec(), 1, &req) {
            Err(ClientError::Server(err)) => assert_eq!(err.code, ErrorCode::Unsupported),
            other => panic!("expected an unsupported error, got {other:?}"),
        }
        handle.shutdown();
        join.join().expect("join");
    }

    #[test]
    fn drained_server_refuses_new_campaigns_and_exits() {
        let (addr, handle, join) = start(ServeConfig::default());
        let mut client = Client::connect(addr).expect("connect");
        handle.shutdown();
        match client.run_campaign(&spec(), 1, &request(4)) {
            Err(ClientError::Server(err)) => assert_eq!(err.code, ErrorCode::Shutdown),
            // The drain may close the socket before the request lands.
            Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) => {}
            other => panic!("expected a shutdown refusal, got {other:?}"),
        }
        drop(client);
        join.join().expect("join");
    }
}
