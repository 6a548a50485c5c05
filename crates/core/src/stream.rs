//! Streaming observation of campaign runs: the [`RecordSink`] observer
//! and the bundled [`ChannelSink`] / [`VecSink`] / [`JsonLinesSink`]
//! impls.
//!
//! A [`crate::batch::Campaign`] can carry a sink; its workers call
//! [`RecordSink::record`] for every finished run, *as it lands* and from
//! whatever thread computed it. This is the async/streaming front-end the
//! batch engine was missing: a server can forward records to clients
//! while the campaign is still running instead of waiting for the final
//! [`crate::batch::CampaignReport`], and a shard worker can stream
//! schema-3 wire lines back to its parent process ([`JsonLinesSink`],
//! see [`crate::shard`]).
//!
//! Contract: every index in `0..n` is reported exactly once, tagged with
//! its input index (arrival *order* is scheduling-dependent; the index is
//! what makes the stream re-orderable). The final report is unaffected by
//! the sink — records still land in input order and the stats fold is
//! unchanged. The contract holds across process boundaries too: the
//! subprocess executors ([`crate::exec`]) buffer each shard's stream and
//! release it to the caller's sink only when the shard succeeds, so a
//! retried worker's partial output never produces duplicate deliveries.

use crate::batch::RunRecord;
use crate::wire;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;

/// Observer of per-run campaign results, called from worker threads as
/// each run finishes.
pub trait RecordSink: Send + Sync {
    /// Called exactly once per campaign index, from the worker that
    /// computed the record. Must not panic; keep it cheap — it sits on
    /// the workers' hot path.
    fn record(&self, index: usize, rec: &RunRecord);

    /// Whether the consumer behind this sink is gone for good (hung-up
    /// channel, dead socket, failed writer). Latching: once `true` it
    /// must stay `true`. Drivers poll this to abort a campaign whose
    /// observer will never see another record
    /// ([`crate::exec::ExecError::SinkClosed`]) instead of draining the
    /// remaining work into the void. The default — for sinks that cannot
    /// lose their consumer, like [`VecSink`] — is `false` forever.
    fn is_closed(&self) -> bool {
        false
    }
}

/// A [`RecordSink`] that forwards `(index, record)` pairs over an
/// [`mpsc`](std::sync::mpsc) channel, so a consumer thread can stream
/// records while the campaign runs.
///
/// **Hangup behavior (contractual):** a consumer may drop its receiver
/// mid-campaign. From that point every subsequent record is *silently
/// discarded* — the campaign itself never fails, slows, or panics because
/// its observer left — and the final [`crate::batch::CampaignReport`] is
/// unaffected. The drop is observable, not incidental:
/// [`ChannelSink::is_disconnected`] latches `true` at the first discarded
/// record, so a driver can tell "consumer saw everything" apart from
/// "consumer hung up early".
pub struct ChannelSink {
    tx: Sender<(usize, RunRecord)>,
    disconnected: AtomicBool,
}

impl ChannelSink {
    /// Creates the sink plus the receiving end for the consumer.
    pub fn new() -> (ChannelSink, Receiver<(usize, RunRecord)>) {
        let (tx, rx) = channel();
        (
            ChannelSink {
                tx,
                disconnected: AtomicBool::new(false),
            },
            rx,
        )
    }

    /// Whether at least one record was discarded because the receiver had
    /// hung up. Latches: once `true`, stays `true`.
    pub fn is_disconnected(&self) -> bool {
        self.disconnected.load(Ordering::Relaxed)
    }
}

impl RecordSink for ChannelSink {
    fn record(&self, index: usize, rec: &RunRecord) {
        if self.tx.send((index, rec.clone())).is_err() {
            self.disconnected.store(true, Ordering::Relaxed);
        }
    }

    /// A hung-up receiver is a closed consumer
    /// ([`ChannelSink::is_disconnected`]).
    fn is_closed(&self) -> bool {
        self.is_disconnected()
    }
}

/// A [`RecordSink`] that collects `(index, record)` pairs in arrival
/// order behind a mutex — handy in tests and for small campaigns where a
/// consumer thread is overkill.
#[derive(Default)]
pub struct VecSink {
    seen: Mutex<Vec<(usize, RunRecord)>>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> VecSink {
        VecSink::default()
    }

    /// Drains the collected records (in arrival order).
    pub fn take(&self) -> Vec<(usize, RunRecord)> {
        std::mem::take(&mut *self.seen.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// [`VecSink::take`], re-ordered by campaign index — the shape
    /// differentials compare against a reference record list (arrival
    /// order is scheduling- and shard-interleaving-dependent; the index
    /// is the contractual key).
    pub fn take_sorted(&self) -> Vec<(usize, RunRecord)> {
        let mut seen = self.take();
        seen.sort_by_key(|(index, _)| *index);
        seen
    }
}

impl RecordSink for VecSink {
    fn record(&self, index: usize, rec: &RunRecord) {
        self.seen
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((index, rec.clone()));
    }
}

/// A [`RecordSink`] that writes every record as a schema-3 wire line
/// ([`wire::encode_record`], newline-terminated, flushed) to a writer —
/// the stdout streaming half of the shard worker protocol
/// (see [`crate::shard`]). Over a `Vec<u8>` it is a batch buffer: the
/// session worker renders a whole unit answer into one and hands it to
/// stdout with [`JsonLinesSink::drain_to`], one write per unit.
///
/// Writes from concurrent campaign workers are serialised behind a mutex,
/// so lines never interleave. Write failures cannot propagate out of a
/// sink; they latch [`JsonLinesSink::failed`] instead (mirroring
/// [`ChannelSink`]'s hangup latch).
pub struct JsonLinesSink<W: Write + Send> {
    out: Mutex<W>,
    failed: AtomicBool,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wraps a writer (e.g. [`std::io::stdout()`]).
    pub fn new(out: W) -> JsonLinesSink<W> {
        JsonLinesSink {
            out: Mutex::new(out),
            failed: AtomicBool::new(false),
        }
    }

    /// Whether any line failed to write (latches like
    /// [`ChannelSink::is_disconnected`]).
    pub fn failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }

    /// Writes one pre-encoded wire line (newline-terminated, flushed)
    /// through the same mutex as the record stream, so protocol lines —
    /// a session worker's `unit_telemetry` / `unit_done` answers —
    /// never interleave with concurrently streamed records. Failures
    /// latch [`JsonLinesSink::failed`], like record writes.
    pub fn write_line(&self, line: &str) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let wrote = writeln!(out, "{line}").and_then(|()| out.flush());
        if wrote.is_err() {
            self.failed.store(true, Ordering::Relaxed);
        }
    }

    /// Unwraps the writer.
    pub fn into_inner(self) -> W {
        self.out.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl JsonLinesSink<Vec<u8>> {
    /// Writes every buffered line to `out` with one `write_all` and one
    /// `flush`, then empties the buffer (keeping its capacity). The lines
    /// keep the order they were buffered in.
    pub fn drain_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        let mut buf = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let wrote = out.write_all(&buf).and_then(|()| out.flush());
        buf.clear();
        wrote
    }
}

impl<W: Write + Send> RecordSink for JsonLinesSink<W> {
    fn record(&self, index: usize, rec: &RunRecord) {
        let line = wire::encode_record(index, rec);
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let wrote = writeln!(out, "{line}").and_then(|()| out.flush());
        if wrote.is_err() {
            self.failed.store(true, Ordering::Relaxed);
        }
    }

    /// A writer that has failed once is a closed consumer
    /// ([`JsonLinesSink::failed`]).
    fn is_closed(&self) -> bool {
        self.failed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_model::Classification;

    fn rec(i: u64) -> RunRecord {
        RunRecord {
            class: Classification::Type3,
            feasible: true,
            met: true,
            time: Some(i as f64),
            segments: i,
            min_dist: 0.5,
            radius: 1.0,
        }
    }

    #[test]
    fn channel_sink_latches_disconnect_and_never_fails_the_run() {
        let (sink, rx) = ChannelSink::new();
        sink.record(0, &rec(0));
        assert!(!sink.is_disconnected(), "receiver still alive");
        assert_eq!(rx.try_iter().count(), 1);

        drop(rx);
        // Hangup: records are discarded silently, the latch flips, and
        // recording keeps working (no panic, no error).
        sink.record(1, &rec(1));
        assert!(sink.is_disconnected());
        sink.record(2, &rec(2));
        assert!(sink.is_disconnected(), "latch must stay set");
        assert!(sink.is_closed(), "hangup is a closed consumer");
    }

    #[test]
    fn is_closed_default_and_overrides() {
        let vec_sink = VecSink::new();
        vec_sink.record(0, &rec(0));
        assert!(!vec_sink.is_closed(), "VecSink can never lose its consumer");

        let broken = JsonLinesSink::new(Broken);
        assert!(!broken.is_closed());
        broken.record(0, &rec(0));
        assert!(broken.is_closed(), "write failure closes the sink");
    }

    #[test]
    fn json_lines_sink_writes_decodable_lines() {
        let sink = JsonLinesSink::new(Vec::new());
        sink.record(3, &rec(7));
        sink.record(4, &rec(8));
        assert!(!sink.failed());
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(wire::decode_record(lines[0]).unwrap(), (3, rec(7)));
        assert_eq!(wire::decode_record(lines[1]).unwrap(), (4, rec(8)));
    }

    /// Counts `write` calls, keeping every byte.
    #[derive(Default)]
    struct Writes {
        bytes: Vec<u8>,
        calls: usize,
    }

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn drain_to_writes_a_batch_once_in_order() {
        let sink = JsonLinesSink::new(Vec::new());
        sink.record(3, &rec(7));
        sink.record(4, &rec(8));
        sink.write_line("tail");
        let mut out = Writes::default();
        sink.drain_to(&mut out).unwrap();
        assert_eq!(out.calls, 1, "one write per batch");
        let want = format!(
            "{}\n{}\ntail\n",
            wire::encode_record(3, &rec(7)),
            wire::encode_record(4, &rec(8))
        );
        assert_eq!(String::from_utf8(out.bytes).unwrap(), want);
        assert!(sink.into_inner().is_empty(), "a drain empties the buffer");
    }

    /// A writer that always fails, to exercise the failure latch.
    struct Broken;
    impl Write for Broken {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("broken pipe"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn json_lines_sink_latches_write_failures() {
        let sink = JsonLinesSink::new(Broken);
        assert!(!sink.failed());
        sink.record(0, &rec(0)); // must not panic
        assert!(sink.failed());
    }
}
