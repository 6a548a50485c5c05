//! Streaming observation of campaign runs: the [`RecordSink`] observer
//! and the bundled [`ChannelSink`] / [`VecSink`] impls.
//!
//! A [`crate::batch::Campaign`] can carry a sink; its workers call
//! [`RecordSink::record`] for every finished run, *as it lands* and from
//! whatever thread computed it. This is the async/streaming front-end the
//! batch engine was missing: a server can forward records to clients
//! while the campaign is still running instead of waiting for the final
//! [`crate::batch::CampaignReport`]. (A shard worker needs no sink: it
//! answers each unit's records in index order, see [`crate::shard`].)
//!
//! Contract: every index in `0..n` is reported exactly once, tagged with
//! its input index (arrival *order* is scheduling-dependent; the index is
//! what makes the stream re-orderable). The final report is unaffected by
//! the sink — records still land in input order and the stats fold is
//! unchanged. The contract holds across process boundaries too: the
//! pool executor ([`crate::exec`]) buffers each unit's answer and
//! releases it to the caller's sink only when the unit succeeds, so a
//! retried worker's partial output never produces duplicate deliveries.

use crate::batch::RunRecord;
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
    }
}
