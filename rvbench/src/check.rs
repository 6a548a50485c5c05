//! Per-op correctness: every index delivered exactly once, the report's
//! size right, and (for sampled ops) stats bytes equal to the
//! single-process reference.

use rv_core::batch::{CampaignStats, RunRecord};
use rv_core::stream::RecordSink;
use rv_core::wire;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// A record sink that counts deliveries per index.
pub struct Coverage {
    seen: Vec<AtomicU32>,
    stray: AtomicU64,
}

impl Coverage {
    /// A sink expecting indices `0..n`.
    pub fn new(n: usize) -> Coverage {
        Coverage {
            seen: (0..n).map(|_| AtomicU32::new(0)).collect(),
            stray: AtomicU64::new(0),
        }
    }

    /// Counts one delivery of `index`.
    pub fn mark(&self, index: usize) {
        match self.seen.get(index) {
            Some(c) => {
                c.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                self.stray.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Whether every index in `0..n` arrived exactly once and nothing else
    /// arrived.
    pub fn exactly_once(&self) -> bool {
        self.stray.load(Ordering::Relaxed) == 0
            && self.seen.iter().all(|c| c.load(Ordering::Relaxed) == 1)
    }
}

impl RecordSink for Coverage {
    fn record(&self, index: usize, _rec: &RunRecord) {
        self.mark(index);
    }
}

/// The canonical stats bytes compared against the reference.
pub fn stats_bytes(stats: &CampaignStats) -> String {
    wire::encode_campaign_report(stats)
}

/// Side-channel traffic one op caused in the layers around the solver.
/// Pure counts, so they repeat exactly for a given seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Units pool workers ran (from the pool's unit telemetry).
    pub units_run: u64,
    /// Unit attempts beyond the first.
    pub retries: u64,
    /// Cache lookups that replayed an entry.
    pub cache_hits: u64,
    /// Cache lookups that found nothing.
    pub cache_misses: u64,
    /// Cache entries written.
    pub cache_stores: u64,
    /// Typed refusals the server answered with.
    pub refused: u64,
}

impl Traffic {
    /// Field-wise sum.
    pub fn add(&mut self, other: &Traffic) {
        self.units_run += other.units_run;
        self.retries += other.retries;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_stores += other.cache_stores;
        self.refused += other.refused;
    }
}

/// What one timed op produced.
#[derive(Clone, Debug)]
pub struct OpResult {
    /// Op number within the run (its seed is `mix_seed(seed, k)`).
    pub k: u64,
    /// Request-to-validated-report latency.
    pub latency_ms: f64,
    /// Whether the op passed every check made so far.
    pub ok: bool,
    /// Records the op delivered.
    pub records: u64,
    /// Motion segments summed over the op's records.
    pub segments: u64,
    /// Runs that ended without rendezvous (budget exhausted).
    pub exhausted: u64,
    /// Stats bytes, kept for ops whose reference is checked after the
    /// timed window.
    pub stats: Option<String>,
    /// Side-channel traffic of the op.
    pub traffic: Traffic,
    /// Busy time per pool worker slot during the op (traced pool ops).
    pub worker_busy_ms: Vec<f64>,
    /// Latency of the same campaign through `LocalExecutor` from the same
    /// client thread (traced served ops).
    pub twin_ms: Option<f64>,
}

impl OpResult {
    /// An op that delivered nothing usable.
    pub fn failed(k: u64) -> OpResult {
        OpResult {
            k,
            latency_ms: f64::INFINITY,
            ok: false,
            records: 0,
            segments: 0,
            exhausted: 0,
            stats: None,
            traffic: Traffic::default(),
            worker_busy_ms: Vec::new(),
            twin_ms: None,
        }
    }

    /// A delivered op whose delivery checks gave `ok`.
    pub fn delivered<'a>(
        k: u64,
        latency_ms: f64,
        ok: bool,
        records: impl IntoIterator<Item = &'a RunRecord>,
        stats: &CampaignStats,
        keep_stats: bool,
    ) -> OpResult {
        let mut out = OpResult {
            stats: keep_stats.then(|| stats_bytes(stats)),
            ..OpResult::failed(k)
        };
        out.latency_ms = latency_ms;
        out.ok = true;
        for rec in records {
            out.records += 1;
            out.segments += rec.segments;
            out.exhausted += u64::from(!rec.met);
        }
        if !ok {
            out.fail();
        }
        out
    }

    /// Marks the op failed: it counts against the attempted ops and, with
    /// an infinite latency, misses every latency limit.
    pub fn fail(&mut self) {
        self.ok = false;
        self.latency_ms = f64::INFINITY;
    }
}
