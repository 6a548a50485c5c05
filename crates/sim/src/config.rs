//! The run budget: when a run stops without rendezvous.

/// Resource budget for a simulation run.
#[derive(Clone, Debug)]
pub struct Budget {
    /// Cap on processed motion segments (the real cost driver; phase `i`
    /// of Algorithm 1 costs Θ(i·2^(3i)) segments).
    pub max_segments: u64,
    /// Record a distance-over-time trace with at most this many samples
    /// (0 disables tracing).
    pub trace_samples: usize,
    /// Relative slack on rendezvous detection: a crossing of
    /// `r·(1 + slack)` counts as reaching distance `r`. Needed because the
    /// boundary instances (`S1`, `S2`) meet at distance *exactly* `r`,
    /// which is a measure-zero event in floating point.
    pub detection_slack: f64,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget {
            max_segments: 3_000_000,
            trace_samples: 0,
            detection_slack: 1e-9,
        }
    }
}

impl Budget {
    /// Sets the segment cap.
    pub fn segments(mut self, n: u64) -> Budget {
        self.max_segments = n;
        self
    }

    /// Enables distance tracing.
    pub fn trace(mut self, samples: usize) -> Budget {
        self.trace_samples = samples;
        self
    }
}

/// Why a simulation stopped without rendezvous.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BudgetReason {
    /// The segment budget was reached.
    Segments,
    /// Both agents halted (programs exhausted) outside visibility range —
    /// the distance can never change again.
    BothHalted,
}
