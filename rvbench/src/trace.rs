//! In-memory spans for the traced run: each span is a named interval
//! around one call into a layer, tagged with the op it belongs to and the
//! span that caused it. Spans stay in memory while the run measures and
//! are written out as JSON lines when it ends.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary, e.g. `rv_sim.solve`.
    pub name: &'static str,
    /// Op identifier shared by every span of one op.
    pub op: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the trace was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

/// A span store shared by every thread of the run.
pub struct Trace {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a span recorder panicked")
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's index
    /// so that the calls it makes can record child spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        self.timed_span(name, op, parent, f).0
    }

    /// [`Trace::span`] that also returns the span's duration in
    /// nanoseconds.
    pub fn timed<R>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        self.timed_span(name, op, parent, |_| f())
    }

    fn timed_span<R>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> (R, f64) {
        let id = {
            let mut spans = self.spans();
            spans.push(Span {
                name,
                op,
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now_ns();
        let mut spans = self.spans();
        spans[id].end_ns = end;
        (out, spans[id].ns())
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
