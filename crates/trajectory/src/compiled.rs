//! Process-wide compiled instruction cache.
//!
//! Generating a rendezvous program is pure — the same instruction stream
//! comes out every time — yet the solver used to regenerate it from
//! scratch for **every run** of a campaign (twice per run: once per
//! agent). [`CompiledProgram`] compiles a program once per process into
//! shared chunks, and replays it two ways:
//! - [`iter`](CompiledProgram::iter) lends each cached instruction as a
//!   `Cow::Borrowed` reference into the cache: no clone, no drop, no
//!   generator arithmetic. The engine's hot path steps through this.
//! - [`cursor`](CompiledProgram::cursor) yields owned `Instr`s, cloning
//!   each one out of the cache (four `Int` clones, later four drops), for
//!   callers that need a plain `Iterator<Item = Instr>`.
//!
//! The cache extends lazily, chunk by chunk, exactly as far as the
//! deepest reader has walked — a 100-instruction probe materializes one
//! chunk, not phase 30. Each chunk lives in a fixed `OnceLock` slot that
//! is filled once, under the generator mutex, and read lock-free after
//! that. Past [`MAX_MATERIALIZED`] instructions the cache stops growing
//! and a reader falls back to a fresh generator skipped forward to its
//! position, yielding owned instructions: the stream is identical either
//! way, the deep tail just is not cached. This bounds resident memory for
//! pathological budgets while keeping the common campaign depths (tens of
//! thousands of instructions) fully cached.

use crate::instr::Instr;
use crate::program::BoxProgram;
use std::borrow::Cow;
use std::sync::{Mutex, OnceLock};

/// Instructions per cache chunk.
const CHUNK: usize = 1024;

/// Cache growth stops at this many instructions (the deepest campaign
/// budgets in the test/bench suite stay well under it; anything deeper
/// replays a fresh generator for the tail).
pub const MAX_MATERIALIZED: usize = 262_144;

/// Chunk slots in the cache.
const SLOTS: usize = MAX_MATERIALIZED / CHUNK;

/// A program compiled once and shared across runs and threads.
///
/// Built from a *factory* (so the tail past the materialization cap can
/// be regenerated on demand); replay it with
/// [`iter`](CompiledProgram::iter) or [`cursor`](CompiledProgram::cursor).
pub struct CompiledProgram {
    factory: Box<dyn Fn() -> BoxProgram + Send + Sync>,
    /// The generator feeding the cache. Its mutex serializes extension.
    source: Mutex<Source>,
    /// Chunk `k` holds instructions `k·CHUNK..`; chunks are filled in
    /// order, and every filled chunk but the program's last is full.
    chunks: [OnceLock<Box<[Instr]>>; SLOTS],
}

/// The generator behind the cache.
struct Source {
    /// The live generator; `None` before the first pull and once drained.
    generator: Option<BoxProgram>,
    /// The program has ended: no chunk past the filled ones will exist.
    drained: bool,
}

enum Fetch<'a> {
    Chunk(&'a [Instr]),
    /// The underlying program ended before this chunk.
    Exhausted,
    /// The materialization cap cuts the cache off before this chunk.
    Capped,
}

impl CompiledProgram {
    /// Compiles the program produced by `factory`. Nothing is generated
    /// until the first reader pulls.
    pub fn new<F>(factory: F) -> CompiledProgram
    where
        F: Fn() -> BoxProgram + Send + Sync + 'static,
    {
        CompiledProgram {
            factory: Box::new(factory),
            source: Mutex::new(Source {
                generator: None,
                drained: false,
            }),
            chunks: [const { OnceLock::new() }; SLOTS],
        }
    }

    /// A fresh iterator over the program from the beginning, lending
    /// cached instructions and owning only the tail past the cap.
    pub fn iter(&self) -> Replay<'_> {
        Replay {
            program: self,
            chunk: [].iter(),
            next_chunk: 0,
            overflow: None,
        }
    }

    /// A fresh iterator over the program from the beginning that yields
    /// owned instructions: [`iter`](CompiledProgram::iter), cloned.
    pub fn cursor(&self) -> Cursor<'_> {
        Cursor(self.iter())
    }

    /// Number of instructions materialized so far (cache growth probe).
    pub fn materialized(&self) -> usize {
        self.chunks
            .iter()
            .map_while(OnceLock::get)
            .map(|chunk| chunk.len())
            .sum()
    }

    fn fetch(&self, idx: usize) -> Fetch<'_> {
        let Some(slot) = self.chunks.get(idx) else {
            return Fetch::Capped;
        };
        if let Some(chunk) = slot.get() {
            return Fetch::Chunk(chunk);
        }
        let mut source = self
            .source
            .lock()
            .expect("the program's generator panicked while filling the cache");
        // Re-check under the lock: a racing extender may have filled it.
        if let Some(chunk) = slot.get() {
            return Fetch::Chunk(chunk);
        }
        if source.drained {
            return Fetch::Exhausted;
        }
        // Readers walk chunks in order, so the slot before an empty one
        // is full and the generator stands exactly at this chunk.
        debug_assert!(idx == 0 || self.chunks[idx - 1].get().map(|c| c.len()) == Some(CHUNK));
        let generator = source.generator.get_or_insert_with(|| (self.factory)());
        // rv-lint: allow(hot) — cache fill: runs once per chunk per
        // process, not per replayed instruction.
        let buf: Box<[Instr]> = generator.by_ref().take(CHUNK).collect();
        if buf.len() < CHUNK {
            source.generator = None;
            source.drained = true;
        }
        if buf.is_empty() {
            return Fetch::Exhausted;
        }
        Fetch::Chunk(slot.get_or_init(|| buf))
    }
}

/// An iterator replaying a [`CompiledProgram`] from the start, borrowing
/// every cached instruction (see [`CompiledProgram::iter`]).
pub struct Replay<'a> {
    program: &'a CompiledProgram,
    /// The rest of the current chunk.
    chunk: std::slice::Iter<'a, Instr>,
    /// Index of the chunk to fetch once `chunk` runs out.
    next_chunk: usize,
    /// Fallback generator once past the materialization cap.
    overflow: Option<BoxProgram>,
}

impl<'a> Iterator for Replay<'a> {
    type Item = Cow<'a, Instr>;

    fn next(&mut self) -> Option<Cow<'a, Instr>> {
        loop {
            if let Some(instr) = self.chunk.next() {
                return Some(Cow::Borrowed(instr));
            }
            if let Some(tail) = self.overflow.as_mut() {
                return tail.next().map(Cow::Owned);
            }
            match self.program.fetch(self.next_chunk) {
                Fetch::Chunk(chunk) => {
                    self.chunk = chunk.iter();
                    self.next_chunk += 1;
                }
                Fetch::Exhausted => return None,
                Fetch::Capped => {
                    // Replay a fresh generator skipped past the (full)
                    // cache; identical stream, uncached tail.
                    let mut tail = (self.program.factory)();
                    tail.by_ref().take(MAX_MATERIALIZED).for_each(drop);
                    self.overflow = Some(tail);
                }
            }
        }
    }
}

/// An iterator replaying a [`CompiledProgram`] from the start as owned
/// instructions (see [`CompiledProgram::cursor`]).
pub struct Cursor<'a>(Replay<'a>);

impl Iterator for Cursor<'_> {
    type Item = Instr;

    fn next(&mut self) -> Option<Instr> {
        // rv-lint: allow(hot) — the owned replay's contract: one clone per
        // instruction; the engine steps through the borrowing `iter()`.
        self.0.next().map(Cow::into_owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_numeric::ratio;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn counting_program(upto: i64) -> BoxProgram {
        Box::new((1..=upto).map(|k| Instr::wait(ratio(k, 1))))
    }

    /// The borrowing replay, cloned into a list.
    fn replayed(compiled: &CompiledProgram) -> Vec<Instr> {
        compiled.iter().map(Cow::into_owned).collect()
    }

    #[test]
    fn cursor_replays_generator_exactly() {
        let compiled = CompiledProgram::new(|| counting_program(5000));
        let direct: Vec<Instr> = counting_program(5000).collect();
        let replay: Vec<Instr> = compiled.cursor().collect();
        assert_eq!(replay, direct);
        // A second cursor replays from the cache, same stream.
        let again: Vec<Instr> = compiled.cursor().collect();
        assert_eq!(again, direct);
        assert_eq!(replayed(&compiled), direct);
    }

    #[test]
    fn materialization_is_lazy_and_chunked() {
        let compiled = CompiledProgram::new(|| counting_program(1_000_000));
        assert_eq!(compiled.materialized(), 0);
        let first: Vec<Instr> = compiled.cursor().take(10).collect();
        assert_eq!(first.len(), 10);
        // One chunk, not a million instructions.
        assert_eq!(compiled.materialized(), CHUNK);
        let _ = compiled.iter().take(3 * CHUNK + 1).last();
        assert_eq!(compiled.materialized(), 4 * CHUNK);
    }

    #[test]
    fn capped_cursor_falls_back_to_fresh_generator() {
        let n = (MAX_MATERIALIZED + 2 * CHUNK + 5) as i64;
        let compiled = CompiledProgram::new(move || counting_program(n));
        let direct: Vec<Instr> = counting_program(n).collect();
        // The cached head is lent, the tail past the cap is owned.
        let mut lent = 0;
        let mut owned = 0;
        for (k, instr) in compiled.iter().enumerate() {
            assert_eq!(*instr, direct[k], "instruction {k}");
            match instr {
                Cow::Borrowed(_) => lent += 1,
                Cow::Owned(_) => owned += 1,
            }
        }
        assert_eq!(
            (lent, owned),
            (MAX_MATERIALIZED, direct.len() - MAX_MATERIALIZED)
        );
        assert_eq!(compiled.cursor().collect::<Vec<_>>(), direct);
        // Cache stopped at the cap; the tail came from the fallback.
        assert_eq!(compiled.materialized(), MAX_MATERIALIZED);
    }

    #[test]
    fn concurrent_cursors_see_identical_streams() {
        let n = (MAX_MATERIALIZED + CHUNK / 2) as i64;
        let compiled = Arc::new(CompiledProgram::new(move || counting_program(n)));
        let direct: Vec<Instr> = counting_program(n).collect();
        std::thread::scope(|scope| {
            for reader in 0..4 {
                let compiled = Arc::clone(&compiled);
                let direct = &direct;
                scope.spawn(move || {
                    let replay: Vec<Instr> = if reader % 2 == 0 {
                        replayed(&compiled)
                    } else {
                        compiled.cursor().collect()
                    };
                    assert!(replay == *direct, "reader {reader} diverged");
                });
            }
        });
        assert_eq!(compiled.materialized(), MAX_MATERIALIZED);
    }

    #[test]
    fn exhausted_program_yields_none_forever() {
        for n in [0, 3, CHUNK as i64, MAX_MATERIALIZED as i64 + 1] {
            let compiled = CompiledProgram::new(move || counting_program(n));
            let mut cursor = compiled.cursor();
            let mut iter = compiled.iter();
            assert_eq!(cursor.by_ref().count(), n as usize);
            assert_eq!(iter.by_ref().count(), n as usize);
            for _ in 0..3 {
                assert!(cursor.next().is_none(), "cursor, {n} instructions");
                assert!(iter.next().is_none(), "iter, {n} instructions");
            }
        }
    }

    #[test]
    fn short_programs_run_their_factory_once() {
        for n in [0, 3, CHUNK as i64] {
            let calls = Arc::new(AtomicUsize::new(0));
            let counter = Arc::clone(&calls);
            let compiled = CompiledProgram::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                counting_program(n)
            });
            for _ in 0..4 {
                assert_eq!(compiled.iter().count(), n as usize);
                let mut cursor = compiled.cursor();
                assert_eq!(cursor.by_ref().count(), n as usize);
                assert!(cursor.next().is_none());
            }
            assert_eq!(calls.load(Ordering::Relaxed), 1, "{n} instructions");
        }
    }
}
