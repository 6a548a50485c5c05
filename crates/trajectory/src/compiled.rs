//! Process-wide compiled programs: each instruction lowered once into a
//! shared step tape.
//!
//! Generating a rendezvous program is pure — the same instruction stream
//! comes out every time — and in every run of a campaign agent A is the
//! reference agent, so its whole motion does not depend on the instance.
//! [`CompiledProgram`] generates a program once per process and stores
//! each instruction once as a step, lowered by the function a
//! [`Motion`](crate::Motion) uses on the fly (see the kinematics module
//! docs). It replays the program two ways:
//! - [`tape`](CompiledProgram::tape) lends the stored steps to a
//!   [`Motion`](crate::Motion): the engine's hot path. Every agent, the
//!   reference agent included, indexes its direction table by the step's
//!   direction id.
//! - [`cursor`](CompiledProgram::cursor) rebuilds owned `Instr`s from the
//!   tape, for callers that need a plain `Iterator<Item = Instr>`. A `go`
//!   takes its exact angle from the directory, and every length or
//!   duration is the step's exact local duration `d_k`. Zero-duration
//!   instructions stay on the tape, so the rebuilt stream is the
//!   generator's, instruction for instruction.
//!
//! **Storage.** Chunk `k` holds the steps of instructions `k·CHUNK..` and
//! a shared snapshot of the direction directory (each direction's exact
//! angle) as it stood once the chunk was lowered. The directory only
//! grows, so the snapshot resolves every id in its chunk; a chunk that
//! interns no new direction shares the previous chunk's snapshot.
//!
//! The cache extends lazily, chunk by chunk, exactly as far as the
//! deepest reader has walked — a 100-instruction probe materializes one
//! chunk, not phase 30. Each chunk lives in a fixed `OnceLock` slot that
//! is filled once, under the generator mutex, and read lock-free after
//! that. Past [`MAX_MATERIALIZED`] instructions the cache stops growing
//! and a reader falls back to a fresh generator skipped forward to its
//! position, which the tape lowers on the fly into a lowering that starts
//! from the cache's directory (so direction ids carry on exactly). A
//! cursor rebuilds its instructions from these steps as from cached ones.
//! The stream is identical either way, the deep tail just is not cached.
//! This bounds resident memory for pathological budgets while keeping the
//! common campaign depths (tens of thousands of instructions) fully
//! cached.

use crate::instr::Instr;
use crate::kinematics::{Directory, Lowering, Step, StepSource};
use crate::program::BoxProgram;
use rv_geometry::Angle;
use std::sync::{Arc, Mutex, OnceLock};

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
/// [`tape`](CompiledProgram::tape) or [`cursor`](CompiledProgram::cursor).
pub struct CompiledProgram {
    factory: Box<dyn Fn() -> BoxProgram + Send + Sync>,
    /// The generator feeding the cache. Its mutex serializes extension.
    source: Mutex<Source>,
    /// Chunks are filled in order, and every filled chunk but the
    /// program's last is full.
    chunks: [OnceLock<Chunk>; SLOTS],
}

/// The steps of up to `CHUNK` consecutive instructions and the directory
/// their direction ids index.
struct Chunk {
    steps: Box<[Step]>,
    dirs: Arc<[Angle]>,
}

/// The generator behind the cache.
struct Source {
    /// The live generator; `None` before the first pull and once drained.
    generator: Option<BoxProgram>,
    /// Every direction interned so far.
    interned: Directory,
    /// The directory snapshot of the last filled chunk.
    dirs: Arc<[Angle]>,
    /// The program has ended: no chunk past the filled ones will exist.
    drained: bool,
}

enum Fetch<'a> {
    Chunk(&'a Chunk),
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
                interned: Directory::default(),
                dirs: Arc::new([]),
                drained: false,
            }),
            chunks: [const { OnceLock::new() }; SLOTS],
        }
    }

    /// The program's steps from the beginning, lent from the cache (and
    /// lowered on the fly past the cap), for a [`Motion`](crate::Motion).
    pub fn tape(&self) -> Tape<'_> {
        Tape {
            program: self,
            steps: [].iter(),
            dirs: &[],
            next_chunk: 0,
            tail: None,
        }
    }

    /// A fresh iterator over the program from the beginning that yields
    /// owned instructions, rebuilt from the tape.
    pub fn cursor(&self) -> Cursor<'_> {
        Cursor { tape: self.tape() }
    }

    /// Number of instructions materialized so far (cache growth probe).
    pub fn materialized(&self) -> usize {
        self.chunks
            .iter()
            .map_while(OnceLock::get)
            .map(|chunk| chunk.steps.len())
            .sum()
    }

    fn fetch(&self, idx: usize) -> Fetch<'_> {
        let Some(slot) = self.chunks.get(idx) else {
            return Fetch::Capped;
        };
        if let Some(chunk) = slot.get() {
            return Fetch::Chunk(chunk);
        }
        let mut guard = self
            .source
            .lock()
            .expect("the program's generator panicked while filling the cache");
        // Re-check under the lock: a racing extender may have filled it.
        if let Some(chunk) = slot.get() {
            return Fetch::Chunk(chunk);
        }
        let source = &mut *guard;
        if source.drained {
            return Fetch::Exhausted;
        }
        // Readers walk chunks in order, so the slot before an empty one
        // is full and the generator stands exactly at this chunk.
        debug_assert!(idx == 0 || self.chunks[idx - 1].get().map(|c| c.steps.len()) == Some(CHUNK));
        let generator = source.generator.get_or_insert_with(|| (self.factory)());
        let mut steps: Vec<Step> = Vec::with_capacity(CHUNK);
        for instr in generator.by_ref().take(CHUNK) {
            steps.push(Step::lower(&mut source.interned, &instr));
        }
        if steps.len() < CHUNK {
            source.generator = None;
            source.drained = true;
        }
        if steps.is_empty() {
            return Fetch::Exhausted;
        }
        if source.dirs.len() < source.interned.as_slice().len() {
            source.dirs = Arc::from(source.interned.as_slice());
        }
        let chunk = Chunk {
            steps: steps.into_boxed_slice(),
            // rv-lint: allow(hot) — cache fill: one shared snapshot per
            // chunk per process, a reference count, not a copy.
            dirs: Arc::clone(&source.dirs),
        };
        Fetch::Chunk(slot.get_or_init(|| chunk))
    }
}

/// A compiled program's steps from the start, lent from the cache (see
/// [`CompiledProgram::tape`]). A [`StepSource`] for a
/// [`Motion`](crate::Motion).
pub struct Tape<'a> {
    program: &'a CompiledProgram,
    /// The rest of the current chunk's steps.
    steps: std::slice::Iter<'a, Step>,
    /// The current chunk's directory.
    dirs: &'a [Angle],
    /// Index of the chunk to fetch once `steps` runs out.
    next_chunk: usize,
    /// Past the materialization cap: a fresh generator and a lowering
    /// over the cache's directory.
    tail: Option<Tail>,
}

struct Tail {
    program: BoxProgram,
    lowering: Lowering,
}

impl Tape<'_> {
    /// The next step and the directory its id indexes: lent from the
    /// cache, or lowered on the fly past the cap.
    fn walk(&mut self) -> Option<(&Step, &[Angle])> {
        while self.tail.is_none() {
            if let Some(step) = self.steps.next() {
                return Some((step, self.dirs));
            }
            match self.program.fetch(self.next_chunk) {
                Fetch::Chunk(chunk) => {
                    self.steps = chunk.steps.iter();
                    self.dirs = &chunk.dirs;
                    self.next_chunk += 1;
                }
                Fetch::Exhausted => return None,
                Fetch::Capped => {
                    // Replay a fresh generator skipped past the (full)
                    // cache, and lower it with the cache's directions.
                    let mut program = (self.program.factory)();
                    program.by_ref().take(MAX_MATERIALIZED).for_each(drop);
                    let last = self.program.chunks[SLOTS - 1]
                        .get()
                        .expect("a capped cache is full");
                    let lowering = Lowering {
                        dirs: Directory::from(last.dirs.to_vec()),
                        step: None,
                    };
                    self.tail = Some(Tail { program, lowering });
                }
            }
        }
        let tail = self.tail.as_mut()?;
        Some(tail.lowering.push(&tail.program.next()?))
    }
}

impl StepSource for Tape<'_> {
    fn next_step<'s>(&'s mut self, _: &'s mut Lowering) -> Option<(&'s Step, &'s [Angle])> {
        self.walk()
    }
}

/// An iterator replaying a [`CompiledProgram`] from the start as owned
/// instructions rebuilt from its tape (see [`CompiledProgram::cursor`]).
pub struct Cursor<'a> {
    tape: Tape<'a>,
}

impl Iterator for Cursor<'_> {
    type Item = Instr;

    fn next(&mut self) -> Option<Instr> {
        let (step, dirs) = self.tape.walk()?;
        Some(step.instr(dirs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_numeric::{ratio, Ratio};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn counting_program(upto: i64) -> BoxProgram {
        Box::new((1..=upto).map(|k| Instr::wait(ratio(k, 1))))
    }

    /// The tape as a motion reads it, rebuilt into instructions.
    fn replayed(compiled: &CompiledProgram) -> Vec<Instr> {
        let mut tape = compiled.tape();
        let mut idle = Lowering::default();
        let mut out = Vec::new();
        while let Some((step, dirs)) = tape.next_step(&mut idle) {
            out.push(step.instr(dirs));
        }
        out
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

    /// `go`s along a few directions and `wait`s, with a zero-length `go`
    /// and a zero-length `wait` every few instructions; a new direction
    /// family starts at instruction `fresh_from`.
    fn mixed_program(n: usize, fresh_from: usize) -> BoxProgram {
        Box::new((0..n).map(move |k| {
            let len = ratio((k % 7) as i64, 4);
            match k % 5 {
                4 => Instr::wait(len),
                _ if k >= fresh_from => Instr::go_angle(Angle::pi_frac((k % 3) as i64, 7), len),
                _ => Instr::go_angle(Angle::pi_frac((k % 11) as i64, 8), len),
            }
        }))
    }

    #[test]
    fn zero_duration_instructions_survive_the_tape() {
        let n = 3 * CHUNK + 17;
        let compiled = CompiledProgram::new(move || mixed_program(n, 2 * CHUNK));
        let direct: Vec<Instr> = mixed_program(n, 2 * CHUNK).collect();
        let zero_go = Instr::go_angle(Angle::pi_frac(7, 8), Ratio::zero());
        let zero_wait = Instr::wait(Ratio::zero());
        assert!(direct.contains(&zero_go) && direct.contains(&zero_wait));
        assert_eq!(compiled.cursor().collect::<Vec<_>>(), direct);
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
        let _ = compiled.cursor().take(3 * CHUNK + 1).last();
        assert_eq!(compiled.materialized(), 4 * CHUNK);
    }

    #[test]
    fn capped_cursor_falls_back_to_fresh_generator() {
        let n = (MAX_MATERIALIZED + 2 * CHUNK + 5) as i64;
        let compiled = CompiledProgram::new(move || counting_program(n));
        let direct: Vec<Instr> = counting_program(n).collect();
        // The cached head is lent, the tail past the cap is lowered on
        // the fly.
        let mut tape = compiled.tape();
        let (mut lent, mut lowered) = (0, 0);
        while tape.walk().is_some() {
            match tape.tail {
                None => lent += 1,
                Some(_) => lowered += 1,
            }
        }
        assert_eq!(
            (lent, lowered),
            (MAX_MATERIALIZED, direct.len() - MAX_MATERIALIZED)
        );
        assert_eq!(compiled.cursor().collect::<Vec<_>>(), direct);
        assert_eq!(replayed(&compiled), direct);
        // Cache stopped at the cap; the tail came from the fallback.
        assert_eq!(compiled.materialized(), MAX_MATERIALIZED);
    }

    #[test]
    fn tape_lowers_the_tail_past_the_cap_on_from_the_cache() {
        // Directions first seen past the cap get the ids the cache would
        // have given them, and every step equals a fresh lowering's.
        let n = MAX_MATERIALIZED + CHUNK + 3;
        let compiled = CompiledProgram::new(move || mixed_program(n, MAX_MATERIALIZED));
        let direct: Vec<Instr> = mixed_program(n, MAX_MATERIALIZED).collect();
        assert_eq!(replayed(&compiled), direct);
        let mut fresh = Lowering::default();
        let mut tape = compiled.tape();
        let mut idle = Lowering::default();
        for (k, instr) in direct.iter().enumerate() {
            let (want, known) = fresh.push(instr);
            let (step, dirs) = tape.next_step(&mut idle).expect("as long as the program");
            assert!(dirs.len() >= known.len(), "step {k}");
            assert_eq!(step.bits(), want.bits(), "step {k}");
        }
        assert!(tape.next_step(&mut idle).is_none());
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
            let mut tape = compiled.tape();
            let mut idle = Lowering::default();
            assert_eq!(cursor.by_ref().count(), n as usize);
            let mut stepped = 0;
            while tape.next_step(&mut idle).is_some() {
                stepped += 1;
            }
            assert_eq!(stepped, n as usize);
            for _ in 0..3 {
                assert!(cursor.next().is_none(), "cursor, {n} instructions");
                assert!(
                    tape.next_step(&mut idle).is_none(),
                    "tape, {n} instructions"
                );
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
                assert_eq!(replayed(&compiled).len(), n as usize);
                let mut cursor = compiled.cursor();
                assert_eq!(cursor.by_ref().count(), n as usize);
                assert!(cursor.next().is_none());
            }
            assert_eq!(calls.load(Ordering::Relaxed), 1, "{n} instructions");
        }
    }
}
