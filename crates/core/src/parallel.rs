//! Chunked, shared-nothing parallel map.
//!
//! Workers claim *chunks* of the index range from a single atomic counter
//! (dynamic load balancing — fast workers steal the chunks slow workers
//! never reach) and append their results to a buffer of their own. There
//! is no per-item lock anywhere on the hot path: the only shared mutable
//! state is the chunk counter and a poison flag set while unwinding.
//!
//! The counter hands chunks out in increasing order, so every worker's
//! buffer is already in index order; after the workers finish, the output
//! is stitched together chunk by chunk. Output order therefore equals
//! index order, and anything derived from the result vector is
//! independent of thread scheduling — the property [`crate::batch`]
//! builds its determinism guarantee on.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Upper bound on items per claimed chunk. Small enough for good load
/// balance on skewed workloads (one simulation can cost 10^6× another),
/// large enough that counter traffic is negligible for cheap closures.
const MAX_CHUNK: usize = 64;

/// One worker's output: its results in index order, the ids of the
/// chunks they came from, and the first panic it caught, if any.
struct Slot<R> {
    out: Vec<R>,
    chunks: Vec<usize>,
    panic: Option<(usize, Box<dyn Any + Send>)>,
}

/// Applies `f` to every index in `0..n` on `threads` workers (`0` = all
/// available cores) and returns the results in index order.
///
/// # Panics
///
/// If `f` panics for some index, the panic is propagated to the caller
/// with a message naming the failing index. Every result already built
/// is dropped exactly once on the way out.
pub fn par_map<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
    } else {
        threads
    }
    .min(n);
    if workers == 0 {
        return Vec::new();
    }

    // ~8 chunks per worker keeps the tail balanced without hammering the
    // counter; cap so skewed items cannot hide inside huge chunks.
    let chunk = (n / (workers * 8)).clamp(1, MAX_CHUNK);
    let n_chunks = n.div_ceil(chunk);
    let bounds = |c: usize| c * chunk..((c + 1) * chunk).min(n);
    let next_chunk = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);

    // Each worker fills a slot local to its own thread and hands it over
    // once at the end: pushing into slots that sit side by side in one
    // Vec would make the workers fight over shared cache lines.
    let empty = || Slot {
        out: Vec::new(),
        chunks: Vec::new(),
        panic: None,
    };
    let work = || {
        let mut slot = Slot {
            out: Vec::with_capacity(n.div_ceil(workers)),
            ..empty()
        };
        while !poisoned.load(Ordering::Relaxed) {
            let c = next_chunk.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break;
            }
            let range = bounds(c);
            let mut i = range.start;
            let run = catch_unwind(AssertUnwindSafe(|| {
                while i < range.end {
                    slot.out.push(f(i));
                    i += 1;
                }
            }));
            if let Err(payload) = run {
                poisoned.store(true, Ordering::Relaxed);
                slot.panic = Some((i, payload));
                break;
            }
            slot.chunks.push(c);
        }
        slot
    };

    let mut slots: Vec<Slot<R>> = (0..workers).map(|_| empty()).collect();
    if workers == 1 {
        slots[0] = work();
    } else {
        let work = &work;
        std::thread::scope(|scope| {
            for slot in &mut slots {
                scope.spawn(move || *slot = work());
            }
        });
    }

    if let Some((i, payload)) = slots
        .iter_mut()
        .filter_map(|s| s.panic.take())
        .min_by_key(|(i, _)| *i)
    {
        let msg = payload_message(payload.as_ref());
        panic!("par_map: worker panicked at item {i}: {msg}");
    }

    // No panic, so every chunk was claimed and completed exactly once.
    let mut owner = vec![0; n_chunks];
    for (w, slot) in slots.iter().enumerate() {
        for &c in &slot.chunks {
            owner[c] = w;
        }
    }
    let mut buffers: Vec<_> = slots.into_iter().map(|s| s.out.into_iter()).collect();
    let mut out = Vec::with_capacity(n);
    for (c, &w) in owner.iter().enumerate() {
        out.extend(buffers[w].by_ref().take(bounds(c).len()));
    }
    out
}

/// Best-effort extraction of a human-readable panic message.
fn payload_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let out = par_map(0, 1000, |i| i as u64 * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u64> = par_map(0, 0, |i| i as u64);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(par_map(0, 1, |i| i as u64 + 8), vec![8]);
    }

    #[test]
    fn indexed_matches_slice_map() {
        let items: Vec<u64> = (0..257).map(|i| i * 3 + 1).collect();
        let seq: Vec<u64> = (0..items.len()).map(|i| items[i] + 1).collect();
        assert_eq!(par_map(0, items.len(), |i| items[i] + 1), seq);
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let f = |i: usize| i as u64 ^ 0xABCD;
        let seq: Vec<u64> = (0..500).map(f).collect();
        for threads in [1, 2, 3, 8] {
            assert_eq!(par_map(threads, 500, f), seq, "threads={threads}");
        }
    }

    #[test]
    fn heavy_skewed_closure_is_correct() {
        // Item 0 is ~1000× the others: chunk stealing must still cover
        // everything exactly once.
        let out = par_map(0, 300, |i| {
            let x = i as u64;
            let spin = if x == 0 { 1_000_000 } else { 1_000 };
            let mut acc = x;
            for k in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (x, acc).0
        });
        assert_eq!(out, (0..300).collect::<Vec<u64>>());
    }

    #[test]
    fn non_copy_results_survive() {
        let out = par_map(0, 100, |i| vec![i as u64; 3]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v, &vec![i as u64; 3]);
        }
    }

    #[test]
    fn panic_names_failing_index() {
        // `0` (auto, may be sequential on a 1-core box), `1` (explicitly
        // sequential) and `4` (parallel) must all surface the same shape.
        for threads in [0, 1, 4] {
            let err = std::panic::catch_unwind(|| {
                par_map(threads, 64, |i| {
                    if i == 37 {
                        panic!("boom on {i}");
                    }
                    i
                })
            })
            .expect_err("must propagate the panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("item 37"), "threads={threads}: {msg}");
            assert!(msg.contains("boom on 37"), "threads={threads}: {msg}");
        }
    }

    #[test]
    fn panic_drops_completed_results() {
        // Every value `f` built must be dropped exactly once on the unwind
        // path: no leak, no double drop.
        static BUILT: AtomicUsize = AtomicUsize::new(0);
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        for threads in [1, 2, 4] {
            BUILT.store(0, Ordering::Relaxed);
            DROPS.store(0, Ordering::Relaxed);
            let result = std::panic::catch_unwind(|| {
                par_map(threads, 128, |i| {
                    if i == 100 {
                        panic!("dropped");
                    }
                    BUILT.fetch_add(1, Ordering::Relaxed);
                    Counted
                })
            });
            assert!(result.is_err());
            let built = BUILT.load(Ordering::Relaxed);
            let drops = DROPS.load(Ordering::Relaxed);
            // Item 100 never constructed a value.
            assert!(built < 128, "threads={threads}: built {built} of 128");
            assert_eq!(
                drops, built,
                "threads={threads}: built {built}, dropped {drops}"
            );
        }
    }
}
