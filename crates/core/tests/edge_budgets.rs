//! Edge-case coverage for [`mix_seed`], the deterministic scalar helper
//! every campaign leans on (collision structure at the extremes).
//! Formerly scattered across `batch.rs` unit tests.

use rv_core::batch::mix_seed;
use std::collections::HashSet;

#[test]
fn mix_seed_has_no_trivial_collisions() {
    let mut seen = HashSet::new();
    for seed in 0..16u64 {
        for i in 0..256u64 {
            assert!(seen.insert(mix_seed(seed, i)), "collision at ({seed}, {i})");
        }
    }
    // Index 0 must not reuse the seed verbatim (the old xor scheme did).
    for seed in [0u64, 1, 42, u64::MAX] {
        assert_ne!(mix_seed(seed, 0), seed);
    }
    // No linear collision class either: shifting the seed by the
    // golden-ratio constant must not equal shifting the index by one
    // (an additive pre-combination would make these always equal).
    const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
    for seed in [0u64, 0xCAFE, 0xDEAD_BEEF, u64::MAX / 3] {
        for i in 0..64u64 {
            assert_ne!(
                mix_seed(seed, i + 1),
                mix_seed(seed.wrapping_add(GOLDEN), i),
                "golden-shift collision at ({seed}, {i})"
            );
        }
    }
}

#[test]
fn mix_seed_extremes_are_total_and_distinct() {
    // The wire format ships (seed, index) pairs across processes; the
    // extremes must neither wrap-panic nor collapse onto each other.
    let extremes = [0u64, 1, u64::MAX - 1, u64::MAX, usize::MAX as u64];
    let mut outputs = HashSet::new();
    for &seed in &extremes {
        for &i in &extremes {
            outputs.insert(mix_seed(seed, i));
        }
    }
    // All 5×5 pairs distinct (usize::MAX == u64::MAX on 64-bit targets,
    // so up to 16 unique pairs there — either way, no collisions).
    let unique_pairs: HashSet<(u64, u64)> = extremes
        .iter()
        .flat_map(|&s| extremes.iter().map(move |&i| (s, i)))
        .collect();
    assert_eq!(outputs.len(), unique_pairs.len());
}

#[test]
fn mix_seed_is_not_symmetric_in_its_arguments() {
    // seed and index are finalized with distinct offsets, so swapping
    // them must not produce the same stream (a plain xor would).
    for (a, b) in [(0u64, 1u64), (3, 77), (0, u64::MAX), (12345, 54321)] {
        assert_ne!(mix_seed(a, b), mix_seed(b, a), "symmetric at ({a}, {b})");
    }
}
