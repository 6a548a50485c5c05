//! Deterministic experiment workloads: seeded instance samples per class.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rv_core::batch::mix_seed;
use rv_model::{generate, Instance, TargetClass};

/// Samples `n` instances of `class`, deterministically from `seed`.
/// Each instance gets its own derived RNG, so samples are stable under
/// reordering and parallel generation.
///
/// Per-index seeds go through [`mix_seed`]'s SplitMix64 finalizer; the
/// previous `seed ^ i·GOLDEN` scheme reused `seed` verbatim at index 0
/// and collided across distinct `(seed, i)` pairs under xor.
pub fn sample(class: TargetClass, n: usize, seed: u64) -> Vec<Instance> {
    (0..n as u64)
        .map(|i| generate(&mut StdRng::seed_from_u64(mix_seed(seed, i)), class))
        .collect()
}

/// The single instance `sample(class, i + 1, seed)` would put at index
/// `i`, generated without materialising the prefix — the seed-indexed
/// form campaign streams consume.
pub fn sample_one(class: TargetClass, seed: u64, i: u64) -> Instance {
    generate(&mut StdRng::seed_from_u64(mix_seed(seed, i)), class)
}

/// The [`sample_one`] stream as a ready-to-pass generator for
/// [`rv_core::batch::Campaign::run_seeded`]: `generator(class, seed)` is
/// the `Fn(usize) -> Instance` whose index `i` equals
/// `sample(class, n, seed)[i]` for every `n > i`.
pub fn generator(class: TargetClass, seed: u64) -> impl Fn(usize) -> Instance + Sync {
    move |i| sample_one(class, seed, i as u64)
}

/// Experiment scale knobs.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Instances per family in table experiments.
    pub per_family: usize,
    /// Segment budget for runs expected to succeed.
    pub success_segments: u64,
    /// Segment budget for runs expected to fail (kept smaller: they always
    /// run to exhaustion).
    pub failure_segments: u64,
}

impl Scale {
    /// Full scale (what the experiments binary runs without `--quick`).
    pub fn full() -> Scale {
        Scale {
            per_family: 200,
            success_segments: 2_000_000,
            failure_segments: 200_000,
        }
    }

    /// Quick scale for smoke runs (`--quick`).
    pub fn quick() -> Scale {
        Scale {
            per_family: 30,
            success_segments: 500_000,
            failure_segments: 60_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_model::classify;

    #[test]
    fn samples_are_deterministic() {
        let a = sample(TargetClass::Type3, 5, 42);
        let b = sample(TargetClass::Type3, 5, 42);
        let sa: Vec<String> = a.iter().map(|i| i.to_string()).collect();
        let sb: Vec<String> = b.iter().map(|i| i.to_string()).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn samples_match_class() {
        for class in TargetClass::all() {
            for inst in sample(class, 3, 7) {
                assert_eq!(classify(&inst), class.expected());
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = sample(TargetClass::Type1, 4, 1);
        let b = sample(TargetClass::Type1, 4, 2);
        let sa: Vec<String> = a.iter().map(|i| i.to_string()).collect();
        let sb: Vec<String> = b.iter().map(|i| i.to_string()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn index_zero_does_not_reuse_the_raw_seed() {
        // Regression for the xor scheme at the sample() level: index 0 of
        // a sampled workload used the campaign seed verbatim, so two
        // campaigns could share instances across indices. The workload
        // at `seed` must differ from a direct raw-seed generation, and
        // golden-ratio-shifted seeds must not reproduce each other's
        // streams off by one (the xor scheme's collision class).
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use rv_model::generate;

        let seed = 0xAB_CDEF;
        let raw = generate(&mut StdRng::seed_from_u64(seed), TargetClass::Type3).to_string();
        assert_ne!(sample(TargetClass::Type3, 1, seed)[0].to_string(), raw);

        const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
        let a = sample(TargetClass::Type3, 8, seed);
        let b = sample(TargetClass::Type3, 8, seed.wrapping_add(GOLDEN));
        for (i, inst) in a.iter().enumerate().skip(1) {
            assert_ne!(
                inst.to_string(),
                b[i - 1].to_string(),
                "golden-shifted workloads must not overlap (index {i})"
            );
        }
    }

    #[test]
    fn sample_one_matches_sample_prefixes() {
        for (i, inst) in sample(TargetClass::Type2, 5, 99).iter().enumerate() {
            assert_eq!(
                sample_one(TargetClass::Type2, 99, i as u64).to_string(),
                inst.to_string()
            );
        }
    }

    #[test]
    fn generator_matches_materialised_sample() {
        let gen = generator(TargetClass::Type3, 1234);
        for (i, inst) in sample(TargetClass::Type3, 6, 1234).iter().enumerate() {
            assert_eq!(gen(i).to_string(), inst.to_string());
        }
    }
}
