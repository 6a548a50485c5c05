//! Property tests for `shard::plan_units`: for arbitrary `(n, unit)` the
//! planned units are contiguous, disjoint, non-empty, cover exactly
//! `0..n` in order, and only the last may be short; a `shards`-way
//! scatter (`unit = ⌈n/shards⌉`) never
//! plans more units than shards — the partition invariants the pool's
//! byte-identity and cache keys rest on.
//!
//! Case counts are capped for CI-friendly wall time; override with
//! `PROPTEST_CASES` for a deep run.

use proptest::prelude::*;
use rv_core::shard::plan_units;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn plan_units_partitions_0_to_n_into_contiguous_units(
        n in 0usize..3_000,
        unit in 0usize..4_000,
        shards in 0usize..4_000,
    ) {
        let units = plan_units(n, unit);
        let width = unit.max(1);

        // Contiguous, disjoint, non-empty, covering exactly 0..n in
        // ascending order: each unit starts where the previous one ended.
        prop_assert_eq!(units.len(), n.div_ceil(width));
        let mut next = 0;
        for r in &units {
            prop_assert_eq!(r.start, next);
            prop_assert!(!r.is_empty());
            next = r.end;
        }
        prop_assert_eq!(next, n);

        // Full-width units, with only the last allowed to be short.
        if let Some((last, full)) = units.split_last() {
            prop_assert!(full.iter().all(|r| r.len() == width));
            prop_assert!(last.len() <= width);
        }

        // The scatter shape: at most `shards` units (clamped to 1..=n),
        // all of equal length whenever `shards` divides `n`.
        let scattered = plan_units(n, n.div_ceil(shards.max(1)));
        prop_assert!(scattered.len() <= shards.clamp(1, n.max(1)));
        prop_assert_eq!(scattered.iter().map(|r| r.len()).sum::<usize>(), n);
        if shards > 0 && n >= shards && n % shards == 0 {
            prop_assert_eq!(scattered.len(), shards);
            prop_assert!(scattered.iter().all(|r| r.len() == n / shards));
        }
    }
}
