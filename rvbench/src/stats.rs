//! The benchmark's own statistics: nearest-rank quantiles, the rule that
//! refuses a percentile too few samples lie beyond, block medians, and the
//! failed-op share.

use std::ops::Range;

/// A percentile is reported only when at least this many samples lie
/// strictly beyond its rank; otherwise the tail it summarises is a
/// handful of points and moves with every run.
pub const MIN_TAIL: usize = 10;

/// The 1-based nearest rank of the `pct`-th percentile among `n` samples:
/// the smallest rank with at least `pct`% of the samples at or below it,
/// `ceil(pct·n / 100)`, clamped to `1..=n`. Integer arithmetic, so
/// `rank(100, 90)` is exactly 90.
pub fn rank(n: usize, pct: u32) -> usize {
    let pct = pct.min(100) as usize;
    (pct * n).div_ceil(100).clamp(1, n.max(1))
}

/// How many of `n` samples lie strictly beyond the `pct`-th percentile.
pub fn samples_beyond(n: usize, pct: u32) -> usize {
    n - rank(n, pct).min(n)
}

/// The nearest-rank `pct`-th percentile of `samples` (`None` when empty).
/// Applies no tail rule: use it for small fixed-size sets such as the
/// repeated set-ups of one run.
pub fn nearest_rank(samples: &[f64], pct: u32) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), pct) - 1])
}

/// The nearest-rank `pct`-th percentile of `samples`, refused (`None`)
/// when fewer than [`MIN_TAIL`] samples lie beyond it. A p90 needs at
/// least 100 samples, a p99 at least 1000, a median at least 20.
pub fn percentile(samples: &[f64], pct: u32) -> Option<f64> {
    if samples_beyond(samples.len(), pct) < MIN_TAIL {
        return None;
    }
    nearest_rank(samples, pct)
}

/// Consecutive blocks a run's timed ops are split into. A timed metric is
/// the median of its per-block values, so a burst of host load that
/// covers fewer than half of the blocks cannot move it.
pub const BLOCKS: usize = 5;

/// `0..n` split into `blocks` consecutive ranges whose lengths differ by
/// at most one (the longer ones first).
pub fn block_ranges(n: usize, blocks: usize) -> Vec<Range<usize>> {
    let blocks = blocks.max(1);
    let (len, extra) = (n / blocks, n % blocks);
    let mut start = 0;
    (0..blocks)
        .map(|b| {
            let end = start + len + usize::from(b < extra);
            let range = start..end;
            start = end;
            range
        })
        .collect()
}

/// The median over [`BLOCKS`] consecutive blocks of `items` of `f(block)`;
/// `None` when any block has no value.
pub fn block_median<T>(items: &[T], f: impl Fn(&[T]) -> Option<f64>) -> Option<f64> {
    let values = block_ranges(items.len(), BLOCKS)
        .into_iter()
        .map(|r| f(&items[r]))
        .collect::<Option<Vec<f64>>>()?;
    nearest_rank(&values, 50)
}

/// The share of attempted ops that failed. Nothing attempted counts as
/// total failure: a run that did no work has shown nothing correct.
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        return 1.0;
    }
    failed.min(attempted) as f64 / attempted as f64
}

/// Arithmetic mean (`0` for an empty set, which callers avoid by design).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// `num / den`, or `0` when `den` is zero (an idle layer's ratio).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        // `+ 0.0` turns the `-0.0` of an empty float sum into `0.0`.
        num / den + 0.0
    }
}
