//! Self-tests for the benchmark's own statistics and checks.

use rvbench::check::{Coverage, OpResult};
use rvbench::stats::{
    block_median, block_ranges, failed_share, nearest_rank, percentile, rank, samples_beyond,
    BLOCKS, MIN_TAIL,
};

fn ramp(n: usize) -> Vec<f64> {
    // 1..=n, shuffled so the helpers have to sort.
    let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    v.reverse();
    v.rotate_left(n / 3);
    v
}

#[test]
fn nearest_rank_is_the_smallest_rank_covering_the_share() {
    assert_eq!(rank(100, 90), 90);
    assert_eq!(rank(101, 90), 91);
    assert_eq!(rank(10, 50), 5);
    assert_eq!(rank(5, 20), 1);
    assert_eq!(rank(5, 21), 2);
    assert_eq!(rank(7, 100), 7);
    assert_eq!(rank(1, 99), 1);
    assert_eq!(nearest_rank(&ramp(5), 50), Some(3.0));
    assert_eq!(nearest_rank(&ramp(5), 20), Some(1.0));
    assert_eq!(nearest_rank(&ramp(5), 21), Some(2.0));
    assert_eq!(nearest_rank(&ramp(5), 100), Some(5.0));
    assert_eq!(nearest_rank(&ramp(4), 50), Some(2.0));
    assert_eq!(nearest_rank(&[], 50), None);
}

#[test]
fn nearest_rank_returns_a_sample_never_an_interpolation() {
    let samples = [10.0, 20.0];
    assert_eq!(nearest_rank(&samples, 50), Some(10.0));
    assert_eq!(nearest_rank(&samples, 51), Some(20.0));
}

#[test]
fn percentiles_with_too_thin_a_tail_are_refused() {
    assert_eq!(MIN_TAIL, 10);
    assert_eq!(samples_beyond(100, 90), 10);
    assert_eq!(samples_beyond(99, 90), 9);
    assert_eq!(percentile(&ramp(99), 90), None);
    assert_eq!(percentile(&ramp(100), 90), Some(90.0));
    assert_eq!(percentile(&ramp(999), 99), None);
    assert_eq!(percentile(&ramp(1000), 99), Some(990.0));
    assert_eq!(percentile(&ramp(19), 50), None);
    assert_eq!(percentile(&ramp(20), 50), Some(10.0));
    assert_eq!(percentile(&[], 50), None);
}

#[test]
fn blocks_are_consecutive_and_even() {
    assert_eq!(block_ranges(10, 5), vec![0..2, 2..4, 4..6, 6..8, 8..10]);
    assert_eq!(block_ranges(7, 3), vec![0..3, 3..5, 5..7]);
    assert_eq!(block_ranges(2, 3), vec![0..1, 1..2, 2..2]);
    let ranges = block_ranges(1003, BLOCKS);
    assert_eq!(ranges.len(), BLOCKS);
    assert_eq!(ranges.first().map(|r| r.start), Some(0));
    assert_eq!(ranges.last().map(|r| r.end), Some(1003));
    assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
    assert!(ranges.iter().all(|r| r.len() == 200 || r.len() == 201));
}

#[test]
fn a_burst_in_fewer_than_half_the_blocks_does_not_move_the_block_median() {
    assert_eq!(BLOCKS, 5);
    // Five blocks of 100 latencies; two blocks are three times slower.
    let mut lat: Vec<f64> = (0..5).flat_map(|_| ramp(100)).collect();
    lat[100..300].iter_mut().for_each(|l| *l *= 3.0);
    let p90 = |b: &[f64]| percentile(b, 90);
    assert_eq!(block_median(&lat, p90), Some(90.0));
    assert_eq!(percentile(&lat, 90), Some(225.0));
    // A block too short for its percentile refuses the whole metric.
    assert_eq!(block_median(&lat[..499], p90), None);
}

#[test]
fn failed_ops_miss_every_latency_limit() {
    let mut lat: Vec<f64> = ramp(100);
    let mut failed = OpResult::failed(0);
    assert!(!failed.ok);
    failed.fail();
    lat[0] = failed.latency_ms;
    // One failed op pushes the tail out by one rank, never below it.
    assert_eq!(percentile(&lat, 90), Some(91.0));
    lat.iter_mut().take(11).for_each(|l| *l = f64::INFINITY);
    assert_eq!(percentile(&lat, 90), Some(f64::INFINITY));
}

#[test]
fn failed_share_counts_against_attempted_ops() {
    assert_eq!(failed_share(0, 10), 0.0);
    assert_eq!(failed_share(1, 4), 0.25);
    assert_eq!(failed_share(4, 4), 1.0);
    assert_eq!(failed_share(9, 4), 1.0);
    // Nothing attempted shows nothing correct.
    assert_eq!(failed_share(0, 0), 1.0);
}

#[test]
fn coverage_demands_every_index_exactly_once() {
    let c = Coverage::new(3);
    assert!(!c.exactly_once());
    for i in 0..3 {
        c.mark(i);
    }
    assert!(c.exactly_once());
    c.mark(1);
    assert!(!c.exactly_once());

    let stray = Coverage::new(2);
    for i in 0..3 {
        stray.mark(i);
    }
    assert!(!stray.exactly_once());
}
