//! Concurrent-access proofs for `rv_core::cache`: executors sharing one
//! cache directory — and a raw reader racing a raw writer — never
//! observe a partial entry, because entries are published with
//! tmp-file + atomic rename. Exactly-once sink delivery holds on cold,
//! warm, and mixed runs.

use rv_core::cache::ResultCache;
use rv_core::exec::{Executor, LocalExecutor};
use rv_core::shard::{CampaignSpec, SolverSpec};
use rv_core::stream::{RecordSink, VecSink};
use rv_core::{RunRecord, StatsAccumulator};
use rv_model::TargetClass;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn spec() -> CampaignSpec {
    CampaignSpec::new(
        SolverSpec::Dedicated,
        vec![TargetClass::Type3, TargetClass::S1],
        30_000,
    )
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rv-cache-race-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Runs one executor over a shared cache and checks byte-identity plus
/// the exactly-once sink contract.
fn run_and_check(cache: &Arc<ResultCache>, seed: u64, n: usize, ctx: &str) {
    let baseline = spec().run_local(seed, n);
    let sink = Arc::new(VecSink::new());
    let exec = LocalExecutor::new().cache(Arc::clone(cache));
    let report = exec
        .execute(&spec(), seed, n, Some(sink.clone() as Arc<dyn RecordSink>))
        .expect(ctx);
    assert_eq!(report.stats.to_json(), baseline.stats.to_json(), "{ctx}");
    assert_eq!(
        format!("{:?}", report.records),
        format!("{:?}", baseline.records),
        "{ctx}"
    );
    let seen = sink.take_sorted();
    assert_eq!(seen.len(), n, "{ctx}: one delivery per index");
    assert!(
        seen.iter().enumerate().all(|(k, (i, _))| k == *i),
        "{ctx}: exactly-once, no duplicates"
    );
}

#[test]
fn two_executors_sharing_one_dir_agree_on_cold_warm_and_mixed_runs() {
    let dir = tmp_dir("shared");
    let cache_a = Arc::new(ResultCache::open(&dir).expect("open a"));
    let cache_b = Arc::new(ResultCache::open(&dir).expect("open b"));

    // Cold + cold, concurrently: both executors race to publish the
    // same content-addressed entries; whoever loses the rename race
    // simply overwrites identical bytes.
    std::thread::scope(|scope| {
        scope.spawn(|| run_and_check(&cache_a, 3, 24, "racer a (cold)"));
        scope.spawn(|| run_and_check(&cache_b, 3, 24, "racer b (cold)"));
    });

    // Warm: executor b replays what the races published.
    run_and_check(&cache_b, 3, 24, "warm replay");
    assert!(cache_b.stats().hits >= 1, "the warm run actually hit");

    // Mixed: a new seed through a — a miss beside b's warm entries.
    run_and_check(&cache_a, 4, 24, "mixed (new seed, cold)");
    run_and_check(&cache_b, 4, 24, "mixed (new seed, warm)");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn reader_racing_a_writer_never_observes_a_partial_entry() {
    let dir = tmp_dir("reader-writer");
    let writer_cache = ResultCache::open(&dir).expect("open writer");
    let reader_cache = ResultCache::open(&dir).expect("open reader");

    let n = 6;
    let report = spec().run_local(1, n);
    let mut acc = StatsAccumulator::new();
    let pairs: Vec<(usize, RunRecord)> = report
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            acc.push(r);
            (i, r.clone())
        })
        .collect();

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            // Publish the same key over and over: every iteration is a
            // fresh tmp file renamed over the live entry while the
            // reader is mid-poll.
            for _ in 0..400 {
                writer_cache
                    .store(&spec(), 1, &(0..n), &pairs, &acc)
                    .expect("store");
            }
            stop.store(true, Ordering::Relaxed);
        });
        let reader = scope.spawn(|| {
            let mut hits = 0u32;
            loop {
                let done = stop.load(Ordering::Relaxed);
                // load (not lookup): an Err here would be direct proof
                // of an observed partial entry.
                match reader_cache.load(&spec(), 1, &(0..n)) {
                    Ok(Some(hit)) => {
                        assert_eq!(hit.records.len(), n, "complete entry only");
                        assert_eq!(hit.acc.len(), n);
                        hits += 1;
                    }
                    Ok(None) => {} // not yet published — fine
                    Err(e) => panic!("reader observed a partial entry: {e}"),
                }
                if done {
                    // One load after the last publish keeps the hit
                    // count deterministic even if the writer raced ahead.
                    break hits;
                }
            }
        });
        writer.join().expect("writer");
        let hits = reader.join().expect("reader");
        assert!(hits > 0, "the reader overlapped at least one publish");
    });
    assert_eq!(reader_cache.stats().evictions, 0, "nothing to evict");
    let _ = fs::remove_dir_all(&dir);
}
