//! Corruption-injection suite for `rv_core::cache`: every artifact class
//! in a cache entry — the `campaign_spec` preimage line, the `record`
//! lines, and the closing `unit_done` line — is truncated, bit-flipped,
//! re-schemaed, and key-mismatched, and every time the read comes back
//! as a typed [`CacheError`] (never a panic), [`ResultCache::lookup`]
//! evicts the corpse, and the recomputed run is byte-identical to an
//! uncached one. An entry in the older layout, whose `unit_done` line
//! still carries an accumulator, replays from its records alone.

use rv_core::cache::{CacheError, CacheKey, ResultCache};
use rv_core::exec::{Executor, LocalExecutor};
use rv_core::shard::{CampaignSpec, SolverSpec};
use rv_core::stream::{RecordSink, VecSink};
use rv_core::StatsAccumulator;
use rv_model::TargetClass;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SEED: u64 = 9;
const N: usize = 8;

fn spec() -> CampaignSpec {
    CampaignSpec::new(
        SolverSpec::Dedicated,
        vec![TargetClass::Type3, TargetClass::S1],
        30_000,
    )
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rv-cache-corrupt-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Opens a cache in a fresh dir and stores the full-range entry for the
/// reference campaign, returning the cache and the entry path.
fn seeded_cache(tag: &str) -> (Arc<ResultCache>, PathBuf) {
    let cache = Arc::new(ResultCache::open(tmp_dir(tag)).expect("open"));
    let report = spec().run_local(SEED, N);
    let mut acc = StatsAccumulator::new();
    let pairs: Vec<_> = report
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            acc.push(r);
            (i, r.clone())
        })
        .collect();
    let key = cache
        .store(&spec(), SEED, &(0..N), &pairs, &acc)
        .expect("store");
    let path = cache.entry_path(key);
    assert!(path.is_file(), "entry published");
    (cache, path)
}

/// The shared postlude: a corrupted entry must (a) load as `Err` of the
/// expected shape, (b) lookup as a miss that evicts the file, and (c)
/// recompute byte-identically to the uncached run, delivering every
/// index to the sink exactly once.
fn assert_recovers(cache: Arc<ResultCache>, path: &Path, check: impl FnOnce(&CacheError)) {
    let err = cache
        .load(&spec(), SEED, &(0..N))
        .expect_err("corrupt entry must be a typed error, not a hit");
    check(&err);

    assert!(
        cache.lookup(&spec(), SEED, &(0..N)).is_none(),
        "lookup treats corruption as a miss"
    );
    assert!(!path.exists(), "lookup evicted the corrupt entry");
    assert_eq!(cache.stats().evictions, 1);

    let baseline = spec().run_local(SEED, N);
    let sink = Arc::new(VecSink::new());
    let exec = LocalExecutor::new().cache(Arc::clone(&cache));
    let report = exec
        .execute(&spec(), SEED, N, Some(sink.clone() as Arc<dyn RecordSink>))
        .expect("recompute");
    assert_eq!(report.stats.to_json(), baseline.stats.to_json());
    assert_eq!(
        format!("{:?}", report.records),
        format!("{:?}", baseline.records)
    );
    let seen = sink.take_sorted();
    assert_eq!(seen.len(), N, "exactly one sink delivery per index");
    assert!(seen.iter().enumerate().all(|(k, (i, _))| k == *i));

    // The recompute wrote a fresh entry; the next run replays it,
    // still byte-identically.
    assert!(path.exists(), "recompute restored the entry");
    let warm = exec.execute(&spec(), SEED, N, None).expect("warm replay");
    assert_eq!(warm.stats.to_json(), baseline.stats.to_json());
    let _ = fs::remove_dir_all(cache.dir());
}

#[test]
fn truncated_at_a_line_boundary_is_typed_and_recovers() {
    let (cache, path) = seeded_cache("line-trunc");
    let text = fs::read_to_string(&path).unwrap();
    let keep: Vec<&str> = text.lines().take(3).collect(); // spec + 2 records
    fs::write(&path, format!("{}\n", keep.join("\n"))).unwrap();
    assert_recovers(cache, &path, |err| {
        assert!(matches!(err, CacheError::Truncated { .. }), "{err}");
    });
}

#[test]
fn truncated_mid_line_is_typed_and_recovers() {
    let (cache, path) = seeded_cache("byte-trunc");
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
    assert_recovers(cache, &path, |err| {
        assert!(
            matches!(err, CacheError::Wire { .. } | CacheError::Truncated { .. }),
            "{err}"
        );
    });
}

#[test]
fn empty_entry_is_typed_and_recovers() {
    let (cache, path) = seeded_cache("empty");
    fs::write(&path, b"").unwrap();
    assert_recovers(cache, &path, |err| {
        assert!(matches!(err, CacheError::Truncated { .. }), "{err}");
    });
}

#[test]
fn bit_flipped_record_line_is_typed_and_recovers() {
    let (cache, path) = seeded_cache("flip-record");
    let mut bytes = fs::read(&path).unwrap();
    // Flip a quote inside the second line (the first record), breaking
    // the JSON structure itself.
    let line2 = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    let quote = line2
        + bytes[line2..]
            .iter()
            .position(|&b| b == b'"')
            .expect("a quote in a record line");
    bytes[quote] ^= 0x01;
    fs::write(&path, &bytes).unwrap();
    assert_recovers(cache, &path, |err| {
        assert!(matches!(err, CacheError::Wire { line: 2, .. }), "{err}");
    });
}

#[test]
fn bit_flipped_preimage_digit_is_a_key_mismatch() {
    let (cache, path) = seeded_cache("flip-preimage");
    let text = fs::read_to_string(&path).unwrap();
    // Nudge the seed digit inside the stored campaign_spec line: still
    // perfectly parseable wire, but no longer the requested preimage.
    let flipped = text.replacen(&format!("\"seed\": {SEED}"), "\"seed\": 8", 1);
    assert_ne!(text, flipped, "the preimage seed must appear in line 1");
    fs::write(&path, flipped).unwrap();
    assert_recovers(cache, &path, |err| {
        assert!(matches!(err, CacheError::KeyMismatch { .. }), "{err}");
    });
}

#[test]
fn wrong_schema_accumulator_line_is_typed_and_recovers() {
    let (cache, path) = seeded_cache("schema");
    let text = fs::read_to_string(&path).unwrap();
    let lines: Vec<String> = text.lines().map(String::from).collect();
    let last = lines.len() - 1;
    let mut mutated = lines.clone();
    mutated[last] = lines[last].replace("\"schema\": 3", "\"schema\": 9");
    assert_ne!(mutated[last], lines[last]);
    fs::write(&path, format!("{}\n", mutated.join("\n"))).unwrap();
    assert_recovers(cache, &path, |err| {
        assert!(matches!(err, CacheError::Wire { .. }), "{err}");
    });
}

#[test]
fn entry_under_the_wrong_key_is_a_key_mismatch() {
    let (cache, path) = seeded_cache("wrong-key");
    // Move a perfectly valid entry to the file another (seed-tweaked)
    // key addresses — an on-disk rename/collision scenario. The stored
    // preimage betrays it.
    let other = CacheKey::derive(&spec(), SEED + 1, &(0..N));
    let other_path = cache.entry_path(other);
    fs::rename(&path, &other_path).unwrap();
    let err = cache
        .load(&spec(), SEED + 1, &(0..N))
        .expect_err("foreign entry must not replay");
    assert!(matches!(err, CacheError::KeyMismatch { .. }), "{err}");
    assert!(cache.lookup(&spec(), SEED + 1, &(0..N)).is_none());
    assert!(!other_path.exists(), "foreign entry evicted");
    let _ = fs::remove_dir_all(cache.dir());
}

#[test]
fn io_failures_miss_without_evicting_the_entry() {
    // An I/O error (here: the entry path reads as a directory, not a
    // file) says nothing about the entry's content — a transient
    // EACCES/EMFILE must not delete a valid cached shard. Lookup
    // reports a plain miss and leaves the path alone.
    let (cache, path) = seeded_cache("io-miss");
    fs::remove_file(&path).unwrap();
    fs::create_dir(&path).unwrap();
    let err = cache
        .load(&spec(), SEED, &(0..N))
        .expect_err("a directory at the entry path is an I/O error");
    assert!(matches!(err, CacheError::Io { .. }), "{err}");
    assert!(cache.lookup(&spec(), SEED, &(0..N)).is_none(), "plain miss");
    assert!(path.exists(), "I/O errors must not evict");
    assert_eq!(cache.stats().evictions, 0);
    let _ = fs::remove_dir_all(cache.dir());
}

#[test]
fn junk_after_the_accumulator_is_typed_and_recovers() {
    let (cache, path) = seeded_cache("trailing");
    let mut text = fs::read_to_string(&path).unwrap();
    text.push_str("{\"schema\": 3, \"kind\": \"unit_telemetry\", \"task_id\": 0, \"attempt\": 0, \"wall_ns\": 1}\n");
    fs::write(&path, text).unwrap();
    assert_recovers(cache, &path, |err| {
        assert!(matches!(err, CacheError::Layout { .. }), "{err}");
    });
}

#[test]
fn unit_done_for_another_start_is_typed_and_recovers() {
    let (cache, path) = seeded_cache("start");
    let text = fs::read_to_string(&path).unwrap();
    let moved = text.replace("\"start\": 0}", "\"start\": 1}");
    assert_ne!(moved, text, "the entry ends in a unit_done line");
    fs::write(&path, moved).unwrap();
    assert_recovers(cache, &path, |err| {
        assert!(matches!(err, CacheError::Layout { .. }), "{err}");
    });
}

#[test]
fn shuffled_record_order_is_typed_and_recovers() {
    let (cache, path) = seeded_cache("order");
    let text = fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    lines.swap(1, 2); // two record lines out of index order
    fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
    assert_recovers(cache, &path, |err| {
        assert!(matches!(err, CacheError::Layout { .. }), "{err}");
    });
}

/// An empty accumulator as older builds encoded it on `unit_done` lines.
const LEGACY_EMPTY_ACC: &str = "{\"n\": 0, \"met\": 0, \"infeasible\": 0, \"times\": [], \
     \"segments\": [], \"min_ratio\": \"inf\", \"buckets\": [[0, 0, []], [0, 0, []], \
     [0, 0, []], [0, 0, []], [0, 0, []], [0, 0, []], [0, 0, []], [0, 0, []]]}";

#[test]
fn legacy_entries_replay_from_their_records_ignoring_their_acc() {
    // The older layout: the closing `unit_done` line carries the shard's
    // folded accumulator as `acc`. This one contradicts the records (it
    // is the empty accumulator), and the load must not read it.
    let (cache, path) = seeded_cache("legacy");
    let text = fs::read_to_string(&path).unwrap();
    let legacy = text.replace(
        "\"start\": 0}\n",
        &format!("\"start\": 0, \"acc\": {LEGACY_EMPTY_ACC}}}\n"),
    );
    assert_ne!(legacy, text, "the entry ends in a unit_done line");
    fs::write(&path, legacy).unwrap();

    let baseline = spec().run_local(SEED, N);
    let hit = cache
        .load(&spec(), SEED, &(0..N))
        .expect("a legacy entry is valid")
        .expect("and present");
    let records: Vec<_> = hit.records.iter().map(|(_, r)| r.clone()).collect();
    assert_eq!(format!("{records:?}"), format!("{:?}", baseline.records));
    assert_eq!(hit.acc.len(), N, "stats come from the records");
    assert_eq!(hit.acc.finish().to_json(), baseline.stats.to_json());

    let sink = Arc::new(VecSink::new());
    let exec = LocalExecutor::new().cache(Arc::clone(&cache));
    let report = exec
        .execute(&spec(), SEED, N, Some(sink.clone() as Arc<dyn RecordSink>))
        .expect("replay");
    assert_eq!(format!("{report:?}"), format!("{baseline:?}"));
    assert_eq!(report.stats.to_json(), baseline.stats.to_json());
    assert_eq!(sink.take_sorted().len(), N, "one sink delivery per index");
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.stores, stats.evictions), (1, 1, 0));
    let _ = fs::remove_dir_all(cache.dir());
}
