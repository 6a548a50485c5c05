//! Content-addressed on-disk cache for finished campaign shards.
//!
//! Rendezvous campaigns are pure functions of `(spec, seed, range)`:
//! instance `i` is generated from `mix_seed(seed, i)` and the class
//! rotation alone, and the accumulator merge is partition-invariant.
//! That purity makes finished shards cacheable *byte-identically* — a
//! replayed shard is indistinguishable from a re-executed one, down to
//! the last float lexeme, because the schema-3 wire encoding is a fixed
//! point (encode ∘ decode ∘ encode = encode).
//!
//! Executors take a cache through `.cache(..)`
//! ([`crate::exec::PoolExecutor::cache`],
//! [`crate::exec::LocalExecutor::cache`]) and share one write path, the
//! crate-private `ResultCache::store_lines`: the pool stores each
//! executed unit's record lines as its worker answered them (and its
//! [`crate::shard::UnitReader`] checked them), the local backend encodes
//! its whole campaign `0..n` once through [`ResultCache::store`], which
//! checks the records the same way. An entry's body is a worker answer's
//! body: both are written by [`crate::shard::push_record_lines`] and read
//! by [`crate::shard::UnitReader`], so a stored unit and an answered one
//! obey the same rules.
//!
//! # Entry layout
//!
//! One entry per `(spec, seed, start..end)`, stored as a schema-3
//! JSON-lines file named by the entry's [`CacheKey`]:
//!
//! ```text
//! <dir>/<key:032x>.jsonl
//!   line 1      — the canonical `campaign_spec` line (the key preimage)
//!   lines 2..   — one `record` line per index, ascending over the range
//!   last line   — a `unit_done` line (task_id 0) that ends the entry
//! ```
//!
//! An entry stores no statistics: a load folds the shard's
//! [`StatsAccumulator`] from its records, so the stats can never
//! disagree with them. Entries written by older builds carry their
//! folded accumulator as an `acc` field on the `unit_done` line; the
//! reader ignores it and replays them all the same.
//!
//! Entries are written to a temporary file in the same directory and
//! published with [`std::fs::rename`] — readers racing a writer observe
//! either no entry or a complete one, never a partial prefix.
//!
//! # Key derivation
//!
//! The key is a 128-bit FNV-1a hash of the canonical `campaign_spec`
//! wire bytes ([`crate::wire::encode_campaign_spec`]), folded with the
//! little-endian bytes of `seed`, `start`, and `end`. Any spec
//! difference that survives canonicalisation (solver, classes,
//! segments, seed) or any range difference yields a different key, so
//! invalidation is automatic: a changed shard simply misses. The width
//! matters: two *live* keys colliding would make their entries evict
//! each other on every lookup (each sees the other's preimage as a
//! [`CacheError::KeyMismatch`]), so collisions must be negligible, not
//! merely rare.
//!
//! # Totality
//!
//! Every read is total. A truncated, bit-flipped, wrong-schema, or
//! wrong-key entry decodes to a typed [`CacheError`]; the convenience
//! path [`ResultCache::lookup`] additionally evicts the corrupt file
//! and reports a miss, so callers fall back to recomputation — never a
//! panic, never stale bytes. I/O failures are the one exception to
//! eviction: they may be transient and say nothing about the entry's
//! content, so they miss without unlinking. This module is in
//! rv-lint's panic-free zone.
//!
//! ```no_run
//! use rv_core::cache::ResultCache;
//! use rv_core::shard::{CampaignSpec, SolverSpec};
//! use rv_model::TargetClass;
//! use std::sync::Arc;
//!
//! let cache = Arc::new(ResultCache::open("cache-dir").unwrap());
//! let spec = CampaignSpec::new(SolverSpec::Aur, vec![TargetClass::Type3], 60_000);
//! assert!(cache.lookup(&spec, 42, &(0..100)).is_none()); // cold
//! ```

use crate::batch::{RunRecord, StatsAccumulator};
use crate::shard::{push_record_lines, CampaignSpec, UnitReader};
use crate::wire::{self, WireError};
use std::fmt;
use std::fs;
use std::io::{self, IoSlice, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Folds `bytes` into an FNV-1a state.
fn fnv1a(mut state: u128, bytes: &[u8]) -> u128 {
    for &b in bytes {
        state ^= b as u128;
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// The content address of one cached shard: a 128-bit FNV-1a hash of
/// the canonical `campaign_spec` wire bytes plus `(seed, start, end)`.
/// 128 bits keep accidental collisions between live keys negligible;
/// see the module docs ("Key derivation") for why that matters.
///
/// Displayed (and used as the entry file stem) as 32 lowercase hex
/// digits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(u128);

impl CacheKey {
    /// Derives the key for `(spec, seed, range)`.
    pub fn derive(spec: &CampaignSpec, seed: u64, range: &Range<usize>) -> CacheKey {
        CacheKey::of_line(&wire::encode_campaign_spec(spec, seed), seed, range)
    }

    /// The key over an already encoded canonical `campaign_spec` line.
    fn of_line(line: &str, seed: u64, range: &Range<usize>) -> CacheKey {
        let mut state = fnv1a(FNV_OFFSET, line.as_bytes());
        state = fnv1a(state, &seed.to_le_bytes());
        state = fnv1a(state, &(range.start as u64).to_le_bytes());
        state = fnv1a(state, &(range.end as u64).to_le_bytes());
        CacheKey(state)
    }

    /// The entry file name this key addresses (`<32 hex digits>.jsonl`).
    pub fn file_name(&self) -> String {
        format!("{:032x}.jsonl", self.0)
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Why a cache operation failed. Every variant is recoverable by
/// recomputing the shard; [`ResultCache::lookup`] does exactly that
/// (evict, then miss).
#[derive(Debug)]
pub enum CacheError {
    /// The cache directory path exists but is not a directory.
    NotADirectory {
        /// The offending path.
        path: PathBuf,
    },
    /// An I/O operation on a cache file failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// A line in an entry failed schema-3 decoding (bit-flip, wrong
    /// schema, truncation mid-line, …).
    Wire {
        /// The entry file.
        path: PathBuf,
        /// One-based line number of the offending line.
        line: usize,
        /// The underlying wire error.
        source: WireError,
    },
    /// The entry ended before the full record range and the closing
    /// `unit_done` line arrived (truncation at a line boundary).
    Truncated {
        /// The entry file.
        path: PathBuf,
        /// What was missing.
        what: String,
    },
    /// The entry's stored `campaign_spec` preimage does not match the
    /// key being looked up — a hash collision or a tampered entry.
    KeyMismatch {
        /// The entry file.
        path: PathBuf,
        /// What disagreed.
        what: String,
    },
    /// The entry decoded but its shape is wrong: unexpected line kind,
    /// out-of-range or out-of-order record index, a record count or
    /// `unit_done` start that does not match the range — or, on
    /// [`ResultCache::store`], inputs that do not cover the range.
    Layout {
        /// The entry file.
        path: PathBuf,
        /// What was malformed.
        what: String,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::NotADirectory { path } => {
                write!(f, "cache path {} is not a directory", path.display())
            }
            CacheError::Io { path, source } => {
                write!(f, "cache I/O on {} failed: {source}", path.display())
            }
            CacheError::Wire { path, line, source } => write!(
                f,
                "cache entry {} line {line} failed to decode: {source}",
                path.display()
            ),
            CacheError::Truncated { path, what } => {
                write!(f, "cache entry {} is truncated: {what}", path.display())
            }
            CacheError::KeyMismatch { path, what } => {
                write!(f, "cache entry {} key mismatch: {what}", path.display())
            }
            CacheError::Layout { path, what } => {
                write!(f, "cache entry {} is malformed: {what}", path.display())
            }
        }
    }
}

impl std::error::Error for CacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheError::Io { source, .. } => Some(source),
            CacheError::Wire { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// One finished shard: its records, sorted and contiguous over the
/// shard's range, and the accumulator folded from them. What a cache
/// load returns, and what the executors hold per gathered unit.
#[derive(Clone, Debug)]
pub struct CachedShard {
    /// The shard's records, `(global index, record)` in index order.
    pub records: Vec<(usize, RunRecord)>,
    /// The shard's mergeable accumulator, folded from `records`.
    pub acc: StatsAccumulator,
}

impl CachedShard {
    /// The shard over `records` (in index order), with its accumulator
    /// folded from them.
    pub(crate) fn of(records: Vec<(usize, RunRecord)>) -> CachedShard {
        let acc = StatsAccumulator::of(records.iter().map(|(_, rec)| rec));
        CachedShard { records, acc }
    }
}

/// Counters describing a cache's traffic since it was opened. Snapshot
/// via [`ResultCache::stats`]; all counts are monotone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that replayed a valid entry.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Entries written (published via rename).
    pub stores: u64,
    /// Corrupt entries removed by [`ResultCache::lookup`].
    pub evictions: u64,
}

/// A content-addressed store of finished campaign shards in one
/// directory. Cheap to share (`Arc`) between executors; all operations
/// take `&self` and are safe under concurrent use from multiple threads
/// *and* multiple processes (writes are tmp-file + atomic rename).
pub struct ResultCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
    tmp_counter: AtomicU64,
}

impl fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultCache")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory at `dir`.
    ///
    /// Fails with [`CacheError::NotADirectory`] when `dir` exists but is
    /// not a directory, and with [`CacheError::Io`] when it cannot be
    /// created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ResultCache, CacheError> {
        let dir = dir.into();
        if dir.exists() && !dir.is_dir() {
            return Err(CacheError::NotADirectory { path: dir });
        }
        fs::create_dir_all(&dir).map_err(|source| CacheError::Io {
            path: dir.clone(),
            source,
        })?;
        Ok(ResultCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            tmp_counter: AtomicU64::new(0),
        })
    }

    /// The directory this cache stores entries in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A snapshot of the traffic counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// The path an entry for `key` would live at.
    pub fn entry_path(&self, key: CacheKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Loads and fully validates the entry for `(spec, seed, range)`.
    ///
    /// `Ok(None)` is a miss (no entry). `Err` means an entry exists but
    /// cannot be trusted — the typed error says why; the file is left in
    /// place (use [`ResultCache::lookup`] for the evict-and-recompute
    /// path, or [`ResultCache::evict`] explicitly).
    pub fn load(
        &self,
        spec: &CampaignSpec,
        seed: u64,
        range: &Range<usize>,
    ) -> Result<Option<CachedShard>, CacheError> {
        let spec_line = wire::encode_campaign_spec(spec, seed);
        let path = self.entry_path(CacheKey::of_line(&spec_line, seed, range));
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(source) => return Err(CacheError::Io { path, source }),
        };
        self.decode_entry(&path, &text, &spec_line, range).map(Some)
    }

    /// Decodes and validates one entry body against the expected
    /// canonical `campaign_spec` line and range.
    fn decode_entry(
        &self,
        path: &Path,
        text: &str,
        expected_spec_line: &str,
        range: &Range<usize>,
    ) -> Result<CachedShard, CacheError> {
        let layout = |what: String| CacheError::Layout {
            path: path.to_path_buf(),
            what,
        };
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());

        let Some((_, first)) = lines.next() else {
            return Err(CacheError::Truncated {
                path: path.to_path_buf(),
                what: "empty entry (no campaign_spec preimage line)".into(),
            });
        };
        // The preimage check is byte equality against the canonical
        // encoding — strictly stronger than re-hashing, and what makes a
        // colliding or renamed entry a typed error instead of stale bytes.
        if first != expected_spec_line {
            // Decode it anyway so a bit-flipped preimage surfaces as the
            // more precise Wire error when it no longer parses at all.
            if let Err(source) = wire::decode_campaign_spec(first) {
                return Err(CacheError::Wire {
                    path: path.to_path_buf(),
                    line: 1,
                    source,
                });
            }
            return Err(CacheError::KeyMismatch {
                path: path.to_path_buf(),
                what: "stored campaign_spec preimage differs from the requested key".into(),
            });
        }

        // The body is a unit body, read by the one reader workers'
        // answers go through; nothing may follow its `unit_done` line.
        let mut body = UnitReader::new(range.clone());
        let mut shard = None;
        for (idx, line) in lines {
            if shard.is_some() {
                return Err(layout("lines after the unit_done line".into()));
            }
            let line = wire::decode_line(line).map_err(|source| CacheError::Wire {
                path: path.to_path_buf(),
                line: idx + 1,
                source,
            })?;
            shard = body.push(line).map_err(layout)?;
        }
        match shard {
            Some((_, shard)) => Ok(shard),
            None => Err(CacheError::Truncated {
                path: path.to_path_buf(),
                what: format!(
                    "no unit_done line after {} of {} records",
                    body.taken(),
                    range.len()
                ),
            }),
        }
    }

    /// The total convenience path executors use: load, treating a
    /// corrupt entry as a miss after evicting it. Never fails, never
    /// panics; counts a hit, a miss, or a miss + eviction.
    ///
    /// Only *content* errors (`Wire`, `Truncated`, `KeyMismatch`,
    /// `Layout`) evict: the file itself is the problem and recompute
    /// will republish it. An [`CacheError::Io`] failure may be
    /// transient (EACCES, EMFILE, an interrupted read) over a perfectly
    /// valid entry, so it is a plain miss that leaves the file alone.
    pub fn lookup(
        &self,
        spec: &CampaignSpec,
        seed: u64,
        range: &Range<usize>,
    ) -> Option<CachedShard> {
        match self.load(spec, seed, range) {
            Ok(Some(hit)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(hit)
            }
            Ok(None) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(err) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if !matches!(err, CacheError::Io { .. }) {
                    self.evict(CacheKey::derive(spec, seed, range));
                }
                None
            }
        }
    }

    /// Removes the entry for `key` (best-effort; missing is fine).
    pub fn evict(&self, key: CacheKey) {
        if fs::remove_file(self.entry_path(key)).is_ok() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether an entry for `(spec, seed, range)` exists: a stat of its
    /// path, nothing read or validated. An absent entry counts the miss
    /// its [`ResultCache::lookup`] would have counted, so probing every
    /// unit and then looking up the present ones counts exactly as
    /// looking up every unit. The pool's prepass probes first, hands
    /// the absent units to its workers at once, and loads the present
    /// ones while they run.
    pub fn probe(&self, spec: &CampaignSpec, seed: u64, range: &Range<usize>) -> bool {
        let present = self
            .entry_path(CacheKey::derive(spec, seed, range))
            .exists();
        if !present {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        present
    }

    /// Stores a finished shard for `(spec, seed, range)`.
    ///
    /// `records` must be the shard's full record list in index order and
    /// `acc` its accumulator — exactly what a validated gather holds.
    /// Only the records are written (a load folds the stats from them);
    /// `acc` is an input check. Inputs that do not cover the range in
    /// index order ([`UnitReader::check`]) are rejected with
    /// [`CacheError::Layout`] rather than poisoning the cache. The
    /// records are encoded once and published by the one path that
    /// writes entries.
    pub fn store(
        &self,
        spec: &CampaignSpec,
        seed: u64,
        range: &Range<usize>,
        records: &[(usize, RunRecord)],
        acc: &StatsAccumulator,
    ) -> Result<CacheKey, CacheError> {
        let mut checked = UnitReader::check(range.clone(), records.iter().map(|(i, _)| *i));
        if checked.is_ok() && acc.len() != range.len() {
            checked = Err(format!("a {}-record accumulator", acc.len()));
        }
        if let Err(what) = checked {
            return Err(CacheError::Layout {
                path: self.entry_path(CacheKey::derive(spec, seed, range)),
                what: format!("refusing to store a unit over {range:?}: {what}"),
            });
        }
        let mut lines = String::new();
        push_record_lines(&mut lines, records);
        self.store_lines(spec, seed, range, &lines)
    }

    /// Stores a finished shard for `(spec, seed, range)` from its encoded
    /// record lines: `lines` holds one `record` line per index of the
    /// range, in index order, each ending in `\n` — what a pool gather
    /// validated, byte for byte as the worker answered it. The one path
    /// that writes entries; crate-private, because it trusts the lines'
    /// indices to its callers, which have checked them.
    ///
    /// A line count that does not match the range is rejected with
    /// [`CacheError::Layout`]. The entry is written to a temporary file
    /// and published with an atomic rename, so concurrent readers (and
    /// writers racing on the same key, which by content addressing write
    /// identical bytes) are safe.
    pub(crate) fn store_lines(
        &self,
        spec: &CampaignSpec,
        seed: u64,
        range: &Range<usize>,
        lines: &str,
    ) -> Result<CacheKey, CacheError> {
        let mut head = wire::encode_campaign_spec(spec, seed);
        let key = CacheKey::of_line(&head, seed, range);
        let path = self.entry_path(key);
        let count = lines.bytes().filter(|&b| b == b'\n').count();
        if count != range.len() || !(lines.is_empty() || lines.ends_with('\n')) {
            return Err(CacheError::Layout {
                path,
                what: format!(
                    "refusing to store {count} record lines for a range of {}",
                    range.len()
                ),
            });
        }

        head.push('\n');
        let mut tail = String::new();
        wire::push_unit_done(&mut tail, 0, range.start);
        tail.push('\n');

        // Unique per process *and* per call, so concurrent writers never
        // share a temporary file.
        let tmp = self.dir.join(format!(
            ".{}.{}.{}.tmp",
            key.file_name(),
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed),
        ));
        let io_err = |path: &Path, source| CacheError::Io {
            path: path.to_path_buf(),
            source,
        };
        // One gathered write of the three parts: the record lines are
        // never copied into a body buffer.
        let written = fs::File::create(&tmp).and_then(|mut file| {
            let mut parts = [
                IoSlice::new(head.as_bytes()),
                IoSlice::new(lines.as_bytes()),
                IoSlice::new(tail.as_bytes()),
            ];
            let mut rest = &mut parts[..];
            while !rest.is_empty() {
                match file.write_vectored(rest) {
                    Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                    Ok(k) => IoSlice::advance_slices(&mut rest, k),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        });
        if let Err(e) = written {
            let _ = fs::remove_file(&tmp);
            return Err(io_err(&tmp, e));
        }
        if let Err(e) = fs::rename(&tmp, &path) {
            let _ = fs::remove_file(&tmp);
            return Err(io_err(&path, e));
        }
        self.stores.fetch_add(1, Ordering::Relaxed);
        Ok(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Executor, LocalExecutor};
    use crate::shard::SolverSpec;
    use crate::stream::{RecordSink, VecSink};
    use rv_model::TargetClass;
    use std::sync::Arc;

    fn spec() -> CampaignSpec {
        CampaignSpec::new(
            SolverSpec::Dedicated,
            vec![TargetClass::Type3, TargetClass::S1],
            30_000,
        )
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rv-cache-test-{tag}-{}-{:p}",
            std::process::id(),
            &tag
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn keys_are_stable_and_range_sensitive() {
        let spec = spec();
        let a = CacheKey::derive(&spec, 7, &(0..10));
        assert_eq!(a, CacheKey::derive(&spec, 7, &(0..10)));
        assert_ne!(a, CacheKey::derive(&spec, 8, &(0..10)));
        assert_ne!(a, CacheKey::derive(&spec, 7, &(0..11)));
        assert_ne!(a, CacheKey::derive(&spec, 7, &(1..10)));
        assert_eq!(a.file_name(), format!("{a}.jsonl"));
    }

    #[test]
    fn store_load_round_trips_and_counts() {
        let dir = tmp_dir("roundtrip");
        let cache = ResultCache::open(&dir).unwrap();
        let spec = spec();
        let report = spec.run_local(11, 6);
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
        assert!(cache.lookup(&spec, 11, &(0..6)).is_none(), "cold miss");
        cache.store(&spec, 11, &(0..6), &pairs, &acc).unwrap();
        let hit = cache.lookup(&spec, 11, &(0..6)).expect("warm hit");
        assert_eq!(hit.records.len(), 6);
        assert_eq!(hit.acc.finish().to_json(), report.stats.to_json());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_rejects_short_inputs() {
        let dir = tmp_dir("short");
        let cache = ResultCache::open(&dir).unwrap();
        let spec = spec();
        let err = cache
            .store(&spec, 1, &(0..3), &[], &StatsAccumulator::new())
            .unwrap_err();
        assert!(matches!(err, CacheError::Layout { .. }), "{err}");
        assert!(cache.lookup(&spec, 1, &(0..3)).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_rejects_records_of_another_range() {
        // Twelve records indexed 0..12 have the right count for 12..24
        // but not its indices: nothing may be written.
        let dir = tmp_dir("shifted");
        let cache = ResultCache::open(&dir).unwrap();
        let spec = spec();
        let records = spec.run_range(1, 0..12, 1);
        let acc = CachedShard::of(records.clone()).acc;
        let range = 12..24;
        let err = cache.store(&spec, 1, &range, &records, &acc).unwrap_err();
        assert!(matches!(err, CacheError::Layout { .. }), "{err}");
        let path = cache.entry_path(CacheKey::derive(&spec, 1, &range));
        assert!(!path.exists(), "no entry for a refused store");
        assert_eq!(cache.stats().stores, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn probe_counts_a_miss_only_for_an_absent_entry() {
        let dir = tmp_dir("probe");
        let cache = ResultCache::open(&dir).unwrap();
        let spec = spec();
        let report = spec.run_local(3, 4);
        let pairs: Vec<(usize, RunRecord)> = report.records.into_iter().enumerate().collect();
        assert!(!cache.probe(&spec, 3, &(0..4)), "cold");
        cache
            .store(
                &spec,
                3,
                &(0..4),
                &pairs,
                &CachedShard::of(pairs.clone()).acc,
            )
            .unwrap();
        assert!(cache.probe(&spec, 3, &(0..4)), "stored");
        assert!(cache.lookup(&spec, 3, &(0..4)).is_some());
        // A probe plus a lookup of the present entry count as one lookup.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_lines_rejects_a_line_count_off_the_range() {
        let dir = tmp_dir("lines");
        let cache = ResultCache::open(&dir).unwrap();
        let spec = spec();
        let line = wire::encode_record(0, &spec.run_local(1, 1).records[0]);
        for lines in [String::new(), format!("{line}\n{line}\n"), line.clone()] {
            let err = cache.store_lines(&spec, 1, &(0..1), &lines).unwrap_err();
            assert!(matches!(err, CacheError::Layout { .. }), "{err}");
        }
        cache
            .store_lines(&spec, 1, &(0..1), &format!("{line}\n"))
            .unwrap();
        assert_eq!(cache.lookup(&spec, 1, &(0..1)).unwrap().records.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_rejects_files() {
        let dir = tmp_dir("notdir");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("plain-file");
        fs::write(&file, b"x").unwrap();
        let err = ResultCache::open(&file).unwrap_err();
        assert!(matches!(err, CacheError::NotADirectory { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_executor_replays_byte_identically() {
        let dir = tmp_dir("cached-exec");
        let spec = spec();
        let baseline = spec.run_local(5, 12);
        let cache = Arc::new(ResultCache::open(&dir).unwrap());
        let exec = LocalExecutor::new().cache(Arc::clone(&cache));
        assert_eq!(exec.name(), "local");

        let cold = exec.execute(&spec, 5, 12, None).unwrap();
        assert_eq!(cold.stats.to_json(), baseline.stats.to_json());
        assert_eq!(cache.stats().stores, 1);

        let sink = Arc::new(VecSink::new());
        let warm = exec
            .execute(&spec, 5, 12, Some(sink.clone() as Arc<dyn RecordSink>))
            .unwrap();
        assert_eq!(warm.stats.to_json(), baseline.stats.to_json());
        assert_eq!(
            format!("{:?}", warm.records),
            format!("{:?}", baseline.records)
        );
        let seen = sink.take_sorted();
        assert_eq!(seen.len(), 12, "exactly once per index on replay");
        assert_eq!(cache.stats().hits, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
