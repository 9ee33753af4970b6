//! Persistent content-addressed result store: an append-only log plus
//! an index file under a store directory, keyed by
//! [`config_digest`](indexmac::digest::config_digest), with an
//! in-memory LRU front.
//!
//! # On-disk format
//!
//! `results.log` is a sequence of self-framing records, one per line:
//!
//! ```text
//! <digest:32 hex> <payload_len:decimal> <fnv64:16 hex> <payload JSON>\n
//! ```
//!
//! The payload is the compact-JSON [`encode_cell_result`] record; the
//! checksum is FNV-1a-64 over the payload bytes. Appends go straight to
//! the log (append-only — a record is never rewritten in place), so a
//! crash can only damage the *tail*. Recovery on open validates records
//! front to back and truncates the log at the first bad frame: a
//! clipped or corrupt tail costs exactly the unflushed entries, which
//! become cache misses — never a panic, never a wrong result.
//!
//! `index.json` is a rebuildable acceleration structure:
//! `{"version":1,"log_bytes":N,"entries":[["<digest>",offset,len],…]}`,
//! written atomically (temp file + rename). On open, an index whose
//! `log_bytes` matches a prefix of the log skips re-validating that
//! prefix; the tail past `log_bytes` (appends that raced a crash) is
//! scanned and re-indexed. Any mismatch falls back to a full scan — the
//! log is always the ground truth.

use indexmac::digest::Digest;
use indexmac::record::{decode_cell_result, encode_cell_result};
use indexmac::sweep::CellResult;
use serde::Value;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

/// Default capacity of the in-memory LRU front (decoded results).
pub const DEFAULT_LRU_CAPACITY: usize = 1024;

/// How many appends between automatic index rewrites. The index is an
/// accelerator, not a durability requirement, so batching is safe.
const INDEX_EVERY_PUTS: usize = 256;

/// Counters the service's `GET /stats` route reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Gets served from the in-memory LRU front.
    pub lru_hits: u64,
    /// Gets served by reading + decoding a log record.
    pub disk_hits: u64,
    /// Gets that found nothing (or an undecodable record).
    pub misses: u64,
    /// Records appended this session.
    pub puts: u64,
    /// Records currently indexed.
    pub entries: usize,
    /// Results currently resident in the LRU front.
    pub lru_entries: usize,
    /// Bytes in the append-only log.
    pub log_bytes: u64,
    /// Bytes truncated from a damaged log tail during recovery.
    pub recovered_bytes: u64,
}

impl StoreStats {
    /// Total gets served without simulating (LRU + disk).
    pub fn hits(&self) -> u64 {
        self.lru_hits + self.disk_hits
    }
}

/// FNV-1a-64 over `bytes` — the per-record checksum.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut state: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

/// In-memory LRU front: digest → decoded result, evicting the
/// least-recently-used entry past `capacity`. Linear-scan eviction is
/// fine at the default capacity (eviction is rare and off the hot
/// path; hits are a `HashMap` probe plus a tick bump).
struct LruFront {
    entries: HashMap<Digest, (CellResult, u64)>,
    capacity: usize,
    tick: u64,
}

impl LruFront {
    fn new(capacity: usize) -> Self {
        Self {
            entries: HashMap::new(),
            capacity,
            tick: 0,
        }
    }

    fn get(&mut self, digest: Digest) -> Option<CellResult> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&digest).map(|(result, stamp)| {
            *stamp = tick;
            result.clone()
        })
    }

    fn insert(&mut self, digest: Digest, result: CellResult) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        self.entries.insert(digest, (result, self.tick));
        if self.entries.len() > self.capacity {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(d, _)| *d)
                .expect("non-empty map");
            self.entries.remove(&oldest);
        }
    }
}

/// digest → (payload offset, payload length) into the log.
type LogIndex = HashMap<Digest, (u64, u32)>;

/// The persistent store: log + index + LRU front. Not internally
/// synchronised — the daemon wraps it in a `Mutex`.
pub struct ResultStore {
    dir: PathBuf,
    /// Append handle, always positioned at the log tail.
    log: File,
    log_bytes: u64,
    index: LogIndex,
    lru: LruFront,
    puts_since_index: usize,
    stats: StoreStats,
}

impl ResultStore {
    /// Opens (creating if absent) the store under `dir`, recovering
    /// from any damaged log tail.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (permissions, full disk). Damaged
    /// *content* is never an error: corrupt records are truncated away
    /// and surface as cache misses.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        Self::open_with_lru(dir, DEFAULT_LRU_CAPACITY)
    }

    /// [`ResultStore::open`] with an explicit LRU capacity (0 disables
    /// the memory front — every hit reads the log).
    pub fn open_with_lru(dir: impl Into<PathBuf>, lru_capacity: usize) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let log_path = dir.join("results.log");
        let mut log = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&log_path)?;

        let mut bytes = Vec::new();
        log.seek(SeekFrom::Start(0))?;
        log.read_to_end(&mut bytes)?;

        let mut store = Self {
            dir,
            log,
            log_bytes: 0,
            index: HashMap::new(),
            lru: LruFront::new(lru_capacity),
            puts_since_index: 0,
            stats: StoreStats::default(),
        };

        // Fast path: trust the index over the log prefix it covers.
        let mut scan_from = 0u64;
        if let Some((indexed_bytes, entries)) = store.load_index() {
            if indexed_bytes as usize <= bytes.len() {
                store.index = entries;
                scan_from = indexed_bytes;
            }
        }
        let good_end = store.scan_log(&bytes, scan_from);
        if (good_end as usize) < bytes.len() {
            // Damaged tail: truncate it away so the log is clean for
            // future appends, and remember how much was lost.
            store.stats.recovered_bytes = bytes.len() as u64 - good_end;
            store.log.set_len(good_end)?;
            store.log.seek(SeekFrom::End(0))?;
        }
        store.log_bytes = good_end;
        if scan_from != good_end || store.stats.recovered_bytes > 0 {
            store.write_index()?;
        }
        store.refresh_stats();
        Ok(store)
    }

    /// Validates log records in `bytes` starting at `from`, adding each
    /// good record to the index. Returns the end offset of the last
    /// good record (everything past it is a damaged tail).
    fn scan_log(&mut self, bytes: &[u8], from: u64) -> u64 {
        let mut pos = from as usize;
        loop {
            match parse_record(bytes, pos) {
                Some((digest, payload_off, payload_len, next)) => {
                    self.index
                        .insert(digest, (payload_off as u64, payload_len as u32));
                    pos = next;
                }
                None => return pos as u64,
            }
        }
    }

    fn index_path(&self) -> PathBuf {
        self.dir.join("index.json")
    }

    /// Path of the append-only log (exposed for tests and tooling).
    pub fn log_path(&self) -> PathBuf {
        self.dir.join("results.log")
    }

    /// Parses `index.json`; `None` for missing/corrupt/mismatched
    /// versions (the caller falls back to a full log scan).
    fn load_index(&self) -> Option<(u64, LogIndex)> {
        let text = fs::read_to_string(self.index_path()).ok()?;
        let v = serde_json::from_str(&text).ok()?;
        if v.get("version")?.as_u64()? != 1 {
            return None;
        }
        let log_bytes = v.get("log_bytes")?.as_u64()?;
        let mut entries = HashMap::new();
        for entry in v.get("entries")?.as_array()? {
            let row = entry.as_array()?;
            if row.len() != 3 {
                return None;
            }
            let digest: Digest = row[0].as_str()?.parse().ok()?;
            let offset = row[1].as_u64()?;
            let len = u32::try_from(row[2].as_u64()?).ok()?;
            if offset + u64::from(len) > log_bytes {
                return None;
            }
            entries.insert(digest, (offset, len));
        }
        Some((log_bytes, entries))
    }

    /// Atomically rewrites `index.json` (temp file + rename), so a
    /// crash mid-write leaves either the old or the new index — never
    /// a torn one.
    fn write_index(&mut self) -> std::io::Result<()> {
        let mut entries: Vec<(&Digest, &(u64, u32))> = self.index.iter().collect();
        entries.sort_by_key(|(_, (offset, _))| *offset);
        let value = Value::object([
            ("version", Value::UInt(1)),
            ("log_bytes", Value::UInt(self.log_bytes)),
            (
                "entries",
                Value::Array(
                    entries
                        .into_iter()
                        .map(|(digest, (offset, len))| {
                            Value::Array(vec![
                                Value::Str(digest.to_string()),
                                Value::UInt(*offset),
                                Value::UInt(u64::from(*len)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let text = serde_json::to_string(&value).expect("shim serialization is total");
        let tmp = self.dir.join("index.json.tmp");
        let mut f = File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
        fs::rename(&tmp, self.index_path())?;
        self.puts_since_index = 0;
        Ok(())
    }

    /// Looks `digest` up: LRU front first, then the log. A record that
    /// fails checksum or decode is a miss (the store never panics on
    /// damaged content).
    pub fn get(&mut self, digest: Digest) -> Option<CellResult> {
        if let Some(result) = self.lru.get(digest) {
            self.stats.lru_hits += 1;
            return Some(result);
        }
        let Some(&(offset, len)) = self.index.get(&digest) else {
            self.stats.misses += 1;
            return None;
        };
        match self.read_record(offset, len) {
            Some(result) => {
                self.stats.disk_hits += 1;
                self.lru.insert(digest, result.clone());
                self.refresh_stats();
                Some(result)
            }
            None => {
                // Undecodable despite being indexed (e.g. version skew):
                // drop the entry so later gets miss cheaply.
                self.index.remove(&digest);
                self.stats.misses += 1;
                self.refresh_stats();
                None
            }
        }
    }

    /// Reads, checksums and decodes one payload from the log without
    /// moving the append cursor. The frame checksum sits in the 17
    /// bytes before the payload (`<fnv64:16hex><space>`), so indexed
    /// reads re-verify integrity even when the open-time scan trusted
    /// the index over this log prefix.
    fn read_record(&mut self, offset: u64, len: u32) -> Option<CellResult> {
        const CHECK: usize = 17;
        if offset < CHECK as u64 {
            return None;
        }
        let mut buf = vec![0u8; CHECK + len as usize];
        let end = self.log.seek(SeekFrom::End(0)).ok()?;
        self.log.seek(SeekFrom::Start(offset - CHECK as u64)).ok()?;
        let read = self.log.read_exact(&mut buf);
        self.log.seek(SeekFrom::Start(end)).ok()?;
        read.ok()?;
        let stored = std::str::from_utf8(&buf[..CHECK - 1]).ok()?;
        let stored = u64::from_str_radix(stored, 16).ok()?;
        let payload = &buf[CHECK..];
        if fnv64(payload) != stored {
            return None;
        }
        let text = std::str::from_utf8(payload).ok()?;
        decode_cell_result(&serde_json::from_str(text).ok()?).ok()
    }

    /// Whether `digest` is present (indexed) without touching LRU order
    /// or stats.
    pub fn contains(&self, digest: Digest) -> bool {
        self.index.contains_key(&digest)
    }

    /// Appends one result under `digest` and indexes it. Overwriting an
    /// existing digest appends a new record and repoints the index (the
    /// old record becomes dead weight in the log — append-only).
    ///
    /// # Errors
    ///
    /// Propagates log/index write failures.
    pub fn put(&mut self, digest: Digest, result: &CellResult) -> std::io::Result<()> {
        let payload = serde_json::to_string(&encode_cell_result(result))
            .expect("shim serialization is total");
        let payload = payload.as_bytes();
        let header = format!("{digest} {} {:016x} ", payload.len(), fnv64(payload));
        let payload_offset = self.log_bytes + header.len() as u64;

        let mut frame = Vec::with_capacity(header.len() + payload.len() + 1);
        frame.extend_from_slice(header.as_bytes());
        frame.extend_from_slice(payload);
        frame.push(b'\n');
        self.log.write_all(&frame)?;
        self.log_bytes += frame.len() as u64;

        self.index
            .insert(digest, (payload_offset, payload.len() as u32));
        self.lru.insert(digest, result.clone());
        self.stats.puts += 1;
        self.puts_since_index += 1;
        if self.puts_since_index >= INDEX_EVERY_PUTS {
            self.write_index()?;
        }
        self.refresh_stats();
        Ok(())
    }

    /// Flushes the log to the OS and rewrites the index.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.log.sync_all()?;
        self.write_index()
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    fn refresh_stats(&mut self) {
        self.stats.entries = self.index.len();
        self.stats.lru_entries = self.lru.entries.len();
        self.stats.log_bytes = self.log_bytes;
    }
}

impl Drop for ResultStore {
    fn drop(&mut self) {
        // Best-effort index persistence; the log is already durable.
        let _ = self.flush();
    }
}

/// Parses one framed record at `pos`. Returns
/// `(digest, payload_offset, payload_len, next_record_offset)` or
/// `None` if the bytes at `pos` are not a complete valid record.
fn parse_record(bytes: &[u8], pos: usize) -> Option<(Digest, usize, usize, usize)> {
    // Header: 32 hex + ' ' + decimal len + ' ' + 16 hex + ' '.
    let digest_end = pos.checked_add(32)?;
    let digest: Digest = std::str::from_utf8(bytes.get(pos..digest_end)?)
        .ok()?
        .parse()
        .ok()?;
    if bytes.get(digest_end) != Some(&b' ') {
        return None;
    }
    let len_start = digest_end + 1;
    let len_end = len_start + bytes.get(len_start..)?.iter().position(|&b| b == b' ')?;
    let payload_len: usize = std::str::from_utf8(&bytes[len_start..len_end])
        .ok()?
        .parse()
        .ok()?;
    let sum_start = len_end + 1;
    let sum_end = sum_start.checked_add(16)?;
    let checksum = u64::from_str_radix(
        std::str::from_utf8(bytes.get(sum_start..sum_end)?).ok()?,
        16,
    )
    .ok()?;
    if bytes.get(sum_end) != Some(&b' ') {
        return None;
    }
    let payload_start = sum_end + 1;
    let payload_end = payload_start.checked_add(payload_len)?;
    let payload = bytes.get(payload_start..payload_end)?;
    if bytes.get(payload_end) != Some(&b'\n') {
        return None;
    }
    if fnv64(payload) != checksum {
        return None;
    }
    Some((digest, payload_start, payload_len, payload_end + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use indexmac::digest::config_digest;
    use indexmac::experiment::ExperimentConfig;
    use indexmac::kernels::GemmDims;
    use indexmac::sparse::NmPattern;
    use indexmac::sweep::{run_cell, SweepGrid};

    /// A unique temp dir per test (no tempfile crate offline).
    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("indexmac-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample(count: usize) -> Vec<(Digest, CellResult)> {
        let cfg = ExperimentConfig::fast();
        let grid = SweepGrid::new(
            NmPattern::EVALUATED.to_vec(),
            (0..count.div_ceil(2))
                .map(|i| GemmDims {
                    rows: 4 + i,
                    inner: 32,
                    cols: 16,
                })
                .collect(),
        );
        grid.cells()
            .into_iter()
            .take(count)
            .map(|cell| (config_digest(&cell, &cfg), run_cell(cell, &cfg).unwrap()))
            .collect()
    }

    #[test]
    fn put_get_round_trip_and_reopen() {
        let dir = temp_dir("roundtrip");
        let samples = sample(4);
        {
            let mut store = ResultStore::open(&dir).unwrap();
            assert!(store.is_empty());
            for (digest, result) in &samples {
                store.put(*digest, result).unwrap();
            }
            assert_eq!(store.len(), 4);
            for (digest, result) in &samples {
                assert_eq!(store.get(*digest).as_ref(), Some(result));
            }
            assert_eq!(store.stats().lru_hits, 4, "warm gets hit the LRU");
        }
        // Reopen: everything survives, served from disk first.
        let mut store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 4);
        for (digest, result) in &samples {
            assert_eq!(store.get(*digest).as_ref(), Some(result));
        }
        assert_eq!(store.stats().disk_hits, 4);
        // Second pass is LRU-warm.
        for (digest, _) in &samples {
            assert!(store.get(*digest).is_some());
        }
        assert_eq!(store.stats().lru_hits, 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clipped_log_tail_is_a_miss_not_a_panic() {
        // Thousands of reopens, each of which syncs the log and index:
        // keep them in memory-backed storage where the host has it.
        let shm = std::path::Path::new("/dev/shm");
        let dir = if shm.is_dir() {
            shm.join(format!("indexmac-store-clipped-{}", std::process::id()))
        } else {
            temp_dir("clipped")
        };
        let samples = sample(4);
        let (logged, (extra_digest, extra)) = (&samples[..3], &samples[3]);
        let (log, index) = {
            let mut store = ResultStore::open(&dir).unwrap();
            for (digest, result) in logged {
                store.put(*digest, result).unwrap();
            }
            store.flush().unwrap();
            let log = fs::read(store.log_path()).unwrap();
            (log, fs::read(store.index_path()).unwrap())
        };
        // End offset of each record (compact JSON payloads hold no
        // newline, so every `\n` closes a frame).
        let ends: Vec<usize> = (1..=log.len()).filter(|&i| log[i - 1] == b'\n').collect();
        assert_eq!(ends.len(), 3);

        // A torn write can stop at any byte, with or without an index
        // that still describes the whole log.
        for cut in 0..=log.len() {
            for with_index in [false, true] {
                fs::write(dir.join("results.log"), &log[..cut]).unwrap();
                if with_index {
                    fs::write(dir.join("index.json"), &index).unwrap();
                } else {
                    let _ = fs::remove_file(dir.join("index.json"));
                }
                let kept = ends.iter().filter(|&&end| end <= cut).count();
                let good_end = if kept == 0 { 0 } else { ends[kept - 1] };
                let at = format!("cut {cut}, index {with_index}");

                let mut store = ResultStore::open(&dir).unwrap();
                assert_eq!(store.len(), kept, "{at}");
                assert_eq!(
                    store.stats().recovered_bytes,
                    (cut - good_end) as u64,
                    "{at}"
                );
                for (i, (digest, result)) in logged.iter().enumerate() {
                    assert_eq!(
                        store.get(*digest).as_ref(),
                        (i < kept).then_some(result),
                        "{at}"
                    );
                }

                // The damaged tail was truncated: an append survives a
                // further reopen.
                store.put(*extra_digest, extra).unwrap();
                drop(store);
                let mut store = ResultStore::open(&dir).unwrap();
                assert_eq!(store.len(), kept + 1, "{at}");
                assert_eq!(store.stats().recovered_bytes, 0, "{at}: clean after repair");
                assert_eq!(store.get(*extra_digest).as_ref(), Some(extra), "{at}");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_payload_byte_is_dropped_by_checksum() {
        let dir = temp_dir("corrupt");
        let samples = sample(2);
        let log_path;
        {
            let mut store = ResultStore::open(&dir).unwrap();
            for (digest, result) in &samples {
                store.put(*digest, result).unwrap();
            }
            log_path = store.log_path();
        }
        let mut bytes = fs::read(&log_path).unwrap();
        // Flip one payload byte of the *second* record (past the first
        // record's full frame).
        let second_start = bytes
            .windows(1)
            .enumerate()
            .filter(|(_, w)| w[0] == b'\n')
            .map(|(i, _)| i + 1)
            .next()
            .unwrap();
        let target = second_start + 60;
        bytes[target] ^= 0x01;
        fs::write(&log_path, &bytes).unwrap();

        // Open trusts the index over its covered prefix, so both
        // records are still *indexed* — but reading the damaged one
        // fails its checksum and degrades to a miss.
        let mut store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2, "index still covers both records");
        assert!(store.get(samples[0].0).is_some());
        assert_eq!(store.get(samples[1].0), None, "checksum rejects the flip");
        assert_eq!(store.len(), 1, "the damaged record was de-indexed");

        // A fresh open with no index (full log scan) rejects it eagerly.
        fs::remove_file(dir.join("index.json")).unwrap();
        let mut store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1, "log scan stops at the bad frame");
        assert_eq!(store.get(samples[1].0), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_index_falls_back_to_log_scan() {
        let dir = temp_dir("staleindex");
        let samples = sample(3);
        {
            let mut store = ResultStore::open(&dir).unwrap();
            store.put(samples[0].0, &samples[0].1).unwrap();
        } // Drop writes index covering 1 record.
        {
            let mut store = ResultStore::open(&dir).unwrap();
            store.put(samples[1].0, &samples[1].1).unwrap();
            store.put(samples[2].0, &samples[2].1).unwrap();
            // Simulate a crash before the index rewrite: drop would
            // rewrite it, so clobber the index with the stale copy after.
            let stale = fs::read(dir.join("index.json")).unwrap();
            store.flush().unwrap();
            drop(store);
            fs::write(dir.join("index.json"), stale).unwrap();
        }
        // Index covers 1 record; the log has 3. The tail past the
        // indexed prefix is scanned back in.
        let mut store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 3);
        for (digest, result) in &samples {
            assert_eq!(store.get(*digest).as_ref(), Some(result));
        }
        // Garbage index: full scan still recovers everything.
        fs::write(dir.join("index.json"), b"not json").unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lru_front_evicts_least_recently_used() {
        let dir = temp_dir("lru");
        let samples = sample(3);
        let mut store = ResultStore::open_with_lru(&dir, 2).unwrap();
        for (digest, result) in &samples {
            store.put(*digest, result).unwrap();
        }
        assert_eq!(store.stats().lru_entries, 2);
        // Samples 1 and 2 are resident; 0 was evicted.
        assert!(store.get(samples[1].0).is_some());
        assert_eq!(store.stats().lru_hits, 1);
        assert!(store.get(samples[0].0).is_some(), "still served from disk");
        assert_eq!(store.stats().disk_hits, 1);
        // Reading 0 re-promoted it, evicting 2 (LRU).
        assert!(store.get(samples[2].0).is_some());
        assert_eq!(store.stats().disk_hits, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_and_missing_stores_open_clean() {
        let dir = temp_dir("empty");
        let mut store = ResultStore::open(&dir).unwrap();
        assert!(store.is_empty());
        let absent = config_digest(
            &SweepGrid::new(
                vec![NmPattern::P1_4],
                vec![GemmDims {
                    rows: 4,
                    inner: 32,
                    cols: 16,
                }],
            )
            .cells()[0],
            &ExperimentConfig::fast(),
        );
        assert_eq!(store.get(absent), None);
        assert_eq!(store.stats().misses, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
