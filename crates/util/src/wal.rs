//! Durable write-ahead log: fsync per append, or group commit.
//!
//! The serving tier acknowledges mutations to clients; an ack is a
//! durability promise, so the bytes backing it must be on disk **before**
//! the ack leaves the process. This module is the generic storage half of
//! that promise — opaque byte records in an append-only log — with the
//! crash-consistency discipline the workspace already trusts elsewhere:
//!
//! * **Record framing** is exactly the [`framing`] stream envelope
//!   (`[len][crc32(body)][body]`), so a WAL segment is a valid envelope
//!   stream and torn or bit-rotted records fail the same CRC the TCP
//!   protocols use.
//! * **Segments** are length-bounded files named by the sequence number
//!   of their first record (`wal-{seq:012}.seg`), each opened with a
//!   magic/version preamble; the log rotates to a fresh segment once the
//!   current one crosses the configured size.
//! * **Torn-tail recovery**: a crash mid-append leaves a partial frame at
//!   the end of the *newest* segment. [`Wal::open`] detects it (short or
//!   CRC-invalid frame), truncates the file back to the last whole
//!   record, and reports the truncation. Corruption anywhere *else* is
//!   not a torn tail — it means acknowledged records are gone, which is
//!   surfaced as a structured [`WalError::Corrupt`], never repaired
//!   silently.
//! * **Inline fsync** (`flush_interval_ms` 0, the default):
//!   [`Wal::append_durable`] fsyncs its record before returning. The
//!   serve pool serializes its appends, so a window could batch nothing.
//! * **Group commit** (`flush_interval_ms` > 0): a flusher thread fsyncs
//!   every interval and [`Wal::append_durable`] blocks until the covering
//!   fsync, one fsync amortizing every concurrent append in the window.
//! * **Fsync failure is fatal**: after a failed fsync the page cache
//!   state is unknowable ("fsyncgate"), so the log poisons itself — every
//!   waiting and future append returns [`WalError::SyncFailed`] — rather
//!   than retrying into silent data loss.
//! * **Snapshot compaction** reuses the atomic write-rename/keep-last-2
//!   discipline of `mrbc-net`'s checkpoint store: a snapshot covers a
//!   record prefix, fully-covered segments are deleted, and recovery is
//!   newest-valid-snapshot + remaining suffix (falling back to the older
//!   retained snapshot if the newest fails its CRC).
//! * A **generation counter** file increments on every writer open, so a
//!   restarted front-end can fence its predecessor out of a split-brain
//!   race (the Hello/Welcome generation exchange in `mrbc-serve`).
//!
//! Fault injection (`torn_at_rec`, `fsyncfail_ms`) is built in because
//! the chaos harness and the recovery property tests need to create
//! torn tails and failed fsyncs deterministically.

use crate::crc::crc32;
use crate::framing;
use crate::fsio;
use crate::wire::{WireReader, WireWriter};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

/// Magic prefix of a WAL segment file.
pub const WAL_MAGIC: u32 = 0x4C41_574D; // "MWAL"
/// Magic prefix of a snapshot file.
pub const SNAP_MAGIC: u32 = 0x5053_574D; // "MWSP"
/// Magic prefix of the generation counter file.
pub const GEN_MAGIC: u32 = 0x4E47_574D; // "MWGN"
/// On-disk format version of all three file kinds.
pub const WAL_VERSION: u32 = 1;
/// Snapshots retained (newest-first); older ones are pruned.
const KEEP_SNAPSHOTS: usize = 2;
/// Byte length of a segment preamble (`magic` + `version`).
const PREAMBLE_LEN: u64 = 8;

/// Tuning and fault-injection knobs for a [`Wal`].
#[derive(Clone, Debug)]
pub struct WalConfig {
    /// Group-commit window in milliseconds: acks wait at most this long
    /// for the covering fsync. `0` (default) = inline fsync per append.
    pub flush_interval_ms: u64,
    /// Rotate to a new segment once the current one exceeds this size.
    pub segment_bytes: u64,
    /// Fault injection: the append of this (1-based) record sequence
    /// number writes only half its frame and then fails, simulating a
    /// crash mid-write. The next open must truncate the torn tail.
    pub torn_at_rec: Option<u64>,
    /// Fault injection: any value above 0 makes the disk unsyncable from
    /// open, poisoning the log exactly as a real `EIO` from `fsync(2)` would.
    pub fsyncfail_ms: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            flush_interval_ms: 0,
            segment_bytes: 4 << 20,
            torn_at_rec: None,
            fsyncfail_ms: 0,
        }
    }
}

/// Structured WAL failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalError {
    /// Filesystem error (open, write, rename, ...).
    Io(String),
    /// Acknowledged records are unrecoverable: corruption *before* the
    /// tail of the newest segment, a missing segment in the middle of
    /// the sequence, or every retained snapshot failing its CRC.
    Corrupt(String),
    /// An fsync failed (really, or injected); the log is poisoned and
    /// no further append can be acknowledged.
    SyncFailed(String),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(m) => write!(f, "wal i/o error: {m}"),
            WalError::Corrupt(m) => write!(f, "wal corrupt: {m}"),
            WalError::SyncFailed(m) => write!(f, "wal fsync failed: {m}"),
        }
    }
}

impl std::error::Error for WalError {}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> WalError {
    WalError::Io(format!("{what} {}: {e}", path.display()))
}

/// For [`fsio`] errors, which already name their step and path.
impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e.to_string())
    }
}

/// What [`Wal::open`] recovered from the directory.
#[derive(Debug)]
pub struct Recovered {
    /// Newest valid snapshot: `(covered_seq, payload)`. Records with
    /// sequence number ≤ `covered_seq` were compacted into it.
    pub snapshot: Option<(u64, Vec<u8>)>,
    /// Log records after the snapshot, in append order. The first has
    /// sequence `covered_seq + 1`.
    pub records: Vec<Vec<u8>>,
    /// True if a torn tail (partial final frame) was truncated away.
    pub truncated_tail: bool,
    /// This opener's generation (monotonically increasing per open).
    pub generation: u64,
}

struct WalState {
    /// Current (newest) segment, opened for append.
    file: File,
    /// Byte length of the current segment.
    seg_len: u64,
    /// Sequence number of the last appended record (0 = none yet).
    appended: u64,
    /// Sequence number covered by the last successful fsync.
    durable: u64,
    /// Poison reason after a failed fsync or injected torn write.
    failed: Option<String>,
    /// Tells the flusher thread to do a final sync and exit.
    shutdown: bool,
}

struct Inner {
    dir: PathBuf,
    cfg: WalConfig,
    generation: u64,
    state: Mutex<WalState>,
    cv: Condvar,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, WalState> {
        // Poison-tolerance: a panicking appender must not wedge the log;
        // the durable/appended counters stay internally consistent.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fsyncs the current segment, failing it if `fsyncfail_ms` is set.
    /// On failure the log is poisoned and every waiter woken.
    fn sync_locked(&self, st: &mut WalState) -> Result<(), WalError> {
        if self.cfg.fsyncfail_ms > 0 {
            let msg = "injected fsync failure (fsyncfail fault)".to_string();
            st.failed = Some(msg.clone());
            self.cv.notify_all();
            return Err(WalError::SyncFailed(msg));
        }
        if let Err(e) = st.file.sync_data() {
            let msg = format!("fsync of segment in {}: {e}", self.dir.display());
            st.failed = Some(msg.clone());
            self.cv.notify_all();
            return Err(WalError::SyncFailed(msg));
        }
        st.durable = st.appended;
        self.cv.notify_all();
        Ok(())
    }
}

/// The write-ahead log. See the module docs for the on-disk layout and
/// the durability contract.
pub struct Wal {
    inner: Arc<Inner>,
    flusher: Option<thread::JoinHandle<()>>,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.inner.dir)
            .field("generation", &self.inner.generation)
            .finish_non_exhaustive()
    }
}

impl Wal {
    /// Opens (or creates) the log in `dir`, recovering the newest valid
    /// snapshot plus the record suffix, truncating a torn tail, and
    /// bumping the generation counter.
    pub fn open(dir: &Path, cfg: WalConfig) -> Result<(Wal, Recovered), WalError> {
        fs::create_dir_all(dir).map_err(|e| io_err("create", dir, &e))?;
        let generation = bump_generation(dir)?;
        let snapshot = load_latest_snapshot(dir)?;
        let covered = snapshot.as_ref().map_or(0, |(seq, _)| *seq);

        let segments = list_segments(dir)?;
        let mut records: Vec<Vec<u8>> = Vec::new();
        let mut next_seq = covered + 1;
        let mut truncated_tail = false;
        let mut last_path: Option<(PathBuf, u64)> = None; // (path, first_seq)
        for (i, &(first, ref path)) in segments.iter().enumerate() {
            let is_last = i + 1 == segments.len();
            let scanned = scan_segment(path, is_last)?;
            if is_last {
                truncated_tail = scanned.truncated;
            }
            // Contiguity: this segment's first record must not leave a
            // hole after the snapshot / previous segment.
            if first > next_seq && !(records.is_empty() && first <= covered + 1) {
                return Err(WalError::Corrupt(format!(
                    "segment {} starts at record {first}, expected ≤ {next_seq} \
                     (acknowledged records are missing)",
                    path.display()
                )));
            }
            for (off, body) in scanned.bodies.into_iter().enumerate() {
                let seq = first + off as u64;
                if seq >= next_seq {
                    records.push(body);
                    next_seq = seq + 1;
                }
            }
            if is_last {
                last_path = Some((path.clone(), first));
            }
        }
        let appended = next_seq - 1;

        // Open the newest segment for appending (creating the first one
        // on a fresh directory), and make any truncation durable before
        // acknowledging anything new on top of it.
        let (path, _first, seg_len) = match last_path {
            Some((path, first)) => {
                let len = fs::metadata(&path)
                    .map_err(|e| io_err("stat", &path, &e))?
                    .len();
                (path, first, len)
            }
            None => {
                let path = segment_path(dir, appended + 1);
                write_preamble_file(&path)?;
                (path, appended + 1, PREAMBLE_LEN)
            }
        };
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open", &path, &e))?;
        file.sync_data().map_err(|e| io_err("fsync", &path, &e))?;
        fsio::sync_dir(dir)?;

        let inner = Arc::new(Inner {
            dir: dir.to_path_buf(),
            generation,
            state: Mutex::new(WalState {
                file,
                seg_len,
                appended,
                durable: appended,
                failed: None,
                shutdown: false,
            }),
            cv: Condvar::new(),
            cfg,
        });
        let flusher = if inner.cfg.flush_interval_ms > 0 {
            let inner = Arc::clone(&inner);
            Some(thread::spawn(move || flusher_loop(&inner)))
        } else {
            None
        };
        Ok((
            Wal { inner, flusher },
            Recovered {
                snapshot,
                records,
                truncated_tail,
                generation,
            },
        ))
    }

    /// This opener's generation number.
    pub fn generation(&self) -> u64 {
        self.inner.generation
    }

    /// Sequence number covered by the last successful fsync.
    pub fn durable_seq(&self) -> u64 {
        self.inner.lock().durable
    }

    /// Appends `body` and blocks until it is fsync-covered, returning its
    /// sequence number. **The caller may acknowledge the record as soon
    /// as this returns** — that is the entire contract. Errors are
    /// permanent: a poisoned log never acknowledges again.
    pub fn append_durable(&self, body: &[u8]) -> Result<u64, WalError> {
        let inner = &*self.inner;
        let mut st = inner.lock();
        if let Some(msg) = &st.failed {
            return Err(WalError::SyncFailed(msg.clone()));
        }
        let seq = st.appended + 1;

        // Injected torn write: half a frame hits the disk, then the
        // "process" dies as far as this record is concerned.
        if inner.cfg.torn_at_rec == Some(seq) {
            let frame = framing::seal(body);
            let half = &frame[..frame.len() / 2];
            // lint: allow(blockunderlock): WAL ordering requires the file write under the append lock
            let _ = st.file.write_all(half);
            let _ = st.file.sync_data();
            let msg = format!("injected torn write at record {seq}");
            st.failed = Some(msg.clone());
            inner.cv.notify_all();
            return Err(WalError::SyncFailed(msg));
        }

        // Rotation: seal the current segment (fsync it so its records
        // are durable without waiting on the old file handle) and start
        // a new one named by this record's sequence number.
        if st.seg_len >= inner.cfg.segment_bytes {
            inner.sync_locked(&mut st)?;
            let path = segment_path(&inner.dir, seq);
            write_preamble_file(&path)?;
            let file = OpenOptions::new()
                .append(true)
                .open(&path)
                .map_err(|e| io_err("open", &path, &e))?;
            fsio::sync_dir(&inner.dir)?;
            st.file = file;
            st.seg_len = PREAMBLE_LEN;
        }

        let frame = framing::seal(body);
        // lint: allow(blockunderlock): WAL ordering requires the file write under the append lock
        if let Err(e) = st.file.write_all(&frame) {
            let msg = format!("append to segment in {}: {e}", inner.dir.display());
            st.failed = Some(msg.clone());
            inner.cv.notify_all();
            return Err(WalError::Io(msg));
        }
        st.appended = seq;
        st.seg_len += frame.len() as u64;

        if inner.cfg.flush_interval_ms == 0 {
            // Synchronous mode: fsync inline, no flusher involved.
            inner.sync_locked(&mut st)?;
            return Ok(seq);
        }
        // Group commit: wait for the flusher's covering fsync.
        while st.durable < seq && st.failed.is_none() {
            let (next, _timeout) = inner
                .cv
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner());
            st = next;
        }
        match &st.failed {
            Some(msg) => Err(WalError::SyncFailed(msg.clone())),
            None => Ok(seq),
        }
    }

    /// Writes a snapshot covering every record appended so far (fsyncing
    /// the log first so the snapshot never claims more than the disk
    /// holds), prunes to the newest [`KEEP_SNAPSHOTS`], and deletes
    /// fully-covered segments. Returns the covered sequence number.
    pub fn snapshot(&self, payload: &[u8]) -> Result<u64, WalError> {
        let inner = &*self.inner;
        let seq = {
            let mut st = inner.lock();
            if let Some(msg) = &st.failed {
                return Err(WalError::SyncFailed(msg.clone()));
            }
            if st.durable < st.appended {
                inner.sync_locked(&mut st)?;
            }
            st.appended
        };

        let mut w = WireWriter::with_capacity(24 + payload.len());
        w.u32(SNAP_MAGIC);
        w.u32(WAL_VERSION);
        w.u64(seq);
        w.u32(payload.len() as u32);
        w.u32(crc32(payload));
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(payload);

        fsio::write_atomic(
            &inner.dir,
            ".snap.tmp",
            &snapshot_path(&inner.dir, seq),
            &bytes,
        )?;

        // Prune old snapshots (keep the newest two for fallback).
        let mut snaps = list_snapshots(&inner.dir)?;
        snaps.sort_by_key(|&(s, _)| std::cmp::Reverse(s));
        for (_, old) in snaps.iter().skip(KEEP_SNAPSHOTS) {
            let _ = fs::remove_file(old);
        }
        // Compact: drop every non-current segment whose records are all
        // covered. A segment's records end where the next one begins.
        let segs = list_segments(&inner.dir)?;
        for pair in segs.windows(2) {
            let (_, ref path) = pair[0];
            let (next_first, _) = pair[1];
            if next_first <= seq + 1 {
                let _ = fs::remove_file(path);
            }
        }
        fsio::sync_dir(&inner.dir)?;
        Ok(seq)
    }

    /// Final fsync + flusher shutdown. Dropping the log does the same.
    pub fn close(mut self) -> Result<(), WalError> {
        self.close_impl()
    }

    fn close_impl(&mut self) -> Result<(), WalError> {
        {
            let mut st = self.inner.lock();
            st.shutdown = true;
            if st.failed.is_none() && st.durable < st.appended {
                self.inner.sync_locked(&mut st)?;
            }
        }
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
        Ok(())
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        let _ = self.close_impl();
    }
}

/// The group-commit flusher: one fsync per interval covers every append
/// in the window; waiters are woken via the condvar.
fn flusher_loop(inner: &Inner) {
    let interval = inner.cfg.flush_interval_ms;
    loop {
        thread::sleep(Duration::from_millis(interval));
        let mut st = inner.lock();
        if st.shutdown {
            return;
        }
        if st.failed.is_none() && st.durable < st.appended {
            let _ = inner.sync_locked(&mut st);
        }
    }
}

// ---------------------------------------------------------------------
// On-disk layout helpers
// ---------------------------------------------------------------------

fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("wal-{first_seq:012}.seg"))
}

fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:012}.bin"))
}

/// Creates a fresh segment file containing only the preamble.
fn write_preamble_file(path: &Path) -> Result<(), WalError> {
    let mut w = WireWriter::with_capacity(8);
    framing::write_preamble(&mut w, WAL_MAGIC, WAL_VERSION);
    let mut f = File::create(path).map_err(|e| io_err("create", path, &e))?;
    f.write_all(&w.into_bytes())
        .map_err(|e| io_err("write", path, &e))?;
    f.sync_data().map_err(|e| io_err("fsync", path, &e))?;
    Ok(())
}

/// Segment files in `dir`, sorted by first-record sequence number.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut out = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err("read dir", dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read dir", dir, &e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".seg"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((seq, entry.path()));
        }
    }
    out.sort_by_key(|&(seq, _)| seq);
    Ok(out)
}

/// Snapshot files in `dir` as `(covered_seq, path)`, unsorted.
fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut out = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err("read dir", dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read dir", dir, &e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name
            .strip_prefix("snap-")
            .and_then(|s| s.strip_suffix(".bin"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((seq, entry.path()));
        }
    }
    Ok(out)
}

/// Loads the newest snapshot that passes its CRC, falling back to the
/// older retained one; errors only if snapshots exist but *none* loads.
fn load_latest_snapshot(dir: &Path) -> Result<Option<(u64, Vec<u8>)>, WalError> {
    let mut snaps = list_snapshots(dir)?;
    if snaps.is_empty() {
        return Ok(None);
    }
    snaps.sort_by_key(|&(s, _)| std::cmp::Reverse(s));
    for (seq, path) in &snaps {
        let Ok(bytes) = fs::read(path) else { continue };
        let mut r = WireReader::new(&bytes);
        let ok = (|| {
            if r.u32().ok()? != SNAP_MAGIC || r.u32().ok()? != WAL_VERSION {
                return None;
            }
            let file_seq = r.u64().ok()?;
            if file_seq != *seq {
                return None;
            }
            let len = r.u32().ok()? as usize;
            let crc = r.u32().ok()?;
            let payload = r.rest();
            if payload.len() != len || crc32(payload) != crc {
                return None;
            }
            Some(payload.to_vec())
        })();
        if let Some(payload) = ok {
            return Ok(Some((*seq, payload)));
        }
    }
    Err(WalError::Corrupt(format!(
        "every retained snapshot in {} fails validation",
        dir.display()
    )))
}

struct ScannedSegment {
    bodies: Vec<Vec<u8>>,
    truncated: bool,
}

/// Reads one segment, validating the preamble and every record frame.
/// In the newest segment (`allow_torn_tail`) a short or CRC-invalid
/// final frame is a torn tail: the file is truncated back to the last
/// whole record. Anywhere else the same condition is corruption.
fn scan_segment(path: &Path, allow_torn_tail: bool) -> Result<ScannedSegment, WalError> {
    let bytes = fs::read(path).map_err(|e| io_err("read", path, &e))?;
    let mut r = WireReader::new(&bytes);
    framing::check_preamble(&mut r, WAL_MAGIC, WAL_VERSION)
        .map_err(|e| WalError::Corrupt(format!("{}: bad preamble: {e}", path.display())))?;

    let mut bodies = Vec::new();
    let mut good_end = PREAMBLE_LEN as usize;
    let mut torn: Option<String> = None;
    while good_end < bytes.len() {
        let rest = &bytes[good_end..];
        if rest.len() < 8 {
            torn = Some(format!("{}-byte partial frame header", rest.len()));
            break;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if !(5..=framing::MAX_ENVELOPE_BYTES).contains(&len) {
            torn = Some(format!("frame length {len} out of bounds"));
            break;
        }
        if rest.len() < 4 + len {
            torn = Some(format!(
                "frame needs {} bytes, {} remain",
                4 + len,
                rest.len()
            ));
            break;
        }
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        let body = &rest[8..4 + len];
        if crc32(body) != crc {
            torn = Some("frame checksum mismatch".to_string());
            break;
        }
        bodies.push(body.to_vec());
        good_end += 4 + len;
    }
    match torn {
        None => Ok(ScannedSegment {
            bodies,
            truncated: false,
        }),
        Some(why) if allow_torn_tail => {
            // Truncate the torn tail so the next append starts on a
            // whole-record boundary; the truncation is fsynced by open.
            let f = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| io_err("open", path, &e))?;
            f.set_len(good_end as u64)
                .map_err(|e| io_err("truncate", path, &e))?;
            f.sync_data().map_err(|e| io_err("fsync", path, &e))?;
            let _ = why;
            Ok(ScannedSegment {
                bodies,
                truncated: true,
            })
        }
        Some(why) => Err(WalError::Corrupt(format!(
            "{} at byte {good_end}: {why} (not the newest segment, so this \
             is not a torn tail — acknowledged records are unrecoverable)",
            path.display()
        ))),
    }
}

/// Reads, increments, and atomically rewrites the generation counter.
fn bump_generation(dir: &Path) -> Result<u64, WalError> {
    let path = dir.join("generation.bin");
    let prev = match fs::read(&path) {
        Ok(bytes) => {
            let mut r = WireReader::new(&bytes);
            (|| {
                if r.u32().ok()? != GEN_MAGIC {
                    return None;
                }
                let gen = r.u64().ok()?;
                let crc = r.u32().ok()?;
                (crc == crc32(&gen.to_le_bytes())).then_some(gen)
            })()
            .ok_or_else(|| {
                WalError::Corrupt(format!(
                    "generation file {} fails validation",
                    path.display()
                ))
            })?
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
        Err(e) => return Err(io_err("read", &path, &e)),
    };
    let gen = prev + 1;
    let mut w = WireWriter::with_capacity(16);
    w.u32(GEN_MAGIC);
    w.u64(gen);
    w.u32(crc32(&gen.to_le_bytes()));
    fsio::write_atomic(dir, ".generation.tmp", &path, &w.into_bytes())?;
    Ok(gen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::EnvelopeDecoder;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mrbc-wal-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sync_cfg() -> WalConfig {
        WalConfig {
            flush_interval_ms: 0,
            ..WalConfig::default()
        }
    }

    fn rec(i: u64) -> Vec<u8> {
        format!("record-{i}-{}", "x".repeat(i as usize % 7)).into_bytes()
    }

    #[test]
    fn append_reopen_recovers_in_order() {
        let dir = tmpdir("roundtrip");
        {
            let (wal, rec0) = Wal::open(&dir, sync_cfg()).expect("open");
            assert!(rec0.records.is_empty());
            assert!(rec0.snapshot.is_none());
            for i in 1..=5 {
                assert_eq!(wal.append_durable(&rec(i)).expect("append"), i);
            }
            assert_eq!(wal.durable_seq(), 5);
        }
        let (_wal, recovered) = Wal::open(&dir, sync_cfg()).expect("reopen");
        assert_eq!(recovered.records.len(), 5);
        for (i, body) in recovered.records.iter().enumerate() {
            assert_eq!(*body, rec(i as u64 + 1));
        }
        assert!(!recovered.truncated_tail);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_acks_are_durable() {
        let dir = tmpdir("groupcommit");
        {
            let cfg = WalConfig {
                flush_interval_ms: 2,
                ..WalConfig::default()
            };
            let (wal, _) = Wal::open(&dir, cfg).expect("open");
            for i in 1..=8 {
                let seq = wal.append_durable(&rec(i)).expect("append");
                // The contract: once append_durable returns, the record
                // is fsync-covered.
                assert!(wal.durable_seq() >= seq);
            }
        }
        let (_wal, recovered) = Wal::open(&dir, sync_cfg()).expect("reopen");
        assert_eq!(recovered.records.len(), 8);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmpdir("torn");
        {
            let (wal, _) = Wal::open(&dir, sync_cfg()).expect("open");
            for i in 1..=3 {
                wal.append_durable(&rec(i)).expect("append");
            }
        }
        // Simulate a crash mid-append: half a frame at the tail.
        let seg = segment_path(&dir, 1);
        let frame = framing::seal(&rec(4));
        let mut f = OpenOptions::new().append(true).open(&seg).expect("open");
        f.write_all(&frame[..frame.len() / 2]).expect("tear");
        drop(f);
        let (wal, recovered) = Wal::open(&dir, sync_cfg()).expect("reopen");
        assert!(recovered.truncated_tail, "torn tail must be reported");
        assert_eq!(recovered.records.len(), 3, "only whole records survive");
        // Appending after truncation lands on a clean boundary.
        assert_eq!(wal.append_durable(&rec(4)).expect("append"), 4);
        drop(wal);
        let (_w, again) = Wal::open(&dir, sync_cfg()).expect("reopen 2");
        assert_eq!(again.records.len(), 4);
        assert!(!again.truncated_tail);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_torn_write_fails_and_recovers_to_prefix() {
        let dir = tmpdir("torninject");
        {
            let cfg = WalConfig {
                flush_interval_ms: 0,
                torn_at_rec: Some(3),
                ..WalConfig::default()
            };
            let (wal, _) = Wal::open(&dir, cfg).expect("open");
            wal.append_durable(&rec(1)).expect("append 1");
            wal.append_durable(&rec(2)).expect("append 2");
            let err = wal.append_durable(&rec(3)).expect_err("torn append fails");
            assert!(matches!(err, WalError::SyncFailed(_)), "{err}");
            // Poisoned: later appends fail too, never silently succeed.
            assert!(wal.append_durable(&rec(4)).is_err());
        }
        let (_wal, recovered) = Wal::open(&dir, sync_cfg()).expect("reopen");
        assert!(recovered.truncated_tail);
        assert_eq!(recovered.records.len(), 2, "exactly the acked prefix");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsyncfail_poisons_the_log() {
        let dir = tmpdir("fsyncfail");
        let cfg = WalConfig {
            flush_interval_ms: 0,
            fsyncfail_ms: 10,
            ..WalConfig::default()
        };
        let (wal, _) = Wal::open(&dir, cfg).expect("open");
        let err = wal.append_durable(&rec(1)).expect_err("fsync fails");
        assert!(matches!(err, WalError::SyncFailed(_)), "{err}");
        assert!(wal.append_durable(&rec(2)).is_err(), "log stays poisoned");
        assert!(wal.snapshot(b"s").is_err(), "snapshot refuses too");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_splits_segments_and_corrupt_middle_is_fatal() {
        let dir = tmpdir("rotate");
        {
            let cfg = WalConfig {
                flush_interval_ms: 0,
                segment_bytes: 64,
                ..WalConfig::default()
            };
            let (wal, _) = Wal::open(&dir, cfg).expect("open");
            for i in 1..=12 {
                wal.append_durable(&rec(i)).expect("append");
            }
        }
        let segs = list_segments(&dir).expect("list");
        assert!(segs.len() >= 2, "rotation must have produced segments");
        let (_wal, recovered) = Wal::open(&dir, sync_cfg()).expect("reopen");
        assert_eq!(recovered.records.len(), 12);

        // Flip a byte inside the FIRST segment's record area: that is
        // not a torn tail, so open must refuse with Corrupt.
        let first = &segs[0].1;
        let mut bytes = fs::read(first).expect("read");
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        fs::write(first, &bytes).expect("write");
        let err = Wal::open(&dir, sync_cfg()).expect_err("corrupt middle");
        assert!(matches!(err, WalError::Corrupt(_)), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_middle_segment_is_corrupt() {
        let dir = tmpdir("gap");
        {
            let cfg = WalConfig {
                flush_interval_ms: 0,
                segment_bytes: 64,
                ..WalConfig::default()
            };
            let (wal, _) = Wal::open(&dir, cfg).expect("open");
            for i in 1..=12 {
                wal.append_durable(&rec(i)).expect("append");
            }
        }
        let segs = list_segments(&dir).expect("list");
        assert!(segs.len() >= 3, "need ≥3 segments to remove a middle one");
        fs::remove_file(&segs[1].1).expect("remove middle segment");
        let err = Wal::open(&dir, sync_cfg()).expect_err("gap");
        assert!(matches!(err, WalError::Corrupt(_)), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_compacts_and_recovery_is_snapshot_plus_suffix() {
        let dir = tmpdir("snap");
        {
            let cfg = WalConfig {
                flush_interval_ms: 0,
                segment_bytes: 64,
                ..WalConfig::default()
            };
            let (wal, _) = Wal::open(&dir, cfg).expect("open");
            for i in 1..=10 {
                wal.append_durable(&rec(i)).expect("append");
            }
            assert_eq!(wal.snapshot(b"state-at-10").expect("snapshot"), 10);
            for i in 11..=13 {
                wal.append_durable(&rec(i)).expect("append");
            }
        }
        let (_wal, recovered) = Wal::open(&dir, sync_cfg()).expect("reopen");
        let (seq, payload) = recovered.snapshot.expect("snapshot present");
        assert_eq!(seq, 10);
        assert_eq!(payload, b"state-at-10");
        assert_eq!(recovered.records.len(), 3, "only the suffix replays");
        assert_eq!(recovered.records[0], rec(11));
        // Compaction actually removed the oldest fully-covered segments
        // (the segment that was current at snapshot time survives until
        // the next snapshot — it can't be unlinked while open).
        let segs = list_segments(&dir).expect("list");
        assert!(
            segs.first().is_some_and(|&(first, _)| first > 1),
            "covered segments must be deleted: {segs:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_older() {
        let dir = tmpdir("snapfall");
        {
            let (wal, _) = Wal::open(&dir, sync_cfg()).expect("open");
            for i in 1..=4 {
                wal.append_durable(&rec(i)).expect("append");
            }
            wal.snapshot(b"at-4").expect("snap 1");
            for i in 5..=6 {
                wal.append_durable(&rec(i)).expect("append");
            }
            wal.snapshot(b"at-6").expect("snap 2");
        }
        // Bit-rot the newest snapshot.
        let newest = snapshot_path(&dir, 6);
        let mut bytes = fs::read(&newest).expect("read");
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
        fs::write(&newest, &bytes).expect("write");
        let (_wal, recovered) = Wal::open(&dir, sync_cfg()).expect("reopen");
        let (seq, payload) = recovered.snapshot.expect("fallback snapshot");
        assert_eq!(seq, 4);
        assert_eq!(payload, b"at-4");
        // Records 5, 6 still replay from the log (the at-6 compaction
        // kept the current segment, which holds them).
        assert_eq!(recovered.records.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn generation_increments_per_open() {
        let dir = tmpdir("gen");
        let g1 = {
            let (wal, r) = Wal::open(&dir, sync_cfg()).expect("open 1");
            assert_eq!(wal.generation(), r.generation);
            r.generation
        };
        let g2 = Wal::open(&dir, sync_cfg()).expect("open 2").1.generation;
        let g3 = Wal::open(&dir, sync_cfg()).expect("open 3").1.generation;
        assert!(
            g1 < g2 && g2 < g3,
            "generations must increase: {g1} {g2} {g3}"
        );
        assert_eq!(g1, 1, "first open is generation 1");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_frames_are_envelope_compatible() {
        // A WAL segment body stream is exactly the shared envelope
        // format: the TCP decoder parses it.
        let dir = tmpdir("envelope");
        {
            let (wal, _) = Wal::open(&dir, sync_cfg()).expect("open");
            wal.append_durable(b"alpha").expect("append");
            wal.append_durable(b"beta").expect("append");
        }
        let bytes = fs::read(segment_path(&dir, 1)).expect("read");
        let mut d = EnvelopeDecoder::new();
        d.feed(&bytes[PREAMBLE_LEN as usize..]);
        assert_eq!(d.next_body().unwrap().unwrap(), b"alpha");
        assert_eq!(d.next_body().unwrap().unwrap(), b"beta");
        assert!(d.next_body().unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
