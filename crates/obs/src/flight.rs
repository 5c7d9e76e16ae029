//! Crash flight recorder: a fixed-size in-memory ring of recent
//! structured events, dumped to a CRC-protected file when something
//! goes wrong (a panic, a worker declared dead, a `Retry` response), so
//! chaos-harness failures leave a black box behind even when the
//! process that failed can no longer explain itself.
//!
//! Design constraints:
//!
//! * **Always on, allocation-free.** Unlike the trace recorder, the
//!   flight ring records whether or not `--trace` was requested — the
//!   whole point is to capture the runs nobody expected to fail. Each
//!   [`note`] writes one fixed-size [`FlightEvent`] (a `&'static str`
//!   tag plus two `u64` payloads) into a static ring; no heap traffic,
//!   verified by the counting-allocator test.
//! * **Timestamps share the trace epoch.** Entries are stamped with the
//!   same monotonic anchor spans use, so a dumped flight log lines up
//!   with a merged trace from the same process.
//! * **Dumps are CRC'd.** A dump file is `MRFR1 <crc32-hex> <len>\n`
//!   followed by a `mrbc-flight-v1` JSON body; [`read_dump`] refuses a
//!   file whose body fails the checksum, so a half-written dump from a
//!   dying process is detected rather than misread.
//!
//! Dumping is opt-in: nothing is written until [`set_dir`] names a
//! directory (the CLI's `--flight-dir`). [`arm_panic_dump`] chains a
//! panic hook that dumps the ring before the default handler runs.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use mrbc_util::crc::crc32;

use crate::json::{self, JsonWriter, Value};

/// Number of events the ring retains (older entries are overwritten).
pub const CAPACITY: usize = 256;

/// Schema tag embedded in every flight dump body.
pub const FLIGHT_SCHEMA: &str = "mrbc-flight-v1";

/// Magic token opening a dump file's header line.
const MAGIC: &str = "MRFR1";

/// One flight-ring entry: a static tag plus two numeric payloads
/// (meaning is tag-specific, e.g. `("pool.failover", rank, request_id)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// 1-based sequence number (total notes so far, including
    /// overwritten ones — `seq - len` gives the drop count).
    pub seq: u64,
    /// µs since the process trace epoch (same anchor as spans).
    pub ts_us: u64,
    /// Static event tag.
    pub tag: &'static str,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

const EMPTY: FlightEvent = FlightEvent {
    seq: 0,
    ts_us: 0,
    tag: "",
    a: 0,
    b: 0,
};

struct Ring {
    buf: [FlightEvent; CAPACITY],
    len: usize,
    head: usize,
    seq: u64,
}

static RING: Mutex<Ring> = Mutex::new(Ring {
    buf: [EMPTY; CAPACITY],
    len: 0,
    head: 0,
    seq: 0,
});

static DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
static HOOK_ARMED: AtomicBool = AtomicBool::new(false);

/// Append one event to the ring. Always on, allocation-free; safe to
/// call from any thread (and from a panic hook — the lock is
/// poison-tolerant).
pub fn note(tag: &'static str, a: u64, b: u64) {
    let ts_us = crate::clock::monotonic_us();
    let mut ring = RING
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    ring.seq += 1;
    let ev = FlightEvent {
        seq: ring.seq,
        ts_us,
        tag,
        a,
        b,
    };
    let head = ring.head;
    ring.buf[head] = ev;
    ring.head = (head + 1) % CAPACITY;
    ring.len = (ring.len + 1).min(CAPACITY);
}

/// The retained events, oldest first (allocates; dump/report path only).
pub fn snapshot() -> Vec<FlightEvent> {
    let ring = RING
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut out = Vec::with_capacity(ring.len);
    let start = (ring.head + CAPACITY - ring.len) % CAPACITY;
    for i in 0..ring.len {
        out.push(ring.buf[(start + i) % CAPACITY]);
    }
    out
}

/// Name the directory dumps are written to (enables dumping).
pub fn set_dir(dir: &Path) {
    *DIR.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(dir.to_path_buf());
}

/// The configured dump directory, if any.
pub fn dir() -> Option<PathBuf> {
    DIR.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Chain a panic hook that notes the panic and dumps the ring before
/// the previous hook (backtrace printing, abort) runs. Idempotent.
pub fn arm_panic_dump() {
    if HOOK_ARMED.swap(true, Ordering::SeqCst) {
        return;
    }
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        note("panic", 0, 0);
        let _ = dump("panic");
        prev(info);
    }));
}

/// Dump the ring to `<dir>/flight-<pid>.mrfr` (latest dump wins).
/// Returns the path written, or `None` when no directory is configured
/// or the write failed — a flight dump must never take down the
/// process it is trying to explain.
pub fn dump(reason: &str) -> Option<PathBuf> {
    let dir = dir()?;
    let pid = std::process::id() as u64;
    let path = dir.join(format!("flight-{pid}.mrfr"));
    let body = render_body(pid, reason, &snapshot());
    let header = format!("{MAGIC} {:08x} {}\n", crc32(body.as_bytes()), body.len());
    std::fs::write(&path, header + &body).ok()?;
    Some(path)
}

fn render_body(pid: u64, reason: &str, events: &[FlightEvent]) -> String {
    let dropped = events.last().map_or(0, |e| e.seq - events.len() as u64);
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string(FLIGHT_SCHEMA);
    w.key("pid");
    w.number(pid);
    w.key("reason");
    w.string(reason);
    w.key("dropped");
    w.number(dropped);
    w.key("events");
    w.begin_array();
    for e in events {
        w.begin_object();
        w.key("seq");
        w.number(e.seq);
        w.key("ts_us");
        w.number(e.ts_us);
        w.key("tag");
        w.string(e.tag);
        w.key("a");
        w.number(e.a);
        w.key("b");
        w.number(e.b);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Read a dump file back: verify the header, length and CRC, then
/// parse and return the JSON body.
pub fn read_dump(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let (header, body) = text
        .split_once('\n')
        .ok_or_else(|| "missing flight header line".to_string())?;
    let mut parts = header.split_ascii_whitespace();
    if parts.next() != Some(MAGIC) {
        return Err(format!("not a flight dump (expected {MAGIC} header)"));
    }
    let crc = parts
        .next()
        .and_then(|s| u32::from_str_radix(s, 16).ok())
        .ok_or_else(|| "malformed flight header crc".to_string())?;
    let len: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "malformed flight header length".to_string())?;
    if body.len() != len {
        return Err(format!(
            "flight body length mismatch: header says {len}, file has {}",
            body.len()
        ));
    }
    let actual = crc32(body.as_bytes());
    if actual != crc {
        return Err(format!(
            "flight body CRC mismatch: header {crc:08x}, computed {actual:08x}"
        ));
    }
    let v = json::parse(body).map_err(|e| format!("flight body is invalid JSON: {e}"))?;
    match v.get("schema").and_then(Value::as_str) {
        Some(FLIGHT_SCHEMA) => Ok(v),
        _ => Err(format!("flight body is not a {FLIGHT_SCHEMA} document")),
    }
}

/// The most recently modified `flight-*.mrfr` file under `dir`.
pub fn latest_in(dir: &Path) -> Option<PathBuf> {
    let mut best: Option<(std::time::SystemTime, PathBuf)> = None;
    for entry in std::fs::read_dir(dir).ok()? {
        let entry = entry.ok()?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !(name.starts_with("flight-") && name.ends_with(".mrfr")) {
            continue;
        }
        let modified = entry.metadata().ok()?.modified().ok()?;
        if best.as_ref().is_none_or(|(t, _)| modified >= *t) {
            best = Some((modified, entry.path()));
        }
    }
    best.map(|(_, p)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flight state is process-global; serialize the tests that touch
    /// the ring or the dump directory.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        crate::test_mutex()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let _g = guard();
        let before = snapshot().last().map_or(0, |e| e.seq);
        for i in 0..(CAPACITY as u64 + 10) {
            note("wrap", i, 0);
        }
        let evs = snapshot();
        assert_eq!(evs.len(), CAPACITY);
        // Oldest-first and contiguous.
        for pair in evs.windows(2) {
            assert_eq!(pair[1].seq, pair[0].seq + 1);
        }
        assert_eq!(
            evs.last().map(|e| e.seq),
            Some(before + CAPACITY as u64 + 10)
        );
    }

    #[test]
    fn dump_roundtrips_and_corruption_is_detected() {
        let _g = guard();
        note("test.event", 7, 9);
        let dir = std::env::temp_dir().join(format!("mrbc-flight-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        set_dir(&dir);
        let path = dump("unit-test").expect("dump path");
        let v = read_dump(&path).expect("valid dump");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(FLIGHT_SCHEMA));
        assert_eq!(v.get("reason").and_then(Value::as_str), Some("unit-test"));
        let events = v.get("events").and_then(Value::as_arr).expect("events");
        assert!(events
            .iter()
            .any(|e| e.get("tag").and_then(Value::as_str) == Some("test.event")));
        assert_eq!(latest_in(&dir), Some(path.clone()));

        // Flip one body byte: the CRC check must reject the file.
        let mut text = std::fs::read_to_string(&path).expect("read");
        let flip = text.len() - 2;
        // SAFETY-free byte flip via String rebuild.
        let mut bytes = std::mem::take(&mut text).into_bytes();
        bytes[flip] = if bytes[flip] == b'0' { b'1' } else { b'0' };
        std::fs::write(&path, bytes).expect("rewrite");
        let err = read_dump(&path).expect_err("corrupt dump must fail");
        assert!(err.contains("CRC") || err.contains("invalid JSON"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
        // Leave no dump dir behind for other tests in this process.
        *super::DIR.lock().unwrap() = None;
    }

    #[test]
    fn dump_without_dir_is_a_noop() {
        let _g = guard();
        let saved = dir();
        *super::DIR.lock().unwrap() = None;
        assert_eq!(dump("nowhere"), None);
        *super::DIR.lock().unwrap() = saved;
    }
}
