//! The pool front-end's durable mutation log.
//!
//! [`DurableLog`] binds the generic [`mrbc_util::wal`] byte log to the
//! serve domain: each record is one acknowledged edge mutation
//! (`op, u, v` in the bounds-checked wire encoding), and each snapshot
//! is the full mutation history **plus** the cumulative [`ServeStats`]
//! at snapshot time — so both the graph epoch *and* the `query stats`
//! counters/histograms survive a front-end crash.
//!
//! The durability contract is inherited verbatim from the WAL:
//! [`DurableLog::append_durable`] returns only after the covering fsync,
//! so the pool may send `Mutated { epoch }` the moment it returns — and
//! the `ackdurable` analyze lint checks, textually, that every
//! `Response::Mutated` construction in the pool is preceded by exactly
//! this call.
//!
//! Recovery replays snapshot mutations + log suffix through
//! [`EpochStore::mutate`](crate::store::EpochStore::mutate). Mutations
//! are convergent (an add of a present edge / remove of an absent edge
//! is a no-op that does not bump the epoch), so replaying the exact
//! acknowledged sequence reproduces the exact pre-crash epoch, and the
//! recovered stats base is merged into the first post-restart
//! aggregation rather than reset to zero.

use std::path::Path;

use mrbc_util::framing;
use mrbc_util::wal::{Recovered, Wal, WalConfig, WalError};
use mrbc_util::wire::{WireReader, WireWriter};

use crate::proto::{self, MutateOp, ServeStats};

/// Magic (`"MRSS"`) and layout version opening every snapshot payload.
/// The version is the payload's own, not the wire protocol's: bump it
/// when the mutation encoding or [`proto::encode_stats`] changes shape.
/// Any other payload is refused on open as [`WalError::Corrupt`], never
/// misparsed (upgrade procedure: README "Durable mutations").
const SNAPSHOT_MAGIC: u32 = 0x5353_524D;
const SNAPSHOT_VERSION: u32 = 2;

/// An acknowledged edge mutation, as recovered from the log.
pub type LoggedMutation = (MutateOp, u32, u32);

/// What [`DurableLog::open`] recovered.
#[derive(Debug, Default)]
pub struct DurableRecovery {
    /// Every acknowledged mutation, in ack order: the snapshot's history
    /// followed by the post-snapshot log suffix. Replaying these against
    /// the boot graph reproduces the exact pre-crash epoch.
    pub mutations: Vec<LoggedMutation>,
    /// Cumulative serving counters at the last snapshot (zeroed stats
    /// when no snapshot exists yet). Merged into post-restart
    /// aggregation as a base, so `query stats` survives respawn.
    pub stats: ServeStats,
    /// True if a torn tail (partial final record) was truncated away —
    /// a crash hit mid-append; the torn record was never acknowledged.
    pub truncated_tail: bool,
}

fn encode_mutation(w: &mut WireWriter, (op, u, v): LoggedMutation) {
    w.u8(match op {
        MutateOp::AddEdge => 0,
        MutateOp::RemoveEdge => 1,
    });
    w.u32(u);
    w.u32(v);
}

fn decode_mutation(r: &mut WireReader<'_>) -> Result<LoggedMutation, WalError> {
    let bad = |what: &str| WalError::Corrupt(format!("mutation record: {what}"));
    let op = match r.u8().map_err(|e| bad(&e.to_string()))? {
        0 => MutateOp::AddEdge,
        1 => MutateOp::RemoveEdge,
        other => return Err(bad(&format!("unknown op {other}"))),
    };
    let u = r.u32().map_err(|e| bad(&e.to_string()))?;
    let v = r.u32().map_err(|e| bad(&e.to_string()))?;
    Ok((op, u, v))
}

/// The serve-typed durable mutation log. See the module docs.
#[derive(Debug)]
pub struct DurableLog {
    wal: Wal,
}

impl DurableLog {
    /// Opens (or creates) the log in `dir`, recovering the acknowledged
    /// mutation history and the persisted stats base.
    pub fn open(dir: &Path, cfg: WalConfig) -> Result<(DurableLog, DurableRecovery), WalError> {
        let (wal, recovered) = Wal::open(dir, cfg)?;
        let recovery = decode_recovery(&recovered)?;
        Ok((DurableLog { wal }, recovery))
    }

    /// Appends one mutation and blocks until it is fsync-covered. Once
    /// this returns, the pool may acknowledge the mutation — this call
    /// is the "WAL flush" the `ackdurable` lint requires before any
    /// `Response::Mutated` construction.
    pub fn append_durable(&self, op: MutateOp, u: u32, v: u32) -> Result<u64, WalError> {
        let mut w = WireWriter::with_capacity(9);
        encode_mutation(&mut w, (op, u, v));
        self.wal.append_durable(&w.into_bytes())
    }

    /// Writes a snapshot of the full mutation history + cumulative
    /// stats, compacting fully-covered log segments.
    pub fn snapshot(
        &self,
        mutations: &[LoggedMutation],
        stats: &ServeStats,
    ) -> Result<u64, WalError> {
        self.wal.snapshot(&encode_snapshot(mutations, stats))
    }

    /// This front-end's fencing generation (bumped on every open).
    pub fn generation(&self) -> u64 {
        self.wal.generation()
    }
}

fn encode_snapshot(mutations: &[LoggedMutation], stats: &ServeStats) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(24 + mutations.len() * 9);
    framing::write_preamble(&mut w, SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
    w.u64(mutations.len() as u64);
    for &m in mutations {
        encode_mutation(&mut w, m);
    }
    proto::encode_stats(&mut w, stats);
    w.into_bytes()
}

fn decode_recovery(recovered: &Recovered) -> Result<DurableRecovery, WalError> {
    let mut out = DurableRecovery {
        truncated_tail: recovered.truncated_tail,
        ..DurableRecovery::default()
    };
    if let Some((seq, payload)) = &recovered.snapshot {
        let mut r = WireReader::new(payload);
        let bad =
            |what: String| WalError::Corrupt(format!("snapshot covering record {seq}: {what}"));
        framing::check_preamble(&mut r, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)
            .map_err(|e| bad(e.to_string()))?;
        let count = r.u64().map_err(|e| bad(e.to_string()))?;
        if count as usize > payload.len() {
            return Err(bad(format!("mutation count {count} exceeds payload")));
        }
        out.mutations.reserve(count as usize);
        for _ in 0..count {
            out.mutations.push(decode_mutation(&mut r)?);
        }
        out.stats = proto::decode_stats(&mut r).map_err(|e| bad(e.to_string()))?;
        if !r.is_empty() {
            return Err(bad("trailing bytes".to_string()));
        }
    }
    for body in &recovered.records {
        let mut r = WireReader::new(body);
        let m = decode_mutation(&mut r)?;
        if !r.is_empty() {
            return Err(WalError::Corrupt(
                "trailing bytes after mutation record".to_string(),
            ));
        }
        out.mutations.push(m);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrbc_obs::Histogram;
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("mrbc-durable-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sync_cfg() -> WalConfig {
        WalConfig {
            flush_interval_ms: 0,
            ..WalConfig::default()
        }
    }

    #[test]
    fn mutations_and_stats_survive_reopen() {
        let dir = tmpdir("roundtrip");
        let muts = [
            (MutateOp::AddEdge, 1, 2),
            (MutateOp::RemoveEdge, 2, 1),
            (MutateOp::AddEdge, 0, 9),
        ];
        {
            let (log, rec) = DurableLog::open(&dir, sync_cfg()).expect("open");
            assert!(rec.mutations.is_empty());
            assert_eq!(rec.stats, ServeStats::default());
            for &(op, u, v) in &muts[..2] {
                log.append_durable(op, u, v).expect("append");
            }
            // Snapshot the prefix + stats, then append a suffix record.
            let mut stats = ServeStats {
                queries: 42,
                mutations: 2,
                ..ServeStats::default()
            };
            let mut h = Histogram::default();
            h.record(900);
            stats.hists.push(("serve.total_us".to_string(), h));
            log.snapshot(&muts[..2], &stats).expect("snapshot");
            log.append_durable(muts[2].0, muts[2].1, muts[2].2)
                .expect("append suffix");
        }
        let (log, rec) = DurableLog::open(&dir, sync_cfg()).expect("reopen");
        assert_eq!(rec.mutations, muts, "snapshot history + log suffix");
        assert_eq!(rec.stats.queries, 42);
        assert_eq!(rec.stats.mutations, 2);
        assert_eq!(
            rec.stats.hist("serve.total_us").map(Histogram::count),
            Some(1),
            "histogram snapshots survive restart"
        );
        assert!(!rec.truncated_tail);
        assert!(log.generation() >= 2, "generation bumped per open");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_layout_is_pinned_to_its_version() {
        // Preamble, count, one mutation, fourteen counters, no histograms.
        // If this length moves the layout did: bump `SNAPSHOT_VERSION`.
        let payload = encode_snapshot(&[(MutateOp::AddEdge, 1, 2)], &ServeStats::default());
        assert_eq!(SNAPSHOT_VERSION, 2);
        assert_eq!(payload.len(), 8 + 8 + 9 + 14 * 8 + 4);
    }

    #[test]
    fn snapshot_in_the_old_stats_layout_is_refused_as_corrupt() {
        // What PR 12 and earlier wrote: no preamble, and a sixteenth
        // counter (`hedge_fired`) in the stats half.
        let mut v4 = WireWriter::new();
        v4.u64(1);
        encode_mutation(&mut v4, (MutateOp::AddEdge, 1, 2));
        for counter in 0..16u64 {
            v4.u64(counter);
        }
        v4.u32(0); // no histograms
        let dir = tmpdir("oldlayout");
        {
            let (wal, _) = Wal::open(&dir, sync_cfg()).expect("open raw wal");
            wal.snapshot(&v4.into_bytes()).expect("raw snapshot");
        }
        let err = DurableLog::open(&dir, sync_cfg()).expect_err("old layout must not load");
        assert!(matches!(err, WalError::Corrupt(_)), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_append_recovers_to_acked_prefix() {
        let dir = tmpdir("torn");
        {
            let cfg = WalConfig {
                flush_interval_ms: 0,
                torn_at_rec: Some(3),
                ..WalConfig::default()
            };
            let (log, _) = DurableLog::open(&dir, cfg).expect("open");
            log.append_durable(MutateOp::AddEdge, 1, 2).expect("a1");
            log.append_durable(MutateOp::AddEdge, 2, 3).expect("a2");
            let err = log
                .append_durable(MutateOp::AddEdge, 3, 4)
                .expect_err("torn write");
            assert!(matches!(err, WalError::SyncFailed(_)), "{err}");
        }
        let (_log, rec) = DurableLog::open(&dir, sync_cfg()).expect("reopen");
        assert!(rec.truncated_tail);
        assert_eq!(
            rec.mutations,
            vec![(MutateOp::AddEdge, 1, 2), (MutateOp::AddEdge, 2, 3)],
            "exactly the acknowledged prefix survives"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
