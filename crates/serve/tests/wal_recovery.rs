//! Crash-consistency property tests for the durable pool front-end.
//!
//! The contract under test: **whatever byte the crash lands on, a
//! restarted front-end recovers exactly a prefix of the acknowledged
//! mutation sequence, and its served BC is bit-identical to a fresh
//! pool that applied that prefix from scratch.**
//!
//! Two layers:
//!
//! * a *byte-level kill-point sweep* — the WAL segment is truncated at
//!   every possible length (simulating a crash after that many bytes
//!   reached disk) and reopened; the recovered mutation list must be a
//!   prefix of what was appended, monotone in the kill point, with the
//!   torn tail reported iff the cut landed mid-frame;
//! * *sampled end-to-end recoveries* — full pools are started on
//!   recovered directories (including one torn mid-frame) and their
//!   welcome epoch and BC answers compared bit-for-bit against fresh
//!   pools that applied the same prefix through the normal mutate path.

use std::fs;
use std::path::{Path, PathBuf};

use mrbc_core::BcConfig;
use mrbc_graph::generators;
use mrbc_serve::{
    start_pool, DurableLog, MutateOp, PoolConfig, SchedConfig, ServeClient, WorkerSpawn,
};
use mrbc_util::wal::WalConfig;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mrbc-walrec-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).expect("create tmpdir");
    d
}

/// Synchronous-fsync config: every append is its own covering fsync, so
/// "acknowledged" and "durable" coincide record by record.
fn sync_cfg() -> WalConfig {
    WalConfig {
        flush_interval_ms: 0,
        ..WalConfig::default()
    }
}

/// Deterministic acked-mutation stream (same shape the pool logs).
fn probe_mutations(count: usize, n: u32) -> Vec<(MutateOp, u32, u32)> {
    (0..count)
        .map(|i| {
            let bits = mrbc_util::splitmix64(i as u64 ^ 0x00d1_57fa);
            let u = (bits % u64::from(n)) as u32;
            let v = ((bits >> 32) % u64::from(n)) as u32;
            let op = if i % 3 == 2 {
                MutateOp::RemoveEdge
            } else {
                MutateOp::AddEdge
            };
            (op, u, v)
        })
        .collect()
}

/// The single `wal-*.seg` segment file in `dir`.
fn segment_path(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read wal dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".seg"))
        })
        .collect();
    segs.sort();
    assert_eq!(segs.len(), 1, "expected one segment, got {segs:?}");
    segs.remove(0)
}

/// Copy a WAL directory and cut its segment down to `len` bytes — the
/// on-disk state of a front-end SIGKILLed after exactly `len` bytes of
/// the segment reached disk.
fn killed_copy(orig: &Path, scratch: &Path, len: u64) -> PathBuf {
    let _ = fs::remove_dir_all(scratch);
    fs::create_dir_all(scratch).expect("create scratch");
    for entry in fs::read_dir(orig).expect("read orig") {
        let p = entry.expect("entry").path();
        let name = p.file_name().expect("file name");
        fs::copy(&p, scratch.join(name)).expect("copy wal file");
    }
    let seg = segment_path(scratch);
    let f = fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .expect("open segment copy");
    f.set_len(len).expect("truncate segment copy");
    seg
}

#[test]
fn every_byte_kill_point_recovers_an_acked_prefix() {
    let n = 64u32;
    let muts = probe_mutations(24, n);
    let orig = tmpdir("sweep-orig");
    {
        let (log, rec) = DurableLog::open(&orig, sync_cfg()).expect("open");
        assert!(rec.mutations.is_empty());
        for &(op, u, v) in &muts {
            log.append_durable(op, u, v).expect("append");
        }
    }
    let seg_len = fs::metadata(segment_path(&orig))
        .expect("segment metadata")
        .len();

    let scratch = tmpdir("sweep-kill");
    let mut prev_recovered = 0usize;
    // Byte 8 is the end of the segment preamble — anything shorter is
    // not a torn tail but a destroyed file, rejected as Corrupt (a
    // separate contract, tested in mrbc_util::wal).
    for len in 8..=seg_len {
        let _ = killed_copy(&orig, &scratch, len);
        let (_log, rec) = DurableLog::open(&scratch, sync_cfg())
            .unwrap_or_else(|e| panic!("kill point {len}/{seg_len}: open failed: {e}"));
        let k = rec.mutations.len();
        assert_eq!(
            rec.mutations,
            muts[..k],
            "kill point {len}: recovery must be a prefix of the acked sequence"
        );
        assert!(
            k >= prev_recovered,
            "kill point {len}: recovered {k} < {prev_recovered} at an earlier cut — \
             more surviving bytes can never mean fewer surviving records"
        );
        // Every record is the same 9-byte mutation body, so frames are
        // uniform and a cut is mid-frame iff it does not divide evenly.
        let frame = (seg_len - 8) / muts.len() as u64;
        assert_eq!(
            rec.truncated_tail,
            (len - 8) % frame != 0,
            "kill point {len}: torn-tail flag wrong (recovered {k})"
        );
        prev_recovered = k;
    }
    assert_eq!(prev_recovered, muts.len(), "full segment recovers all");
    let _ = fs::remove_dir_all(&orig);
    let _ = fs::remove_dir_all(&scratch);
}

/// Spin up a pool (durable when `wal_dir` is set), run `f` against a
/// connected client, shut down, and hand back what `f` produced.
fn with_pool<T>(wal_dir: Option<&Path>, f: impl FnOnce(&mut ServeClient) -> T) -> T {
    let cfg = PoolConfig {
        workers: 2,
        wal_dir: wal_dir.map(Path::to_path_buf),
        ..PoolConfig::default()
    };
    let spawn = WorkerSpawn::InProcess {
        graph: generators::rmat(generators::RmatConfig::new(6, 8), 97),
        bc: Box::new(BcConfig::default()),
        sched: SchedConfig::default(),
    };
    let mut pool = start_pool(spawn, cfg).expect("pool starts");
    let mut client = ServeClient::connect(pool.local_addr()).expect("connect");
    let out = f(&mut client);
    drop(client);
    pool.shutdown();
    out
}

#[test]
fn sampled_kill_points_serve_bit_identical_bc() {
    let n = 64u32;
    let muts = probe_mutations(12, n);
    let probes = [0u32, 9, 31, 63];

    for k in [0usize, 1, 6, 11, 12] {
        // A WAL holding exactly the first k acked mutations — the
        // recovered prefix a kill point inside record k+1 leaves behind.
        let dir = tmpdir(&format!("e2e-{k}"));
        {
            let (log, _) = DurableLog::open(&dir, sync_cfg()).expect("open");
            for &(op, u, v) in &muts[..k] {
                log.append_durable(op, u, v).expect("append");
            }
        }

        // Fresh pool: apply the prefix through the normal mutate path.
        let (want_epoch, want_bits) = with_pool(None, |c| {
            for &(op, u, v) in &muts[..k] {
                c.mutate(op, u, v).expect("mutate");
            }
            let epoch = c.stats().expect("stats").epoch;
            let bits: Vec<u64> = probes
                .iter()
                .map(|&v| c.bc_score(0, v).expect("bc").1.to_bits())
                .collect();
            (epoch, bits)
        });

        // Recovered pool: boot from the WAL, no mutations re-sent.
        let (got_epoch, got_bits) = with_pool(Some(&dir), |c| {
            let epoch = c.welcome().epoch;
            let bits: Vec<u64> = probes
                .iter()
                .map(|&v| c.bc_score(0, v).expect("bc").1.to_bits())
                .collect();
            (epoch, bits)
        });

        assert_eq!(got_epoch, want_epoch, "prefix {k}: epoch after recovery");
        assert_eq!(got_bits, want_bits, "prefix {k}: BC must be bit-identical");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_mid_frame_kill_point_boots_to_the_acked_prefix() {
    let n = 64u32;
    let muts = probe_mutations(8, n);
    let orig = tmpdir("torn-orig");
    {
        let (log, _) = DurableLog::open(&orig, sync_cfg()).expect("open");
        for &(op, u, v) in &muts {
            log.append_durable(op, u, v).expect("append");
        }
    }
    // Cut 5 bytes into the 6th record's frame: records 1..=5 survive.
    let seg_len = fs::metadata(segment_path(&orig)).expect("meta").len();
    let frame = (seg_len - 8) / 8;
    let torn = tmpdir("torn-kill");
    let _ = killed_copy(&orig, &torn, 8 + 5 * frame + 5);

    let (want_epoch, want_bits) = with_pool(None, |c| {
        for &(op, u, v) in &muts[..5] {
            c.mutate(op, u, v).expect("mutate");
        }
        let epoch = c.stats().expect("stats").epoch;
        (epoch, c.bc_score(0, 31).expect("bc").1.to_bits())
    });
    let (got_epoch, got_bits) = with_pool(Some(&torn), |c| {
        let epoch = c.welcome().epoch;
        (epoch, c.bc_score(0, 31).expect("bc").1.to_bits())
    });
    assert_eq!(
        got_epoch, want_epoch,
        "torn tail: epoch is the acked prefix's"
    );
    assert_eq!(got_bits, want_bits, "torn tail: BC bit-identical");
    let _ = fs::remove_dir_all(&orig);
    let _ = fs::remove_dir_all(&torn);
}
