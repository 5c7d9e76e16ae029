//! Durable on-disk checkpoints with atomic write-rename and CRC
//! verification.
//!
//! A worker snapshots its [`SpmdProgram`](mrbc_dgalois::spmd::SpmdProgram)
//! state at step boundaries. The file format is
//!
//! ```text
//! [magic "MRCK": u32][version: u32][rank: u32][step: u64]
//! [payload len: u32][crc of payload: u32][payload…]
//! ```
//!
//! Writes go through [`mrbc_util::fsio::write_atomic`] — a `.tmp`
//! sibling, fsynced, atomically renamed into place, directory fsynced —
//! so a crash mid-write never corrupts the previous checkpoint (at worst
//! it leaves a stale `.tmp` that the next save overwrites) and a
//! checkpoint whose `save` returned survives a crash.
//! Loads verify magic, version, rank, length and CRC and report failures
//! as a structured [`CheckpointError`] (never a generic I/O error), which
//! the CLI maps to a dedicated exit code so operators can tell "corrupt
//! checkpoint" from "disk fell over".
//!
//! The store retains the last [`KEEP_CHECKPOINTS`] steps. Together with
//! the BSP skew bound (workers can be at most one step apart at a
//! barrier) this guarantees every worker still holds the recovery step
//! chosen by the launcher (the minimum of all workers' latest steps).

use std::fmt;
use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};

use mrbc_util::crc::crc32;
use mrbc_util::fsio;
use mrbc_util::wire::{WireReader, WireWriter};

/// Checkpoint file magic: `"MRCK"`.
pub const CHECKPOINT_MAGIC: u32 = 0x4B43_524D;
/// Checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;
/// How many most-recent checkpoints each worker retains.
pub const KEEP_CHECKPOINTS: usize = 2;

/// Structured checkpoint failure.
#[derive(Debug)]
pub enum CheckpointError {
    /// No checkpoint exists (fresh directory, or the requested step was
    /// pruned).
    NotFound,
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with the checkpoint magic — not a
    /// checkpoint at all.
    BadMagic,
    /// The file is a checkpoint from an incompatible format version.
    BadVersion(u32),
    /// The file belongs to a different worker rank.
    WrongRank {
        /// Rank recorded in the file.
        found: u32,
        /// Rank of the store doing the loading.
        expected: u32,
    },
    /// The file ends before the declared payload length.
    Truncated {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// The payload checksum does not match — bit rot or a torn write.
    CrcMismatch,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::NotFound => write!(f, "no checkpoint found"),
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (want {CHECKPOINT_VERSION})"
                )
            }
            CheckpointError::WrongRank { found, expected } => {
                write!(f, "checkpoint belongs to rank {found}, not rank {expected}")
            }
            CheckpointError::Truncated { expected, found } => {
                write!(
                    f,
                    "truncated checkpoint: payload needs {expected} bytes, {found} present"
                )
            }
            CheckpointError::CrcMismatch => write!(f, "checkpoint checksum mismatch"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A worker's checkpoint directory.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    rank: u32,
}

impl CheckpointStore {
    /// Opens (creating if needed) the store for `rank` under `dir`.
    pub fn open(dir: &Path, rank: u32) -> Result<Self, CheckpointError> {
        fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            rank,
        })
    }

    fn path_of(&self, step: u64) -> PathBuf {
        self.dir
            .join(format!("ckpt-r{}-s{step:012}.bin", self.rank))
    }

    /// Parses a step number out of a file name produced by this store.
    fn step_of(&self, name: &str) -> Option<u64> {
        let prefix = format!("ckpt-r{}-s", self.rank);
        let rest = name.strip_prefix(&prefix)?.strip_suffix(".bin")?;
        rest.parse().ok()
    }

    /// Atomically persists `payload` as the checkpoint for `step`, then
    /// prunes everything but the newest [`KEEP_CHECKPOINTS`] steps.
    pub fn save(&self, step: u64, payload: &[u8]) -> Result<(), CheckpointError> {
        let mut w = WireWriter::with_capacity(28 + payload.len());
        w.u32(CHECKPOINT_MAGIC);
        w.u32(CHECKPOINT_VERSION);
        w.u32(self.rank);
        w.u64(step);
        w.u32(payload.len() as u32);
        w.u32(crc32(payload));
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(payload);

        let tmp_name = format!(".ckpt-r{}.tmp", self.rank);
        fsio::write_atomic(&self.dir, &tmp_name, &self.path_of(step), &bytes)?;
        mrbc_obs::counter_add("net.checkpoint.saved", 1);
        mrbc_obs::counter_add("net.checkpoint.bytes", bytes.len() as u64);
        self.prune()?;
        Ok(())
    }

    fn prune(&self) -> Result<(), CheckpointError> {
        let mut steps = self.list_steps()?;
        while steps.len() > KEEP_CHECKPOINTS {
            let oldest = steps.remove(0);
            fs::remove_file(self.path_of(oldest))?;
        }
        Ok(())
    }

    /// All retained steps, ascending.
    pub fn list_steps(&self) -> Result<Vec<u64>, CheckpointError> {
        let mut steps = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some(name) = entry.file_name().to_str() {
                if let Some(step) = self.step_of(name) {
                    steps.push(step);
                }
            }
        }
        steps.sort_unstable();
        Ok(steps)
    }

    /// The newest retained step, if any.
    pub fn latest_step(&self) -> Result<Option<u64>, CheckpointError> {
        Ok(self.list_steps()?.pop())
    }

    /// The newest step whose file still fully validates (magic, version,
    /// rank, length, CRC). Bit rot in the newest checkpoint falls back
    /// to the older retained one — the keep-last-[`KEEP_CHECKPOINTS`]
    /// policy exists precisely so a single corrupt file never strands
    /// recovery. `None` means no retained checkpoint validates.
    pub fn latest_valid_step(&self) -> Result<Option<u64>, CheckpointError> {
        for step in self.list_steps()?.into_iter().rev() {
            if self.load(step).is_ok() {
                return Ok(Some(step));
            }
        }
        Ok(None)
    }

    /// Loads the newest checkpoint that validates, returning
    /// `(step, payload)`; skips (does not delete) corrupt newer files.
    pub fn load_latest_valid(&self) -> Result<(u64, Vec<u8>), CheckpointError> {
        for step in self.list_steps()?.into_iter().rev() {
            if let Ok(payload) = self.load(step) {
                return Ok((step, payload));
            }
        }
        Err(CheckpointError::NotFound)
    }

    /// Loads and fully validates the checkpoint for `step`.
    pub fn load(&self, step: u64) -> Result<Vec<u8>, CheckpointError> {
        let path = self.path_of(step);
        let mut file = match fs::File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(CheckpointError::NotFound)
            }
            Err(e) => return Err(e.into()),
        };
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        self.validate(step, &bytes)
    }

    /// Loads the newest checkpoint, returning `(step, payload)`.
    pub fn load_latest(&self) -> Result<(u64, Vec<u8>), CheckpointError> {
        let step = self.latest_step()?.ok_or(CheckpointError::NotFound)?;
        Ok((step, self.load(step)?))
    }

    fn validate(&self, step: u64, bytes: &[u8]) -> Result<Vec<u8>, CheckpointError> {
        let mut r = WireReader::new(bytes);
        let header_err = |_| CheckpointError::Truncated {
            expected: 28,
            found: bytes.len(),
        };
        if r.u32().map_err(header_err)? != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32().map_err(header_err)?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let rank = r.u32().map_err(header_err)?;
        if rank != self.rank {
            return Err(CheckpointError::WrongRank {
                found: rank,
                expected: self.rank,
            });
        }
        let file_step = r.u64().map_err(header_err)?;
        if file_step != step {
            return Err(CheckpointError::BadMagic);
        }
        let len = r.u32().map_err(header_err)? as usize;
        let crc = r.u32().map_err(header_err)?;
        let payload = r.rest();
        if payload.len() != len {
            return Err(CheckpointError::Truncated {
                expected: len,
                found: payload.len(),
            });
        }
        if crc32(payload) != crc {
            return Err(CheckpointError::CrcMismatch);
        }
        Ok(payload.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mrbc-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn save_load_roundtrip_and_retention() {
        let dir = tmpdir("roundtrip");
        let store = CheckpointStore::open(&dir, 3).unwrap();
        assert!(matches!(
            store.load_latest(),
            Err(CheckpointError::NotFound)
        ));
        for step in 0..5u64 {
            store
                .save(step, format!("state-{step}").as_bytes())
                .unwrap();
        }
        // Only the newest KEEP_CHECKPOINTS remain, and the tmp sibling
        // every save went through was renamed away.
        assert_eq!(store.list_steps().unwrap(), vec![3, 4]);
        assert!(!dir.join(".ckpt-r3.tmp").exists());
        let (step, payload) = store.load_latest().unwrap();
        assert_eq!(step, 4);
        assert_eq!(payload, b"state-4");
        assert_eq!(store.load(3).unwrap(), b"state-3");
        assert!(matches!(store.load(1), Err(CheckpointError::NotFound)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_reported_structurally() {
        let dir = tmpdir("corrupt");
        let store = CheckpointStore::open(&dir, 0).unwrap();
        store.save(7, b"important state").unwrap();
        let path = dir.join("ckpt-r0-s000000000007.bin");

        // Flip a payload bit → CRC mismatch.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(store.load(7), Err(CheckpointError::CrcMismatch)));

        // Truncate the payload → Truncated with exact counts.
        let good = {
            let mut b = fs::read(&path).unwrap();
            b[last] ^= 0x01; // restore
            b
        };
        fs::write(&path, &good[..good.len() - 4]).unwrap();
        match store.load(7) {
            Err(CheckpointError::Truncated { expected, found }) => {
                assert_eq!(expected, 15);
                assert_eq!(found, 11);
            }
            other => panic!("want Truncated, got {other:?}"),
        }

        // Garbage file → BadMagic.
        fs::write(&path, b"not a checkpoint, definitely").unwrap();
        assert!(matches!(store.load(7), Err(CheckpointError::BadMagic)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rank_and_version_are_enforced() {
        let dir = tmpdir("rank");
        let store = CheckpointStore::open(&dir, 1).unwrap();
        store.save(2, b"abc").unwrap();
        // A store for another rank does not even see rank 1's files …
        let other = CheckpointStore::open(&dir, 2).unwrap();
        assert!(matches!(
            other.load_latest(),
            Err(CheckpointError::NotFound)
        ));
        // … and rejects them structurally when pointed at one directly.
        let bytes = fs::read(dir.join("ckpt-r1-s000000000002.bin")).unwrap();
        fs::write(dir.join("ckpt-r2-s000000000002.bin"), &bytes).unwrap();
        assert!(matches!(
            other.load(2),
            Err(CheckpointError::WrongRank {
                found: 1,
                expected: 2
            })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_falls_back_to_older_valid() {
        let dir = tmpdir("fallback");
        let store = CheckpointStore::open(&dir, 0).unwrap();
        store.save(6, b"older but intact").unwrap();
        store.save(7, b"newer but doomed").unwrap();
        assert_eq!(store.latest_valid_step().unwrap(), Some(7));

        // Flip a payload bit in the NEWEST checkpoint: latest_step still
        // names it, but recovery-facing lookups skip to the older one.
        let newest = dir.join("ckpt-r0-s000000000007.bin");
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&newest, &bytes).unwrap();

        assert_eq!(store.latest_step().unwrap(), Some(7));
        assert!(matches!(store.load(7), Err(CheckpointError::CrcMismatch)));
        assert_eq!(store.latest_valid_step().unwrap(), Some(6));
        assert_eq!(
            store.load_latest_valid().unwrap(),
            (6, b"older but intact".to_vec())
        );

        // Corrupt the older one too: nothing valid remains.
        let older = dir.join("ckpt-r0-s000000000006.bin");
        fs::write(&older, b"also gone").unwrap();
        assert_eq!(store.latest_valid_step().unwrap(), None);
        assert!(matches!(
            store.load_latest_valid(),
            Err(CheckpointError::NotFound)
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tmp_file_left_by_a_crash_is_harmless() {
        let dir = tmpdir("tmpfile");
        let store = CheckpointStore::open(&dir, 0).unwrap();
        store.save(1, b"good").unwrap();
        // Simulate a crash mid-write: a stale tmp file appears.
        fs::write(dir.join(".ckpt-r0.tmp"), b"half-writ").unwrap();
        assert_eq!(store.load_latest().unwrap(), (1, b"good".to_vec()));
        // The next save overwrites it and succeeds.
        store.save(2, b"better").unwrap();
        assert_eq!(store.load_latest().unwrap(), (2, b"better".to_vec()));
        fs::remove_dir_all(&dir).unwrap();
    }
}
