//! Durable file replacement: the one write → fsync → rename → fsync-dir
//! sequence behind every file this workspace promises survives a crash
//! (WAL snapshots, the WAL generation file, worker checkpoints).

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;

/// Names the failed step and its path in the error, keeping its kind.
fn failed<'a>(what: &'a str, path: &'a Path) -> impl FnOnce(io::Error) -> io::Error + 'a {
    move |e| io::Error::new(e.kind(), format!("{what} {}: {e}", path.display()))
}

/// Fsyncs `dir` so renames, creates and unlinks inside it are
/// themselves durable.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(failed("fsync dir", dir))
}

/// Atomically and durably replaces `final_path` (inside `dir`) with
/// `bytes`: writes `dir/tmp_name`, fsyncs it, renames it into place and
/// fsyncs `dir`. A crash at any point leaves either the old file or the
/// new one, complete — at worst plus a stale tmp file the next call
/// overwrites. Once this returns `Ok` the new contents survive a crash.
pub fn write_atomic(dir: &Path, tmp_name: &str, final_path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(tmp_name);
    let mut file = File::create(&tmp).map_err(failed("create", &tmp))?;
    file.write_all(bytes).map_err(failed("write", &tmp))?;
    file.sync_all().map_err(failed("fsync", &tmp))?;
    drop(file);
    fs::rename(&tmp, final_path).map_err(failed("rename", final_path))?;
    sync_dir(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replaces_the_target_and_leaves_no_tmp_behind() {
        let dir = std::env::temp_dir().join(format!("mrbc-fsio-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let target = dir.join("state.bin");

        write_atomic(&dir, ".state.tmp", &target, b"first").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"first");
        write_atomic(&dir, ".state.tmp", &target, b"second, longer").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"second, longer");
        assert!(!dir.join(".state.tmp").exists(), "tmp was renamed away");

        // A failure names its step and path, and keeps its kind.
        let missing = dir.join("no-such-dir");
        let err = write_atomic(&missing, ".t", &missing.join("x"), b"").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().starts_with("create "), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
