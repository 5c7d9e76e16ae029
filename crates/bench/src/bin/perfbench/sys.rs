//! What the benchmark reads from the machine rather than from the
//! program: the clock, `/proc` accounting, the run's scratch directory,
//! and the environment description a result is only comparable within.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};

/// The one clock perfbench times with (µs, monotonic, independent of
/// whether a recorder is installed).
pub(crate) fn now_us() -> u64 {
    mrbc_obs::monotonic_us()
}

/// Seconds elapsed since `t0_us`.
pub(crate) fn secs_since(t0_us: u64) -> f64 {
    now_us().saturating_sub(t0_us) as f64 / 1e6
}

/// Kernel scheduler ticks per second for `/proc/self/stat` (Linux fixes
/// `USER_HZ` at 100 on every architecture this runs on).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed by this process so far, from
/// `/proc/self/stat` (0 where `/proc` is unavailable).
pub(crate) fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, i.e. 11 and 12 after `)`.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok());
    match (tick(), tick()) {
        (Some(utime), Some(stime)) => (utime + stime) / USER_HZ,
        _ => 0.0,
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 without `/proc`.
pub(crate) fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where perfbench keeps files: `<target>/perfbench`, with `<target>`
/// the cargo target directory this binary was built into (the ancestor
/// of the executable that holds cargo's `CACHEDIR.TAG`; `target` if
/// the binary was moved), so nothing lands outside what `.gitignore`
/// already covers.
pub(crate) fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    exe.ancestors()
        .find(|d| d.join("CACHEDIR.TAG").is_file())
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("perfbench")
}

/// A scratch directory for WAL files under
/// `<target>/perfbench/<pid>/`, removed again when dropped.
pub(crate) struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl Scratch {
    /// Creates a fresh, empty scratch directory.
    pub(crate) fn create() -> std::io::Result<Scratch> {
        // Numbered below the pid so several in one process (the unit
        // tests run in parallel threads) never share a directory.
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let root = out_dir()
            .join(std::process::id().to_string())
            .join(NEXT.fetch_add(1, Ordering::Relaxed).to_string());
        // A previous process with the same pid may have crashed here.
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A fresh, empty subdirectory.
    pub(crate) fn subdir(&self, tag: &str) -> std::io::Result<PathBuf> {
        let i = self.next.get();
        self.next.set(i + 1);
        let dir = self.root.join(format!("{tag}-{i}"));
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // The pid directory goes with its last scratch (fails, and is
        // meant to, while a sibling is still in use).
        if let Some(pid_dir) = self.root.parent() {
            let _ = std::fs::remove_dir(pid_dir);
        }
    }
}

/// First line of `cmd args…`'s stdout, or `unknown`.
fn tool_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine and toolchain a set of results was measured on.
pub(crate) struct Environment {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD` (or `unknown` outside a repository).
    pub commit: String,
}

impl Environment {
    /// Reads the environment (spawns `rustc` and `git` once each).
    pub(crate) fn read() -> Environment {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Environment {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            rustc: tool_line("rustc", &["--version"]),
            commit: tool_line("git", &["rev-parse", "HEAD"]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        let t0 = now_us();
        assert!(now_us() >= t0);
        assert!(cpu_seconds() >= 0.0);
        // On Linux the test process has touched at least a megabyte.
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 1.0);
        }
    }

    #[test]
    fn scratch_dirs_are_fresh_and_removed_on_drop() {
        let scratch = Scratch::create().expect("create");
        let a = scratch.subdir("wal").expect("a");
        let b = scratch.subdir("wal").expect("b");
        assert!(a != b && a.is_dir() && b.is_dir());
        let root = scratch.root.clone();
        drop(scratch);
        assert!(!root.exists());
    }
}
