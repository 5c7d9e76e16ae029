//! `/proc` helpers shared by the process tests that check what a
//! supervisor leaves running.

use std::process::Command;
use std::time::Duration;

/// `(state, ppid)` of process `pid` from `/proc`, or `None` once it is
/// gone.
fn stat_of(pid: u32) -> Option<(char, u32)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let mut rest = stat[stat.rfind(')')? + 1..].split_whitespace();
    let state = rest.next()?.chars().next()?;
    Some((state, rest.next()?.parse().ok()?))
}

/// Whether `pid` is a running (not exited, not zombie) process.
pub fn alive(pid: u32) -> bool {
    stat_of(pid).is_some_and(|(state, _)| state != 'Z')
}

/// Every pid in `/proc`.
pub fn all_pids() -> Vec<u32> {
    std::fs::read_dir("/proc")
        .expect("read /proc")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .collect()
}

/// The running children of `pid`.
pub fn children_of(pid: u32) -> Vec<u32> {
    all_pids()
        .into_iter()
        .filter(|&c| stat_of(c).is_some_and(|(st, ppid)| ppid == pid && st != 'Z'))
        .collect()
}

/// Polls `done` for up to `ms` milliseconds; its last answer.
pub fn within_ms(ms: u64, mut done: impl FnMut() -> bool) -> bool {
    let deadline = mrbc_obs::monotonic_us() + ms * 1_000;
    while mrbc_obs::monotonic_us() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    done()
}

/// SIGKILLs whatever `pids` are still running (test clean-up, so a
/// failing assertion leaks nothing either).
pub fn kill_all(pids: &[u32]) {
    for pid in pids.iter().filter(|&&p| alive(p)) {
        drop(Command::new("kill").args(["-9", &pid.to_string()]).status());
    }
}
