//! One supervised child process, from spawn to reap: the only code in
//! `mrbc-net` and `mrbc-serve` that starts or signals a process. The
//! mesh launcher and the serve pool both use it.
//!
//! A [`Child`] gets piped stdin and stdout. Its stdout lines reach the
//! caller from a reader thread, then one `None` when the pipe closes:
//! the exit event. Its stdin is the **lifeline**. The first line
//! written to it is [`LIFELINE`], and the pipe stays open while the
//! handle lives; when the supervisor goes, even by SIGKILL, the kernel
//! closes it. A child that has read the line takes the EOF as an order
//! to exit, and one started by hand never sees it.
//!
//! Signals go through the handle, which keeps the process unreaped, so
//! its pid cannot pass to another process while a signal is possible;
//! once it is reaped, [`Child::signal`] refuses. `Drop` kills and reaps,
//! so no error path leaks a child.

use std::io::{self, BufRead, BufReader, Write};
use std::process::{self, ChildStdin, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::Duration;

/// The first line a supervisor writes to a child's stdin. A child that
/// has read it exits when its stdin reaches EOF.
pub const LIFELINE: &str = "SUPERVISED";

/// A job-control signal ([`Child::kill`] sends SIGKILL).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Signal {
    /// `SIGSTOP`: freeze the process.
    Stop,
    /// `SIGCONT`: thaw it.
    Cont,
}

/// A supervised child process. Dropping it kills and reaps the process.
pub struct Child {
    process: process::Child,
    /// The lifeline; closed on [`Child::wait`].
    stdin: Option<ChildStdin>,
}

/// Spawns `cmd` with piped stdin and stdout (stderr as `cmd` sets it)
/// and writes the [`LIFELINE`] line. `on_line` gets each stdout line,
/// then `None` once stdout closes, which is when the process has exited.
pub fn spawn(
    mut cmd: Command,
    mut on_line: impl FnMut(Option<String>) + Send + 'static,
) -> io::Result<Child> {
    let mut process = cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).spawn()?;
    let (stdin, stdout) = (process.stdin.take(), process.stdout.take());
    // Owned from here on: an early return kills and reaps it.
    let mut child = Child { process, stdin };
    let stdout = stdout.ok_or_else(|| io::Error::other("child stdout not piped"))?;
    std::thread::Builder::new()
        .name("child-stdout".into())
        .spawn(move || {
            let lines = BufReader::new(stdout).lines().map_while(Result::ok);
            lines.for_each(|line| on_line(Some(line)));
            on_line(None);
        })?;
    // A child already gone breaks the pipe; its exit event says so.
    drop(child.send_line(LIFELINE));
    Ok(child)
}

/// [`spawn`]s `cmd` and blocks until it prints a line that starts with
/// `prefix`; returns the child and the rest of that line. Later lines
/// are dropped, and `on_exit` runs once stdout closes. A child that
/// exits first, or is silent for `timeout_ms`, is killed and reaped.
pub fn spawn_ready(
    cmd: Command,
    prefix: &'static str,
    timeout_ms: u64,
    mut on_exit: impl FnMut() + Send + 'static,
) -> io::Result<(Child, String)> {
    let (tx, rx) = mpsc::channel();
    let mut ready = Some(tx);
    let child = spawn(cmd, move |line| match line {
        // Only the first such line is received; later ones go nowhere.
        Some(line) => {
            if let (Some(rest), Some(tx)) = (line.strip_prefix(prefix), &ready) {
                drop(tx.send(rest.trim().to_string()));
            }
        }
        // Hanging up tells a waiter that the child exited unready.
        None => {
            ready = None;
            on_exit();
        }
    })?;
    match rx.recv_timeout(Duration::from_millis(timeout_ms)) {
        Ok(rest) => Ok((child, rest)),
        Err(_) => Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!("child never printed its {prefix:?} readiness line"),
        )),
    }
}

impl Child {
    /// Writes one line to the child's stdin and flushes it.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        let stdin = self.stdin.as_mut().ok_or(io::ErrorKind::BrokenPipe)?;
        writeln!(stdin, "{line}")?;
        stdin.flush()
    }

    /// Sends `sig`. Refused once the child has exited: reaped, its pid
    /// may belong to another process.
    pub fn signal(&mut self, sig: Signal) -> io::Result<()> {
        if self.process.try_wait()?.is_some() {
            return Err(io::Error::new(io::ErrorKind::NotFound, "child exited"));
        }
        let flag = match sig {
            Signal::Stop => "-STOP",
            Signal::Cont => "-CONT",
        };
        let sent = Command::new("kill")
            .args([flag, &self.process.id().to_string()])
            .status()?;
        match sent.success() {
            true => Ok(()),
            false => Err(io::Error::other(format!("kill {flag}: {sent}"))),
        }
    }

    /// Closes the lifeline, waits for the child to exit and reaps it.
    pub fn wait(&mut self) -> io::Result<ExitStatus> {
        self.stdin = None;
        self.process.wait()
    }

    /// SIGKILLs the child and reaps it. Once it is reaped, the standard
    /// library sends nothing: the pid may have been reused.
    pub fn kill(&mut self) {
        drop(self.process.kill());
        drop(self.wait());
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        self.kill();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Command {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", script]);
        cmd
    }

    #[test]
    fn lines_then_one_exit_event_and_the_lifeline_comes_first() {
        let (tx, rx) = mpsc::channel();
        let mut child = spawn(sh("read first; echo got $first; echo bye"), move |l| {
            drop(tx.send(l));
        })
        .expect("spawn sh");
        let got: Vec<Option<String>> = rx.iter().take(3).collect();
        assert_eq!(
            got,
            vec![Some(format!("got {LIFELINE}")), Some("bye".into()), None]
        );
        assert!(child.wait().expect("reap").success());
    }

    #[test]
    fn lifeline_eof_reaches_the_child_when_the_handle_waits() {
        // `cat` echoes the lifeline line, then exits on EOF: `wait`
        // closes stdin before waiting, so this returns.
        let (tx, rx) = mpsc::channel();
        let mut child = spawn(Command::new("cat"), move |l| drop(tx.send(l))).expect("cat");
        assert_eq!(rx.recv().expect("line"), Some(LIFELINE.to_string()));
        assert!(child.wait().expect("reap").success());
        assert_eq!(rx.recv().expect("exit"), None);
    }

    #[test]
    fn signal_after_kill_is_refused_and_sends_nothing() {
        let (tx, rx) = mpsc::channel();
        let mut child = spawn(sh("exec sleep 30"), move |l| drop(tx.send(l))).expect("sleep");
        child.signal(Signal::Stop).expect("stop a live child");
        child.signal(Signal::Cont).expect("thaw it");
        child.kill();
        let err = child.signal(Signal::Cont).expect_err("reaped");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(child.send_line("QUIT").is_err(), "the lifeline is closed");
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(None));
    }

    #[test]
    fn spawn_ready_returns_the_readiness_line_or_fails_fast() {
        let (child, rest) = spawn_ready(
            sh("echo noise; echo 'SERVE 1.2.3.4:5'; exec sleep 30"),
            "SERVE ",
            10_000,
            || {},
        )
        .expect("ready");
        assert_eq!(rest, "1.2.3.4:5");
        drop(child);

        let (tx, rx) = mpsc::channel();
        let early = spawn_ready(sh("echo nothing"), "SERVE ", 10_000, move || {
            let _ = tx.send(());
        });
        assert!(early.is_err(), "a child that exits first is not ready");
        rx.recv_timeout(Duration::from_secs(5)).expect("exit event");

        let silent = spawn_ready(sh("exec sleep 30"), "SERVE ", 50, || {});
        let err = silent.err().expect("timed out");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }
}
