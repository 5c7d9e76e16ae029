//! The launcher: spawns N worker processes, wires their stdin/stdout
//! into the control plane, executes kill faults for real (SIGKILL), and
//! drives the crash-restart recovery handshake.
//!
//! Each worker is a [`crate::child::Child`]: its stdout lines arrive on
//! the launcher's one event channel, tagged with the rank, and its
//! stdin is the lifeline — a worker whose launcher is gone (exited or
//! SIGKILLed) reads EOF and leaves ("launcher hung up"). Every error
//! path drops the slots, which kills and reaps every worker.
//!
//! # Line protocol
//!
//! Workers and the launcher speak newline-delimited ASCII over the
//! child's stdio (the transport for *control*; bulk data flows over the
//! TCP mesh):
//!
//! ```text
//! worker → launcher:  LISTEN <addr>
//!                     CKPT <step | none>
//!                     STEP <step>
//!                     STALLED <step>
//!                     DONE <steps> <fingerprint:016x>
//!                     DEGRADED <step> <fingerprint:016x> <r,r,… | ->
//! launcher → worker:  RECOVER
//!                     RESUME <step> <epoch> <addr,addr,…>
//!                     TRACE <trace:016x> <parent:016x>
//!                     QUIT
//! ```
//!
//! `TRACE` carries the launcher's distributed trace context (trace id +
//! parent span id); it is sent to every worker before the first
//! `RESUME` and re-sent to respawned replacements, so every
//! incarnation's exchange spans correlate back to the same launch.
//!
//! # Recovery walkthrough
//!
//! 1. a worker dies (planned SIGKILL or otherwise); its stdout reader
//!    reports EOF;
//! 2. the launcher respawns the rank (same arguments, same checkpoint
//!    directory) and reads its fresh `LISTEN` address — a *new* port, so
//!    there is no bind race against lingering sockets of the corpse;
//! 3. `RECOVER` goes to every worker; each answers `CKPT` with its
//!    newest durable boundary (the respawned worker reads its own from
//!    the surviving checkpoint directory);
//! 4. the launcher takes the minimum — BSP skew is at most one step and
//!    stores keep the last two boundaries, so every worker holds that
//!    checkpoint — bumps the epoch, and broadcasts
//!    `RESUME <min> <epoch+1> <addrs>`;
//! 5. every worker restores its own checkpoint at `<min>`, re-enters the
//!    mesh under the new epoch (stragglers from the old incarnation are
//!    discarded by the epoch filter), and re-executes. Determinism of
//!    the SPMD fold makes the re-execution bit-identical, which the
//!    launcher verifies by asserting all `DONE` fingerprints agree.

use std::io;
use std::net::SocketAddr;
use std::process::Command;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};

use crate::child::{self, Child};
use crate::mesh::{now_ms, time_until};
use crate::worker::{ControlMsg, WorkerEvent, WorkerOutcome};

/// One parsed worker → launcher stdout line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkerLine {
    /// The worker's mesh listen address.
    Listen(SocketAddr),
    /// Reply to `RECOVER`: newest durable checkpoint boundary.
    Ckpt(Option<u64>),
    /// Step committed.
    Step(u64),
    /// Exchange stalled on a dead peer; parked for recovery.
    Stalled(u64),
    /// Run completed.
    Done {
        /// Steps executed by this worker process (including re-runs).
        steps: u64,
        /// Result fingerprint.
        fingerprint: u64,
    },
    /// Deadline budget expired; partial result reported.
    Degraded {
        /// Last committed step boundary.
        step: u64,
        /// Fingerprint over the partial result.
        fingerprint: u64,
        /// Ranks whose payloads were missing.
        missing: Vec<usize>,
    },
    /// Unparseable chatter (ignored, kept for diagnostics).
    Other(String),
    /// The worker's stdout closed — the process is gone.
    Eof,
}

/// Formats a [`WorkerEvent`] as its protocol line.
pub fn event_line(ev: &WorkerEvent) -> String {
    match ev {
        WorkerEvent::CkptLatest(Some(s)) => format!("CKPT {s}"),
        WorkerEvent::CkptLatest(None) => "CKPT none".to_string(),
        WorkerEvent::Step(s) => format!("STEP {s}"),
        WorkerEvent::Stalled(s) => format!("STALLED {s}"),
    }
}

/// Formats a [`WorkerOutcome`] as its protocol line.
pub fn outcome_line(out: &WorkerOutcome) -> String {
    match out {
        WorkerOutcome::Completed { steps, fingerprint } => {
            format!("DONE {steps} {fingerprint:016x}")
        }
        WorkerOutcome::Degraded {
            completed_step,
            fingerprint,
            missing,
        } => {
            let m = if missing.is_empty() {
                "-".to_string()
            } else {
                missing
                    .iter()
                    .map(|r| r.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            format!("DEGRADED {completed_step} {fingerprint:016x} {m}")
        }
    }
}

/// Formats a [`ControlMsg`] as its protocol line.
pub fn control_line(msg: &ControlMsg) -> String {
    match msg {
        ControlMsg::Recover => "RECOVER".to_string(),
        ControlMsg::Resume { step, epoch, addrs } => {
            let a = addrs
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(",");
            format!("RESUME {step} {epoch} {a}")
        }
        ControlMsg::Quit => "QUIT".to_string(),
        ControlMsg::Trace { trace, parent } => format!("TRACE {trace:016x} {parent:016x}"),
    }
}

/// Parses a launcher → worker control line.
pub fn parse_control_line(line: &str) -> Option<ControlMsg> {
    let mut parts = line.split_whitespace();
    match parts.next()? {
        "RECOVER" => Some(ControlMsg::Recover),
        "QUIT" => Some(ControlMsg::Quit),
        "TRACE" => {
            let trace = u64::from_str_radix(parts.next()?, 16).ok()?;
            let parent = u64::from_str_radix(parts.next()?, 16).ok()?;
            Some(ControlMsg::Trace { trace, parent })
        }
        "RESUME" => {
            let step = parts.next()?.parse().ok()?;
            let epoch = parts.next()?.parse().ok()?;
            let addrs: Option<Vec<SocketAddr>> =
                parts.next()?.split(',').map(|a| a.parse().ok()).collect();
            Some(ControlMsg::Resume {
                step,
                epoch,
                addrs: addrs?,
            })
        }
        _ => None,
    }
}

/// Parses a worker → launcher stdout line ([`WorkerLine::Other`] when it
/// is not protocol traffic).
pub fn parse_worker_line(line: &str) -> WorkerLine {
    let mut parts = line.split_whitespace();
    let other = || WorkerLine::Other(line.to_string());
    match parts.next() {
        Some("LISTEN") => match parts.next().and_then(|a| a.parse().ok()) {
            Some(addr) => WorkerLine::Listen(addr),
            None => other(),
        },
        Some("CKPT") => match parts.next() {
            Some("none") => WorkerLine::Ckpt(None),
            Some(s) => match s.parse() {
                Ok(v) => WorkerLine::Ckpt(Some(v)),
                Err(_) => other(),
            },
            None => other(),
        },
        Some("STEP") => match parts.next().and_then(|s| s.parse().ok()) {
            Some(s) => WorkerLine::Step(s),
            None => other(),
        },
        Some("STALLED") => match parts.next().and_then(|s| s.parse().ok()) {
            Some(s) => WorkerLine::Stalled(s),
            None => other(),
        },
        Some("DONE") => {
            let steps = parts.next().and_then(|s| s.parse().ok());
            let fp = parts.next().and_then(|s| u64::from_str_radix(s, 16).ok());
            match (steps, fp) {
                (Some(steps), Some(fingerprint)) => WorkerLine::Done { steps, fingerprint },
                _ => other(),
            }
        }
        Some("DEGRADED") => {
            let step = parts.next().and_then(|s| s.parse().ok());
            let fp = parts.next().and_then(|s| u64::from_str_radix(s, 16).ok());
            let missing = parts.next().map(|m| {
                if m == "-" {
                    Vec::new()
                } else {
                    m.split(',').filter_map(|r| r.parse().ok()).collect()
                }
            });
            match (step, fp, missing) {
                (Some(step), Some(fingerprint), Some(missing)) => WorkerLine::Degraded {
                    step,
                    fingerprint,
                    missing,
                },
                _ => other(),
            }
        }
        _ => other(),
    }
}

/// How one rank's run ended, from the launcher's point of view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RankOutcome {
    /// `DONE` received.
    Completed {
        /// Steps the final worker process executed.
        steps: u64,
        /// Result fingerprint.
        fingerprint: u64,
    },
    /// `DEGRADED` received.
    Degraded {
        /// Last committed step boundary.
        step: u64,
        /// Fingerprint over the partial result.
        fingerprint: u64,
        /// Ranks whose payloads were missing.
        missing: Vec<usize>,
    },
}

/// Summary of a launched run.
#[derive(Clone, Debug)]
pub struct LaunchReport {
    /// Per-rank outcome.
    pub outcomes: Vec<RankOutcome>,
    /// Crash-restart recoveries performed.
    pub recoveries: u32,
    /// Final transport epoch.
    pub epoch: u32,
}

impl LaunchReport {
    /// The fingerprint every rank agreed on — `Some` only when every
    /// rank completed (not degraded) with the same value.
    pub fn consensus_fingerprint(&self) -> Option<u64> {
        let mut fp = None;
        for o in &self.outcomes {
            match o {
                RankOutcome::Completed { fingerprint, .. } => match fp {
                    None => fp = Some(*fingerprint),
                    Some(f) if f == *fingerprint => {}
                    Some(_) => return None,
                },
                RankOutcome::Degraded { .. } => return None,
            }
        }
        fp
    }
}

/// Launcher-side failure.
#[derive(Debug)]
pub enum LaunchError {
    /// Spawn or stdio plumbing failed.
    Io(std::io::Error),
    /// A worker broke the line protocol.
    Protocol(String),
    /// A worker exited when it should not have (outside a planned kill).
    WorkerDied {
        /// Rank that died.
        rank: usize,
    },
    /// The run (or one recovery phase) did not finish in time.
    Timeout(&'static str),
    /// Completed ranks reported different fingerprints — a determinism
    /// bug, never expected.
    FingerprintMismatch {
        /// The per-rank fingerprints observed.
        fingerprints: Vec<u64>,
    },
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::Io(e) => write!(f, "launcher i/o: {e}"),
            LaunchError::Protocol(what) => write!(f, "worker protocol violation: {what}"),
            LaunchError::WorkerDied { rank } => write!(f, "worker {rank} died unexpectedly"),
            LaunchError::Timeout(phase) => write!(f, "launch timed out during {phase}"),
            LaunchError::FingerprintMismatch { fingerprints } => {
                write!(
                    f,
                    "workers disagree on the result fingerprint: {fingerprints:?}"
                )
            }
        }
    }
}

impl std::error::Error for LaunchError {}

impl From<std::io::Error> for LaunchError {
    fn from(e: std::io::Error) -> Self {
        LaunchError::Io(e)
    }
}

/// Launch-time knobs.
pub struct LaunchConfig {
    /// Number of worker ranks.
    pub num_workers: usize,
    /// Planned kills: SIGKILL `rank` once it reports `STEP step`.
    /// Executed at most once per entry; the rank is respawned and the
    /// run recovered.
    pub kills: Vec<(usize, u64)>,
    /// Overall wall-clock budget for the whole run.
    pub timeout_ms: u64,
}

impl Default for LaunchConfig {
    fn default() -> Self {
        LaunchConfig {
            num_workers: 2,
            kills: Vec::new(),
            timeout_ms: 120_000,
        }
    }
}

struct Slot {
    child: Child,
    outcome: Option<RankOutcome>,
    /// A planned kill has been fired: until its EOF, lines from this
    /// rank are the killed incarnation's last words.
    dying: bool,
}

/// Spawns `cfg.num_workers` workers (`spawn_cmd(rank)` builds each
/// command; stdin and stdout overridden to pipes), runs them to
/// completion through any planned kills, and returns the per-rank
/// outcomes.
pub fn launch<F: FnMut(usize) -> Command>(
    mut spawn_cmd: F,
    cfg: &LaunchConfig,
) -> Result<LaunchReport, LaunchError> {
    let n = cfg.num_workers;
    assert!(n >= 1, "at least one worker");
    let deadline = now_ms() + cfg.timeout_ms;
    let (tx, rx) = channel::<(usize, WorkerLine)>();
    let mut spawn = |rank: usize| {
        let tx = tx.clone();
        let child = child::spawn(spawn_cmd(rank), move |line: Option<String>| {
            let line = line.map_or(WorkerLine::Eof, |l| parse_worker_line(&l));
            drop(tx.send((rank, line)));
        })?;
        Ok(Slot {
            child,
            outcome: None,
            dying: false,
        })
    };

    // Every rank loads its graph before it listens: spawn them all,
    // then collect the addresses, so start-up is not serialized.
    let mut slots: Vec<Slot> = Vec::with_capacity(n);
    let mut addrs: Vec<SocketAddr> = Vec::with_capacity(n);
    for rank in 0..n {
        slots.push(spawn(rank)?);
    }
    mrbc_obs::counter_add("net.launch.workers", n as u64);

    // Collect every rank's listen address, then kick off the run.
    let mut got: Vec<Option<SocketAddr>> = vec![None; n];
    while got.iter().any(Option::is_none) {
        let (rank, line) = next_event(&rx, deadline, "address collection")?;
        match line {
            WorkerLine::Listen(a) => got[rank] = Some(a),
            WorkerLine::Eof => return Err(LaunchError::WorkerDied { rank }),
            WorkerLine::Other(_) => {}
            other => {
                return Err(LaunchError::Protocol(format!(
                    "rank {rank} sent {other:?} before LISTEN"
                )))
            }
        }
    }
    for a in got {
        // lint: allow(unwrap): loop above exits only when all are Some
        addrs.push(a.expect("collected above"));
    }

    // One trace context for the whole run: every worker (and every
    // respawned replacement, which gets the context re-sent during
    // recovery) hangs its exchange spans under this launch span.
    let trace = (mrbc_obs::fresh_id(), mrbc_obs::fresh_id());
    let _launch_span = mrbc_obs::span("net.launch", "net")
        .arg("trace", trace.0)
        .arg("span", trace.1)
        .arg("parent", 0);
    broadcast(
        &mut slots,
        &ControlMsg::Trace {
            trace: trace.0,
            parent: trace.1,
        },
    )?;

    let mut epoch: u32 = 0;
    broadcast(
        &mut slots,
        &ControlMsg::Resume {
            step: 0,
            epoch,
            addrs: addrs.clone(),
        },
    )?;

    let mut kills = cfg.kills.clone();
    let mut recoveries: u32 = 0;
    loop {
        if slots.iter().all(|s| s.outcome.is_some()) {
            break;
        }
        let (rank, line) = next_event(&rx, deadline, "run")?;
        if slots[rank].dying && line != WorkerLine::Eof {
            continue;
        }
        match line {
            WorkerLine::Step(s) => {
                // One kill at a time: a kill due while another rank's EOF
                // is pending stays planned; the re-run may reach it again.
                let busy = slots.iter().any(|slot| slot.dying);
                if let Some(pos) = kills
                    .iter()
                    .position(|&(r, ks)| !busy && r == rank && ks == s)
                {
                    kills.remove(pos);
                    slots[rank].dying = true;
                    slots[rank].child.kill();
                    mrbc_obs::counter_add("net.launch.kills", 1);
                }
            }
            // An exit after DONE/DEGRADED is clean. Any other is a death —
            // planned, externally SIGKILLed, crashed… — and recovery
            // starts once its EOF is in, so no stale line from the old
            // incarnation interleaves with the respawn's.
            WorkerLine::Eof if slots[rank].outcome.is_none() => {
                recover(
                    &mut spawn, &mut slots, &mut addrs, &rx, rank, &mut epoch, deadline, trace,
                )?;
                recoveries += 1;
            }
            WorkerLine::Done { steps, fingerprint } => {
                slots[rank].outcome = Some(RankOutcome::Completed { steps, fingerprint });
            }
            WorkerLine::Degraded {
                step,
                fingerprint,
                missing,
            } => {
                slots[rank].outcome = Some(RankOutcome::Degraded {
                    step,
                    fingerprint,
                    missing,
                });
            }
            WorkerLine::Eof
            | WorkerLine::Stalled(_)
            | WorkerLine::Other(_)
            | WorkerLine::Ckpt(_) => {}
            WorkerLine::Listen(_) => {
                return Err(LaunchError::Protocol(format!("rank {rank} re-sent LISTEN")))
            }
        }
    }

    for slot in &mut slots {
        let _ = slot.child.wait();
    }
    let outcomes: Vec<RankOutcome> = slots
        .into_iter()
        .map(|s| {
            // lint: allow(unwrap): loop exits only when every outcome is set
            s.outcome.expect("all outcomes recorded")
        })
        .collect();
    let completed_fps: Vec<u64> = outcomes
        .iter()
        .filter_map(|o| match o {
            RankOutcome::Completed { fingerprint, .. } => Some(*fingerprint),
            RankOutcome::Degraded { .. } => None,
        })
        .collect();
    if completed_fps.windows(2).any(|w| w[0] != w[1]) {
        return Err(LaunchError::FingerprintMismatch {
            fingerprints: completed_fps,
        });
    }
    Ok(LaunchReport {
        outcomes,
        recoveries,
        epoch,
    })
}

fn next_event(
    rx: &Receiver<(usize, WorkerLine)>,
    deadline: u64,
    phase: &'static str,
) -> Result<(usize, WorkerLine), LaunchError> {
    rx.recv_timeout(time_until(deadline)).map_err(|e| match e {
        RecvTimeoutError::Timeout => LaunchError::Timeout(phase),
        RecvTimeoutError::Disconnected => {
            LaunchError::Protocol("all worker readers gone".to_string())
        }
    })
}

fn send_line(slot: &mut Slot, msg: &ControlMsg) -> Result<(), LaunchError> {
    Ok(slot.child.send_line(&control_line(msg))?)
}

fn broadcast(slots: &mut [Slot], msg: &ControlMsg) -> Result<(), LaunchError> {
    for slot in slots.iter_mut() {
        send_line(slot, msg)?;
    }
    Ok(())
}

/// Runs the recovery handshake once `dead_rank`'s EOF is in: respawn
/// it, collect everyone's newest checkpoint boundary, and broadcast the
/// resume.
#[allow(clippy::too_many_arguments)]
fn recover(
    spawn: &mut impl FnMut(usize) -> io::Result<Slot>,
    slots: &mut [Slot],
    addrs: &mut [SocketAddr],
    rx: &Receiver<(usize, WorkerLine)>,
    dead_rank: usize,
    epoch: &mut u32,
    deadline: u64,
    trace: (u64, u64),
) -> Result<(), LaunchError> {
    // Respawn on a fresh port; the checkpoint directory survived. The
    // corpse's stdout is closed, so it has exited; replacing its slot
    // reaps it.
    slots[dead_rank] = spawn(dead_rank)?;
    mrbc_obs::counter_add("net.launch.respawns", 1);
    loop {
        let (rank, line) = next_event(rx, deadline, "respawn listen")?;
        match line {
            WorkerLine::Listen(a) if rank == dead_rank => {
                addrs[dead_rank] = a;
                break;
            }
            WorkerLine::Eof if slots[rank].outcome.is_none() => {
                return Err(LaunchError::WorkerDied { rank })
            }
            _ => {}
        }
    }

    // The replacement missed the run-start TRACE broadcast; re-send it
    // so its spans land in the same distributed trace as its
    // predecessor's.
    send_line(
        &mut slots[dead_rank],
        &ControlMsg::Trace {
            trace: trace.0,
            parent: trace.1,
        },
    )?;

    // Everyone reports their newest durable boundary…
    broadcast(slots, &ControlMsg::Recover)?;
    let mut latest: Vec<Option<Option<u64>>> = vec![None; slots.len()];
    while latest.iter().any(Option::is_none) {
        let (rank, line) = next_event(rx, deadline, "checkpoint collection")?;
        match line {
            WorkerLine::Ckpt(v) => latest[rank] = Some(v),
            WorkerLine::Eof if slots[rank].outcome.is_none() => {
                return Err(LaunchError::WorkerDied { rank })
            }
            _ => {}
        }
    }
    // …and the minimum is covered by every store (skew ≤ 1, keep-2).
    let min_step = latest
        .iter()
        .copied()
        .map(|v| v.flatten().unwrap_or(0))
        .min()
        .unwrap_or(0);
    *epoch += 1;
    mrbc_obs::counter_add("net.launch.recoveries", 1);
    broadcast(
        slots,
        &ControlMsg::Resume {
            step: min_step,
            epoch: *epoch,
            addrs: addrs.to_vec(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_lifeline_line_is_no_control_message() {
        // A mesh worker skips it and exits on the EOF that follows.
        assert!(parse_control_line(child::LIFELINE).is_none());
    }
}
