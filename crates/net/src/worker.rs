//! The worker-side runtime: drives an [`SpmdProgram`] over a [`Mesh`],
//! checkpointing at every step boundary and cooperating with a launcher
//! over a small line-oriented control plane to survive crash-restart
//! recovery.
//!
//! # Step loop
//!
//! At the top of step `s` the worker durably checkpoints the program
//! (atomic write-rename, CRC-sealed — see [`crate::checkpoint`]), runs
//! the replicated pre-step, computes its own rank's partials, and
//! allgathers payloads. Because checkpoints are cut only at step
//! boundaries, a restore replays the exact same sequence of folds and
//! the floating-point state evolves bit-identically.
//!
//! # Recovery protocol
//!
//! The launcher owns recovery; the worker reacts:
//!
//! ```text
//! launcher → worker:  Recover
//! worker  → launcher: CkptLatest(step | none)
//! launcher → worker:  Resume { step, epoch, addrs }
//! ```
//!
//! On `Resume` the worker restores its own checkpoint at `step`
//! (BSP skew is at most one step and the store keeps the last two
//! checkpoints, so the launcher's `min` over reported latests is covered
//! by every worker — including the respawned one, whose checkpoint
//! directory survived the crash), re-enters the mesh in the new epoch,
//! and re-executes from `step`. Frames from the previous incarnation are
//! discarded by the epoch filter.
//!
//! When an exchange stalls because the failure detector declared a peer
//! dead, the worker reports [`WorkerEvent::Stalled`] and parks until the
//! launcher drives the handshake above — it never unilaterally abandons
//! the run while a control plane is attached.

use std::net::SocketAddr;
use std::sync::mpsc::Receiver;

use mrbc_dgalois::spmd::SpmdProgram;

use crate::checkpoint::CheckpointStore;
use crate::mesh::{Mesh, MeshError};

/// Messages the launcher can send a worker.
#[derive(Clone, Debug)]
pub enum ControlMsg {
    /// A peer died; report your newest *valid* durable checkpoint
    /// (corrupt files are skipped, not reported) and park.
    Recover,
    /// Restore checkpoint `step`, enter `epoch`, reconnect to `addrs`,
    /// re-execute from `step`. Also used (with `step == 0`) to start a
    /// fresh run once every worker's listen address is known.
    Resume {
        /// Step boundary to restart from.
        step: u64,
        /// New transport epoch.
        epoch: u32,
        /// Current listen address of every rank.
        addrs: Vec<SocketAddr>,
    },
    /// Abandon the run immediately.
    Quit,
    /// Adopt the launcher's trace context: exchange spans are tagged
    /// with `trace` / `parent` so a cross-process trace merge can hang
    /// every rank's work (including respawned replacements, which get
    /// the same message re-sent) under the originating launch span.
    Trace {
        /// Distributed trace id minted by the launcher.
        trace: u64,
        /// Span id of the launcher's `net.launch` span.
        parent: u64,
    },
}

/// Progress events a worker reports to its launcher.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkerEvent {
    /// The newest durable checkpoint boundary that still validates
    /// (reply to `Recover`); bit-rotted newer files are skipped so the
    /// launcher's `min` never lands on an unloadable step.
    CkptLatest(Option<u64>),
    /// Step `s` committed (exchange folded, moving to `s + 1`).
    Step(u64),
    /// The exchange at this step cannot complete (peer declared dead);
    /// parked awaiting recovery.
    Stalled(u64),
}

/// How a worker run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkerOutcome {
    /// The program ran to completion.
    Completed {
        /// Steps executed (including re-executed ones after recovery).
        steps: u64,
        /// Program fingerprint over the final result.
        fingerprint: u64,
    },
    /// The per-step deadline budget expired; the program state is valid
    /// at the last committed step boundary and the fingerprint covers
    /// the partial result accumulated so far.
    Degraded {
        /// Last step boundary the program committed.
        completed_step: u64,
        /// Fingerprint over the partial result.
        fingerprint: u64,
        /// Ranks whose payloads were missing when the budget expired.
        missing: Vec<usize>,
    },
}

/// Worker-side failure.
#[derive(Debug)]
pub enum WorkerError {
    /// Transport failure with no control plane attached to recover it.
    Mesh(MeshError),
    /// Durable checkpoint failure.
    Checkpoint(crate::checkpoint::CheckpointError),
    /// The program rejected a payload or a restored snapshot.
    Wire(mrbc_util::wire::WireError),
    /// The control plane hung up or violated the protocol.
    Control(&'static str),
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::Mesh(e) => write!(f, "transport: {e}"),
            WorkerError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            WorkerError::Wire(e) => write!(f, "program state: {e}"),
            WorkerError::Control(what) => write!(f, "control plane: {what}"),
        }
    }
}

impl std::error::Error for WorkerError {}

impl From<MeshError> for WorkerError {
    fn from(e: MeshError) -> Self {
        WorkerError::Mesh(e)
    }
}

impl From<crate::checkpoint::CheckpointError> for WorkerError {
    fn from(e: crate::checkpoint::CheckpointError) -> Self {
        WorkerError::Checkpoint(e)
    }
}

impl From<mrbc_util::wire::WireError> for WorkerError {
    fn from(e: mrbc_util::wire::WireError) -> Self {
        WorkerError::Wire(e)
    }
}

/// The launcher-facing side of a worker: an optional inbound message
/// stream and an event sink. With no receiver attached the worker runs
/// fire-and-forget: transport failures become errors instead of stalls.
pub struct ControlPlane {
    /// Inbound control messages (`None` → headless run). The sender
    /// wakes the worker's mesh ([`Mesh::waker`]) after each message, and
    /// once more when it hangs up; a blocked worker notices nothing else.
    pub rx: Option<Receiver<ControlMsg>>,
    /// Event sink (launcher stdout lines, test probes, …).
    pub notify: Box<dyn FnMut(&WorkerEvent) + Send>,
}

impl ControlPlane {
    /// A control plane that receives nothing and reports nowhere.
    pub fn headless() -> Self {
        ControlPlane {
            rx: None,
            notify: Box::new(|_| {}),
        }
    }

    fn poll(&mut self) -> Result<Option<ControlMsg>, WorkerError> {
        use std::sync::mpsc::TryRecvError;
        match &self.rx {
            None => Ok(None),
            Some(rx) => match rx.try_recv() {
                Ok(msg) => Ok(Some(msg)),
                Err(TryRecvError::Empty) => Ok(None),
                Err(TryRecvError::Disconnected) => Err(WorkerError::Control("launcher hung up")),
            },
        }
    }

    fn attached(&self) -> bool {
        self.rx.is_some()
    }
}

/// Mesh (re-)establish timeout when handling `Resume`.
const ESTABLISH_TIMEOUT_MS: u64 = 10_000;

/// Worker runtime knobs.
#[derive(Default)]
pub struct WorkerConfig {
    /// Durable checkpoint store (`None` → no durability, no recovery).
    pub store: Option<CheckpointStore>,
    /// Per-step wall-clock budget; expiry degrades to a partial result.
    pub deadline_ms: Option<u64>,
    /// Partition faults to enforce, as `(step, peer, window_ms)`:
    /// entering `step` severs the link to `peer` for `window_ms`.
    pub partitions: Vec<(u64, usize, u64)>,
    /// `(trace id, parent span id)` adopted from the launcher's
    /// [`ControlMsg::Trace`]; `(0, 0)` = untraced.
    pub trace: (u64, u64),
}

/// A control message that redirects the step loop.
enum Flow {
    /// A `Resume` was applied; restart the step loop at this step.
    ResumedAt(u64),
    /// `Quit` received.
    Quit,
}

/// Drives `prog` to completion over `mesh`.
///
/// `mesh` must already be connected ([`Mesh::connect`]) for a fresh
/// start; under a launcher, the initial `Resume { step: 0 }` performs
/// the connect. Returns the outcome, or an error when something fails
/// with no launcher attached to recover it.
pub fn run_worker<P: SpmdProgram>(
    prog: &mut P,
    mesh: &mut Mesh,
    cfg: &mut WorkerConfig,
    control: &mut ControlPlane,
) -> Result<WorkerOutcome, WorkerError> {
    run_worker_from(prog, mesh, cfg, control, 0)
}

/// Blocks until the launcher's first [`ControlMsg::Resume`] arrives,
/// applies it (restore + connect), and returns the step to start from.
/// A launched worker calls this before [`run_worker_from`]; a respawned
/// worker additionally answers the launcher's `Recover` probe with its
/// surviving checkpoint boundary while parked here.
pub fn await_resume<P: SpmdProgram>(
    prog: &mut P,
    mesh: &mut Mesh,
    cfg: &mut WorkerConfig,
    control: &mut ControlPlane,
) -> Result<u64, WorkerError> {
    match await_recovery(prog, mesh, cfg, control)? {
        Flow::ResumedAt(s) => Ok(s),
        Flow::Quit => Err(WorkerError::Control("quit before first resume")),
    }
}

/// [`run_worker`], starting from an arbitrary step boundary (the one a
/// preceding [`await_resume`] restored).
pub fn run_worker_from<P: SpmdProgram>(
    prog: &mut P,
    mesh: &mut Mesh,
    cfg: &mut WorkerConfig,
    control: &mut ControlPlane,
    start_step: u64,
) -> Result<WorkerOutcome, WorkerError> {
    // Completed, degraded or told to quit, the worker leaves in order;
    // an error leaves the mesh as it is.
    let outcome = step_loop(prog, mesh, cfg, control, start_step)?;
    mesh.goodbye();
    outcome.ok_or(WorkerError::Control("quit requested"))
}

/// The step loop proper: `Ok(None)` when the launcher said `Quit`.
fn step_loop<P: SpmdProgram>(
    prog: &mut P,
    mesh: &mut Mesh,
    cfg: &mut WorkerConfig,
    control: &mut ControlPlane,
    start_step: u64,
) -> Result<Option<WorkerOutcome>, WorkerError> {
    /// What ended one wait on an open exchange.
    enum Waited {
        Control(Flow),
        Exchange(Result<Vec<Vec<u8>>, MeshError>),
    }
    let rank = mesh.rank();
    let mut step: u64 = start_step;
    let mut executed: u64 = 0;
    loop {
        match drain_control(prog, mesh, cfg, control)? {
            None => {}
            Some(Flow::ResumedAt(s)) => {
                step = s;
                continue;
            }
            Some(Flow::Quit) => return Ok(None),
        }
        if prog.done() {
            break;
        }
        for i in 0..cfg.partitions.len() {
            let (s, peer, ms) = cfg.partitions[i];
            if s == step {
                mesh.partition_peer(peer, ms);
            }
        }
        if let Some(store) = &mut cfg.store {
            store.save(step, &prog.snapshot())?;
        }
        prog.begin_step(step);
        let payload = prog.local_step(step, rank);
        let span = mrbc_obs::span("net.worker.exchange", "net")
            .arg("trace", cfg.trace.0)
            .arg("span", mrbc_obs::fresh_id())
            .arg("parent", cfg.trace.1);
        mesh.begin_exchange(step, payload);
        let waited = mesh.wait_until(cfg.deadline_ms, |m, _| {
            match drain_control(prog, m, cfg, control) {
                Ok(None) => m
                    .try_complete_exchange(step, cfg.deadline_ms)
                    .transpose()
                    .map(|all| Ok(Waited::Exchange(all))),
                Ok(Some(flow)) => Some(Ok(Waited::Control(flow))),
                Err(e) => Some(Err(e)),
            }
        })?;
        drop(span);
        let all = match waited {
            Waited::Exchange(Ok(all)) => all,
            Waited::Control(Flow::Quit) => return Ok(None),
            // Resumed mid-exchange: the step is rewound.
            Waited::Control(Flow::ResumedAt(s)) => {
                step = s;
                continue;
            }
            Waited::Exchange(Err(MeshError::DeadlineExpired { missing, .. })) => {
                return Ok(Some(WorkerOutcome::Degraded {
                    completed_step: step,
                    fingerprint: prog.fingerprint(),
                    missing,
                }));
            }
            Waited::Exchange(Err(e @ MeshError::PeerDead { .. })) => {
                if !control.attached() {
                    return Err(e.into());
                }
                (control.notify)(&WorkerEvent::Stalled(step));
                mrbc_obs::counter_add("net.worker.stalls", 1);
                // Park until the launcher drives recovery.
                match await_recovery(prog, mesh, cfg, control)? {
                    Flow::ResumedAt(s) => step = s,
                    Flow::Quit => return Ok(None),
                }
                continue;
            }
            Waited::Exchange(Err(e)) => return Err(e.into()),
        };
        prog.fold(step, &all)?;
        (control.notify)(&WorkerEvent::Step(step));
        mrbc_obs::counter_add("net.worker.steps", 1);
        executed += 1;
        step += 1;
    }
    // Final checkpoint at the terminal boundary.
    if let Some(store) = &mut cfg.store {
        store.save(step, &prog.snapshot())?;
    }
    Ok(Some(WorkerOutcome::Completed {
        steps: executed,
        fingerprint: prog.fingerprint(),
    }))
}

/// The reply to a `Recover` probe: the newest checkpoint that validates.
fn report_latest(cfg: &WorkerConfig, control: &mut ControlPlane) {
    let latest = cfg
        .store
        .as_ref()
        .and_then(|s| s.latest_valid_step().ok().flatten());
    (control.notify)(&WorkerEvent::CkptLatest(latest));
}

/// Handles every queued control message (`None`: nothing that
/// redirects the step loop); a `Resume` wins over anything queued
/// before it.
fn drain_control<P: SpmdProgram>(
    prog: &mut P,
    mesh: &mut Mesh,
    cfg: &mut WorkerConfig,
    control: &mut ControlPlane,
) -> Result<Option<Flow>, WorkerError> {
    let mut outcome = None;
    while let Some(msg) = control.poll()? {
        match msg {
            ControlMsg::Quit => return Ok(Some(Flow::Quit)),
            ControlMsg::Recover => {
                report_latest(cfg, control);
                // The resume typically follows immediately; park for it so
                // the step loop cannot race ahead on stale state.
                match await_recovery(prog, mesh, cfg, control)? {
                    Flow::Quit => return Ok(Some(Flow::Quit)),
                    resumed => outcome = Some(resumed),
                }
            }
            ControlMsg::Resume { step, epoch, addrs } => {
                apply_resume(prog, mesh, cfg, step, epoch, &addrs)?;
                outcome = Some(Flow::ResumedAt(step));
            }
            ControlMsg::Trace { trace, parent } => cfg.trace = (trace, parent),
        }
    }
    Ok(outcome)
}

/// Blocks (the transport keeps running) until the launcher sends
/// `Resume` or `Quit`. Replies to further `Recover` probes with the
/// newest checkpoint boundary. Only the control plane's
/// [`Waker`](crate::mesh::Waker) ends the wait promptly.
fn await_recovery<P: SpmdProgram>(
    prog: &mut P,
    mesh: &mut Mesh,
    cfg: &mut WorkerConfig,
    control: &mut ControlPlane,
) -> Result<Flow, WorkerError> {
    if !control.attached() {
        return Err(WorkerError::Control("cannot recover without a launcher"));
    }
    mesh.wait_until(None, |m, _| loop {
        match control.poll() {
            Ok(Some(ControlMsg::Resume { step, epoch, addrs })) => {
                let applied = apply_resume(prog, m, cfg, step, epoch, &addrs);
                return Some(applied.map(|()| Flow::ResumedAt(step)));
            }
            Ok(Some(ControlMsg::Quit)) => return Some(Ok(Flow::Quit)),
            Ok(Some(ControlMsg::Recover)) => report_latest(cfg, control),
            Ok(Some(ControlMsg::Trace { trace, parent })) => cfg.trace = (trace, parent),
            Ok(None) => return None,
            Err(e) => return Some(Err(e)),
        }
    })
}

/// Restores the program at the `step` boundary (when a checkpoint is
/// required), re-enters the mesh under `epoch`, and reconnects.
fn apply_resume<P: SpmdProgram>(
    prog: &mut P,
    mesh: &mut Mesh,
    cfg: &mut WorkerConfig,
    step: u64,
    epoch: u32,
    addrs: &[SocketAddr],
) -> Result<(), WorkerError> {
    if let Some(store) = cfg.store.as_ref() {
        match store.load(step) {
            Ok(bytes) => {
                prog.restore(&bytes)?;
                mrbc_obs::counter_add("net.worker.restores", 1);
            }
            Err(crate::checkpoint::CheckpointError::NotFound) if step == 0 => {}
            Err(crate::checkpoint::CheckpointError::NotFound) => {
                return Err(WorkerError::Control("resume step has no local checkpoint"));
            }
            Err(_) => {
                // The file for `step` exists but fails validation (CRC
                // mismatch, truncation, bad header) — e.g. both retained
                // checkpoints rotted and the launcher's min-common step
                // landed on a corrupt one. Exit code 3 is reserved for
                // user-invoked checkpoint reads; mid-protocol the worker
                // must surface a structured control-plane error the
                // launcher can attribute, not die opaquely.
                return Err(WorkerError::Control(
                    "resume step checkpoint exists but fails validation (corrupt)",
                ));
            }
        }
    } else if step != 0 {
        return Err(WorkerError::Control("resume step has no local checkpoint"));
    }
    mesh.restart_epoch(epoch, addrs);
    mesh.connect(addrs, ESTABLISH_TIMEOUT_MS)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::MeshConfig;
    use std::path::PathBuf;

    /// A do-nothing program: `apply_resume`'s error classification is
    /// all about the checkpoint store, not the program.
    struct NullProg;

    impl SpmdProgram for NullProg {
        fn num_hosts(&self) -> usize {
            1
        }
        fn done(&self) -> bool {
            true
        }
        fn begin_step(&mut self, _step: u64) {}
        fn local_step(&mut self, _step: u64, _host: usize) -> Vec<u8> {
            Vec::new()
        }
        fn fold(
            &mut self,
            _step: u64,
            _payloads: &[Vec<u8>],
        ) -> Result<(), mrbc_util::wire::WireError> {
            Ok(())
        }
        fn snapshot(&self) -> Vec<u8> {
            Vec::new()
        }
        fn restore(&mut self, _bytes: &[u8]) -> Result<(), mrbc_util::wire::WireError> {
            Ok(())
        }
        fn fingerprint(&self) -> u64 {
            0
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mrbc-worker-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn resume_with_store(dir: &std::path::Path, step: u64) -> Result<(), WorkerError> {
        let mut prog = NullProg;
        let mut mesh = Mesh::bind(&MeshConfig::localhost(0, 1)).expect("bind mesh");
        let mut cfg = WorkerConfig {
            store: Some(CheckpointStore::open(dir, 0).expect("open store")),
            ..WorkerConfig::default()
        };
        apply_resume(&mut prog, &mut mesh, &mut cfg, step, 1, &[])
    }

    /// Flips one payload byte of every retained checkpoint file so each
    /// fails its CRC check.
    fn corrupt_all(dir: &std::path::Path) {
        for entry in std::fs::read_dir(dir).expect("read dir") {
            let path = entry.expect("entry").path();
            let mut bytes = std::fs::read(&path).expect("read ckpt");
            let last = bytes.len() - 1;
            bytes[last] ^= 0xff;
            std::fs::write(&path, bytes).expect("write ckpt");
        }
    }

    /// A parked worker blocks in its mesh with no deadline for 30 s; it
    /// acts on `Quit` at once only because the sender wakes the mesh.
    #[test]
    fn a_parked_worker_acts_on_quit_at_once() {
        let mut mcfg = MeshConfig::localhost(0, 1);
        mcfg.detector = crate::DetectorConfig {
            heartbeat_every_ms: 30_000,
            suspect_after_ms: 60_000,
            dead_after_ms: 120_000,
        };
        let mut mesh = Mesh::bind(&mcfg).expect("bind mesh");
        let waker = mesh.waker();
        let (tx, rx) = std::sync::mpsc::channel();
        let (events_tx, events) = std::sync::mpsc::channel();
        let parked = std::thread::spawn(move || {
            let mut control = ControlPlane {
                rx: Some(rx),
                notify: Box::new(move |ev| drop(events_tx.send(ev.clone()))),
            };
            let mut cfg = WorkerConfig::default();
            let out = await_resume(&mut NullProg, &mut mesh, &mut cfg, &mut control);
            (out, crate::mesh::now_ms())
        });
        // A `Recover` probe is answered from inside the wait; once the
        // answer is out, the worker is back to waiting.
        tx.send(ControlMsg::Recover).expect("recover");
        waker.wake();
        let answer = events.recv().expect("probe answered");
        assert_eq!(answer, WorkerEvent::CkptLatest(None));
        let sent = crate::mesh::now_ms();
        tx.send(ControlMsg::Quit).expect("quit");
        waker.wake();
        let (out, acted) = parked.join().expect("worker thread");
        assert!(matches!(out, Err(WorkerError::Control(_))), "{out:?}");
        assert!(acted - sent < 500, "Quit took {} ms", acted - sent);
    }

    #[test]
    fn resume_onto_corrupt_checkpoints_is_a_structured_control_error() {
        // Both retained checkpoints rot; the launcher's min-common step
        // lands on one of them. The worker must surface a control-plane
        // error the launcher can attribute — not the Checkpoint error
        // class the CLI maps to the reserved exit code 3.
        let dir = tmpdir("both-corrupt");
        {
            let store = CheckpointStore::open(&dir, 0).expect("open store");
            store.save(1, b"state-1").expect("save 1");
            store.save(2, b"state-2").expect("save 2");
        }
        corrupt_all(&dir);
        let err = resume_with_store(&dir, 2).expect_err("corrupt resume must fail");
        match err {
            WorkerError::Control(msg) => assert!(msg.contains("fails validation"), "{msg}"),
            other => panic!("want structured Control error, got {other:?}"),
        }
    }

    #[test]
    fn resume_without_a_checkpoint_at_the_step_stays_structured() {
        let dir = tmpdir("missing-step");
        {
            let store = CheckpointStore::open(&dir, 0).expect("open store");
            store.save(5, b"state-5").expect("save 5");
        }
        let err = resume_with_store(&dir, 3).expect_err("missing step must fail");
        match err {
            WorkerError::Control(msg) => assert!(msg.contains("no local checkpoint"), "{msg}"),
            other => panic!("want structured Control error, got {other:?}"),
        }
    }
}
