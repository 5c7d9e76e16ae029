//! Explicit-state model checking for the distributed recovery and
//! failover protocols.
//!
//! Three abstract models, one checker:
//!
//! * **Recovery** — the launcher/worker checkpoint-recovery protocol
//!   (`mrbc-net`): BSP workers commit steps and write keep-last-2
//!   durable checkpoints; a crash triggers `RECOVER`, every worker
//!   reports its newest *valid* checkpoint (`CKPT`), and the launcher
//!   restarts everyone from the minimum common step with a bumped
//!   transport epoch (`RESUME`).
//! * **Pool** — the serve pool's supervision/failover loop
//!   (`mrbc-serve`): heartbeat verdicts kill-for-certain and respawn,
//!   mutation-log replay under the broadcast lock republishes a
//!   respawned worker, in-flight shards fail over (refetch, `Retry`,
//!   `Partial`), and merges must reflect a single epoch.
//! * **Wal** — the pool front-end's write-ahead-log ack protocol
//!   (`mrbc-serve` with `--wal-dir`): append, group-commit fsync, ack,
//!   crash (discarding the un-fsynced tail), recover-by-replay. The
//!   invariants are the two halves of crash consistency: no
//!   acknowledged mutation is ever lost, and replay never duplicates.
//!
//! The checker does a plain BFS over global states — every
//! interleaving of the enabled actions, up to a depth bound — and
//! verifies safety invariants on each state plus
//! liveness-under-fairness at the end (every reachable state can still
//! reach a resolved state, and no non-resolved state deadlocks).
//! Counterexamples are replayed as interleaved event timelines whose
//! lines use the *real* wire syntax, via [`launch::control_line`] /
//! [`launch::event_line`] and the [`adapters`] below, so the model and
//! the implementation cannot silently drift apart: the adapter matches
//! are exhaustive and wildcard-free, and adding a protocol variant is a
//! compile error here.
//!
//! [`Inject`] enables one deliberately seeded bug per run (mutation
//! testing for the invariants themselves): `dist-check --inject all`
//! proves every seeded bug is caught with a printed trace.

use mrbc_net::launch;
use mrbc_net::worker::{ControlMsg, WorkerEvent};
use mrbc_serve::proto::{MutateOp, Request, Response};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Default BFS depth bound: every model's reachable graph is explored
/// exhaustively well inside it (the checker reports `truncated` if not).
pub const DEFAULT_DEPTH_BOUND: usize = 64;

// ---------------------------------------------------------------------
// Adapters over the real protocol enums
// ---------------------------------------------------------------------

/// Wildcard-free projections of the real protocol enums.
///
/// Every function here matches exhaustively over a wire-facing enum
/// from `mrbc-serve` or `mrbc-net`, with the tag values copied from the
/// encoders. Adding a variant to any of those enums breaks this module
/// at compile time, which is the point: the abstract models below
/// cannot drift from the schemas they claim to cover.
pub mod adapters {
    use mrbc_net::frame::FrameKind;
    use mrbc_net::launch::WorkerLine;
    use mrbc_net::worker::{ControlMsg, WorkerEvent};
    use mrbc_serve::proto::{MutateOp, Request, Response};

    /// Wire tag of a serve request (mirrors `proto::encode_request`).
    pub fn request_tag(r: &Request) -> u8 {
        match r {
            Request::Hello { .. } => 0,
            Request::BcScore { .. } => 1,
            Request::TopK { .. } => 2,
            Request::PathInfo { .. } => 3,
            Request::SubsetBc { .. } => 4,
            Request::Mutate { .. } => 5,
            Request::Stats => 6,
            Request::Shutdown => 7,
        }
    }

    /// Wire tag of a serve response (mirrors `proto::encode_response`).
    pub fn response_tag(r: &Response) -> u8 {
        match r {
            Response::Welcome { .. } => 0,
            Response::BcValue { .. } => 1,
            Response::TopKList { .. } => 2,
            Response::PathInfo { .. } => 3,
            Response::SubsetBc { .. } => 4,
            Response::Mutated { .. } => 5,
            Response::Stats(_) => 6,
            Response::Busy { .. } => 7,
            Response::Stale { .. } => 8,
            Response::Error { .. } => 9,
            Response::Bye => 10,
            Response::Retry { .. } => 11,
            Response::Partial { .. } => 12,
            Response::WalFault { .. } => 13,
        }
    }

    /// Variant name of a serve request, for timeline lines.
    pub fn request_name(r: &Request) -> &'static str {
        match r {
            Request::Hello { .. } => "Hello",
            Request::BcScore { .. } => "BcScore",
            Request::TopK { .. } => "TopK",
            Request::PathInfo { .. } => "PathInfo",
            Request::SubsetBc { .. } => "SubsetBc",
            Request::Mutate { .. } => "Mutate",
            Request::Stats => "Stats",
            Request::Shutdown => "Shutdown",
        }
    }

    /// Variant name of a serve response, for timeline lines.
    pub fn response_name(r: &Response) -> &'static str {
        match r {
            Response::Welcome { .. } => "Welcome",
            Response::BcValue { .. } => "BcValue",
            Response::TopKList { .. } => "TopKList",
            Response::PathInfo { .. } => "PathInfo",
            Response::SubsetBc { .. } => "SubsetBc",
            Response::Mutated { .. } => "Mutated",
            Response::Stats(_) => "Stats",
            Response::Busy { .. } => "Busy",
            Response::Stale { .. } => "Stale",
            Response::Error { .. } => "Error",
            Response::Bye => "Bye",
            Response::Retry { .. } => "Retry",
            Response::Partial { .. } => "Partial",
            Response::WalFault { .. } => "WalFault",
        }
    }

    /// Wire tag of a mutation op (mirrors `MutateOp::to_u8`).
    pub fn mutate_op_tag(op: &MutateOp) -> u8 {
        match op {
            MutateOp::AddEdge => 0,
            MutateOp::RemoveEdge => 1,
        }
    }

    /// Line keyword of a launcher → worker control message.
    pub fn control_keyword(msg: &ControlMsg) -> &'static str {
        match msg {
            ControlMsg::Recover => "RECOVER",
            ControlMsg::Resume { .. } => "RESUME",
            ControlMsg::Quit => "QUIT",
            ControlMsg::Trace { .. } => "TRACE",
        }
    }

    /// Line keyword of a worker → launcher event.
    pub fn event_keyword(ev: &WorkerEvent) -> &'static str {
        match ev {
            WorkerEvent::CkptLatest(_) => "CKPT",
            WorkerEvent::Step(_) => "STEP",
            WorkerEvent::Stalled(_) => "STALLED",
        }
    }

    /// Line keyword of a parsed worker stdout line.
    pub fn worker_line_keyword(line: &WorkerLine) -> &'static str {
        match line {
            WorkerLine::Listen(_) => "LISTEN",
            WorkerLine::Ckpt(_) => "CKPT",
            WorkerLine::Step(_) => "STEP",
            WorkerLine::Stalled(_) => "STALLED",
            WorkerLine::Done { .. } => "DONE",
            WorkerLine::Degraded { .. } => "DEGRADED",
            WorkerLine::Other(_) => "(other)",
            WorkerLine::Eof => "(eof)",
        }
    }

    /// Wire tag of a mesh frame kind (mirrors `FrameKind::to_u8`).
    pub fn frame_tag(kind: &FrameKind) -> u8 {
        match kind {
            FrameKind::Hello => 0,
            FrameKind::Welcome => 1,
            FrameKind::Data => 2,
            FrameKind::Ack => 3,
            FrameKind::Heartbeat => 4,
            FrameKind::Bye => 5,
        }
    }
}

// ---------------------------------------------------------------------
// Seeded bugs (mutation testing for the invariants)
// ---------------------------------------------------------------------

/// A deliberately seeded protocol bug; `dist-check --inject <name>`
/// enables exactly one and expects the checker to catch it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    /// Pool: mutation-log replay runs without the broadcast lock, so a
    /// concurrent broadcast can be missed (or double-applied).
    SkipReplayLock,
    /// Recovery: a worker reports a checkpoint boundary before the file
    /// is durable (fsync pending), so `RESUME` can target a step some
    /// rank cannot load.
    AckBeforeFsync,
    /// Pool: respawn does not reset the failure detector, so the stale
    /// verdict kills the fresh worker again, forever.
    NoDetectorReset,
    /// WAL: the pool acks a mutation after the log *append* but before
    /// the covering fsync, so a crash can lose an acknowledged write.
    AckBeforeFsyncWal,
}

impl Inject {
    /// Every seeded bug, in `--inject all` order.
    pub const ALL: [Inject; 4] = [
        Inject::SkipReplayLock,
        Inject::AckBeforeFsync,
        Inject::NoDetectorReset,
        Inject::AckBeforeFsyncWal,
    ];

    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Inject::SkipReplayLock => "skip-replay-lock",
            Inject::AckBeforeFsync => "ack-before-fsync",
            Inject::NoDetectorReset => "no-detector-reset",
            Inject::AckBeforeFsyncWal => "ack-before-fsync-wal",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Inject> {
        Inject::ALL.into_iter().find(|i| i.name() == s)
    }
}

// ---------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------

/// An abstract protocol model the checker can explore.
pub trait Model {
    /// One global state. `Ord` keys the visited set.
    type State: Clone + Ord;

    /// Model name for reports.
    fn name(&self) -> &'static str;
    /// The initial global state.
    fn init(&self) -> Self::State;
    /// Every enabled action: a timeline line (real wire syntax) plus
    /// the successor state.
    fn actions(&self, s: &Self::State) -> Vec<(String, Self::State)>;
    /// The violated safety invariant, if any.
    fn violated(&self, s: &Self::State) -> Option<&'static str>;
    /// Names of every safety/liveness property this model checks.
    fn invariants(&self) -> Vec<&'static str>;
    /// A quiescent "everything settled" state — the liveness target.
    fn resolved(&self, s: &Self::State) -> bool;
}

/// A failed check: which invariant, and the interleaving that broke it.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The invariant (or `"deadlock"` / `"liveness"`) that failed.
    pub invariant: String,
    /// The event timeline from the initial state to the bad state.
    pub trace: Vec<String>,
}

impl Counterexample {
    /// Renders the trace as a numbered timeline.
    pub fn timeline(&self) -> String {
        let mut out = String::new();
        for (i, line) in self.trace.iter().enumerate() {
            out.push_str(&format!("  {:>2}. {line}\n", i + 1));
        }
        out
    }
}

/// Result of exploring one model.
#[derive(Clone, Debug)]
pub struct ModelReport {
    /// Model name.
    pub name: &'static str,
    /// Distinct global states visited.
    pub states: usize,
    /// Deepest state reached (BFS layers from the initial state).
    pub max_depth: usize,
    /// True if the depth bound cut exploration short (liveness and
    /// deadlock checks are skipped in that case).
    pub truncated: bool,
    /// Invariant names this model checks.
    pub invariants: Vec<&'static str>,
    /// The first (shallowest) violation found, if any.
    pub violation: Option<Counterexample>,
}

/// Exhaustively explores `model` by BFS up to `depth_bound`.
///
/// Safety invariants are checked on every visited state (BFS order, so
/// the reported counterexample is a shortest one). If exploration was
/// exhaustive, two graph-global checks follow: no non-resolved state
/// may deadlock (zero enabled actions), and — liveness under fairness —
/// every reachable state must still be able to reach a resolved state.
pub fn check<M: Model>(model: &M, depth_bound: usize) -> ModelReport {
    let mut report = ModelReport {
        name: model.name(),
        states: 0,
        max_depth: 0,
        truncated: false,
        invariants: model.invariants(),
        violation: None,
    };

    let init = model.init();
    let mut states: Vec<M::State> = vec![init.clone()];
    let mut index: BTreeMap<M::State, usize> = BTreeMap::new();
    index.insert(init, 0);
    // Back-pointer per state: (predecessor index, action line).
    let mut parent: Vec<Option<(usize, String)>> = vec![None];
    let mut depth: Vec<usize> = vec![0];
    let mut succs: Vec<Vec<usize>> = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::from([0]);

    while let Some(at) = queue.pop_front() {
        let d = depth[at];
        report.max_depth = report.max_depth.max(d);
        if let Some(inv) = model.violated(&states[at]) {
            report.states = states.len();
            report.violation = Some(Counterexample {
                invariant: inv.to_string(),
                trace: trace_to(&parent, at),
            });
            return report;
        }
        let steps = model.actions(&states[at]);
        if d >= depth_bound && !steps.is_empty() {
            report.truncated = true;
            succs.resize(states.len(), Vec::new());
            continue;
        }
        let mut out = Vec::with_capacity(steps.len());
        for (line, next) in steps {
            let to = *index.entry(next.clone()).or_insert_with(|| {
                states.push(next);
                parent.push(Some((at, line.clone())));
                depth.push(d + 1);
                queue.push_back(states.len() - 1);
                states.len() - 1
            });
            out.push(to);
        }
        succs.resize(states.len(), Vec::new());
        succs[at] = out;
    }
    report.states = states.len();

    if report.truncated {
        return report;
    }

    // Deadlock: a fully expanded, non-resolved state with no actions.
    for (i, nexts) in succs.iter().enumerate() {
        if nexts.is_empty() && !model.resolved(&states[i]) {
            report.violation = Some(Counterexample {
                invariant: "deadlock".to_string(),
                trace: trace_to(&parent, i),
            });
            return report;
        }
    }

    // Liveness under fairness: every state can still reach a resolved
    // state — backward reachability from the resolved set.
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); states.len()];
    for (from, nexts) in succs.iter().enumerate() {
        for &to in nexts {
            preds[to].push(from);
        }
    }
    let mut live = vec![false; states.len()];
    let mut stack: Vec<usize> = (0..states.len())
        .filter(|&i| model.resolved(&states[i]))
        .collect();
    for &i in &stack {
        live[i] = true;
    }
    while let Some(at) = stack.pop() {
        for &p in &preds[at] {
            if !live[p] {
                live[p] = true;
                stack.push(p);
            }
        }
    }
    // BFS indices are depth-ordered, so the first dead index is a
    // shallowest state from which quiescence is unreachable.
    if let Some(doomed) = (0..states.len()).find(|&i| !live[i]) {
        let mut trace = trace_to(&parent, doomed);
        // Extend the trace past the doomed state to show the futile
        // cycle: every successor of a dead state is dead (a live
        // successor would make it live), so greedily walking first
        // successors must revisit a state.
        let mut seen = std::collections::BTreeSet::from([doomed]);
        let mut cur = doomed;
        loop {
            let next = model
                .actions(&states[cur])
                .into_iter()
                .find_map(|(line, t)| index.get(&t).map(|&i| (line, i)));
            let Some((line, i)) = next else { break };
            trace.push(line);
            if !seen.insert(i) {
                trace.push("(state repeats: quiescence is unreachable)".to_string());
                break;
            }
            cur = i;
        }
        report.violation = Some(Counterexample {
            invariant: "liveness".to_string(),
            trace,
        });
    }
    report
}

/// Rebuilds the action timeline from the initial state to `at`.
fn trace_to(parent: &[Option<(usize, String)>], mut at: usize) -> Vec<String> {
    let mut out = Vec::new();
    while let Some((prev, line)) = &parent[at] {
        out.push(line.clone());
        at = *prev;
    }
    out.reverse();
    out
}

// ---------------------------------------------------------------------
// Model 1: launcher/worker checkpoint recovery (mrbc-net)
// ---------------------------------------------------------------------

/// Workers in the recovery model.
const REC_W: usize = 2;
/// Steps each worker must commit.
const REC_MAX_STEP: u8 = 2;

/// Durability of one on-disk checkpoint file.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Ckpt {
    /// Written and fsynced: survives anything, CRC validates.
    Durable,
    /// Written but fsync pending (only under the ack-before-fsync
    /// injection): still readable, but a durability *claim* about it
    /// is a lie.
    Pending,
    /// Bit-rotted: the CRC check rejects it.
    Corrupt,
}

/// One worker's abstract state: liveness, progress, and its on-disk
/// keep-last-2 checkpoint window.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct RecWorker {
    up: bool,
    parked: bool,
    step: u8,
    ckpts: [Option<(u8, Ckpt)>; 2],
}

/// Launcher phase: normal BSP progress, collecting `CKPT` replies
/// after a `RECOVER` broadcast (`None` = reply still outstanding), or
/// cleanly aborted (a rank surfaced a structured checkpoint error for
/// the chosen restart step, and the launcher reported the run failed —
/// the safe terminal the real `WorkerDied` path provides).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum RecPhase {
    Normal,
    Collect([Option<Option<u8>>; REC_W]),
    Aborted,
}

/// Global state of the recovery model.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RecState {
    phase: RecPhase,
    epoch: u8,
    kills_left: u8,
    corrupt_left: u8,
    workers: [RecWorker; REC_W],
    /// Set by a transition that performed an illegal protocol step; the
    /// state predicate [`Model::violated`] reports it.
    poison: Option<&'static str>,
}

/// The checkpoint-recovery protocol model; see the module docs.
pub struct RecoveryModel {
    /// Seeded bug, if any (only [`Inject::AckBeforeFsync`] applies).
    pub inject: Option<Inject>,
}

impl RecoveryModel {
    /// The checkpoint a worker would report to `RECOVER`: newest step
    /// that passes the CRC check. Under ack-before-fsync that includes
    /// fsync-pending files — which is exactly the durability lie the
    /// `durable-before-ack` invariant exists to catch.
    fn reported_ckpt(&self, w: &RecWorker) -> Option<(u8, Ckpt)> {
        w.ckpts
            .iter()
            .flatten()
            .filter(|(_, c)| *c != Ckpt::Corrupt)
            .copied()
            .max_by_key(|(s, _)| *s)
    }
}

/// Records a checkpoint write: replace any file at `step`, keep the
/// newest two (the store's keep-last-2 pruning).
fn record_ckpt(ckpts: &mut [Option<(u8, Ckpt)>; 2], step: u8, status: Ckpt) {
    let mut files: Vec<(u8, Ckpt)> = ckpts
        .iter()
        .flatten()
        .copied()
        .filter(|(s, _)| *s != step)
        .collect();
    files.push((step, status));
    files.sort_by_key(|&(s, _)| std::cmp::Reverse(s));
    *ckpts = [files.first().copied(), files.get(1).copied()];
}

/// The on-disk checkpoint file name (matches `checkpoint::Store`).
fn ckpt_file(rank: usize, step: u8) -> String {
    format!("ckpt-r{rank}-s{:012}.bin", step)
}

/// Placeholder mesh addresses for `RESUME` timeline lines. The real
/// launcher sends each worker's listen address; the abstract model has
/// no sockets, but the rendered line must still satisfy
/// `launch::parse_control_line`, which requires a non-empty addr list.
fn resume_addrs() -> Vec<std::net::SocketAddr> {
    (0..REC_W)
        .map(|w| std::net::SocketAddr::from(([127, 0, 0, 1], 9100 + u16::try_from(w).unwrap_or(0))))
        .collect()
}

impl Model for RecoveryModel {
    type State = RecState;

    fn name(&self) -> &'static str {
        "recovery"
    }

    fn init(&self) -> RecState {
        RecState {
            phase: RecPhase::Normal,
            epoch: 0,
            kills_left: 1,
            corrupt_left: 1,
            workers: [(); REC_W].map(|()| RecWorker {
                up: true,
                parked: false,
                step: 0,
                ckpts: [None, None],
            }),
            poison: None,
        }
    }

    fn actions(&self, s: &RecState) -> Vec<(String, RecState)> {
        let mut out = Vec::new();
        if s.poison.is_some() {
            return out;
        }
        match &s.phase {
            RecPhase::Normal => {
                for w in 0..REC_W {
                    let me = &s.workers[w];
                    let peer = &s.workers[1 - w];
                    // BSP progress: commit the next step only while not
                    // ahead of the peer (skew ≤ 1); a dead peer stalls
                    // the exchange instead.
                    if me.up && !me.parked && me.step < REC_MAX_STEP {
                        if !peer.up {
                            let mut t = s.clone();
                            t.workers[w].parked = true;
                            let ev = WorkerEvent::Stalled(u64::from(me.step));
                            out.push((
                                format!("rank {w} -> launcher: {}", launch::event_line(&ev)),
                                t,
                            ));
                        } else if me.step <= peer.step {
                            let next = me.step + 1;
                            // The real store writes tmp + rename + fsync
                            // before the STEP line; the seeded bug emits
                            // the line with the fsync still pending.
                            let status = if self.inject == Some(Inject::AckBeforeFsync) {
                                Ckpt::Pending
                            } else {
                                Ckpt::Durable
                            };
                            let mut t = s.clone();
                            t.workers[w].step = next;
                            record_ckpt(&mut t.workers[w].ckpts, next, status);
                            let ev = WorkerEvent::Step(u64::from(next));
                            out.push((
                                format!("rank {w} -> launcher: {}", launch::event_line(&ev)),
                                t,
                            ));
                        }
                    }
                    // Under ack-before-fsync the fsync is a separate,
                    // maybe-never step; durability arrives only here.
                    if self.inject == Some(Inject::AckBeforeFsync) && me.up {
                        if let Some((cs, Ckpt::Pending)) = me.ckpts[0] {
                            let mut t = s.clone();
                            t.workers[w].ckpts[0] = Some((cs, Ckpt::Durable));
                            out.push((format!("rank {w}: fsync {}", ckpt_file(w, cs)), t));
                        }
                    }
                    // Bit rot: the newest durable file fails CRC.
                    if s.corrupt_left > 0 {
                        if let Some((cs, Ckpt::Durable)) = me.ckpts[0] {
                            let mut t = s.clone();
                            t.corrupt_left -= 1;
                            t.workers[w].ckpts[0] = Some((cs, Ckpt::Corrupt));
                            out.push((
                                format!("chaos: corrupt {} (CRC invalid)", ckpt_file(w, cs)),
                                t,
                            ));
                        }
                    }
                    // Crash: the process dies; durable files survive.
                    if s.kills_left > 0 && me.up {
                        let mut t = s.clone();
                        t.kills_left -= 1;
                        t.workers[w].up = false;
                        out.push((format!("chaos: SIGKILL rank {w}"), t));
                    }
                }
                // The launcher notices a death: respawn the dead rank
                // and broadcast RECOVER; everyone parks and reports.
                if s.workers.iter().any(|x| !x.up) {
                    let mut t = s.clone();
                    for x in &mut t.workers {
                        if !x.up {
                            x.up = true;
                            x.step = 0;
                        }
                        x.parked = true;
                    }
                    t.phase = RecPhase::Collect([None; REC_W]);
                    out.push((
                        format!(
                            "launcher -> all: {} (dead rank respawned)",
                            launch::control_line(&ControlMsg::Recover)
                        ),
                        t,
                    ));
                }
            }
            RecPhase::Collect(reports) => {
                for w in 0..REC_W {
                    if reports[w].is_none() {
                        let newest = self.reported_ckpt(&s.workers[w]);
                        let mut t = s.clone();
                        if let RecPhase::Collect(r) = &mut t.phase {
                            r[w] = Some(newest.map(|(cs, _)| cs));
                        }
                        // A CKPT report is a durability claim: the
                        // launcher may pick this step as the common
                        // restart base for *every* rank.
                        if let Some((_, Ckpt::Pending)) = newest {
                            t.poison = Some("durable-before-ack");
                        }
                        let ev = WorkerEvent::CkptLatest(newest.map(|(cs, _)| u64::from(cs)));
                        out.push((
                            format!("rank {w} -> launcher: {}", launch::event_line(&ev)),
                            t,
                        ));
                    }
                }
                if reports.iter().all(Option::is_some) {
                    // The launcher's min-common restart step, exactly as
                    // `launch::recover` computes it: missing reports
                    // count as 0 (fresh start).
                    let min = reports
                        .iter()
                        .map(|r| r.flatten().unwrap_or(0))
                        .min()
                        .unwrap_or(0);
                    let readable = |x: &RecWorker| {
                        x.ckpts
                            .iter()
                            .flatten()
                            .any(|&(cs, c)| cs == min && c != Ckpt::Corrupt)
                    };
                    if min > 0 && !s.workers.iter().all(readable) {
                        // Some rank's file at `min` is corrupt even
                        // though its *newest* valid file is ≥ min (bit
                        // rot on the older window slot). The rank
                        // surfaces a structured checkpoint error instead
                        // of resuming, and the launcher aborts the run —
                        // the safe terminal, never a silent wrong base.
                        let mut t = s.clone();
                        t.phase = RecPhase::Aborted;
                        let bad = (0..REC_W).find(|&w| !readable(&s.workers[w])).unwrap_or(0);
                        out.push((
                            format!(
                                "rank {bad}: {} fails CRC at RESUME -> structured checkpoint \
                                 error; launcher: abort run (WorkerDied)",
                                ckpt_file(bad, min)
                            ),
                            t,
                        ));
                    } else {
                        let mut t = s.clone();
                        // Resuming onto a base some rank only holds as a
                        // fsync-pending file: power loss would erase the
                        // agreed restart point under everyone.
                        let durable_base = min == 0
                            || s.workers.iter().all(|x| {
                                x.ckpts
                                    .iter()
                                    .flatten()
                                    .any(|&(cs, c)| cs == min && c == Ckpt::Durable)
                            });
                        if durable_base {
                            for x in &mut t.workers {
                                x.step = min;
                                x.parked = false;
                            }
                            t.epoch += 1;
                            t.phase = RecPhase::Normal;
                        } else {
                            t.poison = Some("resume-step-coverage");
                        }
                        let msg = ControlMsg::Resume {
                            step: u64::from(min),
                            epoch: u32::from(s.epoch) + 1,
                            addrs: resume_addrs(),
                        };
                        out.push((
                            format!("launcher -> all: {}", launch::control_line(&msg)),
                            t,
                        ));
                    }
                }
            }
            RecPhase::Aborted => {}
        }
        out
    }

    fn violated(&self, s: &RecState) -> Option<&'static str> {
        if let Some(p) = s.poison {
            return Some(p);
        }
        // BSP skew: two live unparked workers are never > 1 step apart.
        if s.phase == RecPhase::Normal {
            let [a, b] = &s.workers;
            if a.up && !a.parked && b.up && !b.parked && a.step.abs_diff(b.step) > 1 {
                return Some("bsp-skew");
            }
        }
        // Epochs advance exactly once per recovery round.
        if s.epoch > 1 - s.kills_left {
            return Some("epoch-per-recovery");
        }
        None
    }

    fn invariants(&self) -> Vec<&'static str> {
        vec![
            "durable-before-ack",
            "resume-step-coverage",
            "bsp-skew",
            "epoch-per-recovery",
            "liveness",
            "deadlock",
        ]
    }

    fn resolved(&self, s: &RecState) -> bool {
        if s.poison.is_some() {
            return false;
        }
        // A clean abort (structured checkpoint error surfaced, run
        // reported failed) is a quiescent outcome, like the real
        // launcher's `WorkerDied` return — never a hang.
        s.phase == RecPhase::Aborted
            || (s.phase == RecPhase::Normal
                && s.workers
                    .iter()
                    .all(|w| w.up && !w.parked && w.step == REC_MAX_STEP))
    }
}

// ---------------------------------------------------------------------
// Model 2: pool supervision / failover (mrbc-serve)
// ---------------------------------------------------------------------

/// Workers in the pool model (one shard each).
const POOL_W: usize = 2;

/// One pool worker: up with a mutation-log prefix applied, dead, or
/// respawned and (maybe) mid-replay of a log snapshot.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum PoolWorker {
    Up { applied: u8 },
    Down,
    Respawning { replay: Option<u8> },
}

impl PoolWorker {
    fn applied(&self) -> Option<u8> {
        match self {
            PoolWorker::Up { applied } => Some(*applied),
            PoolWorker::Down | PoolWorker::Respawning { .. } => None,
        }
    }
}

/// The broadcast/replay lock (the real `mutation_log` mutex).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum PoolLock {
    Free,
    /// Mid-broadcast; `done[w]` = worker `w` applied (or was skipped).
    Broadcast {
        done: [bool; POOL_W],
    },
    /// Mid-replay of worker `w` (clean mode only — the seeded
    /// skip-replay-lock bug runs replay without taking this).
    Replay {
        w: u8,
    },
}

/// One shard of the in-flight `SubsetBc` query.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Shard {
    Todo,
    InFlight,
    Got { epoch: u8 },
    Lost,
}

/// The client-visible query lifecycle.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Query {
    Open([Shard; POOL_W]),
    /// Merged answer; records the two shard epochs it merged.
    Done {
        epochs: [u8; POOL_W],
    },
    Partial,
    Retry,
}

/// Global state of the pool model.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct PoolState {
    workers: [PoolWorker; POOL_W],
    lock: PoolLock,
    log_len: u8,
    muts_left: u8,
    kills_left: u8,
    detector_stale: [bool; POOL_W],
    query: Query,
}

/// The pool supervision/failover model; see the module docs.
pub struct PoolModel {
    /// Seeded bug, if any ([`Inject::SkipReplayLock`] or
    /// [`Inject::NoDetectorReset`]).
    pub inject: Option<Inject>,
}

impl Model for PoolModel {
    type State = PoolState;

    fn name(&self) -> &'static str {
        "pool"
    }

    fn init(&self) -> PoolState {
        PoolState {
            workers: [(); POOL_W].map(|()| PoolWorker::Up { applied: 0 }),
            lock: PoolLock::Free,
            log_len: 0,
            muts_left: 1,
            kills_left: 1,
            detector_stale: [false; POOL_W],
            query: Query::Open([(); POOL_W].map(|()| Shard::Todo)),
        }
    }

    fn actions(&self, s: &PoolState) -> Vec<(String, PoolState)> {
        let mut out = Vec::new();

        // --- supervision -------------------------------------------
        for w in 0..POOL_W {
            match &s.workers[w] {
                PoolWorker::Up { .. } => {
                    if s.kills_left > 0 {
                        let mut t = s.clone();
                        t.kills_left -= 1;
                        t.workers[w] = PoolWorker::Down;
                        out.push((format!("chaos: SIGKILL worker {w}"), t));
                    }
                    // The seeded no-detector-reset bug: the stale
                    // verdict kills the fresh worker again.
                    if s.detector_stale[w] {
                        let mut t = s.clone();
                        t.workers[w] = PoolWorker::Down;
                        out.push((
                            format!("supervisor: stale heartbeat verdict kills worker {w} again"),
                            t,
                        ));
                    }
                }
                PoolWorker::Down => {
                    let mut t = s.clone();
                    t.workers[w] = PoolWorker::Respawning { replay: None };
                    t.detector_stale[w] = true;
                    out.push((
                        format!("supervisor: heartbeat verdict dead -> respawn worker {w}"),
                        t,
                    ));
                }
                PoolWorker::Respawning { replay: None } => {
                    let take_lock = self.inject != Some(Inject::SkipReplayLock);
                    if !take_lock || s.lock == PoolLock::Free {
                        let mut t = s.clone();
                        if take_lock {
                            t.lock = PoolLock::Replay { w: w as u8 };
                        }
                        t.workers[w] = PoolWorker::Respawning {
                            replay: Some(s.log_len),
                        };
                        let held = if take_lock {
                            "under lock"
                        } else {
                            "WITHOUT lock"
                        };
                        out.push((
                            format!(
                                "pool: replay {} log ops into worker {w} ({held})",
                                s.log_len
                            ),
                            t,
                        ));
                    }
                }
                PoolWorker::Respawning { replay: Some(snap) } => {
                    let mut t = s.clone();
                    t.workers[w] = PoolWorker::Up { applied: *snap };
                    if self.inject != Some(Inject::SkipReplayLock) {
                        t.lock = PoolLock::Free;
                    }
                    if self.inject != Some(Inject::NoDetectorReset) {
                        t.detector_stale[w] = false;
                    }
                    out.push((
                        format!("pool: publish worker {w} (replayed {snap} ops, epoch {snap})"),
                        t,
                    ));
                }
            }
        }

        // --- mutation broadcast ------------------------------------
        if s.muts_left > 0 && s.lock == PoolLock::Free {
            let mut t = s.clone();
            t.muts_left -= 1;
            t.log_len += 1;
            let done = [0, 1].map(|w: usize| s.workers[w].applied().is_none());
            t.lock = PoolLock::Broadcast { done };
            let req = Request::Mutate {
                op: MutateOp::AddEdge,
                u: 0,
                v: 1,
            };
            out.push((
                format!(
                    "client -> pool: {} op={} (tag {}); log append + broadcast lock",
                    adapters::request_name(&req),
                    adapters::mutate_op_tag(&MutateOp::AddEdge),
                    adapters::request_tag(&req),
                ),
                t,
            ));
        }
        if let PoolLock::Broadcast { done } = &s.lock {
            for w in 0..POOL_W {
                if !done[w] {
                    if let PoolWorker::Up { applied } = &s.workers[w] {
                        let mut t = s.clone();
                        t.workers[w] = PoolWorker::Up {
                            applied: applied + 1,
                        };
                        if let PoolLock::Broadcast { done } = &mut t.lock {
                            done[w] = true;
                        }
                        let resp = Response::Mutated {
                            epoch: u64::from(applied + 1),
                            applied: true,
                        };
                        out.push((
                            format!(
                                "worker {w} -> pool: {} (tag {}, epoch {})",
                                adapters::response_name(&resp),
                                adapters::response_tag(&resp),
                                applied + 1,
                            ),
                            t,
                        ));
                    }
                }
            }
            if (0..POOL_W).all(|w| done[w] || s.workers[w].applied().is_none()) {
                let mut t = s.clone();
                t.lock = PoolLock::Free;
                out.push(("pool: broadcast committed; lock released".to_string(), t));
            }
        }

        // --- the in-flight SubsetBc query --------------------------
        if let Query::Open(shards) = &s.query {
            for w in 0..POOL_W {
                match &shards[w] {
                    Shard::Todo => {
                        if s.workers[w].applied().is_some() {
                            let mut t = s.clone();
                            if let Query::Open(sh) = &mut t.query {
                                sh[w] = Shard::InFlight;
                            }
                            let req = Request::SubsetBc {
                                epoch: 0,
                                sources: vec![w as u32],
                            };
                            out.push((
                                format!(
                                    "pool -> worker {w}: {} shard (tag {})",
                                    adapters::request_name(&req),
                                    adapters::request_tag(&req),
                                ),
                                t,
                            ));
                        }
                    }
                    Shard::InFlight => {
                        if let Some(applied) = s.workers[w].applied() {
                            let mut t = s.clone();
                            if let Query::Open(sh) = &mut t.query {
                                sh[w] = Shard::Got { epoch: applied };
                            }
                            let resp = Response::SubsetBc {
                                epoch: u64::from(applied),
                                scores: Vec::new(),
                            };
                            out.push((
                                format!(
                                    "worker {w} -> pool: {} (tag {}, epoch {applied})",
                                    adapters::response_name(&resp),
                                    adapters::response_tag(&resp),
                                ),
                                t,
                            ));
                        } else {
                            let mut t = s.clone();
                            if let Query::Open(sh) = &mut t.query {
                                sh[w] = Shard::Lost;
                            }
                            out.push((
                                format!("pool: worker {w} conn dead -> shard {w} lost in flight"),
                                t,
                            ));
                        }
                    }
                    Shard::Got { .. } => {}
                    Shard::Lost => {
                        let mut t = s.clone();
                        if let Query::Open(sh) = &mut t.query {
                            sh[w] = Shard::Todo;
                        }
                        out.push((format!("pool: failover -> redispatch shard {w}"), t));
                    }
                }
            }
            // Merge / degrade decisions over the shard set.
            if let [Shard::Got { epoch: e0 }, Shard::Got { epoch: e1 }] = shards {
                let mut t = s.clone();
                if e0 == e1 {
                    t.query = Query::Done { epochs: [*e0, *e1] };
                    out.push((
                        format!("pool -> client: merged SubsetBc (single epoch {e0})"),
                        t,
                    ));
                } else {
                    let stale = usize::from(e0 > e1);
                    if let Query::Open(sh) = &mut t.query {
                        sh[stale] = Shard::Todo;
                    }
                    out.push((
                        format!(
                            "pool: merge sees epochs ({e0},{e1}) -> refetch stale shard {stale}"
                        ),
                        t,
                    ));
                }
            }
            let lost = (0..POOL_W).filter(|&w| shards[w] == Shard::Lost).count();
            if lost > 0 {
                let retry = Response::Retry { after_ms: 50 };
                let mut t = s.clone();
                t.query = Query::Retry;
                out.push((
                    format!(
                        "pool -> client: {} (tag {}) — shard lost, respawn in flight",
                        adapters::response_name(&retry),
                        adapters::response_tag(&retry),
                    ),
                    t,
                ));
            }
            if lost == 1 && shards.iter().any(|sh| matches!(sh, Shard::Got { .. })) {
                let partial = Response::Partial {
                    epoch: 0,
                    scores: Vec::new(),
                    missing_sources: Vec::new(),
                };
                let mut t = s.clone();
                t.query = Query::Partial;
                out.push((
                    format!(
                        "pool -> client: {} (tag {}) — completed shards only",
                        adapters::response_name(&partial),
                        adapters::response_tag(&partial),
                    ),
                    t,
                ));
            }
        }
        out
    }

    fn violated(&self, s: &PoolState) -> Option<&'static str> {
        for w in &s.workers {
            if let Some(applied) = w.applied() {
                // Replay + broadcast double-applied an op.
                if applied > s.log_len {
                    return Some("no-duplicate-mutation");
                }
                // With the log lock free, every published worker must
                // have the whole log applied — else a mutation was lost.
                if s.lock == PoolLock::Free && applied < s.log_len {
                    return Some("no-lost-mutation");
                }
            }
        }
        // A merged answer must reflect one epoch.
        if let Query::Done { epochs: [a, b] } = &s.query {
            if a != b {
                return Some("single-epoch-merge");
            }
        }
        None
    }

    fn invariants(&self) -> Vec<&'static str> {
        vec![
            "no-lost-mutation",
            "no-duplicate-mutation",
            "single-epoch-merge",
            "liveness",
            "deadlock",
        ]
    }

    fn resolved(&self, s: &PoolState) -> bool {
        matches!(s.query, Query::Done { .. } | Query::Partial | Query::Retry)
            && s.lock == PoolLock::Free
            && s.muts_left == 0
            && s.detector_stale.iter().all(|stale| !stale)
            && s.workers.iter().all(|w| w.applied() == Some(s.log_len))
    }
}

// ---------------------------------------------------------------------
// Model 3: the WAL ack protocol (append → fsync → ack → crash → recover)
// ---------------------------------------------------------------------

/// Mutations the client wants durably acknowledged.
const WAL_MUTS: u8 = 2;

/// Global state of the WAL ack-protocol model. All counters are record
/// counts over one logical log; `durable <= appended` always, and the
/// whole point of the protocol is keeping `acked <= durable`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct WalModelState {
    /// Mutations the client has not yet submitted.
    muts_left: u8,
    /// Submitted but not yet broadcast + appended.
    pending: u8,
    /// Records written into the log file (may still be in OS buffers).
    appended: u8,
    /// Fsync-covered prefix of the log.
    durable: u8,
    /// Acknowledgements sent to the client.
    acked: u8,
    /// Mutations applied on the workers (broadcast or replay).
    applied: u8,
    /// Front-end alive?
    up: bool,
    /// Crash budget (the chaos SIGKILL).
    crashes_left: u8,
}

/// The WAL durability model: group-commit ordering (append, fsync, ack)
/// against a crash that discards the un-fsynced log tail, with recovery
/// replaying exactly the durable prefix. The invariants are the two
/// halves of crash consistency: an acknowledged mutation is never lost,
/// and replay never applies a record the log does not hold.
pub struct WalModel {
    /// Seeded bug, if any ([`Inject::AckBeforeFsyncWal`]).
    pub inject: Option<Inject>,
}

impl Model for WalModel {
    type State = WalModelState;

    fn name(&self) -> &'static str {
        "wal"
    }

    fn init(&self) -> WalModelState {
        WalModelState {
            muts_left: WAL_MUTS,
            pending: 0,
            appended: 0,
            durable: 0,
            acked: 0,
            applied: 0,
            up: true,
            crashes_left: 1,
        }
    }

    fn actions(&self, s: &WalModelState) -> Vec<(String, WalModelState)> {
        let mut out = Vec::new();

        if !s.up {
            // Recovery: reopen the log, truncate nothing further (the
            // crash already discarded the un-fsynced tail), respawn the
            // workers, and replay exactly the durable prefix.
            let mut t = s.clone();
            t.up = true;
            t.applied = s.durable;
            out.push((
                format!(
                    "recover: snapshot + log replay to durable prefix ({} records)",
                    s.durable
                ),
                t,
            ));
            return out;
        }

        if s.muts_left > 0 {
            let req = Request::Mutate {
                op: MutateOp::AddEdge,
                u: 0,
                v: 1,
            };
            let mut t = s.clone();
            t.muts_left -= 1;
            t.pending += 1;
            out.push((
                format!(
                    "client -> pool: {} (tag {})",
                    adapters::request_name(&req),
                    adapters::request_tag(&req),
                ),
                t,
            ));
        }
        if s.pending > 0 {
            let mut t = s.clone();
            t.pending -= 1;
            t.applied += 1;
            t.appended += 1;
            out.push((
                format!(
                    "pool: broadcast applied; WAL append record {}",
                    s.appended + 1
                ),
                t,
            ));
        }
        if s.durable < s.appended {
            let mut t = s.clone();
            t.durable = s.appended;
            out.push((
                format!("wal: group-commit fsync covers records 1..={}", s.appended),
                t,
            ));
        }
        // The ack gate: the covering fsync in the clean protocol — or,
        // with the seeded bug, the mere append.
        let ack_gate = if self.inject == Some(Inject::AckBeforeFsyncWal) {
            s.appended
        } else {
            s.durable
        };
        if s.acked < ack_gate {
            let resp = Response::Mutated {
                epoch: u64::from(s.acked + 1),
                applied: true,
            };
            let bug = if s.acked >= s.durable {
                " (BUG: before the covering fsync)"
            } else {
                ""
            };
            let mut t = s.clone();
            t.acked += 1;
            out.push((
                format!(
                    "pool -> client: {} (tag {}) for record {}{bug}",
                    adapters::response_name(&resp),
                    adapters::response_tag(&resp),
                    s.acked + 1,
                ),
                t,
            ));
        }
        if s.crashes_left > 0 {
            // SIGKILL: the un-fsynced log tail is gone, un-appended
            // submissions are gone (the client retries them — no ack
            // ever left), and worker state dies with the front-end.
            let mut t = s.clone();
            t.crashes_left -= 1;
            t.up = false;
            t.muts_left += s.pending;
            t.pending = 0;
            t.appended = s.durable;
            t.applied = s.durable;
            let tail = if s.appended > s.durable {
                format!(
                    "records {}..={} un-fsynced, lost",
                    s.durable + 1,
                    s.appended
                )
            } else {
                "log tail fully fsynced".to_string()
            };
            out.push((format!("chaos: SIGKILL front-end ({tail})"), t));
        }
        out
    }

    fn violated(&self, s: &WalModelState) -> Option<&'static str> {
        // An acknowledgement exists for a record the log no longer
        // holds: the client was told the mutation stuck, and it is gone.
        if s.acked > s.appended {
            return Some("no-acked-mutation-lost");
        }
        // The workers hold more mutations than the log: replay (or a
        // replay/broadcast race) applied something twice.
        if s.applied > s.appended {
            return Some("no-duplicate-replay");
        }
        None
    }

    fn invariants(&self) -> Vec<&'static str> {
        vec![
            "no-acked-mutation-lost",
            "no-duplicate-replay",
            "liveness",
            "deadlock",
        ]
    }

    fn resolved(&self, s: &WalModelState) -> bool {
        s.up && s.muts_left == 0
            && s.pending == 0
            && s.acked == s.appended
            && s.durable == s.appended
            && s.applied == s.appended
    }
}

// ---------------------------------------------------------------------
// The dist-check entry point and its JSON report
// ---------------------------------------------------------------------

/// Outcome of one seeded-bug run.
#[derive(Clone, Debug)]
pub struct InjectionOutcome {
    /// The seeded bug.
    pub inject: Inject,
    /// Model it was seeded into.
    pub model: &'static str,
    /// The violation that caught it (None = NOT caught — a checker bug).
    pub caught: Option<Counterexample>,
}

/// Everything `dist-check` produces.
#[derive(Clone, Debug)]
pub struct DistReport {
    /// Clean-model reports (recovery, pool, wal).
    pub clean: Vec<ModelReport>,
    /// Seeded-bug outcomes (empty unless `--inject` was given).
    pub injections: Vec<InjectionOutcome>,
}

impl DistReport {
    /// Total states explored across the clean models.
    pub fn states_explored(&self) -> usize {
        self.clean.iter().map(|m| m.states).sum()
    }

    /// Total invariants checked across the clean models.
    pub fn invariants_checked(&self) -> usize {
        self.clean.iter().map(|m| m.invariants.len()).sum()
    }

    /// Deepest BFS layer reached by any clean model.
    pub fn max_depth(&self) -> usize {
        self.clean.iter().map(|m| m.max_depth).max().unwrap_or(0)
    }

    /// True when every clean model held and every seeded bug was caught.
    pub fn ok(&self) -> bool {
        self.clean
            .iter()
            .all(|m| m.violation.is_none() && !m.truncated)
            && self.injections.iter().all(|i| i.caught.is_some())
    }

    /// The `mrbc-analyze-dist-v1` JSON report.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"mrbc-analyze-dist-v1\"");
        out.push_str(&format!(
            ",\"states_explored\":{},\"invariants_checked\":{},\"max_depth\":{}",
            self.states_explored(),
            self.invariants_checked(),
            self.max_depth()
        ));
        out.push_str(",\"models\":[");
        for (i, m) in self.clean.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let violation = match &m.violation {
                Some(c) => format!(
                    "{{\"invariant\":\"{}\",\"trace_len\":{}}}",
                    json_escape(&c.invariant),
                    c.trace.len()
                ),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"states\":{},\"max_depth\":{},\"truncated\":{},\"violation\":{violation}}}",
                m.name, m.states, m.max_depth, m.truncated,
            ));
        }
        out.push_str("],\"injections\":[");
        for (i, inj) in self.injections.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let invariant = match &inj.caught {
                Some(c) => format!("\"{}\"", json_escape(&c.invariant)),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"model\":\"{}\",\"caught\":{},\"invariant\":{invariant}}}",
                inj.inject.name(),
                inj.model,
                inj.caught.is_some(),
            ));
        }
        out.push_str("]}");
        out
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Runs the model with `inject` seeded into whichever model it targets.
fn run_injection(inject: Inject, depth_bound: usize) -> InjectionOutcome {
    let (model, report) = match inject {
        Inject::AckBeforeFsync => (
            "recovery",
            check(
                &RecoveryModel {
                    inject: Some(inject),
                },
                depth_bound,
            ),
        ),
        Inject::SkipReplayLock | Inject::NoDetectorReset => (
            "pool",
            check(
                &PoolModel {
                    inject: Some(inject),
                },
                depth_bound,
            ),
        ),
        Inject::AckBeforeFsyncWal => (
            "wal",
            check(
                &WalModel {
                    inject: Some(inject),
                },
                depth_bound,
            ),
        ),
    };
    InjectionOutcome {
        inject,
        model,
        caught: report.violation,
    }
}

/// Runs every clean model, plus the requested seeded bugs (`None` =
/// clean only; `Some(None)` = all of [`Inject::ALL`]).
pub fn run_dist_check(depth_bound: usize, inject: Option<Option<Inject>>) -> DistReport {
    let clean = vec![
        check(&RecoveryModel { inject: None }, depth_bound),
        check(&PoolModel { inject: None }, depth_bound),
        check(&WalModel { inject: None }, depth_bound),
    ];
    let injections = match inject {
        None => Vec::new(),
        Some(Some(one)) => vec![run_injection(one, depth_bound)],
        Some(None) => Inject::ALL
            .into_iter()
            .map(|i| run_injection(i, depth_bound))
            .collect(),
    };
    DistReport { clean, injections }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrbc_net::frame::FrameKind;
    use mrbc_net::launch::{parse_control_line, parse_worker_line};

    #[test]
    fn clean_recovery_model_holds_exhaustively() {
        let report = check(&RecoveryModel { inject: None }, DEFAULT_DEPTH_BOUND);
        assert!(
            report.violation.is_none(),
            "clean recovery model violated {:?}",
            report.violation
        );
        assert!(!report.truncated, "depth bound too small for recovery");
        assert!(report.states > 100, "suspiciously few states explored");
    }

    #[test]
    fn clean_pool_model_holds_exhaustively() {
        let report = check(&PoolModel { inject: None }, DEFAULT_DEPTH_BOUND);
        assert!(
            report.violation.is_none(),
            "clean pool model violated {:?}",
            report.violation
        );
        assert!(!report.truncated, "depth bound too small for pool");
        assert!(report.states > 100, "suspiciously few states explored");
    }

    #[test]
    fn clean_wal_model_holds_exhaustively() {
        let report = check(&WalModel { inject: None }, DEFAULT_DEPTH_BOUND);
        assert!(
            report.violation.is_none(),
            "clean wal model violated {:?}",
            report.violation
        );
        assert!(!report.truncated, "depth bound too small for wal");
        assert!(report.states > 10, "suspiciously few states explored");
    }

    #[test]
    fn ack_before_fsync_wal_is_caught() {
        let outcome = run_injection(Inject::AckBeforeFsyncWal, DEFAULT_DEPTH_BOUND);
        assert_eq!(outcome.model, "wal");
        let caught = outcome.caught.expect("seeded bug must be caught");
        assert_eq!(caught.invariant, "no-acked-mutation-lost");
        // The shortest counterexample is the whole story: an ack leaves
        // before the covering fsync, then the crash eats the record.
        assert!(
            caught.trace.iter().any(|l| l.contains("BUG: before")),
            "{caught:?}"
        );
        assert!(
            caught.trace.iter().any(|l| l.contains("SIGKILL front-end")),
            "{caught:?}"
        );
    }

    #[test]
    fn ack_before_fsync_is_caught_by_durability_invariants() {
        let outcome = run_injection(Inject::AckBeforeFsync, DEFAULT_DEPTH_BOUND);
        let caught = outcome.caught.expect("seeded bug must be caught");
        // Shortest counterexample: a rank *reports* a fsync-pending
        // checkpoint (durable-before-ack); deeper interleavings also
        // reach resume-step-coverage (RESUME onto a non-durable base).
        assert!(
            caught.invariant == "durable-before-ack" || caught.invariant == "resume-step-coverage",
            "unexpected invariant {}",
            caught.invariant
        );
        assert!(!caught.trace.is_empty());
        // The timeline speaks the real line protocol.
        assert!(caught.trace.iter().any(|l| l.contains("CKPT")));
        assert!(caught.trace.iter().any(|l| l.contains("STEP")));
    }

    #[test]
    fn skip_replay_lock_is_caught_by_mutation_invariants() {
        let outcome = run_injection(Inject::SkipReplayLock, DEFAULT_DEPTH_BOUND);
        let caught = outcome.caught.expect("seeded bug must be caught");
        assert!(
            caught.invariant == "no-lost-mutation" || caught.invariant == "no-duplicate-mutation",
            "unexpected invariant {}",
            caught.invariant
        );
        assert!(caught.trace.iter().any(|l| l.contains("WITHOUT lock")));
    }

    #[test]
    fn no_detector_reset_is_caught_by_liveness() {
        let outcome = run_injection(Inject::NoDetectorReset, DEFAULT_DEPTH_BOUND);
        let caught = outcome.caught.expect("seeded bug must be caught");
        assert_eq!(caught.invariant, "liveness");
        // The trace is extended past the doomed state to show the
        // futile respawn/kill cycle, ending in a repeat marker.
        assert!(caught.trace.iter().any(|l| l.contains("respawn")));
        assert!(caught.trace.iter().any(|l| l.contains("state repeats")));
    }

    #[test]
    fn full_dist_check_passes_and_serializes() {
        let report = run_dist_check(DEFAULT_DEPTH_BOUND, Some(None));
        assert!(report.ok(), "dist-check not ok: {report:?}");
        assert_eq!(report.injections.len(), Inject::ALL.len());
        let json = report.to_json();
        assert!(json.starts_with("{\"schema\":\"mrbc-analyze-dist-v1\""));
        assert!(json.contains("\"states_explored\":"));
        assert!(json.contains("\"invariants_checked\":"));
        assert!(json.contains("\"max_depth\":"));
        assert!(json.contains("\"caught\":true"));
        assert!(!json.contains("\"caught\":false"));
    }

    #[test]
    fn timelines_round_trip_through_the_real_line_parsers() {
        // The recovery model's counterexample lines embed real
        // control/event lines; prove the real parsers accept them —
        // including the RESUME line exactly as the model renders it.
        let resume = launch::control_line(&ControlMsg::Resume {
            step: 1,
            epoch: 2,
            addrs: resume_addrs(),
        });
        let parsed = parse_control_line(&resume).expect("RESUME parses");
        assert_eq!(adapters::control_keyword(&parsed), "RESUME");
        assert!(matches!(
            parsed,
            ControlMsg::Resume { step: 1, epoch: 2, ref addrs } if addrs.len() == REC_W
        ));
        let ev = launch::event_line(&WorkerEvent::CkptLatest(Some(1)));
        assert_eq!(
            adapters::worker_line_keyword(&parse_worker_line(&ev)),
            "CKPT"
        );
        let ev = launch::event_line(&WorkerEvent::Stalled(0));
        assert_eq!(
            adapters::worker_line_keyword(&parse_worker_line(&ev)),
            "STALLED"
        );
    }

    #[test]
    fn adapters_cover_the_wire_tag_spaces() {
        // Requests 0..=7, responses 0..=13, frames 0..=5: the adapter
        // projections are bijections onto the encoder tag ranges.
        let requests = [
            Request::Hello { generation: 0 },
            Request::BcScore { epoch: 0, v: 0 },
            Request::TopK { epoch: 0, k: 1 },
            Request::PathInfo {
                epoch: 0,
                s: 0,
                t: 1,
            },
            Request::SubsetBc {
                epoch: 0,
                sources: Vec::new(),
            },
            Request::Mutate {
                op: MutateOp::AddEdge,
                u: 0,
                v: 1,
            },
            Request::Stats,
            Request::Shutdown,
        ];
        let tags: Vec<u8> = requests.iter().map(adapters::request_tag).collect();
        assert_eq!(tags, (0..=7).collect::<Vec<u8>>());

        let frames = [
            FrameKind::Hello,
            FrameKind::Welcome,
            FrameKind::Data,
            FrameKind::Ack,
            FrameKind::Heartbeat,
            FrameKind::Bye,
        ];
        let tags: Vec<u8> = frames.iter().map(adapters::frame_tag).collect();
        assert_eq!(tags, (0..=5).collect::<Vec<u8>>());

        assert_eq!(adapters::mutate_op_tag(&MutateOp::AddEdge), 0);
        assert_eq!(adapters::mutate_op_tag(&MutateOp::RemoveEdge), 1);
        assert_eq!(
            adapters::response_tag(&Response::Partial {
                epoch: 0,
                scores: Vec::new(),
                missing_sources: Vec::new(),
            }),
            12
        );
        assert_eq!(
            adapters::response_tag(&Response::WalFault {
                message: String::new(),
            }),
            13
        );
        assert_eq!(
            adapters::response_name(&Response::WalFault {
                message: String::new(),
            }),
            "WalFault"
        );
        assert_eq!(adapters::response_name(&Response::Bye), "Bye");
        assert_eq!(adapters::request_name(&Request::Stats), "Stats");
        assert_eq!(adapters::event_keyword(&WorkerEvent::Step(0)), "STEP");
    }

    #[test]
    fn counterexample_timeline_is_numbered() {
        let c = Counterexample {
            invariant: "x".to_string(),
            trace: vec!["a".to_string(), "b".to_string()],
        };
        let t = c.timeline();
        assert!(t.contains("1. a"));
        assert!(t.contains("2. b"));
    }
}
