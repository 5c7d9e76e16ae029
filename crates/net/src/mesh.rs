//! Full-mesh TCP transport between worker ranks: allgather exchanges
//! with reliability, heartbeat failure detection, reconnect with
//! exponential backoff + jitter, idempotent resend, and epoch-stamped
//! recovery.
//!
//! Topology: every pair of ranks holds one connection; **rank `i` dials
//! rank `j` iff `i > j`** (the lower rank listens). The rule is stable
//! across reconnects, so after a connection breaks exactly one side
//! redials — no thundering-herd or crossed duplicate connections.
//!
//! Reliability reuses the same seq/ack core as the in-process
//! [`ReliableLink`](mrbc_dgalois::ReliableLink): a
//! [`PairSeqs`](mrbc_dgalois::reliability::PairSeqs) allocator stamps
//! every [`Data`](crate::frame::FrameKind::Data) frame, an
//! [`AckTracker`](mrbc_dgalois::reliability::AckTracker) retains sent
//! payloads until cumulatively acknowledged (and replays them after a
//! reconnect — duplicates are fine, receipt is idempotent), and a
//! [`Reassembly`](mrbc_dgalois::reliability::Reassembly) buffer releases
//! frames exactly once, in order, whatever the delivery schedule. The
//! BSP allgather then consumes exactly one in-order payload per peer per
//! step.
//!
//! **Threads and waiting.** Every open socket has one reader thread: it
//! blocks in `read`, decodes frames ([`read_frames`]) and sends each
//! one, then the socket's end, to the mesh's one event channel, tagged
//! with the socket's generation so that events from a dropped socket
//! are recognisably stale. Because one socket's events share one FIFO
//! channel, "frames before the hang-up" holds by construction.
//! Everything else happens on the thread that owns the [`Mesh`]: it
//! alone writes, straight to the blocking socket, and whatever blocks on
//! the mesh — connect, allgather, goodbye, a worker's step and stall
//! loops — does so in [`Mesh::wait_until`], which sleeps on the channel
//! until a frame arrives, a [`Waker`] fires or the next deadline falls
//! due. Nothing polls, except the listener while a link that a peer
//! dials is down.

use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use mrbc_dgalois::reliability::{AckTracker, PairSeqs, Reassembly};
use mrbc_util::backoff::Backoff;

use crate::detector::{DetectorConfig, HeartbeatDetector, PeerStatus};
use crate::frame::{read_frames, Frame, FrameKind};

/// Time since the process-wide transport clock epoch.
///
/// The transport is the one subsystem that must consult real time (TCP
/// peers fail in wall-clock time, not in round counts); everything is
/// funneled through this helper so the rest of the crate stays
/// clock-free and the detector stays a pure function of timestamps.
fn clock() -> Duration {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    // Failure detection, backoff and partition windows are wall-clock
    // phenomena, so the transport owns real time.
    // lint: allow(wallclock): the transport owns real time (see above)
    let epoch = *EPOCH.get_or_init(Instant::now);
    // lint: allow(wallclock): same justification as above; single site.
    Instant::now().duration_since(epoch)
}

/// Milliseconds since the transport clock epoch (see [`clock`]).
pub fn now_ms() -> u64 {
    clock().as_millis() as u64
}

/// How long until [`now_ms`] reads `deadline_ms`; zero once it has.
pub fn time_until(deadline_ms: u64) -> Duration {
    Duration::from_millis(deadline_ms).saturating_sub(clock())
}

/// How long one socket write may block before the link counts as
/// broken. Every peer's reader drains its socket, so only a hung peer
/// makes a write wait.
const WRITE_DEADLINE: Duration = Duration::from_secs(1);

/// How often the listener is checked while a link that a peer dials is
/// down: a dial is the one thing that does not arrive as an event.
const ACCEPT_POLL_MS: u64 = 1;

/// A dial whose `Welcome` has not come back by then is dropped.
const GREETING_TIMEOUT_MS: u64 = 3_000;

/// An accepted socket that has not said `Hello` by then is dropped.
const HELLO_TIMEOUT_MS: u64 = 5_000;

/// Transport failure surfaced to the worker loop.
#[derive(Debug)]
pub enum MeshError {
    /// Socket-level failure outside any single connection (bind, accept).
    Io(std::io::Error),
    /// Not every peer connected within the establish timeout.
    EstablishTimeout {
        /// Ranks still unreachable.
        missing: Vec<usize>,
    },
    /// The failure detector declared peers dead mid-exchange.
    PeerDead {
        /// Ranks declared dead.
        peers: Vec<usize>,
    },
    /// The per-step deadline budget expired before every payload arrived.
    DeadlineExpired {
        /// The step being exchanged.
        step: u64,
        /// Ranks whose payloads were still missing.
        missing: Vec<usize>,
    },
    /// The peer violated the protocol (bad handshake, step skew).
    Protocol(&'static str),
}

impl fmt::Display for MeshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeshError::Io(e) => write!(f, "mesh i/o error: {e}"),
            MeshError::EstablishTimeout { missing } => {
                write!(f, "mesh establish timed out; unreachable ranks {missing:?}")
            }
            MeshError::PeerDead { peers } => write!(f, "peers declared dead: {peers:?}"),
            MeshError::DeadlineExpired { step, missing } => {
                write!(
                    f,
                    "step {step} deadline expired; missing payloads from {missing:?}"
                )
            }
            MeshError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for MeshError {}

impl From<std::io::Error> for MeshError {
    fn from(e: std::io::Error) -> Self {
        MeshError::Io(e)
    }
}

/// Mesh configuration.
#[derive(Clone, Debug)]
pub struct MeshConfig {
    /// This worker's rank.
    pub rank: usize,
    /// Total ranks in the mesh.
    pub num_ranks: usize,
    /// Address to bind the listener on (`127.0.0.1:0` → ephemeral port).
    pub listen: SocketAddr,
    /// Run incarnation to stamp on frames.
    pub epoch: u32,
    /// Failure-detector timings.
    pub detector: DetectorConfig,
}

impl MeshConfig {
    /// Localhost config with an ephemeral port and default detector.
    pub fn localhost(rank: usize, num_ranks: usize) -> Self {
        Self {
            rank,
            num_ranks,
            // lint: allow(unwrap): literal address always parses
            listen: "127.0.0.1:0".parse().expect("literal addr"),
            epoch: 0,
            detector: DetectorConfig::default(),
        }
    }
}

/// Transport-level counters (all monotonic).
#[derive(Clone, Copy, Debug, Default)]
pub struct MeshStats {
    /// Connections re-established after a break.
    pub reconnects: u64,
    /// Data frames retransmitted from the retention buffer.
    pub resends: u64,
    /// Data frames received (including duplicates).
    pub data_rx: u64,
    /// Heartbeat frames sent.
    pub heartbeats_tx: u64,
    /// Frames discarded for carrying a stale epoch.
    pub epoch_discards: u64,
    /// Sends suppressed / connections cut by an enforced partition.
    pub partition_cuts: u64,
    /// Wake-ups in [`Mesh::wait_until`] that found neither an event nor
    /// a due deadline: listener checks while a link is down.
    pub idle_wakes: u64,
}

/// What reaches the mesh's event channel. Socket events carry the
/// socket's generation.
enum Event {
    /// A frame read from socket `gen`.
    Frame(u64, Frame),
    /// Socket `gen` hit EOF, an error or a corrupt frame; nothing follows.
    End(u64),
    /// A [`Waker`] fired.
    Wake,
}

/// Wakes a mesh blocked in [`Mesh::wait_until`] from another thread, so
/// that it checks its condition again — a control plane that has just
/// queued a message for the mesh's owner uses it.
#[derive(Clone)]
pub struct Waker(Sender<Event>);

impl Waker {
    /// Wakes the mesh; a no-op once it is gone.
    pub fn wake(&self) {
        drop(self.0.send(Event::Wake));
    }
}

/// One open socket: the mesh thread writes it, a reader thread reads
/// it. Dropping the link shuts the socket down, which ends the reader,
/// and joins the reader.
struct Link {
    gen: u64,
    stream: TcpStream,
    reader: Option<JoinHandle<()>>,
}

impl Link {
    fn open(stream: TcpStream, gen: u64, events: &Sender<Event>) -> std::io::Result<Link> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(WRITE_DEADLINE))?;
        let mut read_half = stream.try_clone()?;
        let events = events.clone();
        let reader = thread::Builder::new()
            .name("mesh-rx".into())
            .spawn(move || {
                read_frames(&mut read_half, |frame| {
                    match events.send(Event::Frame(gen, frame)) {
                        Ok(()) => ControlFlow::Continue(()),
                        Err(_) => ControlFlow::Break(()),
                    }
                });
                drop(events.send(Event::End(gen)));
            })?;
        Ok(Link {
            gen,
            stream,
            reader: Some(reader),
        })
    }

    /// Writes one whole frame, blocking up to [`WRITE_DEADLINE`].
    fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        self.stream.write_all(&frame.encode())
    }
}

impl Drop for Link {
    fn drop(&mut self) {
        drop(self.stream.shutdown(Shutdown::Both));
        if let Some(reader) = self.reader.take() {
            drop(reader.join());
        }
    }
}

enum ConnState {
    /// No socket; `retry_at_ms` gates the next dial attempt.
    Down,
    /// Dialer side: TCP connected, `Hello` sent, awaiting `Welcome`.
    Greeting(Link),
    /// Fully established.
    Up(Link),
}

struct Conn {
    state: ConnState,
    backoff: Backoff,
    retry_at_ms: u64,
    /// When the dialer entered `Greeting` (stuck handshakes time out).
    greeting_since_ms: u64,
    /// Peer sent `Bye`; do not redial.
    closed: bool,
}

impl Conn {
    fn new(seed: u64) -> Self {
        Conn {
            state: ConnState::Down,
            backoff: Backoff::new(10, 500, 64, seed),
            retry_at_ms: 0,
            greeting_since_ms: 0,
            closed: false,
        }
    }

    fn is_up(&self) -> bool {
        matches!(self.state, ConnState::Up(_))
    }

    /// The generation of the open socket, if any.
    fn gen(&self) -> Option<u64> {
        match &self.state {
            ConnState::Greeting(link) | ConnState::Up(link) => Some(link.gen),
            ConnState::Down => None,
        }
    }

    fn drop_stream(&mut self, now: u64) {
        self.state = ConnState::Down;
        self.retry_at_ms = now + self.backoff.next_delay();
    }
}

/// One rank's endpoint of the full mesh.
pub struct Mesh {
    rank: usize,
    num_ranks: usize,
    epoch: u32,
    listener: TcpListener,
    local_addr: SocketAddr,
    /// Peer listen addresses (`addrs[rank]` unused for self).
    addrs: Vec<SocketAddr>,
    /// False until [`Mesh::connect`] / [`Mesh::restart_epoch`] installs
    /// real addresses — dialing the placeholder list would be nonsense.
    addrs_known: bool,
    conns: Vec<Conn>,
    /// Accepted sockets whose `Hello` has not arrived yet, with when
    /// they were accepted.
    pending: Vec<(Link, u64)>,
    /// Every reader's and every [`Waker`]'s events, in arrival order.
    events: Receiver<Event>,
    /// Cloned into each reader and waker; holding it keeps `events` open.
    event_tx: Sender<Event>,
    /// The last socket generation handed out.
    last_gen: u64,
    seqs: PairSeqs,
    acks: Vec<AckTracker<(u64, Vec<u8>)>>,
    reasm: Vec<Reassembly<(u64, Vec<u8>)>>,
    inbox: Vec<VecDeque<(u64, Vec<u8>)>>,
    detector: HeartbeatDetector,
    /// Wall-clock end of an enforced partition window, per peer.
    partition_until_ms: Vec<u64>,
    /// In-flight allgather, if any.
    exchange: Option<ExchangeState>,
    /// Transport counters.
    pub stats: MeshStats,
}

struct ExchangeState {
    step: u64,
    own: Vec<u8>,
    started_ms: u64,
}

impl Mesh {
    /// Binds the listener (learn the actual port via
    /// [`Mesh::local_addr`]); connections are made later by
    /// [`Mesh::connect`].
    pub fn bind(cfg: &MeshConfig) -> Result<Self, MeshError> {
        assert!(cfg.rank < cfg.num_ranks, "rank out of range");
        let listener = TcpListener::bind(cfg.listen)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let n = cfg.num_ranks;
        let now = now_ms();
        let (event_tx, events) = mpsc::channel();
        Ok(Mesh {
            rank: cfg.rank,
            num_ranks: n,
            epoch: cfg.epoch,
            listener,
            local_addr,
            addrs: vec![local_addr; n],
            addrs_known: false,
            conns: (0..n)
                .map(|p| Conn::new((cfg.rank as u64) << 32 | p as u64))
                .collect(),
            pending: Vec::new(),
            events,
            event_tx,
            last_gen: 0,
            seqs: PairSeqs::new(n),
            acks: (0..n).map(|_| AckTracker::new()).collect(),
            reasm: (0..n).map(|_| Reassembly::new()).collect(),
            inbox: (0..n).map(|_| VecDeque::new()).collect(),
            detector: HeartbeatDetector::new(n, cfg.detector, now),
            partition_until_ms: vec![0; n],
            exchange: None,
            stats: MeshStats::default(),
        })
    }

    /// The bound listen address (exchange it out of band, then
    /// [`Mesh::connect`]).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Current epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// A handle that wakes this mesh out of [`Mesh::wait_until`].
    pub fn waker(&self) -> Waker {
        Waker(self.event_tx.clone())
    }

    /// Drives the transport until `ready` yields a value: the one wait
    /// loop every blocking operation on a mesh goes through. `ready` sees
    /// the mesh after the transport's timed duties ran, and whether
    /// `budget_ms` (counted from the call) has run out.
    ///
    /// Between checks the mesh blocks on its event channel until a frame
    /// or a hang-up arrives, a [`Waker`] fires, or the next deadline
    /// falls due: a heartbeat, a redial, a handshake timeout, a silent
    /// peer's dead verdict, or the budget. So a step costs what its
    /// frames cost, and an expiry is seen when it happens.
    pub fn wait_until<T>(
        &mut self,
        budget_ms: Option<u64>,
        mut ready: impl FnMut(&mut Mesh, bool) -> Option<T>,
    ) -> T {
        let budget_end = budget_ms.map_or(u64::MAX, |ms| now_ms().saturating_add(ms));
        loop {
            self.tick(now_ms());
            if let Some(out) = ready(self, now_ms() >= budget_end) {
                return out;
            }
            let now = now_ms();
            let due = self.next_due_ms(now).min(budget_end);
            let wake_ms = if self.awaiting_dials() {
                due.min(now + ACCEPT_POLL_MS)
            } else {
                due
            };
            match self.events.recv_timeout(time_until(wake_ms)) {
                Ok(event) => {
                    self.handle(event);
                    while let Ok(event) = self.events.try_recv() {
                        self.handle(event);
                    }
                }
                Err(_) if now_ms() < due => self.stats.idle_wakes += 1,
                Err(_) => {}
            }
        }
    }

    /// Installs the full address list and waits until every peer link is
    /// up, or `timeout_ms` elapses.
    pub fn connect(&mut self, addrs: &[SocketAddr], timeout_ms: u64) -> Result<(), MeshError> {
        assert_eq!(addrs.len(), self.num_ranks, "one address per rank");
        self.addrs = addrs.to_vec();
        self.addrs_known = true;
        self.wait_until(Some(timeout_ms), |m, expired| {
            let missing: Vec<usize> = (0..m.num_ranks)
                .filter(|&p| p != m.rank && !m.conns[p].is_up())
                .collect();
            if missing.is_empty() {
                Some(Ok(()))
            } else if expired {
                Some(Err(MeshError::EstablishTimeout { missing }))
            } else {
                None
            }
        })
    }

    /// Updates peer addresses (recovery: a respawned worker listens on a
    /// fresh port) and re-admits every peer in the new `epoch`: sequence
    /// state, retention buffers, reassembly and inboxes all reset, and
    /// sticky-dead verdicts clear. In-flight frames from older epochs are
    /// discarded on receipt.
    pub fn restart_epoch(&mut self, epoch: u32, addrs: &[SocketAddr]) {
        assert_eq!(addrs.len(), self.num_ranks, "one address per rank");
        let now = now_ms();
        self.epoch = epoch;
        self.addrs = addrs.to_vec();
        self.addrs_known = true;
        self.seqs = PairSeqs::new(self.num_ranks);
        self.acks = (0..self.num_ranks).map(|_| AckTracker::new()).collect();
        self.reasm = (0..self.num_ranks).map(|_| Reassembly::new()).collect();
        self.inbox = (0..self.num_ranks).map(|_| VecDeque::new()).collect();
        self.partition_until_ms = vec![0; self.num_ranks];
        self.exchange = None;
        for p in 0..self.num_ranks {
            self.detector.reset_peer(p, now);
            self.conns[p].closed = false;
            self.conns[p].backoff.reset();
            self.conns[p].retry_at_ms = now;
        }
    }

    /// Severs the link to `peer` for `ms` milliseconds (fault
    /// injection): the connection drops, no traffic flows either way
    /// until the window elapses, then normal reconnect + resend heals
    /// the exchange. Windows accumulate if called repeatedly.
    pub fn partition_peer(&mut self, peer: usize, ms: u64) {
        let now = now_ms();
        let until = self.partition_until_ms[peer].max(now) + ms;
        self.partition_until_ms[peer] = until;
        self.conns[peer].drop_stream(now);
        self.conns[peer].retry_at_ms = until;
        self.stats.partition_cuts += 1;
        mrbc_obs::counter_add("net.partition_cuts", 1);
    }

    fn partitioned(&self, peer: usize, now: u64) -> bool {
        now < self.partition_until_ms[peer]
    }

    /// Starts the allgather exchange for `step`: stamps one reliability
    /// sequence number per peer, retains the payload for idempotent
    /// resend, and sends the Data frames. Complete the exchange with
    /// [`Mesh::try_complete_exchange`] (or use [`Mesh::allgather`]).
    pub fn begin_exchange(&mut self, step: u64, payload: Vec<u8>) {
        debug_assert!(self.exchange.is_none(), "previous exchange still open");
        for peer in 0..self.num_ranks {
            if peer == self.rank {
                continue;
            }
            let seq = self.seqs.alloc(self.rank, peer);
            self.acks[peer].sent(seq, (step, payload.clone()));
            let frame = Frame {
                kind: FrameKind::Data,
                from: self.rank as u16,
                epoch: self.epoch,
                step,
                seq,
                payload: payload.clone(),
            };
            self.send(peer, &frame);
        }
        self.exchange = Some(ExchangeState {
            step,
            own: payload,
            started_ms: now_ms(),
        });
        mrbc_obs::counter_add("net.allgather.calls", 1);
    }

    /// Checks the open exchange once, doing no I/O itself (the caller
    /// waits — normally by asking from inside [`Mesh::wait_until`]): if
    /// every peer's payload for `step` has arrived, returns all ranks'
    /// payloads in rank order (own included). `Ok(None)` means still
    /// waiting. Errors when the failure detector declares a
    /// missing peer dead ([`MeshError::PeerDead`]) or `deadline_ms`
    /// (measured from [`Mesh::begin_exchange`]) expires
    /// ([`MeshError::DeadlineExpired`]); the exchange stays open so the
    /// caller decides whether to keep waiting or abandon the epoch.
    pub fn try_complete_exchange(
        &mut self,
        step: u64,
        deadline_ms: Option<u64>,
    ) -> Result<Option<Vec<Vec<u8>>>, MeshError> {
        let started = match &self.exchange {
            Some(ex) if ex.step == step => ex.started_ms,
            Some(_) => return Err(MeshError::Protocol("exchange open for a different step")),
            None => return Err(MeshError::Protocol("no exchange in progress")),
        };
        let now = now_ms();
        let missing: Vec<usize> = (0..self.num_ranks)
            .filter(|&p| p != self.rank && self.inbox[p].front().map(|(s, _)| *s) != Some(step))
            .collect();
        if missing.is_empty() {
            // lint: allow(unwrap): step match verified at function entry
            let own = self.exchange.take().expect("checked above").own;
            let mut out = Vec::with_capacity(self.num_ranks);
            for p in 0..self.num_ranks {
                if p == self.rank {
                    out.push(own.clone());
                } else {
                    // lint: allow(unwrap): presence checked above
                    let (s, bytes) = self.inbox[p].pop_front().expect("checked non-empty");
                    debug_assert_eq!(s, step);
                    out.push(bytes);
                }
            }
            return Ok(Some(out));
        }
        // A queued payload with the wrong step means the peer and we
        // disagree about where we are — unrecoverable skew.
        for &p in &missing {
            if let Some(&(s, _)) = self.inbox[p].front() {
                if s < step {
                    return Err(MeshError::Protocol("peer payload behind current step"));
                }
            }
        }
        // A peer that said `Bye` delivered everything it ever sent (its
        // goodbye lingers for our ack) — if its payload for this step is
        // still missing, it exited without producing it and no amount of
        // waiting helps: fail as fast as a detector verdict would.
        let dead: Vec<usize> = missing
            .iter()
            .copied()
            .filter(|&p| {
                !self.partitioned(p, now)
                    && (self.detector.status(p, now) == PeerStatus::Dead
                        || (self.conns[p].closed && matches!(self.conns[p].state, ConnState::Down)))
            })
            .collect();
        if !dead.is_empty() {
            return Err(MeshError::PeerDead { peers: dead });
        }
        if let Some(dl) = deadline_ms {
            if now >= started + dl {
                return Err(MeshError::DeadlineExpired { step, missing });
            }
        }
        Ok(None)
    }

    /// One blocking allgather exchange for `step`: sends `payload` to
    /// every peer and returns all ranks' payloads in rank order (own
    /// included), or the first transport error. Convenience wrapper over
    /// [`Mesh::begin_exchange`] + [`Mesh::try_complete_exchange`].
    pub fn allgather(
        &mut self,
        step: u64,
        payload: Vec<u8>,
        deadline_ms: Option<u64>,
    ) -> Result<Vec<Vec<u8>>, MeshError> {
        self.begin_exchange(step, payload);
        let all = self.wait_until(deadline_ms, |m, _| {
            m.try_complete_exchange(step, deadline_ms).transpose()
        });
        if all.is_err() {
            self.exchange = None;
        }
        all
    }

    /// Orderly shutdown: lingers until every reachable peer has
    /// acknowledged all of our Data frames, announces `Bye`, then lingers
    /// until each peer has hung up.
    ///
    /// The lingers are load-bearing, not politeness. A rank that finishes
    /// first and simply drops its `Mesh` closes sockets that may still
    /// hold unread inbound bytes (a heartbeat, a late ack) — that close
    /// aborts the connection with RST, and an RST discards
    /// *delivered-but-unread* bytes on the peer's side, destroying the
    /// final step's payload that nothing will ever retransmit (the
    /// sender is gone). Waiting for the cumulative ack proves the peer's
    /// reassembly layer delivered everything we sent; waiting for its
    /// hang-up proves it read our `Bye` and leaves nothing unread here.
    ///
    /// What ends the first linger, per peer: its cumulative ack of our
    /// last Data frame, or its own `Bye` — either may be the last thing
    /// it wrote before closing, and frames read ahead of a hang-up count.
    /// Between live peers each linger takes a round trip. The two
    /// deadlines (2 s for the acks, 250 ms for the hang-ups) only bound
    /// the wait for a peer that crashed or is unreachable.
    pub fn goodbye(&mut self) {
        self.wait_until(Some(2_000), |m, expired| {
            let now = now_ms();
            let settled = (0..m.num_ranks).all(|p| {
                p == m.rank || m.conns[p].closed || m.partitioned(p, now) || m.acks[p].is_empty()
            });
            (settled || expired).then_some(())
        });
        for peer in 0..self.num_ranks {
            if peer != self.rank && self.conns[peer].is_up() {
                let bye = Frame::control(FrameKind::Bye, self.rank as u16, self.epoch);
                self.send(peer, &bye);
            }
        }
        self.wait_until(Some(250), |m, expired| {
            let hung_up = (0..m.num_ranks).all(|p| p == m.rank || !m.conns[p].is_up());
            (hung_up || expired).then_some(())
        });
    }

    /// Writes `frame` to `peer` (no-op while the link is down or
    /// partitioned — Data frames are retained in the ack tracker and
    /// replayed on reconnect). A failed write drops the link.
    fn send(&mut self, peer: usize, frame: &Frame) {
        let now = now_ms();
        if self.partitioned(peer, now) {
            self.stats.partition_cuts += 1;
            return;
        }
        let conn = &mut self.conns[peer];
        if let ConnState::Up(link) = &mut conn.state {
            if link.send(frame).is_err() {
                conn.drop_stream(now);
            }
        }
    }

    /// Replays protocol state to a freshly (re)established link: every
    /// unacked Data frame in sequence order, plus our cumulative ack of
    /// the peer's stream. Receipt is idempotent on the other side.
    fn replay_to(&mut self, peer: usize) {
        let resend: Vec<(u64, u64, Vec<u8>)> = self.acks[peer]
            .unacked()
            .map(|(seq, (step, bytes))| (seq, *step, bytes.clone()))
            .collect();
        let n = resend.len() as u64;
        for (seq, step, payload) in resend {
            let frame = Frame {
                kind: FrameKind::Data,
                from: self.rank as u16,
                epoch: self.epoch,
                step,
                seq,
                payload,
            };
            self.send(peer, &frame);
        }
        self.stats.resends += n;
        mrbc_obs::counter_add("net.resends", n);
        if let Some(cum) = self.reasm[peer].cumulative_ack() {
            let mut ack = Frame::control(FrameKind::Ack, self.rank as u16, self.epoch);
            ack.seq = cum;
            self.send(peer, &ack);
        }
    }

    /// Bookkeeping shared by both promotion paths (acceptor's Hello,
    /// dialer's Welcome), once the link is `Up` and the acceptor's
    /// `Welcome` is written: the replay goes out behind it.
    fn after_link_up(&mut self, peer: usize, now: u64) {
        self.conns[peer].backoff.reset();
        self.stats.reconnects += 1;
        mrbc_obs::counter_add("net.reconnects", 1);
        self.detector.heard_from(peer, now);
        self.replay_to(peer);
    }

    /// The transport's timed duties: take new dials, send a due
    /// heartbeat round, give up on stuck handshakes, redial.
    fn tick(&mut self, now: u64) {
        self.accept_new(now);
        if self.detector.beat_due(now) {
            for peer in 0..self.num_ranks {
                if peer != self.rank && self.conns[peer].is_up() && !self.partitioned(peer, now) {
                    let hb = Frame::control(FrameKind::Heartbeat, self.rank as u16, self.epoch);
                    self.send(peer, &hb);
                    self.stats.heartbeats_tx += 1;
                }
            }
        }
        // A dial whose Welcome never arrives must not wedge the link.
        for conn in &mut self.conns {
            if matches!(conn.state, ConnState::Greeting(_))
                && now.saturating_sub(conn.greeting_since_ms) > GREETING_TIMEOUT_MS
            {
                conn.drop_stream(now);
            }
        }
        self.redial(now);
    }

    /// When [`Mesh::tick`] next has something to do, or a silent peer
    /// turns dead.
    fn next_due_ms(&self, now: u64) -> u64 {
        let mut due = self.detector.next_beat_ms();
        for (p, conn) in self.conns.iter().enumerate() {
            if p == self.rank {
                continue;
            }
            match conn.state {
                ConnState::Down if p < self.rank && self.addrs_known && !conn.closed => {
                    due = due.min(conn.retry_at_ms.max(self.partition_until_ms[p]));
                }
                ConnState::Greeting(_) => {
                    due = due.min(conn.greeting_since_ms + GREETING_TIMEOUT_MS + 1);
                }
                _ => {}
            }
            // A verdict already past is seen by whoever asks next.
            if let Some(t) = self.detector.dead_at_ms(p).filter(|&t| t > now) {
                due = due.min(t);
            }
        }
        for (_, accepted_ms) in &self.pending {
            due = due.min(accepted_ms + HELLO_TIMEOUT_MS);
        }
        due
    }

    /// True while a link that a peer dials (a higher rank's) is down, so
    /// a dial may be waiting in the listener.
    fn awaiting_dials(&self) -> bool {
        self.conns[self.rank + 1..]
            .iter()
            .any(|c| !c.closed && !c.is_up())
    }

    fn fresh_gen(&mut self) -> u64 {
        self.last_gen += 1;
        self.last_gen
    }

    fn accept_new(&mut self, now: u64) {
        // An accepted socket does not inherit the listener's
        // non-blocking mode on Linux: its reader blocks.
        while let Ok((stream, _)) = self.listener.accept() {
            let gen = self.fresh_gen();
            if let Ok(link) = Link::open(stream, gen, &self.event_tx) {
                self.pending.push((link, now));
            }
        }
        self.pending
            .retain(|(_, accepted_ms)| now.saturating_sub(*accepted_ms) < HELLO_TIMEOUT_MS);
    }

    fn handle(&mut self, event: Event) {
        let now = now_ms();
        let peer_of = |gen| self.conns.iter().position(|c| c.gen() == Some(gen));
        match event {
            Event::Wake => {}
            Event::Frame(gen, frame) => match peer_of(gen) {
                Some(peer) => self.handle_frame(peer, frame, now),
                None => self.greet(gen, frame, now),
            },
            Event::End(gen) => match peer_of(gen) {
                Some(peer) => self.conns[peer].drop_stream(now),
                None => self.pending.retain(|(link, _)| link.gen != gen),
            },
        }
    }

    /// The first frame on accepted socket `gen` (if it is still
    /// pending): a `Hello` from a rank above ours installs the link and
    /// answers `Welcome`; anything else drops the socket.
    fn greet(&mut self, gen: u64, frame: Frame, now: u64) {
        let Some(i) = self.pending.iter().position(|(link, _)| link.gen == gen) else {
            return; // a socket already dropped
        };
        let (mut link, _) = self.pending.swap_remove(i);
        let peer = match frame.handshake_rank() {
            Ok(rank) if frame.kind == FrameKind::Hello => rank as usize,
            _ => return,
        };
        // Only ranks above ours dial us.
        if peer >= self.num_ranks || peer <= self.rank {
            return;
        }
        if self.partitioned(peer, now) {
            self.stats.partition_cuts += 1;
            return;
        }
        let welcome = Frame::handshake(FrameKind::Welcome, self.rank as u16, self.epoch);
        if link.send(&welcome).is_ok() {
            self.conns[peer].state = ConnState::Up(link);
            self.after_link_up(peer, now);
        }
    }

    fn handle_frame(&mut self, peer: usize, frame: Frame, now: u64) {
        if self.partitioned(peer, now) {
            self.stats.partition_cuts += 1;
            return;
        }
        // Any frame is liveness evidence, even from a stale epoch — the
        // process is clearly up; what it says is filtered below.
        self.detector.heard_from(peer, now);
        match frame.kind {
            FrameKind::Welcome => {
                // Dialer side: promote Greeting → Up in place, same link.
                if frame.handshake_rank().ok() != Some(peer as u16) {
                    self.conns[peer].drop_stream(now);
                    return;
                }
                if let ConnState::Greeting(link) =
                    std::mem::replace(&mut self.conns[peer].state, ConnState::Down)
                {
                    self.conns[peer].state = ConnState::Up(link);
                    self.after_link_up(peer, now);
                }
            }
            FrameKind::Hello => {
                // Hellos only arrive on pending sockets; on an
                // established link this is a protocol violation.
                self.conns[peer].drop_stream(now);
            }
            FrameKind::Data => {
                self.stats.data_rx += 1;
                mrbc_obs::counter_add("net.data_rx", 1);
                if frame.epoch != self.epoch {
                    self.stats.epoch_discards += 1;
                    mrbc_obs::counter_add("net.epoch_discards", 1);
                    return;
                }
                let mut released = Vec::new();
                self.reasm[peer].offer(frame.seq, (frame.step, frame.payload), &mut released);
                for item in released {
                    self.inbox[peer].push_back(item);
                }
                if let Some(cum) = self.reasm[peer].cumulative_ack() {
                    let mut ack = Frame::control(FrameKind::Ack, self.rank as u16, self.epoch);
                    ack.seq = cum;
                    self.send(peer, &ack);
                }
            }
            FrameKind::Ack => {
                if frame.epoch != self.epoch {
                    self.stats.epoch_discards += 1;
                    return;
                }
                self.acks[peer].ack_through(frame.seq);
            }
            FrameKind::Heartbeat => {}
            FrameKind::Bye => {
                self.conns[peer].closed = true;
                self.conns[peer].drop_stream(now);
            }
        }
    }

    fn redial(&mut self, now: u64) {
        if !self.addrs_known {
            return;
        }
        for peer in 0..self.rank {
            let conn = &self.conns[peer];
            if !matches!(conn.state, ConnState::Down)
                || conn.closed
                || now < conn.retry_at_ms
                || self.partitioned(peer, now)
            {
                continue;
            }
            let gen = self.fresh_gen();
            let hello = Frame::handshake(FrameKind::Hello, self.rank as u16, self.epoch);
            let events = &self.event_tx;
            let dialed = TcpStream::connect_timeout(&self.addrs[peer], Duration::from_millis(250))
                .and_then(|stream| Link::open(stream, gen, events))
                .and_then(|mut link| link.send(&hello).map(|()| link));
            match dialed {
                Ok(link) => {
                    self.conns[peer].state = ConnState::Greeting(link);
                    self.conns[peer].greeting_since_ms = now;
                }
                Err(_) => self.conns[peer].drop_stream(now),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A peer's last `Ack` and its `Bye` reach the reader together with
    /// its FIN. Both must count: the ack retires our Data frame, the
    /// `Bye` marks the link closed, and `goodbye` has nothing left to
    /// linger for.
    #[test]
    fn frames_read_ahead_of_a_hang_up_are_handled() {
        let mut mesh = Mesh::bind(&MeshConfig::localhost(0, 2)).expect("bind");
        // Rank 1, played by hand over a plain socket.
        let mut peer = TcpStream::connect(mesh.local_addr()).expect("dial");
        peer.set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .expect("read timeout");
        peer.write_all(&Frame::handshake(FrameKind::Hello, 1, 0).encode())
            .expect("hello");
        let up = mesh.wait_until(Some(5_000), |m, expired| {
            (m.conns[1].is_up() || expired).then(|| m.conns[1].is_up())
        });
        assert!(up, "link to the hand-played peer came up");
        mesh.begin_exchange(0, b"payload".to_vec());

        // Read up to our Data frame (an empty receive queue lets the
        // close below end in FIN, not RST), then acknowledge it, say
        // `Bye` and hang up in one go.
        let mut seq = None;
        read_frames(&mut peer, |f| {
            if f.kind != FrameKind::Data {
                return ControlFlow::Continue(());
            }
            seq = Some(f.seq);
            ControlFlow::Break(())
        });
        let seq = seq.expect("mesh hung up early");
        let mut ack = Frame::control(FrameKind::Ack, 1, 0);
        ack.seq = seq;
        let mut last_words = ack.encode();
        last_words.extend(Frame::control(FrameKind::Bye, 1, 0).encode());
        peer.write_all(&last_words).expect("ack + bye");
        drop(peer);

        mesh.wait_until(Some(5_000), |m, expired| {
            (!m.conns[1].is_up() || expired).then_some(())
        });
        assert!(mesh.acks[1].is_empty(), "the final ack was retired");
        assert!(mesh.conns[1].closed, "the Bye was seen");
        let t0 = now_ms();
        mesh.goodbye();
        let took = now_ms() - t0;
        assert!(
            took < 200,
            "goodbye lingered {took} ms for a peer that left in order"
        );
    }
}
