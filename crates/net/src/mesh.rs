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
//! The mesh is single-threaded: sockets are non-blocking and a `pump`
//! drains readable bytes, flushes pending writes, emits heartbeats, and
//! redials broken connections. Whatever blocks on the mesh — connect,
//! allgather, goodbye, a worker's step and stall loops — does so in
//! [`Mesh::wait_until`], which pumps on every turn, so the transport
//! makes progress even while the program is blocked on recovery.

use std::collections::VecDeque;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use mrbc_dgalois::reliability::{AckTracker, PairSeqs, Reassembly};
use mrbc_util::backoff::Backoff;

use crate::detector::{DetectorConfig, HeartbeatDetector, PeerStatus};
use crate::frame::{Frame, FrameDecoder, FrameKind};

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

/// How often a blocked mesh polls its sockets (see [`Mesh::wait_until`]).
const POLL_PERIOD: Duration = Duration::from_millis(1);

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
}

enum ConnState {
    /// No socket; `retry_at_ms` gates the next dial attempt.
    Down,
    /// Dialer side: TCP connected, `Hello` sent, awaiting `Welcome`.
    Greeting(TcpStream),
    /// Fully established.
    Up(TcpStream),
}

struct Conn {
    state: ConnState,
    decoder: FrameDecoder,
    outbox: VecDeque<u8>,
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
            decoder: FrameDecoder::new(),
            outbox: VecDeque::new(),
            backoff: Backoff::new(10, 500, 64, seed),
            retry_at_ms: 0,
            greeting_since_ms: 0,
            closed: false,
        }
    }

    fn is_up(&self) -> bool {
        matches!(self.state, ConnState::Up(_))
    }

    fn drop_stream(&mut self, now: u64) {
        self.state = ConnState::Down;
        self.decoder = FrameDecoder::new();
        self.outbox.clear();
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
    /// Accepted sockets whose `Hello` has not arrived yet.
    pending: Vec<(TcpStream, FrameDecoder, u64)>,
    seqs: PairSeqs,
    acks: Vec<AckTracker<(u64, Vec<u8>)>>,
    reasm: Vec<Reassembly<(u64, Vec<u8>)>>,
    inbox: Vec<VecDeque<(u64, Vec<u8>)>>,
    detector: HeartbeatDetector,
    /// Wall-clock end of an enforced partition window, per peer.
    partition_until_ms: Vec<u64>,
    /// In-flight allgather, if any.
    exchange: Option<ExchangeState>,
    /// When [`Mesh::wait_until`] polls next, or last did (transport clock).
    next_poll: Duration,
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
            seqs: PairSeqs::new(n),
            acks: (0..n).map(|_| AckTracker::new()).collect(),
            reasm: (0..n).map(|_| Reassembly::new()).collect(),
            inbox: (0..n).map(|_| VecDeque::new()).collect(),
            detector: HeartbeatDetector::new(n, cfg.detector, now),
            partition_until_ms: vec![0; n],
            exchange: None,
            next_poll: Duration::ZERO,
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

    /// Pumps the transport until `ready` yields a value: the one wait
    /// loop, and the one idle sleep, every blocking operation on a mesh
    /// goes through. `ready` sees the mesh right after each pump and the
    /// milliseconds waited so far, so a caller's deadline is one more
    /// reason to yield.
    ///
    /// Polls fall on a grid of [`POLL_PERIOD`] that outlives the call, so
    /// that how long a run of blocked steps takes follows from the number
    /// of polls and not from when each happened to be scheduled (a 2-rank,
    /// 338-step solve on localhost: 200 to 260 ms from one minute to the
    /// next with a plain 1 ms sleep, 171.5 ms with this).
    pub fn wait_until<T>(&mut self, mut ready: impl FnMut(&mut Mesh, u64) -> Option<T>) -> T {
        let started = now_ms();
        let mut sleeps = 0u32;
        loop {
            self.pump();
            if let Some(out) = ready(self, now_ms() - started) {
                return out;
            }
            // Waking to nothing means this rank polled just ahead of its
            // peers' sends, and whole periods would keep it just ahead of
            // them, one wasted wake-up per step. Half a period, once,
            // puts its polls between theirs.
            let period = POLL_PERIOD / if sleeps == 1 { 2 } else { 1 };
            sleeps += 1;
            // Sleep up to the next grid point, not for a fixed gap: a
            // wake-up that comes late (by 0.1 to 0.5 ms here, depending
            // on what else the machine does) shortens the sleep after it.
            // A mesh that has not blocked for a while starts a new grid.
            let (now, tick) = (clock(), self.next_poll + period);
            self.next_poll = if tick > now { tick } else { now + period };
            std::thread::sleep(self.next_poll - now);
        }
    }

    /// Installs the full address list and pumps until every peer link is
    /// up, or `timeout_ms` elapses.
    pub fn connect(&mut self, addrs: &[SocketAddr], timeout_ms: u64) -> Result<(), MeshError> {
        assert_eq!(addrs.len(), self.num_ranks, "one address per rank");
        self.addrs = addrs.to_vec();
        self.addrs_known = true;
        self.wait_until(|m, waited_ms| {
            let missing: Vec<usize> = (0..m.num_ranks)
                .filter(|&p| p != m.rank && !m.conns[p].is_up())
                .collect();
            if missing.is_empty() {
                Some(Ok(()))
            } else if waited_ms >= timeout_ms {
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
    /// resend, and queues the Data frames. Complete the exchange with
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
            self.enqueue(peer, &frame);
        }
        self.exchange = Some(ExchangeState {
            step,
            own: payload,
            started_ms: now_ms(),
        });
        mrbc_obs::counter_add("net.allgather.calls", 1);
        self.pump();
    }

    /// Checks the open exchange once, doing no I/O itself (the caller
    /// pumps — normally by asking from inside [`Mesh::wait_until`]): if
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
        let all = self.wait_until(|m, _| m.try_complete_exchange(step, deadline_ms).transpose());
        if all.is_err() {
            self.exchange = None;
        }
        all
    }

    /// Orderly shutdown: lingers until every reachable peer has
    /// acknowledged all of our Data frames and the outboxes are drained,
    /// then announces `Bye` and flushes it out.
    ///
    /// The linger is load-bearing, not politeness. A rank that finishes
    /// first and simply drops its `Mesh` closes sockets that may still
    /// hold unread inbound bytes (a heartbeat, a late ack) — that close
    /// aborts the connection with RST, and an RST discards
    /// *delivered-but-unread* bytes on the peer's side, destroying the
    /// final step's payload that nothing will ever retransmit (the
    /// sender is gone). Waiting for the cumulative ack proves the peer's
    /// reassembly layer delivered everything we sent.
    ///
    /// What ends the linger, per peer: its cumulative ack of our last
    /// Data frame, or its own `Bye` — either may be the last thing it
    /// wrote before closing, and frames read ahead of a hang-up count
    /// (see `read_all`). Between live peers that takes a round trip. The
    /// two deadlines (2 s for the acks, 250 ms for the `Bye` flush) only
    /// bound the wait for a peer that crashed or is unreachable.
    pub fn goodbye(&mut self) {
        self.wait_until(|m, waited_ms| {
            let now = now_ms();
            let settled = (0..m.num_ranks).all(|p| {
                p == m.rank
                    || m.conns[p].closed
                    || m.partitioned(p, now)
                    || (m.acks[p].is_empty() && m.conns[p].outbox.is_empty())
            });
            (settled || waited_ms >= 2_000).then_some(())
        });
        for peer in 0..self.num_ranks {
            if peer != self.rank && self.conns[peer].is_up() {
                let bye = Frame::control(FrameKind::Bye, self.rank as u16, self.epoch);
                self.enqueue(peer, &bye);
            }
        }
        // Push the Byes out; keep reading while we do so the socket is
        // drained at close (an empty receive queue avoids the RST path).
        self.wait_until(|m, waited_ms| {
            let drained = (0..m.num_ranks)
                .all(|p| p == m.rank || !m.conns[p].is_up() || m.conns[p].outbox.is_empty());
            (drained || waited_ms >= 250).then_some(())
        });
    }

    /// Appends an encoded frame to the peer's outbox (no-op while the
    /// link is down or partitioned — Data frames are retained in the ack
    /// tracker and replayed on reconnect).
    fn enqueue(&mut self, peer: usize, frame: &Frame) {
        let now = now_ms();
        if self.partitioned(peer, now) {
            self.stats.partition_cuts += 1;
            return;
        }
        if self.conns[peer].is_up() {
            let bytes = frame.encode();
            self.conns[peer].outbox.extend(bytes);
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
            self.enqueue(peer, &frame);
        }
        self.stats.resends += n;
        mrbc_obs::counter_add("net.resends", n);
        if let Some(cum) = self.reasm[peer].cumulative_ack() {
            let mut ack = Frame::control(FrameKind::Ack, self.rank as u16, self.epoch);
            ack.seq = cum;
            self.enqueue(peer, &ack);
        }
    }

    /// Bookkeeping shared by both promotion paths (acceptor's Hello,
    /// dialer's Welcome). The caller has already installed the stream,
    /// decoder, and any handshake bytes in the outbox — this must NOT
    /// reset either: the decoder may hold frames that arrived in the
    /// same segment as the handshake, and dropping them would lose data
    /// that nothing retransmits until the next reconnect.
    fn after_link_up(&mut self, peer: usize, now: u64) {
        self.conns[peer].backoff.reset();
        self.stats.reconnects += 1;
        mrbc_obs::counter_add("net.reconnects", 1);
        self.detector.heard_from(peer, now);
        self.replay_to(peer);
    }

    /// Drives the transport: accepts, handshakes, reads, dispatches,
    /// heartbeats, redials, flushes. Never blocks.
    pub fn pump(&mut self) {
        let now = now_ms();
        self.accept_new(now);
        self.greet_pending(now);
        self.read_all(now);
        if self.detector.beat_due(now) {
            for peer in 0..self.num_ranks {
                if peer != self.rank && self.conns[peer].is_up() && !self.partitioned(peer, now) {
                    let hb = Frame::control(FrameKind::Heartbeat, self.rank as u16, self.epoch);
                    self.enqueue(peer, &hb);
                    self.stats.heartbeats_tx += 1;
                }
            }
        }
        // A dial whose Welcome never arrives must not wedge the link.
        for conn in &mut self.conns {
            if matches!(conn.state, ConnState::Greeting(_))
                && now.saturating_sub(conn.greeting_since_ms) > 3_000
            {
                conn.drop_stream(now);
            }
        }
        self.redial(now);
        self.flush_all(now);
    }

    fn accept_new(&mut self, now: u64) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    self.pending.push((stream, FrameDecoder::new(), now));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        // Expire pending sockets that never said Hello.
        self.pending
            .retain(|(_, _, t)| now.saturating_sub(*t) < 5_000);
    }

    /// Reads pending accepted sockets until their `Hello` identifies the
    /// peer, then installs the connection and answers `Welcome`.
    fn greet_pending(&mut self, now: u64) {
        let mut ready: Vec<(usize, TcpStream, FrameDecoder)> = Vec::new();
        let mut keep: Vec<(TcpStream, FrameDecoder, u64)> = Vec::new();
        for (mut stream, mut dec, t) in std::mem::take(&mut self.pending) {
            if read_nonblocking(&mut stream, &mut dec) {
                continue;
            }
            match dec.next_frame() {
                Err(_) => continue, // corrupt greeting: drop the socket
                Ok(None) => keep.push((stream, dec, t)),
                Ok(Some(frame)) => {
                    if frame.kind != FrameKind::Hello {
                        continue;
                    }
                    let Ok(rank) = frame.handshake_rank() else {
                        continue;
                    };
                    let peer = rank as usize;
                    // Only ranks above ours dial us; anything else is a
                    // protocol violation and the socket is dropped.
                    if peer >= self.num_ranks || peer <= self.rank {
                        continue;
                    }
                    if self.partitioned(peer, now) {
                        self.stats.partition_cuts += 1;
                        continue;
                    }
                    ready.push((peer, stream, dec));
                }
            }
        }
        self.pending = keep;
        for (peer, stream, dec) in ready {
            // Keep the decoder: bytes after the Hello already belong to
            // the established link. Welcome goes out before any replay.
            let welcome = Frame::handshake(FrameKind::Welcome, self.rank as u16, self.epoch);
            self.conns[peer].state = ConnState::Up(stream);
            self.conns[peer].decoder = dec;
            self.conns[peer].outbox.clear();
            self.conns[peer].outbox.extend(welcome.encode());
            self.after_link_up(peer, now);
        }
    }

    fn read_all(&mut self, now: u64) {
        for peer in 0..self.num_ranks {
            if peer == self.rank {
                continue;
            }
            let conn = &mut self.conns[peer];
            let hung_up = match &mut conn.state {
                ConnState::Up(stream) | ConnState::Greeting(stream) => {
                    read_nonblocking(stream, &mut conn.decoder)
                }
                ConnState::Down => continue,
            };
            // Frames first, the hang-up after: a peer's last `Ack` and
            // its `Bye` arrive in the same read as its FIN, and nothing
            // resends them. (A `Bye` or a protocol violation takes the
            // link down itself; `drop_stream` empties the decoder, so
            // nothing behind such a frame is handled.)
            loop {
                let frame = match self.conns[peer].decoder.next_frame() {
                    Ok(Some(f)) => f,
                    Ok(None) => break,
                    Err(_) => {
                        // Corrupt stream: no resynchronization possible.
                        self.conns[peer].drop_stream(now);
                        break;
                    }
                };
                self.handle_frame(peer, frame, now);
            }
            let conn = &mut self.conns[peer];
            if hung_up && !matches!(conn.state, ConnState::Down) {
                conn.drop_stream(now);
            }
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
                // Dialer side: promote Greeting → Up in place — same
                // stream, same decoder (it may already hold replayed Data
                // that shared a segment with the Welcome), same outbox
                // (any unflushed Hello tail must precede the replay).
                if frame.handshake_rank().ok() != Some(peer as u16) {
                    self.conns[peer].drop_stream(now);
                    return;
                }
                if let ConnState::Greeting(stream) =
                    std::mem::replace(&mut self.conns[peer].state, ConnState::Down)
                {
                    self.conns[peer].state = ConnState::Up(stream);
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
                    self.enqueue(peer, &ack);
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
            let addr = self.addrs[peer];
            match TcpStream::connect_timeout(&addr, std::time::Duration::from_millis(250)) {
                Ok(stream) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        self.conns[peer].drop_stream(now);
                        continue;
                    }
                    let hello = Frame::handshake(FrameKind::Hello, self.rank as u16, self.epoch);
                    self.conns[peer].state = ConnState::Greeting(stream);
                    self.conns[peer].decoder = FrameDecoder::new();
                    self.conns[peer].outbox.clear();
                    self.conns[peer].outbox.extend(hello.encode());
                    self.conns[peer].greeting_since_ms = now;
                }
                Err(_) => {
                    let delay = self.conns[peer].backoff.next_delay();
                    self.conns[peer].retry_at_ms = now + delay;
                }
            }
        }
    }

    fn flush_all(&mut self, now: u64) {
        for peer in 0..self.num_ranks {
            if peer == self.rank {
                continue;
            }
            let conn = &mut self.conns[peer];
            if conn.outbox.is_empty() {
                continue;
            }
            let stream = match &mut conn.state {
                ConnState::Up(s) | ConnState::Greeting(s) => s,
                ConnState::Down => continue,
            };
            let mut broken = false;
            loop {
                let (head, _) = conn.outbox.as_slices();
                if head.is_empty() {
                    break;
                }
                match stream.write(head) {
                    Ok(0) => {
                        broken = true;
                        break;
                    }
                    Ok(n) => {
                        conn.outbox.drain(..n);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
            if broken {
                conn.drop_stream(now);
            }
        }
    }
}

/// Feeds `decoder` everything `stream` has ready; true when the peer
/// hung up (EOF or a socket error), possibly after bytes that were fed.
fn read_nonblocking(stream: &mut TcpStream, decoder: &mut FrameDecoder) -> bool {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return true,
            Ok(n) => decoder.feed(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return true,
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
        let up = mesh.wait_until(|m, waited_ms| {
            (m.conns[1].is_up() || waited_ms >= 5_000).then(|| m.conns[1].is_up())
        });
        assert!(up, "link to the hand-played peer came up");
        mesh.begin_exchange(0, b"payload".to_vec());

        // Read up to our Data frame (an empty receive queue lets the
        // close below end in FIN, not RST), then acknowledge it, say
        // `Bye` and hang up in one go.
        let mut dec = FrameDecoder::new();
        let mut buf = [0u8; 4096];
        let seq = loop {
            match dec.next_frame().expect("well-formed stream") {
                Some(f) if f.kind == FrameKind::Data => break f.seq,
                Some(_) => {}
                None => {
                    let n = peer.read(&mut buf).expect("read");
                    assert!(n > 0, "mesh hung up early");
                    dec.feed(&buf[..n]);
                }
            }
        };
        let mut ack = Frame::control(FrameKind::Ack, 1, 0);
        ack.seq = seq;
        let mut last_words = ack.encode();
        last_words.extend(Frame::control(FrameKind::Bye, 1, 0).encode());
        peer.write_all(&last_words).expect("ack + bye");
        drop(peer);

        mesh.wait_until(|m, waited_ms| (!m.conns[1].is_up() || waited_ms >= 5_000).then_some(()));
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
