//! Supervised serve-worker pool: routing front-end, failure detection,
//! respawn, and failover.
//!
//! A [`Pool`] is a front-end daemon that speaks the exact same wire
//! protocol as a single [`crate::server::Server`], but answers by
//! routing every query to one of `W` serve-worker backends, each a full
//! daemon holding the whole graph. Source-scoped queries are routed by
//! **source-range affinity** — contiguous vertex ranges, the same
//! blocked split `BlockedEdgeCut` partitioning uses — so each worker's
//! per-source forward caches stay hot for its range. Affinity is *not*
//! data partitioning: any worker can answer any query, which is exactly
//! what makes failover a re-route instead of a data migration. The
//! paper's Lemma 8 makes this cheap — a re-driven source batch costs
//! `k + H` rounds, not `k · H`. A `SubsetBc` goes whole to the owner of
//! its smallest source, never split across shards: one daemon folds its
//! sources in ascending order, and per-shard sums added afterwards would
//! round differently, so only a single worker's answer has a single
//! daemon's bits.
//!
//! Supervision reuses the [`mrbc_net::detector`] heartbeat machinery:
//! the supervisor thread probes each worker on the detector's beat
//! schedule; any response is liveness evidence. A worker is declared
//! down on either hard evidence (its TCP connection died or its process
//! exited) or silence (the detector's `Dead` verdict, which catches
//! `SIGSTOP`-style freezes). Down workers are killed for certain,
//! respawned, re-driven through the `Hello` handshake, and brought to
//! the current epoch by replaying the mutation log; in-flight requests
//! they held fail over to a sibling, and requests that exhaust every
//! sibling or the dispatch deadline surface as [`Response::Retry`] —
//! **never a hang**. (DESIGN.md §12 draws the per-worker failover state
//! machine.)
//!
//! A process worker is a [`mrbc_net::child::Child`], the same
//! supervised child the mesh launcher uses: its `SERVE <addr>` line is
//! its readiness, its stdout EOF is its exit event, and its stdin is
//! the lifeline — a worker whose front-end is gone, even by SIGKILL,
//! reads EOF and exits. Signals go through that owned handle, never a
//! raw pid.
//!
//! Chaos clauses from the shared fault DSL are executed here for real,
//! by the router as it dispatches: `kill:worker=R@query=N` SIGKILLs
//! worker `R` with the `N`th query dispatched to it, and
//! `pause:worker=R:ms=D` freezes it with `SIGSTOP` at its first one
//! (process backends only); the supervisor sends the `SIGCONT`, to the
//! same generation only — one torn down meanwhile gets none.
//!
//! Every socket is a [`crate::conn::Conn`]. Client sessions run on the
//! same [`Front`] the single daemon uses; the [`Handler`] here calls
//! [`route`] on the session's reader thread, which blocks (bounded by
//! the dispatch deadline) and so keeps a session's answers in request
//! order. A [`WorkerConn`] is the same connection with a callback that
//! resolves the pending-reply map. Nothing polls: the supervisor blocks
//! on one event channel — a worker link ended, a worker process exited,
//! a mutation was logged, the router froze a worker, shutdown began —
//! until an event arrives or its next deadline (heartbeat, a silent
//! worker's dead verdict, a `SIGCONT`, a respawn retry) falls due, and
//! handles events in arrival order.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use mrbc_core::BcConfig;
use mrbc_faults::{ChurnFault, FaultPlan};
use mrbc_graph::CsrGraph;
use mrbc_net::child::{self, Child, Signal};
use mrbc_net::detector::{DetectorConfig, HeartbeatDetector, PeerStatus};
use mrbc_net::mesh::{now_ms, time_until};
use mrbc_obs as obs;
use mrbc_util::backoff::Backoff;
use mrbc_util::framing;
use mrbc_util::wal::{WalConfig, WalError};

use crate::conn::{Conn, FrameTx, Front, Handler, Reply, ShutdownHandle};
use crate::durable::DurableLog;
use crate::proto::{
    decode_response, encode_request, Across, MutateOp, Request, Response, ServeStats, TraceCtx,
};
use crate::sched::SchedConfig;
use crate::server::{start, ServeConfig, Server};

/// Deadline for a respawned worker to print its readiness line.
const SPAWN_READY_MS: u64 = 30_000;
/// Deadline for the worker-side `Hello` handshake and log replay steps.
const HANDSHAKE_MS: u64 = 30_000;
/// Bring-up retry pacing for a worker whose respawn failed: first
/// delay and cap, ms.
const RESPAWN_RETRY_MS: (u64, u64) = (10, 2_000);

/// How the pool obtains its worker backends.
pub enum WorkerSpawn {
    /// Spawn real child processes. The closure builds the `Command` for
    /// each rank; the child must print `SERVE <addr>` on stdout once it
    /// is listening (the `mrbc-cli serve` readiness contract). Its stdin
    /// is the [`child::LIFELINE`]; its stderr is discarded.
    Process(Box<dyn FnMut(usize) -> Command + Send>),
    /// Run workers as in-process [`Server`]s (one thread-pool each).
    /// Used by integration tests, where spawning subprocesses is not
    /// available; "kill" degrades to an abrupt server shutdown.
    InProcess {
        /// The graph every worker loads.
        graph: CsrGraph,
        /// Driver configuration for worker BC computations (boxed to
        /// keep the enum small next to the `Process` closure).
        bc: Box<BcConfig>,
        /// Worker scheduler knobs.
        sched: SchedConfig,
    },
}

/// Pool configuration.
pub struct PoolConfig {
    /// Front-end bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Number of serve workers (≥ 1).
    pub workers: usize,
    /// Heartbeat/failure-detection timing.
    pub detector: DetectorConfig,
    /// End-to-end deadline for routing one query, including failover
    /// attempts; expiry surfaces as `Retry { after_ms }`.
    pub dispatch_timeout_ms: u64,
    /// The `after_ms` hint carried by emitted `Retry` responses.
    pub retry_after_ms: u32,
    /// Chaos clauses (`kill:worker=`, `pause:worker=`, `torn:wal@rec=`,
    /// `fsyncfail:ms=`) executed by the router and the WAL.
    pub faults: Option<FaultPlan>,
    /// Write-ahead-log directory. When set, every acknowledged mutation
    /// is fsync-covered before its `Mutated` reply leaves the front-end,
    /// and a restarted front-end recovers snapshot + log replay to the
    /// exact pre-crash epoch. `None` = legacy in-memory-only mode.
    pub wal_dir: Option<PathBuf>,
    /// Group-commit flush interval for the WAL, milliseconds; the default
    /// 0 fsyncs inline, as appends serialize under the mutation-log lock.
    pub wal_flush_ms: u64,
    /// Snapshot + compact the WAL once this many mutations have been
    /// appended since the last snapshot.
    pub wal_snapshot_every: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            detector: DetectorConfig::default(),
            dispatch_timeout_ms: 60_000,
            retry_after_ms: 100,
            faults: None,
            wal_dir: None,
            wal_flush_ms: 0,
            wal_snapshot_every: 64,
        }
    }
}

crate::table::stat_table! {
    /// Pool-level counters (distinct from per-worker [`ServeStats`]).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct PoolStats {}

    #[derive(Default)]
    struct PoolCounters {}

    fields {
        /// Client sessions accepted by the front-end.
        sessions,
        /// Queries routed to workers (excludes Hello/Stats/Shutdown).
        routed,
        /// `Retry` responses emitted (deadline or no live worker).
        retries_emitted,
        /// Has no producer and reads 0: a `SubsetBc` is answered whole by
        /// one worker. Kept because the `serve-churn` benchmark reports it.
        partials_emitted,
        /// Requests re-routed to a sibling after a worker died mid-flight.
        failovers,
        /// Workers respawned by the supervisor.
        respawns,
        /// Mutations replayed into respawned workers during recovery.
        replayed_mutations,
        /// `churn:` storm mutations driven so far (acknowledged or refused
        /// by validation — either way the storm step completed).
        churn_driven,
        /// Total storm size from the `churn:` clause (0 = no churn).
        churn_total,
        /// Supervisor wake-ups that found neither an event nor a due
        /// deadline.
        idle_wakes,
    }
}

impl PoolStats {
    /// The front-end's own share of a `Stats` answer: the fields no
    /// worker can know.
    fn as_serve(&self) -> ServeStats {
        ServeStats {
            sessions: self.sessions,
            failover_attempts: self.failovers,
            replay_mutations: self.replayed_mutations,
            ..ServeStats::default()
        }
    }
}

/// What a waiter learns about its dispatched request.
enum WorkerReply {
    /// The worker answered.
    Answer(Response),
    /// The worker's connection died with the request in flight.
    ConnDead,
}

/// One live connection to a worker: the [`Conn`] plus the pending-reply
/// map its reader callback resolves. When the stream dies the reader
/// fails every in-flight request with [`WorkerReply::ConnDead`].
struct WorkerConn {
    conn: Conn,
    pending: Mutex<HashMap<u64, mpsc::Sender<WorkerReply>>>,
    reader: Mutex<Option<JoinHandle<()>>>,
    /// The worker's generation, for [`Event::LinkDown`].
    gen: u64,
    /// Set by [`PoolShared::kill`] before the worker goes down, so
    /// [`call_worker`] fails over from any answer it gets afterwards.
    killed: AtomicBool,
}

impl WorkerConn {
    /// Registers interest in `id`, then queues the sealed request
    /// carrying `ctx` on the connection; `false` (registration rolled
    /// back) if it is closed. A socket-level write failure surfaces
    /// asynchronously: the writer severs the stream, the reader
    /// notices, and the waiter gets [`WorkerReply::ConnDead`].
    fn send(&self, id: u64, ctx: TraceCtx, req: &Request, tx: mpsc::Sender<WorkerReply>) -> bool {
        if let Ok(mut p) = self.pending.lock() {
            p.insert(id, tx);
        }
        let sent = self.conn.send(framing::seal(&encode_request(id, ctx, req)));
        if !sent {
            if let Ok(mut p) = self.pending.lock() {
                p.remove(&id);
            }
        }
        sent
    }

    /// Severs the connection (its reader and writer both wake and exit),
    /// fails every in-flight request so its waiter can fail over
    /// instead of sleeping out its deadline, and tells the supervisor.
    fn drain_dead(&self, shared: &PoolShared) {
        self.conn.close();
        if let Ok(mut p) = self.pending.lock() {
            for (_, tx) in p.drain() {
                drop(tx.send(WorkerReply::ConnDead));
            }
        }
        drop(shared.events.send(Event::LinkDown(self.gen)));
    }
}

/// The worker process/server behind a slot. Dropping one kills it: a
/// [`Child`] is SIGKILLed and reaped, a [`Server`] shut down.
enum Backend {
    /// Not currently running (between death and respawn).
    Down,
    /// A real child process, of this generation.
    Child(u64, Child),
    /// An in-process server (test mode), held for its `Drop`.
    InProc { _server: Box<Server> },
}

/// Per-worker supervision state.
struct WorkerSlot {
    conn: Mutex<Option<Arc<WorkerConn>>>,
    backend: Mutex<Backend>,
    /// Queries the router has sent to this worker (drives the
    /// `kill:worker=` and `pause:worker=` triggers).
    dispatched: AtomicU64,
}

struct PoolShared {
    workers: usize,
    dispatch_timeout_ms: u64,
    retry_after_ms: u32,
    slots: Vec<WorkerSlot>,
    detector: Mutex<HeartbeatDetector>,
    /// The supervisor's event channel.
    events: mpsc::Sender<Event>,
    /// The `kill:worker=` / `pause:worker=` clauses the router fires.
    chaos: FaultPlan,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    /// Highest epoch observed in worker answers (served in `Welcome`).
    epoch: AtomicU64,
    /// `(vertices, edges)` from the first worker handshake.
    graph_info: Mutex<(u64, u64)>,
    /// Every mutation ever accepted, in acceptance order. Guards both
    /// append+broadcast and replay+reattach, so a respawning worker can
    /// never miss or reorder a mutation. Seeded from the WAL on a
    /// durable restart, so respawned workers bootstrap from
    /// snapshot + suffix instead of an empty in-memory history.
    mutation_log: Mutex<Vec<(MutateOp, u32, u32)>>,
    /// The durable write-ahead log (`None` = legacy in-memory mode).
    durable: Option<DurableLog>,
    /// This front-end's fencing generation (0 without a WAL). Sent in
    /// every worker Hello and reported in client Welcomes.
    generation: u64,
    /// Cumulative [`ServeStats`] recovered from the WAL snapshot:
    /// pre-crash counter/histogram totals merged into every
    /// post-restart aggregation so `query stats` survives respawn.
    stats_base: Mutex<ServeStats>,
    /// Mutations appended since the last WAL snapshot compaction.
    wal_snapshot_every: usize,
    counters: PoolCounters,
    /// Down-detected → ready-again durations, ms (chaos harness reads).
    recoveries_ms: Mutex<Vec<u64>>,
}

/// Counts one more in `cell`; returns the new count.
fn bump(cell: &AtomicU64) -> u64 {
    cell.fetch_add(1, Ordering::Relaxed) + 1
}

impl PoolShared {
    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn conn_of(&self, rank: usize) -> Option<Arc<WorkerConn>> {
        let conn = self.slots[rank].conn.lock().ok()?.clone()?;
        conn.conn.is_open().then_some(conn)
    }

    fn first_alive(&self) -> Option<usize> {
        (0..self.workers).find(|&r| self.conn_of(r).is_some())
    }

    /// Kills worker `rank`'s backend for certain and severs its link,
    /// which tells the supervisor before this returns.
    fn kill(&self, rank: usize) {
        // The link is taken first: once the backend dies, the supervisor
        // may publish its successor's at any moment.
        let slot = &self.slots[rank];
        let conn = slot.conn.lock().ok().and_then(|c| c.clone());
        if let Some(conn) = &conn {
            conn.killed.store(true, Ordering::SeqCst);
        }
        if let Ok(mut backend) = slot.backend.lock() {
            *backend = Backend::Down;
        }
        // Sever it here even if its reader thread is already at it, so
        // the report is queued before this returns: a death then always
        // reaches the supervisor ahead of a later shutdown.
        if let Some(conn) = conn {
            conn.drain_dead(self);
        }
    }

    /// Sends `sig` to worker `rank`'s process, under its backend lock,
    /// if it is a process of generation `gen` (of any, when `None`);
    /// returns the generation signalled.
    fn send_signal(&self, rank: usize, gen: Option<u64>, sig: Signal) -> Option<u64> {
        match &mut *self.slots[rank].backend.lock().ok()? {
            Backend::Child(g, child) if gen.is_none_or(|gen| gen == *g) => {
                child.signal(sig).ok().map(|()| *g)
            }
            _ => None,
        }
    }

    /// Fires the chaos clauses due at the `n`th query sent to `rank`: a
    /// `kill:worker=` clause at its `query=N`, a `pause:worker=` clause
    /// at the first, so the freeze lands mid-load. Every `n` comes from
    /// one `fetch_add`, so each clause fires exactly once.
    fn fire_chaos(&self, rank: usize, n: u64) {
        for k in &self.chaos.worker_kills {
            if (k.rank, k.query.max(1)) == (rank, n) {
                self.kill(rank);
            }
        }
        // In-process workers have no process to freeze; the clause is a
        // no-op there (tests use process mode for pause coverage).
        let pauses = self.chaos.worker_pauses.iter();
        for p in pauses.filter(|p| p.rank == rank && n == 1) {
            if let Some(gen) = self.send_signal(rank, None, Signal::Stop) {
                let until = now_ms() + u64::from(p.ms);
                drop(self.events.send(Event::Paused(rank, gen, until)));
            }
        }
    }

    /// The WAL durability barrier: appends the mutation and blocks until
    /// its covering fsync (a no-op without `--wal-dir`). Every
    /// `Response::Mutated` ack the front-end constructs must be preceded
    /// by this call — the `ackdurable` lint enforces the ordering.
    fn append_durable(&self, op: MutateOp, u: u32, v: u32) -> Result<(), WalError> {
        match &self.durable {
            Some(log) => log.append_durable(op, u, v).map(|_seq| ()),
            None => Ok(()),
        }
    }

    fn retry(&self) -> Response {
        let nth = bump(&self.counters.retries_emitted);
        // A Retry means the routing machinery gave up — exactly the
        // moment the flight recorder's recent history is worth keeping.
        obs::flight::note("pool.retry_emitted", nth, u64::from(self.retry_after_ms));
        obs::flight::dump("retry-emitted");
        Response::Retry {
            after_ms: self.retry_after_ms,
        }
    }
}

/// A running pool front-end. Dropping the handle shuts everything down:
/// front-end threads, supervisor, and every worker backend.
pub struct Pool {
    front: Front,
    shared: Arc<PoolShared>,
    supervisor: Option<JoinHandle<()>>,
    churn: Option<JoinHandle<()>>,
}

/// Starts `cfg.workers` serve workers plus the routing front-end.
pub fn start_pool(spawn: WorkerSpawn, cfg: PoolConfig) -> io::Result<Pool> {
    if cfg.workers == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "pool needs at least one worker",
        ));
    }
    let listener = TcpListener::bind(&cfg.addr)?;

    // Open the WAL and recover BEFORE any worker exists: the recovered
    // history seeds the mutation log, so the normal bring-up replay
    // path restores every worker to the exact pre-crash epoch. A
    // corrupt-beyond-snapshot or unsyncable log refuses to start
    // (`InvalidData`, CLI exit code 8) — never a silent fresh start.
    let (durable, recovered) = match &cfg.wal_dir {
        Some(dir) => {
            let wal_cfg = WalConfig {
                flush_interval_ms: cfg.wal_flush_ms,
                torn_at_rec: cfg.faults.as_ref().and_then(|p| p.torn_wal_rec),
                fsyncfail_ms: cfg.faults.as_ref().map_or(0, |p| p.fsyncfail_ms),
                ..WalConfig::default()
            };
            let (log, rec) = DurableLog::open(dir, wal_cfg).map_err(|e| match e {
                WalError::Io(m) => io::Error::other(format!("wal: {m}")),
                other => io::Error::new(io::ErrorKind::InvalidData, format!("{other}")),
            })?;
            obs::flight::note(
                "pool.wal_recovered",
                rec.mutations.len() as u64,
                log.generation(),
            );
            (Some(log), rec)
        }
        None => (None, crate::durable::DurableRecovery::default()),
    };
    let generation = durable.as_ref().map_or(0, DurableLog::generation);

    let (events, inbox) = mpsc::channel();
    let shared = Arc::new(PoolShared {
        workers: cfg.workers,
        dispatch_timeout_ms: cfg.dispatch_timeout_ms,
        retry_after_ms: cfg.retry_after_ms,
        slots: (0..cfg.workers)
            .map(|_| WorkerSlot {
                conn: Mutex::new(None),
                backend: Mutex::new(Backend::Down),
                dispatched: AtomicU64::new(0),
            })
            .collect(),
        detector: Mutex::new(HeartbeatDetector::new(cfg.workers, cfg.detector, now_ms())),
        events,
        chaos: cfg.faults.clone().unwrap_or_default(),
        shutdown: AtomicBool::new(false),
        next_id: AtomicU64::new(1),
        epoch: AtomicU64::new(1),
        graph_info: Mutex::new((0, 0)),
        mutation_log: Mutex::new(recovered.mutations),
        durable,
        generation,
        stats_base: Mutex::new(recovered.stats),
        wal_snapshot_every: cfg.wal_snapshot_every.max(1),
        counters: PoolCounters::default(),
        recoveries_ms: Mutex::new(Vec::new()),
    });

    let mut spawner = spawn;
    let mut gens = Vec::with_capacity(cfg.workers);
    for rank in 0..cfg.workers {
        match bring_up_worker(&shared, &mut spawner, rank) {
            Ok(gen) => gens.push(gen),
            Err(e) => {
                // Each worker already up holds `shared` alive through
                // its link's reader thread: tear them down, or they
                // outlive this error.
                (0..rank).for_each(|r| tear_down_worker(&shared, r));
                return Err(io::Error::new(e.kind(), format!("worker {rank}: {e}")));
            }
        }
    }

    let supervisor = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("pool-supervise".into())
            .spawn(move || supervise_loop(&shared, &inbox, spawner, gens))?
    };
    let front = Front::start(listener, "pool", Vec::new(), Arc::clone(&shared) as _)?;
    // The churn clause runs after the workers are up (graph_info is
    // populated by the handshakes above), so the storm hits a serving
    // pool, not a cold one.
    let churn = match cfg.faults.as_ref().and_then(|p| p.churn) {
        Some(clause) => {
            shared
                .counters
                .churn_total
                .store(clause.edges, Ordering::Relaxed);
            let shared = Arc::clone(&shared);
            Some(
                thread::Builder::new()
                    .name("pool-churn".into())
                    .spawn(move || churn_loop(&shared, clause))?,
            )
        }
        None => None,
    };

    Ok(Pool {
        front,
        shared,
        supervisor: Some(supervisor),
        churn,
    })
}

impl Pool {
    /// The front-end's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Highest graph epoch observed across workers.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::SeqCst)
    }

    /// This front-end's WAL fencing generation (0 without `--wal-dir`).
    pub fn generation(&self) -> u64 {
        self.shared.generation
    }

    /// Pool-level counters snapshot.
    pub fn pool_stats(&self) -> PoolStats {
        self.shared.counters.load()
    }

    /// Down-detected → ready-again durations, in milliseconds, one per
    /// completed worker recovery (the chaos harness's p50/p99 source).
    pub fn recoveries_ms(&self) -> Vec<u64> {
        self.shared
            .recoveries_ms
            .lock()
            .map(|v| v.clone())
            .unwrap_or_default()
    }

    /// Kills worker `rank`'s backend right now (SIGKILL for processes).
    /// The supervisor hears of it and respawns it; use from tests and
    /// the chaos harness to exercise the failover path on demand.
    pub fn kill_worker(&self, rank: usize) {
        if rank < self.shared.workers {
            self.shared.kill(rank);
        }
    }

    /// True once shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown without blocking.
    pub fn trigger_shutdown(&self) {
        self.front.trigger_shutdown();
    }

    /// A handle that requests shutdown from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.front.shutdown_handle()
    }

    /// Blocks until the front-end and supervisor threads exit.
    pub fn wait(&mut self) {
        self.front.wait();
        if let Some(h) = self.churn.take() {
            drop(h.join());
        }
        if let Some(h) = self.supervisor.take() {
            drop(h.join());
        }
    }

    /// Triggers shutdown and joins every thread.
    pub fn shutdown(&mut self) {
        self.trigger_shutdown();
        self.wait();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------
// Worker lifecycle
// ---------------------------------------------------------------------

/// Spawns generation `gen` of worker `rank` and returns its query
/// address. A process backend's exit is reported as [`Event::Exited`].
fn spawn_backend(
    shared: &PoolShared,
    spawner: &mut WorkerSpawn,
    rank: usize,
    gen: u64,
) -> io::Result<(Backend, String)> {
    match spawner {
        WorkerSpawn::Process(build) => {
            let mut cmd = build(rank);
            cmd.stderr(std::process::Stdio::null());
            let events = shared.events.clone();
            let (child, addr) = child::spawn_ready(cmd, "SERVE ", SPAWN_READY_MS, move || {
                drop(events.send(Event::Exited(gen)));
            })?;
            Ok((Backend::Child(gen, child), addr))
        }
        WorkerSpawn::InProcess { graph, bc, sched } => {
            let server = start(
                graph.clone(),
                ServeConfig {
                    addr: "127.0.0.1:0".to_string(),
                    bc: (**bc).clone(),
                    sched: *sched,
                    faults: None,
                },
            )?;
            let addr = server.local_addr().to_string();
            Ok((
                Backend::InProc {
                    _server: Box::new(server),
                },
                addr,
            ))
        }
    }
}

/// Connects to a freshly spawned worker and starts the connection's
/// threads. The reader callback resolves pending replies and feeds the
/// failure detector; when the stream ends it drains the pending map.
fn connect_worker(
    shared: &Arc<PoolShared>,
    rank: usize,
    gen: u64,
    addr: &str,
) -> io::Result<Arc<WorkerConn>> {
    let sockaddr: SocketAddr = addr
        .parse()
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "bad worker address"))?;
    let stream = TcpStream::connect_timeout(&sockaddr, Duration::from_millis(HANDSHAKE_MS))?;
    let (conn, reader) = Conn::open(stream, &format!("pool-worker-{rank}"))?;
    let conn = Arc::new(WorkerConn {
        conn,
        pending: Mutex::new(HashMap::new()),
        reader: Mutex::new(None),
        gen,
        killed: AtomicBool::new(false),
    });
    let handle = {
        let conn = Arc::clone(&conn);
        let shared = Arc::clone(shared);
        thread::Builder::new()
            .name(format!("pool-worker-{rank}-rx"))
            .spawn(move || {
                reader.run(
                    |body, _tx| worker_replied(&shared, &conn, rank, &body),
                    || conn.drain_dead(&shared),
                );
            })?
    };
    if let Ok(mut slot) = conn.reader.lock() {
        *slot = Some(handle);
    }
    Ok(conn)
}

/// One response body from worker `rank`: liveness evidence, an epoch
/// observation, and the answer some waiter is blocked on.
fn worker_replied(
    shared: &PoolShared,
    conn: &WorkerConn,
    rank: usize,
    body: &[u8],
) -> ControlFlow<()> {
    let Ok((id, resp)) = decode_response(body) else {
        return ControlFlow::Break(());
    };
    if let Ok(mut d) = shared.detector.lock() {
        d.heard_from(rank, now_ms());
    }
    if let Response::Mutated { epoch, .. }
    | Response::Welcome { epoch, .. }
    | Response::SubsetBc { epoch, .. } = &resp
    {
        shared.epoch.fetch_max(*epoch, Ordering::SeqCst);
    }
    let waiter = conn.pending.lock().ok().and_then(|mut p| p.remove(&id));
    if let Some(tx) = waiter {
        drop(tx.send(WorkerReply::Answer(resp)));
    }
    // No waiter: a probe, or a request whose waiter gave up. Drop it.
    ControlFlow::Continue(())
}

/// Sends `req` carrying `ctx` on `conn` (`TraceCtx::NONE` for pool
/// housekeeping traffic) and waits up to `timeout_ms` for its answer.
fn call_conn(
    shared: &PoolShared,
    conn: &Arc<WorkerConn>,
    ctx: TraceCtx,
    req: &Request,
    timeout_ms: u64,
) -> Option<Response> {
    let (tx, rx) = mpsc::channel();
    let id = shared.fresh_id();
    if !conn.send(id, ctx, req, tx) {
        return None;
    }
    match rx.recv_timeout(Duration::from_millis(timeout_ms)) {
        Ok(WorkerReply::Answer(resp)) => Some(resp),
        _ => None,
    }
}

/// Spawn + connect + handshake + mutation-log replay for one rank, then
/// publish the connection and return its generation. Holds the
/// mutation-log lock across replay and publish so broadcasts serialize
/// against recovery (a respawning worker can neither miss nor
/// double-order a mutation).
fn bring_up_worker(
    shared: &Arc<PoolShared>,
    spawner: &mut WorkerSpawn,
    rank: usize,
) -> io::Result<u64> {
    // Any failure past the spawn drops the backend, which kills it: a
    // half-born worker never leaks, however often the supervisor retries.
    let gen = shared.fresh_id();
    let (backend, addr) = spawn_backend(shared, spawner, rank, gen)?;
    let conn = connect_worker(shared, rank, gen, &addr)?;

    // The Hello round trip doubles as an NTP-style clock probe: t0/t2
    // bracket the worker's own monotonic reading t1 (`Welcome.now_us`),
    // giving the trace merger this worker's clock offset.
    let t0 = obs::now_us();
    // The Hello carries this front-end's WAL generation: a worker that
    // has already greeted a newer front-end refuses it (split-brain
    // fencing after a restart race).
    let hello = Request::Hello {
        generation: shared.generation,
    };
    let welcome = call_conn(shared, &conn, TraceCtx::NONE, &hello, HANDSHAKE_MS);
    let t2 = obs::now_us();
    let Some(Response::Welcome {
        vertices,
        edges,
        now_us,
        pid,
        ..
    }) = welcome
    else {
        conn.drain_dead(shared);
        return Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "worker handshake failed",
        ));
    };
    obs::clock_probe(pid, t0, now_us, t2);
    obs::flight::note("pool.worker_up", rank as u64, pid);
    if let Ok(mut info) = shared.graph_info.lock() {
        *info = (vertices, edges);
    }

    {
        let log = shared
            .mutation_log
            .lock()
            .map_err(|_| io::Error::other("mutation log poisoned"))?;
        for &(op, u, v) in log.iter() {
            let replay = Request::Mutate { op, u, v };
            let replayed = call_conn(shared, &conn, TraceCtx::NONE, &replay, HANDSHAKE_MS);
            let Some(Response::Mutated { epoch, .. }) = replayed else {
                conn.drain_dead(shared);
                return Err(io::Error::other("mutation replay failed during recovery"));
            };
            // Replay is how a restarted front-end rediscovers the
            // pre-crash epoch: every worker converges to it, and Welcome
            // must advertise it before the first live query.
            shared.epoch.fetch_max(epoch, Ordering::SeqCst);
            bump(&shared.counters.replayed_mutations);
        }
        let slot = &shared.slots[rank];
        if let Ok(mut b) = slot.backend.lock() {
            *b = backend;
        }
        if let Ok(mut c) = slot.conn.lock() {
            *c = Some(conn);
        }
    }
    if let Ok(mut d) = shared.detector.lock() {
        d.reset_peer(rank, now_ms());
    }
    Ok(gen)
}

/// Tears down whatever remains of worker `rank`.
fn tear_down_worker(shared: &Arc<PoolShared>, rank: usize) {
    let slot = &shared.slots[rank];
    let conn = slot.conn.lock().ok().and_then(|mut c| c.take());
    if let Some(conn) = conn {
        conn.drain_dead(shared);
        let reader = conn.reader.lock().ok().and_then(|mut r| r.take());
        if let Some(h) = reader {
            drop(h.join());
        }
    }
    if let Ok(mut backend) = slot.backend.lock() {
        *backend = Backend::Down;
    }
}

// ---------------------------------------------------------------------
// Supervision
// ---------------------------------------------------------------------

/// What wakes the supervisor. Worker events carry the generation of
/// the worker they concern — unique across the pool's life — so one
/// about a worker already torn down is recognisably stale.
enum Event {
    /// The link to worker generation `gen` ended.
    LinkDown(u64),
    /// Worker generation `gen`'s process exited (its stdout hit EOF).
    Exited(u64),
    /// The mutation log has reached this length.
    Logged(usize),
    /// The router froze worker `rank`, generation `gen`; its `SIGCONT`
    /// is due at this time.
    Paused(usize, u64, u64),
    /// Shutdown began.
    Shutdown,
}

/// The supervisor's view of one rank.
struct Watch {
    /// The generation being watched; `None` while the rank is down.
    gen: Option<u64>,
    /// When the rank went down, and when its next bring-up is due.
    down_at: u64,
    retry_at: u64,
    /// Paces bring-up retries after a failed respawn.
    backoff: Backoff,
}

/// The supervisor: blocks on the event channel until an event arrives
/// or the next deadline falls due, and handles events in arrival order,
/// so a worker death reported before shutdown is handled before it.
fn supervise_loop(
    shared: &Arc<PoolShared>,
    events: &mpsc::Receiver<Event>,
    mut spawner: WorkerSpawn,
    gens: Vec<u64>,
) {
    let mut watch: Vec<Watch> = (gens.into_iter().zip(0u64..))
        .map(|(gen, rank)| Watch {
            gen: Some(gen),
            down_at: 0,
            retry_at: 0,
            backoff: Backoff::new(RESPAWN_RETRY_MS.0, RESPAWN_RETRY_MS.1, 64, rank),
        })
        .collect();
    // Frozen workers (rank, generation) and when each is due its `SIGCONT`.
    let mut paused: Vec<(usize, u64, u64)> = Vec::new();
    // Mutations already covered by the recovered snapshot + log need no
    // immediate re-snapshot; start counting from the recovered history.
    let mut last_snap = shared.mutation_log.lock().map(|l| l.len()).unwrap_or(0);
    let every = shared.wal_snapshot_every;

    loop {
        let due = run_due(shared, &mut spawner, &mut watch, &mut paused);
        match events.recv_timeout(time_until(due)) {
            Ok(Event::LinkDown(gen) | Event::Exited(gen)) => {
                if let Some(rank) = watch.iter().position(|w| w.gen == Some(gen)) {
                    mark_down(shared, &mut watch[rank], rank, false);
                }
            }
            Ok(Event::Logged(n)) => maybe_snapshot(shared, &mut last_snap, n, every),
            Ok(Event::Paused(rank, gen, at)) => paused.push((rank, gen, at)),
            Ok(Event::Shutdown) => break,
            Err(_) if now_ms() < due => {
                bump(&shared.counters.idle_wakes);
            }
            Err(_) => {}
        }
    }

    // Final snapshot before tearing the workers down (their stats are
    // still reachable here), so a clean shutdown restarts from a compact
    // log and `query stats` counters carry across the restart.
    let logged = shared.mutation_log.lock().map(|l| l.len()).unwrap_or(0);
    maybe_snapshot(shared, &mut last_snap, logged, 1);

    // Shutdown: stop every worker. Best-effort protocol goodbye first so
    // process workers exit cleanly, then the hard kill. A process worker
    // that acknowledged the goodbye gets a grace window, ended by its
    // exit event, to flush its `--trace` / `--flight-dir` exports before
    // tear-down kills it.
    for (rank, w) in watch.iter().enumerate() {
        let said_bye = shared.conn_of(rank).is_some_and(|conn| {
            call_conn(shared, &conn, TraceCtx::NONE, &Request::Shutdown, 500).is_some()
        });
        let backend = shared.slots[rank].backend.lock();
        let is_process = matches!(backend.as_deref(), Ok(Backend::Child(..)));
        drop(backend);
        if said_bye && is_process {
            let grace_end = now_ms() + 2_000;
            while let Ok(event) = events.recv_timeout(time_until(grace_end)) {
                if matches!(event, Event::Exited(gen) if w.gen == Some(gen)) {
                    break;
                }
            }
        }
        tear_down_worker(shared, rank);
    }
}

/// Does what is due now — heartbeat probes, `SIGCONT`s, dead verdicts,
/// bring-ups of down ranks — and returns when the next of these falls
/// due.
fn run_due(
    shared: &Arc<PoolShared>,
    spawner: &mut WorkerSpawn,
    watch: &mut [Watch],
    paused: &mut Vec<(usize, u64, u64)>,
) -> u64 {
    let now = now_ms();
    // Heartbeat probes on the detector's beat schedule: a Stats
    // request per worker whose answer (any answer) is liveness
    // evidence. The reply is discarded — the rx side is dropped —
    // so probes cost one pending-map entry, no waiting.
    if shared.detector.lock().is_ok_and(|mut d| d.beat_due(now)) {
        for rank in 0..shared.workers {
            if let Some(conn) = shared.conn_of(rank) {
                let (tx, _rx) = mpsc::channel();
                conn.send(shared.fresh_id(), TraceCtx::NONE, &Request::Stats, tx);
            }
        }
    }
    // A worker torn down while frozen is not signalled: the generation
    // fence drops its `SIGCONT`.
    for (rank, gen, _) in paused.extract_if(.., |&mut (_, _, at)| at <= now) {
        shared.send_signal(rank, Some(gen), Signal::Cont);
    }
    for (rank, w) in watch.iter_mut().enumerate() {
        // Silence (the detector's verdict) catches a frozen worker
        // whose socket stays open; hard evidence arrives as events.
        let verdict = shared.detector.lock().map(|mut d| d.status(rank, now));
        if w.gen.is_some() && matches!(verdict, Ok(PeerStatus::Dead)) {
            mark_down(shared, w, rank, true);
        }
        if w.gen.is_none() && w.retry_at <= now {
            match bring_up_worker(shared, spawner, rank) {
                Ok(gen) => {
                    w.gen = Some(gen);
                    bump(&shared.counters.respawns);
                    if let Ok(mut rec) = shared.recoveries_ms.lock() {
                        rec.push(now_ms().saturating_sub(w.down_at));
                    }
                }
                // Spawn failed (resource exhaustion?): the slot stays
                // down and queries fail over to siblings until a retry
                // succeeds.
                Err(_) => w.retry_at = now_ms() + w.backoff.next_delay(),
            }
        }
    }
    let mut due = paused.iter().map(|p| p.2).min().unwrap_or(u64::MAX);
    if let Ok(d) = shared.detector.lock() {
        due = due.min(d.next_beat_ms());
        for (rank, w) in watch.iter().enumerate() {
            let at = w.gen.map_or(Some(w.retry_at), |_| d.dead_at_ms(rank));
            due = due.min(at.unwrap_or(u64::MAX));
        }
    }
    due
}

/// Records worker `rank` as down, with its bring-up due at once, and
/// tears down what remains of it. A worker going down is a
/// flight-recorder moment: keep the event ring leading up to it.
fn mark_down(shared: &Arc<PoolShared>, w: &mut Watch, rank: usize, silent: bool) {
    obs::flight::note("pool.worker_dead", rank as u64, u64::from(silent));
    obs::flight::dump("worker-dead");
    (w.gen, w.down_at, w.retry_at) = (None, now_ms(), 0);
    w.backoff.reset();
    tear_down_worker(shared, rank);
}

/// Writes an epoch snapshot once the log, `logged` entries long, holds
/// `every` new mutations since the last one (the shutdown path passes
/// `every = 1` to flush any tail). Stats are aggregated *before* taking
/// the mutation-log lock — worker stats calls can block for seconds and
/// must not stall the mutation path — but the snapshot itself is
/// written while holding the lock, so a concurrent append can never
/// land inside the covered range without being in the payload. Lock order (mutation_log → wal state)
/// matches `broadcast_mutate` → `append_durable`, so no deadlock.
fn maybe_snapshot(shared: &Arc<PoolShared>, last_snap: &mut usize, logged: usize, every: usize) {
    let Some(durable) = &shared.durable else {
        return;
    };
    if logged < last_snap.saturating_add(every) {
        return;
    }
    let stats = match aggregate_stats(shared) {
        Response::Stats(s) => s,
        _ => return, // no worker answered; the next mutation retries
    };
    let Ok(log) = shared.mutation_log.lock() else {
        return;
    };
    if log.len() < last_snap.saturating_add(every) {
        return;
    }
    match durable.snapshot(&log, &stats) {
        Ok(seq) => {
            *last_snap = log.len();
            obs::flight::note("pool.wal_snapshot", log.len() as u64, seq);
        }
        Err(_) => {
            // Non-fatal: appends still carry the durability contract on
            // the un-compacted log; the next mutation retries.
            obs::flight::note("pool.wal_snapshot_failed", log.len() as u64, 0);
        }
    }
}

/// The `i`-th mutation of a `churn:edges=K@seed=S` storm over an
/// `n`-vertex graph. Pure function of `(i, seed, n)`: two pools running
/// the same clause over the same graph derive the identical sequence —
/// the parity contract the mutate-heavy smoke asserts. Ops alternate
/// add/remove so the epoch keeps advancing; a self-loop draw is nudged
/// to the next vertex because the store rejects self-loops as no-ops.
fn churn_mutation(i: u64, seed: u64, n: u64) -> (MutateOp, u32, u32) {
    let bits = mrbc_util::splitmix64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let u = (bits % n) as u32;
    let mut v = ((bits >> 32) % n) as u32;
    if u == v {
        v = (v + 1) % n as u32;
    }
    let op = if i.is_multiple_of(2) {
        MutateOp::AddEdge
    } else {
        MutateOp::RemoveEdge
    };
    (op, u, v)
}

/// Drives the `churn:` clause: a seeded storm of edge mutations pushed
/// through the same broadcast + durability path client mutations take
/// (WAL append, fsync barrier, replay into respawned workers). A step
/// that cannot currently be accepted (`Retry` — e.g. every worker down
/// mid-respawn) is retried rather than skipped, so the applied sequence
/// never diverges between runs; a `WalFault` means the durability
/// contract itself is broken and aborts the storm, matching what a real
/// client would observe.
fn churn_loop(shared: &Arc<PoolShared>, clause: ChurnFault) {
    let n = shared.graph_info.lock().map(|g| g.0).unwrap_or(0);
    if n < 2 {
        return; // no non-self-loop edge exists to mutate
    }
    for i in 0..clause.edges {
        let (op, u, v) = churn_mutation(i, clause.seed, n);
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            match broadcast_mutate(shared, TraceCtx::NONE, op, u, v) {
                Response::Mutated { .. } | Response::Error { .. } => break,
                Response::WalFault { .. } => return,
                _ => thread::sleep(Duration::from_millis(5)),
            }
        }
        bump(&shared.counters.churn_driven);
        // A breath between steps keeps the storm sustained (overlapping
        // queries, kills, snapshots) instead of one opening burst.
        thread::sleep(Duration::from_millis(1));
    }
}

// ---------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------

/// Source-range shard affinity: contiguous vertex ranges, the same
/// blocked split the `BlockedEdgeCut` partitioning policy uses.
fn shard_of(s: u32, vertices: u64, workers: usize) -> usize {
    if vertices == 0 {
        return 0;
    }
    let rank = (u64::from(s)).saturating_mul(workers as u64) / vertices;
    (rank as usize).min(workers - 1)
}

/// Routes one query to `start_rank`, failing over to the next sibling
/// when a worker dies with the request in flight. Each worker is tried
/// at most once and the absolute deadline bounds the whole affair;
/// `None` means "not answered" and the caller emits `Retry`.
fn call_worker(
    shared: &PoolShared,
    start_rank: usize,
    ctx: TraceCtx,
    req: &Request,
    deadline_ms: u64,
) -> Option<Response> {
    let w = shared.workers;
    let (tx, rx) = mpsc::channel();
    for rank in (0..w).map(|i| (start_rank + i) % w) {
        let Some(conn) = shared.conn_of(rank) else {
            continue;
        };
        if !conn.send(shared.fresh_id(), ctx, req, tx.clone()) {
            continue;
        }
        shared.fire_chaos(rank, bump(&shared.slots[rank].dispatched));
        let remaining = deadline_ms.saturating_sub(now_ms());
        match rx.recv_timeout(Duration::from_millis(remaining)) {
            // A killed worker's answer is not used: it may have answered
            // just before the kill, or its closing in-process scheduler
            // may have refused the request `Busy`.
            Ok(WorkerReply::Answer(resp)) if !conn.killed.load(Ordering::SeqCst) => {
                return Some(resp)
            }
            Ok(_) => {
                bump(&shared.counters.failovers);
                obs::flight::note("pool.failover", rank as u64, ctx.trace);
            }
            Err(_) => return None, // deadline spent
        }
    }
    // Out of live siblings: the client gets a Retry and the supervisor
    // keeps respawning.
    None
}

/// Aggregated pool stats: the front-end's own counters, every worker's
/// snapshot and the persisted pre-restart base (so `query stats` is
/// cumulative across front-end generations), folded field by field as
/// [`ServeStats`] declares.
fn aggregate_stats(shared: &PoolShared) -> Response {
    let mut total = shared.counters.load().as_serve();
    let mut answered = false;
    for rank in 0..shared.workers {
        let Some(conn) = shared.conn_of(rank) else {
            continue;
        };
        if let Some(Response::Stats(s)) =
            call_conn(shared, &conn, TraceCtx::NONE, &Request::Stats, 2_000)
        {
            total.fold(&s, Across::Workers);
            answered = true;
        }
    }
    if !answered {
        return shared.retry();
    }
    if let Ok(base) = shared.stats_base.lock() {
        total.fold(&base, Across::Restarts);
    }
    Response::Stats(total)
}

/// Broadcasts a mutation carrying `ctx` to every live worker in rank
/// order, holding the mutation-log lock so recovery replay serializes
/// against it.
fn broadcast_mutate(shared: &PoolShared, ctx: TraceCtx, op: MutateOp, u: u32, v: u32) -> Response {
    let Ok(mut log) = shared.mutation_log.lock() else {
        return shared.retry();
    };
    log.push((op, u, v));
    let mut reply: Option<(u64, bool)> = None;
    for rank in 0..shared.workers {
        let Some(conn) = shared.conn_of(rank) else {
            continue;
        };
        let resp = call_conn(
            shared,
            &conn,
            ctx,
            &Request::Mutate { op, u, v },
            shared.dispatch_timeout_ms,
        );
        match resp {
            Some(Response::Mutated { epoch, applied }) => {
                shared.epoch.fetch_max(epoch, Ordering::SeqCst);
                if reply.is_none() {
                    reply = Some((epoch, applied));
                }
            }
            Some(Response::Error { message }) if reply.is_none() => {
                // Validation failure (vertex out of range): identical on
                // every worker, so the first verdict is THE verdict; the
                // entry must not stay in the log either.
                log.pop();
                return Response::Error { message };
            }
            _ => {
                // Dead or slow worker: it will be respawned and replay
                // the log, converging to the same epoch.
            }
        }
    }
    match reply {
        Some((epoch, applied)) => {
            // Durability barrier: the mutation must be fsync-covered in
            // the WAL *before* the acknowledgement exists, or a crash
            // between ack and append would lose an acknowledged write.
            if let Err(e) = shared.append_durable(op, u, v) {
                // The log can no longer honour the contract (fsync
                // failure or injected torn write); refuse the ack. The
                // workers did apply the mutation, but the client was
                // never told it stuck — exactly the at-most-once story
                // a retry against a recovered front-end preserves.
                return Response::WalFault {
                    message: e.to_string(),
                };
            }
            drop(shared.events.send(Event::Logged(log.len())));
            Response::Mutated { epoch, applied }
        }
        None => {
            // Nobody took the mutation; withdraw it so a later retry is
            // not applied twice.
            log.pop();
            shared.retry()
        }
    }
}

/// Routes one decoded request; always returns, never hangs. `ctx` is
/// the trace context the client sent; routed queries get a
/// `pool.route` span in that trace, and workers receive a child
/// context whose parent is the routing span.
fn route(shared: &PoolShared, ctx: TraceCtx, req: &Request) -> Response {
    match req {
        Request::Hello { .. } => {
            let (vertices, edges) = shared.graph_info.lock().map(|g| *g).unwrap_or((0, 0));
            Response::Welcome {
                epoch: shared.epoch.load(Ordering::SeqCst),
                vertices,
                edges,
                now_us: obs::now_us(),
                pid: u64::from(std::process::id()),
                generation: shared.generation,
            }
        }
        Request::Stats => aggregate_stats(shared),
        // Answered by the front-end; never routed.
        Request::Shutdown => Response::Bye,
        req => {
            bump(&shared.counters.routed);
            let span_id = obs::fresh_id();
            let _span = obs::span("pool.route", "pool")
                .arg("trace", ctx.trace)
                .arg("span", span_id)
                .arg("parent", ctx.parent);
            let down = ctx.child(span_id);
            let shard = |s: u32| {
                let vertices = shared.graph_info.lock().map(|g| g.0).unwrap_or(0);
                shard_of(s, vertices, shared.workers)
            };
            let rank = match req {
                Request::Mutate { op, u, v } => return broadcast_mutate(shared, down, *op, *u, *v),
                // Source-scoped queries go to the owner of their smallest
                // source (an empty subset to vertex 0's), which answers
                // the whole query: one daemon's fold, so one daemon's bits.
                Request::PathInfo { s, .. } => shard(*s),
                Request::SubsetBc { sources, .. } => {
                    shard(sources.iter().min().copied().unwrap_or(0))
                }
                _ => shared.first_alive().unwrap_or(0),
            };
            let deadline = now_ms() + shared.dispatch_timeout_ms;
            call_worker(shared, rank, down, req, deadline).unwrap_or_else(|| shared.retry())
        }
    }
}

// ---------------------------------------------------------------------
// Front-end sessions
// ---------------------------------------------------------------------

impl Handler for PoolShared {
    fn session_opened(&self) -> u64 {
        bump(&self.counters.sessions)
    }

    fn handle(&self, _session: u64, _id: u64, ctx: TraceCtx, req: Request, _tx: &FrameTx) -> Reply {
        Reply::Now(route(self, ctx, &req))
    }

    fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        drop(self.events.send(Event::Shutdown));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientConfig, RetryClient, ServeClient};
    use mrbc_graph::GraphBuilder;

    fn test_graph() -> CsrGraph {
        // A 12-vertex graph with enough structure that BC is nonzero.
        let mut b = GraphBuilder::new(12);
        for v in 0..11u32 {
            b = b.edge(v, v + 1).edge(v + 1, v);
        }
        b.edge(0, 6).edge(6, 0).edge(3, 9).edge(9, 3).build()
    }

    fn test_pool(workers: usize) -> Pool {
        pool_over(test_graph(), workers, None)
    }

    fn pool_over(graph: CsrGraph, workers: usize, faults: Option<FaultPlan>) -> Pool {
        let spawn = WorkerSpawn::InProcess {
            graph,
            bc: Box::default(),
            sched: SchedConfig::default(),
        };
        let cfg = PoolConfig {
            workers,
            dispatch_timeout_ms: 20_000,
            detector: DetectorConfig {
                heartbeat_every_ms: 20,
                suspect_after_ms: 200,
                dead_after_ms: 800,
            },
            faults,
            ..PoolConfig::default()
        };
        start_pool(spawn, cfg).expect("pool starts")
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn quick_client(addr: SocketAddr) -> ServeClient {
        ServeClient::connect_with(
            addr,
            &ClientConfig {
                read_timeout: Duration::from_secs(30),
                ..ClientConfig::default()
            },
        )
        .expect("connect")
    }

    #[test]
    fn pool_answers_like_a_single_daemon() {
        let pool = test_pool(2);
        let mut single = {
            let server = start(test_graph(), ServeConfig::default()).expect("daemon");
            ServeClient::connect(server.local_addr()).map(|c| (server, c))
        }
        .expect("single connect");

        let mut c = quick_client(pool.local_addr());
        assert_eq!(c.welcome().vertices, 12);

        // Full-BC answers must be bit-identical to the single daemon's.
        for v in [0u32, 3, 6, 11] {
            let (_, pooled) = c.bc_score(0, v).expect("pool bc");
            let (_, alone) = single.1.bc_score(0, v).expect("single bc");
            assert_eq!(pooled.to_bits(), alone.to_bits(), "bc({v}) diverged");
        }
        let (_, pk) = c.top_k(0, 5).expect("pool topk");
        let (_, sk) = single.1.top_k(0, 5).expect("single topk");
        assert_eq!(pk, sk);

        // Path queries route by shard affinity; answers are exact.
        let (_, d, sigma) = c.path_info(0, 0, 11).expect("path");
        let (_, d2, s2) = single.1.path_info(0, 0, 11).expect("single path");
        assert_eq!((d, sigma.to_bits()), (d2, s2.to_bits()));

        // A source set spanning both shards answers with the daemon's bits.
        let sources = [0u32, 1, 5, 10, 11];
        let (_, pooled) = c.subset_bc(0, &sources).expect("subset");
        let (_, alone) = single.1.subset_bc(0, &sources).expect("single subset");
        assert_eq!(bits(&pooled), bits(&alone), "subset diverged");
    }

    /// Every pooled `SubsetBc` carries one daemon's bits, whatever the
    /// worker count and however many shards its sources span.
    #[test]
    fn pooled_subset_bc_is_bit_equal_to_one_daemon() {
        use mrbc_graph::generators::{grid_road_network, rmat, RmatConfig, RoadNetworkConfig};
        let rmat7 = rmat(RmatConfig::new(7, 8), 1);
        let road = grid_road_network(RoadNetworkConfig::new(12, 24), 1);
        let all = |g: &CsrGraph| (0..g.num_vertices() as u32).collect::<Vec<_>>();
        let cases = [
            (&rmat7, 2, all(&rmat7)),
            (&rmat7, 4, all(&rmat7)),
            (&rmat7, 2, (0..128).step_by(7).collect()),
            (&road, 3, all(&road)),
        ];
        for (graph, workers, sources) in cases {
            let pool = pool_over(graph.clone(), workers, None);
            let daemon = start(graph.clone(), ServeConfig::default()).expect("daemon");
            let (_, pooled) = quick_client(pool.local_addr())
                .subset_bc(0, &sources)
                .expect("pooled subset");
            let (_, alone) = quick_client(daemon.local_addr())
                .subset_bc(0, &sources)
                .expect("single subset");
            assert_eq!(pooled.len(), alone.len());
            let differ = pooled
                .iter()
                .zip(&alone)
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count();
            assert_eq!(
                differ,
                0,
                "{workers} workers, {} of {} sources: vertices whose bits differ",
                sources.len(),
                graph.num_vertices()
            );
        }
    }

    /// A `SubsetBc` whose worker dies with it in flight is answered by
    /// the sibling, with the same bits.
    #[test]
    fn a_subset_bc_fails_over_bit_equal_when_its_worker_dies() {
        let kill = "kill:worker=0@query=1".parse().expect("chaos clause");
        let pool = pool_over(test_graph(), 2, Some(kill));
        let daemon = start(test_graph(), ServeConfig::default()).expect("daemon");
        // Smallest source 1 routes to worker 0, which dies on receipt.
        let sources = [1u32, 5, 9];
        let (_, pooled) = quick_client(pool.local_addr())
            .subset_bc(0, &sources)
            .expect("answered by the sibling");
        let (_, alone) = quick_client(daemon.local_addr())
            .subset_bc(0, &sources)
            .expect("single subset");
        assert_eq!(bits(&pooled), bits(&alone));
        assert_eq!(pool.pool_stats().failovers, 1);
    }

    #[test]
    fn mutations_broadcast_and_welcome_tracks_epoch() {
        let pool = test_pool(2);
        let mut c = quick_client(pool.local_addr());
        let (e1, applied) = c.mutate(MutateOp::AddEdge, 0, 5).expect("mutate");
        assert!(applied);
        assert_eq!(e1, 2, "epoch bumps from 1 to 2 on every worker");
        // A fresh session sees the new epoch in its Welcome.
        let c2 = quick_client(pool.local_addr());
        assert_eq!(c2.welcome().epoch, 2);
        // Both shards answer post-mutation queries at the same epoch.
        let mut c3 = quick_client(pool.local_addr());
        let (e_a, _, _) = c3.path_info(0, 1, 3).expect("shard 0");
        let (e_b, _, _) = c3.path_info(0, 11, 3).expect("shard 1");
        assert_eq!(e_a, 2, "shard 0 worker applied the mutation");
        assert_eq!(e_b, 2, "shard 1 worker applied the mutation");
        assert_eq!(pool.epoch(), 2);
    }

    #[test]
    fn killed_worker_respawns_and_queries_keep_completing() {
        let pool = test_pool(2);
        let mut c = quick_client(pool.local_addr());
        let (_, before) = c.bc_score(0, 6).expect("bc before kill");

        pool.kill_worker(0);
        // Queries keep completing throughout the respawn window; the
        // RetryClient absorbs any Retry the router emits meanwhile.
        let mut rc = RetryClient::new(
            vec![pool.local_addr().to_string()],
            ClientConfig {
                max_retries: 50,
                backoff_base_ms: 10,
                backoff_max_ms: 100,
                ..ClientConfig::default()
            },
        );
        for _ in 0..10 {
            match rc.call(&Request::BcScore { epoch: 0, v: 6 }).expect("call") {
                Response::BcValue { score, .. } => {
                    assert_eq!(
                        score.to_bits(),
                        before.to_bits(),
                        "bit-exact across failover"
                    );
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        // The supervisor eventually records the respawn.
        let deadline = now_ms() + 30_000;
        while pool.pool_stats().respawns == 0 && now_ms() < deadline {
            thread::sleep(Duration::from_millis(20));
        }
        assert!(pool.pool_stats().respawns >= 1, "worker was respawned");
        assert_eq!(
            pool.recoveries_ms().len() as u64,
            pool.pool_stats().respawns
        );
    }

    #[test]
    fn respawned_worker_replays_mutations() {
        let pool = test_pool(2);
        let mut c = quick_client(pool.local_addr());
        let (e, _) = c.mutate(MutateOp::AddEdge, 2, 7).expect("mutate");
        assert_eq!(e, 2);

        pool.kill_worker(1);
        let deadline = now_ms() + 30_000;
        while pool.pool_stats().respawns == 0 && now_ms() < deadline {
            thread::sleep(Duration::from_millis(20));
        }
        // Shard-1 queries (handled by the respawned worker) answer at
        // the replayed epoch, not a stale one.
        let mut rc = RetryClient::new(
            vec![pool.local_addr().to_string()],
            ClientConfig {
                max_retries: 50,
                backoff_base_ms: 10,
                backoff_max_ms: 100,
                ..ClientConfig::default()
            },
        );
        match rc
            .call(&Request::PathInfo {
                epoch: 0,
                s: 11,
                t: 0,
            })
            .expect("path after respawn")
        {
            Response::PathInfo { epoch, .. } => assert_eq!(epoch, 2, "mutation was replayed"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shard_affinity_is_contiguous_and_total() {
        assert_eq!(shard_of(0, 12, 3), 0);
        assert_eq!(shard_of(3, 12, 3), 0);
        assert_eq!(shard_of(4, 12, 3), 1);
        assert_eq!(shard_of(11, 12, 3), 2);
        // Every vertex maps to a valid rank, ranges are monotone.
        let mut prev = 0usize;
        for s in 0..100u32 {
            let r = shard_of(s, 100, 7);
            assert!(r < 7);
            assert!(r >= prev);
            prev = r;
        }
        // Degenerate inputs stay in range.
        assert_eq!(shard_of(5, 0, 3), 0);
        assert_eq!(shard_of(500, 100, 7), 6);
    }

    #[test]
    fn shutdown_via_protocol_stops_the_pool() {
        let mut pool = test_pool(1);
        let mut c = quick_client(pool.local_addr());
        c.shutdown().expect("bye");
        pool.wait();
        assert!(pool.is_shutting_down());
    }

    /// Runs a pool with the given churn clause to storm completion and
    /// returns its final (epoch, full-BC probe bits) for parity checks.
    fn churn_run(workers: usize, clause: &str) -> (u64, Vec<u64>) {
        let spawn = WorkerSpawn::InProcess {
            graph: test_graph(),
            bc: Box::default(),
            sched: SchedConfig::default(),
        };
        let cfg = PoolConfig {
            workers,
            dispatch_timeout_ms: 20_000,
            faults: Some(clause.parse().expect("churn clause")),
            ..PoolConfig::default()
        };
        let mut pool = start_pool(spawn, cfg).expect("pool starts");
        let deadline = now_ms() + 30_000;
        loop {
            let s = pool.pool_stats();
            if s.churn_total > 0 && s.churn_driven == s.churn_total {
                break;
            }
            assert!(now_ms() < deadline, "churn storm never completed: {s:?}");
            thread::sleep(Duration::from_millis(10));
        }
        let mut c = quick_client(pool.local_addr());
        let epoch = pool.epoch();
        let bits: Vec<u64> = (0..12)
            .map(|v| c.bc_score(0, v).expect("bc after storm").1.to_bits())
            .collect();
        pool.shutdown();
        (epoch, bits)
    }

    #[test]
    fn churn_storms_are_deterministic_across_pools() {
        // Same clause, different worker counts: identical mutation
        // sequence, hence identical final epoch and BC bits.
        let (e1, b1) = churn_run(1, "churn:edges=10@seed=7");
        let (e2, b2) = churn_run(2, "churn:edges=10@seed=7");
        assert!(e1 > 1, "storm must advance the epoch");
        assert_eq!(e1, e2);
        assert_eq!(b1, b2);
        // A different seed drives a different storm.
        let (_, b3) = churn_run(1, "churn:edges=10@seed=8");
        assert_ne!(b1, b3);
    }

    #[test]
    fn an_idle_supervisor_sleeps_until_an_event() {
        let spawn = WorkerSpawn::InProcess {
            graph: test_graph(),
            bc: Box::default(),
            sched: SchedConfig::default(),
        };
        let cfg = PoolConfig {
            detector: DetectorConfig {
                heartbeat_every_ms: 30_000,
                suspect_after_ms: 60_000,
                dead_after_ms: 120_000,
            },
            ..PoolConfig::default()
        };
        let pool = start_pool(spawn, cfg).expect("pool starts");
        thread::sleep(Duration::from_millis(300));
        assert_eq!(pool.pool_stats().idle_wakes, 0, "woke with nothing to do");
        // No deadline is near, so only the death itself can wake it.
        pool.kill_worker(1);
        let deadline = now_ms() + 10_000;
        while pool.pool_stats().respawns == 0 && now_ms() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            pool.pool_stats().respawns,
            1,
            "the death woke the supervisor"
        );
        assert_eq!(pool.pool_stats().idle_wakes, 0);
    }

    #[test]
    fn a_death_reported_before_shutdown_is_handled_first() {
        let mut pool = test_pool(2);
        pool.kill_worker(0);
        pool.shutdown();
        assert_eq!(pool.pool_stats().respawns, 1, "the death was handled");
        assert_eq!(pool.recoveries_ms().len(), 1);
    }

    #[test]
    fn a_failed_respawn_is_retried() {
        // Each "worker process" is a shell that announces a test-owned
        // daemon and sleeps; the second spawn names a program that does
        // not exist, so the first respawn fails. With one worker, nothing
        // but a retry can bring the pool back.
        let daemon = start(test_graph(), ServeConfig::default()).expect("daemon");
        let addr = daemon.local_addr();
        let mut spawns = 0;
        let spawn = WorkerSpawn::Process(Box::new(move |_rank| {
            spawns += 1;
            if spawns == 2 {
                return Command::new("/nonexistent/mrbc-serve-worker");
            }
            let mut cmd = Command::new("sh");
            cmd.args(["-c", &format!("echo SERVE {addr}; exec sleep 600")]);
            cmd
        }));
        let cfg = PoolConfig {
            workers: 1,
            ..PoolConfig::default()
        };
        let pool = start_pool(spawn, cfg).expect("pool starts");
        pool.kill_worker(0);
        let deadline = now_ms() + 10_000;
        while pool.pool_stats().respawns == 0 && now_ms() < deadline {
            thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(
            pool.pool_stats().respawns,
            1,
            "the failed respawn was retried"
        );
        assert_eq!(pool.recoveries_ms().len(), 1);
    }

    fn durable_pool(workers: usize, wal_dir: &std::path::Path) -> Pool {
        let spawn = WorkerSpawn::InProcess {
            graph: test_graph(),
            bc: Box::default(),
            sched: SchedConfig::default(),
        };
        let cfg = PoolConfig {
            workers,
            dispatch_timeout_ms: 20_000,
            detector: DetectorConfig {
                heartbeat_every_ms: 20,
                suspect_after_ms: 200,
                dead_after_ms: 800,
            },
            wal_dir: Some(wal_dir.to_path_buf()),
            ..PoolConfig::default()
        };
        start_pool(spawn, cfg).expect("pool starts")
    }

    #[test]
    fn durable_pool_recovers_epoch_stats_and_bc_across_restart() {
        let dir = std::env::temp_dir().join(format!("mrbc-pool-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let (bc_before, gen_before, muts_before) = {
            let mut pool = durable_pool(2, &dir);
            let gen = pool.generation();
            assert!(gen >= 1, "WAL assigns a nonzero generation");
            let mut c = quick_client(pool.local_addr());
            assert_eq!(c.welcome().generation, gen);
            let (e1, applied) = c.mutate(MutateOp::AddEdge, 0, 5).expect("m1");
            assert!(applied);
            assert_eq!(e1, 2);
            let (e2, _) = c.mutate(MutateOp::RemoveEdge, 3, 9).expect("m2");
            assert_eq!(e2, 3);
            let (_, score) = c.bc_score(0, 6).expect("bc");
            let stats = c.stats().expect("stats");
            c.shutdown().expect("bye");
            pool.wait();
            (score, gen, stats.mutations)
        };
        assert_eq!(muts_before, 2);

        // A fresh front-end over the same WAL dir recovers the exact
        // acknowledged epoch, a newer generation, the cumulative stats
        // base, and bit-identical BC.
        let mut pool = durable_pool(2, &dir);
        assert!(pool.generation() > gen_before, "generation is monotone");
        let mut c = quick_client(pool.local_addr());
        let w = c.welcome();
        assert_eq!(w.epoch, 3, "recovered to the exact pre-shutdown epoch");
        let (_, score) = c.bc_score(0, 6).expect("bc after recovery");
        assert_eq!(
            score.to_bits(),
            bc_before.to_bits(),
            "bit-identical BC after crash-consistent recovery"
        );
        let stats = c.stats().expect("stats after recovery");
        assert_eq!(
            stats.mutations, 2,
            "mutation counter survives the restart via the stats base"
        );
        assert!(
            stats.queries >= 1,
            "pre-restart query counters merge into post-restart totals"
        );
        c.shutdown().expect("bye");
        pool.wait();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
