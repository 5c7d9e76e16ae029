//! The serving daemon: a [`conn::Front`] whose handler feeds the batch
//! worker.
//!
//! Listener, session readers and writers belong to [`crate::conn`]; this
//! module supplies the [`Handler`] — `Hello` (generation-fenced) and
//! `Stats` are answered inline, everything else is submitted to the
//! scheduler with a clone of the session's writer queue, or refused with
//! `Busy` — and one **worker** thread. The worker sleeps in
//! [`Scheduler::wait_batch`], executes each Lemma-8 batch against the
//! [`EpochStore`] and queues every sealed answer on its session's
//! writer. So requests on one connection stay pipelined and are answered
//! in submission order, and a departed or stalled client costs the
//! worker one non-blocking channel send — the chaos contract.
//!
//! Shutdown (a client's `Shutdown` request, or [`Server::shutdown`])
//! closes the scheduler — the worker drains what was admitted and exits
//! — while the front-end severs every session and stops accepting.
//!
//! Fault injection reuses the `mrbc-faults` plan DSL: `stall:ms=D`
//! delays the worker after it takes each batch (surfacing queue buildup
//! → `Busy` under burst), and `hangup:session=N` severs the `N`-th
//! accepted session after its first response.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use mrbc_core::BcConfig;
use mrbc_faults::FaultPlan;
use mrbc_graph::CsrGraph;
use mrbc_obs as obs;

use crate::conn::{self, FrameTx, Front, Handler, Reply, ShutdownHandle};
use crate::proto::{Request, Response, ServeStats, TraceCtx};
use crate::sched::{Job, SchedConfig, Scheduler};
use crate::store::EpochStore;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Driver configuration used for every BC computation (algorithm,
    /// Lemma-8 batch size, host count, ...).
    pub bc: BcConfig,
    /// Scheduler admission-control knobs.
    pub sched: SchedConfig,
    /// Optional fault plan (`stall:ms=`, `hangup:session=` clauses).
    pub faults: Option<FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            bc: BcConfig::default(),
            sched: SchedConfig::default(),
            faults: None,
        }
    }
}

struct Shared {
    store: EpochStore,
    sched: Scheduler,
    /// Highest WAL generation any greeting front-end has presented.
    /// A Hello carrying an older nonzero generation is refused — it
    /// comes from a pre-restart front-end that lost a split-brain race.
    max_generation: AtomicU64,
}

impl Shared {
    fn stats(&self) -> ServeStats {
        self.sched
            .counters
            .snapshot(self.store.epoch(), self.sched.queued() as u64)
    }
}

impl Handler for Shared {
    fn session_opened(&self) -> u64 {
        self.sched.counters.sessions.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn handle(&self, session: u64, id: u64, ctx: TraceCtx, req: Request, tx: &FrameTx) -> Reply {
        match req {
            Request::Hello { generation } => {
                // Generation fencing: remember the highest front-end
                // generation ever greeted; refuse older nonzero ones
                // (a stale pre-restart front-end racing its
                // successor). Ordinary clients send 0 and pass.
                let prev = self.max_generation.fetch_max(generation, Ordering::SeqCst);
                if generation != 0 && generation < prev {
                    return Reply::Refuse(Response::Error {
                        message: format!(
                            "stale generation {generation}: a newer front-end \
                             (generation {prev}) already owns this worker"
                        ),
                    });
                }
                let (vertices, edges) = self.store.graph_info();
                // `now_us` is the t1 of the pool's NTP-style clock
                // probe; `pid` identifies this process's trace track.
                Reply::Now(Response::Welcome {
                    epoch: self.store.epoch(),
                    vertices,
                    edges,
                    now_us: obs::now_us(),
                    pid: u64::from(std::process::id()),
                    generation: self.max_generation.load(Ordering::SeqCst),
                })
            }
            Request::Stats => Reply::Now(Response::Stats(self.stats())),
            req => {
                let job = Job {
                    session,
                    id,
                    enqueued_us: obs::monotonic_us(),
                    ctx,
                    req,
                    reply: tx.clone(),
                };
                match self.sched.submit(job) {
                    Ok(()) => Reply::Queued,
                    Err((queued, capacity)) => Reply::Now(Response::Busy { queued, capacity }),
                }
            }
        }
    }

    fn shutdown(&self) {
        self.sched.close();
    }
}

/// A running daemon. Dropping the handle triggers shutdown and joins
/// every thread.
pub struct Server {
    front: Front,
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

/// Loads `graph` into an epoch store and starts serving on `cfg.addr`.
pub fn start(graph: CsrGraph, cfg: ServeConfig) -> io::Result<Server> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let shared = Arc::new(Shared {
        store: EpochStore::new(graph, cfg.bc.clone()),
        sched: Scheduler::new(cfg.sched),
        max_generation: AtomicU64::new(0),
    });

    let plan = cfg.faults.unwrap_or_default();
    let stall = Duration::from_millis(u64::from(plan.stall_ms));
    let worker = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("serve-worker".into())
            .spawn(move || worker_loop(&shared, stall))?
    };
    let front = Front::start(listener, "serve", plan.hangups, Arc::clone(&shared) as _)?;

    Ok(Server {
        front,
        shared,
        worker: Some(worker),
    })
}

impl Server {
    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Current graph epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.store.epoch()
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Requests shutdown without blocking: the listener, every session
    /// and the worker are woken and wind down.
    pub fn trigger_shutdown(&self) {
        self.front.trigger_shutdown();
    }

    /// A handle that requests shutdown from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.front.shutdown_handle()
    }

    /// Blocks until every serving thread has exited. Call after
    /// [`Self::trigger_shutdown`], or rely on a client's `Shutdown`
    /// request having begun it.
    pub fn wait(&mut self) {
        self.front.wait();
        if let Some(h) = self.worker.take() {
            drop(h.join());
        }
    }

    /// Triggers shutdown and joins every thread.
    pub fn shutdown(&mut self) {
        self.trigger_shutdown();
        self.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared, stall: Duration) {
    while let Some(batch) = shared.sched.wait_batch() {
        if !stall.is_zero() {
            thread::sleep(stall); // injected worker stall (fault plan)
        }
        execute_batch(shared, batch);
    }
}

/// Executes one scheduler dispatch, maintaining the Lemma-8 batching
/// counters: a batch "counts" when it contains ≥ 1 source-scoped query,
/// and `batched_sources` accumulates the *distinct* sources the batch
/// needed — the quantity Lemma 8's `k + H` bound is about.
fn execute_batch(shared: &Shared, batch: Vec<Job>) {
    let counters = &shared.sched.counters;
    let mut sources: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    let mut source_jobs = 0u64;
    for job in &batch {
        match &job.req {
            Request::PathInfo { s, .. } => {
                sources.insert(*s);
                source_jobs += 1;
            }
            Request::SubsetBc { sources: ss, .. } => {
                sources.extend(ss.iter().copied());
                source_jobs += 1;
            }
            _ => {}
        }
    }
    if source_jobs > 0 {
        counters.batches.fetch_add(1, Ordering::Relaxed);
        counters
            .source_queries
            .fetch_add(source_jobs, Ordering::Relaxed);
        counters
            .batched_sources
            .fetch_add(sources.len() as u64, Ordering::Relaxed);
    }

    for job in batch {
        let started = obs::monotonic_us();
        // The execution span carries the originating query's trace
        // context so `mrbc obs merge` can stitch it under the
        // front-end's span on a separate process track.
        let span = obs::span("serve.query", "serve")
            .arg("session", job.session)
            .arg("id", job.id)
            .arg("trace", job.ctx.trace)
            .arg("span", obs::fresh_id())
            .arg("parent", job.ctx.parent);
        let resp = execute_job(shared, &job.req);
        drop(span);
        let done = obs::monotonic_us();
        let queue_us = started.saturating_sub(job.enqueued_us);
        let exec_us = done.saturating_sub(started);
        counters.record_phases(queue_us, exec_us);
        obs::histogram_record("serve.latency_us", queue_us + exec_us);
        obs::flight::note("serve.query", job.ctx.trace, job.id);
        // A dead receiver means the client left: drop the answer, keep
        // the batch going.
        drop(job.reply.send(conn::response_frame(job.id, &resp)));
    }
}

fn execute_job(shared: &Shared, req: &Request) -> Response {
    let store = &shared.store;
    let counters = &shared.sched.counters;
    let epoch = store.epoch();
    let pin = req.epoch_pin();
    if pin != 0 && pin != epoch {
        counters.stale_rejections.fetch_add(1, Ordering::Relaxed);
        return Response::Stale {
            requested: pin,
            current: epoch,
        };
    }
    let n = store.num_vertices() as u32;
    let oob = |what: &str, v: u32| Response::Error {
        message: format!("{what} {v} out of range for {n} vertices"),
    };
    match req {
        Request::BcScore { v, .. } => {
            if *v >= n {
                return oob("vertex", *v);
            }
            Response::BcValue {
                epoch,
                score: store.full_bc()[*v as usize],
            }
        }
        Request::TopK { k, .. } => Response::TopKList {
            epoch,
            entries: store.top_k(*k as usize),
        },
        Request::PathInfo { s, t, .. } => {
            if *s >= n {
                return oob("source", *s);
            }
            if *t >= n {
                return oob("target", *t);
            }
            let fw = store.forward(*s);
            Response::PathInfo {
                epoch,
                dist: fw.0[*t as usize],
                sigma: fw.1[*t as usize],
            }
        }
        Request::SubsetBc { sources, .. } => {
            if let Some(&bad) = sources.iter().find(|&&s| s >= n) {
                return oob("source", bad);
            }
            Response::SubsetBc {
                epoch,
                scores: store.subset_bc(sources),
            }
        }
        Request::Mutate { op, u, v } => {
            if *u >= n {
                return oob("vertex", *u);
            }
            if *v >= n {
                return oob("vertex", *v);
            }
            let out = store.mutate(*op, *u, *v);
            if out.applied {
                counters.mutations.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(m) = out.maintenance {
                counters
                    .sources_reused
                    .fetch_add(m.sources_reused, Ordering::Relaxed);
                counters
                    .sources_rebuilt
                    .fetch_add(m.sources_rebuilt, Ordering::Relaxed);
                obs::counter_add("serve.incr.sources_reused", m.sources_reused);
                obs::counter_add("serve.incr.sources_rebuilt", m.sources_rebuilt);
            }
            // lint: allow(ackdurable): worker tier — durability is the pool front-end's job
            Response::Mutated {
                epoch: out.epoch,
                applied: out.applied,
            }
        }
        // Answered inline by the session; never queued.
        Request::Hello { .. } | Request::Stats | Request::Shutdown => Response::Error {
            message: "request not queueable".to_string(),
        },
    }
}
