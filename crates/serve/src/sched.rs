//! The Lemma-8 batch scheduler: admission control + query coalescing.
//!
//! Lemma 8 of the paper says `k` batched sources complete their forward
//! phases in `k + H` rounds instead of `k · H` — amortizing the graph
//! diameter `H` across the batch. The scheduler groups work the same
//! way: the worker takes whatever is queued when it is free, in
//! contiguous runs of up to `max_batch` queryable jobs, so queries that
//! arrive while it is busy share one dispatch. Nothing waits for a batch
//! to fill. The observable is the *coalescing factor* — source-scoped
//! queries per dispatched batch — which exceeds 1 exactly when queries
//! queued together. A dispatch still runs its jobs one at a time; making
//! it share work is ROADMAP item 11.
//!
//! Two policies keep the daemon predictable under load:
//!
//! * **Bounded queue.** `submit` refuses jobs beyond `queue_cap` with a
//!   structured `Busy{queued, capacity}` instead of queueing unboundedly
//!   — latency stays bounded and memory cannot grow without limit.
//! * **Mutation barrier.** A `Mutate` at the queue front is dispatched
//!   *alone*: jobs enqueued before it must see the pre-mutation epoch,
//!   jobs after it the post-mutation epoch, and FIFO dispatch with a
//!   barrier preserves exactly that.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex, MutexGuard};

use mrbc_obs::Histogram;

use crate::proto::{Counters, Request, ServeStats, TraceCtx};

/// Scheduler tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct SchedConfig {
    /// Maximum queued jobs before `submit` sheds load with `Busy`.
    pub queue_cap: usize,
    /// Maximum jobs coalesced into one worker dispatch.
    pub max_batch: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            queue_cap: 64,
            max_batch: 8,
        }
    }
}

/// One admitted query, carrying the writer queue of its session.
pub struct Job {
    /// Accept-order index of the owning session (diagnostics).
    pub session: u64,
    /// Client-chosen request id, echoed in the response.
    pub id: u64,
    /// `mrbc_obs::monotonic_us()` at admission; the phase histograms
    /// are measured from it.
    pub enqueued_us: u64,
    /// Trace context the request arrived with (`TraceCtx::NONE` for
    /// uninstrumented clients); the worker tags its execution span with
    /// it so merged timelines correlate across processes.
    pub ctx: TraceCtx,
    /// The admitted request.
    pub req: Request,
    /// The owning session's writer queue ([`crate::conn::FrameTx`]) for
    /// the sealed response. Sending never blocks and fails harmlessly
    /// once the connection is gone.
    pub reply: Sender<Vec<u8>>,
}

/// The three serving-phase histograms exported via `Stats`.
#[derive(Debug, Default)]
pub struct PhaseHists {
    /// Admission → dispatch wait ("serve.queue_us").
    pub queue: Histogram,
    /// Dispatch → response compute ("serve.exec_us").
    pub exec: Histogram,
    /// Admission → response, end to end ("serve.total_us").
    pub total: Histogram,
}

impl Counters {
    /// Records one executed job's phase latencies (µs).
    pub fn record_phases(&self, queue_us: u64, exec_us: u64) {
        let mut h = self.phases.lock().unwrap_or_else(|e| e.into_inner());
        h.queue.record(queue_us);
        h.exec.record(exec_us);
        h.total.record(queue_us.saturating_add(exec_us));
    }

    /// Snapshot into the wire-level stats struct. `epoch` and
    /// `queue_depth` are instantaneous readings supplied by the caller.
    pub fn snapshot(&self, epoch: u64, queue_depth: u64) -> ServeStats {
        let hists = {
            let h = self.phases.lock().unwrap_or_else(|e| e.into_inner());
            vec![
                ("serve.exec_us".to_string(), h.exec.clone()),
                ("serve.queue_us".to_string(), h.queue.clone()),
                ("serve.total_us".to_string(), h.total.clone()),
            ]
        };
        ServeStats {
            epoch,
            queue_depth,
            hists,
            ..self.load()
        }
    }
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// Set by [`Scheduler::close`]: nothing more is admitted and
    /// [`Scheduler::wait_batch`] ends once `jobs` is drained.
    closed: bool,
}

/// The bounded FIFO queue between session threads and the batch worker.
pub struct Scheduler {
    cfg: SchedConfig,
    queue: Mutex<Queue>,
    /// Signalled by `submit` and `close`; the batch worker sleeps on it.
    ready: Condvar,
    /// Serving counters (sessions and worker both update these).
    pub counters: Counters,
}

impl Scheduler {
    /// Empty scheduler with the given knobs.
    pub fn new(cfg: SchedConfig) -> Self {
        Scheduler {
            cfg,
            queue: Mutex::new(Queue::default()),
            ready: Condvar::new(),
            counters: Counters::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Jobs currently queued.
    pub fn queued(&self) -> usize {
        self.lock().jobs.len()
    }

    /// Admits `job`, or sheds it: `Err((queued, capacity))` when the
    /// queue is at capacity or closed (a job admitted after the worker
    /// left would never be answered). Never blocks.
    pub fn submit(&self, job: Job) -> Result<(), (u32, u32)> {
        let mut q = self.lock();
        if q.closed || q.jobs.len() >= self.cfg.queue_cap {
            self.counters
                .busy_rejections
                .fetch_add(1, Ordering::Relaxed);
            return Err((q.jobs.len() as u32, self.cfg.queue_cap as u32));
        }
        q.jobs.push_back(job);
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        self.ready.notify_one();
        Ok(())
    }

    /// Takes the next dispatch: a lone `Mutate` if one heads the queue
    /// (the epoch barrier), otherwise the longest non-`Mutate` prefix up
    /// to `max_batch`. Empty when nothing is queued. Never blocks.
    pub fn take_batch(&self) -> Vec<Job> {
        self.take_locked(&mut self.lock().jobs)
    }

    /// Blocks until something is queued, then takes it as
    /// [`Self::take_batch`] does; `None` once the scheduler is closed and
    /// drained. The batch worker's only wait.
    pub fn wait_batch(&self) -> Option<Vec<Job>> {
        let mut q = self
            .ready
            .wait_while(self.lock(), |q| q.jobs.is_empty() && !q.closed)
            .unwrap_or_else(|e| e.into_inner());
        if q.jobs.is_empty() {
            return None; // closed and drained
        }
        Some(self.take_locked(&mut q.jobs))
    }

    /// Stops admission and wakes the worker, which drains what is
    /// already queued and then sees `wait_batch` return `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    fn take_locked(&self, q: &mut VecDeque<Job>) -> Vec<Job> {
        let mut batch = Vec::new();
        if matches!(q.front().map(|j| &j.req), Some(Request::Mutate { .. })) {
            if let Some(job) = q.pop_front() {
                batch.push(job);
            }
            return batch;
        }
        while batch.len() < self.cfg.max_batch {
            match q.front().map(|j| &j.req) {
                Some(Request::Mutate { .. }) | None => break,
                Some(_) => {
                    if let Some(job) = q.pop_front() {
                        batch.push(job);
                    }
                }
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn job(req: Request) -> Job {
        let (tx, _rx) = mpsc::channel();
        // Leak the receiver end deliberately: these tests only exercise
        // queue mechanics, not delivery.
        std::mem::forget(_rx);
        Job {
            session: 0,
            id: 0,
            enqueued_us: 0,
            ctx: TraceCtx::NONE,
            req,
            reply: tx,
        }
    }

    fn query() -> Request {
        Request::BcScore { epoch: 0, v: 0 }
    }

    fn mutate() -> Request {
        Request::Mutate {
            op: crate::proto::MutateOp::AddEdge,
            u: 0,
            v: 1,
        }
    }

    #[test]
    fn bounded_queue_sheds_load_with_capacity_info() {
        let s = Scheduler::new(SchedConfig {
            queue_cap: 2,
            max_batch: 8,
        });
        assert!(s.submit(job(query())).is_ok());
        assert!(s.submit(job(query())).is_ok());
        assert_eq!(s.submit(job(query())), Err((2, 2)));
        assert_eq!(s.counters.busy_rejections.load(Ordering::Relaxed), 1);
        assert_eq!(s.counters.queries.load(Ordering::Relaxed), 2);
        assert_eq!(s.queued(), 2);
    }

    #[test]
    fn batches_coalesce_up_to_max_batch() {
        let s = Scheduler::new(SchedConfig {
            queue_cap: 64,
            max_batch: 3,
        });
        for _ in 0..5 {
            s.submit(job(query())).unwrap();
        }
        assert_eq!(s.take_batch().len(), 3);
        assert_eq!(s.take_batch().len(), 2);
        assert!(s.take_batch().is_empty());
    }

    #[test]
    fn mutations_are_dispatch_barriers() {
        let s = Scheduler::new(SchedConfig {
            queue_cap: 64,
            max_batch: 8,
        });
        s.submit(job(query())).unwrap();
        s.submit(job(query())).unwrap();
        s.submit(job(mutate())).unwrap();
        s.submit(job(query())).unwrap();
        // Pre-mutation queries batch together but stop at the barrier.
        let b1 = s.take_batch();
        assert_eq!(b1.len(), 2);
        assert!(b1.iter().all(|j| !matches!(j.req, Request::Mutate { .. })));
        // The mutation dispatches alone.
        let b2 = s.take_batch();
        assert_eq!(b2.len(), 1);
        assert!(matches!(b2[0].req, Request::Mutate { .. }));
        // Post-mutation queries resume batching.
        assert_eq!(s.take_batch().len(), 1);
    }

    #[test]
    fn closing_drains_the_queue_then_ends_the_wait() {
        let s = Scheduler::new(SchedConfig::default());
        s.submit(job(query())).unwrap();
        s.close();
        // Already-admitted work is still dispatched; nothing new is.
        assert_eq!(s.submit(job(query())), Err((1, 64)));
        assert_eq!(s.wait_batch().map(|b| b.len()), Some(1));
        assert!(s.wait_batch().is_none());
    }

    #[test]
    fn wait_batch_returns_a_job_submitted_from_another_thread() {
        let s = std::sync::Arc::new(Scheduler::new(SchedConfig::default()));
        let waiter = {
            let s = std::sync::Arc::clone(&s);
            std::thread::spawn(move || s.wait_batch().map(|b| b.len()))
        };
        s.submit(job(query())).unwrap();
        assert_eq!(waiter.join().unwrap(), Some(1));
    }

    fn job_of(session: u64) -> Job {
        Job {
            session,
            ..job(query())
        }
    }

    #[test]
    fn a_dispatch_takes_what_is_queued_from_every_session() {
        let s = Scheduler::new(SchedConfig {
            queue_cap: 64,
            max_batch: 3,
        });
        for session in [1, 2, 1, 2] {
            s.submit(job_of(session)).unwrap();
        }
        let sessions = |b: Vec<Job>| b.iter().map(|j| j.session).collect::<Vec<_>>();
        // Both sessions' queued jobs share one dispatch, up to `max_batch`,
        assert_eq!(s.wait_batch().map(sessions), Some(vec![1, 2, 1]));
        // the rest goes next,
        assert_eq!(s.wait_batch().map(sessions), Some(vec![2]));
        // and a later lone job is not held for company: it goes alone.
        s.submit(job_of(1)).unwrap();
        assert_eq!(s.wait_batch().map(sessions), Some(vec![1]));
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn counters_snapshot_into_wire_stats() {
        let c = Counters::default();
        c.queries.store(10, Ordering::Relaxed);
        c.source_queries.store(8, Ordering::Relaxed);
        c.batches.store(2, Ordering::Relaxed);
        c.record_phases(100, 300);
        let s = c.snapshot(7, 3);
        assert_eq!(s.epoch, 7);
        assert_eq!(s.queries, 10);
        assert_eq!(s.coalescing_factor(), 4.0);
        assert_eq!(s.queue_depth, 3);
        // Worker snapshots never claim pool-tier activity.
        assert_eq!(s.failover_attempts, 0);
        assert_eq!(s.replay_mutations, 0);
        let q = s.hist("serve.queue_us").expect("queue hist");
        assert_eq!((q.count(), q.sum()), (1, 100));
        let t = s.hist("serve.total_us").expect("total hist");
        assert_eq!(t.sum(), 400);
    }
}
