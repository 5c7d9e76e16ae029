//! SPMD (single program, multiple data) execution of BSP programs over an
//! exchangeable transport.
//!
//! To run the *same* program in one process and across real worker
//! processes, this module expresses a BSP computation as a replicated state
//! machine:
//!
//! * every worker holds the full **replicated** state (labels, schedules —
//!   everything `fold` touches) plus its own host's **partial** state;
//! * each step, a worker runs [`SpmdProgram::local_step`] for *its* host
//!   only, producing an opaque payload;
//! * payloads are allgathered (in-process: a loop; over TCP: the
//!   `mrbc-net` mesh) and folded by **every** worker in canonical host
//!   order `0..H`.
//!
//! Because `fold` is deterministic and applied to identical payload vectors
//! in identical order on every replica, the replicated state — including
//! every `f64` accumulation — evolves **bit-identically** on all workers
//! and matches the single-process run. That is the property the chaos tests
//! assert: a SIGKILLed worker that rejoins from a checkpoint must reproduce
//! the fault-free scores exactly.
//!
//! The contract that makes this work:
//!
//! * [`SpmdProgram::begin_step`] and [`SpmdProgram::fold`] may mutate only
//!   replicated state, identically on every replica;
//! * [`SpmdProgram::local_step`] for host `h` may mutate only host `h`'s
//!   partial state, and may read replicated state plus that partial state;
//! * [`SpmdProgram::snapshot`] / [`SpmdProgram::restore`] round-trip both
//!   kinds of state durably (a restored worker continues bit-identically).

use mrbc_util::wire::WireError;

/// A replicated BSP state machine, stepped by allgather exchanges.
pub trait SpmdProgram {
    /// Number of hosts (= workers) the program is partitioned over.
    fn num_hosts(&self) -> usize;

    /// True once the computation has terminated; no further steps run.
    fn done(&self) -> bool;

    /// Replicated pre-step transition. Runs exactly once per step on every
    /// replica, before any `local_step` of that step.
    fn begin_step(&mut self, step: u64);

    /// Host-local compute for `host`: reads replicated state and host
    /// `host`'s partials, may mutate only those partials, and returns the
    /// payload to exchange. In a worker process this is only ever called
    /// with the worker's own host id.
    fn local_step(&mut self, step: u64, host: usize) -> Vec<u8>;

    /// Replicated fold of all hosts' payloads for `step`, indexed by host
    /// id. Must be deterministic: every replica folds the same payloads in
    /// the same (host 0..H) order.
    fn fold(&mut self, step: u64, payloads: &[Vec<u8>]) -> Result<(), WireError>;

    /// Serializes the full state (replicated + all partials this instance
    /// maintains) for a durable checkpoint.
    fn snapshot(&self) -> Vec<u8>;

    /// Restores state saved by [`SpmdProgram::snapshot`].
    fn restore(&mut self, bytes: &[u8]) -> Result<(), WireError>;

    /// A 64-bit digest of the *replicated* result state. Identical across
    /// replicas of the same run by construction; used by the launcher to
    /// assert cross-worker agreement and by chaos tests to compare against
    /// the single-process run.
    fn fingerprint(&self) -> u64;

    /// Short human-readable progress tag for `step` (worker log lines).
    fn describe(&self, step: u64) -> String {
        format!("step {step}")
    }
}

/// Drives `prog` to completion inside one process: each step, every host's
/// `local_step` runs against the same pre-step state and the payloads are
/// folded in host order — the reference semantics the distributed mesh
/// must reproduce. Returns the number of steps executed.
pub fn run_local<P: SpmdProgram>(prog: &mut P, max_steps: u64) -> Result<u64, WireError> {
    let h = prog.num_hosts();
    let mut step = 0u64;
    while !prog.done() && step < max_steps {
        prog.begin_step(step);
        let payloads: Vec<Vec<u8>> = (0..h).map(|host| prog.local_step(step, host)).collect();
        prog.fold(step, &payloads)?;
        step += 1;
    }
    Ok(step)
}
