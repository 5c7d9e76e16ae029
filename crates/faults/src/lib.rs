//! Deterministic fault injection for the simulated substrates.
//!
//! The paper's D-Galois implementation runs on real clusters where hosts
//! crash, packets are dropped or duplicated, and stragglers stall
//! bulk-synchronous rounds. The simulated substrates in `mrbc-congest`
//! and `mrbc-dgalois` assume a perfectly reliable lossless network; this
//! crate supplies the fault model that relaxes that assumption in a
//! *reproducible* way:
//!
//! * [`FaultPlan`] — a declarative description of the faults to inject,
//!   parseable from a compact CLI string such as
//!   `kill:host=2@round=40;drop:p=0.01;delay:pair=0-3,rounds=2;seed=42`.
//! * [`FaultSession`] — turns a plan into per-event decisions (drop this
//!   transmission? duplicate it? how long does this pair straggle?).
//!   Every decision is a pure hash of `(seed, round, endpoints, attempt)`,
//!   so outcomes are independent of query order and bit-for-bit
//!   reproducible across runs — the property the recovery tests rely on.
//! * [`RecoveryStats`] — the overhead ledger filled in by the reliable
//!   delivery layer (`mrbc_dgalois::comm::ReliableLink`).
//!
//! Host crashes are not simulated here: `kill` makes the `mrbc-net`
//! launcher SIGKILL a real worker process, which restarts from its
//! durable checkpoint.
//!
//! The crate is deliberately dependency-free: both substrates depend on
//! it, and it must never depend back on them.

mod plan;
mod session;
mod stats;

pub use plan::{
    ChurnFault, DelayFault, FaultParseError, FaultPlan, KillFault, PartitionFault, WorkerKillFault,
    WorkerPauseFault,
};
pub use session::FaultSession;
pub use stats::RecoveryStats;
