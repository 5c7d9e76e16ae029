//! `mrbc-serve` — the long-running BC/APSP query service.
//!
//! Everything else in this workspace computes betweenness *offline*: load
//! a graph, run a driver, print results, exit. This crate keeps the graph
//! (and everything derived from it) **resident** and answers point
//! queries over TCP:
//!
//! * `bc(v)` and deterministic `top_k(k)` from an epoch-cached full BC
//!   vector;
//! * `dist(s, t)` / `σ(s, t)` from per-source cached forward artifacts;
//! * subset-source BC for ad-hoc source sets;
//! * `add_edge` / `remove_edge` mutations that bump the graph **epoch**
//!   and invalidate every cache — pinned readers get structured `Stale`
//!   refusals, never torn answers.
//!
//! The scheduling core takes the shape of the paper's Lemma 8 (`k`
//! batched sources finish in `k + H` forward rounds): queries that queue
//! up while the worker is busy are coalesced into one dispatch by
//! [`sched::Scheduler`]. A dispatch still runs its jobs one at a time,
//! so the diameter cost is paid per query; sharing it across a batch is
//! ROADMAP item 11.
//! Admission control is a bounded queue — overload sheds load with
//! structured `Busy` responses instead of queueing unboundedly.
//!
//! The wire protocol ([`proto`]) rides the same `[len][crc][body]`
//! envelope as the SPMD mesh (shared via [`mrbc_util::framing`]), with
//! scores as raw IEEE-754 bits: daemon answers are bit-identical to
//! offline [`mrbc_core::driver::bc`] runs — the serving-parity contract
//! the integration tests enforce.

pub mod client;
pub mod conn;
pub mod durable;
pub mod pool;
pub mod proto;
pub mod sched;
pub mod server;
pub mod store;
pub mod table;

pub use client::{ClientConfig, ClientError, RetryClient, ServeClient, Welcome};
pub use conn::ShutdownHandle;
pub use durable::{DurableLog, DurableRecovery};
pub use pool::{start_pool, Pool, PoolConfig, PoolStats, WorkerSpawn};
pub use proto::{MutateOp, Request, Response, ServeStats, TraceCtx};
pub use sched::SchedConfig;
pub use server::{start, ServeConfig, Server};
pub use store::{EpochStore, ForwardArtifacts, MutationOutcome};
// The incremental-maintenance knobs, re-exported so embedders and the
// benches can configure the store without a direct mrbc-incr edge.
pub use mrbc_incr::{IncrConfig, IncrOutcome};
