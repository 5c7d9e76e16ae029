//! Simulated D-Galois implementations — the paper's evaluation subjects.
//!
//! All three distributed algorithms run on the [`mrbc_dgalois`] substrate:
//! the graph is partitioned, each BSP round does per-host local compute
//! (hosts run one after another on one thread: the workspace's `rayon`
//! shim is sequential) followed by a Gluon-style reduce + broadcast
//! synchronization with exact byte accounting. MRBC has one driver,
//! [`spmd::MrbcSpmd`], which [`mrbc::mrbc_bc`] steps in-process and
//! `mrbc-net` steps over TCP. Each
//! algorithm returns its BC values plus the [`BspStats`] that the paper's
//! tables and figures are derived from.
//!
//! [`BspStats`]: mrbc_dgalois::BspStats

pub mod mfbc;
pub mod mrbc;
pub mod sbbc;
pub mod spmd;

use mrbc_dgalois::BspStats;

/// Result of a distributed BC run.
#[derive(Clone, Debug)]
pub struct DistBcOutcome {
    /// Betweenness scores restricted to the requested sources.
    pub bc: Vec<f64>,
    /// Per-round work and communication records.
    pub stats: BspStats,
}

/// Payload bytes of one MRBC sync item: source index (u32) + distance
/// (u32) + σ or δ (f64). The extra source identifier relative to SBBC's
/// [`SBBC_ITEM_BYTES`] is the paper's "message size in MRBC is more
/// because it identifies the source".
pub const MRBC_ITEM_BYTES: u64 = 4 + 4 + 8;

/// Payload bytes of one SBBC sync item: distance (u32) + σ or δ (f64);
/// one source is processed at a time, so no source id is carried.
pub const SBBC_ITEM_BYTES: u64 = 4 + 8;

/// Payload bytes of one MFBC dense row *element*: distance + value, sent
/// for every source in the batch whenever a vertex is synchronized (the
/// Cyclops Tensor Framework ships dense matrix blocks).
pub const MFBC_ELEM_BYTES: u64 = 4 + 8;
