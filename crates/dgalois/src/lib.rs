//! A simulated D-Galois / Gluon substrate.
//!
//! The MRBC paper implements its algorithms in D-Galois, a distributed
//! graph-analytics system built on the Gluon communication substrate
//! (Section 4.1). Its execution model:
//!
//! * The input graph's **edges are partitioned** among hosts; each host
//!   materializes **proxy** vertices for the endpoints of its edges. The
//!   proxy on the owning host is the **master**, the others **mirrors**.
//! * Execution proceeds in **BSP rounds**: local computation on each
//!   host's subgraph, then a **synchronization** phase in which mirror
//!   labels are *reduced* to the master and the reconciled value is
//!   *broadcast* back — with update-tracking so unchanged labels are never
//!   resent, and with per-message metadata compression.
//!
//! This crate reproduces that substrate inside one process. The pieces:
//!
//! * [`DistGraph`] + [`partition`] — partition policies (blocked /
//!   hashed edge-cuts and the Cartesian vertex-cut used in the paper's
//!   experiments) and the master/mirror topology they induce.
//! * [`comm`] — per-round host-to-host mailboxes with exact byte and
//!   message accounting, including the Gluon metadata model (one
//!   aggregated message per host pair per round, vertex ids carried as a
//!   compressed bitset over the pair's shared proxies).
//! * [`BspStats`] + [`CostModel`] — per-round, per-host work and traffic
//!   records, and an analytic model translating them into the quantities
//!   the paper plots: computation time, non-overlapped communication
//!   time, communication volume, and load imbalance.
//! * [`spmd`] — the replicated state-machine contract that lets one
//!   program run in-process ([`spmd::run_local`]) or across worker
//!   processes over `mrbc-net`'s mesh.
//!
//! Real per-host computation *does* execute (algorithms in `mrbc-core`
//! parallelize it with Rayon); only the network is modeled. Round counts,
//! message counts, and communication volumes are exact, which is what the
//! paper's evaluation hinges on.

pub mod comm;
mod cost;
mod partition;
pub mod reliability;
pub mod spmd;
mod stats;
mod topology;

pub use comm::ReliableLink;
pub use cost::CostModel;
pub use partition::{partition, PartitionPolicy};
pub use stats::{BspStats, RoundRecord};
pub use topology::{DistGraph, HostId, HostTopology, LocalId, NO_LOCAL};
