//! **mrbc-net** — the real multi-process network substrate.
//!
//! Everything below the algorithm that the simulated transport
//! (`mrbc-dgalois`'s `ReliableLink` + in-process executors) abstracts
//! away, made real: TCP sockets between worker *processes*, wire framing
//! with checksums and a versioned handshake, a heartbeat failure
//! detector, reconnect with exponential backoff and idempotent resend,
//! durable on-disk checkpoints, and a launcher that executes kill faults
//! for real (SIGKILL) and drives crash-restart recovery.
//!
//! The layering, bottom-up:
//!
//! * [`frame`] — the mesh's frame body inside the shared CRC-sealed
//!   envelope, and the blocking frame reader; versioned
//!   `Hello`/`Welcome` handshake.
//! * [`detector`] — the pure Alive → Suspect → Dead heartbeat state
//!   machine (time enters as explicit timestamps).
//! * [`mesh`] — the full mesh of reliable connections between ranks,
//!   exposing the one collective the SPMD layer needs: `allgather`.
//!   Reliability (exactly-once, in-order per ordered pair) reuses the
//!   same seq/ack core as the simulated transport, so there is a single
//!   reliability implementation in the codebase.
//! * [`checkpoint`] — atomic write-rename, CRC-verified snapshot files;
//!   the durability that makes a SIGKILL survivable.
//! * [`worker`] — drives any [`SpmdProgram`](mrbc_dgalois::spmd::SpmdProgram)
//!   over a mesh: checkpoint at every step boundary, exchange, fold,
//!   and park-for-recovery when a peer dies.
//! * [`child`] — one supervised child process from spawn to reap:
//!   stdout lines and the exit event, the stdin lifeline, signals
//!   through the owned handle. Both the launcher and the serve pool
//!   use it.
//! * [`launch`] — spawns and supervises the worker processes, injects
//!   planned SIGKILLs, and runs the recover/resume handshake that gets
//!   bit-identical results out of a crashed-and-restarted run.

pub mod checkpoint;
pub mod child;
pub mod detector;
pub mod frame;
pub mod launch;
pub mod mesh;
pub mod worker;

pub use checkpoint::{CheckpointError, CheckpointStore};
pub use detector::{DetectorConfig, HeartbeatDetector, PeerStatus};
pub use frame::{Frame, FrameKind};
pub use launch::{launch, LaunchConfig, LaunchError, LaunchReport, RankOutcome};
pub use mesh::{Mesh, MeshConfig, MeshError, MeshStats, Waker};
pub use worker::{
    await_resume, run_worker, run_worker_from, ControlMsg, ControlPlane, WorkerConfig, WorkerError,
    WorkerEvent, WorkerOutcome,
};
