//! Graph substrate for the MRBC reproduction.
//!
//! The MRBC paper evaluates on unweighted directed graphs — social
//! networks, web crawls, random power-law graphs (RMAT / Kronecker), and a
//! road network. This crate provides:
//!
//! * [`CsrGraph`] — an immutable compressed-sparse-row directed graph, the
//!   representation every algorithm in the workspace operates on, plus
//!   [`GraphBuilder`] for constructing one from an edge list (with
//!   deduplication and self-loop policy).
//! * [`generators`] — deterministic, seedable generators reproducing the
//!   *shapes* of the paper's inputs at laptop scale: RMAT, Kronecker,
//!   Barabási–Albert, Watts–Strogatz, Erdős–Rényi, 2-D grid road networks,
//!   and "web-crawl" graphs (power-law core with long tail chains).
//! * [`algo`] — BFS, strongly/weakly connected components, and diameter
//!   estimation used both by the algorithms and by the workload
//!   characterization in Table 1.
//! * [`sample`] — source-vertex sampling (the paper samples a random
//!   contiguous chunk of sources; see Section 5.1).
//! * [`io`] — plain edge-list text I/O.

pub mod algo;
mod builder;
mod csr;
pub mod generators;
pub mod io;
pub mod properties;
pub mod sample;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;

/// Vertex identifier. Graphs in this workspace are bounded to `u32::MAX`
/// vertices; using `u32` halves the memory traffic of adjacency arrays
/// (see the perf-book guidance on smaller integer index types).
pub type VertexId = u32;

/// Distance value used by unweighted shortest-path computations.
pub type Dist = u32;

/// Sentinel for "unreachable" distances.
pub const INF_DIST: Dist = Dist::MAX;
