//! # MRBC — Min-Rounds Betweenness Centrality
//!
//! A from-scratch Rust reproduction of *"A Round-Efficient Distributed
//! Betweenness Centrality Algorithm"* (Hoang, Pontecorvi, Dathathri,
//! Gill, You, Pingali, Ramachandran — PPoPP 2019), including every
//! substrate the paper builds on and every baseline it evaluates against.
//!
//! ## Quick start
//!
//! ```
//! use mrbc::prelude::*;
//!
//! // A power-law graph like the paper's rmat inputs.
//! let g = generators::rmat(RmatConfig::new(8, 8), 42);
//!
//! // Approximate BC from 32 sampled sources, on 8 simulated hosts with
//! // the paper's Cartesian vertex-cut and a batch size of 16.
//! let sources = sample::contiguous_sources(g.num_vertices(), 32, 1);
//! let result = bc(&g, &sources, &BcConfig {
//!     algorithm: Algorithm::Mrbc,
//!     num_hosts: 8,
//!     batch_size: 16,
//!     ..BcConfig::default()
//! });
//!
//! let stats = result.stats.expect("distributed run");
//! assert!(stats.num_rounds() > 0);
//! let best = (0..g.num_vertices())
//!     .max_by(|&a, &b| result.bc[a].total_cmp(&result.bc[b]))
//!     .unwrap();
//! println!("most central vertex: {best} (BC = {:.1})", result.bc[best]);
//! ```
//!
//! ## Crate map
//!
//! | Layer | Crate | Contents |
//! |---|---|---|
//! | algorithms | [`mrbc_core`] | MRBC (CONGEST + D-Galois), SBBC, MFBC, ABBC, Brandes oracle, the [`bc`] driver |
//! | distributed substrate | [`mrbc_dgalois`] | partitioners, proxies, Gluon-style sync accounting, BSP stats, cost model |
//! | CONGEST substrate | [`mrbc_congest`] | synchronous round engine with message/bit accounting |
//! | graphs | [`mrbc_graph`] | CSR graphs, generators, traversals, sampling, I/O |
//! | fault injection | [`mrbc_faults`] | seeded fault plans, recovery-overhead ledger |
//! | support | [`mrbc_util`] | bitsets, flat maps, statistics |
//!
//! See `DESIGN.md` for the system inventory and the per-experiment index,
//! and `EXPERIMENTS.md` for paper-vs-measured results.

pub use mrbc_congest as congest;
pub use mrbc_core::{bc, Algorithm, BcConfig, BcResult};
pub use mrbc_dgalois as dgalois;
pub use mrbc_faults as faults;
pub use mrbc_graph as graph;
pub use mrbc_util as util;

/// Convenient single-import surface for examples and downstream users.
pub mod prelude {
    pub use mrbc_core::{bc, brandes, postprocess, tune_batch_size, Algorithm, BcConfig, BcResult};
    pub use mrbc_dgalois::{partition, BspStats, CostModel, DistGraph, PartitionPolicy};
    pub use mrbc_faults::{FaultPlan, FaultSession, RecoveryStats};
    pub use mrbc_graph::generators::{
        self, KroneckerConfig, RmatConfig, RoadNetworkConfig, WebCrawlConfig,
    };
    pub use mrbc_graph::{algo, properties::GraphProperties, sample, CsrGraph, GraphBuilder};
}
