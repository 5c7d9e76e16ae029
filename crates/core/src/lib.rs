//! Min-Rounds Betweenness Centrality (MRBC) and its baselines.
//!
//! This crate implements the algorithms of *"A Round-Efficient Distributed
//! Betweenness Centrality Algorithm"* (Hoang et al., PPoPP 2019) and every
//! baseline the paper evaluates against:
//!
//! | Module | Algorithm | Substrate |
//! |---|---|---|
//! | [`brandes`] | sequential Brandes BC (the correctness oracle) | — |
//! | [`congest::mrbc`] | MRBC: Algorithms 3 (Directed-APSP), 4 (APSP-Finalizer) and 5 (timestamped accumulation) | CONGEST simulator |
//! | [`congest::sbbc`] | synchronous Brandes (level-by-level BFS) | CONGEST simulator |
//! | [`dist::mrbc`] | MRBC with the paper's D-Galois optimizations: flat label arrays and a send calendar in place of `A_v`/`M_v`, delayed synchronization, proxy sync rule | simulated D-Galois |
//! | [`dist::sbbc`] | Synchronous-Brandes BC (SBBC) | simulated D-Galois |
//! | [`dist::mfbc`] | Maximal-Frontier BC (Solomonik et al.) | simulated D-Galois |
//! | [`shared::abbc`] | Asynchronous-Brandes BC (Lonestar) | shared memory + Rayon |
//! | [`tune`] | batch-size autotuner (the paper's §5.2 "future work") | — |
//!
//! Every algorithm here is stated for unweighted digraphs, as in the paper.
//! The top-level [`bc`] driver dispatches on [`BcConfig`]. All
//! implementations agree with the oracle to floating-point accumulation
//! tolerance; the integration suite in the workspace root enforces this
//! across graph shapes, partition policies, and host counts.

pub mod brandes;
pub mod congest;
pub mod dist;
mod driver;
pub mod postprocess;
pub mod probes;
mod schedule;
pub mod shared;
pub mod tune;

pub use driver::{bc, Algorithm, BcConfig, BcResult};
pub use tune::{tune_batch_size, TuneOutcome, TuneSample};
