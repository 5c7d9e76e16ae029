//! Top-level betweenness-centrality driver.
//!
//! One entry point over every algorithm in the workspace, so examples and
//! benchmarks can sweep algorithms/partitions/host counts uniformly.

use crate::dist;
use crate::shared::abbc;
use mrbc_dgalois::{partition, BspStats, CostModel, PartitionPolicy};
use mrbc_faults::{FaultPlan, FaultSession, RecoveryStats};
use mrbc_graph::{CsrGraph, VertexId};

/// Which BC algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Min-Rounds BC (this paper) on the simulated D-Galois substrate.
    Mrbc,
    /// Synchronous-Brandes BC on the simulated D-Galois substrate.
    Sbbc,
    /// Maximal-Frontier BC on the simulated D-Galois substrate.
    Mfbc,
    /// Asynchronous-Brandes BC on shared memory (ignores `num_hosts`).
    Abbc,
    /// Sequential Brandes (the oracle; ignores distribution settings).
    Brandes,
}

impl Algorithm {
    /// Short display name matching the paper's abbreviations.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Mrbc => "MRBC",
            Algorithm::Sbbc => "SBBC",
            Algorithm::Mfbc => "MFBC",
            Algorithm::Abbc => "ABBC",
            Algorithm::Brandes => "Brandes",
        }
    }
}

/// Configuration for a BC run.
#[derive(Clone, Debug)]
pub struct BcConfig {
    /// Algorithm to execute.
    pub algorithm: Algorithm,
    /// Simulated host count (distributed algorithms).
    pub num_hosts: usize,
    /// Partition policy (distributed algorithms).
    pub partition: PartitionPolicy,
    /// Source batch size `k` (MRBC / MFBC).
    pub batch_size: usize,
    /// Worklist chunk size (ABBC).
    pub chunk_size: usize,
    /// Cost model used to derive execution-time estimates.
    pub cost: CostModel,
    /// Compute lanes per simulated host. The [`CostModel`]'s per-unit
    /// cost is already calibrated to a full 48-thread Skylake host, so
    /// the default is 1; raise it to model beefier hosts.
    pub threads_per_host: usize,
    /// Fault plan to inject (distributed algorithms only). Drops,
    /// duplicates, and delays are masked by the reliable-delivery layer —
    /// BC results stay bitwise-identical, only overhead is charged.
    pub faults: Option<FaultPlan>,
}

impl Default for BcConfig {
    fn default() -> Self {
        Self {
            algorithm: Algorithm::Mrbc,
            num_hosts: 1,
            partition: PartitionPolicy::CartesianVertexCut,
            batch_size: 32,
            chunk_size: abbc::DEFAULT_CHUNK_SIZE,
            cost: CostModel::default(),
            threads_per_host: 1,
            faults: None,
        }
    }
}

/// Result of a driver run.
#[derive(Clone, Debug)]
pub struct BcResult {
    /// Betweenness scores restricted to the requested sources.
    pub bc: Vec<f64>,
    /// BSP statistics (distributed algorithms only).
    pub stats: Option<BspStats>,
    /// Modeled execution time under the configured [`CostModel`].
    pub execution_time: f64,
    /// Modeled computation component of `execution_time`.
    pub computation_time: f64,
    /// Modeled non-overlapped communication component.
    pub communication_time: f64,
    /// Fault/recovery ledger (present iff a fault plan was injected).
    pub recovery: Option<RecoveryStats>,
}

/// Runs the configured algorithm over `g` for `sources`.
pub fn bc(g: &CsrGraph, sources: &[VertexId], config: &BcConfig) -> BcResult {
    match config.algorithm {
        Algorithm::Brandes => {
            let bc = crate::brandes::bc_sources(g, sources);
            // Model: sequential Brandes work ≈ Σ_s (n + m) relaxations.
            let work = sources.len() as f64 * (g.num_vertices() + g.num_edges()) as f64;
            let t = work * config.cost.compute_sec_per_unit;
            BcResult {
                bc,
                stats: None,
                execution_time: t,
                computation_time: t,
                communication_time: 0.0,
                recovery: None,
            }
        }
        Algorithm::Abbc => {
            let out = abbc::abbc_bc(g, sources, config.chunk_size);
            let t = out.modeled_time(&config.cost, config.threads_per_host);
            BcResult {
                bc: out.bc,
                stats: None,
                execution_time: t,
                computation_time: t,
                communication_time: 0.0,
                recovery: None,
            }
        }
        Algorithm::Mrbc | Algorithm::Sbbc | Algorithm::Mfbc => {
            let dg = partition(g, config.num_hosts, config.partition);
            let session = config.faults.clone().map(FaultSession::new);
            let (out, recovery) = match (&config.algorithm, &session) {
                (Algorithm::Mrbc, None) => (
                    dist::mrbc::mrbc_bc(g, &dg, sources, config.batch_size),
                    None,
                ),
                (Algorithm::Mrbc, Some(s)) => {
                    let opts = dist::mrbc::MrbcOptions {
                        batch_size: config.batch_size,
                        ..dist::mrbc::MrbcOptions::default()
                    };
                    let (out, rec) = dist::mrbc::mrbc_bc_with_faults(g, &dg, sources, &opts, s);
                    (out, Some(rec))
                }
                (Algorithm::Sbbc, None) => (dist::sbbc::sbbc_bc(g, &dg, sources), None),
                (Algorithm::Sbbc, Some(s)) => {
                    let (out, rec) = dist::sbbc::sbbc_bc_with_faults(g, &dg, sources, s);
                    (out, Some(rec))
                }
                (Algorithm::Mfbc, None) => (
                    dist::mfbc::mfbc_bc(g, &dg, sources, config.batch_size),
                    None,
                ),
                (Algorithm::Mfbc, Some(s)) => {
                    let (out, rec) =
                        dist::mfbc::mfbc_bc_with_faults(g, &dg, sources, config.batch_size, s);
                    (out, Some(rec))
                }
                _ => unreachable!(),
            };
            // Per-host compute is spread over the host's threads.
            let mut cost = config.cost;
            cost.compute_sec_per_unit /= config.threads_per_host.max(1) as f64;
            let compute = out.stats.computation_time(&cost);
            let comm = out.stats.communication_time(&cost);
            BcResult {
                bc: out.bc,
                stats: Some(out.stats),
                execution_time: compute + comm,
                computation_time: compute,
                communication_time: comm,
                recovery,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrbc_graph::generators;

    #[test]
    fn all_algorithms_agree_through_the_driver() {
        let g = generators::rmat(generators::RmatConfig::new(6, 4), 77);
        let sources: Vec<u32> = (0..8).collect();
        let oracle = bc(
            &g,
            &sources,
            &BcConfig {
                algorithm: Algorithm::Brandes,
                ..BcConfig::default()
            },
        );
        for alg in [
            Algorithm::Mrbc,
            Algorithm::Sbbc,
            Algorithm::Mfbc,
            Algorithm::Abbc,
        ] {
            let cfg = BcConfig {
                algorithm: alg,
                num_hosts: 4,
                ..BcConfig::default()
            };
            let out = bc(&g, &sources, &cfg);
            for (i, (got, want)) in out.bc.iter().zip(&oracle.bc).enumerate() {
                assert!(
                    (got - want).abs() < 1e-9 * want.abs().max(1.0),
                    "{}: BC[{i}] {got} vs {want}",
                    alg.name()
                );
            }
            assert!(out.execution_time > 0.0 && out.execution_time.is_finite());
        }
    }

    #[test]
    fn partition_policy_does_not_change_results() {
        let g = generators::rmat(generators::RmatConfig::new(6, 4), 5);
        let sources: Vec<u32> = (0..6).collect();
        let mut results = Vec::new();
        for policy in [
            mrbc_dgalois::PartitionPolicy::BlockedEdgeCut,
            mrbc_dgalois::PartitionPolicy::HashedEdgeCut,
            mrbc_dgalois::PartitionPolicy::CartesianVertexCut,
        ] {
            let cfg = BcConfig {
                algorithm: Algorithm::Mrbc,
                num_hosts: 3,
                partition: policy,
                ..BcConfig::default()
            };
            results.push(bc(&g, &sources, &cfg).bc);
        }
        for r in &results[1..] {
            for (a, b) in r.iter().zip(&results[0]) {
                assert!((a - b).abs() < 1e-9 * b.abs().max(1.0));
            }
        }
    }

    #[test]
    fn more_hosts_do_not_increase_computation_time() {
        // Strong-scaling sanity at the driver level: the per-round max
        // host work shrinks as the partition spreads.
        let g = generators::kronecker(generators::KroneckerConfig::new(9, 8), 3);
        let sources: Vec<u32> = (0..16).collect();
        let time_at = |h: usize| {
            bc(
                &g,
                &sources,
                &BcConfig {
                    algorithm: Algorithm::Sbbc,
                    num_hosts: h,
                    ..BcConfig::default()
                },
            )
            .computation_time
        };
        assert!(time_at(8) < time_at(1));
    }

    #[test]
    fn faulty_driver_runs_match_clean_ones_and_report_overhead() {
        let g = generators::rmat(generators::RmatConfig::new(6, 4), 9);
        let sources: Vec<u32> = (0..6).collect();
        for alg in [Algorithm::Mrbc, Algorithm::Sbbc, Algorithm::Mfbc] {
            let base = BcConfig {
                algorithm: alg,
                num_hosts: 3,
                ..BcConfig::default()
            };
            let clean = bc(&g, &sources, &base);
            let faulty_cfg = BcConfig {
                faults: Some("drop:p=0.05;seed=42".parse().unwrap()),
                ..base
            };
            let faulty = bc(&g, &sources, &faulty_cfg);
            assert_eq!(clean.bc, faulty.bc, "{}: masking must be exact", alg.name());
            let rec = faulty.recovery.expect("fault plan produces a ledger");
            assert!(rec.drops > 0 || rec.retransmissions > 0, "{rec:?}");
            assert!(clean.recovery.is_none());
            assert!(
                faulty.communication_time >= clean.communication_time,
                "{}: retries cannot make the run cheaper",
                alg.name()
            );
        }
    }

    /// `batch_size` far beyond `n` must behave exactly like one all-source
    /// batch: no panics, and scores bit-identical to a normal batched run
    /// (the determinism contract makes batch size invisible in results).
    #[test]
    fn batch_size_larger_than_n_is_safe_and_identical() {
        let g = generators::rmat(generators::RmatConfig::new(5, 4), 3);
        let sources: Vec<u32> = (0..g.num_vertices() as u32).collect();
        for alg in [Algorithm::Mrbc, Algorithm::Mfbc] {
            let run = |batch: usize| {
                bc(
                    &g,
                    &sources,
                    &BcConfig {
                        algorithm: alg,
                        num_hosts: 2,
                        batch_size: batch,
                        ..BcConfig::default()
                    },
                )
                .bc
            };
            assert_eq!(
                run(10 * g.num_vertices()),
                run(4),
                "{}: oversized batch diverged",
                alg.name()
            );
        }
    }

    /// Duplicate and unsorted source lists: the batched algorithms
    /// canonicalize (sort + dedup) their source set, so a list with
    /// repeats and arbitrary order must score identically to its sorted
    /// deduplicated form.
    #[test]
    fn duplicate_and_non_contiguous_sources_are_canonicalized() {
        let g = generators::rmat(generators::RmatConfig::new(5, 4), 11);
        let messy: Vec<u32> = vec![9, 3, 3, 27, 9, 14, 0, 27];
        let canonical: Vec<u32> = vec![0, 3, 9, 14, 27];
        for alg in [Algorithm::Mrbc, Algorithm::Mfbc] {
            let cfg = BcConfig {
                algorithm: alg,
                num_hosts: 3,
                batch_size: 2,
                ..BcConfig::default()
            };
            assert_eq!(
                bc(&g, &messy, &cfg).bc,
                bc(&g, &canonical, &cfg).bc,
                "{}: messy source list diverged from canonical form",
                alg.name()
            );
        }
        // The same canonical set scored by the oracle bounds correctness
        // (not just self-consistency).
        let oracle = crate::brandes::bc_sources(&g, &canonical);
        let got = bc(
            &g,
            &messy,
            &BcConfig {
                algorithm: Algorithm::Mrbc,
                num_hosts: 3,
                batch_size: 2,
                ..BcConfig::default()
            },
        )
        .bc;
        for (i, (a, b)) in got.iter().zip(&oracle).enumerate() {
            assert!(
                (a - b).abs() < 1e-9 * b.abs().max(1.0),
                "BC[{i}]: {a} vs oracle {b}"
            );
        }
    }

    /// Lemma 8 batching must be results-invisible at both extremes:
    /// `batch_size = 1` (every source its own batch) and `batch_size = n`
    /// (one batch) produce bit-identical score vectors.
    #[test]
    fn batch_one_and_batch_n_fingerprints_agree() {
        let g = generators::rmat(generators::RmatConfig::new(5, 5), 21);
        let n = g.num_vertices();
        let sources: Vec<u32> = (0..n as u32).step_by(3).collect();
        for alg in [Algorithm::Mrbc, Algorithm::Mfbc] {
            let run = |batch: usize| {
                bc(
                    &g,
                    &sources,
                    &BcConfig {
                        algorithm: alg,
                        num_hosts: 2,
                        batch_size: batch,
                        ..BcConfig::default()
                    },
                )
                .bc
            };
            let one = run(1);
            let all = run(n);
            assert_eq!(one, all, "{}: batch 1 vs n diverged", alg.name());
            // Bit-equality means equal fingerprints under any hash; use
            // the raw IEEE-754 bits as the canonical fingerprint.
            let fp = |v: &[f64]| {
                v.iter()
                    .fold(0u64, |h, x| mrbc_util::splitmix64(h ^ x.to_bits()))
            };
            assert_eq!(fp(&one), fp(&all));
        }
    }

    #[test]
    fn distributed_results_carry_stats() {
        let g = generators::cycle(20);
        let cfg = BcConfig {
            algorithm: Algorithm::Mrbc,
            num_hosts: 2,
            ..BcConfig::default()
        };
        let out = bc(&g, &[0, 5], &cfg);
        let stats = out.stats.expect("distributed run records stats");
        assert!(stats.num_rounds() > 0);
        assert!(
            (out.execution_time - (out.computation_time + out.communication_time)).abs() < 1e-12
        );
    }
}
