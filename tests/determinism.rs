//! Determinism properties over seeded random digraphs.
//!
//! The protocol-level claim (checked exhaustively by `mrbc-analyze
//! model-check`) is that the engines are deterministic simulations; the
//! stronger engineering claim checked here is *bit*-determinism of the
//! floating-point BC scores:
//!
//! * repeated runs of every engine reproduce byte-identical scores and
//!   identical round/message counts;
//! * the distributed MRBC engine's scores do not depend on the host
//!   count or the source batch size — δ folds in canonical successor
//!   order, never in (partition-dependent) arrival order; σ past 2⁵³,
//!   where the order of a sum shows, keeps that for every host count at
//!   a given batch size (σ sums in flag order within a round, but in
//!   firing order across rounds, which the batch shifts); SBBC and MFBC
//!   fold σ and δ the same way, so their scores do not depend on the
//!   host count either;
//! * the shared-memory ABBC engine's scores do not depend on the
//!   worklist chunk size or thread interleaving — racing relaxations
//!   converge to the same integer distances, and the σ/δ sweeps reduce
//!   in deterministic order.

use mrbc::prelude::*;
use mrbc_core::congest::mrbc::{mrbc_bc as congest_mrbc, TerminationMode};
use mrbc_core::dist::{mfbc, mrbc as dist_mrbc, sbbc};
use mrbc_core::shared::abbc;
use proptest::prelude::*;

/// An arbitrary digraph with up to `max_n` vertices.
fn arb_graph(max_n: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..(4 * n))
            .prop_map(move |edges| GraphBuilder::new(n).edges(edges).build())
    })
}

/// A layered DAG of `layers` layers of `width` vertices (vertex
/// `l · width + x`), each edge from one layer to the next present with
/// probability 0.7. From the first layer, σ passes 2⁵³ within a few
/// dozen layers, so an `f64` sum of σ contributions rounds, and its value
/// depends on the order of the terms.
fn layered_dag(width: u32, layers: u32, seed: u64) -> CsrGraph {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for l in 0..layers - 1 {
        for x in 0..width {
            for y in 0..width {
                if rng.gen_bool(0.7) {
                    edges.push((l * width + x, (l + 1) * width + y));
                }
            }
        }
    }
    GraphBuilder::new((width * layers) as usize)
        .edges(edges)
        .build()
}

/// Distributed MRBC, SBBC and MFBC on σ far past 2⁵³: at each batch
/// size, every policy and host count gives the 1-host scores bit for bit.
/// σ sums a target's contributions in pusher order, whichever hosts push
/// them, and δ is pulled from the successors; merged in host order,
/// `HashedEdgeCut` (whose host order is not vertex order) differs.
#[test]
fn dist_mrbc_bits_independent_of_hosts_past_two_pow_53() {
    type Engine = fn(&CsrGraph, &DistGraph, &[u32], usize) -> Vec<f64>;
    // SBBC runs one source at a time: a batch size does not apply.
    let engines: [(&str, &[usize], Engine); 3] = [
        ("MRBC", &[1, 3, 6], |g, dg, s, b| {
            dist_mrbc::mrbc_bc(g, dg, s, b).bc
        }),
        ("SBBC", &[1], |g, dg, s, _| sbbc::sbbc_bc(g, dg, s).bc),
        ("MFBC", &[1, 3, 6], |g, dg, s, b| {
            mfbc::mfbc_bc(g, dg, s, b).bc
        }),
    ];
    let policies = [
        PartitionPolicy::BlockedEdgeCut,
        PartitionPolicy::HashedEdgeCut,
        PartitionPolicy::CartesianVertexCut,
    ];
    let sources: Vec<u32> = (0..6).collect();
    for seed in 0..4 {
        let g = layered_dag(6, 40, seed);
        let deepest = brandes::forward_counts(&g, 0).1[6 * 39];
        assert!(deepest > 2f64.powi(53), "seed {seed}: σ {deepest}");
        let one = partition(&g, 1, PartitionPolicy::BlockedEdgeCut);
        for (name, batches, engine) in engines {
            for &batch in batches {
                let base = engine(&g, &one, &sources, batch);
                for policy in policies {
                    for hosts in [1usize, 2, 3, 4, 7] {
                        let dg = partition(&g, hosts, policy);
                        let got = engine(&g, &dg, &sources, batch);
                        assert!(
                            bits(&got) == bits(&base),
                            "{name} seed {seed} batch {batch} {policy:?} hosts {hosts}"
                        );
                    }
                }
            }
        }
    }
}

/// Byte-exact fingerprint of a score vector.
fn bits(bc: &[f64]) -> Vec<u64> {
    bc.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The CONGEST simulation is a deterministic function of the input:
    /// scores, protocol rounds, and message counts all reproduce.
    #[test]
    fn prop_congest_runs_reproduce_bit_identically(g in arb_graph(40), seed in 0u64..500) {
        let n = g.num_vertices();
        let sources = sample::uniform_sources(n, (n / 2).max(1), seed);
        let a = congest_mrbc(&g, &sources, TerminationMode::GlobalDetection);
        let b = congest_mrbc(&g, &sources, TerminationMode::GlobalDetection);
        prop_assert_eq!(bits(&a.bc), bits(&b.bc));
        prop_assert_eq!(a.forward.rounds, b.forward.rounds);
        prop_assert_eq!(a.forward.messages, b.forward.messages);
        prop_assert_eq!(a.forward.bits, b.forward.bits);
    }

    /// Distributed MRBC: the partition shapes communication, never the
    /// scores. Every (hosts, batch) combination yields byte-identical BC,
    /// and the BSP round count is a protocol property, independent of the
    /// host count.
    #[test]
    fn prop_dist_mrbc_bits_independent_of_hosts_and_batch(
        g in arb_graph(40),
        seed in 0u64..500,
    ) {
        let n = g.num_vertices();
        let sources = sample::uniform_sources(n, (n / 2).max(1), seed);
        let base = dist_mrbc::mrbc_bc(
            &g,
            &partition(&g, 1, PartitionPolicy::CartesianVertexCut),
            &sources,
            8,
        );
        let mut rounds_by_batch: Vec<(usize, u64)> = Vec::new();
        for hosts in [1usize, 2, 3, 4] {
            let dg = partition(&g, hosts, PartitionPolicy::CartesianVertexCut);
            for batch in [1usize, 4, 16] {
                let got = dist_mrbc::mrbc_bc(&g, &dg, &sources, batch);
                prop_assert_eq!(
                    bits(&base.bc), bits(&got.bc),
                    "hosts {} batch {}", hosts, batch
                );
                rounds_by_batch.push((batch, got.stats.num_rounds() as u64));
            }
        }
        // Same batch size => same BSP round count, whatever the hosts.
        for batch in [1usize, 4, 16] {
            let rounds: Vec<u64> = rounds_by_batch
                .iter()
                .filter(|&&(b, _)| b == batch)
                .map(|&(_, r)| r)
                .collect();
            prop_assert!(
                rounds.windows(2).all(|w| w[0] == w[1]),
                "batch {} rounds varied with hosts: {:?}", batch, rounds
            );
        }
    }

    /// Repeated distributed runs reproduce the full fingerprint: scores,
    /// rounds, shipped bytes, and synchronized items.
    #[test]
    fn prop_dist_mrbc_runs_reproduce_bit_identically(
        g in arb_graph(40),
        hosts in 1usize..5,
        batch in 1usize..10,
        seed in 0u64..500,
    ) {
        let n = g.num_vertices();
        let sources = sample::uniform_sources(n, (n / 2).max(1), seed);
        let dg = partition(&g, hosts, PartitionPolicy::CartesianVertexCut);
        let a = dist_mrbc::mrbc_bc(&g, &dg, &sources, batch);
        let b = dist_mrbc::mrbc_bc(&g, &dg, &sources, batch);
        prop_assert_eq!(bits(&a.bc), bits(&b.bc));
        prop_assert_eq!(a.stats.num_rounds(), b.stats.num_rounds());
        prop_assert_eq!(a.stats.total_bytes(), b.stats.total_bytes());
        prop_assert_eq!(a.stats.total_sync_items(), b.stats.total_sync_items());
    }

    /// ABBC races its relaxations across OS threads, yet the scores are a
    /// pure function of the graph: chunk size (and hence thread
    /// interleaving) must not change a single bit.
    #[test]
    fn prop_abbc_bits_independent_of_chunking(g in arb_graph(40), seed in 0u64..500) {
        let n = g.num_vertices();
        let sources = sample::uniform_sources(n, (n / 2).max(1), seed);
        let base = abbc::abbc_bc(&g, &sources, 1);
        for chunk in [2usize, 8, 64] {
            let got = abbc::abbc_bc(&g, &sources, chunk);
            prop_assert_eq!(bits(&base.bc), bits(&got.bc), "chunk {}", chunk);
        }
        let again = abbc::abbc_bc(&g, &sources, 1);
        // Scores only: `work_units` counts racing relaxations, which do
        // depend on the interleaving.
        prop_assert_eq!(bits(&base.bc), bits(&again.bc));
    }
}
