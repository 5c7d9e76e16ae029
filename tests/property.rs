//! Property-based tests over random digraphs: algorithm equivalence,
//! Theorem 1 bounds, and partition invariants hold for *arbitrary*
//! inputs, not just the curated shapes.

use mrbc::prelude::*;
use mrbc_core::congest::mrbc::{mrbc_bc as congest_mrbc, TerminationMode};
use mrbc_core::dist::mrbc as dist_mrbc;
use mrbc_graph::{VertexId, INF_DIST};
use proptest::prelude::*;

/// An arbitrary digraph with up to `max_n` vertices.
fn arb_graph(max_n: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..(4 * n))
            .prop_map(move |edges| GraphBuilder::new(n).edges(edges).build())
    })
}

fn close(a: &[f64], b: &[f64]) -> bool {
    a.iter()
        .zip(b)
        .all(|(x, y)| (x - y).abs() < 1e-9 * y.abs().max(1.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_congest_mrbc_matches_brandes(g in arb_graph(30), seed in 0u64..1000) {
        let n = g.num_vertices();
        let k = (n / 2).max(1);
        let sources = sample::uniform_sources(n, k, seed);
        let want = brandes::bc_sources(&g, &sources);
        let got = congest_mrbc(&g, &sources, TerminationMode::GlobalDetection);
        prop_assert!(close(&got.bc, &want), "got {:?}\nwant {:?}", got.bc, want);
    }

    #[test]
    fn prop_dist_mrbc_matches_brandes(
        g in arb_graph(30),
        hosts in 1usize..5,
        batch in 1usize..6,
        seed in 0u64..1000,
    ) {
        let n = g.num_vertices();
        let sources = sample::uniform_sources(n, (n / 2).max(1), seed);
        let want = brandes::bc_sources(&g, &sources);
        let dg = partition(&g, hosts, PartitionPolicy::CartesianVertexCut);
        let got = dist_mrbc::mrbc_bc(&g, &dg, &sources, batch);
        prop_assert!(close(&got.bc, &want));
    }

    #[test]
    fn prop_apsp_matches_bfs(g in arb_graph(25)) {
        let n = g.num_vertices();
        let all: Vec<VertexId> = (0..n as u32).collect();
        let out = congest_mrbc(&g, &all, TerminationMode::FixedTwoN);
        for (j, &s) in out.sources_sorted.iter().enumerate() {
            let (d, sig) = algo::bfs_sigma(&g, s);
            prop_assert_eq!(&out.dist[j], &d);
            for (v, &want) in sig.iter().enumerate() {
                prop_assert!((out.sigma[j][v] - want).abs() < 1e-9 * want.max(1.0));
            }
        }
    }

    #[test]
    fn prop_theorem1_round_and_message_bounds(g in arb_graph(25)) {
        let n = g.num_vertices();
        let m = g.num_edges();
        let all: Vec<VertexId> = (0..n as u32).collect();
        let out = congest_mrbc(&g, &all, TerminationMode::FixedTwoN);
        prop_assert!(out.forward.rounds <= 2 * n as u32);
        prop_assert!(out.forward.messages <= (m * n) as u64, "APSP sends at most mn messages");
        prop_assert!(out.backward.messages <= (m * n) as u64, "BC at most doubles messages");
    }

    #[test]
    fn prop_lemma8_kssp_bound(g in arb_graph(25), seed in 0u64..1000) {
        let n = g.num_vertices();
        let k = (n / 3).max(1);
        let sources = sample::uniform_sources(n, k, seed);
        let out = congest_mrbc(&g, &sources, TerminationMode::GlobalDetection);
        let h = out
            .dist
            .iter()
            .flatten()
            .filter(|&&d| d != INF_DIST)
            .max()
            .copied()
            .unwrap_or(0);
        let k = out.sources_sorted.len() as u32;
        prop_assert!(
            out.forward.rounds <= k + h + 1,
            "k-SSP rounds {} > k + H + 1 = {}",
            out.forward.rounds,
            k + h + 1
        );
    }

    #[test]
    fn prop_partition_invariants(
        g in arb_graph(30),
        hosts in 1usize..7,
        policy_idx in 0usize..3,
    ) {
        let policy = [
            PartitionPolicy::BlockedEdgeCut,
            PartitionPolicy::HashedEdgeCut,
            PartitionPolicy::CartesianVertexCut,
        ][policy_idx];
        let dg = partition(&g, hosts, policy);
        dg.check_invariants(&g); // panics (fails the test) on violation
    }

    #[test]
    fn prop_bc_is_nonnegative_and_zero_on_leaves(g in arb_graph(30)) {
        // Vertices with no outgoing or no incoming edges cannot be
        // interior to any shortest path.
        let n = g.num_vertices();
        let bc = brandes::bc_exact(&g);
        let in_deg = g.in_degrees();
        for v in 0..n {
            prop_assert!(bc[v] >= 0.0);
            if g.out_degree(v as u32) == 0 || in_deg[v] == 0 {
                prop_assert_eq!(bc[v], 0.0, "degree-boundary vertex {} has BC {}", v, bc[v]);
            }
        }
    }

    #[test]
    fn prop_bc_total_counts_interior_pair_paths(g in arb_graph(20)) {
        // Σ_v BC(v) = Σ_{s≠t reachable} (avg shortest-path interior length),
        // which is bounded by (#reachable ordered pairs) · (n − 2).
        let n = g.num_vertices();
        let bc = brandes::bc_exact(&g);
        let total: f64 = bc.iter().sum();
        let mut pairs = 0u64;
        for s in 0..n as u32 {
            let d = algo::bfs_distances(&g, s);
            pairs += d
                .iter()
                .enumerate()
                .filter(|&(t, &dt)| t != s as usize && dt != INF_DIST)
                .count() as u64;
        }
        prop_assert!(total <= (pairs as f64) * (n.saturating_sub(2)) as f64 + 1e-9);
        // Each pair at distance d contributes exactly d − 1 to the total.
        let mut expect = 0.0f64;
        for s in 0..n as u32 {
            let d = algo::bfs_distances(&g, s);
            for (t, &dt) in d.iter().enumerate() {
                if t != s as usize && dt != INF_DIST && dt >= 1 {
                    expect += (dt - 1) as f64;
                }
            }
        }
        prop_assert!(
            (total - expect).abs() < 1e-6 * expect.max(1.0),
            "Σ BC = {total}, Σ (d(s,t) − 1) = {expect}"
        );
    }
}

/// An arbitrary *maskable* fault plan (drops, duplication, stragglers —
/// no crashes) over a fixed host count.
fn arb_maskable_plan(hosts: usize) -> impl Strategy<Value = FaultPlan> {
    (
        0u32..400, // drop probability, in permille
        0u32..200, // duplication probability, in permille
        proptest::collection::vec((0..hosts, 0..hosts, 1u32..4), 0..3),
        0u64..1_000_000,
    )
        .prop_map(|(drop_pm, dup_pm, delays, seed)| FaultPlan {
            seed,
            kills: Vec::new(),
            worker_kills: Vec::new(),
            worker_pauses: Vec::new(),
            partitions: Vec::new(),
            stall_ms: 0,
            hangups: Vec::new(),
            torn_wal_rec: None,
            fsyncfail_ms: 0,
            churn: None,
            drop_p: drop_pm as f64 / 1000.0,
            dup_p: dup_pm as f64 / 1000.0,
            delays: delays
                .into_iter()
                .map(|(a, b, rounds)| mrbc::faults::DelayFault { a, b, rounds })
                .collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The reliable-delivery layer masks *any* plan of drops, duplicates,
    /// and delays completely: BC scores are bitwise-identical to the
    /// fault-free run and the logical round structure is untouched — the
    /// faults only show up as overhead in the recovery ledger.
    #[test]
    fn prop_maskable_faults_never_change_bc(
        g in arb_graph(30),
        hosts in 2usize..5,
        batch in 1usize..6,
        plan in arb_maskable_plan(4),
        seed in 0u64..1000,
    ) {
        prop_assert!(plan.is_maskable(), "plan built from maskable clauses only");
        let n = g.num_vertices();
        let sources = sample::uniform_sources(n, (n / 2).max(1), seed);
        let dg = partition(&g, hosts, PartitionPolicy::CartesianVertexCut);
        let clean = dist_mrbc::mrbc_bc(&g, &dg, &sources, batch);
        let opts = dist_mrbc::MrbcOptions {
            batch_size: batch,
            ..dist_mrbc::MrbcOptions::default()
        };
        let session = FaultSession::new(plan);
        let (faulty, recovery) =
            dist_mrbc::mrbc_bc_with_faults(&g, &dg, &sources, &opts, &session);
        // Bitwise, not approximate: masking means the program never
        // observes the faults.
        prop_assert_eq!(clean.bc, faulty.bc);
        prop_assert_eq!(clean.stats.num_rounds(), faulty.stats.num_rounds());
        prop_assert_eq!(clean.stats.total_bytes(), faulty.stats.total_bytes());
        prop_assert_eq!(recovery.retry_bytes, faulty.stats.total_retry_bytes());
    }
}
