//! Property tests for the incremental maintenance path: an
//! `EpochStore` with the `mrbc-incr` engine enabled must be
//! *observationally indistinguishable* — bit for bit, f64-as-bits —
//! from a store that drops every cache and recomputes from scratch on
//! each mutation.
//!
//! Three graph families probe the claim from different angles:
//!
//! * random add/remove sequences on a seeded power-law (R-MAT) graph —
//!   the serving tier's target workload, shallow cones, heavy reuse;
//! * the same sequences on a road-network grid — large diameter, wide
//!   cones, often half the sources or more rebuilt per mutation;
//! * exhaustive enumeration: every digraph on 3 vertices under every
//!   applicable single-edge mutation, plus every ordered pair on an
//!   8-vertex graph — the shapes where off-by-one cone tests and DAG
//!   edge-cases actually live.
//!
//! After every epoch bump the full BC vector AND the per-source forward
//! artifacts (distances, path counts) are compared against the
//! recompute store. Equality is on bits, not on `==`: the maintained
//! path must replay the exact canonical fold, not merely land close.

use mrbc_core::BcConfig;
use mrbc_graph::{generators, CsrGraph, GraphBuilder, VertexId};
use mrbc_serve::{EpochStore, IncrConfig, MutateOp};

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// A maintained store and a drop-and-recompute twin over the same
/// starting graph.
fn twin_stores(g: &CsrGraph) -> (EpochStore, EpochStore) {
    let cfg = BcConfig::default();
    let incr = EpochStore::new(g.clone(), cfg.clone());
    let full = EpochStore::with_incr(
        g.clone(),
        cfg,
        IncrConfig {
            enabled: false,
            ..IncrConfig::default()
        },
    );
    (incr, full)
}

/// Asserts every serving-visible artifact matches between the twins:
/// the full BC vector and, for each vertex, the forward distance and
/// sigma arrays a `Forward` query would return.
fn assert_observationally_equal(incr: &EpochStore, full: &EpochStore, ctx: &str) {
    assert_eq!(incr.epoch(), full.epoch(), "{ctx}: epochs diverged");
    let a = incr.full_bc();
    let b = full.full_bc();
    assert_eq!(bits(&a), bits(&b), "{ctx}: bc diverged");
    let (n, _) = incr.graph_info();
    for s in 0..n as VertexId {
        let fa = incr.forward(s);
        let fb = full.forward(s);
        assert_eq!(fa.0, fb.0, "{ctx}: dist diverged at source {s}");
        assert_eq!(
            bits(&fa.1),
            bits(&fb.1),
            "{ctx}: sigma diverged at source {s}"
        );
    }
}

/// Deterministic add/remove stream; op chosen by current edge presence
/// so every probe is applicable and both twins see identical streams.
fn probe(g: &CsrGraph, i: u64, seed: u64) -> Option<(MutateOp, VertexId, VertexId)> {
    let n = g.num_vertices() as u64;
    let b = mrbc_util::splitmix64(i ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let u = (b % n) as VertexId;
    let v = ((b >> 32) % n) as VertexId;
    if u == v {
        return None;
    }
    let op = if g.has_edge(u, v) {
        MutateOp::RemoveEdge
    } else {
        MutateOp::AddEdge
    };
    Some((op, u, v))
}

/// Drives `steps` applied mutations through both twins, checking full
/// observational parity after every epoch bump.
fn run_sequence(g: &CsrGraph, steps: usize, seed: u64) {
    let (incr, full) = twin_stores(g);
    // Warm the maintained store so the engine is resident; the twin
    // warms too so the first comparison exercises both build paths.
    assert_observationally_equal(&incr, &full, "warmup");
    let mut applied = 0usize;
    let mut i = 0u64;
    while applied < steps {
        let Some((op, u, v)) = probe(&incr.graph(), i, seed) else {
            i += 1;
            continue;
        };
        i += 1;
        let oa = incr.mutate(op, u, v);
        let ob = full.mutate(op, u, v);
        assert_eq!(oa.applied, ob.applied, "applicability diverged at step {i}");
        if !oa.applied {
            continue;
        }
        applied += 1;
        assert_observationally_equal(&incr, &full, &format!("seed {seed} step {i}"));
    }
    // The maintained store must actually have maintained something —
    // otherwise this test silently degraded into recompute-vs-recompute.
    let warm = incr.mutate(MutateOp::AddEdge, 0, (g.num_vertices() as VertexId) - 1);
    assert!(
        !warm.applied || warm.maintenance.is_some(),
        "engine was not resident after the sequence"
    );
}

#[test]
fn powerlaw_random_mutation_sequences_preserve_bit_parity() {
    let g = generators::rmat(generators::RmatConfig::new(5, 8), 11);
    for seed in [1u64, 7, 23] {
        run_sequence(&g, 12, seed);
    }
}

#[test]
fn road_random_mutation_sequences_preserve_bit_parity() {
    let g = generators::grid_road_network(generators::RoadNetworkConfig::new(4, 6), 3);
    for seed in [2u64, 9] {
        run_sequence(&g, 12, seed);
    }
}

/// Every digraph on 3 vertices, every applicable single-edge mutation:
/// the store-level analogue of the engine's own exhaustive test, here
/// exercising the full mutate/publish/forward pipeline.
#[test]
fn exhaustive_three_vertex_digraphs_every_mutation() {
    let n = 3usize;
    let pairs: Vec<(VertexId, VertexId)> = (0..n as VertexId)
        .flat_map(|u| (0..n as VertexId).map(move |v| (u, v)))
        .filter(|&(u, v)| u != v)
        .collect();
    for mask in 0..(1u32 << pairs.len()) {
        let g = GraphBuilder::new(n)
            .edges(
                pairs
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &p)| p),
            )
            .build();
        for &(u, v) in &pairs {
            let op = if g.has_edge(u, v) {
                MutateOp::RemoveEdge
            } else {
                MutateOp::AddEdge
            };
            let (incr, full) = twin_stores(&g);
            assert_observationally_equal(&incr, &full, "pre");
            let oa = incr.mutate(op, u, v);
            let ob = full.mutate(op, u, v);
            assert_eq!(oa.applied, ob.applied);
            assert!(
                oa.maintenance.is_some(),
                "warm store must maintain (mask={mask:#b} {u}->{v})"
            );
            assert_observationally_equal(&incr, &full, &format!("mask={mask:#b} {op:?} {u}->{v}"));
        }
    }
}

/// An 8-vertex graph under every ordered-pair mutation — diameters and
/// multi-path counts that 3 vertices cannot express.
#[test]
fn eight_vertex_graph_every_ordered_pair_mutation() {
    let n = 8usize;
    // Cycle plus chords: multiple shortest paths, nontrivial levels.
    let g = GraphBuilder::new(n)
        .edges((0..n as VertexId).map(|u| (u, (u + 1) % n as VertexId)))
        .edge(0, 4)
        .edge(2, 6)
        .edge(5, 1)
        .build();
    for u in 0..n as VertexId {
        for v in 0..n as VertexId {
            if u == v {
                continue;
            }
            let op = if g.has_edge(u, v) {
                MutateOp::RemoveEdge
            } else {
                MutateOp::AddEdge
            };
            let (incr, full) = twin_stores(&g);
            assert_observationally_equal(&incr, &full, "pre");
            let oa = incr.mutate(op, u, v);
            let ob = full.mutate(op, u, v);
            assert_eq!(oa.applied, ob.applied);
            assert_observationally_equal(&incr, &full, &format!("{op:?} {u}->{v}"));
        }
    }
}
