//! Incremental betweenness-centrality maintenance for the serving tier.
//!
//! The offline driver treats every graph as immutable: an edge mutation
//! in `mrbc-serve` drops the whole epoch (full-BC vector plus every
//! per-source forward artifact) and recomputes from scratch, so
//! mutation-to-fresh-epoch latency is Θ(full run) no matter how local
//! the change is. This crate maintains the epoch instead:
//!
//! 1. **Affected-source detection.** For each cached source `s`, a
//!    distance-cone test against the cached `dist_s` array decides
//!    whether the touched edge `(u, v)` can change that source's SSSP
//!    DAG. Adding `(u, v)` affects `s` iff `u` is reachable and
//!    `dist_s(u) + 1 ≤ dist_s(v)` (a shorter path, a new shortest path,
//!    or newly reached `v`); removing it affects `s` iff the edge lay on
//!    the DAG (`dist_s(v) = dist_s(u) + 1` with `u` reachable). Both
//!    tests are *exact*: an unaffected source's distances, path counts,
//!    and dependencies are bitwise unchanged, because the backward fold
//!    filters successors by `dist(w) = dist(u) + 1` and a non-DAG edge
//!    never enters the filtered subsequence.
//! 2. **Canonical rebuild of affected sources only.** Rebuilt artifacts
//!    use the same floating-point contraction and the same ascending
//!    successor fold order as the distributed MRBC kernel, so every
//!    maintained epoch is bit-identical to a fresh full recompute at any
//!    host count and batch size (the PR 3 determinism contract).
//! 3. **Delta adjustment of the full-BC vector.** `BC(v)` is re-folded
//!    from the per-source dependency vectors in ascending source order —
//!    cached vectors for reused sources, fresh ones for rebuilt sources
//!    — reproducing the driver's fold sequence exactly. A literal
//!    subtract-old/add-new would drift in the last ulp; the re-fold is
//!    O(n · sources) flat additions and keeps bit-identity by
//!    construction.
//!
//! Only the affected sources are ever rebuilt: rebuilding an unaffected
//! one reproduces its cached bits, so it would cost time and change
//! nothing. See DESIGN.md §16.

use mrbc_core::brandes;
use mrbc_graph::{CsrGraph, VertexId, INF_DIST};

/// The two edge mutations the serving tier supports, mirrored here so
/// the engine does not depend on the wire protocol crate (which depends
/// on this one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOp {
    /// Insert a directed edge `(u, v)`.
    Add,
    /// Delete a directed edge `(u, v)`.
    Remove,
}

/// Tuning knobs for the incremental maintenance path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncrConfig {
    /// Master switch; `false` restores the drop-and-recompute behaviour.
    pub enabled: bool,
    /// Largest graph the engine will cache artifacts for. The cache is
    /// O(n²) memory (three length-n arrays per source), so the serving
    /// tier only opts in below this bound.
    pub max_vertices: usize,
}

impl Default for IncrConfig {
    fn default() -> Self {
        IncrConfig {
            enabled: true,
            max_vertices: 1024,
        }
    }
}

/// What one [`IncrEngine::apply`] call did, for the serving tier's
/// `sources_reused` / `sources_rebuilt` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrOutcome {
    /// Sources whose cached artifacts survived the epoch bump untouched.
    pub sources_reused: u64,
    /// Sources rebuilt with the canonical kernel this epoch.
    pub sources_rebuilt: u64,
    /// Sources the cone test marked affected — the numerator of the
    /// affected fraction (every one of them is rebuilt).
    pub affected: u64,
    /// Always `false`: the engine rebuilds only the affected sources.
    /// Kept because the benchmark's incremental layer still reads it.
    pub fallback_full: bool,
}

/// Per-source SSSP artifacts: BFS distances ([`INF_DIST`] when
/// unreachable), shortest-path counts `σ_s`, and the dependency vector
/// `δ_s` accumulated in canonical successor order.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceArtifacts {
    /// `dist[v]` = BFS distance from the source to `v`.
    pub dist: Vec<u32>,
    /// `sigma[v]` = number of shortest source→`v` paths (exact: integer
    /// valued and far below 2⁵³ for any graph this cache admits).
    pub sigma: Vec<f64>,
    /// `delta[v]` = dependency of the source on `v`.
    pub delta: Vec<f64>,
}

/// Rebuild one source from scratch with the canonical kernel: Brandes
/// forward pass, then the backward fold in exactly the floating-point
/// order the distributed MRBC engine uses (see [`canonical_backward`]).
pub fn canonical_source(g: &CsrGraph, s: VertexId) -> SourceArtifacts {
    let (dist, sigma) = brandes::forward_counts(g, s);
    let delta = canonical_backward(g, &dist, &sigma);
    SourceArtifacts { dist, sigma, delta }
}

/// The backward dependency fold, bit-compatible with the distributed
/// MRBC kernel. For each vertex `u` in decreasing BFS-distance order,
/// `δ(u)` starts at 0 and accumulates over the DAG successors `w`
/// (CSR out-neighbours in ascending vertex order, filtered to
/// `dist(w) = dist(u) + 1`):
///
/// ```text
/// m = (1 + δ(w)) / σ(w);   δ(u) += σ(u) · m
/// ```
///
/// This is the exact contraction `bwd_push_host` computes per firing
/// vertex and the exact ascending-pushing-vertex order
/// `fold_pending_flags` folds contributions in, so the result is
/// bitwise equal to the distributed backward phase at any host count
/// and batch size. (The sequential Brandes oracle in `mrbc-core` uses a
/// different association — `σ(u)/σ(w) · (1 + δ(w))` — which is equal in
/// exact arithmetic but not in floats; it must not be used here.)
pub fn canonical_backward(g: &CsrGraph, dist: &[u32], sigma: &[f64]) -> Vec<f64> {
    let n = g.num_vertices();
    let mut delta = vec![0.0f64; n];
    // Bucket reachable vertices by BFS level; process levels deepest
    // first so every successor's δ is final before it is read.
    let mut max_d = 0u32;
    for &d in dist {
        if d != INF_DIST && d > max_d {
            max_d = d;
        }
    }
    let mut levels: Vec<Vec<VertexId>> = vec![Vec::new(); max_d as usize + 1];
    for (v, &d) in dist.iter().enumerate() {
        if d != INF_DIST {
            levels[d as usize].push(v as VertexId);
        }
    }
    for level in levels.iter().rev() {
        for &u in level {
            let du = dist[u as usize];
            let su = sigma[u as usize];
            let mut acc = 0.0f64;
            for &w in g.out_neighbors(u) {
                if dist[w as usize] == du + 1 {
                    let m = (1.0 + delta[w as usize]) / sigma[w as usize];
                    acc += su * m;
                }
            }
            delta[u as usize] = acc;
        }
    }
    delta
}

/// Decide whether a mutation of edge `(u, v)` can change source `s`'s
/// artifacts, judged against the *pre-mutation* distance array. Exact
/// in both directions: `true` iff the rebuilt artifacts can differ.
pub fn source_affected(dist: &[u32], op: EdgeOp, u: VertexId, v: VertexId) -> bool {
    let du = dist[u as usize];
    let dv = dist[v as usize];
    if du == INF_DIST {
        // The new/removed edge hangs off an unreachable vertex: no
        // shortest path from `s` can ever cross it.
        return false;
    }
    match op {
        // A shorter path (du + 1 < dv), an additional shortest path
        // (du + 1 = dv), or a newly reachable head (dv = INF). The
        // condition `du + 1 <= dv` is written `du < dv` (same thing;
        // `du` is finite here).
        EdgeOp::Add => dv == INF_DIST || du < dv,
        // Only edges on the SSSP DAG carry shortest paths.
        EdgeOp::Remove => dv != INF_DIST && dv == du + 1,
    }
}

/// The epoch maintenance engine: cached per-source artifacts plus the
/// folded full-BC vector, kept bit-identical to a fresh full recompute
/// across any sequence of [`apply`](IncrEngine::apply) calls.
#[derive(Debug, Clone)]
pub struct IncrEngine {
    per_source: Vec<SourceArtifacts>,
    bc: Vec<f64>,
}

impl IncrEngine {
    /// Build the engine from scratch: every source through the
    /// canonical kernel, then the ascending-source BC fold.
    pub fn build(g: &CsrGraph) -> IncrEngine {
        let n = g.num_vertices();
        let per_source: Vec<SourceArtifacts> =
            (0..n).map(|s| canonical_source(g, s as VertexId)).collect();
        let mut engine = IncrEngine {
            per_source,
            bc: vec![0.0; n],
        };
        engine.refold_bc();
        engine
    }

    /// Number of vertices the cache covers.
    pub fn num_vertices(&self) -> usize {
        self.per_source.len()
    }

    /// The maintained full-BC vector, bit-identical to the offline
    /// driver's result on the current graph.
    pub fn bc(&self) -> &[f64] {
        &self.bc
    }

    /// Cached artifacts for one source.
    pub fn source(&self, s: VertexId) -> &SourceArtifacts {
        &self.per_source[s as usize]
    }

    /// Maintain the epoch across one edge mutation. `g` is the
    /// *post-mutation* graph; the affected-source test runs against the
    /// cached pre-mutation distances, then affected sources are rebuilt
    /// on `g` and the BC vector is re-folded.
    pub fn apply(&mut self, g: &CsrGraph, op: EdgeOp, u: VertexId, v: VertexId) -> IncrOutcome {
        let n = self.per_source.len();
        assert_eq!(g.num_vertices(), n, "mutations never change the vertex set");
        let affected: Vec<VertexId> = (0..n as VertexId)
            .filter(|&s| source_affected(&self.per_source[s as usize].dist, op, u, v))
            .collect();
        for &s in &affected {
            self.per_source[s as usize] = canonical_source(g, s);
        }
        self.refold_bc();
        let rebuilt = affected.len() as u64;
        IncrOutcome {
            sources_reused: n as u64 - rebuilt,
            sources_rebuilt: rebuilt,
            affected: rebuilt,
            fallback_full: false,
        }
    }

    /// Re-fold `BC(v) = Σ_{s ≠ v} δ_s(v)` in ascending source order —
    /// the exact per-element addition sequence of the driver's full-BC
    /// fold (sources ascending, self term skipped).
    fn refold_bc(&mut self) {
        let n = self.per_source.len();
        for v in 0..n {
            let mut acc = 0.0f64;
            for (s, art) in self.per_source.iter().enumerate() {
                if s != v {
                    acc += art.delta[v];
                }
            }
            self.bc[v] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrbc_core::{bc as driver_bc, Algorithm, BcConfig};
    use mrbc_graph::generators::{self, RmatConfig, RoadNetworkConfig};
    use mrbc_graph::GraphBuilder;

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn all_sources(n: usize) -> Vec<VertexId> {
        (0..n as VertexId).collect()
    }

    /// Apply one edge mutation to a CSR graph the way `EpochStore` does.
    fn mutate_graph(g: &CsrGraph, op: EdgeOp, u: VertexId, v: VertexId) -> CsrGraph {
        let n = g.num_vertices();
        match op {
            EdgeOp::Add => GraphBuilder::new(n).edges(g.edges()).edge(u, v).build(),
            EdgeOp::Remove => GraphBuilder::new(n)
                .edges(g.edges().filter(|&(a, b)| (a, b) != (u, v)))
                .build(),
        }
    }

    /// Deterministic mutation stream over vertex ids, alternating
    /// add/remove; skips self loops and inapplicable ops.
    fn probe_mutation(g: &CsrGraph, i: usize) -> Option<(EdgeOp, VertexId, VertexId)> {
        let n = g.num_vertices() as u64;
        let b = mrbc_util::splitmix64(i as u64 ^ 0x51ab_01c2);
        let u = (b % n) as VertexId;
        let v = ((b >> 32) % n) as VertexId;
        if u == v {
            return None;
        }
        let op = if g.has_edge(u, v) {
            EdgeOp::Remove
        } else {
            EdgeOp::Add
        };
        Some((op, u, v))
    }

    /// The keystone: the engine's BC vector is bit-identical to the
    /// distributed MRBC driver at several host counts and batch sizes.
    #[test]
    fn engine_bc_bit_matches_mrbc_driver_across_configs() {
        for g in [
            generators::rmat(RmatConfig::new(5, 8), 11),
            generators::grid_road_network(RoadNetworkConfig::new(4, 6), 3),
        ] {
            let engine = IncrEngine::build(&g);
            let sources = all_sources(g.num_vertices());
            for hosts in [1, 2, 4] {
                for batch in [1, 4, 32] {
                    let cfg = BcConfig {
                        algorithm: Algorithm::Mrbc,
                        num_hosts: hosts,
                        batch_size: batch,
                        ..BcConfig::default()
                    };
                    let full = driver_bc(&g, &sources, &cfg);
                    assert_eq!(
                        bits(engine.bc()),
                        bits(&full.bc),
                        "hosts={hosts} batch={batch}"
                    );
                }
            }
        }
    }

    /// Forward artifacts agree with the Brandes oracle the serving tier
    /// already exposes for point queries.
    #[test]
    fn forward_artifacts_match_brandes_oracle() {
        let g = generators::rmat(RmatConfig::new(5, 8), 7);
        let engine = IncrEngine::build(&g);
        for s in 0..g.num_vertices() as VertexId {
            let (dist, sigma) = brandes::forward_counts(&g, s);
            assert_eq!(engine.source(s).dist, dist);
            assert_eq!(bits(&engine.source(s).sigma), bits(&sigma));
        }
    }

    /// After every mutation in a seeded stream, `apply` must reproduce a
    /// from-scratch rebuild bit for bit — BC vector and all artifacts.
    #[test]
    fn apply_bit_matches_rebuild_across_mutation_streams() {
        for (mut g, label) in [
            (generators::rmat(RmatConfig::new(5, 8), 19), "rmat"),
            (
                generators::grid_road_network(RoadNetworkConfig::new(3, 5), 5),
                "road",
            ),
        ] {
            let mut engine = IncrEngine::build(&g);
            let mut applied = 0;
            for i in 0.. {
                if applied == 24 {
                    break;
                }
                let Some((op, u, v)) = probe_mutation(&g, i) else {
                    continue;
                };
                applied += 1;
                g = mutate_graph(&g, op, u, v);
                let out = engine.apply(&g, op, u, v);
                assert_eq!(
                    out.sources_reused + out.sources_rebuilt,
                    g.num_vertices() as u64,
                    "{label}: counters partition the source set"
                );
                let fresh = IncrEngine::build(&g);
                assert_eq!(bits(engine.bc()), bits(fresh.bc()), "{label} step {i}");
                for s in 0..g.num_vertices() as VertexId {
                    assert_eq!(engine.source(s).dist, fresh.source(s).dist);
                    assert_eq!(bits(&engine.source(s).sigma), bits(&fresh.source(s).sigma));
                    assert_eq!(bits(&engine.source(s).delta), bits(&fresh.source(s).delta));
                }
            }
        }
    }

    /// Exhaustive cone-test soundness and bit-identity: every digraph on
    /// 3 vertices, every applicable single-edge mutation. Each `apply`
    /// must match a fresh rebuild, and every source the test marks
    /// unaffected must really be bitwise unchanged.
    #[test]
    fn exhaustive_small_digraphs_every_mutation() {
        let n = 3usize;
        let pairs: Vec<(VertexId, VertexId)> = (0..n as VertexId)
            .flat_map(|u| (0..n as VertexId).map(move |v| (u, v)))
            .filter(|&(u, v)| u != v)
            .collect();
        for mask in 0..(1u32 << pairs.len()) {
            let edges: Vec<(VertexId, VertexId)> = pairs
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask & (1 << i) != 0)
                .map(|(_, &p)| p)
                .collect();
            let g = GraphBuilder::new(n).edges(edges.iter().copied()).build();
            let base = IncrEngine::build(&g);
            for &(u, v) in &pairs {
                let op = if g.has_edge(u, v) {
                    EdgeOp::Remove
                } else {
                    EdgeOp::Add
                };
                let g2 = mutate_graph(&g, op, u, v);
                let mut engine = base.clone();
                let out = engine.apply(&g2, op, u, v);
                let fresh = IncrEngine::build(&g2);
                assert_eq!(bits(engine.bc()), bits(fresh.bc()), "mask={mask:#b}");
                for s in 0..n as VertexId {
                    if !source_affected(&base.source(s).dist, op, u, v) {
                        // Soundness of the exactness claim: unaffected
                        // sources are bitwise frozen.
                        assert_eq!(base.source(s).dist, fresh.source(s).dist);
                        assert_eq!(bits(&base.source(s).sigma), bits(&fresh.source(s).sigma));
                        assert_eq!(bits(&base.source(s).delta), bits(&fresh.source(s).delta));
                    }
                }
                assert!(out.sources_rebuilt + out.sources_reused == n as u64);
            }
        }
    }

    /// Mutations touching a vertex unreachable from `s` leave `s`
    /// unaffected, including the `dist[u] = INF` guard.
    #[test]
    fn unreachable_endpoints_never_affect_a_source() {
        // 0 → 1, 2 isolated: from source 0, edge (2, 1) hangs off an
        // unreachable tail.
        let g = GraphBuilder::new(3).edge(0, 1).build();
        let engine = IncrEngine::build(&g);
        assert!(!source_affected(&engine.source(0).dist, EdgeOp::Add, 2, 1));
        // From source 2 the same edge is the whole frontier.
        assert!(source_affected(&engine.source(2).dist, EdgeOp::Add, 2, 1));
    }
}
