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
//! 2. **In-place rebuild of affected sources only.** An affected
//!    source is rebuilt inside its cached buffers: one BFS
//!    ([`brandes::forward_into`]) rewrites `dist` and `σ` and records the
//!    visit order, then `δ` is reset and [`pull_delta`] runs over that
//!    order in reverse. `pull_delta` reads only successors one level
//!    deeper, which the reverse order has already finished, and folds
//!    them in the same ascending successor order and floating-point
//!    contraction as the distributed MRBC kernel, so every maintained
//!    epoch is bit-identical to a fresh full recompute at any host count
//!    and batch size (the workspace's determinism contract).
//! 3. **Delta adjustment of the full-BC vector.** `BC(v)` is re-folded
//!    from the per-source dependency vectors — cached vectors for reused
//!    sources, fresh ones for rebuilt sources — source-major: `BC` is
//!    zeroed, then each source in ascending order adds its `δ_s` to every
//!    `BC(v)`, `v ≠ s`, as two contiguous slices. Every `BC(v)` thus sees
//!    the driver's fold sequence exactly (ascending sources, self term
//!    skipped). A literal subtract-old/add-new would drift in the last
//!    ulp; the re-fold is O(n · sources) flat additions and keeps
//!    bit-identity by construction.
//!
//! Only the affected sources are ever rebuilt: rebuilding an unaffected
//! one reproduces its cached bits, so it would cost time and change
//! nothing. See DESIGN.md §16.

use mrbc_core::brandes::{self, pull_delta};
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

impl SourceArtifacts {
    /// Rebuilds source `s` on `g` inside these buffers (each of length
    /// `n`): the BFS resets and refills `dist` and `σ` and leaves the
    /// visit order in `order`; `δ` is reset, then every reached `u`, in
    /// reverse visit order, takes [`pull_delta`] — the fold from 0 over
    /// its DAG successors `w` (CSR out-neighbours in ascending order,
    /// filtered to `dist(w) = dist(u) + 1`) of
    ///
    /// ```text
    /// m = (1 + δ(w)) / σ(w);   δ(u) += σ(u) · m
    /// ```
    ///
    /// The distributed backward phase pulls every label's δ with the same
    /// function, so the result is bitwise equal to it at any host count
    /// and batch size. (The sequential Brandes oracle in `mrbc-core` uses
    /// a different association — `σ(u)/σ(w) · (1 + δ(w))` — which is
    /// equal in exact arithmetic but not in floats; it must not be used
    /// here.)
    fn rebuild(&mut self, g: &CsrGraph, s: VertexId, order: &mut Vec<VertexId>) {
        brandes::forward_into(g, s, &mut self.dist, &mut self.sigma, order);
        self.delta.fill(0.0);
        for &u in order.iter().rev() {
            self.delta[u as usize] = pull_delta(g, u, 0, 1, &self.dist, &self.sigma, &self.delta);
        }
    }
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
        let mut order = Vec::with_capacity(n);
        let per_source: Vec<SourceArtifacts> = (0..n)
            .map(|s| {
                let mut art = SourceArtifacts {
                    dist: vec![INF_DIST; n],
                    sigma: vec![0.0; n],
                    delta: vec![0.0; n],
                };
                art.rebuild(g, s as VertexId, &mut order);
                art
            })
            .collect();
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
    /// in place on `g` and the BC vector is re-folded.
    pub fn apply(&mut self, g: &CsrGraph, op: EdgeOp, u: VertexId, v: VertexId) -> IncrOutcome {
        let n = self.per_source.len();
        assert_eq!(g.num_vertices(), n, "mutations never change the vertex set");
        let affected: Vec<VertexId> = (0..n as VertexId)
            .filter(|&s| source_affected(&self.per_source[s as usize].dist, op, u, v))
            .collect();
        let mut order = Vec::with_capacity(n);
        for &s in &affected {
            self.per_source[s as usize].rebuild(g, s, &mut order);
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

    /// Re-fold `BC(v) = Σ_{s ≠ v} δ_s(v)` source-major: from 0, each
    /// source in ascending order adds `δ_s` to `BC` below and above `s`.
    /// Each `BC(v)` gets the exact addition sequence of the driver's
    /// full-BC fold (sources ascending, self term skipped), while the
    /// loops stream over contiguous slices.
    fn refold_bc(&mut self) {
        let add = |acc: &mut [f64], part: &[f64]| {
            acc.iter_mut().zip(part).for_each(|(b, d)| *b += d);
        };
        self.bc.fill(0.0);
        for (s, art) in self.per_source.iter().enumerate() {
            let (below, above) = self.bc.split_at_mut(s);
            add(below, &art.delta[..s]);
            add(&mut above[1..], &art.delta[s + 1..]);
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

    /// The backward fold level by level, independent of any BFS visit
    /// order: reached vertices bucketed by distance, deepest level first,
    /// each taking [`pull_delta`] over the finished level below it.
    fn level_fold(g: &CsrGraph, dist: &[u32], sigma: &[f64]) -> Vec<f64> {
        let mut delta = vec![0.0; dist.len()];
        let depth = dist.iter().filter(|&&d| d != INF_DIST).max().copied();
        for level in (0..=depth.unwrap_or(0)).rev() {
            for u in (0..dist.len()).filter(|&u| dist[u] == level) {
                delta[u] = pull_delta(g, u as VertexId, 0, 1, dist, sigma, &delta);
            }
        }
        delta
    }

    /// `BC(v) = Σ_{s ≠ v} δ_s(v)` folded vertex-major: one accumulator
    /// per `v`, sources ascending.
    fn vertex_major_bc(engine: &IncrEngine) -> Vec<f64> {
        let n = engine.num_vertices();
        (0..n)
            .map(|v| {
                (0..n)
                    .filter(|&s| s != v)
                    .fold(0.0, |acc, s| acc + engine.source(s as VertexId).delta[v])
            })
            .collect()
    }

    /// In-place rebuilds under a removal-heavy stream that strands
    /// vertices, so a rebuilt source's buffers hold stale finite values
    /// that must be reset. Every rebuilt source matches the Brandes
    /// forward pass (`dist`, σ) and the level-by-level fold (δ) bit for
    /// bit, and the source-major re-fold matches the vertex-major one.
    #[test]
    fn in_place_rebuilds_match_independent_oracles() {
        for (mut g, label) in [
            (generators::rmat(RmatConfig::new(5, 2), 23), "rmat"),
            (
                generators::grid_road_network(RoadNetworkConfig::new(3, 5), 7),
                "road",
            ),
        ] {
            let n = g.num_vertices();
            let mut engine = IncrEngine::build(&g);
            let mut stranded = 0usize;
            for i in 0..48usize {
                let b = mrbc_util::splitmix64(i as u64 ^ 0x7e3a_91d5);
                let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
                // Three removals of an existing edge for every addition.
                let (op, u, v) = if i % 4 == 3 || edges.is_empty() {
                    match probe_mutation(&g, i) {
                        Some(m) => m,
                        None => continue,
                    }
                } else {
                    let (u, v) = edges[(b % edges.len() as u64) as usize];
                    (EdgeOp::Remove, u, v)
                };
                let before = engine.clone();
                g = mutate_graph(&g, op, u, v);
                engine.apply(&g, op, u, v);
                for s in 0..n as VertexId {
                    let old = &before.source(s).dist;
                    if !source_affected(old, op, u, v) {
                        continue;
                    }
                    let (art, at) = (engine.source(s), format!("{label} step {i} source {s}"));
                    let (dist, sigma) = brandes::forward_counts(&g, s);
                    assert_eq!(art.dist, dist, "{at}");
                    assert_eq!(bits(&art.sigma), bits(&sigma), "{at}");
                    let delta = level_fold(&g, &dist, &sigma);
                    assert_eq!(bits(&art.delta), bits(&delta), "{at}");
                    stranded += (0..n)
                        .filter(|&x| old[x] != INF_DIST && dist[x] == INF_DIST)
                        .count();
                }
                assert_eq!(
                    bits(engine.bc()),
                    bits(&vertex_major_bc(&engine)),
                    "{label} step {i}"
                );
            }
            assert!(stranded > 0, "{label}: the stream must strand vertices");
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
