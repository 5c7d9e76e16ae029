//! Sequential Brandes betweenness centrality — the correctness oracle.
//!
//! Brandes' algorithm (Algorithms 1–2 of the paper) computes, for each
//! source `s`, the SSSP DAG with shortest-path counts `σ_sv`, then
//! accumulates dependencies backwards:
//!
//! ```text
//! δ_s•(v) = Σ_{w : v ∈ P_s(w)}  σ_sv / σ_sw · (1 + δ_s•(w))
//! BC(v)   = Σ_{s ≠ v} δ_s•(v)
//! ```
//!
//! Every distributed implementation in this workspace is validated against
//! this module.

use mrbc_graph::{CsrGraph, VertexId, INF_DIST};

/// Betweenness centrality restricted to the given sources (approximate BC
/// in the sense of Bader et al. 2007: the betweenness scores of sampled
/// sources only). Passing every vertex yields exact BC.
pub fn bc_sources(g: &CsrGraph, sources: &[VertexId]) -> Vec<f64> {
    let n = g.num_vertices();
    let mut bc = vec![0.0f64; n];
    let mut workspace = Workspace::new(n);
    for &s in sources {
        workspace.accumulate_source(g, s, &mut bc);
    }
    bc
}

/// Exact betweenness centrality (all sources).
pub fn bc_exact(g: &CsrGraph) -> Vec<f64> {
    let all: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
    bc_sources(g, &all)
}

/// Per-source dependency vector `δ_s•(·)` — exposed for tests that check
/// distributed accumulation phases source by source.
pub fn dependencies(g: &CsrGraph, s: VertexId) -> Vec<f64> {
    let n = g.num_vertices();
    let mut ws = Workspace::new(n);
    let mut scratch_bc = vec![0.0; n];
    ws.accumulate_source(g, s, &mut scratch_bc);
    ws.delta
}

/// Forward-phase APSP artifacts for one source: BFS distances
/// ([`INF_DIST`] for unreachable vertices) and shortest-path counts
/// `σ_s` (0 for unreachable vertices, 1 at the source).
///
/// These are the per-source artifacts the serving layer (`mrbc-serve`)
/// caches per graph epoch to answer `dist(s, t)` / `sigma(s, t)` point
/// queries without a dependency-accumulation sweep.
pub fn forward_counts(g: &CsrGraph, s: VertexId) -> (Vec<u32>, Vec<f64>) {
    let n = g.num_vertices();
    assert!((s as usize) < n, "source {s} out of range for {n} vertices");
    let (mut dist, mut sigma) = (vec![INF_DIST; n], vec![0.0; n]);
    forward_into(g, s, &mut dist, &mut sigma, &mut Vec::with_capacity(n));
    (dist, sigma)
}

/// The forward phase into caller-owned buffers: BFS from `s` resets and
/// fills `dist` and `sigma` as [`forward_counts`] returns them, and
/// leaves the reached vertices in `order` in visit order (non-decreasing
/// distance), which doubles as the BFS queue.
pub fn forward_into(
    g: &CsrGraph,
    s: VertexId,
    dist: &mut [u32],
    sigma: &mut [f64],
    order: &mut Vec<VertexId>,
) {
    dist.fill(INF_DIST);
    sigma.fill(0.0);
    order.clear();
    dist[s as usize] = 0;
    sigma[s as usize] = 1.0;
    order.push(s);
    let mut head = 0;
    while let Some(&u) = order.get(head) {
        head += 1;
        let (du, su) = (dist[u as usize], sigma[u as usize]);
        for &v in g.out_neighbors(u) {
            if dist[v as usize] == INF_DIST {
                dist[v as usize] = du + 1;
                order.push(v);
            }
            if dist[v as usize] == du + 1 {
                sigma[v as usize] += su;
            }
        }
    }
}

/// The dependency `δ_s•(u)` of label `(u, j)` as distributed MRBC folds
/// it (Algorithm 5): the left fold from 0 of `σ_u · ((1 + δ_w) / σ_w)`
/// over `u`'s shortest-path successors `w` (its out-neighbours at
/// distance `d_u + 1`, in ascending vertex order, as CSR rows are
/// sorted). The tables are flat over `(vertex, source)` with `k` sources,
/// and `j` picks the source; every successor's δ must be final. The
/// distributed backward phase and the incremental engine both call this
/// one fold, so they agree bit for bit. The oracle below associates the
/// same terms as `σ_u / σ_w · (1 + δ_w)`, equal only in exact arithmetic.
#[inline]
pub fn pull_delta(
    g: &CsrGraph,
    u: VertexId,
    j: usize,
    k: usize,
    dist: &[u32],
    sigma: &[f64],
    delta: &[f64],
) -> f64 {
    let (du, su) = (dist[u as usize * k + j], sigma[u as usize * k + j]);
    let mut acc = 0.0f64;
    for &w in g.out_neighbors(u) {
        let widx = w as usize * k + j;
        if dist[widx] == du + 1 {
            acc += su * ((1.0 + delta[widx]) / sigma[widx]);
        }
    }
    acc
}

/// Reusable per-source scratch buffers (the "workhorse collection"
/// pattern: one allocation reused across all sources).
struct Workspace {
    dist: Vec<u32>,
    sigma: Vec<f64>,
    delta: Vec<f64>,
    /// Vertices in BFS visit order (non-decreasing distance).
    order: Vec<VertexId>,
}

impl Workspace {
    fn new(n: usize) -> Self {
        Self {
            dist: vec![INF_DIST; n],
            sigma: vec![0.0; n],
            delta: vec![0.0; n],
            order: Vec::with_capacity(n),
        }
    }

    fn accumulate_source(&mut self, g: &CsrGraph, s: VertexId, bc: &mut [f64]) {
        if g.num_vertices() == 0 {
            return;
        }
        forward_into(g, s, &mut self.dist, &mut self.sigma, &mut self.order);
        self.delta.fill(0.0);
        self.backward(g, s, bc);
    }

    /// Backward sweep in reverse BFS order. Pull-based: `v ∈ P_s(w)` iff
    /// the edge `(v, w)` exists with `dist(w) == dist(v) + 1`, so each `v`
    /// gathers `σ_v/σ_w · (1 + δ_w)` from its one-level-deeper successors
    /// — whose `δ` values are already final because of the ordering.
    fn backward(&mut self, g: &CsrGraph, s: VertexId, bc: &mut [f64]) {
        for v in self.order.iter().rev() {
            let v = *v;
            let dv = self.dist[v as usize];
            let mut acc = 0.0;
            for &w in g.out_neighbors(v) {
                if self.dist[w as usize] == dv + 1 {
                    acc += self.sigma[v as usize] / self.sigma[w as usize]
                        * (1.0 + self.delta[w as usize]);
                }
            }
            self.delta[v as usize] = acc;
            if v != s {
                bc[v as usize] += acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrbc_graph::{generators, GraphBuilder};

    fn assert_close(got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() < 1e-9,
                "BC[{i}]: got {g}, want {w}\nall got: {got:?}\nall want: {want:?}"
            );
        }
    }

    #[test]
    fn directed_path_bc() {
        // 0 -> 1 -> 2 -> 3: interior vertices lie on paths.
        // BC(1): pairs (0,2), (0,3) -> 2. BC(2): (0,3), (1,3) -> 2.
        let g = generators::path(4);
        assert_close(&bc_exact(&g), &[0.0, 2.0, 2.0, 0.0]);
    }

    #[test]
    fn undirected_star_bc() {
        // Star center lies on every path between distinct leaves:
        // ordered pairs among 4 leaves = 12.
        let g = generators::star(5);
        let bc = bc_exact(&g);
        assert_close(&bc, &[12.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn diamond_splits_flow() {
        // 0 -> {1, 2} -> 3: σ(0,3) = 2, each middle vertex carries 1/2.
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (0, 2), (1, 3), (2, 3)])
            .build();
        assert_close(&bc_exact(&g), &[0.0, 0.5, 0.5, 0.0]);
    }

    #[test]
    fn cycle_bc_uniform() {
        // Directed n-cycle: each ordered pair has a unique path; vertex v
        // is interior to (n-1)(n-2)/2 of them by symmetry.
        let n = 6;
        let g = generators::cycle(n);
        let expect = ((n - 1) * (n - 2)) as f64 / 2.0;
        let bc = bc_exact(&g);
        for (v, x) in bc.iter().enumerate() {
            assert!((x - expect).abs() < 1e-9, "BC[{v}] = {x}");
        }
    }

    #[test]
    fn disconnected_pairs_contribute_nothing() {
        let g = GraphBuilder::new(5).edges([(0, 1), (1, 2), (3, 4)]).build();
        let bc = bc_exact(&g);
        assert_close(&bc, &[0.0, 1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn sampled_sources_are_partial_sums() {
        let g = generators::rmat(generators::RmatConfig::new(6, 4), 9);
        let n = g.num_vertices();
        let full = bc_exact(&g);
        let mut acc = vec![0.0; n];
        for s in 0..n as u32 {
            let part = bc_sources(&g, &[s]);
            for v in 0..n {
                acc[v] += part[v];
            }
        }
        assert_close(&acc, &full);
    }

    #[test]
    fn dependencies_match_definition_on_diamond() {
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (0, 2), (1, 3), (2, 3)])
            .build();
        let d = dependencies(&g, 0);
        // δ_0(1) = σ01/σ03·(1+δ(3)) over path through 1 = 1/2·1 + (pair (0,1) excluded).
        assert_close(&d, &[3.0, 0.5, 0.5, 0.0]);
    }

    #[test]
    fn forward_counts_on_diamond_and_unreachable() {
        // 0 -> {1, 2} -> 3, plus an isolated vertex 4.
        let g = GraphBuilder::new(5)
            .edges([(0, 1), (0, 2), (1, 3), (2, 3)])
            .build();
        let (dist, sigma) = forward_counts(&g, 0);
        assert_eq!(dist, vec![0, 1, 1, 2, mrbc_graph::INF_DIST]);
        assert_eq!(sigma, vec![1.0, 1.0, 1.0, 2.0, 0.0]);
        // From a sink everything else is unreachable.
        let (dist, sigma) = forward_counts(&g, 3);
        assert_eq!(dist[3], 0);
        assert_eq!(sigma[3], 1.0);
        assert!(dist[..3].iter().all(|&d| d == mrbc_graph::INF_DIST));
        assert!(sigma[..3].iter().all(|&s| s == 0.0));
    }

    #[test]
    fn forward_counts_agree_with_congest_apsp_rows() {
        // σ from the forward BFS must match each source's row of the
        // exhaustively-validated sequential oracle across a scale-free
        // instance.
        let g = generators::rmat(generators::RmatConfig::new(5, 6), 13);
        for s in [0u32, 7, 19] {
            let (dist, sigma) = forward_counts(&g, s);
            // Recompute via an independent path: run full Brandes for
            // the source and reuse its internal invariants indirectly —
            // σ(s, s) = 1 and σ additivity along BFS levels.
            for v in 0..g.num_vertices() as u32 {
                if dist[v as usize] == 0 {
                    assert_eq!(v, s);
                    continue;
                }
                if dist[v as usize] == mrbc_graph::INF_DIST {
                    assert_eq!(sigma[v as usize], 0.0);
                    continue;
                }
                // σ_v = Σ σ_u over in-neighbors u one level shallower.
                let mut expect = 0.0;
                for u in 0..g.num_vertices() as u32 {
                    let du = dist[u as usize];
                    if du != mrbc_graph::INF_DIST && du + 1 == dist[v as usize] && g.has_edge(u, v)
                    {
                        expect += sigma[u as usize];
                    }
                }
                assert_eq!(sigma[v as usize], expect, "σ mismatch at {v} from {s}");
            }
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert!(bc_exact(&GraphBuilder::new(0).build()).is_empty());
        assert_close(&bc_exact(&GraphBuilder::new(1).build()), &[0.0]);
    }
}
