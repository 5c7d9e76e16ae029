//! Edge-list graph builder.

use crate::{CsrGraph, VertexId};

/// Builds a [`CsrGraph`] from an edge list.
///
/// Parallel edges are deduplicated and self-loops are dropped by default
/// (betweenness centrality is defined on simple digraphs; a self-loop is
/// never on a shortest path between distinct vertices). Both behaviours
/// can be toggled for substrates that need them.
///
/// # Examples
///
/// ```
/// use mrbc_graph::GraphBuilder;
/// let g = GraphBuilder::new(3)
///     .edges([(0, 1), (0, 1), (1, 1), (2, 0)]) // dup + self-loop
///     .build();
/// assert_eq!(g.num_edges(), 2); // (0,1) once, (2,0); loop dropped
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
    keep_self_loops: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        assert!(
            num_vertices <= VertexId::MAX as usize,
            "vertex count exceeds VertexId range"
        );
        Self {
            num_vertices,
            edges: Vec::new(),
            keep_self_loops: false,
        }
    }

    /// Keeps self-loops instead of dropping them.
    pub fn keep_self_loops(mut self) -> Self {
        self.keep_self_loops = true;
        self
    }

    /// Adds one directed edge.
    pub fn edge(mut self, src: VertexId, dst: VertexId) -> Self {
        self.edges.push((src, dst));
        self
    }

    /// Adds many directed edges.
    pub fn edges(mut self, it: impl IntoIterator<Item = (VertexId, VertexId)>) -> Self {
        self.edges.extend(it);
        self
    }

    /// Adds both orientations of an undirected edge.
    pub fn undirected_edge(mut self, a: VertexId, b: VertexId) -> Self {
        self.edges.push((a, b));
        self.edges.push((b, a));
        self
    }

    /// Range check, then the self-loop policy; shared by [`Self::build`]
    /// and the test-only reference build.
    fn checked_edges(mut self) -> Vec<(VertexId, VertexId)> {
        let n = self.num_vertices;
        for &(u, v) in &self.edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u}, {v}) out of range for {n} vertices"
            );
        }
        if !self.keep_self_loops {
            self.edges.retain(|&(u, v)| u != v);
        }
        self.edges
    }

    /// Finalizes into CSR form. Panics if any endpoint is out of range.
    ///
    /// A counting sort: count out-degrees, scatter the targets into their
    /// rows, then sort and deduplicate each row in place, compacting the
    /// offsets. Rows come out sorted and duplicate-free, so the CSR is the
    /// same canonical one a global sort of the edge list would give.
    pub fn build(self) -> CsrGraph {
        let n = self.num_vertices;
        let edges = self.checked_edges();
        // offsets[u] ends as the end of row u, then the scatter walks it
        // back to the start.
        let mut offsets = vec![0usize; n + 1];
        for &(u, _) in &edges {
            offsets[u as usize] += 1;
        }
        let mut end = 0;
        for o in &mut offsets {
            end += *o;
            *o = end;
        }
        let mut targets = vec![0 as VertexId; edges.len()];
        for &(u, v) in &edges {
            offsets[u as usize] -= 1;
            targets[offsets[u as usize]] = v;
        }
        drop(edges);
        let mut kept = 0;
        for u in 0..n {
            let (lo, hi) = (offsets[u], offsets[u + 1]);
            targets[lo..hi].sort_unstable();
            offsets[u] = kept;
            for i in lo..hi {
                if i == lo || targets[i] != targets[i - 1] {
                    targets[kept] = targets[i];
                    kept += 1;
                }
            }
        }
        offsets[n] = kept;
        targets.truncate(kept);
        CsrGraph::from_raw(offsets, targets)
    }

    /// Reference for [`Self::build`]: a global sort and dedup of the edge
    /// list, which the counting sort must match exactly.
    #[cfg(test)]
    fn build_by_global_sort(self) -> CsrGraph {
        let n = self.num_vertices;
        let mut edges = self.checked_edges();
        edges.sort_unstable();
        edges.dedup();
        let mut offsets = vec![0usize; n + 1];
        for &(u, _) in &edges {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let targets = edges.iter().map(|&(_, v)| v).collect();
        CsrGraph::from_raw(offsets, targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn dedup_and_self_loop_policy() {
        let g = GraphBuilder::new(3)
            .edges([(0, 1), (0, 1), (1, 1), (1, 2)])
            .build();
        assert_eq!(g.num_edges(), 2);
        assert!(!g.has_edge(1, 1));

        let g2 = GraphBuilder::new(3)
            .keep_self_loops()
            .edges([(1, 1), (1, 2)])
            .build();
        assert_eq!(g2.num_edges(), 2);
        assert!(g2.has_edge(1, 1));
    }

    #[test]
    fn undirected_edge_adds_both() {
        let g = GraphBuilder::new(2).undirected_edge(0, 1).build();
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edges() {
        GraphBuilder::new(2).edge(0, 5).build();
    }

    #[test]
    fn counting_sort_build_matches_the_global_sort_on_generated_graphs() {
        use crate::generators::{self, RmatConfig, RoadNetworkConfig, WebCrawlConfig};
        use rand::{seq::SliceRandom, SeedableRng};
        let graphs = [
            generators::rmat(RmatConfig::new(9, 8), 3),
            generators::grid_road_network(RoadNetworkConfig::new(8, 64), 5),
            generators::web_crawl(WebCrawlConfig::new(600), 7),
        ];
        for (i, g) in graphs.iter().enumerate() {
            // Every edge twice plus a self-loop per vertex, shuffled: the
            // build has to sort, deduplicate and filter for real.
            let n = g.num_vertices();
            let mut raw: Vec<(u32, u32)> = g.edges().chain(g.edges()).collect();
            raw.extend((0..n as u32).map(|v| (v, v)));
            raw.shuffle(&mut rand::rngs::StdRng::seed_from_u64(i as u64));
            let builder = GraphBuilder::new(n).edges(raw);
            let want = builder.clone().build_by_global_sort();
            assert_eq!(builder.build(), want, "generator {i}");
            assert_eq!(&want, g, "generator {i}");
        }
    }

    proptest! {
        #[test]
        fn prop_build_matches_reference(
            n in 1usize..40,
            raw in proptest::collection::vec((0u32..40, 0u32..40), 0..200),
        ) {
            let edges: Vec<(u32, u32)> =
                raw.into_iter().map(|(u, v)| (u % n as u32, v % n as u32)).collect();
            let g = GraphBuilder::new(n).edges(edges.iter().copied()).build();
            let reference = GraphBuilder::new(n).edges(edges.iter().copied()).build_by_global_sort();
            prop_assert_eq!(&g, &reference);
            let want: BTreeSet<(u32, u32)> =
                edges.into_iter().filter(|&(u, v)| u != v).collect();
            let got: BTreeSet<(u32, u32)> = g.edges().collect();
            prop_assert_eq!(got, want);
            // Adjacency lists must be sorted and duplicate-free.
            for v in 0..n as u32 {
                let ns = g.out_neighbors(v);
                prop_assert!(ns.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }
}
