//! Compressed-sparse-row directed graph.

use crate::VertexId;

/// An immutable directed graph in compressed-sparse-row form.
///
/// Out-neighbors of vertex `v` occupy
/// `targets[offsets[v] .. offsets[v + 1]]` and are sorted ascending.
/// The graph is simple: construction via [`crate::GraphBuilder`]
/// deduplicates parallel edges and (by default) drops self-loops, matching
/// the unweighted simple digraphs the paper evaluates on.
///
/// # Examples
///
/// ```
/// use mrbc_graph::GraphBuilder;
/// // 0 -> 1 -> 2, 0 -> 2
/// let g = GraphBuilder::new(3).edges([(0, 1), (1, 2), (0, 2)]).build();
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.out_neighbors(0), &[1, 2]);
/// assert_eq!(g.out_degree(0), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
}

impl CsrGraph {
    /// Constructs from raw CSR arrays.
    ///
    /// `offsets` must have length `n + 1`, be non-decreasing, start at 0
    /// and end at `targets.len()`; every target must be `< n`. Panics
    /// otherwise — raw construction is an internal fast path and malformed
    /// CSR would corrupt every downstream algorithm.
    pub fn from_raw(offsets: Vec<usize>, targets: Vec<VertexId>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have length n + 1 >= 1");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            offsets[offsets.len() - 1],
            targets.len(),
            "offsets must end at targets.len()"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        let n = offsets.len() - 1;
        assert!(
            targets.iter().all(|&t| (t as usize) < n),
            "edge target out of range"
        );
        Self { offsets, targets }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbors of `v`, sorted ascending.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Iterator over all vertices `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over all directed edges `(src, dst)`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices()).flat_map(move |v| {
            self.targets[self.offsets[v]..self.offsets[v + 1]]
                .iter()
                .map(move |&t| (v as VertexId, t))
        })
    }

    /// True if the directed edge `(u, v)` exists (binary search).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// The transposed graph: edge `(u, v)` becomes `(v, u)`.
    ///
    /// Algorithms use this for the dependency-accumulation phase, which
    /// walks shortest-path DAG edges backwards.
    pub fn reverse(&self) -> CsrGraph {
        let n = self.num_vertices();
        let mut in_degree = vec![0usize; n + 1];
        for &t in &self.targets {
            in_degree[t as usize + 1] += 1;
        }
        let mut offsets = in_degree;
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as VertexId; self.targets.len()];
        for u in 0..n {
            for &v in self.out_neighbors(u as VertexId) {
                targets[cursor[v as usize]] = u as VertexId;
                cursor[v as usize] += 1;
            }
        }
        // Sources were visited in ascending order, so each in-neighbor list
        // is already sorted; from_raw re-validates the invariants.
        CsrGraph::from_raw(offsets, targets)
    }

    /// The undirected version `U_G`: both orientations of every edge,
    /// deduplicated. The CONGEST model's communication network is `U_G`
    /// (channels are bidirectional even for directed input graphs).
    pub fn undirected(&self) -> CsrGraph {
        let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(self.num_edges() * 2);
        for (u, v) in self.edges() {
            edges.push((u, v));
            edges.push((v, u));
        }
        crate::GraphBuilder::new(self.num_vertices())
            .edges(edges)
            .build()
    }

    /// Maximum out-degree over all vertices (0 for the empty graph).
    pub fn max_out_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.out_degree(v as VertexId))
            .max()
            .unwrap_or(0)
    }

    /// In-degree of every vertex.
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.num_vertices()];
        for &t in &self.targets {
            d[t as usize] += 1;
        }
        d
    }

    /// Maximum in-degree over all vertices (0 for the empty graph).
    pub fn max_in_degree(&self) -> usize {
        self.in_degrees().into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        GraphBuilder::new(4)
            .edges([(0, 1), (0, 2), (1, 3), (2, 3)])
            .build()
    }

    #[test]
    fn basic_accessors() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.out_neighbors(3), &[] as &[VertexId]);
        assert_eq!(g.out_degree(1), 1);
        assert!(g.has_edge(1, 3));
        assert!(!g.has_edge(3, 1));
        assert_eq!(g.max_out_degree(), 2);
        assert_eq!(g.max_in_degree(), 2);
        assert_eq!(g.in_degrees(), vec![0, 1, 1, 2]);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_out_degree(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn reverse_is_involution() {
        let g = diamond();
        let r = g.reverse();
        assert_eq!(r.out_neighbors(3), &[1, 2]);
        assert_eq!(r.out_neighbors(0), &[] as &[VertexId]);
        assert_eq!(r.reverse(), g);
    }

    #[test]
    fn reverse_preserves_edge_multiset() {
        let g = diamond();
        let mut fwd: Vec<_> = g.edges().collect();
        let mut bwd: Vec<_> = g.reverse().edges().map(|(u, v)| (v, u)).collect();
        fwd.sort_unstable();
        bwd.sort_unstable();
        assert_eq!(fwd, bwd);
    }

    #[test]
    fn undirected_contains_both_orientations() {
        let g = diamond();
        let u = g.undirected();
        assert_eq!(u.num_edges(), 8);
        for (a, b) in g.edges() {
            assert!(u.has_edge(a, b) && u.has_edge(b, a));
        }
    }

    #[test]
    #[should_panic(expected = "offsets must end at")]
    fn from_raw_rejects_bad_offsets() {
        CsrGraph::from_raw(vec![0, 1], vec![]);
    }

    #[test]
    #[should_panic(expected = "edge target out of range")]
    fn from_raw_rejects_bad_target() {
        CsrGraph::from_raw(vec![0, 1], vec![5]);
    }
}
