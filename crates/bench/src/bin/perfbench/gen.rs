//! Seeded load generators: everything a workload feeds the program is
//! derived here from `--seed`, so the same seed gives byte-identical
//! inputs and a different seed gives different ones. The program under
//! test only ever sees the generated inputs, never the seed.

use std::collections::BTreeSet;

use mrbc_graph::{CsrGraph, GraphBuilder, VertexId};
use mrbc_serve::MutateOp;
use mrbc_util::splitmix64;

/// The independent seed streams one `--seed` fans out into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Seeds {
    /// Graph generator seed.
    pub graph: u64,
    /// Source-sample seed.
    pub sources: u64,
    /// Operation-stream seed (query mix, mutation endpoints).
    pub ops: u64,
}

impl Seeds {
    /// Derives the three streams from the command-line seed.
    pub(crate) fn from_seed(seed: u64) -> Seeds {
        Seeds {
            graph: splitmix64(seed ^ 0x6772_6170_6800_0001),
            sources: splitmix64(seed ^ 0x7372_6300_0000_0002),
            ops: splitmix64(seed ^ 0x6f70_7300_0000_0003),
        }
    }
}

/// A splitmix64 sequence (the workspace's seeded-stream idiom).
#[derive(Clone, Debug)]
pub(crate) struct Rng(u64);

impl Rng {
    /// A stream starting at `seed`.
    pub(crate) fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 pseudo-random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub(crate) fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n)) as u32
    }
}

/// One read of the `serve-*` query mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Query {
    /// `bc_score(v)`.
    Bc(VertexId),
    /// `top_k(k)`.
    TopK(u32),
    /// `path_info(s, t)`.
    Path(VertexId, VertexId),
}

/// Ranking length of the mix's `top_k` reads.
pub(crate) const TOP_K: u32 = 10;

/// The `serve-read` traffic mix: 40 % `bc_score`, 20 % `top_k(10)`,
/// 30 % `path_info` from the hot source set, 10 % `path_info` from a
/// uniform source.
#[derive(Clone, Debug)]
pub(crate) struct QueryMix {
    n: u32,
    hot: Vec<VertexId>,
    rng: Rng,
}

impl QueryMix {
    /// A mix over an `n`-vertex graph with the given hot source set.
    pub(crate) fn new(n: u32, hot: Vec<VertexId>, seed: u64) -> QueryMix {
        assert!(n > 0 && !hot.is_empty(), "mix needs vertices and a hot set");
        QueryMix {
            n,
            hot,
            rng: Rng::new(seed),
        }
    }

    /// The next query of the stream.
    pub(crate) fn next_query(&mut self) -> Query {
        let roll = self.rng.below(10);
        match roll {
            0..=3 => Query::Bc(self.rng.below(self.n)),
            4..=5 => Query::TopK(TOP_K),
            6..=8 => {
                let s = self.hot[self.rng.below(self.hot.len() as u32) as usize];
                Query::Path(s, self.rng.below(self.n))
            }
            _ => Query::Path(self.rng.below(self.n), self.rng.below(self.n)),
        }
    }
}

/// The `serve-churn` mutation stream: seeded endpoints, *add if absent
/// else remove*, so every emitted mutation applies (bumps the epoch).
/// The stream mirrors the graph as an edge set, which is also what the
/// end-of-run audit recomputes the expected scores from.
#[derive(Clone, Debug)]
pub(crate) struct MutationStream {
    n: u32,
    edges: BTreeSet<(VertexId, VertexId)>,
    rng: Rng,
}

impl MutationStream {
    /// A stream over (a mirror of) `g`.
    pub(crate) fn new(g: &CsrGraph, seed: u64) -> MutationStream {
        assert!(g.num_vertices() >= 2, "mutations need two endpoints");
        MutationStream {
            n: g.num_vertices() as u32,
            edges: g.edges().collect(),
            rng: Rng::new(seed),
        }
    }

    /// The next mutation, already applied to the mirror. Never a
    /// self-loop; always the op that changes the mirror.
    pub(crate) fn next_mutation(&mut self) -> (MutateOp, VertexId, VertexId) {
        let u = self.rng.below(self.n);
        // Draw v from the n-1 other vertices: no rejection loop needed.
        let v = (u + 1 + self.rng.below(self.n - 1)) % self.n;
        if self.edges.remove(&(u, v)) {
            (MutateOp::RemoveEdge, u, v)
        } else {
            self.edges.insert((u, v));
            (MutateOp::AddEdge, u, v)
        }
    }

    /// The mirrored graph after every mutation emitted so far.
    pub(crate) fn graph(&self) -> CsrGraph {
        GraphBuilder::new(self.n as usize)
            .edges(self.edges.iter().copied())
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrbc_graph::{generators, sample};

    /// The first `count` queries of a seed's stream, byte-encoded.
    fn query_bytes(seed: u64, count: usize) -> Vec<u8> {
        let seeds = Seeds::from_seed(seed);
        let hot = sample::uniform_sources(1024, 64, seeds.sources);
        let mut mix = QueryMix::new(1024, hot, seeds.ops);
        (0..count)
            .flat_map(|_| {
                let (tag, a, b) = match mix.next_query() {
                    Query::Bc(v) => (0u8, v, 0),
                    Query::TopK(k) => (1, k, 0),
                    Query::Path(s, t) => (2, s, t),
                };
                let mut out = vec![tag];
                out.extend(a.to_le_bytes());
                out.extend(b.to_le_bytes());
                out
            })
            .collect()
    }

    fn mutation_trace(seed: u64, count: usize) -> Vec<(MutateOp, u32, u32)> {
        let seeds = Seeds::from_seed(seed);
        let g = generators::rmat(generators::RmatConfig::new(6, 4), seeds.graph);
        let mut stream = MutationStream::new(&g, seeds.ops);
        (0..count).map(|_| stream.next_mutation()).collect()
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        assert_eq!(query_bytes(7, 500), query_bytes(7, 500));
        assert_ne!(query_bytes(7, 500), query_bytes(8, 500));
        assert_eq!(mutation_trace(7, 200), mutation_trace(7, 200));
        assert_ne!(mutation_trace(7, 200), mutation_trace(8, 200));
        let a = Seeds::from_seed(7);
        assert_eq!(
            sample::contiguous_sources(4096, 256, a.sources),
            sample::contiguous_sources(4096, 256, Seeds::from_seed(7).sources)
        );
        assert_ne!(
            sample::contiguous_sources(4096, 256, a.sources),
            sample::contiguous_sources(4096, 256, Seeds::from_seed(8).sources)
        );
        // The three streams of one seed are independent of each other.
        assert!(a.graph != a.sources && a.sources != a.ops && a.graph != a.ops);
    }

    #[test]
    fn the_mix_has_its_stated_shares() {
        let mut mix = QueryMix::new(1024, vec![1, 2, 3], 99);
        let (mut bc, mut top, mut hot, mut cold) = (0i32, 0i32, 0i32, 0i32);
        for _ in 0..20_000 {
            match mix.next_query() {
                Query::Bc(v) => {
                    assert!(v < 1024);
                    bc += 1;
                }
                Query::TopK(k) => {
                    assert_eq!(k, TOP_K);
                    top += 1;
                }
                Query::Path(s, t) => {
                    assert!(s < 1024 && t < 1024);
                    if [1, 2, 3].contains(&s) {
                        hot += 1;
                    } else {
                        cold += 1;
                    }
                }
            }
        }
        // 40 / 20 / 30 / 10 percent, within two points.
        for (got, want) in [(bc, 8000), (top, 4000), (hot, 6000), (cold, 2000)] {
            assert!((got - want).abs() < 400, "{got} vs {want}");
        }
    }

    #[test]
    fn mutations_never_self_loop_and_always_apply() {
        let g = generators::rmat(generators::RmatConfig::new(5, 4), 3);
        let mut stream = MutationStream::new(&g, 11);
        let mut mirror: BTreeSet<(u32, u32)> = g.edges().collect();
        let mut removes = 0;
        // A small graph so the stream revisits edges and must alternate.
        for _ in 0..5_000 {
            let (op, u, v) = stream.next_mutation();
            assert_ne!(u, v, "never a self-loop");
            match op {
                MutateOp::AddEdge => assert!(mirror.insert((u, v)), "add must be absent"),
                MutateOp::RemoveEdge => {
                    assert!(mirror.remove(&(u, v)), "remove must be present");
                    removes += 1;
                }
            }
        }
        assert!(removes > 0, "the stream alternates to removals");
        let rebuilt = stream.graph();
        assert_eq!(rebuilt.edges().collect::<BTreeSet<_>>(), mirror);
    }
}
