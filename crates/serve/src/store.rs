//! Epoch-versioned result store.
//!
//! The daemon loads one [`CsrGraph`] and serves many queries against it;
//! this store owns the graph plus every cached artifact derived from it,
//! all versioned by a monotonically increasing **epoch** (starting at 1).
//! A mutation rebuilds the CSR, bumps the epoch, and drops every cache —
//! readers that pinned the old epoch observe a structured `Stale`
//! refusal instead of a torn mix of old and new answers.
//!
//! Cached artifacts:
//!
//! * the **full BC vector** (all `n` sources through
//!   [`mrbc_core::driver::bc`], whose internal Lemma-8 `k`-batching is
//!   exactly what the offline CLI runs — the serving-parity contract),
//!   computed lazily on the first `bc(v)` / `top_k` of an epoch;
//! * **per-source forward artifacts** `(dist, σ)` from
//!   [`mrbc_core::brandes::forward_counts`], cached per source so
//!   repeated `dist(s, ·)` probes from one source pay one BFS;
//! * the **incremental maintenance engine** ([`mrbc_incr::IncrEngine`]):
//!   once the full-BC vector has been computed for a graph small enough
//!   to cache per-source artifacts, mutations stop dropping the epoch —
//!   the engine rebuilds only the affected sources and re-folds BC,
//!   bit-identical to a fresh recompute (DESIGN.md §16). Graphs above
//!   [`IncrConfig::max_vertices`] (or with maintenance disabled) keep
//!   the original drop-and-recompute behaviour.
//!
//! Only the scheduler's single worker thread calls the compute methods,
//! so the interior mutex is never contended by long computations — the
//! session threads touch only [`EpochStore::epoch`] (an atomic load) and
//! the cheap metadata accessors.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use mrbc_core::{bc, BcConfig};
use mrbc_core::{brandes, postprocess};
use mrbc_graph::{CsrGraph, GraphBuilder, VertexId};
use mrbc_incr::{EdgeOp, IncrConfig, IncrEngine, IncrOutcome};

use crate::proto::MutateOp;

/// Forward-pass artifacts of one source: `(dist, σ)` over all vertices.
pub type ForwardArtifacts = Arc<(Vec<u32>, Vec<f64>)>;

/// Result of [`EpochStore::mutate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationOutcome {
    /// Epoch after the call (bumped only when `applied`).
    pub epoch: u64,
    /// False when the mutation was a no-op (edge already in the
    /// requested state, or a self-loop insert).
    pub applied: bool,
    /// What the incremental engine did, when it was resident; `None`
    /// when the mutation fell back to drop-and-recompute (engine never
    /// built, disabled, or graph above the cache bound).
    pub maintenance: Option<IncrOutcome>,
}

struct StoreInner {
    graph: Arc<CsrGraph>,
    full_bc: Option<Arc<Vec<f64>>>,
    forward: BTreeMap<VertexId, ForwardArtifacts>,
    incr: Option<IncrEngine>,
}

/// The epoch-versioned graph + derived-result store.
pub struct EpochStore {
    epoch: AtomicU64,
    cfg: BcConfig,
    incr_cfg: IncrConfig,
    inner: Mutex<StoreInner>,
}

impl EpochStore {
    /// Wraps a loaded graph; the initial epoch is 1. Incremental epoch
    /// maintenance uses [`IncrConfig::default`]; see
    /// [`EpochStore::with_incr`] to tune or disable it.
    pub fn new(graph: CsrGraph, cfg: BcConfig) -> Self {
        Self::with_incr(graph, cfg, IncrConfig::default())
    }

    /// Wraps a loaded graph with an explicit incremental-maintenance
    /// configuration (`enabled: false` restores pure drop-and-recompute,
    /// which benchmarks use as the baseline).
    pub fn with_incr(graph: CsrGraph, cfg: BcConfig, incr_cfg: IncrConfig) -> Self {
        EpochStore {
            epoch: AtomicU64::new(1),
            cfg,
            incr_cfg,
            inner: Mutex::new(StoreInner {
                graph: Arc::new(graph),
                full_bc: None,
                forward: BTreeMap::new(),
                incr: None,
            }),
        }
    }

    /// Whether the maintenance engine is allowed to cache this graph:
    /// the per-source artifact cache is O(n²) memory, so it is bounded.
    fn incr_admissible(&self, n: usize) -> bool {
        self.incr_cfg.enabled && n > 0 && n <= self.incr_cfg.max_vertices
    }

    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        // Poison-tolerance: a panicking worker must not wedge every
        // subsequent query; the data is rebuilt per epoch anyway.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Current graph epoch (atomic; safe from any thread).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Vertex count of the resident graph.
    pub fn num_vertices(&self) -> usize {
        self.lock().graph.num_vertices()
    }

    /// `(vertices, edges)` of the resident graph.
    pub fn graph_info(&self) -> (u64, u64) {
        let g = &self.lock().graph;
        (g.num_vertices() as u64, g.num_edges() as u64)
    }

    /// A handle to the resident graph at the current epoch.
    pub fn graph(&self) -> Arc<CsrGraph> {
        Arc::clone(&self.lock().graph)
    }

    /// The full BC vector for the current epoch, computing (and caching)
    /// it on first use. All `n` vertices are sources, dispatched through
    /// the configured driver so answers match offline runs bit-for-bit.
    pub fn full_bc(&self) -> Arc<Vec<f64>> {
        let graph = {
            let inner = self.lock();
            if let Some(bc) = &inner.full_bc {
                return Arc::clone(bc);
            }
            Arc::clone(&inner.graph)
        };
        // Compute outside the lock: only the worker calls this, and the
        // session threads must keep answering Hello/Stats meanwhile.
        if self.incr_admissible(graph.num_vertices()) {
            // First full-BC of this store's lifetime on a cacheable
            // graph: build the maintenance engine (bit-identical to the
            // driver by the mrbc-incr determinism contract) so later
            // mutations can reuse unaffected per-source artifacts.
            let engine = IncrEngine::build(&graph);
            let result = Arc::new(engine.bc().to_vec());
            let mut inner = self.lock();
            // A concurrent mutation may have swapped the graph while we
            // computed; only publish if the graph is still the one we
            // used.
            if Arc::ptr_eq(&inner.graph, &graph) {
                inner.full_bc = Some(Arc::clone(&result));
                inner.incr = Some(engine);
            }
            return result;
        }
        let sources: Vec<VertexId> = (0..graph.num_vertices() as VertexId).collect();
        let result = Arc::new(bc(&graph, &sources, &self.cfg).bc);
        let mut inner = self.lock();
        // Same publish guard as above.
        if Arc::ptr_eq(&inner.graph, &graph) {
            inner.full_bc = Some(Arc::clone(&result));
        }
        result
    }

    /// The deterministic top-`k` ranking for the current epoch.
    pub fn top_k(&self, k: usize) -> Vec<(VertexId, f64)> {
        postprocess::top_k(&self.full_bc(), k)
    }

    /// Forward artifacts `(dist, σ)` of `s` for the current epoch: a
    /// copy of the maintenance engine's when it is resident, otherwise
    /// computed (and cached) on first use.
    pub fn forward(&self, s: VertexId) -> ForwardArtifacts {
        let graph = {
            let inner = self.lock();
            if let Some(fw) = inner.forward.get(&s) {
                return Arc::clone(fw);
            }
            if let Some(engine) = &inner.incr {
                // The maintenance engine already holds this source's
                // forward artifacts (bitwise equal to a fresh BFS on the
                // current graph): hand out a copy instead of re-running,
                // and do not cache it — the engine is the cache.
                let art = engine.source(s);
                return Arc::new((art.dist.clone(), art.sigma.clone()));
            }
            Arc::clone(&inner.graph)
        };
        let result = Arc::new(brandes::forward_counts(&graph, s));
        let mut inner = self.lock();
        if Arc::ptr_eq(&inner.graph, &graph) {
            inner.forward.insert(s, Arc::clone(&result));
        }
        result
    }

    /// Subset-source BC: scores accumulated from `sources` only
    /// (canonicalized — sorted, deduplicated — before dispatch, so
    /// duplicate or shuffled source lists cannot double-count).
    pub fn subset_bc(&self, sources: &[VertexId]) -> Vec<f64> {
        let mut canon = sources.to_vec();
        canon.sort_unstable();
        canon.dedup();
        let graph = Arc::clone(&self.lock().graph);
        bc(&graph, &canon, &self.cfg).bc
    }

    /// Applies an edge mutation. `applied` is false when the mutation
    /// was a no-op (edge already in the requested state, or a self-loop
    /// insert — the builder drops self-loops, so claiming success would
    /// desynchronize the epoch). On success the CSR is rebuilt, the
    /// epoch bumped, and the caches either *maintained* (when the
    /// incremental engine is resident: affected sources rebuilt, BC
    /// re-folded, forward artifacts served from the engine)
    /// or dropped (engine never built / disabled / over the cache
    /// bound). Either way, pinned readers of the old epoch turn `Stale`
    /// and fresh reads are bit-identical to a from-scratch recompute.
    pub fn mutate(&self, op: MutateOp, u: VertexId, v: VertexId) -> MutationOutcome {
        let (engine, graph, epoch) = {
            let mut inner = self.lock();
            let g = &inner.graph;
            let applicable = match op {
                MutateOp::AddEdge => u != v && !g.has_edge(u, v),
                MutateOp::RemoveEdge => g.has_edge(u, v),
            };
            if !applicable {
                return MutationOutcome {
                    epoch: self.epoch(),
                    applied: false,
                    maintenance: None,
                };
            }
            let n = g.num_vertices();
            let rebuilt = match op {
                MutateOp::AddEdge => GraphBuilder::new(n).edges(g.edges()).edge(u, v).build(),
                MutateOp::RemoveEdge => GraphBuilder::new(n)
                    .edges(g.edges().filter(|&e| e != (u, v)))
                    .build(),
            };
            inner.graph = Arc::new(rebuilt);
            inner.full_bc = None;
            inner.forward.clear();
            // Take the engine out so maintenance runs outside the lock;
            // session threads keep answering Hello/Stats meanwhile.
            let engine = inner.incr.take();
            let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
            (engine, Arc::clone(&inner.graph), epoch)
        };
        let Some(mut engine) = engine else {
            return MutationOutcome {
                epoch,
                applied: true,
                maintenance: None,
            };
        };
        let edge_op = match op {
            MutateOp::AddEdge => EdgeOp::Add,
            MutateOp::RemoveEdge => EdgeOp::Remove,
        };
        let outcome = engine.apply(&graph, edge_op, u, v);
        let fresh_bc = Arc::new(engine.bc().to_vec());
        let mut inner = self.lock();
        // Same publish guard as the compute paths: only the scheduler
        // worker mutates, but stay robust if that ever changes — a
        // stale engine is dropped and the next full_bc rebuilds it.
        if Arc::ptr_eq(&inner.graph, &graph) {
            inner.full_bc = Some(fresh_bc);
            inner.incr = Some(engine);
        }
        MutationOutcome {
            epoch,
            applied: true,
            maintenance: Some(outcome),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrbc_graph::generators;

    fn store() -> EpochStore {
        // A path 0 -> 1 -> 2 -> 3 plus a chord 0 -> 2.
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (1, 2), (2, 3), (0, 2)])
            .build();
        EpochStore::new(g, BcConfig::default())
    }

    /// `(epoch, applied)` of a mutation outcome, for terse asserts.
    fn ea(o: MutationOutcome) -> (u64, bool) {
        (o.epoch, o.applied)
    }

    #[test]
    fn epochs_start_at_one_and_bump_only_on_applied_mutations() {
        let s = store();
        assert_eq!(s.epoch(), 1);
        // Adding an existing edge, removing a missing one, and inserting
        // a self-loop are all no-ops.
        assert_eq!(ea(s.mutate(MutateOp::AddEdge, 0, 1)), (1, false));
        assert_eq!(ea(s.mutate(MutateOp::RemoveEdge, 3, 0)), (1, false));
        assert_eq!(ea(s.mutate(MutateOp::AddEdge, 2, 2)), (1, false));
        // A real insert bumps; removing it bumps again.
        assert_eq!(ea(s.mutate(MutateOp::AddEdge, 3, 0)), (2, true));
        assert_eq!(ea(s.mutate(MutateOp::RemoveEdge, 3, 0)), (3, true));
        assert_eq!(s.graph_info(), (4, 4));
    }

    #[test]
    fn full_bc_matches_offline_driver_and_invalidates_on_mutation() {
        let s = store();
        let g = s.graph();
        let sources: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        let offline = bc(&g, &sources, &BcConfig::default()).bc;
        assert_eq!(*s.full_bc(), offline, "cached vector must be bit-identical");
        // Cached: second call returns the same allocation.
        assert!(Arc::ptr_eq(&s.full_bc(), &s.full_bc()));

        let before = s.full_bc();
        s.mutate(MutateOp::AddEdge, 3, 0);
        let after = s.full_bc();
        assert!(
            !Arc::ptr_eq(&before, &after),
            "mutation must drop the cache"
        );
        let offline2 = bc(&s.graph(), &sources, &BcConfig::default()).bc;
        assert_eq!(*after, offline2);
    }

    #[test]
    fn forward_artifacts_cache_and_agree_with_brandes() {
        let s = store();
        let fw = s.forward(0);
        let (dist, sigma) = brandes::forward_counts(&s.graph(), 0);
        assert_eq!(fw.0, dist);
        assert_eq!(fw.1, sigma);
        assert!(Arc::ptr_eq(&s.forward(0), &s.forward(0)));
        // Distinct sources get distinct entries.
        assert!(!Arc::ptr_eq(&s.forward(0), &s.forward(1)));
    }

    #[test]
    fn subset_bc_canonicalizes_sources() {
        let g = generators::rmat(generators::RmatConfig::new(5, 6), 11);
        let s = EpochStore::new(g.clone(), BcConfig::default());
        let messy = [7, 3, 3, 7, 0, 12, 0];
        let canon = [0, 3, 7, 12];
        assert_eq!(s.subset_bc(&messy), bc(&g, &canon, &BcConfig::default()).bc);
    }

    #[test]
    fn top_k_ranks_from_the_cached_vector() {
        let s = store();
        let full = s.full_bc();
        assert_eq!(s.top_k(2), postprocess::top_k(&full, 2));
    }

    #[test]
    fn mutations_are_maintained_incrementally_once_the_engine_is_warm() {
        let s = store();
        // Before the first full-BC query there is nothing to maintain:
        // the mutation is plain drop-and-recompute.
        let cold = s.mutate(MutateOp::AddEdge, 3, 0);
        assert!(cold.applied && cold.maintenance.is_none());
        let _ = s.full_bc(); // builds the engine (n = 4 ≤ the bound)
        let warm = s.mutate(MutateOp::RemoveEdge, 3, 0);
        let m = warm.maintenance.expect("engine resident after full_bc");
        assert_eq!(m.sources_reused + m.sources_rebuilt, 4);
        // Maintained answers stay bit-identical to the offline driver.
        let sources: Vec<VertexId> = (0..4).collect();
        let offline = bc(&s.graph(), &sources, &BcConfig::default()).bc;
        assert_eq!(*s.full_bc(), offline);
        // The maintained epoch also serves forward artifacts from the
        // engine, matching a fresh BFS bitwise.
        let fw = s.forward(1);
        let (dist, sigma) = brandes::forward_counts(&s.graph(), 1);
        assert_eq!((&fw.0, &fw.1), (&dist, &sigma));
    }

    #[test]
    fn disabled_maintenance_restores_drop_and_recompute() {
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (1, 2), (2, 3), (0, 2)])
            .build();
        let s = EpochStore::with_incr(
            g,
            BcConfig::default(),
            IncrConfig {
                enabled: false,
                ..IncrConfig::default()
            },
        );
        let _ = s.full_bc();
        let out = s.mutate(MutateOp::AddEdge, 3, 0);
        assert!(out.applied && out.maintenance.is_none());
        let sources: Vec<VertexId> = (0..4).collect();
        assert_eq!(
            *s.full_bc(),
            bc(&s.graph(), &sources, &BcConfig::default()).bc
        );
    }
}
