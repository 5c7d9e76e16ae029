//! Synchronous-Brandes BC (SBBC) on the simulated D-Galois substrate.
//!
//! The paper's primary baseline: "the Brandes BC algorithm that uses
//! level-by-level breadth first search to compute shortest paths",
//! implemented in the same system as MRBC so that "performance
//! differences between them are due to the algorithm".
//!
//! One source at a time. Each BFS level is one BSP round: the labels
//! finalized in the previous round (the frontier) are synchronized
//! (min-distance / sum-σ reduce, then broadcast), then pushed along local
//! out-edges. The backward phase walks levels in decreasing order,
//! synchronizing sum-δ per round. A source thus costs
//! `≈ 2 · ecc(s)` rounds — each paying barrier latency and per-round
//! metadata — which is exactly the cost MRBC's pipelining removes.

use super::{DistBcOutcome, SBBC_ITEM_BYTES};
use mrbc_dgalois::comm::{Exchange, PhaseDir, RoundComm};
use mrbc_dgalois::{BspStats, DistGraph, ReliableLink};
use mrbc_faults::{FaultSession, RecoveryStats};
use mrbc_graph::{CsrGraph, VertexId, INF_DIST};
use rayon::prelude::*;

/// Runs distributed SBBC for the given sources, one source at a time.
pub fn sbbc_bc(g: &CsrGraph, dg: &DistGraph, sources: &[VertexId]) -> DistBcOutcome {
    run(g, dg, sources, None)
}

/// [`sbbc_bc`] under an injected fault plan: the reliable link masks
/// drops/duplicates/delays (identical BC scores) and charges the
/// overhead — see [`super::mrbc::mrbc_bc_with_faults`].
pub fn sbbc_bc_with_faults(
    g: &CsrGraph,
    dg: &DistGraph,
    sources: &[VertexId],
    session: &FaultSession,
) -> (DistBcOutcome, RecoveryStats) {
    let mut link = ReliableLink::new(session, dg.num_hosts);
    let out = run(g, dg, sources, Some(&mut link));
    (out, link.recovery)
}

fn run(
    g: &CsrGraph,
    dg: &DistGraph,
    sources: &[VertexId],
    mut link: Option<&mut ReliableLink<'_>>,
) -> DistBcOutcome {
    let n = g.num_vertices();
    let mut bc = vec![0.0f64; n];
    let mut stats = BspStats::new(dg.num_hosts);
    let mut state = SourceState::new(g, dg);
    for &s in sources {
        assert!((s as usize) < n, "source out of range");
        state.reset(s);
        state.forward(&mut stats, link.as_deref_mut());
        state.backward(&mut stats, link.as_deref_mut());
        for (v, x) in bc.iter_mut().enumerate() {
            if v != s as usize && state.dist_g[v] != INF_DIST {
                *x += state.delta_g[v];
            }
        }
    }
    DistBcOutcome { bc, stats }
}

/// Reusable per-source buffers (global truth + per-host proxy partials).
struct SourceState<'a> {
    dg: &'a DistGraph,
    source: VertexId,
    dist_g: Vec<u32>,
    sigma_g: Vec<f64>,
    delta_g: Vec<f64>,
    /// `levels[ℓ]`: global vertices at distance ℓ.
    levels: Vec<Vec<u32>>,
    host_dist: Vec<Vec<u32>>,
    host_sigma: Vec<Vec<f64>>,
    host_delta: Vec<Vec<f64>>,
}

impl<'a> SourceState<'a> {
    fn new(g: &CsrGraph, dg: &'a DistGraph) -> Self {
        let n = g.num_vertices();
        Self {
            dg,
            source: 0,
            dist_g: vec![INF_DIST; n],
            sigma_g: vec![0.0; n],
            delta_g: vec![0.0; n],
            levels: Vec::new(),
            host_dist: dg
                .hosts
                .iter()
                .map(|h| vec![INF_DIST; h.num_proxies()])
                .collect(),
            host_sigma: dg
                .hosts
                .iter()
                .map(|h| vec![0.0; h.num_proxies()])
                .collect(),
            host_delta: dg
                .hosts
                .iter()
                .map(|h| vec![0.0; h.num_proxies()])
                .collect(),
        }
    }

    fn reset(&mut self, s: VertexId) {
        self.source = s;
        self.dist_g.fill(INF_DIST);
        self.sigma_g.fill(0.0);
        self.delta_g.fill(0.0);
        self.levels.clear();
        for h in 0..self.dg.num_hosts {
            self.host_dist[h].fill(INF_DIST);
            self.host_sigma[h].fill(0.0);
            self.host_delta[h].fill(0.0);
        }
        self.dist_g[s as usize] = 0;
        self.sigma_g[s as usize] = 1.0;
        self.levels.push(vec![s]);
        let own = self.dg.owner(s) as usize;
        // lint: allow(unwrap): every vertex has a master proxy on its owner host
        let l = self.dg.local(own, s).expect("master proxy") as usize;
        self.host_dist[own][l] = 0;
        self.host_sigma[own][l] = 1.0;
    }

    /// Reduce + broadcast `(d, σ)` for the given frontier vertices.
    fn sync_forward(
        &mut self,
        frontier: &[u32],
        comm: &mut RoundComm,
        mut link: Option<&mut ReliableLink<'_>>,
    ) {
        let mut reduce: Exchange<()> = Exchange::new(self.dg.num_hosts);
        let mut bcast: Exchange<()> = Exchange::new(self.dg.num_hosts);
        for &v in frontier {
            let own = self.dg.owner(v) as usize;
            let d = self.dist_g[v as usize];
            let sig = self.sigma_g[v as usize];
            let mut reduced = 0.0;
            for h in std::iter::once(own).chain(self.dg.mirror_hosts(v).iter().map(|&m| m as usize))
            {
                let Some(l) = self.dg.local(h, v) else {
                    continue;
                };
                if self.host_dist[h][l as usize] == d {
                    reduced += self.host_sigma[h][l as usize];
                }
                if h != own && self.host_dist[h][l as usize] != INF_DIST {
                    reduce.send(h, own, (), SBBC_ITEM_BYTES);
                }
            }
            debug_assert!(
                (reduced - sig).abs() <= 1e-9 * sig.max(1.0),
                "σ reduce mismatch for {v}: {reduced} vs {sig}"
            );
            for h in std::iter::once(own).chain(self.dg.mirror_hosts(v).iter().map(|&m| m as usize))
            {
                let Some(l) = self.dg.local(h, v) else {
                    continue;
                };
                // Partition-constraint optimization (Section 4.1): a
                // proxy consumes (d, σ) only to push along local
                // out-edges; skip mirrors without any.
                if h != own && self.dg.hosts[h].graph.out_degree(l) == 0 {
                    continue;
                }
                if h != own {
                    bcast.send(own, h, (), SBBC_ITEM_BYTES);
                }
                self.host_dist[h][l as usize] = d;
                self.host_sigma[h][l as usize] = sig;
            }
        }
        reduce.finish_reliable(self.dg, PhaseDir::Reduce, comm, link.as_deref_mut());
        bcast.finish_reliable(self.dg, PhaseDir::Broadcast, comm, link);
    }

    /// Level-synchronous BFS with σ aggregation.
    fn forward(&mut self, stats: &mut BspStats, mut link: Option<&mut ReliableLink<'_>>) {
        let mut level = 0u32;
        loop {
            let frontier = self.levels[level as usize].clone();
            if frontier.is_empty() {
                break;
            }
            if let Some(l) = link.as_deref_mut() {
                l.begin_round(stats.num_rounds() + 1);
            }
            let mut comm = RoundComm::new(self.dg.num_hosts);
            self.sync_forward(&frontier, &mut comm, link.as_deref_mut());

            // Push the frontier along local out-edges on every host.
            let dg = self.dg;
            let sigma_g = &self.sigma_g;
            let results: Vec<(Vec<(u32, f64)>, u64)> = self
                .host_dist
                .par_iter_mut()
                .zip(self.host_sigma.par_iter_mut())
                .enumerate()
                .map(|(h, (hd, hsig))| {
                    let topo = &dg.hosts[h];
                    let mut out: Vec<(u32, f64)> = Vec::new();
                    let mut w = 0u64;
                    for &v in &frontier {
                        let Some(lv) = dg.local(h, v) else { continue };
                        w += 1;
                        let sig = sigma_g[v as usize];
                        for &lu in topo.graph.out_neighbors(lv) {
                            w += 1;
                            let d = &mut hd[lu as usize];
                            if *d == INF_DIST {
                                *d = level + 1;
                                hsig[lu as usize] = sig;
                                out.push((topo.global_of_local[lu as usize], sig));
                            } else if *d == level + 1 {
                                hsig[lu as usize] += sig;
                                out.push((topo.global_of_local[lu as usize], sig));
                            }
                        }
                    }
                    (out, w)
                })
                .collect();

            let mut next: Vec<u32> = Vec::new();
            let mut work = Vec::with_capacity(self.dg.num_hosts);
            for (pushes, w) in results {
                work.push(w);
                for (gu, sig) in pushes {
                    let gi = gu as usize;
                    if self.dist_g[gi] == INF_DIST {
                        self.dist_g[gi] = level + 1;
                        self.sigma_g[gi] = sig;
                        next.push(gu);
                    } else if self.dist_g[gi] == level + 1 {
                        self.sigma_g[gi] += sig;
                    }
                }
            }
            stats.record_round(work, comm);
            self.levels.push(next);
            level += 1;
        }
    }

    /// Reduce + broadcast δ for the given level's vertices.
    fn sync_backward(
        &mut self,
        level_vertices: &[u32],
        comm: &mut RoundComm,
        mut link: Option<&mut ReliableLink<'_>>,
    ) {
        let mut reduce: Exchange<()> = Exchange::new(self.dg.num_hosts);
        let mut bcast: Exchange<()> = Exchange::new(self.dg.num_hosts);
        for &v in level_vertices {
            let total = self.delta_g[v as usize];
            if total == 0.0 {
                continue; // label never updated; mirrors' zero is correct
            }
            let own = self.dg.owner(v) as usize;
            let mut reduced = 0.0;
            for h in std::iter::once(own).chain(self.dg.mirror_hosts(v).iter().map(|&m| m as usize))
            {
                let Some(l) = self.dg.local(h, v) else {
                    continue;
                };
                reduced += self.host_delta[h][l as usize];
                if h != own && self.host_delta[h][l as usize] != 0.0 {
                    reduce.send(h, own, (), SBBC_ITEM_BYTES);
                }
            }
            debug_assert!(
                (reduced - total).abs() <= 1e-9 * total.abs().max(1.0),
                "δ reduce mismatch for {v}"
            );
            for h in std::iter::once(own).chain(self.dg.mirror_hosts(v).iter().map(|&m| m as usize))
            {
                let Some(l) = self.dg.local(h, v) else {
                    continue;
                };
                // δ is consumed by pushes along local in-edges only.
                if h != own && self.dg.hosts[h].in_graph.out_degree(l) == 0 {
                    continue;
                }
                if h != own {
                    bcast.send(own, h, (), SBBC_ITEM_BYTES);
                }
                self.host_delta[h][l as usize] = total;
            }
        }
        reduce.finish_reliable(self.dg, PhaseDir::Reduce, comm, link.as_deref_mut());
        bcast.finish_reliable(self.dg, PhaseDir::Broadcast, comm, link);
    }

    /// Backward dependency accumulation, deepest level first.
    fn backward(&mut self, stats: &mut BspStats, mut link: Option<&mut ReliableLink<'_>>) {
        // The last frontier is empty; deepest populated level is len - 2.
        let max_level = self.levels.len().saturating_sub(2);
        for level in (1..=max_level).rev() {
            let vertices = self.levels[level].clone();
            if let Some(l) = link.as_deref_mut() {
                l.begin_round(stats.num_rounds() + 1);
            }
            let mut comm = RoundComm::new(self.dg.num_hosts);
            self.sync_backward(&vertices, &mut comm, link.as_deref_mut());

            let dg = self.dg;
            let (dist_g, sigma_g, delta_g) = (&self.dist_g, &self.sigma_g, &self.delta_g);
            let results: Vec<(Vec<(u32, f64)>, u64)> = self
                .host_delta
                .par_iter_mut()
                .enumerate()
                .map(|(h, hdelta)| {
                    let topo = &dg.hosts[h];
                    let mut out: Vec<(u32, f64)> = Vec::new();
                    let mut w = 0u64;
                    for &v in &vertices {
                        let Some(lv) = dg.local(h, v) else { continue };
                        w += 1;
                        let m = (1.0 + delta_g[v as usize]) / sigma_g[v as usize];
                        for &lu in topo.in_graph.out_neighbors(lv) {
                            w += 1;
                            let gu = topo.global_of_local[lu as usize];
                            // u ∈ P_s(v): one level closer to s.
                            if dist_g[gu as usize] == level as u32 - 1 {
                                let contrib = sigma_g[gu as usize] * m;
                                hdelta[lu as usize] += contrib;
                                out.push((gu, contrib));
                            }
                        }
                    }
                    (out, w)
                })
                .collect();

            let mut work = Vec::with_capacity(self.dg.num_hosts);
            for (pushes, w) in results {
                work.push(w);
                for (gu, contrib) in pushes {
                    self.delta_g[gu as usize] += contrib;
                }
            }
            stats.record_round(work, comm);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brandes;
    use mrbc_dgalois::{partition, PartitionPolicy};
    use mrbc_graph::generators;

    fn assert_bc_close(got: &[f64], want: &[f64]) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() < 1e-9 * w.abs().max(1.0),
                "BC[{i}]: got {g}, want {w}"
            );
        }
    }

    #[test]
    fn matches_brandes_across_policies_and_hosts() {
        let g = generators::rmat(generators::RmatConfig::new(6, 5), 13);
        let sources: Vec<u32> = (0..12).collect();
        let want = brandes::bc_sources(&g, &sources);
        for policy in [
            PartitionPolicy::BlockedEdgeCut,
            PartitionPolicy::HashedEdgeCut,
            PartitionPolicy::CartesianVertexCut,
        ] {
            for hosts in [1, 3, 4] {
                let dg = partition(&g, hosts, policy);
                let out = sbbc_bc(&g, &dg, &sources);
                assert_bc_close(&out.bc, &want);
            }
        }
    }

    #[test]
    fn rounds_are_about_twice_the_eccentricity() {
        let g = generators::path(50);
        let dg = partition(&g, 2, PartitionPolicy::BlockedEdgeCut);
        let out = sbbc_bc(&g, &dg, &[0]);
        // Forward: 50 levels (incl. source round); backward: 49.
        let r = out.stats.num_rounds();
        assert!((95..=101).contains(&r), "rounds {r}");
    }

    #[test]
    fn mrbc_beats_sbbc_rounds_on_high_diameter_graphs() {
        let g = generators::grid_road_network(generators::RoadNetworkConfig::new(3, 40), 5);
        let sources: Vec<u32> = (0..16).collect();
        let dg = partition(&g, 4, PartitionPolicy::CartesianVertexCut);
        let sb = sbbc_bc(&g, &dg, &sources);
        let mr = super::super::mrbc::mrbc_bc(&g, &dg, &sources, 16);
        assert_bc_close(&mr.bc, &sb.bc);
        assert!(
            mr.stats.num_rounds() * 4 < sb.stats.num_rounds(),
            "MRBC {} rounds vs SBBC {}",
            mr.stats.num_rounds(),
            sb.stats.num_rounds()
        );
        // The headline communication effect: same proxies synchronized,
        // fewer rounds, less metadata, lower volume.
        assert!(
            mr.stats.total_bytes() < sb.stats.total_bytes(),
            "MRBC volume {} !< SBBC volume {}",
            mr.stats.total_bytes(),
            sb.stats.total_bytes()
        );
    }

    #[test]
    fn disconnected_sources_are_benign() {
        let g = mrbc_graph::GraphBuilder::new(6)
            .edges([(0, 1), (1, 2), (3, 4)])
            .build();
        let dg = partition(&g, 2, PartitionPolicy::BlockedEdgeCut);
        let sources = vec![0, 3, 5];
        let out = sbbc_bc(&g, &dg, &sources);
        assert_bc_close(&out.bc, &brandes::bc_sources(&g, &sources));
    }
}
