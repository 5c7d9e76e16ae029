//! Maximal-Frontier BC (MFBC, Solomonik et al. SC'17) on the simulated
//! D-Galois substrate.
//!
//! MFBC formulates Brandes' algorithm as sparse-matrix operations over a
//! `(min, +) × sum` semiring in the Cyclops Tensor Framework and runs
//! Bellman-Ford from all `k` batched sources simultaneously: each
//! iteration multiplies the adjacency matrix into the *maximal frontier*
//! — every (vertex, source) pair whose tentative distance improved in the
//! previous iteration. On unweighted graphs the iterations coincide with
//! BFS levels, so the *round* count is low (`≈ 2(H + 1)` per batch,
//! independent of `k`), but the communication is **dense**: whenever a
//! vertex appears in the frontier for any source, CTF ships its entire
//! `k`-wide label row between processor blocks. A vertex enters the
//! frontier once per distinct distance value it has across sources, so
//! the total volume is a multiple of MRBC's one-item-per-(v, s) — this is
//! the cost structure that makes MFBC ~3× slower than MRBC in the
//! paper's Table 2, and it is modeled here explicitly
//! ([`super::MFBC_ELEM_BYTES`] per source per sync).

use super::{DistBcOutcome, MFBC_ELEM_BYTES};
use mrbc_dgalois::comm::{Exchange, PhaseDir, RoundComm};
use mrbc_dgalois::{BspStats, DistGraph, ReliableLink};
use mrbc_faults::{FaultSession, RecoveryStats};
use mrbc_graph::{CsrGraph, VertexId, INF_DIST};
use rayon::prelude::*;

/// Runs distributed MFBC for the given sources in batches of
/// `batch_size` (MFBC "performs best when k is the highest power-of-2
/// for which the graph fits in memory"; the caller picks).
pub fn mfbc_bc(
    g: &CsrGraph,
    dg: &DistGraph,
    sources: &[VertexId],
    batch_size: usize,
) -> DistBcOutcome {
    run(g, dg, sources, batch_size, None)
}

/// [`mfbc_bc`] under an injected fault plan: the reliable link masks
/// drops/duplicates/delays (identical BC scores) and charges the
/// overhead — see [`super::mrbc::mrbc_bc_with_faults`].
pub fn mfbc_bc_with_faults(
    g: &CsrGraph,
    dg: &DistGraph,
    sources: &[VertexId],
    batch_size: usize,
    session: &FaultSession,
) -> (DistBcOutcome, RecoveryStats) {
    let mut link = ReliableLink::new(session, dg.num_hosts);
    let out = run(g, dg, sources, batch_size, Some(&mut link));
    (out, link.recovery)
}

fn run(
    g: &CsrGraph,
    dg: &DistGraph,
    sources: &[VertexId],
    batch_size: usize,
    mut link: Option<&mut ReliableLink<'_>>,
) -> DistBcOutcome {
    assert!(batch_size >= 1, "batch size must be at least 1");
    let n = g.num_vertices();
    let mut sorted: Vec<VertexId> = sources.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    assert!(
        sorted.iter().all(|&s| (s as usize) < n),
        "source out of range"
    );

    let mut bc = vec![0.0f64; n];
    let mut stats = BspStats::new(dg.num_hosts);
    for batch in sorted.chunks(batch_size) {
        let delta = run_batch(g, dg, batch, &mut stats, link.as_deref_mut());
        let k = batch.len();
        for v in 0..n {
            for (j, &s) in batch.iter().enumerate() {
                if s as usize != v {
                    bc[v] += delta[v * k + j];
                }
            }
        }
    }
    DistBcOutcome { bc, stats }
}

/// Per-host push records: `(target vertex, source index, σ or δ
/// contribution)` plus the host's work units.
type Pushes = (Vec<(u32, usize, f64)>, u64);

fn run_batch(
    g: &CsrGraph,
    dg: &DistGraph,
    batch: &[VertexId],
    stats: &mut BspStats,
    mut link: Option<&mut ReliableLink<'_>>,
) -> Vec<f64> {
    let n = g.num_vertices();
    let k = batch.len();
    let mut dist = vec![INF_DIST; n * k];
    let mut sigma = vec![0.0f64; n * k];
    let mut delta = vec![0.0f64; n * k];

    // Forward Bellman-Ford sweeps. `frontier` holds the vertices with at
    // least one improved source label (the maximal frontier).
    let mut frontier: Vec<u32> = Vec::new();
    for (j, &s) in batch.iter().enumerate() {
        dist[s as usize * k + j] = 0;
        sigma[s as usize * k + j] = 1.0;
        frontier.push(s);
    }
    frontier.sort_unstable();
    frontier.dedup();

    let mut level = 0u32;
    while !frontier.is_empty() {
        if let Some(l) = link.as_deref_mut() {
            l.begin_round(stats.num_rounds() + 1);
        }
        let mut comm = RoundComm::new(dg.num_hosts);
        sync_dense(dg, &frontier, k, &mut comm, link.as_deref_mut());

        // Relax every out-edge of the frontier for all k sources (the
        // dense row structure of the matrix formulation: work is k per
        // edge regardless of how many sources are active).
        let results: Vec<Pushes> = (0..dg.num_hosts)
            .into_par_iter()
            .map(|h| {
                let topo = &dg.hosts[h];
                let mut out: Vec<(u32, usize, f64)> = Vec::new();
                let mut w = 0u64;
                for &v in &frontier {
                    let Some(lv) = dg.local(h, v) else { continue };
                    w += 1;
                    for &lu in topo.graph.out_neighbors(lv) {
                        w += k as u64;
                        let gu = topo.global_of_local[lu as usize];
                        for j in 0..k {
                            let vidx = v as usize * k + j;
                            if dist[vidx] == level {
                                out.push((gu, j, sigma[vidx]));
                            }
                        }
                    }
                }
                (out, w)
            })
            .collect();

        let mut next: Vec<u32> = Vec::new();
        let mut work = Vec::with_capacity(dg.num_hosts);
        for (pushes, w) in results {
            work.push(w);
            for (gu, j, sig) in pushes {
                let idx = gu as usize * k + j;
                if dist[idx] == INF_DIST {
                    dist[idx] = level + 1;
                    sigma[idx] = sig;
                    next.push(gu);
                } else if dist[idx] == level + 1 {
                    sigma[idx] += sig;
                }
            }
        }
        stats.record_round(work, comm);
        next.sort_unstable();
        next.dedup();
        frontier = next;
        level += 1;
    }
    let max_level = level.saturating_sub(1);

    // Backward sweeps, deepest distance first, again with dense rows.
    for lvl in (1..=max_level).rev() {
        // Vertices with any source at this distance form the frontier.
        let frontier: Vec<u32> = (0..n as u32)
            .into_par_iter()
            .filter(|&v| (0..k).any(|j| dist[v as usize * k + j] == lvl))
            .collect();
        if frontier.is_empty() {
            continue;
        }
        if let Some(l) = link.as_deref_mut() {
            l.begin_round(stats.num_rounds() + 1);
        }
        let mut comm = RoundComm::new(dg.num_hosts);
        sync_dense(dg, &frontier, k, &mut comm, link.as_deref_mut());

        let results: Vec<Pushes> = (0..dg.num_hosts)
            .into_par_iter()
            .map(|h| {
                let topo = &dg.hosts[h];
                let mut out: Vec<(u32, usize, f64)> = Vec::new();
                let mut w = 0u64;
                for &v in &frontier {
                    let Some(lv) = dg.local(h, v) else { continue };
                    w += 1;
                    for &lu in topo.in_graph.out_neighbors(lv) {
                        w += k as u64;
                        let gu = topo.global_of_local[lu as usize];
                        for j in 0..k {
                            let vidx = v as usize * k + j;
                            let uidx = gu as usize * k + j;
                            if dist[vidx] == lvl && dist[uidx] == lvl - 1 {
                                let m = (1.0 + delta[vidx]) / sigma[vidx];
                                out.push((gu, j, sigma[uidx] * m));
                            }
                        }
                    }
                }
                (out, w)
            })
            .collect();

        let mut work = Vec::with_capacity(dg.num_hosts);
        for (pushes, w) in results {
            work.push(w);
            for (gu, j, contrib) in pushes {
                delta[gu as usize * k + j] += contrib;
            }
        }
        stats.record_round(work, comm);
    }
    delta
}

/// CTF-style dense synchronization: every frontier vertex with proxies on
/// multiple hosts exchanges its full `k`-wide row (reduce from each
/// mirror, broadcast back), independent of how many sources are active.
fn sync_dense(
    dg: &DistGraph,
    frontier: &[u32],
    k: usize,
    comm: &mut RoundComm,
    mut link: Option<&mut ReliableLink<'_>>,
) {
    let row_bytes = MFBC_ELEM_BYTES * k as u64;
    let mut reduce: Exchange<()> = Exchange::new(dg.num_hosts);
    let mut bcast: Exchange<()> = Exchange::new(dg.num_hosts);
    for &v in frontier {
        let own = dg.owner(v) as usize;
        for &mh in dg.mirror_hosts(v) {
            reduce.send(mh as usize, own, (), row_bytes);
            bcast.send(own, mh as usize, (), row_bytes);
        }
    }
    reduce.finish_reliable(dg, PhaseDir::Reduce, comm, link.as_deref_mut());
    bcast.finish_reliable(dg, PhaseDir::Broadcast, comm, link);
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
    fn matches_brandes_across_policies() {
        let g = generators::rmat(generators::RmatConfig::new(6, 5), 31);
        let sources: Vec<u32> = (0..16).collect();
        let want = brandes::bc_sources(&g, &sources);
        for policy in [
            PartitionPolicy::BlockedEdgeCut,
            PartitionPolicy::CartesianVertexCut,
        ] {
            for hosts in [1, 4] {
                let dg = partition(&g, hosts, policy);
                let out = mfbc_bc(&g, &dg, &sources, 8);
                assert_bc_close(&out.bc, &want);
            }
        }
    }

    #[test]
    fn fewer_rounds_than_sbbc_but_more_volume_than_mrbc() {
        let g = generators::web_crawl(generators::WebCrawlConfig::new(400), 9);
        let sources: Vec<u32> = (0..32).collect();
        let dg = partition(&g, 4, PartitionPolicy::CartesianVertexCut);
        let mf = mfbc_bc(&g, &dg, &sources, 32);
        let sb = super::super::sbbc::sbbc_bc(&g, &dg, &sources);
        let mr = super::super::mrbc::mrbc_bc(&g, &dg, &sources, 32);
        assert_bc_close(&mf.bc, &sb.bc);
        // Batched BF needs far fewer rounds than per-source BFS...
        assert!(mf.stats.num_rounds() < sb.stats.num_rounds() / 4);
        // ...but its dense rows ship far more bytes than MRBC's delayed
        // per-(v, s) items.
        assert!(
            mf.stats.total_bytes() > 2 * mr.stats.total_bytes(),
            "MFBC volume {} not ≫ MRBC volume {}",
            mf.stats.total_bytes(),
            mr.stats.total_bytes()
        );
    }

    #[test]
    fn batch_size_one_degenerates_to_per_source_bf() {
        let g = generators::cycle(12);
        let sources = vec![0, 4, 8];
        let dg = partition(&g, 2, PartitionPolicy::BlockedEdgeCut);
        let out = mfbc_bc(&g, &dg, &sources, 1);
        assert_bc_close(&out.bc, &brandes::bc_sources(&g, &sources));
    }
}
