//! MRBC on the simulated D-Galois substrate, with the paper's
//! optimizations (Section 4.3).
//!
//! * **Data structures** — per vertex and source the labels live in a
//!   dense array `A_v` (distance, σ, δ grouped for locality) and the send
//!   schedule in the flat map `M_v : distance → bitvector over sources`,
//!   exactly the structures of Section 4.3. `M_v` sits in the
//!   `SendSchedule` shared with the CONGEST engine, whose forward
//!   calendar files every vertex under the round its next label fires, so
//!   a round's flag set costs the flags it holds rather than a walk over
//!   all `n` vertices.
//! * **Delayed synchronization** — a `(v, s)` label is synchronized
//!   exactly once per phase, in the round in which Algorithm 3/5 proves
//!   it final, instead of every round it changes.
//! * **Proxy synchronization rule** — in round `r`, `(d_sv, σ_sv)` is
//!   reduced from mirrors to the master and broadcast back only if
//!   `r = d_sv + ℓ_v^r(d_sv, s)`; in the accumulation phase `δ_s•(v)` is
//!   synchronized only in round `A_sv`.
//!
//! Execution model: one BSP round = one CONGEST round. Each round first
//! synchronizes the labels whose send condition fires (reduce mirrors →
//! master, sum σ / δ partials, broadcast the reconciled value to every
//! mirror), then every host pushes the finalized labels along its local
//! edges, updating neighbor proxies locally. The per-host kernels go
//! through rayon's `par_iter_mut`, but the workspace's offline `rayon`
//! shim runs those iterators sequentially, so hosts execute one after
//! another on one thread. The authoritative pipelining schedule is kept
//! per global vertex, which is exactly the CONGEST semantics the
//! correctness lemmas are stated for (each host's flag is a subset of the
//! global flag; Gluon synchronizes the union).

use super::{finish_phase, DistBcOutcome, MRBC_ITEM_BYTES};
use crate::schedule::SendSchedule;
use mrbc_dgalois::comm::{Exchange, PhaseDir, RoundComm};
use mrbc_dgalois::{BspStats, DistGraph, ReliableLink};
use mrbc_faults::{FaultSession, RecoveryStats};
use mrbc_graph::{CsrGraph, VertexId, INF_DIST};
use mrbc_util::DenseBitset;
use rayon::prelude::*;

/// Tuning knobs for [`mrbc_bc_with_options`].
#[derive(Clone, Copy, Debug)]
pub struct MrbcOptions {
    /// Sources per batch (the paper's `k`; Figure 1 sweeps this).
    pub batch_size: usize,
    /// `true` (default): the paper's Section 4.3 *delayed
    /// synchronization* — each `(v, s)` label is reduced + broadcast
    /// exactly once per phase, in the round its send condition fires.
    /// `false`: Gluon's default eager mode — every proxy label updated in
    /// a round is synchronized at the start of the next round, however
    /// many times it changes. Results are identical; the communication
    /// accounting quantifies what the optimization saves (the `ablation`
    /// benchmark binary reports it).
    pub delayed_sync: bool,
}

impl Default for MrbcOptions {
    fn default() -> Self {
        Self {
            batch_size: 32,
            delayed_sync: true,
        }
    }
}

/// Runs distributed MRBC over `dg` (a partition of `g`) for the given
/// sources, processing them in batches of `batch_size` (the paper's `k`;
/// Figure 1 sweeps this parameter).
pub fn mrbc_bc(
    g: &CsrGraph,
    dg: &DistGraph,
    sources: &[VertexId],
    batch_size: usize,
) -> DistBcOutcome {
    mrbc_bc_with_options(
        g,
        dg,
        sources,
        &MrbcOptions {
            batch_size,
            ..MrbcOptions::default()
        },
    )
}

/// [`mrbc_bc`] with explicit [`MrbcOptions`].
pub fn mrbc_bc_with_options(
    g: &CsrGraph,
    dg: &DistGraph,
    sources: &[VertexId],
    options: &MrbcOptions,
) -> DistBcOutcome {
    run(g, dg, sources, options, None)
}

/// [`mrbc_bc_with_options`] under an injected fault plan: both sync
/// phases of every round run through the [`ReliableLink`], which masks
/// drops, duplicates, and straggler delays — the BC scores are
/// bitwise-identical to the fault-free run's, and the overhead appears
/// in the stats (`retry_bytes` / `stall_rounds`) and the returned
/// [`RecoveryStats`]. Crash clauses in the plan are *not* interpreted
/// here (BC batches carry no checkpoint hooks); crash recovery is
/// exercised through the general BSP executor (PageRank / components).
pub fn mrbc_bc_with_faults(
    g: &CsrGraph,
    dg: &DistGraph,
    sources: &[VertexId],
    options: &MrbcOptions,
    session: &FaultSession,
) -> (DistBcOutcome, RecoveryStats) {
    let mut link = ReliableLink::new(session, dg.num_hosts);
    let out = run(g, dg, sources, options, Some(&mut link));
    (out, link.recovery)
}

fn run(
    g: &CsrGraph,
    dg: &DistGraph,
    sources: &[VertexId],
    options: &MrbcOptions,
    mut link: Option<&mut ReliableLink<'_>>,
) -> DistBcOutcome {
    assert!(options.batch_size >= 1, "batch size must be at least 1");
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
    let mut probe = mrbc_obs::probes_enabled().then(crate::probes::BspProbeAccum::default);
    let num_batches = sorted.len().div_ceil(options.batch_size.max(1));
    let mut settled = 0usize;
    for (bi, batch) in sorted.chunks(options.batch_size).enumerate() {
        let mut state = Batch::new(g, dg, batch, options.delayed_sync);
        let fwd_span = mrbc_obs::span("batch.forward", mrbc_obs::Phase::Forward.as_str())
            .arg("batch", bi as u64)
            .arg("k", batch.len() as u64);
        state.forward(&mut stats, link.as_deref_mut());
        drop(fwd_span);
        let bwd_span = mrbc_obs::span("batch.backward", mrbc_obs::Phase::Accumulation.as_str())
            .arg("batch", bi as u64)
            .arg("r_term", state.r_term as u64);
        state.backward(&mut stats, link.as_deref_mut());
        drop(bwd_span);
        for (v, x) in bc.iter_mut().enumerate() {
            for (j, &s) in batch.iter().enumerate() {
                if s as usize != v {
                    *x += state.delta_g[v * state.k + j];
                }
            }
        }
        // Lemma 8 batch progress: every source of the batch is settled
        // once its accumulation phase drains.
        settled += batch.len();
        mrbc_obs::counter_add("mrbc.sources_settled", batch.len() as u64);
        if mrbc_obs::verbose_enabled() {
            mrbc_obs::progress(&format!(
                "mrbc batch {}/{num_batches} · sources {settled}/{} · round {} · {} B",
                bi + 1,
                sorted.len(),
                stats.num_rounds(),
                stats.total_bytes(),
            ));
        }
        if let Some(p) = probe.as_mut() {
            p.record_batch(g, batch, &state.dist_g, &state.sigma_g);
        }
    }
    if mrbc_obs::verbose_enabled() {
        mrbc_obs::progress_done();
    }
    if let Some(p) = probe {
        crate::probes::check_bsp_run(g, sorted.len(), dg.num_hosts, &stats, &p).record();
    }
    DistBcOutcome { bc, stats }
}

/// Per-host forward-phase push records: `(target vertex, source index,
/// candidate distance, σ contribution)` plus the host's work units.
pub(crate) type FwdPushes = (Vec<(u32, u32, u32, f64)>, u64);

/// Per-host backward-phase push records: `(target vertex, source index,
/// pushing vertex, δ contribution)` plus the host's work units.
pub(crate) type BwdPushes = (Vec<(u32, u32, u32, f64)>, u64);

/// Per-host proxy labels for one batch: the partial (pre-reduce) values
/// accumulated from local edges, flat over `(local proxy, source)`.
pub(crate) struct HostState {
    pub(crate) dist: Vec<u32>,
    pub(crate) sigma: Vec<f64>,
    pub(crate) delta: Vec<f64>,
    /// Forward-synced markers: after `(v, j)` syncs, the proxy value is
    /// final and must never receive another shortest-path contribution.
    pub(crate) synced: DenseBitset,
}

/// One batch's execution state.
///
/// Fields and the per-host step methods are `pub(crate)` so the SPMD
/// replicated-state driver (`dist::spmd`, powering the multi-process
/// transport) can run the *same* state machine decomposed into
/// `begin_step` / `local_step(host)` / `fold` — a single source of truth
/// for the label evolution, which is what makes TCP workers bit-identical
/// to this in-process path.
pub(crate) struct Batch<'a> {
    pub(crate) g: &'a CsrGraph,
    pub(crate) dg: &'a DistGraph,
    pub(crate) k: usize,
    /// Authoritative labels, flat over `(global vertex, source)`.
    pub(crate) dist_g: Vec<u32>,
    pub(crate) sigma_g: Vec<f64>,
    pub(crate) delta_g: Vec<f64>,
    pub(crate) tau: Vec<u32>,
    /// The schedule `M_v` per global vertex, with its forward calendar.
    pub(crate) schedule: SendSchedule,
    pub(crate) pending_total: u64,
    /// Forward-phase termination round `R`.
    pub(crate) r_term: u32,
    pub(crate) hosts: Vec<HostState>,
    /// Delayed (paper) vs eager (Gluon-default) synchronization.
    pub(crate) delayed_sync: bool,
    /// Eager mode: `(host, v, j)` proxy labels updated last round and not
    /// yet synchronized.
    eager_pending: Vec<(u16, u32, u32)>,
}

/// Forward push kernel for one host: relax the flagged labels along the
/// host's local out-edges, updating its proxy partials. Shared verbatim
/// by the in-process path and the SPMD `local_step`.
pub(crate) fn fwd_push_host(
    dg: &DistGraph,
    h: usize,
    k: usize,
    sigma_g: &[f64],
    hs: &mut HostState,
    flags: &[(u32, u32, u32)],
) -> FwdPushes {
    let topo = &dg.hosts[h];
    let mut out: Vec<(u32, u32, u32, f64)> = Vec::new();
    let mut w = 0u64;
    for &(v, j, d) in flags {
        let Some(lv) = dg.local(h, v) else { continue };
        // Schedule scan + sync bookkeeping for this label.
        w += 2;
        let sig = sigma_g[v as usize * k + j as usize];
        let d_new = d + 1;
        for &lu in topo.graph.out_neighbors(lv) {
            // Relaxation + M_v flat-map/bitvector upkeep: the
            // data-structure overhead behind the paper's "computation
            // time of MRBC is higher than that of SBBC" (Section 5.3).
            w += 3;
            let gu = topo.global_of_local[lu as usize];
            let idx = lu as usize * k + j as usize;
            let cur = hs.dist[idx];
            if d_new < cur {
                debug_assert!(!hs.synced.get(idx), "proxy improved after its sync round");
                hs.dist[idx] = d_new;
                hs.sigma[idx] = sig;
                out.push((gu, j, d_new, sig));
            } else if d_new == cur {
                debug_assert!(!hs.synced.get(idx), "σ contribution after the sync round");
                hs.sigma[idx] += sig;
                out.push((gu, j, d_new, sig));
            }
            // d_new > cur: longer path, ignored.
        }
    }
    (out, w)
}

/// Backward push kernel for one host: push `(1 + δ)/σ` to shortest-path
/// predecessors along the host's local in-edges. Shared by the
/// in-process path and the SPMD `local_step`.
#[allow(clippy::too_many_arguments)] // kernel boundary: three global views + per-host state
pub(crate) fn bwd_push_host(
    dg: &DistGraph,
    h: usize,
    k: usize,
    dist_g: &[u32],
    sigma_g: &[f64],
    delta_g: &[f64],
    hs: &mut HostState,
    flags: &[(u32, u32, u32)],
) -> BwdPushes {
    let topo = &dg.hosts[h];
    let mut out = Vec::new();
    let mut w = 0u64;
    for &(v, j, dv) in flags {
        let Some(lv) = dg.local(h, v) else { continue };
        w += 2;
        let gidx = v as usize * k + j as usize;
        let m = (1.0 + delta_g[gidx]) / sigma_g[gidx];
        for &lu in topo.in_graph.out_neighbors(lv) {
            // Accumulation + per-source indexing upkeep.
            w += 2;
            let gu = topo.global_of_local[lu as usize] as usize;
            let uidx = gu * k + j as usize;
            // u ∈ P_s(v) iff d_su + 1 = d_sv.
            if dv > 0 && dist_g[uidx] == dv - 1 {
                let contrib = sigma_g[uidx] * m;
                hs.delta[lu as usize * k + j as usize] += contrib;
                out.push((gu as u32, j, v, contrib));
            }
        }
    }
    (out, w)
}

impl<'a> Batch<'a> {
    pub(crate) fn new(
        g: &'a CsrGraph,
        dg: &'a DistGraph,
        sources: &[VertexId],
        delayed_sync: bool,
    ) -> Self {
        let n = g.num_vertices();
        let k = sources.len();
        let hosts = dg
            .hosts
            .iter()
            .map(|h| {
                let p = h.num_proxies();
                HostState {
                    dist: vec![INF_DIST; p * k],
                    sigma: vec![0.0; p * k],
                    delta: vec![0.0; p * k],
                    synced: DenseBitset::new(p * k),
                }
            })
            .collect();
        let mut b = Self {
            g,
            dg,
            k,
            dist_g: vec![INF_DIST; n * k],
            sigma_g: vec![0.0; n * k],
            delta_g: vec![0.0; n * k],
            tau: vec![u32::MAX; n * k],
            schedule: SendSchedule::new(n, k),
            pending_total: 0,
            r_term: 0,
            hosts,
            delayed_sync,
            eager_pending: Vec::new(),
        };
        for (j, &s) in sources.iter().enumerate() {
            let v = s as usize;
            b.dist_g[v * k + j] = 0;
            b.sigma_g[v * k + j] = 1.0;
            b.schedule.insert(v, j as u32, 0);
            b.pending_total += 1;
            // The source's own proxy on its owner starts with (0, 1).
            let own = dg.owner(s) as usize;
            // lint: allow(unwrap): every vertex has a master proxy on its owner host
            let l = dg.local(own, s).expect("owner has master proxy") as usize;
            b.hosts[own].dist[l * k + j] = 0;
            b.hosts[own].sigma[l * k + j] = 1.0;
            if !b.delayed_sync {
                b.eager_pending.push((own as u16, s, j as u32));
            }
        }
        b
    }

    /// Marks the round's flags as sent: stamps `τ`, retires them from the
    /// pending count and advances each vertex's calendar entry.
    /// Replicated-state mutation (every SPMD replica runs it identically
    /// in `begin_step`).
    pub(crate) fn mark_flags(&mut self, flags: &[(u32, u32, u32)], round: u32) {
        for &(v, j, _) in flags {
            let idx = v as usize * self.k + j as usize;
            debug_assert_eq!(self.tau[idx], u32::MAX);
            self.tau[idx] = round;
            self.pending_total -= 1;
            self.schedule.mark_sent(v as usize);
        }
    }

    /// Forward phase: Algorithm 3 as BSP rounds with delayed sync.
    fn forward(&mut self, stats: &mut BspStats, mut link: Option<&mut ReliableLink<'_>>) {
        let n = self.g.num_vertices();
        let k = self.k;
        let cap = 2 * n as u32 + k as u32 + 2;
        let mut round = 0u32;
        while self.pending_total > 0 {
            round += 1;
            assert!(round <= cap, "forward phase exceeded the 2n + k bound");
            if let Some(l) = link.as_deref_mut() {
                l.begin_round(stats.num_rounds() + 1);
            }
            let mut comm = RoundComm::new(self.dg.num_hosts);

            // Flag set: labels whose send condition r = d + ℓ_v^r(d, s)
            // fires this round, read off the calendar.
            let flags = self.schedule.flags(round);
            self.mark_flags(&flags, round);
            if mrbc_obs::verbose_enabled() {
                mrbc_obs::progress(&format!(
                    "round {round} · frontier {} · pending {}",
                    flags.len(),
                    self.pending_total
                ));
            }

            // SYNC: delayed mode reduces + broadcasts exactly the flagged
            // labels; eager mode synchronizes whatever was updated in the
            // previous round (Gluon's default behavior).
            if self.delayed_sync {
                self.sync_flags(
                    &flags,
                    &mut comm,
                    /*forward=*/ true,
                    link.as_deref_mut(),
                );
            } else {
                self.eager_sync(&mut comm, link.as_deref_mut());
            }

            // COMPUTE: every host pushes each flagged label along its
            // local out-edges, updating its own proxy partials.
            let dg = self.dg;
            let sigma_g = &self.sigma_g;
            let pushes: Vec<FwdPushes> = self
                .hosts
                .par_iter_mut()
                .enumerate()
                .map(|(h, hs)| fwd_push_host(dg, h, k, sigma_g, hs, &flags))
                .collect();

            // Merge pushes into the authoritative state (Steps 11–17).
            let mut work = Vec::with_capacity(self.dg.num_hosts);
            for (h, (host_pushes, w)) in pushes.into_iter().enumerate() {
                work.push(w);
                for (gu, j, d_new, sig) in host_pushes {
                    if !self.delayed_sync {
                        self.eager_pending.push((h as u16, gu, j));
                    }
                    self.merge_global(gu as usize, j as usize, d_new, sig);
                }
            }

            stats.record_round(work, comm);
        }
        // Eager mode flushes the final round's updates in one extra sync.
        if !self.delayed_sync && !self.eager_pending.is_empty() {
            round += 1;
            if let Some(l) = link.as_deref_mut() {
                l.begin_round(stats.num_rounds() + 1);
            }
            let mut comm = RoundComm::new(self.dg.num_hosts);
            self.eager_sync(&mut comm, link);
            stats.record_round(vec![0; self.dg.num_hosts], comm);
        }
        self.r_term = round;
    }

    /// Gluon-default synchronization: every proxy label updated since the
    /// previous sync is reduced to its master and the reconciled value
    /// broadcast to every mirror — once per round it changed, not once
    /// per phase. Only the traffic differs from delayed mode; the
    /// computation (and therefore every result) is identical.
    fn eager_sync(&mut self, comm: &mut RoundComm, mut link: Option<&mut ReliableLink<'_>>) {
        let updates = std::mem::take(&mut self.eager_pending);
        if updates.is_empty() {
            return;
        }
        let mut reduce: Exchange<()> = Exchange::new(self.dg.num_hosts);
        let mut bcast: Exchange<()> = Exchange::new(self.dg.num_hosts);
        // Distinct (host, v, j) contribute one reduce item each ...
        let mut contributors = updates;
        contributors.sort_unstable();
        contributors.dedup();
        for &(h, v, _) in &contributors {
            let own = self.dg.owner(v) as usize;
            if h as usize != own {
                reduce.send(h as usize, own, (), MRBC_ITEM_BYTES);
            }
        }
        // ... and each distinct (v, j) broadcasts to every mirror.
        let mut labels: Vec<(u32, u32)> = contributors.iter().map(|&(_, v, j)| (v, j)).collect();
        labels.sort_unstable();
        labels.dedup();
        for &(v, _) in &labels {
            let own = self.dg.owner(v) as usize;
            for &mh in self.dg.mirror_hosts(v) {
                bcast.send(own, mh as usize, (), MRBC_ITEM_BYTES);
            }
        }
        finish_phase(reduce, self.dg, PhaseDir::Reduce, comm, link.as_deref_mut());
        finish_phase(bcast, self.dg, PhaseDir::Broadcast, comm, link);
    }

    /// Merge one push into the global labels and schedule (Steps 11–17 of
    /// Algorithm 3 on the authoritative state).
    pub(crate) fn merge_global(&mut self, v: usize, j: usize, d_new: u32, sig: f64) {
        let k = self.k;
        let idx = v * k + j;
        let cur = self.dist_g[idx];
        if cur == INF_DIST {
            self.dist_g[idx] = d_new;
            self.sigma_g[idx] = sig;
            self.schedule.insert(v, j as u32, d_new);
            self.pending_total += 1;
        } else if cur == d_new {
            debug_assert_eq!(self.tau[idx], u32::MAX, "σ after send (Lemma 5)");
            self.sigma_g[idx] += sig;
        } else if cur > d_new {
            debug_assert_eq!(self.tau[idx], u32::MAX, "improvement after send");
            self.dist_g[idx] = d_new;
            self.sigma_g[idx] = sig;
            self.schedule.improve(v, j as u32, cur, d_new);
        }
    }

    /// Applies the broadcast leg of one sync to a single host: for every
    /// flagged `(v, j)` with a proxy on `h` that consumes the value (or
    /// is the master), overwrite the proxy partial with the reconciled
    /// authoritative value. This is the *only* state mutation a sync
    /// performs, factored per host so the SPMD driver can run exactly
    /// host `h`'s share inside `local_step(h)` — any two decompositions
    /// that call it once per (host, flag set) produce identical state.
    pub(crate) fn apply_sync_to_host(
        &mut self,
        h: usize,
        flags: &[(u32, u32, u32)],
        forward: bool,
    ) {
        let k = self.k;
        for &(v, j, _) in flags {
            let own = self.dg.owner(v) as usize;
            let Some(l) = self.dg.local(h, v) else {
                continue;
            };
            let consumes = if forward {
                self.dg.hosts[h].graph.out_degree(l) > 0
            } else {
                self.dg.hosts[h].in_graph.out_degree(l) > 0
            };
            if !consumes && h != own {
                continue;
            }
            let gidx = v as usize * k + j as usize;
            let lidx = l as usize * k + j as usize;
            let d_final = self.dist_g[gidx];
            let sig = self.sigma_g[gidx];
            let del = self.delta_g[gidx];
            let hs = &mut self.hosts[h];
            if forward {
                hs.dist[lidx] = d_final;
                hs.sigma[lidx] = sig;
                hs.synced.set(lidx);
            } else {
                hs.delta[lidx] = del;
            }
        }
    }

    /// One reduce + broadcast cycle for the flagged labels. In the
    /// forward phase (d, σ) is reconciled; in the backward phase δ.
    ///
    /// Structured as a read-only accounting pass over all proxies
    /// followed by [`Self::apply_sync_to_host`] for every host. The two
    /// passes commute because each flag touches its own `(v, j)` slots
    /// only (at most one flag per vertex per round), so this is
    /// equivalent to the interleaved per-flag form — and it keeps the
    /// state writes in the one helper the SPMD driver shares.
    fn sync_flags(
        &mut self,
        flags: &[(u32, u32, u32)],
        comm: &mut RoundComm,
        forward: bool,
        mut link: Option<&mut ReliableLink<'_>>,
    ) {
        let k = self.k;
        let mut reduce: Exchange<()> = Exchange::new(self.dg.num_hosts);
        let mut bcast: Exchange<()> = Exchange::new(self.dg.num_hosts);
        for &(v, j, _) in flags {
            let gidx = v as usize * k + j as usize;
            let own = self.dg.owner(v) as usize;
            let mut reduced_sigma = 0.0f64;
            let mut reduced_delta = 0.0f64;
            let d_final = self.dist_g[gidx];
            // Reduce: every proxy (mirrors and master alike) contributes
            // its partial; mirror contributions cross the network.
            for h in std::iter::once(own).chain(self.dg.mirror_hosts(v).iter().map(|&m| m as usize))
            {
                let Some(l) = self.dg.local(h, v) else {
                    continue;
                };
                let lidx = l as usize * k + j as usize;
                let hs = &self.hosts[h];
                if forward {
                    if hs.dist[lidx] == d_final {
                        reduced_sigma += hs.sigma[lidx];
                    }
                    if h != own && hs.dist[lidx] != INF_DIST {
                        reduce.send(h, own, (), MRBC_ITEM_BYTES);
                    }
                } else {
                    reduced_delta += hs.delta[lidx];
                    if h != own && hs.delta[lidx] != 0.0 {
                        reduce.send(h, own, (), MRBC_ITEM_BYTES);
                    }
                }
            }
            if forward {
                debug_assert!(
                    (reduced_sigma - self.sigma_g[gidx]).abs()
                        <= 1e-9 * self.sigma_g[gidx].max(1.0),
                    "σ reduce mismatch: {} vs {}",
                    reduced_sigma,
                    self.sigma_g[gidx]
                );
            } else {
                debug_assert!(
                    (reduced_delta - self.delta_g[gidx]).abs()
                        <= 1e-9 * self.delta_g[gidx].abs().max(1.0),
                    "δ reduce mismatch: {} vs {}",
                    reduced_delta,
                    self.delta_g[gidx]
                );
            }
            // Broadcast the reconciled value to every proxy that can use
            // it. Gluon "automatically exploits partitioning constraints
            // to avoid the default all-reduce" (Section 4.1): a proxy
            // consumes the forward (d, σ) only to push along local
            // out-edges, and the backward δ only to push along local
            // in-edges, so mirrors without such edges are skipped —
            // e.g. under the Cartesian vertex-cut, forward values flow
            // only to the owner's grid row and δ only to its column.
            for h in std::iter::once(own).chain(self.dg.mirror_hosts(v).iter().map(|&m| m as usize))
            {
                let Some(l) = self.dg.local(h, v) else {
                    continue;
                };
                let consumes = if forward {
                    self.dg.hosts[h].graph.out_degree(l) > 0
                } else {
                    self.dg.hosts[h].in_graph.out_degree(l) > 0
                };
                if !consumes && h != own {
                    continue;
                }
                if h != own {
                    bcast.send(own, h, (), MRBC_ITEM_BYTES);
                }
            }
        }
        for h in 0..self.dg.num_hosts {
            self.apply_sync_to_host(h, flags, forward);
        }
        finish_phase(reduce, self.dg, PhaseDir::Reduce, comm, link.as_deref_mut());
        finish_phase(bcast, self.dg, PhaseDir::Broadcast, comm, link);
    }

    /// Buckets the accumulation agenda by backward round:
    /// `A_sv = R − τ_sv + 1`. Pure; deterministic bucket order.
    pub(crate) fn build_agenda(&self) -> Vec<Vec<(u32, u32, u32)>> {
        let n = self.g.num_vertices();
        let k = self.k;
        let r = self.r_term;
        let mut agenda: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); r as usize + 2];
        for v in 0..n {
            for j in 0..k {
                let tau = self.tau[v * k + j];
                if tau != u32::MAX {
                    let a = r - tau + 1;
                    agenda[a as usize].push((v as u32, j as u32, self.dist_g[v * k + j]));
                }
            }
        }
        agenda
    }

    /// Folds the parked δ contributions of the flagged labels into
    /// `delta_g`, in canonical pushing-vertex order (the determinism
    /// argument lives on [`Batch::backward`]'s `pending` comment).
    pub(crate) fn fold_pending_flags(
        &mut self,
        flags: &[(u32, u32, u32)],
        pending: &mut [Vec<(u32, f64)>],
    ) {
        for &(v, j, _) in flags {
            let gidx = v as usize * self.k + j as usize;
            let mut contribs = std::mem::take(&mut pending[gidx]);
            contribs.sort_unstable_by_key(|&(w, _)| w);
            for (_, c) in contribs {
                self.delta_g[gidx] += c;
            }
        }
    }

    /// Defensive terminal fold: drains whatever is still parked (nothing
    /// should be — every contributed slot has finite τ and fires) so
    /// `delta_g` is complete for the final BC read.
    pub(crate) fn fold_all_pending(&mut self, pending: &mut [Vec<(u32, f64)>]) {
        for (idx, contribs) in pending.iter_mut().enumerate() {
            if !contribs.is_empty() {
                contribs.sort_unstable_by_key(|&(w, _)| w);
                for &(_, c) in contribs.iter() {
                    self.delta_g[idx] += c;
                }
                contribs.clear();
            }
        }
    }

    /// Backward phase: Algorithm 5 as BSP rounds. `A_sv = R − τ_sv + 1`.
    fn backward(&mut self, stats: &mut BspStats, mut link: Option<&mut ReliableLink<'_>>) {
        let n = self.g.num_vertices();
        let k = self.k;
        let r = self.r_term;
        let mut agenda = self.build_agenda();

        // δ contributions are not applied to `delta_g` at push time:
        // f64 sums are not associative, and push order follows the τ
        // schedule, which depends on host count and batch composition.
        // Instead they park here per (v, j) and fold in canonical
        // successor order when the target's own slot fires (all of its
        // contributions have arrived by then — Lemma 7), so BC scores
        // are bit-identical across host counts and batch sizes.
        let mut pending: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n * k];
        for round in 1..=(r + 1) {
            let flags = std::mem::take(&mut agenda[round as usize]);
            self.fold_pending_flags(&flags, &mut pending);
            if let Some(l) = link.as_deref_mut() {
                l.begin_round(stats.num_rounds() + 1);
            }
            let mut comm = RoundComm::new(self.dg.num_hosts);
            // SYNC δ for the labels due this round (delayed), or all δ
            // partials updated last round (eager).
            if self.delayed_sync {
                self.sync_flags(
                    &flags,
                    &mut comm,
                    /*forward=*/ false,
                    link.as_deref_mut(),
                );
            } else {
                self.eager_sync(&mut comm, link.as_deref_mut());
            }

            // COMPUTE: push (1 + δ)/σ to shortest-path predecessors along
            // local in-edges; accumulate δ partials per host.
            let dg = self.dg;
            let (dist_g, sigma_g, delta_g) = (&self.dist_g, &self.sigma_g, &self.delta_g);
            let pushes: Vec<BwdPushes> = self
                .hosts
                .par_iter_mut()
                .enumerate()
                .map(|(h, hs)| bwd_push_host(dg, h, k, dist_g, sigma_g, delta_g, hs, &flags))
                .collect();
            let mut work = Vec::with_capacity(self.dg.num_hosts);
            for (h, (host_pushes, w)) in pushes.into_iter().enumerate() {
                work.push(w);
                for (gu, j, v, contrib) in host_pushes {
                    if !self.delayed_sync {
                        self.eager_pending.push((h as u16, gu, j));
                    }
                    pending[gu as usize * k + j as usize].push((v, contrib));
                }
            }
            stats.record_round(work, comm);
        }
        // Every slot with a contribution fires (its τ is finite), so
        // nothing should be parked here; fold defensively anyway so
        // `delta_g` is complete for the final BC read.
        self.fold_all_pending(&mut pending);
        if !self.delayed_sync && !self.eager_pending.is_empty() {
            if let Some(l) = link.as_deref_mut() {
                l.begin_round(stats.num_rounds() + 1);
            }
            let mut comm = RoundComm::new(self.dg.num_hosts);
            self.eager_sync(&mut comm, link);
            stats.record_round(vec![0; self.dg.num_hosts], comm);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brandes;
    use mrbc_dgalois::{partition, PartitionPolicy};
    use mrbc_graph::generators;
    use proptest::prelude::*;

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
        let g = generators::rmat(generators::RmatConfig::new(6, 5), 21);
        let sources: Vec<u32> = (0..16).collect();
        let want = brandes::bc_sources(&g, &sources);
        for policy in [
            PartitionPolicy::BlockedEdgeCut,
            PartitionPolicy::HashedEdgeCut,
            PartitionPolicy::CartesianVertexCut,
        ] {
            for hosts in [1, 2, 4] {
                let dg = partition(&g, hosts, policy);
                let out = mrbc_bc(&g, &dg, &sources, 8);
                assert_bc_close(&out.bc, &want);
            }
        }
    }

    #[test]
    fn batch_size_does_not_change_results() {
        let g = generators::web_crawl(generators::WebCrawlConfig::new(300), 4);
        let sources: Vec<u32> = (0..24).collect();
        let dg = partition(&g, 4, PartitionPolicy::CartesianVertexCut);
        let want = brandes::bc_sources(&g, &sources);
        for batch in [1, 4, 24] {
            let out = mrbc_bc(&g, &dg, &sources, batch);
            assert_bc_close(&out.bc, &want);
        }
    }

    #[test]
    fn larger_batches_cut_rounds() {
        let g = generators::grid_road_network(generators::RoadNetworkConfig::new(3, 30), 2);
        let sources: Vec<u32> = (0..16).collect();
        let dg = partition(&g, 4, PartitionPolicy::CartesianVertexCut);
        let small = mrbc_bc(&g, &dg, &sources, 2);
        let large = mrbc_bc(&g, &dg, &sources, 16);
        assert!(
            large.stats.num_rounds() * 2 < small.stats.num_rounds(),
            "batch 16: {} rounds, batch 2: {} rounds",
            large.stats.num_rounds(),
            small.stats.num_rounds()
        );
        assert_bc_close(&large.bc, &small.bc);
    }

    #[test]
    fn round_bound_two_k_plus_h() {
        // Lemma 8 + Theorem 1 II: one batch of k sources finishes in at
        // most ~2(k + H) rounds.
        let g = generators::random_strongly_connected(80, 0.06, 7);
        let sources: Vec<u32> = (0..16).collect();
        let dg = partition(&g, 2, PartitionPolicy::BlockedEdgeCut);
        let out = mrbc_bc(&g, &dg, &sources, 16);
        let h = (0..16usize)
            .flat_map(|j| (0..80usize).map(move |v| (j, v)))
            .filter_map(|(j, v)| {
                let d = mrbc_graph::algo::bfs_distances(&g, sources[j])[v];
                (d != mrbc_graph::INF_DIST).then_some(d)
            })
            .max()
            .unwrap_or(0);
        let bound = 2 * (16 + h + 2);
        assert!(
            out.stats.num_rounds() <= bound,
            "rounds {} > 2(k + H) = {bound}",
            out.stats.num_rounds()
        );
    }

    #[test]
    fn single_host_has_zero_comm_volume() {
        let g = generators::cycle(30);
        let sources: Vec<u32> = (0..6).collect();
        let dg = partition(&g, 1, PartitionPolicy::BlockedEdgeCut);
        let out = mrbc_bc(&g, &dg, &sources, 6);
        assert_eq!(out.stats.total_bytes(), 0);
        assert_bc_close(&out.bc, &brandes::bc_sources(&g, &sources));
    }

    #[test]
    fn eager_sync_same_results_more_traffic() {
        // The Section 4.3 delayed-synchronization ablation: Gluon-default
        // eager sync must produce identical BC values while synchronizing
        // more items and shipping more bytes.
        let g = generators::web_crawl(generators::WebCrawlConfig::new(400), 6);
        let sources: Vec<u32> = (0..24).collect();
        let dg = partition(&g, 4, PartitionPolicy::CartesianVertexCut);
        let delayed = mrbc_bc_with_options(
            &g,
            &dg,
            &sources,
            &MrbcOptions {
                batch_size: 12,
                delayed_sync: true,
            },
        );
        let eager = mrbc_bc_with_options(
            &g,
            &dg,
            &sources,
            &MrbcOptions {
                batch_size: 12,
                delayed_sync: false,
            },
        );
        assert_bc_close(&eager.bc, &delayed.bc);
        assert!(
            eager.stats.total_sync_items() > delayed.stats.total_sync_items(),
            "eager items {} !> delayed items {}",
            eager.stats.total_sync_items(),
            delayed.stats.total_sync_items()
        );
        assert!(
            eager.stats.total_bytes() > delayed.stats.total_bytes(),
            "eager bytes {} !> delayed bytes {}",
            eager.stats.total_bytes(),
            delayed.stats.total_bytes()
        );
    }

    #[test]
    fn empty_sources() {
        let g = generators::path(5);
        let dg = partition(&g, 2, PartitionPolicy::BlockedEdgeCut);
        let out = mrbc_bc(&g, &dg, &[], 4);
        assert!(out.bc.iter().all(|&b| b == 0.0));
        assert_eq!(out.stats.num_rounds(), 0);
    }

    /// Runs one batch's forward phase as the SPMD driver decomposes it
    /// (flags, mark, per-host sync + push, merge in host order) and checks
    /// the calendar's flag set against the full `M_v` scan every round.
    fn forward_matches_scan(
        g: &CsrGraph,
        dg: &DistGraph,
        batch: &[VertexId],
    ) -> proptest::TestCaseResult {
        let mut b = Batch::new(g, dg, batch, true);
        let mut round = 0;
        let mut sent = 0u64;
        while b.pending_total > 0 {
            round += 1;
            prop_assert!(round <= 2 * g.num_vertices() as u32 + b.k as u32 + 2);
            let flags = b.schedule.flags(round);
            prop_assert_eq!(&flags, &b.schedule.scan_flags(round), "round {}", round);
            sent += flags.len() as u64;
            b.mark_flags(&flags, round);
            let pushes: Vec<FwdPushes> = (0..dg.num_hosts)
                .map(|h| {
                    b.apply_sync_to_host(h, &flags, true);
                    fwd_push_host(dg, h, b.k, &b.sigma_g, &mut b.hosts[h], &flags)
                })
                .collect();
            for (gu, j, d_new, sig) in pushes.into_iter().flat_map(|(p, _)| p) {
                b.merge_global(gu as usize, j as usize, d_new, sig);
            }
        }
        let reachable = b.dist_g.iter().filter(|&&d| d != INF_DIST).count() as u64;
        prop_assert_eq!(sent, reachable);
        Ok(())
    }

    proptest! {
        #[test]
        fn prop_calendar_flags_equal_the_full_scan(
            n in 2usize..24,
            raw in proptest::collection::vec((0u32..24, 0u32..24), 0..80),
            picks in proptest::collection::vec(0u32..24, 1..8),
        ) {
            let g = mrbc_graph::GraphBuilder::new(n)
                .edges(raw.into_iter().map(|(u, v)| (u % n as u32, v % n as u32)))
                .build();
            let mut sources: Vec<u32> = picks.into_iter().map(|s| s % n as u32).collect();
            sources.sort_unstable();
            sources.dedup();
            for hosts in [1, 2, 4] {
                let dg = partition(&g, hosts, PartitionPolicy::CartesianVertexCut);
                for batch in [1, 3, sources.len()] {
                    for chunk in sources.chunks(batch) {
                        forward_matches_scan(&g, &dg, chunk)?;
                    }
                }
            }
        }
    }

    #[test]
    fn reliable_link_masks_faults_bitwise() {
        let g = generators::rmat(generators::RmatConfig::new(6, 5), 13);
        let sources: Vec<u32> = (0..12).collect();
        let dg = partition(&g, 4, PartitionPolicy::CartesianVertexCut);
        let opts = MrbcOptions {
            batch_size: 6,
            delayed_sync: true,
        };
        let clean = mrbc_bc_with_options(&g, &dg, &sources, &opts);
        let session = mrbc_faults::FaultSession::new(
            "drop:p=0.1;delay:pair=1-2,rounds=1;seed=42"
                .parse()
                .unwrap(),
        );
        let (faulty, recovery) = mrbc_bc_with_faults(&g, &dg, &sources, &opts, &session);
        // Bitwise, not approximately: retries happen within the round.
        assert_eq!(clean.bc, faulty.bc);
        assert_eq!(clean.stats.total_bytes(), faulty.stats.total_bytes());
        assert_eq!(clean.stats.num_rounds(), faulty.stats.num_rounds());
        assert!(faulty.stats.total_retry_bytes() > 0, "{recovery:?}");
        assert!(recovery.retransmissions > 0, "{recovery:?}");
        assert_eq!(recovery.crashes, 0);
    }
}
