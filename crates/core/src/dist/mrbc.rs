//! MRBC on the simulated D-Galois substrate, with the paper's
//! optimizations (Section 4.3).
//!
//! * **Data structures** — Section 4.3 keeps per vertex a dense array
//!   `A_v` of `(distance, σ, δ)` over the sources and the send schedule
//!   `M_v : distance → bitvector over sources`. Here distance, σ, δ and
//!   τ are four separate flat arrays over `(vertex, source)` (`dist_g`,
//!   `sigma_g`, `delta_g`, `tau`), so a vertex's row of each is
//!   contiguous. `M_v` is not stored: it is `v`'s finite distances
//!   grouped by value. The `SendSchedule` shared with the CONGEST engine
//!   keeps only what Algorithm 3's send rule reads — per vertex the count
//!   of sent labels and a min-heap of the unsent ones — and files every
//!   vertex under the round its next label fires, so a round's flag set
//!   costs the flags it holds rather than a walk over all `n` vertices.
//! * **Delayed synchronization** — a `(v, s)` label is synchronized
//!   exactly once per phase, in the round in which Algorithm 3/5 proves
//!   it final, instead of every round it changes.
//! * **Proxy synchronization rule** — in round `r`, `(d_sv, σ_sv)` is
//!   reduced from mirrors to the master and broadcast back only if
//!   `r = d_sv + ℓ_v^r(d_sv, s)`; in the accumulation phase `δ_s•(v)` is
//!   synchronized only in round `A_sv`.
//!
//! Execution model: one BSP round = one CONGEST round = one step of
//! [`MrbcSpmd`], the only MRBC state machine (the TCP mesh steps the same
//! machine). [`mrbc_bc`] steps it in-process on typed per-host
//! `Pushes`, with no serialization. Each round the machine first picks
//! the labels whose send condition fires and buckets them by the hosts
//! that hold a proxy of their vertex; every host then counts Gluon's
//! reduce/broadcast (one item from each mirror holding a partial to the
//! master, one from the master to each mirror that consumes the value)
//! for the proxies of its bucket and pushes those labels along its local
//! edges; and the machine merges the forward pushes in flag order (a
//! firing label's δ is pulled from its successors: [`pull_delta`]). The
//! σ and δ values themselves live only in the replicated labels; a proxy
//! keeps its distance. Hosts run one after another on one thread. The
//! authoritative pipelining schedule is kept per global vertex, which is
//! exactly the CONGEST semantics the correctness lemmas are stated for
//! (each host's flag is a subset of the global flag; Gluon synchronizes
//! the union).
//!
//! Traffic is only counted, where the proxy is touched: each host's
//! apply pass counts the sync items it moves, and the [`ReliableLink`] of
//! [`mrbc_bc_with_faults`] retries the counted messages, while the labels
//! move through the typed pushes. Eager mode (the ablation) counts every
//! proxy label a step pushed and never writes the reconciled value back
//! to mirror proxies, so its column charges broadcasts to mirrors that
//! never receive them.

use super::spmd::{self, MrbcSpmd};
use super::{DistBcOutcome, MRBC_ITEM_BYTES};
use crate::brandes::pull_delta;
use crate::schedule::{Flag, SendSchedule};
use mrbc_dgalois::comm::{Exchange, PhaseDir, RoundComm};
use mrbc_dgalois::spmd::SpmdProgram;
use mrbc_dgalois::{BspStats, DistGraph, ReliableLink};
use mrbc_faults::{FaultSession, RecoveryStats};
use mrbc_graph::{CsrGraph, VertexId, INF_DIST};

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
/// [`RecoveryStats`]. Plan clauses aimed at the real substrates (`kill`,
/// `partition`, serving faults) do not apply here.
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

/// The in-process driver: steps [`MrbcSpmd`] with typed pushes and adds
/// what only this path has — traffic accounting, the optional link, the
/// eager ablation's bookkeeping, spans, probes and progress.
fn run(
    g: &CsrGraph,
    dg: &DistGraph,
    sources: &[VertexId],
    options: &MrbcOptions,
    mut link: Option<&mut ReliableLink<'_>>,
) -> DistBcOutcome {
    let mut prog = MrbcSpmd::with_options(g, dg, sources, options);
    let mut stats = BspStats::new(dg.num_hosts);
    let mut probe = mrbc_obs::probes_enabled().then(crate::probes::BspProbeAccum::default);
    // Eager mode: `(host, v, j)` proxy labels updated by the last step and
    // not yet synchronized.
    let mut eager: Vec<(u16, u32, u32)> = Vec::new();
    // The open phase span and the `(batch, forward)` it covers.
    let mut span = None;
    let mut spanned = None;
    let mut settled = 0usize;
    let mut step = 0u64;
    while let Some((bi, run)) = prog.current() {
        let forward = run.is_forward();
        if spanned != Some((bi, forward)) {
            drop(span.take());
            let batch = prog.batch_sources(bi);
            span = Some(if forward {
                if !options.delayed_sync {
                    // Each source's own proxy starts updated with (0, 1).
                    let seeds = batch.iter().enumerate();
                    eager.extend(seeds.map(|(j, &s)| (dg.owner(s), s, j as u32)));
                }
                mrbc_obs::span("batch.forward", mrbc_obs::Phase::Forward.as_str())
                    .arg("batch", bi as u64)
                    .arg("k", batch.len() as u64)
            } else {
                // dist/σ are final once the forward phase ends.
                if let Some(p) = probe.as_mut() {
                    p.record_batch(g, batch, &run.batch.dist_g, &run.batch.sigma_g);
                }
                mrbc_obs::span("batch.backward", mrbc_obs::Phase::Accumulation.as_str())
                    .arg("batch", bi as u64)
                    .arg("r_term", run.batch.r_term as u64)
            });
            spanned = Some((bi, forward));
        }
        prog.begin_step(step);
        step += 1;
        if let Some(l) = link.as_deref_mut() {
            l.begin_round(stats.num_rounds() + 1);
        }
        if let Some((_, run)) = prog.current() {
            if let spmd::Phase::Forward { round } = run.phase {
                if mrbc_obs::verbose_enabled() {
                    mrbc_obs::progress(&format!(
                        "round {round} · frontier {} · pending {}",
                        run.flags.len(),
                        run.batch.pending_total
                    ));
                }
            }
        }
        // COMPUTE: every host applies the sync to its proxies, counting
        // it, and pushes the flagged labels along its local edges.
        let pushes: Vec<Pushes> = (0..dg.num_hosts).map(|h| prog.push(h)).collect();
        // SYNC: delayed mode prices exactly the flagged labels the apply
        // passes counted; eager mode synchronizes whatever the previous
        // step pushed (Gluon's default behavior).
        let mut comm = RoundComm::new(dg.num_hosts);
        if options.delayed_sync {
            if let Some((reduce, bcast)) = prog.take_sync() {
                reduce.finish_reliable(dg, PhaseDir::Reduce, &mut comm, link.as_deref_mut());
                bcast.finish_reliable(dg, PhaseDir::Broadcast, &mut comm, link.as_deref_mut());
            }
        } else {
            eager_sync(dg, &mut eager, &mut comm, link.as_deref_mut());
            let flags = prog.current().map_or(&[][..], |(_, run)| &run.flags);
            for (h, (records, _)) in pushes.iter().enumerate() {
                let label = |&(u, i, _): &(u32, u32, f64)| (h as u16, u, flags[i as usize].1);
                eager.extend(records.iter().map(label));
            }
        }
        stats.record_round(pushes.iter().map(|&(_, w)| w).collect(), comm);
        if let Err(e) = prog.fold_pushes(pushes) {
            panic!("{e}");
        }
        if prog.current().map(|(b, _)| b) != Some(bi) {
            drop(span.take());
            // Lemma 8 batch progress: every source of the batch is settled
            // once its accumulation phase drains.
            let k = prog.batch_sources(bi).len();
            settled += k;
            mrbc_obs::counter_add("mrbc.sources_settled", k as u64);
            if mrbc_obs::verbose_enabled() {
                mrbc_obs::progress(&format!(
                    "mrbc batch {}/{} · sources {settled}/{} · round {} · {} B",
                    bi + 1,
                    prog.num_batches(),
                    prog.num_sources(),
                    stats.num_rounds(),
                    stats.total_bytes(),
                ));
            }
        }
    }
    if mrbc_obs::verbose_enabled() {
        mrbc_obs::progress_done();
    }
    if let Some(p) = probe {
        crate::probes::check_bsp_run(g, prog.num_sources(), dg.num_hosts, &stats, &p).record();
    }
    DistBcOutcome {
        bc: prog.into_bc(),
        stats,
    }
}

/// Gluon-default synchronization: every proxy label updated since the
/// previous sync is reduced to its master and the reconciled value
/// broadcast to every mirror — once per round it changed, not once per
/// phase. Only the traffic differs from delayed mode; the computation
/// (and therefore every result) is identical.
fn eager_sync(
    dg: &DistGraph,
    updates: &mut Vec<(u16, u32, u32)>,
    comm: &mut RoundComm,
    mut link: Option<&mut ReliableLink<'_>>,
) {
    if updates.is_empty() {
        return;
    }
    let mut reduce: Exchange<()> = Exchange::new(dg.num_hosts);
    let mut bcast: Exchange<()> = Exchange::new(dg.num_hosts);
    // Distinct (host, v, j) contribute one reduce item each ...
    let mut contributors = std::mem::take(updates);
    contributors.sort_unstable();
    contributors.dedup();
    for &(h, v, _) in &contributors {
        let own = dg.owner(v) as usize;
        if h as usize != own {
            reduce.count(h as usize, own, 1, MRBC_ITEM_BYTES);
        }
    }
    // ... and each distinct (v, j) broadcasts to every mirror.
    let mut labels: Vec<(u32, u32)> = contributors.iter().map(|&(_, v, j)| (v, j)).collect();
    labels.sort_unstable();
    labels.dedup();
    for &(v, _) in &labels {
        let own = dg.owner(v) as usize;
        for &mh in dg.mirror_hosts(v) {
            bcast.count(own, mh as usize, 1, MRBC_ITEM_BYTES);
        }
    }
    reduce.finish_reliable(dg, PhaseDir::Reduce, comm, link.as_deref_mut());
    bcast.finish_reliable(dg, PhaseDir::Broadcast, comm, link);
}

/// One host's pushes for one step: `(target vertex, flag index, value)`
/// records in flag order (the flag gives the source and distance), plus
/// the host's work units. `value` is the σ contribution forward and the δ
/// contribution backward, where only the eager ablation asks for records.
pub(crate) type Pushes = (Vec<(u32, u32, f64)>, u64);

/// One flag as a host holding a proxy of its vertex sees it: `(index into
/// the step's flags, the host's local id of the vertex, the vertex's owner
/// host)`.
pub(crate) type ProxyFlag = (u32, u32, u16);

/// Buckets a step's flags by proxy host (§4.3's proxy rule): `buckets[h]`
/// lists, in flag order, every flag whose vertex has its master or a
/// mirror on `h`. One walk over the owner + mirrors of each flag replaces
/// a filter of the whole flag list per host. Keeps the buckets' capacity.
pub(crate) fn bucket_flags(dg: &DistGraph, flags: &[Flag], buckets: &mut [Vec<ProxyFlag>]) {
    for bucket in buckets.iter_mut() {
        bucket.clear();
    }
    for (i, &(v, _, _)) in flags.iter().enumerate() {
        let own = dg.owner(v);
        for h in std::iter::once(own).chain(dg.mirror_hosts(v).iter().copied()) {
            // lint: allow(unwrap): the owner and every mirror host hold a proxy of `v`
            let l = dg.local(h as usize, v).expect("proxy on owner or mirror");
            buckets[h as usize].push((i as u32, l, own));
        }
    }
}

/// Per-host proxy distances for one batch: the partial (pre-reduce)
/// distance each proxy has reached through local edges, flat over
/// `(local proxy, source)`. It filters the forward pushes and marks the
/// mirrors that hold a forward partial. Once `(v, j)` syncs, its proxies
/// hold the final `dist_g` and τ is stamped, so [`Batch::merge_pushes`]'
/// Lemma-5 checks catch any later contribution to it. σ and δ are read
/// from the replicated labels only.
pub(crate) struct HostState {
    pub(crate) dist: Vec<u32>,
}

/// One batch's labels, schedule and proxies. [`MrbcSpmd`] owns it and
/// steps it through the forward and backward phases.
pub(crate) struct Batch<'a> {
    pub(crate) g: &'a CsrGraph,
    pub(crate) dg: &'a DistGraph,
    pub(crate) k: usize,
    /// Authoritative labels, flat over `(global vertex, source)`.
    pub(crate) dist_g: Vec<u32>,
    pub(crate) sigma_g: Vec<f64>,
    pub(crate) delta_g: Vec<f64>,
    pub(crate) tau: Vec<u32>,
    /// The forward calendar per global vertex; emptied when the forward
    /// phase ends.
    pub(crate) schedule: SendSchedule,
    pub(crate) pending_total: u64,
    /// Forward-phase termination round `R`.
    pub(crate) r_term: u32,
    pub(crate) hosts: Vec<HostState>,
}

/// Forward push kernel for one host: relax the flagged labels of the
/// host's `bucket` along its local out-edges, updating its proxy
/// distances. Runs inside [`MrbcSpmd`]'s step for host `h`.
pub(crate) fn fwd_push_host(
    dg: &DistGraph,
    h: usize,
    k: usize,
    sigma_g: &[f64],
    hs: &mut HostState,
    flags: &[Flag],
    bucket: &[ProxyFlag],
) -> Pushes {
    let topo = &dg.hosts[h];
    let mut out = Vec::new();
    let mut w = 0u64;
    for &(i, lv, _) in bucket {
        let (v, j, d) = flags[i as usize];
        // Schedule scan + sync bookkeeping for this label.
        w += 2;
        let sig = sigma_g[v as usize * k + j as usize];
        let d_new = d + 1;
        for &lu in topo.graph.out_neighbors(lv) {
            // Relaxation + schedule upkeep: the data-structure overhead
            // behind the paper's "computation time of MRBC is higher than
            // that of SBBC" (Section 5.3).
            w += 3;
            let gu = topo.global_of_local[lu as usize];
            let idx = lu as usize * k + j as usize;
            // A proxy at a shorter distance is ignored.
            if d_new <= hs.dist[idx] {
                hs.dist[idx] = d_new;
                out.push((gu, i, sig));
            }
        }
    }
    (out, w)
}

/// Backward push kernel for one host: the flagged labels in the host's
/// `bucket` push `(1 + δ)/σ` to their shortest-path predecessors along
/// its local in-edges. Runs inside [`MrbcSpmd`]'s step for host `h`.
/// [`Batch::pull_deltas`] sets the authoritative δ, so the kernel counts
/// its work from the in-degrees and walks the edges only if `records`
/// asks for the pushes (the eager ablation's accounting).
pub(crate) fn bwd_push_host(
    b: &Batch<'_>,
    h: usize,
    flags: &[Flag],
    bucket: &[ProxyFlag],
    records: bool,
) -> Pushes {
    let (topo, k) = (&b.dg.hosts[h], b.k);
    let mut out = Vec::new();
    let mut w = 0u64;
    for &(i, lv, _) in bucket {
        let preds = topo.in_graph.out_neighbors(lv);
        // Sync bookkeeping, then accumulation + per-source indexing
        // upkeep per in-edge.
        w += 2 + 2 * preds.len() as u64;
        if !records {
            continue;
        }
        let (v, j, dv) = flags[i as usize];
        let gidx = v as usize * k + j as usize;
        let m = (1.0 + b.delta_g[gidx]) / b.sigma_g[gidx];
        for &lu in preds {
            let gu = topo.global_of_local[lu as usize] as usize;
            let uidx = gu * k + j as usize;
            // u ∈ P_s(v) iff d_su + 1 = d_sv.
            if dv > 0 && b.dist_g[uidx] == dv - 1 {
                out.push((gu as u32, i, b.sigma_g[uidx] * m));
            }
        }
    }
    (out, w)
}

impl<'a> Batch<'a> {
    pub(crate) fn new(g: &'a CsrGraph, dg: &'a DistGraph, sources: &[VertexId]) -> Self {
        let n = g.num_vertices();
        let k = sources.len();
        let hosts = dg
            .hosts
            .iter()
            .map(|h| HostState {
                dist: vec![INF_DIST; h.num_proxies() * k],
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
        };
        for (j, &s) in sources.iter().enumerate() {
            let v = s as usize;
            b.dist_g[v * k + j] = 0;
            b.sigma_g[v * k + j] = 1.0;
            b.schedule.insert(v, j as u32, 0);
            b.pending_total += 1;
            // The source's own proxy on its owner starts at distance 0.
            let own = dg.owner(s) as usize;
            // lint: allow(unwrap): every vertex has a master proxy on its owner host
            let l = dg.local(own, s).expect("owner has master proxy") as usize;
            b.hosts[own].dist[l * k + j] = 0;
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

    /// Merges one forward step's pushes into the global labels and
    /// schedule (Steps 11–17 of Algorithm 3 on the authoritative state).
    /// Each target's σ sums its contributions in the order of the flags
    /// that pushed them, whichever hosts hold the edges, so the `f64` sum
    /// is the same at every host count, also once σ passes 2⁵³. Each
    /// host's records are already in flag order, so the stable sort only
    /// merges those runs; records of one flag never share a target.
    pub(crate) fn merge_pushes(&mut self, flags: &[Flag], pushes: &[Pushes]) {
        let mut records: Vec<_> = pushes.iter().flat_map(|(r, _)| r.iter().copied()).collect();
        records.sort_by_key(|r| r.1);
        for (v, i, sig) in records {
            let (_, j, d) = flags[i as usize];
            let (idx, d_new) = (v as usize * self.k + j as usize, d + 1);
            let cur = self.dist_g[idx];
            if cur == INF_DIST {
                self.dist_g[idx] = d_new;
                self.sigma_g[idx] = sig;
                self.schedule.insert(v as usize, j, d_new);
                self.pending_total += 1;
            } else if cur == d_new {
                debug_assert_eq!(self.tau[idx], u32::MAX, "σ after send (Lemma 5)");
                self.sigma_g[idx] += sig;
            } else if cur > d_new {
                debug_assert_eq!(self.tau[idx], u32::MAX, "improvement after send");
                self.dist_g[idx] = d_new;
                self.sigma_g[idx] = sig;
                self.schedule.improve(v as usize, j, cur, d_new);
            }
        }
    }

    /// Applies one delayed sync to host `h`'s proxies of the flagged labels
    /// in its `bucket`, and counts it there: a mirror proxy that holds a
    /// partial counts one `reduce` item to the owner; every proxy that
    /// consumes the reconciled value (or is the master) takes it, and a
    /// consuming mirror counts one `bcast` item from the owner. Forward, a
    /// mirror holds a partial iff a local push reached it (`d ≠ ∞`), and
    /// takes the final distance. Backward, a mirror of `(u, j, d)` holds a
    /// δ partial iff one of `u`'s local out-edges reaches a successor at
    /// `d + 1`: every successor fired in an earlier round (Lemma 7) and
    /// pushed a positive `σ_u · (1 + δ_w)/σ_w` along that edge; δ itself
    /// is read from the replicated labels, so nothing is written back. The
    /// forward write-back is the *only* state mutation a sync performs;
    /// [`MrbcSpmd`]'s step runs it for host `h` just before `h`'s pushes,
    /// and each flag touches its own `(v, j)` slots only (at most one flag
    /// per vertex per round). Eager mode never calls it.
    pub(crate) fn apply_sync_to_host(
        &mut self,
        h: usize,
        flags: &[Flag],
        bucket: &[ProxyFlag],
        forward: bool,
        reduce: &mut Exchange<()>,
        bcast: &mut Exchange<()>,
    ) {
        let k = self.k;
        let topo = &self.dg.hosts[h];
        let hs = &mut self.hosts[h];
        let dist_g = &self.dist_g;
        for &(i, l, own) in bucket {
            let (_, j, d) = flags[i as usize];
            let own = own as usize;
            let lidx = l as usize * k + j as usize;
            if h != own {
                let partial = if forward {
                    hs.dist[lidx] != INF_DIST
                } else {
                    let succ = |&lw: &u32| {
                        let w = topo.global_of_local[lw as usize] as usize;
                        dist_g[w * k + j as usize] == d + 1
                    };
                    topo.graph.out_neighbors(l).iter().any(succ)
                };
                if partial {
                    reduce.count(h, own, 1, MRBC_ITEM_BYTES);
                }
                // Gluon "automatically exploits partitioning constraints
                // to avoid the default all-reduce" (Section 4.1): a proxy
                // consumes the forward (d, σ) only to push along local
                // out-edges, and the backward δ only to push along local
                // in-edges, so mirrors without such edges are skipped —
                // e.g. under the Cartesian vertex-cut, forward values flow
                // only to the owner's grid row and δ only to its column.
                let local_edges = if forward { &topo.graph } else { &topo.in_graph };
                if local_edges.out_degree(l) == 0 {
                    continue;
                }
                bcast.count(own, h, 1, MRBC_ITEM_BYTES);
            }
            if forward {
                hs.dist[lidx] = d;
            }
        }
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

    /// Sets δ of each flagged label from its successors (Algorithm 5):
    /// each successor fired in an earlier backward round (Lemma 7), so
    /// its δ is final and every replica holds it. The graph alone fixes
    /// the fold's order, never the partition or the schedule.
    pub(crate) fn pull_deltas(&mut self, flags: &[Flag]) {
        let k = self.k;
        for &(u, j, du) in flags {
            let (j, uidx) = (j as usize, u as usize * k + j as usize);
            let fired = |&v: &u32| {
                let vidx = v as usize * k + j;
                self.dist_g[vidx] != du + 1 || self.tau[vidx] > self.tau[uidx]
            };
            debug_assert!(
                self.g.out_neighbors(u).iter().all(fired),
                "({u}, {j}) fires before a successor (Lemma 7)"
            );
            self.delta_g[uidx] =
                pull_delta(self.g, u, j, k, &self.dist_g, &self.sigma_g, &self.delta_g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brandes;
    use crate::schedule::scan_flags;
    use mrbc_dgalois::{partition, PartitionPolicy};
    use mrbc_graph::generators;
    use proptest::prelude::*;

    const POLICIES: [PartitionPolicy; 3] = [
        PartitionPolicy::BlockedEdgeCut,
        PartitionPolicy::HashedEdgeCut,
        PartitionPolicy::CartesianVertexCut,
    ];

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
        for policy in POLICIES {
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
    /// (flags, mark, per-host sync + push, merge in flag order) and checks
    /// the calendar's flag set against the `dist`-row oracle every round.
    fn forward_matches_scan(
        g: &CsrGraph,
        dg: &DistGraph,
        batch: &[VertexId],
    ) -> proptest::TestCaseResult {
        let mut b = Batch::new(g, dg, batch);
        let mut round = 0;
        let mut sent = 0u64;
        while b.pending_total > 0 {
            round += 1;
            prop_assert!(round <= 2 * g.num_vertices() as u32 + b.k as u32 + 2);
            let mut flags = Vec::new();
            b.schedule.flags(round, &b.dist_g, &mut flags);
            prop_assert_eq!(
                &flags,
                &scan_flags(&b.dist_g, b.k, round),
                "round {}",
                round
            );
            sent += flags.len() as u64;
            b.mark_flags(&flags, round);
            let mut buckets = vec![Vec::new(); dg.num_hosts];
            bucket_flags(dg, &flags, &mut buckets);
            let mut reduce: Exchange<()> = Exchange::new(dg.num_hosts);
            let mut bcast: Exchange<()> = Exchange::new(dg.num_hosts);
            let pushes: Vec<Pushes> = (0..dg.num_hosts)
                .map(|h| {
                    let bucket = &buckets[h];
                    b.apply_sync_to_host(h, &flags, bucket, true, &mut reduce, &mut bcast);
                    fwd_push_host(dg, h, b.k, &b.sigma_g, &mut b.hosts[h], &flags, bucket)
                })
                .collect();
            b.merge_pushes(&flags, &pushes);
        }
        let reachable = b.dist_g.iter().filter(|&&d| d != INF_DIST).count() as u64;
        prop_assert_eq!(sent, reachable);
        Ok(())
    }

    #[test]
    fn calendar_flags_equal_the_oracle_in_a_wide_batch() {
        // k = 130 > 2 · 64 sources per batch; the property test below
        // keeps k < 8. rmat s8, as s7's 128 vertices cannot host 130
        // distinct sources.
        let g = generators::rmat(generators::RmatConfig::new(8, 8), 5);
        let sources: Vec<u32> = (0..130).collect();
        for hosts in [2, 4] {
            let dg = partition(&g, hosts, PartitionPolicy::CartesianVertexCut);
            forward_matches_scan(&g, &dg, &sources).unwrap();
        }
    }

    /// Backward δ partials the old per-host kernel left: `(host, u, j)`
    /// for every local push into a proxy of `(u, j)`.
    type Marks = std::collections::HashSet<(usize, u32, u32)>;

    /// Reference for the delayed sync the apply passes count: two walks
    /// over every flag's owner + mirrors, staging one item per send, run
    /// before the step's pushes on the pre-step proxies (forward) or on
    /// the `marks` of earlier steps (backward).
    fn sync_flags(
        b: &Batch<'_>,
        marks: &Marks,
        flags: &[Flag],
        comm: &mut RoundComm,
        forward: bool,
    ) {
        let (dg, k) = (b.dg, b.k);
        let mut reduce: Exchange<()> = Exchange::new(dg.num_hosts);
        let mut bcast: Exchange<()> = Exchange::new(dg.num_hosts);
        for &(v, j, _) in flags {
            let own = dg.owner(v) as usize;
            let proxies =
                std::iter::once(own).chain(dg.mirror_hosts(v).iter().map(|&m| m as usize));
            // Reduce: mirror partials cross the network.
            for h in proxies.clone() {
                let Some(l) = dg.local(h, v) else { continue };
                let partial = if forward {
                    b.hosts[h].dist[l as usize * k + j as usize] != INF_DIST
                } else {
                    marks.contains(&(h, v, j))
                };
                if h != own && partial {
                    reduce.send(h, own, (), MRBC_ITEM_BYTES);
                }
            }
            // Broadcast to every mirror that consumes the value.
            for h in proxies {
                let Some(l) = dg.local(h, v) else { continue };
                let consumes = if forward {
                    dg.hosts[h].graph.out_degree(l) > 0
                } else {
                    dg.hosts[h].in_graph.out_degree(l) > 0
                };
                if h != own && consumes {
                    bcast.send(own, h, (), MRBC_ITEM_BYTES);
                }
            }
        }
        reduce.finish(dg, PhaseDir::Reduce, comm);
        bcast.finish(dg, PhaseDir::Broadcast, comm);
    }

    /// Reference for [`eager_sync`]: one staged item per distinct
    /// `(host, v, j)` reduce and per mirror of each distinct `(v, j)`.
    fn eager_sync_staged(dg: &DistGraph, updates: &mut Vec<(u16, u32, u32)>, comm: &mut RoundComm) {
        if updates.is_empty() {
            return;
        }
        let mut reduce: Exchange<()> = Exchange::new(dg.num_hosts);
        let mut bcast: Exchange<()> = Exchange::new(dg.num_hosts);
        let mut contributors = std::mem::take(updates);
        contributors.sort_unstable();
        contributors.dedup();
        for &(h, v, _) in &contributors {
            reduce.send(h as usize, dg.owner(v) as usize, (), MRBC_ITEM_BYTES);
        }
        let mut labels: Vec<(u32, u32)> = contributors.iter().map(|&(_, v, j)| (v, j)).collect();
        labels.sort_unstable();
        labels.dedup();
        for &(v, _) in &labels {
            for &mh in dg.mirror_hosts(v) {
                bcast.send(dg.owner(v) as usize, mh as usize, (), MRBC_ITEM_BYTES);
            }
        }
        reduce.finish(dg, PhaseDir::Reduce, comm);
        bcast.finish(dg, PhaseDir::Broadcast, comm);
    }

    /// Replays the old backward kernel's effect on the δ partials: each
    /// flagged `v` pushes to every local in-neighbour `u` with
    /// `d_u = d_v − 1`, on every host that holds the edge.
    fn mark_backward_pushes(b: &Batch<'_>, flags: &[Flag], marks: &mut Marks) {
        let (dg, k) = (b.dg, b.k);
        for &(v, j, dv) in flags {
            for h in 0..dg.num_hosts {
                let Some(lv) = dg.local(h, v) else { continue };
                let topo = &dg.hosts[h];
                for &lu in topo.in_graph.out_neighbors(lv) {
                    let u = topo.global_of_local[lu as usize];
                    if dv > 0 && b.dist_g[u as usize * k + j as usize] == dv - 1 {
                        marks.insert((h, u, j));
                    }
                }
            }
        }
    }

    /// Per-round traffic by the reference walks: steps the machine as
    /// [`run`] does, but accounts each round before its pushes.
    fn reference_rounds(
        g: &CsrGraph,
        dg: &DistGraph,
        sources: &[VertexId],
        options: &MrbcOptions,
    ) -> Vec<RoundComm> {
        let mut prog = MrbcSpmd::with_options(g, dg, sources, options);
        let mut eager: Vec<(u16, u32, u32)> = Vec::new();
        let mut marks = Marks::new();
        let mut seeded = None;
        let mut rounds = Vec::new();
        let mut step = 0;
        while let Some((bi, run)) = prog.current() {
            if run.is_forward() && seeded != Some(bi) {
                seeded = Some(bi);
                marks.clear();
                if !options.delayed_sync {
                    let seeds = prog.batch_sources(bi).iter().enumerate();
                    eager.extend(seeds.map(|(j, &s)| (dg.owner(s), s, j as u32)));
                }
            }
            prog.begin_step(step);
            step += 1;
            let mut comm = RoundComm::new(dg.num_hosts);
            let (_, run) = prog.current().expect("a step in progress");
            if options.delayed_sync {
                sync_flags(&run.batch, &marks, &run.flags, &mut comm, run.is_forward());
            } else {
                eager_sync_staged(dg, &mut eager, &mut comm);
            }
            let pushes: Vec<Pushes> = (0..dg.num_hosts).map(|h| prog.push(h)).collect();
            let (_, run) = prog.current().expect("a step in progress");
            if !run.is_forward() {
                mark_backward_pushes(&run.batch, &run.flags, &mut marks);
            }
            if !options.delayed_sync {
                for (h, (records, _)) in pushes.iter().enumerate() {
                    let label =
                        |&(u, i, _): &(u32, u32, f64)| (h as u16, u, run.flags[i as usize].1);
                    eager.extend(records.iter().map(label));
                }
            }
            rounds.push(comm);
            prog.fold_pushes(pushes).expect("fold");
        }
        rounds
    }

    /// Every round the driver records equals the reference walks' round.
    fn rounds_match_reference(
        g: &CsrGraph,
        dg: &DistGraph,
        sources: &[VertexId],
        options: &MrbcOptions,
    ) -> proptest::TestCaseResult {
        let got = mrbc_bc_with_options(g, dg, sources, options).stats;
        let want = reference_rounds(g, dg, sources, options);
        prop_assert_eq!(got.rounds.len(), want.len());
        for (r, (got, want)) in got.rounds.iter().map(|r| &r.comm).zip(&want).enumerate() {
            prop_assert_eq!(&got.sent_bytes, &want.sent_bytes, "round {}", r);
            prop_assert_eq!(&got.recv_bytes, &want.recv_bytes, "round {}", r);
            prop_assert_eq!(&got.msgs_per_host, &want.msgs_per_host, "round {}", r);
            prop_assert_eq!(got.items, want.items, "round {}", r);
        }
        Ok(())
    }

    #[test]
    fn counted_sync_matches_the_walks_on_rmat_at_sixteen_hosts() {
        let g = generators::rmat(generators::RmatConfig::new(7, 8), 31);
        let sources: Vec<u32> = (0..24).collect();
        let dg = partition(&g, 16, PartitionPolicy::CartesianVertexCut);
        for delayed_sync in [true, false] {
            let options = MrbcOptions {
                batch_size: 8,
                delayed_sync,
            };
            rounds_match_reference(&g, &dg, &sources, &options).unwrap();
        }
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

        #[test]
        fn prop_counted_sync_matches_the_walks_every_round(
            n in 2usize..24,
            raw in proptest::collection::vec((0u32..24, 0u32..24), 0..80),
            picks in proptest::collection::vec(0u32..24, 1..8),
        ) {
            let g = mrbc_graph::GraphBuilder::new(n)
                .edges(raw.into_iter().map(|(u, v)| (u % n as u32, v % n as u32)))
                .build();
            let sources: Vec<u32> = picks.into_iter().map(|s| s % n as u32).collect();
            for policy in POLICIES {
                for hosts in 1..=4 {
                    let dg = partition(&g, hosts, policy);
                    for batch_size in [1, 3, sources.len()] {
                        for delayed_sync in [true, false] {
                            let options = MrbcOptions { batch_size, delayed_sync };
                            rounds_match_reference(&g, &dg, &sources, &options)?;
                        }
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
    }
}
