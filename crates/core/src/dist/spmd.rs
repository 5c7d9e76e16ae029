//! MRBC as a replicated SPMD state machine — the one MRBC driver. Real
//! multi-process workers step it over the `mrbc-net` TCP mesh, and
//! [`mrbc_bc`](super::mrbc::mrbc_bc) steps it in-process.
//!
//! [`MrbcSpmd`] is the batched MRBC engine in the
//! [`SpmdProgram`](mrbc_dgalois::spmd::SpmdProgram) contract:
//!
//! * **replicated state** — the authoritative labels (`dist_g`, `sigma_g`,
//!   `delta_g`), τ, the forward calendar, the backward agenda and the BC
//!   accumulator. Every worker holds all of it and mutates it identically
//!   in `begin_step` / `fold`.
//! * **partial state** — one host's proxy distances (`HostState`). A
//!   worker only ever advances its own host's proxies in `local_step`;
//!   σ and δ are read from the replicated labels only.
//!
//! One SPMD step = one BSP round. `begin_step` computes the round's flag
//! set (forward: the labels whose send condition fires, stamping τ;
//! backward: the agenda bucket, whose δ it pulls from the successors'
//! replicated labels) and buckets it by proxy host. Host `h`'s push reads
//! only bucket `h`: it applies (and counts) the sync on `h`'s proxies and
//! runs the [`fwd_push_host`] / [`bwd_push_host`] kernel for `h`'s local
//! edges. The fold merges the forward pushes in flag order (a backward
//! payload carries only the work count), so the `f64` evolution is
//! **bit-identical** however the hosts are spread over processes — that
//! is the property the chaos tests pin: SIGKILL a worker mid-forward or
//! mid-backward, restore it from a checkpoint, and the final scores match
//! [`mrbc_bc`](super::mrbc::mrbc_bc) exactly. The pushes are typed;
//! `local_step` / `fold` only encode and decode them, and `fold` checks
//! every payload before it folds any.
//!
//! Snapshots are only taken between steps (before a `begin_step`) and
//! hold only what the run cannot derive (format version 3): the run
//! configuration, `bc`, the batch index, the phase and its round, the
//! batch's `dist_g`, `sigma_g`, `delta_g` and τ, `R`, and every host's
//! proxy distances. `restore` derives the rest and refuses any other
//! format version. The next `begin_step` rebuilds the flag set, its
//! per-host buckets and the sync counts; the forward calendar and the
//! pending count come from `dist_g` and τ; a backward phase's agenda
//! (`A_sv = R − τ_sv + 1`) comes from τ and `R`. `restore` refuses a τ
//! whose sent labels are not a prefix of `L_v` fired in their rounds, a
//! backward phase with a label left to send, and a round or `R` outside
//! the `2n + k + 2` forward bound, before it allocates anything sized by
//! them.
//! [`MrbcSpmd::new`] always runs the paper's delayed synchronization. The
//! eager ablation is a mode only the in-process driver selects: its steps
//! skip the broadcast write-back, and a forward phase whose last step
//! pushed anything runs one empty step more, in which the driver accounts
//! the final sync.

use super::mrbc::{
    bucket_flags, bwd_push_host, fwd_push_host, Batch, MrbcOptions, ProxyFlag, Pushes,
};
use crate::schedule::SendSchedule;
use mrbc_dgalois::comm::Exchange;
use mrbc_dgalois::spmd::SpmdProgram;
use mrbc_dgalois::DistGraph;
use mrbc_graph::{CsrGraph, VertexId};
use mrbc_util::crc::{crc32, digest64};
use mrbc_util::wire::{WireError, WireReader, WireWriter};

/// Snapshot magic: `"MSPD"` little-endian.
const SNAP_MAGIC: u32 = 0x4450_534D;
/// Snapshot format version.
const SNAP_VERSION: u32 = 3;
/// Encoded bytes of one push record: two `u32`s and an `f64`.
const PUSH_BYTES: usize = 4 + 4 + 8;

/// Which half of the current batch the machine is in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Forward (APSP) round `round` is next.
    Forward { round: u32 },
    /// Backward (δ-accumulation) round `round` is next.
    Backward { round: u32 },
}

/// Live execution state of the current batch.
pub(crate) struct BatchRun<'a> {
    pub(crate) batch: Batch<'a>,
    pub(crate) phase: Phase,
    /// The current step's flag set, computed by `begin_step` and consumed
    /// by the pushes and the fold. Empty between steps.
    pub(crate) flags: Vec<(u32, u32, u32)>,
    /// `buckets[h]`: the step's flags with a proxy on host `h`, rebuilt
    /// from `flags` by every `begin_step`; never serialized.
    pub(crate) buckets: Vec<Vec<ProxyFlag>>,
    /// The reduce and broadcast items the step's pushes counted, staged
    /// nowhere; never serialized.
    reduce: Exchange<()>,
    bcast: Exchange<()>,
    /// Backward agenda buckets (empty during the forward phase); derived
    /// from τ and `R`, never serialized.
    agenda: Vec<Vec<(u32, u32, u32)>>,
}

impl BatchRun<'_> {
    pub(crate) fn is_forward(&self) -> bool {
        matches!(self.phase, Phase::Forward { .. })
    }
}

/// Batched MRBC as a replicated SPMD program (see module docs).
pub struct MrbcSpmd<'a> {
    g: &'a CsrGraph,
    dg: &'a DistGraph,
    /// Sorted + deduplicated sources, chunked into batches.
    sorted: Vec<VertexId>,
    batch_size: usize,
    /// Delayed (paper) vs eager (Gluon-default) synchronization.
    delayed_sync: bool,
    bc: Vec<f64>,
    batch_index: usize,
    /// The current batch; `None` once every batch is done.
    run: Option<BatchRun<'a>>,
}

impl<'a> MrbcSpmd<'a> {
    /// Sets up the program for `sources` over `dg` (a partition of `g`),
    /// processed in batches of `batch_size` exactly like
    /// [`mrbc_bc`](super::mrbc::mrbc_bc) with delayed synchronization.
    pub fn new(
        g: &'a CsrGraph,
        dg: &'a DistGraph,
        sources: &[VertexId],
        batch_size: usize,
    ) -> Self {
        let options = MrbcOptions {
            batch_size,
            delayed_sync: true,
        };
        Self::with_options(g, dg, sources, &options)
    }

    /// [`Self::new`] with the in-process driver's [`MrbcOptions`].
    pub(crate) fn with_options(
        g: &'a CsrGraph,
        dg: &'a DistGraph,
        sources: &[VertexId],
        options: &MrbcOptions,
    ) -> Self {
        assert!(options.batch_size >= 1, "batch size must be at least 1");
        let n = g.num_vertices();
        let mut sorted: Vec<VertexId> = sources.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert!(
            sorted.iter().all(|&s| (s as usize) < n),
            "source out of range"
        );
        let mut me = Self {
            g,
            dg,
            sorted,
            batch_size: options.batch_size,
            delayed_sync: options.delayed_sync,
            bc: vec![0.0f64; n],
            batch_index: 0,
            run: None,
        };
        if !me.sorted.is_empty() {
            me.run = Some(me.start_batch(0));
        }
        me
    }

    /// Number of batches the source set splits into.
    pub fn num_batches(&self) -> usize {
        self.sorted.len().div_ceil(self.batch_size)
    }

    /// The accumulated BC scores (complete once [`SpmdProgram::done`]).
    pub fn bc(&self) -> &[f64] {
        &self.bc
    }

    /// Consumes the program, returning the BC scores.
    pub fn into_bc(self) -> Vec<f64> {
        self.bc
    }

    /// Number of distinct sources.
    pub(crate) fn num_sources(&self) -> usize {
        self.sorted.len()
    }

    /// The sources of batch `bi`.
    pub(crate) fn batch_sources(&self, bi: usize) -> &[VertexId] {
        self.sorted.chunks(self.batch_size).nth(bi).unwrap_or(&[])
    }

    /// The current batch's index and state; `None` once done.
    pub(crate) fn current(&self) -> Option<(usize, &BatchRun<'a>)> {
        self.run.as_ref().map(|run| (self.batch_index, run))
    }

    fn start_batch(&self, bi: usize) -> BatchRun<'a> {
        BatchRun {
            batch: Batch::new(self.g, self.dg, self.batch_sources(bi)),
            phase: Phase::Forward { round: 1 },
            flags: Vec::new(),
            buckets: vec![Vec::new(); self.dg.num_hosts],
            reduce: Exchange::new(self.dg.num_hosts),
            bcast: Exchange::new(self.dg.num_hosts),
            agenda: Vec::new(),
        }
    }

    /// Host `h`'s share of the current step, over the flags of its bucket
    /// only: apply the sync to its proxies and count it (delayed mode
    /// only), then push the flagged labels along its local edges. Mutates
    /// only host `h`'s proxy distances and its counts.
    pub(crate) fn push(&mut self, h: usize) -> Pushes {
        let Some(run) = self.run.as_mut() else {
            return Pushes::default();
        };
        let forward = run.is_forward();
        let (flags, bucket) = (&run.flags, &run.buckets[h]);
        let b = &mut run.batch;
        if self.delayed_sync {
            b.apply_sync_to_host(h, flags, bucket, forward, &mut run.reduce, &mut run.bcast);
        }
        if forward {
            fwd_push_host(b.dg, h, b.k, &b.sigma_g, &mut b.hosts[h], flags, bucket)
        } else {
            bwd_push_host(b, h, flags, bucket, !self.delayed_sync)
        }
    }

    /// Takes the reduce and broadcast items the current step's pushes
    /// counted: the whole round's once every host has pushed in this
    /// process.
    pub(crate) fn take_sync(&mut self) -> Option<(Exchange<()>, Exchange<()>)> {
        let run = self.run.as_mut()?;
        let h = self.dg.num_hosts;
        let reduce = std::mem::replace(&mut run.reduce, Exchange::new(h));
        Some((reduce, std::mem::replace(&mut run.bcast, Exchange::new(h))))
    }

    /// Merges a forward step's pushes in flag order (backward records only
    /// feed the eager driver's accounting), then makes the replicated phase
    /// transition. This is the one place a forward phase ends, `R` is
    /// fixed, a batch's δ becomes BC and the next batch starts.
    pub(crate) fn fold_pushes(&mut self, pushes: Vec<Pushes>) -> Result<(), WireError> {
        let n = self.g.num_vertices();
        let Some(run) = self.run.as_mut() else {
            return Ok(());
        };
        // Eager mode syncs a step's pushes in the next step, so a forward
        // phase whose last step pushed anything runs one empty step more.
        // Backward needs no such step: its last round `R + 1` carries no
        // flags (`A_sv ≤ R`) and so pushes nothing.
        let flush = !self.delayed_sync && pushes.iter().any(|(p, _)| !p.is_empty());
        if run.is_forward() {
            run.batch.merge_pushes(&run.flags, &pushes);
        }
        let k = run.batch.k;
        run.flags.clear();
        match run.phase {
            Phase::Forward { round } if run.batch.pending_total == 0 && !flush => {
                // The schedule is forward-phase state.
                run.batch.schedule = SendSchedule::default();
                run.batch.r_term = round;
                run.agenda = run.batch.build_agenda();
                run.phase = Phase::Backward { round: 1 };
            }
            Phase::Forward { round } => {
                let cap = 2 * n as u32 + k as u32 + 2;
                if run.batch.pending_total > 0 && round >= cap {
                    return Err(WireError::Invalid(
                        "forward phase exceeded the 2n + k bound",
                    ));
                }
                run.phase = Phase::Forward { round: round + 1 };
            }
            Phase::Backward { round } if round <= run.batch.r_term => {
                run.phase = Phase::Backward { round: round + 1 };
            }
            Phase::Backward { .. } => {
                // Free the finished batch before the next one is built.
                if let Some(run) = self.run.take() {
                    let srcs = self.sorted.chunks(self.batch_size).nth(self.batch_index);
                    let srcs = srcs.unwrap_or(&[]);
                    for (v, x) in self.bc.iter_mut().enumerate() {
                        for (j, &s) in srcs.iter().enumerate() {
                            if s as usize != v {
                                *x += run.batch.delta_g[v * k + j];
                            }
                        }
                    }
                }
                self.batch_index += 1;
                if self.batch_index < self.num_batches() {
                    self.run = Some(self.start_batch(self.batch_index));
                }
            }
        }
        Ok(())
    }

    /// CRC over the canonical source list — pins a snapshot to its run
    /// configuration.
    fn sources_crc(&self) -> u32 {
        let mut w = WireWriter::with_capacity(self.sorted.len() * 4);
        for &s in &self.sorted {
            w.u32(s);
        }
        crc32(&w.into_bytes())
    }
}

fn put_u32s(w: &mut WireWriter, xs: &[u32]) {
    for &x in xs {
        w.u32(x);
    }
}

fn put_f64s(w: &mut WireWriter, xs: &[f64]) {
    for &x in xs {
        w.f64(x);
    }
}

fn get_u32s(r: &mut WireReader<'_>, len: usize) -> Result<Vec<u32>, WireError> {
    let mut xs = Vec::with_capacity(len);
    for _ in 0..len {
        xs.push(r.u32()?);
    }
    Ok(xs)
}

fn get_f64s(r: &mut WireReader<'_>, len: usize) -> Result<Vec<f64>, WireError> {
    let mut xs = Vec::with_capacity(len);
    for _ in 0..len {
        xs.push(r.f64()?);
    }
    Ok(xs)
}

/// Decodes one host's `local_step` payload, checking its length against
/// its record count before allocating, every target against the `n`
/// vertices and every flag index against the step's flag count.
fn decode_pushes(payload: &[u8], n: usize, flags: usize) -> Result<Pushes, WireError> {
    let mut r = WireReader::new(payload);
    let work = r.u64()?;
    let cnt = r.u32()? as usize;
    if cnt.checked_mul(PUSH_BYTES) != Some(r.remaining()) {
        return Err(WireError::Invalid("push count != payload length"));
    }
    let mut records = Vec::with_capacity(cnt);
    for _ in 0..cnt {
        let (gu, i, val) = (r.u32()?, r.u32()?, r.f64()?);
        if gu as usize >= n || i as usize >= flags {
            return Err(WireError::Invalid("push target out of range"));
        }
        records.push((gu, i, val));
    }
    Ok((records, work))
}

impl SpmdProgram for MrbcSpmd<'_> {
    fn num_hosts(&self) -> usize {
        self.dg.num_hosts
    }

    fn done(&self) -> bool {
        self.run.is_none()
    }

    fn begin_step(&mut self, _step: u64) {
        let Some(run) = self.run.as_mut() else { return };
        match run.phase {
            Phase::Forward { round } => {
                let b = &mut run.batch;
                b.schedule.flags(round, &b.dist_g, &mut run.flags);
                b.mark_flags(&run.flags, round);
            }
            Phase::Backward { round } => {
                run.flags = std::mem::take(&mut run.agenda[round as usize]);
                run.batch.pull_deltas(&run.flags);
            }
        }
        bucket_flags(self.dg, &run.flags, &mut run.buckets);
        run.reduce = Exchange::new(self.dg.num_hosts);
        run.bcast = Exchange::new(self.dg.num_hosts);
    }

    fn local_step(&mut self, _step: u64, host: usize) -> Vec<u8> {
        let (records, work) = self.push(host);
        let mut w = WireWriter::with_capacity(12 + records.len() * PUSH_BYTES);
        w.u64(work);
        w.u32(records.len() as u32);
        for (gu, i, val) in records {
            w.u32(gu);
            w.u32(i);
            w.f64(val);
        }
        w.into_bytes()
    }

    fn fold(&mut self, _step: u64, payloads: &[Vec<u8>]) -> Result<(), WireError> {
        let Some(run) = &self.run else {
            return Ok(());
        };
        if payloads.len() != self.dg.num_hosts {
            return Err(WireError::Invalid("payload count != host count"));
        }
        // Decode and check every payload before folding any, so a
        // rejected fold leaves the replica untouched.
        let (n, flags) = (self.g.num_vertices(), run.flags.len());
        let pushes = payloads
            .iter()
            .map(|p| decode_pushes(p, n, flags))
            .collect::<Result<Vec<_>, _>>()?;
        // This program runs the delayed sync, whose backward steps send
        // no records: δ is pulled from the replicated labels.
        if !run.is_forward() && pushes.iter().any(|(records, _)| !records.is_empty()) {
            return Err(WireError::Invalid("backward payload carries records"));
        }
        self.fold_pushes(pushes)
    }

    fn snapshot(&self) -> Vec<u8> {
        let n = self.g.num_vertices();
        let mut w = WireWriter::with_capacity(64 + n * 8);
        w.u32(SNAP_MAGIC);
        w.u32(SNAP_VERSION);
        w.u32(n as u32);
        w.u32(self.dg.num_hosts as u32);
        w.u32(self.batch_size as u32);
        w.u32(self.sorted.len() as u32);
        w.u32(self.sources_crc());
        put_f64s(&mut w, &self.bc);
        w.u32(self.batch_index as u32);
        w.u8(u8::from(self.run.is_some()));
        if let Some(run) = &self.run {
            let b = &run.batch;
            let k = b.k;
            match run.phase {
                Phase::Forward { round } => {
                    w.u8(0);
                    w.u32(round);
                }
                Phase::Backward { round } => {
                    w.u8(1);
                    w.u32(round);
                }
            }
            w.u32(k as u32);
            put_u32s(&mut w, &b.dist_g);
            put_f64s(&mut w, &b.sigma_g);
            put_f64s(&mut w, &b.delta_g);
            put_u32s(&mut w, &b.tau);
            w.u32(b.r_term);
            for hs in &b.hosts {
                w.u32((hs.dist.len() / k.max(1)) as u32);
                put_u32s(&mut w, &hs.dist);
            }
        }
        w.into_bytes()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let n = self.g.num_vertices();
        let mut r = WireReader::new(bytes);
        if r.u32()? != SNAP_MAGIC {
            return Err(WireError::Invalid("bad snapshot magic"));
        }
        if r.u32()? != SNAP_VERSION {
            return Err(WireError::Invalid("unsupported snapshot version"));
        }
        if r.u32()? as usize != n
            || r.u32()? as usize != self.dg.num_hosts
            || r.u32()? as usize != self.batch_size
            || r.u32()? as usize != self.sorted.len()
            || r.u32()? != self.sources_crc()
        {
            return Err(WireError::Invalid(
                "snapshot does not match run configuration",
            ));
        }
        let bc = get_f64s(&mut r, n)?;
        let batch_index = r.u32()? as usize;
        // Flags are exactly 0 or 1, so every accepted snapshot has one
        // encoding; a run is in progress exactly until the last batch ends.
        let has_run = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(WireError::Invalid("bad snapshot run flag")),
        };
        if batch_index > self.num_batches() || has_run != (batch_index < self.num_batches()) {
            return Err(WireError::Invalid("snapshot batch index out of range"));
        }
        let run = if has_run {
            let phase = match r.u8()? {
                0 => Phase::Forward { round: r.u32()? },
                1 => Phase::Backward { round: r.u32()? },
                _ => return Err(WireError::Invalid("bad snapshot phase tag")),
            };
            let mut run = self.start_batch(batch_index);
            let b = &mut run.batch;
            let k = b.k;
            if r.u32()? as usize != k {
                return Err(WireError::Invalid("snapshot batch width mismatch"));
            }
            b.dist_g = get_u32s(&mut r, n * k)?;
            b.sigma_g = get_f64s(&mut r, n * k)?;
            b.delta_g = get_f64s(&mut r, n * k)?;
            b.tau = get_u32s(&mut r, n * k)?;
            b.r_term = r.u32()?;
            for (h, hs) in b.hosts.iter_mut().enumerate() {
                let p = r.u32()? as usize;
                if p != self.dg.hosts[h].num_proxies() {
                    return Err(WireError::Invalid("snapshot proxy count mismatch"));
                }
                hs.dist = get_u32s(&mut r, p * k)?;
            }
            // Bound the round and `R` by the forward phase's `2n + k + 2`
            // before anything sized by them is built: forward has no `R`
            // yet, and backward runs rounds `1..=R + 1`.
            let cap = 2 * n as u32 + k as u32 + 2;
            let next_round = match phase {
                Phase::Forward { round } if b.r_term == 0 && (1..=cap).contains(&round) => round,
                Phase::Backward { round }
                    if b.r_term <= cap && (1..=b.r_term + 1).contains(&round) =>
                {
                    b.r_term + 1
                }
                _ => return Err(WireError::Invalid("snapshot round or R out of range")),
            };
            // The calendar and the pending count are rebuilt from the
            // labels and τ; every stamp precedes the next round, so a
            // backward phase has `τ ≤ R` and must have sent every label.
            let schedule = SendSchedule::restore(&b.dist_g, &b.tau, k, next_round)
                .map_err(WireError::Invalid)?;
            b.pending_total = (0..n).map(|v| u64::from(schedule.pending(v))).sum();
            match phase {
                Phase::Forward { .. } => b.schedule = schedule,
                Phase::Backward { .. } if b.pending_total != 0 => {
                    return Err(WireError::Invalid("backward phase with a label unsent"))
                }
                Phase::Backward { round } => {
                    // The agenda's buckets from this round on.
                    b.schedule = SendSchedule::default();
                    run.agenda = b.build_agenda();
                    run.agenda[..round as usize].iter_mut().for_each(Vec::clear);
                }
            }
            run.phase = phase;
            Some(run)
        } else {
            None
        };
        if !r.is_empty() {
            return Err(WireError::Invalid("trailing snapshot bytes"));
        }
        self.bc = bc;
        self.batch_index = batch_index;
        self.run = run;
        Ok(())
    }

    fn fingerprint(&self) -> u64 {
        let mut w = WireWriter::with_capacity(self.bc.len() * 8);
        put_f64s(&mut w, &self.bc);
        digest64(&w.into_bytes())
    }

    fn describe(&self, _step: u64) -> String {
        match &self.run {
            None => format!("done ({} batches)", self.num_batches()),
            Some(run) => {
                let (phase, round) = match run.phase {
                    Phase::Forward { round } => ("forward", round),
                    Phase::Backward { round } => ("backward", round),
                };
                format!(
                    "batch {}/{} {phase} round {round}",
                    self.batch_index + 1,
                    self.num_batches()
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::mrbc::mrbc_bc;
    use mrbc_dgalois::spmd::run_local;
    use mrbc_dgalois::{partition, PartitionPolicy};
    use mrbc_graph::{generators, INF_DIST};

    #[test]
    fn run_local_matches_in_process_engine_bitwise() {
        let g = generators::rmat(generators::RmatConfig::new(6, 5), 21);
        let sources: Vec<u32> = (0..16).collect();
        for policy in [
            PartitionPolicy::BlockedEdgeCut,
            PartitionPolicy::HashedEdgeCut,
            PartitionPolicy::CartesianVertexCut,
        ] {
            for hosts in [1, 2, 4] {
                let dg = partition(&g, hosts, policy);
                let want = mrbc_bc(&g, &dg, &sources, 8);
                let mut prog = MrbcSpmd::new(&g, &dg, &sources, 8);
                let steps = run_local(&mut prog, 1_000_000).expect("run");
                assert!(steps > 0);
                assert!(prog.done());
                // Bitwise, not approximately: the SPMD decomposition must
                // replay the exact f64 operation sequence.
                assert_eq!(prog.bc(), want.bc.as_slice());
            }
        }
    }

    #[test]
    fn uneven_batches_match_bitwise() {
        let g = generators::web_crawl(generators::WebCrawlConfig::new(250), 4);
        let sources: Vec<u32> = (0..13).collect();
        let dg = partition(&g, 4, PartitionPolicy::CartesianVertexCut);
        let want = mrbc_bc(&g, &dg, &sources, 5);
        let mut prog = MrbcSpmd::new(&g, &dg, &sources, 5);
        run_local(&mut prog, 1_000_000).expect("run");
        assert_eq!(prog.bc(), want.bc.as_slice());
        assert_eq!(prog.num_batches(), 3);
    }

    /// Steps `prog` through `steps` whole SPMD steps over `hosts` hosts.
    fn run_steps(prog: &mut MrbcSpmd<'_>, hosts: usize, steps: u64) {
        for step in 0..steps {
            prog.begin_step(step);
            let payloads: Vec<Vec<u8>> = (0..hosts).map(|h| prog.local_step(step, h)).collect();
            prog.fold(step, &payloads).expect("fold");
        }
    }

    #[test]
    fn snapshot_restore_at_every_step_boundary_is_bit_identical() {
        let g = generators::grid_road_network(generators::RoadNetworkConfig::new(3, 8), 5);
        let sources: Vec<u32> = (0..6).collect();
        let dg = partition(&g, 2, PartitionPolicy::BlockedEdgeCut);
        // Reference run.
        let mut full = MrbcSpmd::new(&g, &dg, &sources, 3);
        let total = run_local(&mut full, 1_000_000).expect("run");
        // For every prefix length, snapshot there, restore into a fresh
        // instance, finish, and demand bitwise-equal scores — this sweeps
        // forward rounds, backward rounds, and batch transitions.
        for cut in 0..=total {
            let mut head = MrbcSpmd::new(&g, &dg, &sources, 3);
            run_steps(&mut head, 2, cut);
            let snap = head.snapshot();
            let mut tail = MrbcSpmd::new(&g, &dg, &sources, 3);
            tail.restore(&snap).expect("restore");
            run_local(&mut tail, 1_000_000).expect("resume");
            assert_eq!(tail.bc(), full.bc(), "diverged after cut at step {cut}");
            assert_eq!(tail.fingerprint(), full.fingerprint());
        }
    }

    /// The snapshot `mid_forward_snapshot_bytes_are_pinned` pins, in format
    /// version 2, which also carried every host's σ and δ partials.
    const SMALL_V2: [&str; 13] = [
        "4d5350440200000005000000020000000200000002000000e2172bcf0000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000100030000000200000000000000ffffffff01000000ffff",
        "ffff0200000000000000ffffffff01000000ffffffff02000000000000000000f03f0000000000000000000000000000",
        "f03f0000000000000000000000000000f03f000000000000f03f0000000000000000000000000000f03f000000000000",
        "0000000000000000f03f0000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000000001000000ffff",
        "ffff02000000ffffffffffffffff01000000ffffffff02000000ffffffffffffffff000000000400000000000000ffff",
        "ffff01000000ffffffff0200000000000000ffffffff01000000000000000000f03f0000000000000000000000000000",
        "f03f0000000000000000000000000000f03f000000000000f03f0000000000000000000000000000f03f000000000000",
        "000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000003000000ffffffffffffffffffffffff01000000ffffffff0200000000000000000000000000",
        "0000000000000000000000000000000000000000f03f0000000000000000000000000000f03f00000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000000000000000",
    ];

    /// Decodes a hex string.
    fn unhex(hex: &str) -> Vec<u8> {
        let byte = |i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair");
        (0..hex.len()).step_by(2).map(byte).collect()
    }

    #[test]
    fn mid_forward_snapshot_bytes_are_pinned() {
        // Format version 3 mid-forward: the run configuration, bc, the
        // batch index, the phase and round, k, the four n·k label tables
        // (d, σ, δ, τ), R and every host's proxy distances; nothing
        // derived.
        const SMALL: [&str; 9] = [
            "4d5350440300000005000000020000000200000002000000e2172bcf0000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000100030000000200000000000000ffffffff01000000ffff",
            "ffff0200000000000000ffffffff01000000ffffffff02000000000000000000f03f0000000000000000000000000000",
            "f03f0000000000000000000000000000f03f000000000000f03f0000000000000000000000000000f03f000000000000",
            "0000000000000000f03f0000000000000000000000000000000000000000000000000000000000000000000000000000",
            "00000000000000000000000000000000000000000000000000000000000000000000000000000000000001000000ffff",
            "ffff02000000ffffffffffffffff01000000ffffffff02000000ffffffffffffffff000000000400000000000000ffff",
            "ffff01000000ffffffff0200000000000000ffffffff0100000003000000ffffffffffffffffffffffff01000000ffff",
            "ffff02000000",
        ];
        let g = generators::cycle(5);
        let dg = partition(&g, 2, PartitionPolicy::BlockedEdgeCut);
        let mut prog = MrbcSpmd::new(&g, &dg, &[0, 2], 2);
        run_steps(&mut prog, 2, 2);
        assert_eq!(prog.describe(2), "batch 1/1 forward round 3");
        let snap = prog.snapshot();
        let hex: String = snap.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, SMALL.concat());
        // A restored replica snapshots to the same bytes and finishes
        // with the same scores.
        let mut back = MrbcSpmd::new(&g, &dg, &[0, 2], 2);
        back.restore(&snap).expect("restore");
        assert_eq!(back.snapshot(), snap);
        // A version-2 snapshot is refused and changes nothing.
        let refused = back.restore(&unhex(&SMALL_V2.concat()));
        let version = WireError::Invalid("unsupported snapshot version");
        assert_eq!(refused, Err(version));
        assert_eq!(back.snapshot(), snap);
        run_local(&mut prog, 1_000).expect("run");
        run_local(&mut back, 1_000).expect("run");
        assert_eq!(back.bc(), prog.bc());

        let g = generators::grid_road_network(generators::RoadNetworkConfig::new(3, 8), 5);
        let dg = partition(&g, 2, PartitionPolicy::BlockedEdgeCut);
        let sources: Vec<u32> = (0..6).collect();
        for (cut, len, digest) in [
            (3, 4_662, 0xc315_aeb8_fe14_b884),
            (7, 4_662, 0xb185_1519_8c84_0325),
            (12, 4_662, 0x3fe9_5728_02e8_4114),
        ] {
            let mut prog = MrbcSpmd::new(&g, &dg, &sources, 6);
            run_steps(&mut prog, 2, cut);
            assert_eq!(
                prog.describe(cut),
                format!("batch 1/1 forward round {}", cut + 1)
            );
            let snap = prog.snapshot();
            assert_eq!((snap.len(), digest64(&snap)), (len, digest), "cut {cut}");
        }
    }

    #[test]
    fn backward_and_batch_boundary_snapshot_bytes_are_pinned() {
        // Format version 3 in a backward phase and just after a batch
        // boundary: the same sections as mid-forward, so every snapshot of
        // a batch has one length; `restore` rebuilds the agenda from τ
        // and `R`.
        let g = generators::grid_road_network(generators::RoadNetworkConfig::new(3, 8), 5);
        let dg = partition(&g, 2, PartitionPolicy::BlockedEdgeCut);
        let sources: Vec<u32> = (0..6).collect();
        for (cut, at, len, digest) in [
            (
                18,
                "batch 1/2 backward round 7",
                2_454,
                0xa4d0_aa47_17a9_1584,
            ),
            (
                26,
                "batch 2/2 forward round 2",
                2_454,
                0xdb6f_5ea6_6816_e165,
            ),
            (
                40,
                "batch 2/2 backward round 6",
                2_454,
                0x98ef_bd2c_2b96_02ef,
            ),
        ] {
            let mut prog = MrbcSpmd::new(&g, &dg, &sources, 3);
            run_steps(&mut prog, 2, cut);
            assert_eq!(prog.describe(cut), at);
            let snap = prog.snapshot();
            assert_eq!((snap.len(), digest64(&snap)), (len, digest), "cut {cut}");
            let mut back = MrbcSpmd::new(&g, &dg, &sources, 3);
            back.restore(&snap).expect("restore");
            assert_eq!(back.snapshot(), snap, "cut {cut}");
        }
    }

    #[test]
    fn restore_rejects_config_mismatch_and_corruption() {
        let g = generators::cycle(12);
        let dg = partition(&g, 2, PartitionPolicy::BlockedEdgeCut);
        let sources: Vec<u32> = (0..4).collect();
        let prog = MrbcSpmd::new(&g, &dg, &sources, 2);
        let snap = prog.snapshot();

        // Different batch size.
        let mut other = MrbcSpmd::new(&g, &dg, &sources, 4);
        assert!(other.restore(&snap).is_err());
        // Different source set.
        let mut other = MrbcSpmd::new(&g, &dg, &[0, 1, 2, 5], 2);
        assert!(other.restore(&snap).is_err());
        // Truncation.
        let mut same = MrbcSpmd::new(&g, &dg, &sources, 2);
        assert!(same.restore(&snap[..snap.len() - 3]).is_err());
        // Bad magic.
        let mut bad = snap.clone();
        bad[0] ^= 0xFF;
        assert!(same.restore(&bad).is_err());
        // Intact snapshot still restores after the failed attempts.
        assert!(same.restore(&snap).is_ok());
    }

    #[test]
    fn restore_rejects_a_phase_that_contradicts_the_state() {
        let g = generators::cycle(12);
        let dg = partition(&g, 2, PartitionPolicy::BlockedEdgeCut);
        let sources: Vec<u32> = (0..4).collect();
        let prog = MrbcSpmd::new(&g, &dg, &sources, 2);
        let mut forged = prog.snapshot();
        // Header (7 u32s), bc (n f64s), batch index (u32), has-run (u8),
        // then the phase tag: forward → backward.
        let tag = 7 * 4 + g.num_vertices() * 8 + 4 + 1;
        assert_eq!(forged[tag], 0);
        forged[tag] = 1;
        let mut other = MrbcSpmd::new(&g, &dg, &sources, 2);
        assert!(other.restore(&forged).is_err());
        assert!(other.restore(&prog.snapshot()).is_ok());
    }

    /// A mid-forward replica of the road grid: 6 sources in one batch,
    /// stopped before forward round 8.
    fn mid_forward<'a>(g: &'a CsrGraph, dg: &'a DistGraph) -> MrbcSpmd<'a> {
        let sources: Vec<u32> = (0..6).collect();
        let mut prog = MrbcSpmd::new(g, dg, &sources, 6);
        run_steps(&mut prog, 2, 7);
        prog
    }

    /// `(v, (d0, j0), (d1, j1))`: a vertex with both sent and unsent
    /// labels, its last sent label and its first unsent one.
    fn half_sent_vertex(prog: &MrbcSpmd<'_>) -> (usize, (u32, u32), (u32, u32)) {
        let b = &prog.run.as_ref().expect("a batch in progress").batch;
        let k = b.k;
        (0..prog.g.num_vertices())
            .find_map(|v| {
                let mut labels: Vec<(u32, u32)> = (0..k as u32)
                    .map(|j| (b.dist_g[v * k + j as usize], j))
                    .filter(|&(d, _)| d != INF_DIST)
                    .collect();
                labels.sort_unstable();
                let sent = |&(_, j): &(u32, u32)| b.tau[v * k + j as usize] != u32::MAX;
                let cut = labels.iter().take_while(|l| sent(l)).count();
                (cut > 0 && cut < labels.len()).then(|| (v, labels[cut - 1], labels[cut]))
            })
            .expect("a vertex with a sent and an unsent label")
    }

    /// Byte offset of τ in a snapshot taken mid-batch: header, bc, batch
    /// index, has-run, phase, round and k, then the three `n·k` label
    /// tables. `R` follows τ.
    fn tau_offset(n: usize, k: usize) -> usize {
        7 * 4 + n * 8 + 4 + 1 + 1 + 4 + 4 + n * k * (4 + 8 + 8)
    }

    /// Restoring `forged` into a replica mid-way through the same run
    /// (6 sources in batches of `batch`) fails and leaves that replica as
    /// it was. Returns the refusal.
    fn refusal(g: &CsrGraph, dg: &DistGraph, batch: usize, forged: &[u8]) -> WireError {
        let sources: Vec<u32> = (0..6).collect();
        let mut other = MrbcSpmd::new(g, dg, &sources, batch);
        run_steps(&mut other, 2, 3);
        let before = other.snapshot();
        let err = other.restore(forged).expect_err("forged snapshot restored");
        assert!(
            other.snapshot() == before,
            "a refused restore changed the replica"
        );
        err
    }

    fn road_grid() -> (CsrGraph, DistGraph) {
        let g = generators::grid_road_network(generators::RoadNetworkConfig::new(3, 8), 5);
        let dg = partition(&g, 2, PartitionPolicy::BlockedEdgeCut);
        (g, dg)
    }

    #[test]
    fn restore_rejects_sent_labels_that_are_not_a_prefix() {
        let (g, dg) = road_grid();
        let prog = mid_forward(&g, &dg);
        let (v, (_, j0), (_, j1)) = half_sent_vertex(&prog);
        // Swap the two labels' send stamps: the second is sent, the first
        // is not.
        let (n, k) = (g.num_vertices(), 6);
        let at = |j: u32| tau_offset(n, k) + (v * k + j as usize) * 4;
        let mut forged = prog.snapshot();
        for i in 0..4 {
            forged.swap(at(j0) + i, at(j1) + i);
        }
        let err = refusal(&g, &dg, 6, &forged);
        assert_eq!(
            err,
            WireError::Invalid("sent labels are not a prefix of L_v")
        );
    }

    #[test]
    fn restore_rejects_an_r_below_the_last_send_or_above_the_forward_bound() {
        let (g, dg) = road_grid();
        let mut prog = mid_forward(&g, &dg);
        while prog.run.as_ref().is_some_and(BatchRun::is_forward) {
            run_steps(&mut prog, 2, 1);
        }
        run_steps(&mut prog, 2, 2);
        assert_eq!(prog.describe(0), "batch 1/1 backward round 3");
        let b = &prog.run.as_ref().expect("a batch in progress").batch;
        let last = b.tau.iter().filter(|&&t| t != u32::MAX).max();
        let last = *last.expect("a sent label");
        // Delayed sync: the forward phase ends in the round of its last send.
        assert_eq!(b.r_term, last);
        let (n, k) = (g.num_vertices(), 6);
        let at = tau_offset(n, k) + n * k * 4;
        let snap = prog.snapshot();
        assert_eq!(snap[at..at + 4], last.to_le_bytes());
        let stamp = WireError::Invalid("send stamp contradicts the label's position");
        let bound = WireError::Invalid("snapshot round or R out of range");
        let cap = 2 * n as u32 + k as u32 + 2;
        // An agenda of `u32::MAX + 2` buckets would not fit in memory; the
        // bound refuses it before `build_agenda` runs.
        for (r_term, want) in [
            (last - 1, stamp),
            (cap + 1, bound.clone()),
            (u32::MAX, bound),
        ] {
            let mut forged = snap.clone();
            forged[at..at + 4].copy_from_slice(&r_term.to_le_bytes());
            assert_eq!(refusal(&g, &dg, 6, &forged), want, "R = {r_term}");
        }
    }

    /// Seeded byte mutation of valid snapshots: single-byte flips and
    /// truncations of forward, backward and batch-boundary snapshots of a
    /// road grid and an R-MAT graph. `restore` never panics; a refusal
    /// leaves the replica as it was, and an accepted snapshot re-encodes
    /// to exactly its bytes.
    #[test]
    fn mutated_snapshots_are_refused_cleanly_or_round_trip() {
        use rand::{Rng, SeedableRng};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let road = generators::grid_road_network(generators::RoadNetworkConfig::new(3, 8), 5);
        let rmat = generators::rmat(generators::RmatConfig::new(7, 8), 3);
        let cuts = [
            "batch 1/2 forward round 3",
            "batch 1/2 backward round 3",
            "batch 2/2 forward round 1",
            "batch 2/2 backward round 2",
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let (mut accepted, mut refused) = (0, 0);
        for g in [&road, &rmat] {
            let dg = partition(g, 2, PartitionPolicy::CartesianVertexCut);
            let sources: Vec<u32> = (0..6).collect();
            let mut inputs = Vec::new();
            let mut prog = MrbcSpmd::new(g, &dg, &sources, 3);
            while !prog.done() {
                if cuts.contains(&prog.describe(0).as_str()) {
                    inputs.push(prog.snapshot());
                }
                run_steps(&mut prog, 2, 1);
            }
            assert_eq!(inputs.len(), cuts.len());
            let mut replica = MrbcSpmd::new(g, &dg, &sources, 3);
            run_steps(&mut replica, 2, 2);
            let before = replica.snapshot();
            for input in &inputs {
                let mut mutants: Vec<Vec<u8>> = (0..300)
                    .map(|_| {
                        let mut m = input.clone();
                        m[rng.gen_range(0..input.len())] ^= rng.gen_range(1..=255u8);
                        m
                    })
                    .collect();
                let cut = |len: usize| input[..len].to_vec();
                mutants.extend((0..20).map(|_| cut(rng.gen_range(0..input.len()))));
                for (i, m) in mutants.iter().enumerate() {
                    let got = catch_unwind(AssertUnwindSafe(|| replica.restore(m)));
                    let got = got.unwrap_or_else(|_| panic!("restore panicked on mutant {i}"));
                    if got.is_ok() {
                        accepted += 1;
                        assert!(replica.snapshot() == *m, "mutant {i} re-encodes otherwise");
                        replica
                            .restore(&before)
                            .expect("the replica's own snapshot");
                    } else {
                        refused += 1;
                        assert!(
                            replica.snapshot() == before,
                            "mutant {i} changed the replica"
                        );
                    }
                }
            }
        }
        assert!(
            accepted > 0 && refused > 0,
            "{accepted} accepted, {refused} refused"
        );
    }

    #[test]
    fn rejected_fold_leaves_the_replica_untouched() {
        let g = generators::cycle(12);
        let dg = partition(&g, 2, PartitionPolicy::BlockedEdgeCut);
        let mut prog = MrbcSpmd::new(&g, &dg, &[0, 1, 6, 7], 4);
        prog.begin_step(0);
        let mut payloads: Vec<Vec<u8>> = (0..2).map(|h| prog.local_step(0, h)).collect();
        assert!(payloads[0].len() > 12, "host 0 must push something");
        payloads[1].push(0);
        let before = prog.snapshot();
        assert!(prog.fold(0, &payloads).is_err());
        assert!(
            prog.snapshot() == before,
            "a rejected fold changed the replica"
        );
    }

    #[test]
    fn a_backward_payload_with_records_is_refused() {
        let g = generators::cycle(12);
        let dg = partition(&g, 2, PartitionPolicy::BlockedEdgeCut);
        let sources = [0, 1, 6, 7];
        let mut prog = MrbcSpmd::new(&g, &dg, &sources, 4);
        while prog.run.as_ref().is_some_and(BatchRun::is_forward) {
            run_steps(&mut prog, 2, 1);
        }
        run_steps(&mut prog, 2, 1);
        prog.begin_step(0);
        assert!(!prog.run.as_ref().expect("a batch").flags.is_empty());
        // Delayed sync: a backward payload is the work count and a zero
        // record count, however much the host pushed.
        let mut payloads: Vec<Vec<u8>> = (0..2).map(|h| prog.local_step(0, h)).collect();
        assert!(payloads.iter().all(|p| p.len() == 12), "{payloads:?}");
        let before = prog.snapshot();
        // One well-formed record: vertex 0, the step's first flag.
        let mut forged = payloads[0][..8].to_vec();
        forged.extend(1u32.to_le_bytes());
        forged.extend(0u32.to_le_bytes());
        forged.extend(0u32.to_le_bytes());
        forged.extend(1.0f64.to_le_bytes());
        let genuine = std::mem::replace(&mut payloads[0], forged);
        let refused = prog.fold(0, &payloads);
        let carries = WireError::Invalid("backward payload carries records");
        assert_eq!(refused, Err(carries));
        assert!(
            prog.snapshot() == before,
            "a refused fold changed the replica"
        );
        payloads[0] = genuine;
        prog.fold(0, &payloads).expect("fold");
        run_local(&mut prog, 1_000).expect("run");
        assert_eq!(prog.bc(), mrbc_bc(&g, &dg, &sources, 4).bc.as_slice());
    }

    #[test]
    fn empty_sources_complete_immediately() {
        let g = generators::path(5);
        let dg = partition(&g, 2, PartitionPolicy::BlockedEdgeCut);
        let mut prog = MrbcSpmd::new(&g, &dg, &[], 4);
        assert!(prog.done());
        assert_eq!(run_local(&mut prog, 100).expect("run"), 0);
        assert!(prog.bc().iter().all(|&b| b == 0.0));
    }

    #[test]
    fn fingerprint_tracks_result_content() {
        let g = generators::cycle(10);
        let dg = partition(&g, 2, PartitionPolicy::BlockedEdgeCut);
        let mut a = MrbcSpmd::new(&g, &dg, &[0, 1, 2], 2);
        let mut b = MrbcSpmd::new(&g, &dg, &[0, 1, 2], 2);
        run_local(&mut a, 1_000_000).expect("run");
        run_local(&mut b, 1_000_000).expect("run");
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = MrbcSpmd::new(&g, &dg, &[3, 4, 5], 2);
        run_local(&mut c, 1_000_000).expect("run");
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
