//! MRBC as a replicated SPMD state machine — the one MRBC driver. Real
//! multi-process workers step it over the `mrbc-net` TCP mesh, and
//! [`mrbc_bc`](super::mrbc::mrbc_bc) steps it in-process.
//!
//! [`MrbcSpmd`] is the batched MRBC engine in the
//! [`SpmdProgram`](mrbc_dgalois::spmd::SpmdProgram) contract:
//!
//! * **replicated state** — the authoritative labels (`dist_g`, `sigma_g`,
//!   `delta_g`), τ, the forward calendar, the backward agenda, the parked
//!   δ contributions and the BC accumulator. Every worker holds all of it
//!   and mutates it identically in `begin_step` / `fold`.
//! * **partial state** — one host's proxy labels (`HostState`). A worker
//!   only ever advances its own host's partials in `local_step`.
//!
//! One SPMD step = one BSP round. `begin_step` computes the round's flag
//! set (forward: the labels whose send condition fires, stamping τ;
//! backward: the agenda bucket, folding parked δ) and buckets it by proxy
//! host. Host `h`'s push reads only bucket `h`: it applies (and counts)
//! the sync on `h`'s proxies and runs the [`fwd_push_host`] /
//! [`bwd_push_host`] kernel for `h`'s local edges. The fold merges every
//! host's pushes in canonical host order, so the `f64` evolution is
//! **bit-identical** however the hosts are spread over processes — that
//! is the property the chaos test pins: SIGKILL a worker mid-forward,
//! restore it from a checkpoint, and the final scores still match
//! [`mrbc_bc`](super::mrbc::mrbc_bc) exactly. The pushes are typed;
//! `local_step` / `fold` only encode and decode them, and `fold` checks
//! every payload before it folds any.
//!
//! Snapshots are only taken between steps (before a `begin_step`), so the
//! in-flight flag set, its per-host buckets and the pushes' sync counts
//! are never serialized: the next `begin_step` rebuilds all three. Nor is
//! the forward calendar (per-vertex heaps and round lists): it is derived
//! state, and `restore` rebuilds it from `dist_g` and τ. The snapshot
//! still carries the paper's `M_v` per vertex, written from `dist_g`
//! (format version 1, unchanged). `restore` refuses a section that
//! differs from the one `dist_g` derives, a τ whose sent labels are not a
//! prefix of `L_v` fired in their rounds, and a backward agenda or
//! parked-δ table other than the one the labels and τ derive.
//! [`MrbcSpmd::new`] always runs the paper's delayed synchronization. The
//! eager ablation is a mode only the in-process driver selects: its steps
//! skip the broadcast write-back, and a forward phase whose last step
//! pushed anything runs one empty step more, in which the driver accounts
//! the final sync.

use super::mrbc::{
    bucket_flags, bwd_push_host, fwd_push_host, Batch, MrbcOptions, ProxyFlag, Pushes,
};
use crate::schedule::{sorted_labels, SendSchedule};
use mrbc_dgalois::comm::Exchange;
use mrbc_dgalois::spmd::SpmdProgram;
use mrbc_dgalois::DistGraph;
use mrbc_graph::{CsrGraph, VertexId};
use mrbc_util::crc::{crc32, digest64};
use mrbc_util::wire::{WireError, WireReader, WireWriter};
use mrbc_util::DenseBitset;

/// Snapshot magic: `"MSPD"` little-endian.
const SNAP_MAGIC: u32 = 0x4450_534D;
/// Snapshot format version.
const SNAP_VERSION: u32 = 1;
/// Encoded bytes of one push record: three `u32`s and an `f64`.
const PUSH_BYTES: usize = 4 + 4 + 4 + 8;

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
    /// Backward agenda buckets (empty during the forward phase).
    agenda: Vec<Vec<(u32, u32, u32)>>,
    /// Parked δ contributions per `(v, j)` (empty during forward).
    pending: Vec<Vec<(u32, f64)>>,
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
    run: Option<BatchRun<'a>>,
    done: bool,
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
            done: false,
        };
        if me.sorted.is_empty() {
            me.done = true;
        } else {
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
            pending: Vec::new(),
        }
    }

    /// Host `h`'s share of the current step, over the flags of its bucket
    /// only: apply the sync to its proxies and count it (delayed mode
    /// only), then push the flagged labels along its local edges. Mutates
    /// only host `h`'s partials and its counts.
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
        let hs = &mut b.hosts[h];
        if forward {
            fwd_push_host(b.dg, h, b.k, &b.sigma_g, hs, flags, bucket)
        } else {
            let (dist_g, sigma_g, delta_g) = (&b.dist_g, &b.sigma_g, &b.delta_g);
            bwd_push_host(b.dg, h, b.k, dist_g, sigma_g, delta_g, hs, flags, bucket)
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

    /// Folds every host's pushes in canonical host order, then makes the
    /// replicated phase transition. This is the one place a forward phase
    /// ends, `R` is fixed, a batch's δ becomes BC and the next batch
    /// starts.
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
        let forward = run.is_forward();
        let k = run.batch.k;
        for (records, _) in pushes {
            for (gu, j, x, val) in records {
                if forward {
                    run.batch.merge_global(gu as usize, j as usize, x, val);
                } else {
                    run.pending[gu as usize * k + j as usize].push((x, val));
                }
            }
        }
        run.flags.clear();
        match run.phase {
            Phase::Forward { round } if run.batch.pending_total == 0 && !flush => {
                // The schedule is forward-phase state.
                run.batch.schedule = SendSchedule::default();
                run.batch.r_term = round;
                run.agenda = run.batch.build_agenda();
                run.pending = vec![Vec::new(); n * k];
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
                if let Some(mut run) = self.run.take() {
                    run.batch.fold_all_pending(&mut run.pending);
                    drop((run.pending, run.agenda));
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
                } else {
                    self.done = true;
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

fn put_bitset(w: &mut WireWriter, bits: &DenseBitset) {
    w.u32(bits.len() as u32);
    w.u32(bits.count_ones() as u32);
    for i in bits.iter_ones() {
        w.u32(i as u32);
    }
}

fn get_bitset(r: &mut WireReader<'_>) -> Result<DenseBitset, WireError> {
    let len = r.u32()? as usize;
    let ones = r.u32()? as usize;
    if ones > len {
        return Err(WireError::Invalid("bitset ones exceed length"));
    }
    let mut bits = DenseBitset::new(len);
    for _ in 0..ones {
        let i = r.u32()? as usize;
        if i >= len {
            return Err(WireError::Invalid("bitset index out of range"));
        }
        bits.set(i);
    }
    Ok(bits)
}

/// Writes `M_v` from `v`'s distance row `row`: the labels grouped by
/// distance, in ascending order, each group as a bitset over the sources.
fn put_schedule(w: &mut WireWriter, row: &[u32]) {
    let labels = sorted_labels(row);
    let blocks = labels.chunk_by(|a, b| a.0 == b.0);
    w.u32(blocks.clone().count() as u32);
    for block in blocks {
        w.u32(block[0].0);
        w.u32(row.len() as u32);
        w.u32(block.len() as u32);
        for &(_, j) in block {
            w.u32(j);
        }
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
/// its record count before allocating and every target against the
/// batch's `n × k` label table.
fn decode_pushes(payload: &[u8], n: usize, k: usize) -> Result<Pushes, WireError> {
    let mut r = WireReader::new(payload);
    let work = r.u64()?;
    let cnt = r.u32()? as usize;
    if cnt.checked_mul(PUSH_BYTES) != Some(r.remaining()) {
        return Err(WireError::Invalid("push count != payload length"));
    }
    let mut records = Vec::with_capacity(cnt);
    for _ in 0..cnt {
        let (gu, j, x, val) = (r.u32()?, r.u32()?, r.u32()?, r.f64()?);
        if gu as usize >= n || j as usize >= k {
            return Err(WireError::Invalid("push target out of range"));
        }
        records.push((gu, j, x, val));
    }
    Ok((records, work))
}

impl SpmdProgram for MrbcSpmd<'_> {
    fn num_hosts(&self) -> usize {
        self.dg.num_hosts
    }

    fn done(&self) -> bool {
        self.done
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
                run.batch.fold_pending_flags(&run.flags, &mut run.pending);
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
        for (gu, j, x, val) in records {
            w.u32(gu);
            w.u32(j);
            w.u32(x);
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
        let (n, k) = (self.g.num_vertices(), run.batch.k);
        let pushes = payloads
            .iter()
            .map(|p| decode_pushes(p, n, k))
            .collect::<Result<Vec<_>, _>>()?;
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
        w.u8(u8::from(self.done));
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
            w.u64(b.pending_total);
            w.u32(b.r_term);
            for row in b.dist_g.chunks(k) {
                put_schedule(&mut w, row);
            }
            for hs in &b.hosts {
                w.u32((hs.dist.len() / k.max(1)) as u32);
                put_u32s(&mut w, &hs.dist);
                put_f64s(&mut w, &hs.sigma);
                put_f64s(&mut w, &hs.delta);
                put_bitset(&mut w, &hs.synced);
            }
            w.u32(run.agenda.len() as u32);
            for bucket in &run.agenda {
                w.u32(bucket.len() as u32);
                for &(v, j, d) in bucket {
                    w.u32(v);
                    w.u32(j);
                    w.u32(d);
                }
            }
            let nonempty = run.pending.iter().filter(|p| !p.is_empty()).count();
            w.u32(run.pending.len() as u32);
            w.u32(nonempty as u32);
            for (idx, contribs) in run.pending.iter().enumerate() {
                if contribs.is_empty() {
                    continue;
                }
                w.u32(idx as u32);
                w.u32(contribs.len() as u32);
                for &(v, c) in contribs {
                    w.u32(v);
                    w.f64(c);
                }
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
        let done = r.u8()? != 0;
        let batch_index = r.u32()? as usize;
        let has_run = r.u8()? != 0;
        if done == has_run {
            return Err(WireError::Invalid("snapshot done/run flags disagree"));
        }
        if batch_index > self.num_batches() {
            return Err(WireError::Invalid("snapshot batch index out of range"));
        }
        let run = if has_run {
            if batch_index >= self.num_batches() {
                return Err(WireError::Invalid("snapshot batch index out of range"));
            }
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
            b.pending_total = r.u64()?;
            b.r_term = r.u32()?;
            // The phase must agree with the state it carries: forward has
            // no agenda and no parked δ; backward round `1..=R + 1` has
            // `R + 2` agenda buckets, the full `n·k` pending table and
            // nothing left to send.
            let r_term = b.r_term as usize;
            let (backward, next_round) = match phase {
                Phase::Forward { round } => (false, round),
                Phase::Backward { round } if (1..=r_term + 1).contains(&(round as usize)) => {
                    (true, b.r_term.saturating_add(1))
                }
                Phase::Backward { .. } => {
                    return Err(WireError::Invalid("backward round outside 1..=R + 1"))
                }
            };
            // `M_v` is a view of the labels, so the section must be the
            // one `dist_g` derives; the calendar is rebuilt from the
            // labels and τ, which must agree with them and the phase.
            let mut mv = WireWriter::new();
            for row in b.dist_g.chunks(k) {
                put_schedule(&mut mv, row);
            }
            if r.take(mv.len())? != mv.into_bytes() {
                return Err(WireError::Invalid("schedule contradicts the labels"));
            }
            let schedule = SendSchedule::restore(&b.dist_g, &b.tau, k, next_round)
                .map_err(WireError::Invalid)?;
            let unsent: u64 = (0..n).map(|v| u64::from(schedule.pending(v))).sum();
            if unsent != b.pending_total || backward && unsent != 0 {
                return Err(WireError::Invalid("pending count contradicts the schedule"));
            }
            if !backward {
                b.schedule = schedule;
            }
            for (h, hs) in b.hosts.iter_mut().enumerate() {
                let p = r.u32()? as usize;
                if p != self.dg.hosts[h].num_proxies() {
                    return Err(WireError::Invalid("snapshot proxy count mismatch"));
                }
                hs.dist = get_u32s(&mut r, p * k)?;
                hs.sigma = get_f64s(&mut r, p * k)?;
                hs.delta = get_f64s(&mut r, p * k)?;
                hs.synced = get_bitset(&mut r)?;
                if hs.synced.len() != p * k {
                    return Err(WireError::Invalid("synced bitset width mismatch"));
                }
            }
            let buckets = r.u32()? as usize;
            if buckets != if backward { r_term + 2 } else { 0 } {
                return Err(WireError::Invalid("agenda size contradicts the phase"));
            }
            let mut agenda = Vec::new();
            for _ in 0..buckets {
                let cnt = r.u32()? as usize;
                let mut bucket = Vec::new();
                for _ in 0..cnt {
                    bucket.push((r.u32()?, r.u32()?, r.u32()?));
                }
                agenda.push(bucket);
            }
            // What is left of the agenda is derived from τ: the buckets
            // `build_agenda` files, from the current backward round on.
            if let Phase::Backward { round } = phase {
                let mut want = b.build_agenda();
                want[..round as usize].iter_mut().for_each(Vec::clear);
                if agenda != want {
                    return Err(WireError::Invalid("agenda contradicts the send stamps"));
                }
            }
            let pending_len = r.u32()? as usize;
            if pending_len != if backward { n * k } else { 0 } {
                return Err(WireError::Invalid("pending table contradicts the phase"));
            }
            let mut pending = vec![Vec::new(); pending_len];
            let nonempty = r.u32()? as usize;
            for _ in 0..nonempty {
                let idx = r.u32()? as usize;
                if idx >= pending_len {
                    return Err(WireError::Invalid("pending index out of range"));
                }
                let cnt = r.u32()? as usize;
                let mut contribs = Vec::new();
                for _ in 0..cnt {
                    contribs.push((r.u32()?, r.f64()?));
                }
                pending[idx] = contribs;
            }
            // So is the parked δ: each list, in pusher order (the order
            // `fold_pending_flags` folds it in), must be the one the
            // labels and τ derive, value for value in bits.
            if let Phase::Backward { round } = phase {
                let want = b.parked_deltas(round);
                let same = pending.iter().zip(&want).all(|(got, want)| {
                    let mut got = got.clone();
                    got.sort_by_key(|&(v, _)| v);
                    got.len() == want.len()
                        && got
                            .iter()
                            .zip(want)
                            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
                });
                if !same {
                    return Err(WireError::Invalid("parked δ contradicts the labels"));
                }
            }
            run.phase = phase;
            run.agenda = agenda;
            run.pending = pending;
            Some(run)
        } else {
            None
        };
        if !r.is_empty() {
            return Err(WireError::Invalid("trailing snapshot bytes"));
        }
        self.bc = bc;
        self.done = done;
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
    use std::collections::BTreeMap;

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

    #[test]
    fn mid_forward_snapshot_bytes_are_pinned() {
        // Captured before the forward calendar existed: the calendar is
        // derived state, so the snapshot format and bytes must not move.
        const SMALL: [&str; 17] = [
            "4d5350440100000005000000020000000200000002000000e2172bcf0000000000000000000000000000000000000000",
            "000000000000000000000000000000000000000000000000000100030000000200000000000000ffffffff01000000ff",
            "ffffff0200000000000000ffffffff01000000ffffffff02000000000000000000f03f00000000000000000000000000",
            "00f03f0000000000000000000000000000f03f000000000000f03f0000000000000000000000000000f03f0000000000",
            "000000000000000000f03f00000000000000000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000001000000ff",
            "ffffff02000000ffffffffffffffff01000000ffffffff02000000ffffffffffffffff02000000000000000000000001",
            "000000000000000200000001000000000000000100000001000000020000000100000000000000020000000000000002",
            "000000010000000100000002000000020000000100000000000000010000000100000002000000010000000100000001",
            "000000020000000200000001000000010000000400000000000000ffffffff01000000ffffffff0200000000000000ff",
            "ffffff01000000000000000000f03f0000000000000000000000000000f03f0000000000000000000000000000f03f00",
            "0000000000f03f0000000000000000000000000000f03f00000000000000000000000000000000000000000000000000",
            "000000000000000000000000000000000000000000000000000000000000000000000000000000080000000300000000",
            "000000020000000500000003000000ffffffffffffffffffffffff01000000ffffffff02000000000000000000000000",
            "000000000000000000000000000000000000000000f03f0000000000000000000000000000f03f000000000000000000",
            "000000000000000000000000000000000000000000000000000000000000000000000000000000060000000100000003",
            "000000000000000000000000000000",
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
        run_local(&mut prog, 1_000).expect("run");
        run_local(&mut back, 1_000).expect("run");
        assert_eq!(back.bc(), prog.bc());

        let g = generators::grid_road_network(generators::RoadNetworkConfig::new(3, 8), 5);
        let dg = partition(&g, 2, PartitionPolicy::BlockedEdgeCut);
        let sources: Vec<u32> = (0..6).collect();
        for (cut, len, digest) in [
            (3, 9_527, 0x553f_0264_fa51_a529),
            (7, 10_343, 0x3f56_4729_ace7_d1ff),
            (12, 11_219, 0x6f75_300e_c478_6406),
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
        // Captured while the schedule still stored `M_v` itself: the
        // snapshot's `M_v` section is derived from the labels now, so
        // these bytes must not move.
        let g = generators::grid_road_network(generators::RoadNetworkConfig::new(3, 8), 5);
        let dg = partition(&g, 2, PartitionPolicy::BlockedEdgeCut);
        let sources: Vec<u32> = (0..6).collect();
        for (cut, at, len, digest) in [
            (
                18,
                "batch 1/2 backward round 7",
                6_775,
                0x2293_87e3_8cc6_10c4,
            ),
            (
                26,
                "batch 2/2 forward round 2",
                4_699,
                0x728a_dd2f_a616_f1bb,
            ),
            (
                40,
                "batch 2/2 backward round 6",
                6_815,
                0x064d_16a8_5abd_b6a6,
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
        // Header (7 u32s), bc (n f64s), done (u8), batch index (u32),
        // has-run (u8), then the phase tag: forward → backward.
        let tag = 7 * 4 + g.num_vertices() * 8 + 1 + 4 + 1;
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

    /// Byte offset of the `M_v` section in a snapshot taken mid-batch.
    fn schedule_offset(n: usize, k: usize) -> usize {
        // Header, bc, done, batch index, has-run, phase, round, k; the
        // four n·k label tables; pending total and R.
        7 * 4 + n * 8 + 1 + 4 + 1 + 1 + 4 + 4 + n * k * (4 + 8 + 8 + 4) + 8 + 4
    }

    /// `prog`'s snapshot with its `M_v` section (distance → sources, per
    /// vertex) rewritten by `edit`.
    fn forge_schedule(
        prog: &MrbcSpmd<'_>,
        edit: impl FnOnce(&mut [BTreeMap<u32, Vec<u32>>]),
    ) -> Vec<u8> {
        let b = &prog.run.as_ref().expect("a batch in progress").batch;
        let (n, k) = (prog.g.num_vertices(), b.k);
        let mut maps = vec![BTreeMap::<u32, Vec<u32>>::new(); n];
        for (i, &d) in b.dist_g.iter().enumerate() {
            if d != INF_DIST {
                maps[i / k].entry(d).or_default().push((i % k) as u32);
            }
        }
        let encode = |maps: &[BTreeMap<u32, Vec<u32>>]| {
            let mut w = WireWriter::new();
            for map in maps {
                w.u32(map.len() as u32);
                for (&d, js) in map {
                    w.u32(d);
                    w.u32(k as u32);
                    w.u32(js.len() as u32);
                    put_u32s(&mut w, js);
                }
            }
            w.into_bytes()
        };
        let snap = prog.snapshot();
        let (start, section) = (schedule_offset(n, k), encode(&maps));
        let end = start + section.len();
        assert_eq!(snap[start..end], section[..], "M_v section located");
        edit(&mut maps);
        [&snap[..start], &encode(&maps)[..], &snap[end..]].concat()
    }

    /// Restoring `forged` into a replica mid-way through the same run
    /// (6 sources in batches of `batch`) fails and leaves that replica as
    /// it was.
    fn assert_refused(g: &CsrGraph, dg: &DistGraph, batch: usize, forged: &[u8]) {
        let sources: Vec<u32> = (0..6).collect();
        let mut other = MrbcSpmd::new(g, dg, &sources, batch);
        run_steps(&mut other, 2, 3);
        let before = other.snapshot();
        assert!(other.restore(forged).is_err(), "forged snapshot restored");
        assert!(
            other.snapshot() == before,
            "a refused restore changed the replica"
        );
    }

    fn road_grid() -> (CsrGraph, DistGraph) {
        let g = generators::grid_road_network(generators::RoadNetworkConfig::new(3, 8), 5);
        let dg = partition(&g, 2, PartitionPolicy::BlockedEdgeCut);
        (g, dg)
    }

    #[test]
    fn restore_rejects_a_source_listed_under_two_distances() {
        let (g, dg) = road_grid();
        let prog = mid_forward(&g, &dg);
        let (v, _, (d1, j1)) = half_sent_vertex(&prog);
        let forged = forge_schedule(&prog, |maps| {
            maps[v].entry(d1 + 1).or_default().push(j1);
        });
        assert_refused(&g, &dg, 6, &forged);
    }

    #[test]
    fn restore_rejects_a_label_at_a_distance_dist_does_not_hold() {
        let (g, dg) = road_grid();
        let prog = mid_forward(&g, &dg);
        let (v, _, (d1, j1)) = half_sent_vertex(&prog);
        let forged = forge_schedule(&prog, |maps| {
            let block = maps[v].get_mut(&d1).expect("block of the label");
            block.retain(|&j| j != j1);
            if block.is_empty() {
                maps[v].remove(&d1);
            }
            maps[v].entry(d1 + 1).or_default().push(j1);
        });
        assert_refused(&g, &dg, 6, &forged);
    }

    #[test]
    fn restore_rejects_sent_labels_that_are_not_a_prefix() {
        let (g, dg) = road_grid();
        let prog = mid_forward(&g, &dg);
        let (v, (_, j0), (_, j1)) = half_sent_vertex(&prog);
        // Swap the two labels' send stamps: the second is sent, the first
        // is not.
        let (n, k) = (g.num_vertices(), 6);
        let tau = schedule_offset(n, k) - 8 - 4 - n * k * 4;
        let at = |j: u32| tau + (v * k + j as usize) * 4;
        let mut forged = prog.snapshot();
        for i in 0..4 {
            forged.swap(at(j0) + i, at(j1) + i);
        }
        assert_refused(&g, &dg, 6, &forged);
    }

    #[test]
    fn restore_rejects_an_agenda_that_contradicts_the_send_stamps() {
        let (g, dg) = road_grid();
        let mut prog = mid_forward(&g, &dg);
        while prog.run.as_ref().is_some_and(BatchRun::is_forward) {
            run_steps(&mut prog, 2, 1);
        }
        run_steps(&mut prog, 2, 2);
        let run = prog.run.as_mut().expect("a batch in progress");
        let entry = run.agenda.iter_mut().flatten().next();
        // One label accumulated at a distance one off its own.
        entry.expect("a label left to accumulate").2 += 1;
        assert_refused(&g, &dg, 6, &prog.snapshot());
    }

    #[test]
    fn restore_rejects_a_doubled_parked_contribution() {
        let (g, dg) = road_grid();
        let sources: Vec<u32> = (0..6).collect();
        let mut prog = MrbcSpmd::new(&g, &dg, &sources, 3);
        for step in 0.. {
            if prog.describe(step) == "batch 1/2 backward round 5" {
                break;
            }
            assert!(step < 100, "batch 1 never reached backward round 5");
            run_steps(&mut prog, 2, 1);
        }
        let mut back = MrbcSpmd::new(&g, &dg, &sources, 3);
        back.restore(&prog.snapshot())
            .expect("the intact snapshot restores");
        let run = prog.run.as_mut().expect("a batch in progress");
        let parked = run.pending.iter_mut().flatten().next();
        parked.expect("a parked contribution").1 *= 2.0;
        assert_refused(&g, &dg, 3, &prog.snapshot());
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
