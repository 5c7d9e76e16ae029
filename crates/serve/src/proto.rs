//! The query-service wire protocol.
//!
//! Messages ride the shared `[len][crc][body]` envelope from
//! [`mrbc_util::framing`] (the same envelope the SPMD mesh speaks); this
//! module defines only the body layout: a tag byte, the client-chosen
//! request id (echoed verbatim in the response so a pipelining client
//! can match answers out of order), and the tag-specific fields in the
//! bounds-checked little-endian [`mrbc_util::wire`] encoding. Scores
//! travel as raw IEEE-754 bits, so daemon answers are *bit-identical* to
//! offline computation — the serving parity contract.
//!
//! Every request that reads results carries an **epoch pin**: `0` means
//! "answer against whatever epoch is current", any other value demands
//! that exact graph epoch and is refused with [`Response::Stale`] once a
//! mutation has bumped it. Admission-control refusals arrive as
//! [`Response::Busy`]; neither ever blocks the client.
//!
//! Since version 2 every request header also carries a [`TraceCtx`]
//! (trace id + parent span id, 0 = none), so a query that fans from a
//! client through the pool front-end into a worker tags every span it
//! touches with one trace id — the correlation key `mrbc obs merge`
//! stitches cross-process timelines with. The `Welcome` handshake
//! reply additionally reports the server's pid and its monotonic
//! trace-epoch clock reading, giving the front-end the `t1` of an NTP
//! midpoint clock-offset estimate per worker.

use mrbc_util::framing;
use mrbc_util::wire::{WireError, WireReader, WireWriter};

use mrbc_obs::Histogram;

/// Protocol magic carried in `Hello` / `Welcome`: `"MRSV"`.
pub const SERVE_MAGIC: u32 = 0x5653_524D;
/// Query-protocol version; bumped on any wire-format change.
/// v2: trace-context request header, Welcome clock/pid fields,
/// quantile-histogram + pool-counter Stats extension.
/// v3: generation number in Hello/Welcome (split-brain fencing for
/// restarted pool front-ends) and the WalFault response (durability
/// lost; maps to exit code 8).
/// v4: epoch-maintenance counters in Stats (`sources_reused` /
/// `sources_rebuilt` / `fallback_full` from the incremental engine).
/// v5: `hedge_fired` removed from Stats (hedging is gone).
/// v6: the `Partial` response is gone (its tag, 12, is retired, not
/// reused) and so is `fallback_full` from Stats.
pub const SERVE_VERSION: u32 = 6;

/// Trace correlation context carried on every request: the originating
/// query's trace id and the span id of the sender's enclosing span.
/// Both 0 means "no context" (an untraced client); ids are minted with
/// [`mrbc_obs::fresh_id`], which never returns 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace id shared by every span of one originating query.
    pub trace: u64,
    /// Span id of the sender's span that caused this request.
    pub parent: u64,
}

impl TraceCtx {
    /// The absent context (untraced request).
    pub const NONE: TraceCtx = TraceCtx {
        trace: 0,
        parent: 0,
    };

    /// Mint a fresh root context for a new query.
    pub fn root() -> TraceCtx {
        TraceCtx {
            trace: mrbc_obs::fresh_id(),
            parent: 0,
        }
    }

    /// Derive the context a downstream hop should carry, with `span`
    /// (the local span handling the query) as the new parent.
    pub fn child(&self, span: u64) -> TraceCtx {
        TraceCtx {
            trace: self.trace,
            parent: span,
        }
    }

    /// Whether a trace id is present.
    pub fn is_set(&self) -> bool {
        self.trace != 0
    }
}

/// Edge mutation direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutateOp {
    /// Insert the directed edge `u -> v` (no-op if already present).
    AddEdge,
    /// Delete the directed edge `u -> v` (no-op if absent).
    RemoveEdge,
}

impl MutateOp {
    fn to_u8(self) -> u8 {
        match self {
            MutateOp::AddEdge => 0,
            MutateOp::RemoveEdge => 1,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            0 => MutateOp::AddEdge,
            1 => MutateOp::RemoveEdge,
            _ => return Err(WireError::Invalid("unknown mutate op")),
        })
    }
}

/// A client request. `epoch` fields are pins: 0 = current epoch.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Handshake: magic + version; answered by [`Response::Welcome`].
    Hello {
        /// The caller's WAL generation (0 = none: ordinary clients).
        /// A durable pool front-end sends its persisted generation when
        /// greeting workers; a worker remembers the highest it has seen
        /// and refuses older ones, fencing a stale pre-restart
        /// front-end out of a split-brain double-serving race.
        generation: u64,
    },
    /// Betweenness score of one vertex (from the epoch's full BC vector).
    BcScore {
        /// Epoch pin (0 = current).
        epoch: u64,
        /// Vertex to score.
        v: u32,
    },
    /// The `k` highest-betweenness vertices, deterministically ranked.
    TopK {
        /// Epoch pin (0 = current).
        epoch: u64,
        /// Ranking length.
        k: u32,
    },
    /// Shortest-path distance and count `(dist(s, t), σ(s, t))`.
    PathInfo {
        /// Epoch pin (0 = current).
        epoch: u64,
        /// Source vertex.
        s: u32,
        /// Target vertex.
        t: u32,
    },
    /// Subset-source betweenness: scores accumulated from `sources` only.
    SubsetBc {
        /// Epoch pin (0 = current).
        epoch: u64,
        /// Source set (duplicates and arbitrary order are canonicalized).
        sources: Vec<u32>,
    },
    /// Edge mutation; bumps the graph epoch when it changes the graph.
    Mutate {
        /// Add or remove.
        op: MutateOp,
        /// Edge source.
        u: u32,
        /// Edge target.
        v: u32,
    },
    /// Scheduler / store counters snapshot.
    Stats,
    /// Ask the daemon to shut down cleanly (answered with [`Response::Bye`]).
    Shutdown,
}

impl Request {
    /// True for queries whose work is scoped to explicit sources — the
    /// ones the Lemma-8 scheduler coalesces into k-source batches.
    pub fn is_source_scoped(&self) -> bool {
        matches!(self, Request::PathInfo { .. } | Request::SubsetBc { .. })
    }

    /// The epoch pin carried by the request (0 when unpinned or N/A).
    pub fn epoch_pin(&self) -> u64 {
        match self {
            Request::BcScore { epoch, .. }
            | Request::TopK { epoch, .. }
            | Request::PathInfo { epoch, .. }
            | Request::SubsetBc { epoch, .. } => *epoch,
            _ => 0,
        }
    }
}

/// How one [`ServeStats`] field combines when two snapshots fold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fold {
    /// Replicated or monotonic: every holder reports the same stream,
    /// so the largest reading stands for all of them.
    Max,
    /// Each holder counted its own share.
    Sum,
    /// The folded-in snapshot has nothing to say about this field.
    Keep,
}

/// Which snapshots [`ServeStats::fold`] is combining.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Across {
    /// A worker's snapshot into the pool front-end's.
    Workers = 0,
    /// The totals an earlier front-end generation persisted, into this
    /// generation's.
    Restarts = 1,
}

/// What a [`ServeStats`] field's declaration says beyond name and doc:
/// its label in `mrbc query <addr> stats`, its line in that listing (the
/// derived rows of [`ServeStats::rows`] take the numbers left free), and
/// how it folds across `[workers, restarts]` (indexed by [`Across`]).
pub type StatRule = (&'static str, u8, [Fold; 2]);

use Fold::{Keep, Max, Sum};

crate::table::stat_table! {
    /// Scheduler and store counters reported by [`Response::Stats`].
    ///
    /// This is the one declaration of the schema: the wire codec, the
    /// scheduler's atomics ([`Counters`]), [`ServeStats::fold`], the
    /// `query stats` listing and README's `Stats` rows all come from the
    /// field list below, in this (wire) order. A single daemon fills the
    /// scheduler fields and its per-phase latency histograms; the pool
    /// front-end folds worker snapshots into its own — per-source
    /// contributions compose independently, which is what lets a fixed
    /// rule per field stand for the whole pool.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct ServeStats {
        /// Per-phase latency histograms (`serve.queue_us`, `serve.exec_us`,
        /// `serve.total_us`), mergeable across workers; sorted by name.
        pub hists: Vec<(String, Histogram)>,
    }

    /// Monotonic serving counters, readable from any thread: one cell
    /// per [`ServeStats`] field. `epoch` and `queue_depth` are read off
    /// the store and the queue at snapshot time, and the front-end's own
    /// fields stay 0 in a worker; those cells are never written.
    #[derive(Debug, Default)]
    pub struct Counters {
        /// Per-phase latency histograms. Always on — the log-bucketed
        /// record path is a handful of integer ops under a short lock, so
        /// quantiles are available from `Stats` even without `--trace`.
        pub phases: std::sync::Mutex<crate::sched::PhaseHists>,
    }

    fields: StatRule {
        /// Current graph epoch.
        epoch = ("epoch", 0, [Max, Max]),
        /// Queue-admitted query requests (excludes Hello/Stats/Shutdown).
        queries = ("queries", 2, [Sum, Sum]),
        /// Source-scoped queries executed (PathInfo + SubsetBc).
        source_queries = ("source queries", 3, [Sum, Sum]),
        /// Worker dispatches that contained ≥ 1 source-scoped query.
        batches = ("batches", 4, [Sum, Sum]),
        /// Distinct sources computed across all batches.
        batched_sources = ("batched sources", 5, [Sum, Sum]),
        /// Requests refused with `Busy` (queue at capacity).
        busy_rejections = ("busy rejections", 7, [Sum, Sum]),
        /// Requests refused with `Stale` (epoch pin mismatch).
        stale_rejections = ("stale rejections", 8, [Sum, Sum]),
        /// Mutations that changed the graph (epoch bumps); every worker
        /// applies the same stream.
        mutations = ("mutations", 9, [Max, Max]),
        /// Client sessions accepted since startup (a pool reports its
        /// front-end's).
        sessions = ("sessions", 1, [Keep, Sum]),
        /// Jobs waiting in the scheduler queue at snapshot time.
        queue_depth = ("queue depth", 10, [Sum, Keep]),
        /// In-flight requests the pool front-end re-dispatched to another
        /// worker after a connection died.
        failover_attempts = ("failover attempts", 11, [Keep, Sum]),
        /// Mutations the pool front-end replayed into respawned workers to
        /// rebuild their graph state (total ops across all respawns).
        replay_mutations = ("replayed mutations", 12, [Keep, Sum]),
        /// Per-source artifacts the incremental maintenance engine reused
        /// across epoch bumps (summed over applied mutations; maintenance
        /// is deterministic, so every worker of a pool counts the same).
        sources_reused = ("sources reused", 13, [Max, Max]),
        /// Per-source artifacts the maintenance engine rebuilt.
        sources_rebuilt = ("sources rebuilt", 14, [Max, Max]),
    }
}

impl ServeStats {
    /// Batch-coalescing factor: source-scoped queries per dispatched
    /// batch (1.0 when nothing has been batched yet). The Lemma-8
    /// amortization is visible exactly when this exceeds 1.
    pub fn coalescing_factor(&self) -> f64 {
        if self.batches == 0 {
            1.0
        } else {
            self.source_queries as f64 / self.batches as f64
        }
    }

    /// Fraction of per-source artifacts the incremental engine reused
    /// across all maintained epoch bumps (0.0 before any maintained
    /// mutation — nothing reused yet is the honest reading).
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.sources_reused + self.sources_rebuilt;
        if total == 0 {
            0.0
        } else {
            self.sources_reused as f64 / total as f64
        }
    }

    /// The named per-phase histogram, if present.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Merge another snapshot's histograms into this one's (bucket
    /// addition per name; names absent here are inserted). Keeps the
    /// name ordering sorted so encoded snapshots stay deterministic.
    pub fn merge_hists(&mut self, other: &ServeStats) {
        for (name, h) in &other.hists {
            match self.hists.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => mine.merge(h),
                None => self.hists.push((name.clone(), h.clone())),
            }
        }
        self.hists.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Folds `other` into this snapshot, each field by its declared rule
    /// for `across`; histograms merge by name either way.
    pub fn fold(&mut self, other: &ServeStats, across: Across) {
        for f in Self::FIELDS {
            let theirs = (f.get)(other);
            let mine = (f.slot)(self);
            match f.rule.2[across as usize] {
                Fold::Max => *mine = (*mine).max(theirs),
                Fold::Sum => *mine += theirs,
                Fold::Keep => {}
            }
        }
        self.merge_hists(other);
    }

    /// The `query stats` listing as `(label, value)` lines: every field
    /// on its declared row, the two derived ratios on theirs.
    pub fn rows(&self) -> Vec<(&'static str, String)> {
        let mut rows: Vec<(u8, &'static str, String)> = Self::FIELDS
            .iter()
            .map(|f| (f.rule.1, f.rule.0, (f.get)(self).to_string()))
            .collect();
        let ratio = |x: f64| format!("{x:.2}");
        rows.push((6, "coalescing factor", ratio(self.coalescing_factor())));
        rows.push((15, "reuse ratio", ratio(self.reuse_ratio())));
        rows.sort_by_key(|r| r.0);
        rows.into_iter().map(|(_, label, v)| (label, v)).collect()
    }
}

/// Encodes a [`ServeStats`] snapshot (the body of [`Response::Stats`];
/// also the stats half of the pool's durable WAL snapshot, so cumulative
/// counters survive a front-end restart — a layout change here needs a
/// `SNAPSHOT_VERSION` bump in `durable.rs`).
pub fn encode_stats(w: &mut WireWriter, s: &ServeStats) {
    for f in ServeStats::FIELDS {
        w.u64((f.get)(s));
    }
    w.u32(s.hists.len() as u32);
    for (name, h) in &s.hists {
        w.bytes(name.as_bytes());
        w.u64(h.count());
        w.u64(h.sum());
        w.u64(h.min());
        w.u64(h.max());
        let nz = h.nonzero_indexed();
        w.u32(nz.len() as u32);
        for (i, c) in nz {
            w.u32(i);
            w.u64(c);
        }
    }
}

/// Decodes a [`ServeStats`] snapshot written by [`encode_stats`].
pub fn decode_stats(r: &mut WireReader<'_>) -> Result<ServeStats, WireError> {
    let mut s = ServeStats::default();
    for f in ServeStats::FIELDS {
        *(f.slot)(&mut s) = r.u64()?;
    }
    let nhists = r.u32()? as usize;
    if nhists > r.remaining() {
        return Err(WireError::Invalid("histogram count exceeds body"));
    }
    for _ in 0..nhists {
        let name = String::from_utf8_lossy(r.bytes()?).into_owned();
        let (count, sum, min, max) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
        let nbuckets = r.u32()? as usize;
        if nbuckets > r.remaining() {
            return Err(WireError::Invalid("bucket count exceeds body"));
        }
        let mut nz = Vec::with_capacity(nbuckets);
        for _ in 0..nbuckets {
            let i = r.u32()?;
            let c = r.u64()?;
            nz.push((i, c));
        }
        let h = Histogram::from_wire(count, sum, min, max, &nz)
            .ok_or(WireError::Invalid("inconsistent histogram"))?;
        s.hists.push((name, h));
    }
    Ok(s)
}

/// A daemon response. Every variant that reports results carries the
/// epoch the answer was computed against.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Handshake acknowledgement with the daemon's graph identity.
    Welcome {
        /// Current graph epoch (epochs start at 1).
        epoch: u64,
        /// Vertex count of the resident graph.
        vertices: u64,
        /// Edge count of the resident graph.
        edges: u64,
        /// The server's monotonic trace-epoch clock at reply time
        /// (µs; 0 when the server is not tracing). This is the `t1` of
        /// the Hello round-trip clock-offset estimate.
        now_us: u64,
        /// The server's OS pid, matching the `pid` in its trace export
        /// and flight-recorder dumps.
        pid: u64,
        /// The server's WAL generation (0 = not durable). A pool
        /// front-end reports its own persisted generation; a worker
        /// echoes the highest front-end generation it has accepted.
        generation: u64,
    },
    /// Answer to [`Request::BcScore`].
    BcValue {
        /// Epoch the score belongs to.
        epoch: u64,
        /// The betweenness score (raw IEEE-754 bit-exact).
        score: f64,
    },
    /// Answer to [`Request::TopK`], ranked score-desc then id-asc.
    TopKList {
        /// Epoch the ranking belongs to.
        epoch: u64,
        /// `(vertex, score)` entries.
        entries: Vec<(u32, f64)>,
    },
    /// Answer to [`Request::PathInfo`].
    PathInfo {
        /// Epoch the artifacts belong to.
        epoch: u64,
        /// BFS distance (`u32::MAX` = unreachable).
        dist: u32,
        /// Shortest-path count σ(s, t) (0 when unreachable).
        sigma: f64,
    },
    /// Answer to [`Request::SubsetBc`]: the full per-vertex score vector.
    SubsetBc {
        /// Epoch the scores belong to.
        epoch: u64,
        /// Per-vertex scores accumulated from the requested sources.
        scores: Vec<f64>,
    },
    /// Answer to [`Request::Mutate`].
    Mutated {
        /// Epoch after the mutation (bumped iff `applied`).
        epoch: u64,
        /// False when the mutation was a no-op (edge already in the
        /// requested state).
        applied: bool,
    },
    /// Answer to [`Request::Stats`].
    Stats(ServeStats),
    /// Load shed: the bounded queue is full; retry later.
    Busy {
        /// Jobs queued when the request was refused.
        queued: u32,
        /// Queue capacity.
        capacity: u32,
    },
    /// Epoch pin refused: a mutation invalidated the pinned epoch.
    Stale {
        /// The epoch the client pinned.
        requested: u64,
        /// The daemon's current epoch.
        current: u64,
    },
    /// Structured failure (bad vertex id, malformed request, ...).
    Error {
        /// Human-readable description.
        message: String,
    },
    /// Acknowledges [`Request::Shutdown`]; the connection closes next.
    Bye,
    /// Transient pool-level failure (worker died mid-request, respawn in
    /// flight): the request was *not* answered and should be resent after
    /// the hinted delay. Never emitted by a single-process daemon.
    Retry {
        /// Suggested client wait before resending, in milliseconds.
        after_ms: u32,
    },
    /// Durability lost: the front-end's WAL cannot accept the mutation
    /// (fsync failed or the log is corrupt beyond the snapshot). The
    /// mutation was **not** acknowledged and was not applied durably;
    /// reads keep working, but every further mutation gets this answer
    /// until an operator replaces the log. Maps to CLI exit code 8.
    WalFault {
        /// Human-readable failure description.
        message: String,
    },
}

/// Encodes a request body (unsealed — wrap with [`framing::seal`]).
/// The header is `[tag][id][trace][parent]` for every request.
pub fn encode_request(id: u64, ctx: TraceCtx, req: &Request) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(32);
    let header = |w: &mut WireWriter, tag: u8| {
        w.u8(tag);
        w.u64(id);
        w.u64(ctx.trace);
        w.u64(ctx.parent);
    };
    match req {
        Request::Hello { generation } => {
            header(&mut w, 0);
            framing::write_preamble(&mut w, SERVE_MAGIC, SERVE_VERSION);
            w.u64(*generation);
        }
        Request::BcScore { epoch, v } => {
            header(&mut w, 1);
            w.u64(*epoch);
            w.u32(*v);
        }
        Request::TopK { epoch, k } => {
            header(&mut w, 2);
            w.u64(*epoch);
            w.u32(*k);
        }
        Request::PathInfo { epoch, s, t } => {
            header(&mut w, 3);
            w.u64(*epoch);
            w.u32(*s);
            w.u32(*t);
        }
        Request::SubsetBc { epoch, sources } => {
            header(&mut w, 4);
            w.u64(*epoch);
            w.u32(sources.len() as u32);
            for s in sources {
                w.u32(*s);
            }
        }
        Request::Mutate { op, u, v } => {
            header(&mut w, 5);
            w.u8(op.to_u8());
            w.u32(*u);
            w.u32(*v);
        }
        Request::Stats => {
            header(&mut w, 6);
        }
        Request::Shutdown => {
            header(&mut w, 7);
        }
    }
    w.into_bytes()
}

/// Decodes a request body into `(id, trace_ctx, request)`. A `Hello`
/// with the wrong magic or version fails here, before any state is
/// touched.
pub fn decode_request(body: &[u8]) -> Result<(u64, TraceCtx, Request), WireError> {
    let mut r = WireReader::new(body);
    let tag = r.u8()?;
    let id = r.u64()?;
    let ctx = TraceCtx {
        trace: r.u64()?,
        parent: r.u64()?,
    };
    let req = match tag {
        0 => {
            framing::check_preamble(&mut r, SERVE_MAGIC, SERVE_VERSION)?;
            Request::Hello {
                generation: r.u64()?,
            }
        }
        1 => Request::BcScore {
            epoch: r.u64()?,
            v: r.u32()?,
        },
        2 => Request::TopK {
            epoch: r.u64()?,
            k: r.u32()?,
        },
        3 => Request::PathInfo {
            epoch: r.u64()?,
            s: r.u32()?,
            t: r.u32()?,
        },
        4 => {
            let epoch = r.u64()?;
            let count = r.u32()? as usize;
            if count > body.len() {
                // A count that exceeds even one byte per element is
                // corrupt; fail before allocating.
                return Err(WireError::Invalid("source count exceeds body"));
            }
            let mut sources = Vec::with_capacity(count);
            for _ in 0..count {
                sources.push(r.u32()?);
            }
            Request::SubsetBc { epoch, sources }
        }
        5 => Request::Mutate {
            op: MutateOp::from_u8(r.u8()?)?,
            u: r.u32()?,
            v: r.u32()?,
        },
        6 => Request::Stats,
        7 => Request::Shutdown,
        _ => return Err(WireError::Invalid("unknown request tag")),
    };
    if !r.is_empty() {
        return Err(WireError::Invalid("trailing bytes after request"));
    }
    Ok((id, ctx, req))
}

/// Encodes a response body (unsealed — wrap with [`framing::seal`]).
pub fn encode_response(id: u64, resp: &Response) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(32);
    match resp {
        Response::Welcome {
            epoch,
            vertices,
            edges,
            now_us,
            pid,
            generation,
        } => {
            w.u8(0);
            w.u64(id);
            framing::write_preamble(&mut w, SERVE_MAGIC, SERVE_VERSION);
            w.u64(*epoch);
            w.u64(*vertices);
            w.u64(*edges);
            w.u64(*now_us);
            w.u64(*pid);
            w.u64(*generation);
        }
        Response::BcValue { epoch, score } => {
            w.u8(1);
            w.u64(id);
            w.u64(*epoch);
            w.f64(*score);
        }
        Response::TopKList { epoch, entries } => {
            w.u8(2);
            w.u64(id);
            w.u64(*epoch);
            w.u32(entries.len() as u32);
            for (v, score) in entries {
                w.u32(*v);
                w.f64(*score);
            }
        }
        Response::PathInfo { epoch, dist, sigma } => {
            w.u8(3);
            w.u64(id);
            w.u64(*epoch);
            w.u32(*dist);
            w.f64(*sigma);
        }
        Response::SubsetBc { epoch, scores } => {
            w.u8(4);
            w.u64(id);
            w.u64(*epoch);
            w.u32(scores.len() as u32);
            for s in scores {
                w.f64(*s);
            }
        }
        Response::Mutated { epoch, applied } => {
            w.u8(5);
            w.u64(id);
            w.u64(*epoch);
            w.u8(u8::from(*applied));
        }
        Response::Stats(s) => {
            w.u8(6);
            w.u64(id);
            encode_stats(&mut w, s);
        }
        Response::Busy { queued, capacity } => {
            w.u8(7);
            w.u64(id);
            w.u32(*queued);
            w.u32(*capacity);
        }
        Response::Stale { requested, current } => {
            w.u8(8);
            w.u64(id);
            w.u64(*requested);
            w.u64(*current);
        }
        Response::Error { message } => {
            w.u8(9);
            w.u64(id);
            w.bytes(message.as_bytes());
        }
        Response::Bye => {
            w.u8(10);
            w.u64(id);
        }
        Response::Retry { after_ms } => {
            w.u8(11);
            w.u64(id);
            w.u32(*after_ms);
        }
        Response::WalFault { message } => {
            w.u8(13);
            w.u64(id);
            w.bytes(message.as_bytes());
        }
    }
    w.into_bytes()
}

/// Decodes a response body into `(id, response)`.
pub fn decode_response(body: &[u8]) -> Result<(u64, Response), WireError> {
    let mut r = WireReader::new(body);
    let tag = r.u8()?;
    let id = r.u64()?;
    let resp = match tag {
        0 => {
            framing::check_preamble(&mut r, SERVE_MAGIC, SERVE_VERSION)?;
            Response::Welcome {
                epoch: r.u64()?,
                vertices: r.u64()?,
                edges: r.u64()?,
                now_us: r.u64()?,
                pid: r.u64()?,
                generation: r.u64()?,
            }
        }
        1 => Response::BcValue {
            epoch: r.u64()?,
            score: r.f64()?,
        },
        2 => {
            let epoch = r.u64()?;
            let count = r.u32()? as usize;
            if count > body.len() {
                return Err(WireError::Invalid("entry count exceeds body"));
            }
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let v = r.u32()?;
                let score = r.f64()?;
                entries.push((v, score));
            }
            Response::TopKList { epoch, entries }
        }
        3 => Response::PathInfo {
            epoch: r.u64()?,
            dist: r.u32()?,
            sigma: r.f64()?,
        },
        4 => {
            let epoch = r.u64()?;
            let count = r.u32()? as usize;
            if count > body.len() {
                return Err(WireError::Invalid("score count exceeds body"));
            }
            let mut scores = Vec::with_capacity(count);
            for _ in 0..count {
                scores.push(r.f64()?);
            }
            Response::SubsetBc { epoch, scores }
        }
        5 => Response::Mutated {
            epoch: r.u64()?,
            applied: r.u8()? != 0,
        },
        6 => Response::Stats(decode_stats(&mut r)?),
        7 => Response::Busy {
            queued: r.u32()?,
            capacity: r.u32()?,
        },
        8 => Response::Stale {
            requested: r.u64()?,
            current: r.u64()?,
        },
        9 => Response::Error {
            message: String::from_utf8_lossy(r.bytes()?).into_owned(),
        },
        10 => Response::Bye,
        11 => Response::Retry { after_ms: r.u32()? },
        13 => Response::WalFault {
            message: String::from_utf8_lossy(r.bytes()?).into_owned(),
        },
        _ => return Err(WireError::Invalid("unknown response tag")),
    };
    if !r.is_empty() {
        return Err(WireError::Invalid("trailing bytes after response"));
    }
    Ok((id, resp))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot with every field set, each to a value of its own.
    fn full_stats() -> ServeStats {
        let mut h = Histogram::default();
        h.record(120);
        h.record(90_000);
        ServeStats {
            epoch: 5,
            queries: 10,
            source_queries: 8,
            batches: 2,
            batched_sources: 6,
            busy_rejections: 1,
            stale_rejections: 3,
            mutations: 4,
            sessions: 9,
            queue_depth: 7,
            failover_attempts: 11,
            replay_mutations: 12,
            sources_reused: 120,
            sources_rebuilt: 13,
            hists: vec![
                ("serve.exec_us".to_string(), Histogram::default()),
                ("serve.total_us".to_string(), h),
            ],
        }
    }

    /// `encode_stats(full_stats())` in protocol v6: 14 u64s in wire order,
    /// then the histograms.
    const FULL_STATS_V6: &str = "\
        05000000000000000a000000000000000800000000000000020000000000000006000000000000000100\
        00000000000003000000000000000400000000000000090000000000000007000000000000000b000000\
        000000000c0000000000000078000000000000000d00000000000000020000000d00000073657276652e\
        657865635f75730000000000000000000000000000000000000000000000000000000000000000000000\
        000e00000073657276652e746f74616c5f75730200000000000000086001000000000078000000000000\
        00905f01000000000002000000270000000100000000000000720000000100000000000000";

    #[test]
    fn stats_wire_bytes_are_pinned() {
        let mut w = WireWriter::new();
        encode_stats(&mut w, &full_stats());
        let bytes = w.into_bytes();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, FULL_STATS_V6);
        assert_eq!(SERVE_VERSION, 6, "new bytes need a new version");
        // decode → encode is the identity on them.
        let back = decode_stats(&mut WireReader::new(&bytes)).expect("decode");
        assert_eq!(back, full_stats());
        let mut again = WireWriter::new();
        encode_stats(&mut again, &back);
        assert_eq!(again.into_bytes(), bytes);
    }

    /// Two worker snapshots folded into the front-end's own, then the
    /// persisted base: every field against the rule it declares.
    #[test]
    fn fold_follows_every_declared_rule() {
        let hist = |us: u64| {
            let mut h = Histogram::default();
            h.record(us);
            vec![("serve.total_us".to_string(), h)]
        };
        let own = ServeStats {
            sessions: 3,
            failover_attempts: 2,
            replay_mutations: 5,
            ..ServeStats::default()
        };
        let w0 = ServeStats {
            epoch: 4,
            queries: 10,
            source_queries: 6,
            batches: 3,
            batched_sources: 5,
            busy_rejections: 1,
            stale_rejections: 2,
            mutations: 3,
            sessions: 1, // the front-end's link, not a client
            queue_depth: 2,
            failover_attempts: 9, // not a worker's to report: ignored
            replay_mutations: 9,
            sources_reused: 40,
            sources_rebuilt: 8,
            hists: hist(100),
        };
        let w1 = ServeStats {
            epoch: 3, // lagging one broadcast behind
            queries: 7,
            source_queries: 4,
            batches: 2,
            batched_sources: 4,
            busy_rejections: 0,
            stale_rejections: 1,
            mutations: 2,
            sessions: 1,
            queue_depth: 1,
            failover_attempts: 0,
            replay_mutations: 0,
            sources_reused: 30,
            sources_rebuilt: 6,
            hists: hist(900),
        };
        let mut total = own;
        total.fold(&w0, Across::Workers);
        total.fold(&w1, Across::Workers);
        let pool = ServeStats {
            epoch: 4,
            queries: 17,
            source_queries: 10,
            batches: 5,
            batched_sources: 9,
            busy_rejections: 1,
            stale_rejections: 3,
            mutations: 3,
            sessions: 3,
            queue_depth: 3,
            failover_attempts: 2,
            replay_mutations: 5,
            sources_reused: 40,
            sources_rebuilt: 8,
            hists: total.hists.clone(),
        };
        assert_eq!(total, pool);
        assert_eq!(total.hist("serve.total_us").map(Histogram::count), Some(2));

        let base = ServeStats {
            epoch: 9, // a base ahead of freshly respawned workers
            queries: 100,
            source_queries: 50,
            batches: 20,
            batched_sources: 30,
            busy_rejections: 4,
            stale_rejections: 5,
            mutations: 8,
            sessions: 12,
            queue_depth: 6, // a reading from before the restart: stale
            failover_attempts: 1,
            replay_mutations: 7,
            sources_reused: 10,
            sources_rebuilt: 90,
            hists: hist(50),
        };
        total.fold(&base, Across::Restarts);
        let cumulative = ServeStats {
            epoch: 9,
            queries: 117,
            source_queries: 60,
            batches: 25,
            batched_sources: 39,
            busy_rejections: 5,
            stale_rejections: 8,
            mutations: 8,
            sessions: 15,
            queue_depth: 3,
            failover_attempts: 3,
            replay_mutations: 12,
            sources_reused: 40,
            sources_rebuilt: 90,
            hists: total.hists.clone(),
        };
        assert_eq!(total, cumulative);
        assert_eq!(total.hist("serve.total_us").map(Histogram::count), Some(3));
    }

    /// README's `Stats` rows are the table's: name, kind (a field that
    /// keeps nothing across a restart is an instantaneous reading), doc
    /// comment. Paste the printed block over the stale rows.
    #[test]
    fn readme_lists_every_stats_field() {
        let mut rows = String::new();
        for f in ServeStats::FIELDS {
            let kind = match f.rule.2[Across::Restarts as usize] {
                Fold::Keep => "gauge",
                Fold::Max | Fold::Sum => "counter",
            };
            rows += &format!("| `{}` | {kind} (Stats) | {} |\n", f.name, f.doc.trim());
        }
        let readme = include_str!("../../../README.md");
        assert!(
            readme.contains(&rows),
            "README.md's Stats rows should read:\n{rows}"
        );
    }

    #[test]
    fn every_request_roundtrips() {
        let reqs = [
            Request::Hello { generation: 0 },
            Request::Hello { generation: 7 },
            Request::BcScore { epoch: 3, v: 17 },
            Request::TopK { epoch: 0, k: 10 },
            Request::PathInfo {
                epoch: 9,
                s: 1,
                t: 2,
            },
            Request::SubsetBc {
                epoch: 1,
                sources: vec![5, 5, 2, 0],
            },
            Request::Mutate {
                op: MutateOp::AddEdge,
                u: 3,
                v: 4,
            },
            Request::Mutate {
                op: MutateOp::RemoveEdge,
                u: 4,
                v: 3,
            },
            Request::Stats,
            Request::Shutdown,
        ];
        for (i, req) in reqs.iter().enumerate() {
            let id = 1000 + i as u64;
            let (rid, ctx, back) =
                decode_request(&encode_request(id, TraceCtx::NONE, req)).expect("roundtrip");
            assert_eq!(rid, id);
            assert_eq!(ctx, TraceCtx::NONE);
            assert!(!ctx.is_set());
            assert_eq!(&back, req);
            // The trace-context header rides every request unchanged.
            let tagged = TraceCtx {
                trace: 0xdead_beef,
                parent: 42,
            };
            let (_, ctx2, back2) =
                decode_request(&encode_request(id, tagged, req)).expect("roundtrip");
            assert_eq!(ctx2, tagged);
            assert!(ctx2.is_set());
            assert_eq!(&back2, req);
        }
    }

    #[test]
    fn trace_ctx_derivation() {
        let root = TraceCtx::root();
        assert!(root.is_set());
        assert_eq!(root.parent, 0);
        let hop = root.child(77);
        assert_eq!(hop.trace, root.trace);
        assert_eq!(hop.parent, 77);
    }

    #[test]
    fn every_response_roundtrips() {
        let resps = [
            Response::Welcome {
                epoch: 1,
                vertices: 100,
                edges: 500,
                now_us: 123_456,
                pid: 9876,
                generation: 3,
            },
            Response::BcValue {
                epoch: 2,
                score: -0.0, // signed zero must survive bit-exactly
            },
            Response::TopKList {
                epoch: 2,
                entries: vec![(7, 3.25), (1, 3.25), (0, 0.5)],
            },
            Response::PathInfo {
                epoch: 3,
                dist: u32::MAX,
                sigma: 0.0,
            },
            Response::SubsetBc {
                epoch: 4,
                scores: vec![0.0, 1.5, 2.75],
            },
            Response::Mutated {
                epoch: 5,
                applied: true,
            },
            Response::Stats(full_stats()),
            Response::Busy {
                queued: 64,
                capacity: 64,
            },
            Response::Stale {
                requested: 1,
                current: 2,
            },
            Response::Error {
                message: "vertex out of range".into(),
            },
            Response::Bye,
            Response::Retry { after_ms: 250 },
            Response::WalFault {
                message: "wal fsync failed: injected".into(),
            },
        ];
        for (i, resp) in resps.iter().enumerate() {
            let id = i as u64;
            let (rid, back) = decode_response(&encode_response(id, resp)).expect("roundtrip");
            assert_eq!(rid, id);
            assert_eq!(&back, resp);
        }
    }

    #[test]
    fn bit_exact_scores_survive_the_wire() {
        let score = 1.000_000_000_000_000_2_f64;
        let (_, back) =
            decode_response(&encode_response(0, &Response::BcValue { epoch: 1, score }))
                .expect("decode");
        let Response::BcValue { score: got, .. } = back else {
            panic!("wrong variant");
        };
        assert_eq!(got.to_bits(), score.to_bits());
    }

    #[test]
    fn corrupt_tags_and_preambles_are_rejected() {
        assert!(decode_request(&[99, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        assert!(decode_response(&[99, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        // Hello with a foreign magic (the preamble starts after the
        // 25-byte tag + id + trace-context header).
        let mut hello = encode_request(1, TraceCtx::NONE, &Request::Hello { generation: 0 });
        hello[25] ^= 0xFF;
        assert!(decode_request(&hello).is_err());
        // Trailing garbage.
        let mut stats = encode_request(1, TraceCtx::NONE, &Request::Stats);
        stats.push(0);
        assert!(decode_request(&stats).is_err());
        // An insane element count must not allocate.
        let mut w = WireWriter::new();
        w.u8(4);
        w.u64(1);
        w.u64(0);
        w.u64(0);
        w.u64(0);
        w.u32(u32::MAX);
        assert!(decode_request(&w.into_bytes()).is_err());
    }

    /// Tag 12 carried `Partial` up to v5; it is retired, not reused.
    #[test]
    fn the_retired_partial_tag_is_unknown() {
        let mut w = WireWriter::new();
        w.u8(12);
        w.u64(1);
        w.u64(6);
        w.u32(0);
        w.u32(0);
        assert_eq!(
            decode_response(&w.into_bytes()),
            Err(WireError::Invalid("unknown response tag"))
        );
    }

    #[test]
    fn inconsistent_stats_histogram_is_rejected() {
        let mut h = Histogram::default();
        h.record(5);
        let mut body = encode_response(
            3,
            &Response::Stats(ServeStats {
                hists: vec![("h".to_string(), h)],
                ..ServeStats::default()
            }),
        );
        // Corrupt the final bucket count (last 8 bytes, little-endian):
        // the decoder must notice buckets no longer sum to `count`.
        let n = body.len();
        body[n - 8] ^= 0xFF;
        assert!(decode_response(&body).is_err());
    }

    #[test]
    fn pool_aggregation_merges_histograms_by_name() {
        let mut w0 = ServeStats::default();
        let mut h0 = Histogram::default();
        h0.record(100);
        w0.hists.push(("serve.total_us".to_string(), h0));
        let mut w1 = ServeStats::default();
        let mut h1 = Histogram::default();
        h1.record(900);
        w1.hists.push(("serve.total_us".to_string(), h1.clone()));
        w1.hists.push(("serve.queue_us".to_string(), h1));
        let mut agg = w0.clone();
        agg.merge_hists(&w1);
        assert_eq!(agg.hist("serve.total_us").map(Histogram::count), Some(2));
        assert_eq!(agg.hist("serve.queue_us").map(Histogram::count), Some(1));
        // Sorted by name for deterministic encoding.
        assert_eq!(agg.hists[0].0, "serve.queue_us");
    }

    #[test]
    fn source_scoped_classification() {
        assert!(Request::PathInfo {
            epoch: 0,
            s: 0,
            t: 1
        }
        .is_source_scoped());
        assert!(Request::SubsetBc {
            epoch: 0,
            sources: vec![]
        }
        .is_source_scoped());
        assert!(!Request::BcScore { epoch: 0, v: 0 }.is_source_scoped());
        assert!(!Request::Stats.is_source_scoped());
        assert_eq!(Request::TopK { epoch: 7, k: 1 }.epoch_pin(), 7);
        assert_eq!(Request::Stats.epoch_pin(), 0);
    }

    #[test]
    fn coalescing_factor_definition() {
        let mut s = ServeStats::default();
        assert_eq!(s.coalescing_factor(), 1.0);
        s.source_queries = 8;
        s.batches = 2;
        assert_eq!(s.coalescing_factor(), 4.0);
    }
}
