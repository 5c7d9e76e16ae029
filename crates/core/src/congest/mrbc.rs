//! Min-Rounds BC in the CONGEST model: Algorithms 3, 4 and 5 of the paper.
//!
//! # Algorithm 3 — `Directed-APSP`
//!
//! Every vertex `v` maintains a lexicographically sorted list `L_v` of
//! `(d_sv, s)` pairs. The pipelining discipline is: the pair at (1-based)
//! position `ℓ` is sent to `Γ_out(v)` exactly in round `r = d_sv + ℓ`,
//! evaluated against the state of `L_v` at the *beginning* of round `r`
//! (the paper's `ℓ_v^{(r)}`); the σ value transmitted reflects messages
//! received up to and including round `r` (CONGEST processes receives
//! before sends). Since `d` is non-decreasing along the list, `d_i + i`
//! is strictly increasing, so at most one entry matches any round.
//!
//! `L_v` is not stored as a list: it is the finite entries of `v`'s row
//! of `dist`, in `(distance, source)` order. The `SendSchedule` this
//! engine shares with `dist::mrbc` keeps `v`'s sent count and a min-heap
//! of its unsent labels, and answers "what does `v` send in round `r`"
//! in `O(1)` instead of by sorting the row.
//!
//! # Algorithm 4 — `APSP-Finalizer`
//!
//! For strongly connected graphs, a BFS tree over `U_G` rooted at the
//! smallest-id vertex is built in-band (Step 1), the vertex count `n` is
//! computed by a convergecast when unknown (Steps 5–6), each vertex's
//! maximum finite distance `d*_v` is convergecast to the root once its
//! list is complete and fully sent, and the root broadcasts the directed
//! diameter `D` back down, letting every vertex halt after
//! `min(2n, n + 5D)` rounds (Lemma 6).
//!
//! # Algorithm 5 — accumulation by reverse timestamps
//!
//! With `R` the forward-phase termination round and `τ_sv` the round in
//! which `v` sent `(d_sv, s, σ_sv)`, vertex `v` sends its dependency
//! message `(1 + δ_s•(v)) / σ_sv` to its predecessors `P_s(v)` exactly in
//! round `A_sv = R − τ_sv`. Because successors have strictly larger `τ`,
//! all their contributions arrive by `A_sv` (Lemma 7), and because the
//! `A_sv` are distinct per source, at most one message per round leaves
//! each vertex — the forward pipelining replayed in reverse.

use crate::schedule::SendSchedule;
use mrbc_congest::{Engine, Outbox, RunOutcome, RunStats, Target, VertexProgram};
use mrbc_graph::{CsrGraph, VertexId, INF_DIST};

/// How the forward phase terminates (Theorem 1's three cases plus the
/// practical Lemma 8 mode).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TerminationMode {
    /// Run exactly `2n` rounds (Theorem 1, part I.2: at most `mn`
    /// messages, no finalizer machinery). Requires `sources` = all
    /// vertices for the bound to be meaningful, but works for any subset.
    FixedTwoN,
    /// Algorithm 4: build the BFS tree, compute `n` in-band (as if
    /// unknown), convergecast `d*`, broadcast the diameter, halt at
    /// `min(2n, n + 5D)` rounds. Requires a strongly connected graph and
    /// all-vertex sources.
    Finalizer,
    /// Lemma 8: the runtime detects global termination (as D-Galois
    /// does), so `k`-source BC needs no finalizer and stops after at most
    /// `k + H` forward rounds.
    GlobalDetection,
}

/// Precision of the shortest-path counts carried in messages.
///
/// Section 3.1: "In the case when exponential numbers of shortest paths
/// exist in the graph, we can use the approximation technique introduced
/// in `[31]` which uses only O(log n)-size messages and computes a provably
/// good approximation of the BC values." Section 5.2 is the flip side:
/// the implementation uses "double-precision floating point values for
/// shortest path counts (otherwise, the results may be incorrect due to
/// overflow)". [`SigmaPrecision::Single`] quantizes every transmitted σ
/// to a 32-bit float — halving the σ payload exactly as the log-size
/// technique intends — and the test suite measures the resulting BC error
/// staying proportionally small.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SigmaPrecision {
    /// 64-bit σ in every message (the paper's evaluation setting).
    #[default]
    Double,
    /// 32-bit σ in every message (the log-size-message approximation).
    Single,
}

impl SigmaPrecision {
    fn quantize(self, sigma: f64) -> f64 {
        match self {
            SigmaPrecision::Double => sigma,
            SigmaPrecision::Single => sigma as f32 as f64,
        }
    }

    fn bits(self) -> u64 {
        match self {
            SigmaPrecision::Double => 64,
            SigmaPrecision::Single => 32,
        }
    }
}

/// Outcome of a CONGEST MRBC run.
#[derive(Clone, Debug)]
pub struct MrbcOutcome {
    /// Betweenness scores restricted to the requested sources.
    pub bc: Vec<f64>,
    /// `dist[j][v]`: shortest distance from `sources_sorted[j]` to `v`.
    pub dist: Vec<Vec<u32>>,
    /// `sigma[j][v]`: number of shortest paths from `sources_sorted[j]`.
    pub sigma: Vec<Vec<f64>>,
    /// `tau[j][v]`: 1-based forward round in which `v` sent its pair for
    /// `sources_sorted[j]` (`u32::MAX` when `v` is unreachable). These
    /// are the reverse timestamps that drive the `A_sv = R − τ_sv + 1`
    /// accumulation schedule of Algorithm 5.
    pub tau: Vec<Vec<u32>>,
    /// The sources in the (ascending) order used for `dist` / `sigma`.
    pub sources_sorted: Vec<VertexId>,
    /// Forward-phase (APSP) round/message counters.
    pub forward: RunStats,
    /// Accumulation-phase counters.
    pub backward: RunStats,
    /// Directed diameter computed by Algorithm 4 (Finalizer mode only).
    pub diameter: Option<u32>,
}

/// Runs MRBC end to end: Algorithm 3 (+4 if requested) then Algorithm 5.
///
/// `sources` may be any subset of vertices (duplicates are removed); they
/// are processed in ascending id order, which fixes the lexicographic
/// tiebreak of `L_v` without affecting any result.
pub fn mrbc_bc(g: &CsrGraph, sources: &[VertexId], mode: TerminationMode) -> MrbcOutcome {
    mrbc_bc_with_precision(g, sources, mode, SigmaPrecision::Double)
}

/// [`mrbc_bc`] with an explicit σ message precision (see
/// [`SigmaPrecision`]).
pub fn mrbc_bc_with_precision(
    g: &CsrGraph,
    sources: &[VertexId],
    mode: TerminationMode,
    precision: SigmaPrecision,
) -> MrbcOutcome {
    let n = g.num_vertices();
    let mut sources_sorted: Vec<VertexId> = sources.to_vec();
    sources_sorted.sort_unstable();
    sources_sorted.dedup();
    assert!(
        sources_sorted.iter().all(|&s| (s as usize) < n),
        "source out of range"
    );
    if mode == TerminationMode::Finalizer {
        assert_eq!(
            sources_sorted.len(),
            n,
            "Finalizer mode is defined for full APSP (all vertices as sources)"
        );
    }

    let engine = Engine::new(g);
    let mut fwd = Forward::new(g, &sources_sorted, mode, precision);
    let two_n = 2 * n as u32;
    let fwd_span = mrbc_obs::span("mrbc.forward", mrbc_congest::Phase::Forward.as_str())
        .arg("n", n as u64)
        .arg("k", sources_sorted.len() as u64);
    let mut forward_stats = match mode {
        TerminationMode::FixedTwoN => engine.run_rounds(&mut fwd, two_n.max(1)),
        // The finalizer halts every vertex once the diameter arrives; the
        // 2n cap of Step 7 still applies as the safety bound.
        TerminationMode::Finalizer => engine.run_until_quiescent(&mut fwd, two_n.max(1)),
        // Lemma 8: k + H + slack always fits inside 2n + k rounds.
        TerminationMode::GlobalDetection => {
            engine.run_until_quiescent(&mut fwd, two_n + sources_sorted.len() as u32 + 2)
        }
    };
    match mode {
        // With the watchdog outcome on RunStats, a budget overrun is
        // loud: under global detection it would mean the Lemma 8 round
        // bound does not hold.
        TerminationMode::GlobalDetection => assert!(
            forward_stats.outcome.converged(),
            "forward phase exhausted its round budget without quiescing: {forward_stats:?}"
        ),
        // Step 7's 2n cap is part of the Finalizer algorithm: every
        // vertex halts there by schedule, so reaching it is a planned
        // stop, not a watchdog violation.
        TerminationMode::Finalizer => forward_stats.outcome = RunOutcome::Converged,
        TerminationMode::FixedTwoN => {}
    }
    drop(fwd_span);

    let diameter = fwd.fin.as_ref().and_then(|f| f.diameter[0]);

    // ---- Algorithm 5: accumulation. ----
    let r_term = forward_stats.rounds;
    let mut bwd = Backward::new(g, fwd, r_term);
    // Every send happens at A_sv = R - τ_sv + 1 ∈ [1, R + 1]; one extra
    // round delivers the last messages.
    let bwd_span = mrbc_obs::span("mrbc.backward", mrbc_congest::Phase::Accumulation.as_str())
        .arg("r_term", r_term as u64);
    let backward_stats = engine.run_until_quiescent(&mut bwd, r_term + 2);
    drop(bwd_span);
    assert!(
        backward_stats.outcome.converged(),
        "accumulation exceeded its A_sv ≤ R + 1 schedule: {backward_stats:?}"
    );

    let k = sources_sorted.len();
    let mut bc = vec![0.0f64; n];
    let mut dist = vec![vec![INF_DIST; n]; k];
    let mut sigma = vec![vec![0.0f64; n]; k];
    let mut tau = vec![vec![u32::MAX; n]; k];
    for v in 0..n {
        for j in 0..k {
            dist[j][v] = bwd.dist[v][j];
            sigma[j][v] = bwd.sigma[v][j];
            tau[j][v] = bwd.tau[v][j];
            if sources_sorted[j] as usize != v {
                bc[v] += bwd.delta[v][j];
            }
        }
    }

    let out = MrbcOutcome {
        bc,
        dist,
        sigma,
        tau,
        sources_sorted,
        forward: forward_stats,
        backward: backward_stats,
        diameter,
    };
    if mrbc_obs::probes_enabled() {
        crate::probes::check_congest_run(g, &out, mode).record();
    }
    out
}

/// Runs only the forward phase — the paper's standalone directed APSP
/// (Theorem 1, part I). Returns distances, shortest-path counts, round
/// and message counters, and the diameter when Algorithm 4 ran.
pub fn directed_apsp(g: &CsrGraph, sources: &[VertexId], mode: TerminationMode) -> MrbcOutcome {
    // APSP is BC minus the accumulation phase; reuse the driver but report
    // only what the forward phase produced. Backward stats of a pure APSP
    // run are zeroed for clarity.
    let mut out = mrbc_bc(g, sources, mode);
    out.bc.fill(0.0);
    out.backward = RunStats::default();
    out
}

// ---------------------------------------------------------------------
// Forward phase (Algorithms 3 + 4)
// ---------------------------------------------------------------------

/// Messages of the forward phase. `Apsp` is the Algorithm 3 payload; the
/// rest belong to Algorithm 4's tree machinery.
#[derive(Clone, Debug)]
enum FwdMsg {
    /// `(d_sv, s, σ_sv)` with `s` as an index into the sorted source set.
    Apsp { j: u32, d: u32, sigma: f64 },
    /// BFS-tree exploration wave (Step 1).
    Explore,
    /// "You are my parent" notification.
    Child,
    /// Subtree vertex count convergecast (computing `n`, Step 6).
    Count(u64),
    /// `n` broadcast down the tree.
    NValue(u64),
    /// `d*` convergecast (Steps 4 & 8 of Algorithm 4).
    DistStar(u32),
    /// Diameter broadcast (Steps 1 & 9 of Algorithm 4).
    Diameter(u32),
}

/// Algorithm 4 per-vertex state.
struct FinState {
    parent: Vec<VertexId>,
    children: Vec<Vec<VertexId>>,
    /// Round in which the vertex joined the tree and re-broadcast
    /// `Explore`; children notifications arrive by `visited_round + 2`.
    visited_round: Vec<u32>,
    counts_received: Vec<u32>,
    count_acc: Vec<u64>,
    count_sent: Vec<bool>,
    known_n: Vec<Option<u64>>,
    dstar_received: Vec<u32>,
    dstar_acc: Vec<u32>,
    /// The flag `f_v` of Algorithm 4.
    fv: Vec<bool>,
    diameter: Vec<Option<u32>>,
    halted: Vec<bool>,
}

impl FinState {
    fn new(n: usize) -> Self {
        Self {
            parent: vec![VertexId::MAX; n],
            children: vec![Vec::new(); n],
            visited_round: vec![u32::MAX; n],
            counts_received: vec![0; n],
            count_acc: vec![1; n],
            count_sent: vec![false; n],
            known_n: vec![None; n],
            dstar_received: vec![0; n],
            dstar_acc: vec![0; n],
            fv: vec![false; n],
            diameter: vec![None; n],
            halted: vec![false; n],
        }
    }

    fn children_final(&self, v: usize, round: u32) -> bool {
        self.visited_round[v] != u32::MAX && round >= self.visited_round[v].saturating_add(2)
    }
}

struct Forward {
    k: usize,
    mode: TerminationMode,
    /// Per vertex, per source: current distance (INF if absent from L_v).
    dist: Vec<Vec<u32>>,
    sigma: Vec<Vec<f64>>,
    /// Predecessor sets `P_s(v)` (vertex ids of in-neighbors).
    preds: Vec<Vec<Vec<VertexId>>>,
    /// Send timestamps `τ_sv` (u32::MAX = not sent).
    tau: Vec<Vec<u32>>,
    /// The send calendar of every `L_v` (whose labels are the finite
    /// entries of `dist[v]`): which entry each vertex sends next, and
    /// when.
    schedule: SendSchedule,
    fin: Option<FinState>,
    precision: SigmaPrecision,
}

impl Forward {
    fn new(
        g: &CsrGraph,
        sources: &[VertexId],
        mode: TerminationMode,
        precision: SigmaPrecision,
    ) -> Self {
        let n = g.num_vertices();
        let k = sources.len();
        let mut fwd = Self {
            k,
            mode,
            dist: vec![vec![INF_DIST; k]; n],
            sigma: vec![vec![0.0; k]; n],
            preds: vec![vec![Vec::new(); k]; n],
            tau: vec![vec![u32::MAX; k]; n],
            schedule: SendSchedule::new(n, k),
            fin: (mode == TerminationMode::Finalizer).then(|| FinState::new(n)),
            precision,
        };
        // Step 3: initialize L_v = ((0, v)) at each source.
        for (j, &s) in sources.iter().enumerate() {
            let v = s as usize;
            fwd.dist[v][j] = 0;
            fwd.sigma[v][j] = 1.0;
            fwd.schedule.insert(v, j as u32, 0);
        }
        fwd
    }

    /// Steps 11–17: merge a received `(d_su + 1, s, σ_su)` into `L_v`.
    fn receive_apsp(&mut self, v: usize, from: VertexId, j: u32, d_new: u32, sigma_u: f64) {
        let ji = j as usize;
        let cur = self.dist[v][ji];
        if cur == INF_DIST {
            // Steps 12–13: new source entry.
            self.dist[v][ji] = d_new;
            self.sigma[v][ji] = sigma_u;
            self.schedule.insert(v, j, d_new);
            self.preds[v][ji].push(from);
        } else if cur == d_new {
            // Steps 14–15: additional shortest paths.
            debug_assert_eq!(
                self.tau[v][ji],
                u32::MAX,
                "σ update for an already-sent entry (Lemma 5 violated)"
            );
            self.sigma[v][ji] += sigma_u;
            self.preds[v][ji].push(from);
        } else if cur > d_new {
            // Steps 16–17: strictly better distance replaces the entry.
            debug_assert_eq!(
                self.tau[v][ji],
                u32::MAX,
                "distance improved after send (Lemma 4 violated)"
            );
            self.dist[v][ji] = d_new;
            self.sigma[v][ji] = sigma_u;
            self.schedule.improve(v, j, cur, d_new);
            self.preds[v][ji].clear();
            self.preds[v][ji].push(from);
        }
        // cur < d_new: stale message, ignored.
    }

    /// Algorithm 4 actions for vertex `v` in `round`, after receives.
    fn finalizer_step(&mut self, v: usize, round: u32, out: &mut Outbox<FwdMsg>) {
        let list_complete = {
            // lint: allow(unwrap): finalizer_step is only called when fin was constructed
            let fin = self.fin.as_ref().expect("finalizer mode");
            if fin.halted[v] {
                return;
            }
            match fin.known_n[v] {
                // The `|L_v^r| = n` check, on a fully sent list.
                Some(nv) => {
                    u64::from(self.schedule.labels(v)) == nv && self.schedule.pending(v) == 0
                }
                None => false,
            }
        };
        let d_star_v = self.dist[v]
            .iter()
            .copied()
            .filter(|&d| d != INF_DIST)
            .max()
            .unwrap_or(0);
        // lint: allow(unwrap): finalizer_step is only called when fin was constructed
        let fin = self.fin.as_mut().expect("finalizer mode");

        // Subtree-count convergecast for computing n (the root starts the
        // NValue broadcast once every child reported).
        if !fin.count_sent[v]
            && fin.children_final(v, round)
            && fin.counts_received[v] as usize == fin.children[v].len()
        {
            fin.count_sent[v] = true;
            if v == 0 {
                let n_val = fin.count_acc[0];
                fin.known_n[0] = Some(n_val);
                for &c in &fin.children[0] {
                    out.send(Target::Neighbor(c), FwdMsg::NValue(n_val));
                }
            } else {
                let parent = fin.parent[v];
                out.send(Target::Neighbor(parent), FwdMsg::Count(fin.count_acc[v]));
            }
        }

        // Steps 2–9: d* convergecast once L_v is complete and fully sent.
        if list_complete
            && !fin.fv[v]
            && fin.children_final(v, round)
            && fin.dstar_received[v] as usize == fin.children[v].len()
        {
            let combined = d_star_v.max(fin.dstar_acc[v]);
            fin.fv[v] = true;
            if v == 0 {
                // Step 9: v1 computes D and broadcasts it.
                fin.diameter[0] = Some(combined);
                fin.halted[0] = true;
                for &c in &fin.children[0] {
                    out.send(Target::Neighbor(c), FwdMsg::Diameter(combined));
                }
            } else {
                let parent = fin.parent[v];
                out.send(Target::Neighbor(parent), FwdMsg::DistStar(combined));
            }
        }
    }
}

impl VertexProgram for Forward {
    type Msg = FwdMsg;

    fn message_bits(&self, msg: &FwdMsg) -> u64 {
        // O(B) bits: ids/distances fit in 32 bits for our graph sizes; σ
        // uses a 64-bit float as in the D-Galois implementation.
        match msg {
            FwdMsg::Apsp { .. } => 32 + 32 + self.precision.bits(),
            FwdMsg::Explore | FwdMsg::Child => 8,
            FwdMsg::Count(_) | FwdMsg::NValue(_) => 64,
            FwdMsg::DistStar(_) | FwdMsg::Diameter(_) => 32,
        }
    }

    fn round(
        &mut self,
        v: VertexId,
        round: u32,
        inbox: &[(VertexId, FwdMsg)],
        out: &mut Outbox<FwdMsg>,
    ) {
        let vi = v as usize;

        // Steps 11–17 plus Algorithm 4 message handling. Receives are
        // processed first: `L_v^{(r)}` — the state Step 8's condition is
        // evaluated against — includes the messages that arrived at the
        // beginning of round `r`. (Lemma 2 guarantees a newly inserted
        // entry satisfies `d + ℓ ≥ r + 1`, i.e. it is due no earlier than
        // the round right after its insertion, so receive-then-send is
        // exactly the schedule the lemmas reason about.)
        for (from, msg) in inbox {
            match msg {
                FwdMsg::Apsp { j, d, sigma } => {
                    self.receive_apsp(vi, *from, *j, d + 1, *sigma);
                }
                FwdMsg::Explore => {
                    if let Some(fin) = self.fin.as_mut() {
                        if fin.parent[vi] == VertexId::MAX && vi != 0 {
                            fin.parent[vi] = *from;
                            fin.visited_round[vi] = round;
                            out.send(Target::Neighbor(*from), FwdMsg::Child);
                            out.send(Target::AllNeighbors, FwdMsg::Explore);
                        }
                    }
                }
                FwdMsg::Child => {
                    if let Some(fin) = self.fin.as_mut() {
                        fin.children[vi].push(*from);
                    }
                }
                FwdMsg::Count(c) => {
                    if let Some(fin) = self.fin.as_mut() {
                        fin.count_acc[vi] += c;
                        fin.counts_received[vi] += 1;
                    }
                }
                FwdMsg::NValue(nv) => {
                    if let Some(fin) = self.fin.as_mut() {
                        fin.known_n[vi] = Some(*nv);
                        for c in fin.children[vi].clone() {
                            out.send(Target::Neighbor(c), FwdMsg::NValue(*nv));
                        }
                    }
                }
                FwdMsg::DistStar(d) => {
                    if let Some(fin) = self.fin.as_mut() {
                        fin.dstar_acc[vi] = fin.dstar_acc[vi].max(*d);
                        fin.dstar_received[vi] += 1;
                    }
                }
                FwdMsg::Diameter(dd) => {
                    if let Some(fin) = self.fin.as_mut() {
                        // Step 1 of Algorithm 4: record, forward, stop.
                        fin.diameter[vi] = Some(*dd);
                        fin.halted[vi] = true;
                        for c in fin.children[vi].clone() {
                            out.send(Target::Neighbor(c), FwdMsg::Diameter(*dd));
                        }
                    }
                }
            }
        }

        // Step 8: send the unique entry scheduled for this round, with the
        // σ value reflecting all receives processed so far.
        if let Some((j, d)) = self.schedule.due(vi, round, &self.dist[vi]) {
            let ji = j as usize;
            debug_assert_eq!(
                self.dist[vi][ji], d,
                "scheduled entry changed in its send round"
            );
            debug_assert_eq!(self.tau[vi][ji], u32::MAX, "double send for one source");
            self.tau[vi][ji] = round;
            self.schedule.mark_sent(vi);
            out.send(
                Target::OutNeighbors,
                FwdMsg::Apsp {
                    j,
                    d,
                    sigma: self.precision.quantize(self.sigma[vi][ji]),
                },
            );
        }

        // Algorithm 4 runs in parallel with the main loop (Step 1).
        if self.fin.is_some() {
            if round == 1 && vi == 0 {
                // lint: allow(unwrap): guarded by the is_some() check just above
                let fin = self.fin.as_mut().expect("checked");
                fin.parent[0] = 0;
                fin.visited_round[0] = round;
                out.send(Target::AllNeighbors, FwdMsg::Explore);
            }
            self.finalizer_step(vi, round, out);
        }
    }

    fn wants_round(&self, v: VertexId, round: u32) -> bool {
        match self.mode {
            // Finalizer vertices stay active until they halt.
            TerminationMode::Finalizer => {
                // lint: allow(unwrap): Finalizer mode always constructs fin
                !self.fin.as_ref().expect("finalizer mode").halted[v as usize]
            }
            _ => {
                let v = v as usize;
                self.schedule.due(v, round, &self.dist[v]).is_some()
            }
        }
    }

    fn is_quiescent(&self, v: VertexId) -> bool {
        let vi = v as usize;
        match self.mode {
            // lint: allow(unwrap): Finalizer mode always constructs fin
            TerminationMode::Finalizer => self.fin.as_ref().expect("finalizer mode").halted[vi],
            _ => self.schedule.pending(vi) == 0,
        }
    }

    fn phase(&self) -> mrbc_congest::Phase {
        // Algorithm 4 machinery runs interleaved with Algorithm 3; tag
        // the run as Finalizer only when it is actually present so the
        // timeline distinguishes the two termination strategies.
        if self.fin.is_some() {
            mrbc_congest::Phase::Finalizer
        } else {
            mrbc_congest::Phase::Forward
        }
    }

    fn message_class(&self, msg: &FwdMsg) -> mrbc_congest::MessageClass {
        match msg {
            FwdMsg::Apsp { .. } => mrbc_congest::MessageClass::DistancePair,
            // Everything else is Algorithm 4 termination-detection
            // machinery (tree building, counts, d*, diameter).
            _ => mrbc_congest::MessageClass::Termination,
        }
    }
}

// ---------------------------------------------------------------------
// Backward phase (Algorithm 5)
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
struct AccMsg {
    j: u32,
    /// `(1 + δ_s•(w)) / σ_sw` from successor `w`.
    m: f64,
}

struct Backward {
    precision: SigmaPrecision,
    dist: Vec<Vec<u32>>,
    sigma: Vec<Vec<f64>>,
    /// `tau[v][j]` carried over from the forward phase so the outcome
    /// can report the send timestamps alongside `dist` / `sigma`.
    tau: Vec<Vec<u32>>,
    delta: Vec<Vec<f64>>,
    preds: Vec<Vec<Vec<VertexId>>>,
    /// Per vertex: `(A_sv, j)` pairs sorted ascending by send round.
    agenda: Vec<Vec<(u32, u32)>>,
    /// Cursor into `agenda` (everything before it has been sent).
    cursor: Vec<usize>,
}

impl Backward {
    fn new(g: &CsrGraph, fwd: Forward, r_term: u32) -> Self {
        let n = g.num_vertices();
        let k = fwd.k;
        let mut agenda: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for (taus, slots) in fwd.tau.iter().zip(agenda.iter_mut()) {
            for (j, &tau) in taus.iter().enumerate() {
                if tau != u32::MAX {
                    // Engine rounds are 1-based: A_sv = R − τ_sv + 1 ≥ 1.
                    slots.push((r_term - tau + 1, j as u32));
                }
            }
            slots.sort_unstable();
            // τ values are distinct per vertex, hence so are the A_sv
            // (the "only one message per round" guarantee of Lemma 7).
            debug_assert!(slots.windows(2).all(|w| w[0].0 < w[1].0));
        }
        Self {
            precision: fwd.precision,
            dist: fwd.dist,
            sigma: fwd.sigma,
            tau: fwd.tau,
            delta: vec![vec![0.0; k]; n],
            preds: fwd.preds,
            agenda,
            cursor: vec![0; n],
        }
    }
}

impl VertexProgram for Backward {
    type Msg = AccMsg;

    fn message_bits(&self, _: &AccMsg) -> u64 {
        32 + self.precision.bits()
    }

    fn round(
        &mut self,
        v: VertexId,
        round: u32,
        inbox: &[(VertexId, AccMsg)],
        out: &mut Outbox<AccMsg>,
    ) {
        let vi = v as usize;
        // Receives first: a successor with A_sw = A_sv − 1 delivers its
        // contribution exactly in round A_sv.
        for (_, msg) in inbox {
            let j = msg.j as usize;
            self.delta[vi][j] += self.sigma[vi][j] * msg.m;
        }
        // Step 7: send the unique message scheduled for this round.
        while self.cursor[vi] < self.agenda[vi].len() {
            let (a, j) = self.agenda[vi][self.cursor[vi]];
            if a > round {
                break;
            }
            debug_assert_eq!(a, round, "missed an accumulation slot");
            self.cursor[vi] += 1;
            let ji = j as usize;
            if !self.preds[vi][ji].is_empty() {
                let m = self
                    .precision
                    .quantize((1.0 + self.delta[vi][ji]) / self.sigma[vi][ji]);
                out.send(
                    Target::Neighbors(self.preds[vi][ji].clone()),
                    AccMsg { j, m },
                );
            }
        }
        let _ = &self.dist;
    }

    fn wants_round(&self, v: VertexId, round: u32) -> bool {
        let vi = v as usize;
        self.agenda[vi]
            .get(self.cursor[vi])
            .is_some_and(|&(a, _)| a <= round)
    }

    fn is_quiescent(&self, v: VertexId) -> bool {
        self.cursor[v as usize] >= self.agenda[v as usize].len()
    }

    fn phase(&self) -> mrbc_congest::Phase {
        mrbc_congest::Phase::Accumulation
    }

    fn message_class(&self, _msg: &AccMsg) -> mrbc_congest::MessageClass {
        mrbc_congest::MessageClass::Dependency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brandes;
    use mrbc_graph::{algo, generators, GraphBuilder};

    fn assert_bc_close(got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!((g - w).abs() < 1e-9, "BC[{i}]: got {g}, want {w}");
        }
    }

    fn all_sources(n: usize) -> Vec<VertexId> {
        (0..n as VertexId).collect()
    }

    #[test]
    fn apsp_matches_bfs_on_diamond() {
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (0, 2), (1, 3), (2, 3)])
            .build();
        let out = directed_apsp(&g, &all_sources(4), TerminationMode::FixedTwoN);
        for j in 0..4 {
            let (d, s) = algo::bfs_sigma(&g, j as VertexId);
            assert_eq!(out.dist[j], d, "distances from {j}");
            assert_eq!(out.sigma[j], s, "sigma from {j}");
        }
    }

    #[test]
    fn bc_matches_brandes_on_small_graphs() {
        let cases = vec![
            generators::path(6),
            generators::cycle(7),
            generators::star(6),
            generators::complete(5),
            GraphBuilder::new(4)
                .edges([(0, 1), (0, 2), (1, 3), (2, 3)])
                .build(),
            generators::balanced_tree(2, 3),
        ];
        for (i, g) in cases.into_iter().enumerate() {
            let n = g.num_vertices();
            let want = brandes::bc_exact(&g);
            let got = mrbc_bc(&g, &all_sources(n), TerminationMode::FixedTwoN);
            assert_bc_close(&got.bc, &want);
            assert!(got.forward.rounds <= 2 * n as u32, "case {i} round bound");
        }
    }

    #[test]
    fn bc_matches_brandes_on_random_graphs() {
        for seed in 0..4 {
            let g = generators::erdos_renyi(40, 0.08, seed);
            let want = brandes::bc_exact(&g);
            let got = mrbc_bc(&g, &all_sources(40), TerminationMode::FixedTwoN);
            assert_bc_close(&got.bc, &want);
        }
    }

    #[test]
    fn global_detection_matches_brandes_with_sampled_sources() {
        let g = generators::rmat(generators::RmatConfig::new(6, 5), 17);
        let sources: Vec<VertexId> = vec![3, 9, 17, 20, 33];
        let want = brandes::bc_sources(&g, &sources);
        let got = mrbc_bc(&g, &sources, TerminationMode::GlobalDetection);
        assert_bc_close(&got.bc, &want);
    }

    #[test]
    fn kssp_round_bound_lemma8() {
        // k-SSP completes in ≤ k + H (+1 delivery) rounds.
        let g = generators::random_strongly_connected(60, 0.05, 3);
        let sources: Vec<VertexId> = (0..8).map(|i| i * 7).collect();
        let out = mrbc_bc(&g, &sources, TerminationMode::GlobalDetection);
        let k = out.sources_sorted.len() as u32;
        let h = out
            .dist
            .iter()
            .flat_map(|d| d.iter())
            .filter(|&&d| d != INF_DIST)
            .max()
            .copied()
            .unwrap_or(0);
        assert!(
            out.forward.rounds <= k + h + 1,
            "forward {} > k + H + 1 = {}",
            out.forward.rounds,
            k + h + 1
        );
        // Theorem 1 part II: BC at most doubles the rounds.
        assert!(out.backward.rounds <= out.forward.rounds + 1);
        // Lemma 8 message bound: ≤ m·k forward messages.
        assert!(out.forward.messages <= (g.num_edges() as u64) * k as u64);
    }

    #[test]
    fn finalizer_computes_diameter_and_bounds_rounds() {
        for seed in 0..3 {
            // Dense enough that D < n/5, the regime Algorithm 4 targets.
            let g = generators::random_strongly_connected(40, 0.15, seed);
            let n = g.num_vertices();
            let d = algo::exact_diameter(&g);
            let out = mrbc_bc(&g, &all_sources(n), TerminationMode::Finalizer);
            assert_eq!(out.diameter, Some(d), "seed {seed} diameter");
            let bound = (n as u32 + 5 * d + 10).min(2 * n as u32);
            assert!(
                out.forward.rounds <= bound,
                "seed {seed}: rounds {} > min(2n, n + 5D + c) = {bound}",
                out.forward.rounds
            );
            // Correctness is unaffected by the finalizer machinery.
            assert_bc_close(&out.bc, &brandes::bc_exact(&g));
        }
    }

    #[test]
    fn finalizer_on_cycle_hits_two_n_cap() {
        // On a directed cycle D = n − 1 > n/5, so Step 7's 2n cap fires
        // before the finalizer can finish; the diameter may stay unknown
        // but APSP and BC are complete regardless.
        let g = generators::cycle(12);
        let out = mrbc_bc(&g, &all_sources(12), TerminationMode::Finalizer);
        assert!(out.forward.rounds <= 24);
        assert_bc_close(&out.bc, &brandes::bc_exact(&g));
    }

    #[test]
    fn theorem1_message_bound() {
        // Part I.2: at most m·n APSP messages in 2n rounds (tree messages
        // do not exist in FixedTwoN mode).
        let g = generators::erdos_renyi(30, 0.1, 5);
        let (n, m) = (g.num_vertices() as u64, g.num_edges() as u64);
        let out = directed_apsp(&g, &all_sources(30), TerminationMode::FixedTwoN);
        assert!(
            out.forward.messages <= m * n,
            "messages {} > mn = {}",
            out.forward.messages,
            m * n
        );
    }

    #[test]
    fn unreachable_and_disconnected_vertices() {
        // Two components; BC must still match.
        let g = GraphBuilder::new(6)
            .edges([(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)])
            .build();
        let got = mrbc_bc(&g, &all_sources(6), TerminationMode::FixedTwoN);
        assert_bc_close(&got.bc, &brandes::bc_exact(&g));
        // Distances to the other component stay infinite.
        assert_eq!(got.dist[0][3], INF_DIST);
    }

    #[test]
    fn empty_sources_and_tiny_graphs() {
        let g = generators::path(3);
        let out = mrbc_bc(&g, &[], TerminationMode::GlobalDetection);
        assert_bc_close(&out.bc, &[0.0, 0.0, 0.0]);

        let single = GraphBuilder::new(1).build();
        let out = mrbc_bc(&single, &[0], TerminationMode::FixedTwoN);
        assert_bc_close(&out.bc, &[0.0]);
    }

    #[test]
    fn single_precision_sigma_halves_bits_with_small_error() {
        // The §3.1 log-size-message approximation: 32-bit σ messages give
        // approximate BC values. On a graph whose σ values fit in an f32
        // mantissa the error is tiny; the transmitted bits shrink.
        let g = generators::rmat(generators::RmatConfig::new(6, 5), 23);
        let sources: Vec<VertexId> = (0..16).collect();
        let exact = mrbc_bc(&g, &sources, TerminationMode::GlobalDetection);
        let approx = mrbc_bc_with_precision(
            &g,
            &sources,
            TerminationMode::GlobalDetection,
            SigmaPrecision::Single,
        );
        assert!(approx.forward.bits < exact.forward.bits);
        assert_eq!(approx.forward.messages, exact.forward.messages);
        let max_rel = exact
            .bc
            .iter()
            .zip(&approx.bc)
            .map(|(e, a)| (e - a).abs() / e.abs().max(1.0))
            .fold(0.0f64, f64::max);
        assert!(max_rel < 1e-6, "relative error {max_rel} too large");
    }

    #[test]
    fn duplicate_sources_are_deduplicated() {
        let g = generators::cycle(5);
        let a = mrbc_bc(&g, &[1, 1, 3, 3], TerminationMode::GlobalDetection);
        let b = mrbc_bc(&g, &[1, 3], TerminationMode::GlobalDetection);
        assert_bc_close(&a.bc, &b.bc);
        assert_eq!(a.sources_sorted, vec![1, 3]);
    }
}
