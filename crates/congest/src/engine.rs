//! The synchronous round executor.

use mrbc_graph::{CsrGraph, VertexId};
use mrbc_obs::{MessageClass, Phase};

/// Where a vertex sends one message in a round.
///
/// All targets must be network neighbors: the CONGEST network is `U_G`, so
/// a vertex may address its out-neighbors, its in-neighbors, or an explicit
/// neighbor subset (e.g. the predecessor set `P_s(v)` in the accumulation
/// phase). The engine validates explicit targets against the graph and
/// panics on a non-neighbor — a program that "teleports" a message would
/// silently break the model's complexity accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Target {
    /// Every `w` with edge `v → w` in the input digraph.
    OutNeighbors,
    /// Every `u` with edge `u → v` in the input digraph.
    InNeighbors,
    /// Every neighbor in `U_G` (deduplicated).
    AllNeighbors,
    /// One specific neighbor in `U_G`.
    Neighbor(VertexId),
    /// An explicit neighbor subset (each must be adjacent in `U_G`).
    Neighbors(Vec<VertexId>),
}

/// Per-vertex send buffer for one round.
pub struct Outbox<M> {
    sends: Vec<(Target, M)>,
}

impl<M> Outbox<M> {
    fn new() -> Self {
        Self { sends: Vec::new() }
    }

    /// Queues one message for delivery at the start of the next round.
    pub fn send(&mut self, target: Target, msg: M) {
        self.sends.push((target, msg));
    }
}

/// A distributed algorithm in the CONGEST model.
///
/// The engine owns the driving loop; the program owns all per-vertex state
/// (indexed by `VertexId`). `round` is called once per vertex per round —
/// or, when [`VertexProgram::wants_round`] is overridden, only for
/// vertices with incoming messages or a scheduled action, which turns the
/// `O(n · rounds)` simulation loop into one proportional to actual events.
pub trait VertexProgram {
    /// Message payload carried along one edge.
    type Msg: Clone;

    /// Size of one message in bits, for the `O(B)`-bit accounting.
    fn message_bits(&self, msg: &Self::Msg) -> u64;

    /// Executes vertex `v` in `round` (1-based): process `inbox` (messages
    /// sent to `v` in the previous round, tagged with their sender) and
    /// optionally queue sends.
    fn round(
        &mut self,
        v: VertexId,
        round: u32,
        inbox: &[(VertexId, Self::Msg)],
        out: &mut Outbox<Self::Msg>,
    );

    /// Scheduling hint: must return `true` whenever vertex `v` could act
    /// in `round` even without incoming messages. The default (`true`)
    /// is always safe; precise implementations make sparse rounds cheap.
    fn wants_round(&self, _v: VertexId, _round: u32) -> bool {
        true
    }

    /// True if vertex `v` has no pending future sends. Used by
    /// [`Engine::run_until_quiescent`], mirroring the global-termination
    /// condition of Lemma 8 ("no node has an entry in `L_v` such that
    /// `d_sv + ℓ > r`").
    fn is_quiescent(&self, _v: VertexId) -> bool {
        true
    }

    /// The algorithm phase this program is currently executing, used to
    /// tag the per-round trace spans (Algorithm 3 forward source
    /// detection vs Algorithm 4 finalizer vs Algorithm 5 accumulation).
    /// Queried once per round, so a program may report phase changes as
    /// its internal mode shifts. The default tags generic programs as
    /// driver-level work.
    fn phase(&self) -> Phase {
        Phase::Driver
    }

    /// Classifies one message for per-class observability accounting
    /// (distance pairs vs dependency messages vs termination-detection
    /// traffic). The default attributes everything to
    /// [`MessageClass::Control`].
    fn message_class(&self, _msg: &Self::Msg) -> MessageClass {
        MessageClass::Control
    }
}

/// How an execution ended. Ordered by severity so merging phases keeps
/// the worst outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum RunOutcome {
    /// The program reached global quiescence (or ran its fixed schedule
    /// to completion).
    #[default]
    Converged,
    /// The round budget ran out before quiescence was observed. Results
    /// may be incomplete; callers must not treat them as converged.
    BudgetExhausted,
}

impl RunOutcome {
    /// True only for [`RunOutcome::Converged`].
    pub fn converged(self) -> bool {
        self == RunOutcome::Converged
    }
}

/// Round and message counters for one execution — the quantities bounded
/// by Theorem 1 — plus how the run ended ([`RunOutcome`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Rounds executed.
    pub rounds: u32,
    /// Total (edge, message) deliveries.
    pub messages: u64,
    /// Total message payload bits.
    pub bits: u64,
    /// How the execution ended.
    pub outcome: RunOutcome,
}

impl RunStats {
    /// Merges another phase's counters into this one (e.g. forward APSP
    /// plus accumulation). The merged outcome is the worst of the two.
    pub fn merge(&mut self, other: RunStats) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.bits += other.bits;
        self.outcome = self.outcome.max(other.outcome);
    }
}

/// The CONGEST round executor over a fixed network graph.
pub struct Engine<'g> {
    graph: &'g CsrGraph,
    reverse: CsrGraph,
}

impl<'g> Engine<'g> {
    /// Prepares an engine for the given digraph (precomputes the reverse
    /// adjacency used for `InNeighbors` targets).
    pub fn new(graph: &'g CsrGraph) -> Self {
        Self {
            graph,
            reverse: graph.reverse(),
        }
    }

    /// The input digraph.
    pub fn graph(&self) -> &CsrGraph {
        self.graph
    }

    /// Runs exactly `rounds` rounds.
    pub fn run_rounds<P: VertexProgram>(&self, prog: &mut P, rounds: u32) -> RunStats {
        self.run_inner(prog, rounds, false)
    }

    /// Runs until global quiescence (a round in which no vertex sent a
    /// message and every vertex reports no pending sends), or until
    /// `max_rounds`. The final silent round is not counted: it is the
    /// round in which the system *detects* termination. If the budget
    /// runs out first, the returned stats carry
    /// [`RunOutcome::BudgetExhausted`] instead of silently looking like a
    /// converged run.
    pub fn run_until_quiescent<P: VertexProgram>(&self, prog: &mut P, max_rounds: u32) -> RunStats {
        self.run_inner(prog, max_rounds, true)
    }

    fn run_inner<P: VertexProgram>(
        &self,
        prog: &mut P,
        max_rounds: u32,
        stop_on_quiescence: bool,
    ) -> RunStats {
        let n = self.graph.num_vertices();
        let mut stats = RunStats::default();
        let mut inboxes: Vec<Vec<(VertexId, P::Msg)>> = vec![Vec::new(); n];
        let mut next: Vec<Vec<(VertexId, P::Msg)>> = vec![Vec::new(); n];
        let empty: Vec<(VertexId, P::Msg)> = Vec::new();
        let mut outbox = Outbox::new();
        // Observability is gated on one flag read per run; when disabled
        // the per-round instrumentation below is dead code.
        let obs_on = mrbc_obs::is_enabled();
        let mut class_counts = [0u64; MessageClass::COUNT];
        let mut quiesced = false;

        for round in 1..=max_rounds {
            let round_start = if obs_on { mrbc_obs::now_us() } else { 0 };
            let msgs_before = stats.messages;
            // A round is "active" if any vertex received input or issued a
            // send — including a send addressed to an empty neighbor set
            // (the vertex still acted in this round, and timestamps like
            // MRBC's τ_sv must never exceed the reported round count).
            let mut acted_this_round = false;
            for v in 0..n as VertexId {
                let has_input = !inboxes[v as usize].is_empty();
                acted_this_round |= has_input;
                if !has_input && !prog.wants_round(v, round) {
                    continue;
                }
                let inbox = if has_input {
                    &inboxes[v as usize]
                } else {
                    &empty
                };
                prog.round(v, round, inbox, &mut outbox);
                acted_this_round |= !outbox.sends.is_empty();
                for (target, msg) in outbox.sends.drain(..) {
                    let class = if obs_on {
                        prog.message_class(&msg).index()
                    } else {
                        0
                    };
                    let sent = self.deliver(v, target, msg, &mut next, &mut stats, prog);
                    if obs_on {
                        class_counts[class] += sent;
                    }
                }
            }
            for ib in &mut inboxes {
                ib.clear();
            }
            std::mem::swap(&mut inboxes, &mut next);

            if obs_on {
                let end = mrbc_obs::now_us();
                mrbc_obs::histogram_record("congest.round_us", end.saturating_sub(round_start));
                mrbc_obs::span_at(
                    "round",
                    prog.phase().as_str(),
                    round_start,
                    end.saturating_sub(round_start),
                    0,
                    &[
                        ("round", round as u64),
                        ("sent", stats.messages - msgs_before),
                        ("active", acted_this_round as u64),
                    ],
                );
            }

            if stop_on_quiescence && !acted_this_round {
                let all_quiet = (0..n as VertexId).all(|v| prog.is_quiescent(v));
                if all_quiet {
                    // This silent round only detected termination.
                    stats.rounds = round - 1;
                    quiesced = true;
                    break;
                }
            }
            stats.rounds = round;
        }
        if stop_on_quiescence && !quiesced {
            // The loop above only falls through when the budget ran out
            // before a quiescent round was observed.
            stats.outcome = RunOutcome::BudgetExhausted;
        }
        if obs_on {
            self.flush_run_obs(prog.phase(), &stats, &class_counts);
        }
        stats
    }

    /// Accumulates one finished run's counters into the global recorder.
    fn flush_run_obs(
        &self,
        phase: Phase,
        stats: &RunStats,
        class_counts: &[u64; MessageClass::COUNT],
    ) {
        mrbc_obs::counter_add("congest.rounds", stats.rounds as u64);
        mrbc_obs::counter_add("congest.messages", stats.messages);
        mrbc_obs::counter_add("congest.bits", stats.bits);
        if stats.outcome == RunOutcome::BudgetExhausted {
            mrbc_obs::counter_add("congest.budget_exhausted", 1);
        }
        match phase {
            Phase::Forward | Phase::Finalizer => {
                mrbc_obs::counter_add("congest.rounds.forward", stats.rounds as u64)
            }
            Phase::Accumulation => {
                mrbc_obs::counter_add("congest.rounds.accumulation", stats.rounds as u64)
            }
            _ => {}
        }
        for c in MessageClass::ALL {
            let count = class_counts[c.index()];
            if count > 0 {
                mrbc_obs::counter_add(c.counter_name(), count);
            }
        }
    }

    fn deliver<P: VertexProgram>(
        &self,
        from: VertexId,
        target: Target,
        msg: P::Msg,
        next: &mut [Vec<(VertexId, P::Msg)>],
        stats: &mut RunStats,
        prog: &P,
    ) -> u64 {
        let bits = prog.message_bits(&msg);
        let mut count = 0u64;
        self.expand_target(from, &target, |to| {
            next[to as usize].push((from, msg.clone()));
            stats.messages += 1;
            stats.bits += bits;
            count += 1;
        });
        count
    }

    /// Resolves a [`Target`] into the recipient vertices, validating
    /// explicit targets against `U_G` and deduplicating `AllNeighbors`.
    fn expand_target(&self, from: VertexId, target: &Target, mut sink: impl FnMut(VertexId)) {
        match target {
            Target::OutNeighbors => {
                for &w in self.graph.out_neighbors(from) {
                    sink(w);
                }
            }
            Target::InNeighbors => {
                for &u in self.reverse.out_neighbors(from) {
                    sink(u);
                }
            }
            Target::AllNeighbors => {
                // Merge the two sorted lists, deduplicating shared ids.
                let outs = self.graph.out_neighbors(from);
                let ins = self.reverse.out_neighbors(from);
                let (mut i, mut j) = (0, 0);
                while i < outs.len() || j < ins.len() {
                    let w = match (outs.get(i), ins.get(j)) {
                        (Some(&a), Some(&b)) if a == b => {
                            i += 1;
                            j += 1;
                            a
                        }
                        (Some(&a), Some(&b)) if a < b => {
                            i += 1;
                            a
                        }
                        (Some(_), Some(&b)) => {
                            j += 1;
                            b
                        }
                        (Some(&a), None) => {
                            i += 1;
                            a
                        }
                        (None, Some(&b)) => {
                            j += 1;
                            b
                        }
                        (None, None) => unreachable!(),
                    };
                    sink(w);
                }
            }
            Target::Neighbor(w) => {
                self.assert_adjacent(from, *w);
                sink(*w);
            }
            Target::Neighbors(ws) => {
                for &w in ws {
                    self.assert_adjacent(from, w);
                    sink(w);
                }
            }
        }
    }

    fn assert_adjacent(&self, from: VertexId, to: VertexId) {
        assert!(
            self.graph.has_edge(from, to) || self.reverse.has_edge(from, to),
            "CONGEST violation: {from} -> {to} is not a network edge"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrbc_graph::{generators, GraphBuilder, INF_DIST};

    /// Plain distributed BFS from vertex 0 (directed edges only).
    struct Bfs {
        dist: Vec<u32>,
    }

    impl Bfs {
        fn new(n: usize) -> Self {
            let mut dist = vec![INF_DIST; n];
            if n > 0 {
                dist[0] = 0;
            }
            Self { dist }
        }
    }

    impl VertexProgram for Bfs {
        type Msg = u32;

        fn message_bits(&self, _: &u32) -> u64 {
            32
        }

        fn round(
            &mut self,
            v: VertexId,
            round: u32,
            inbox: &[(VertexId, u32)],
            out: &mut Outbox<u32>,
        ) {
            let mut improved = false;
            for &(_, d) in inbox {
                if d + 1 < self.dist[v as usize] {
                    self.dist[v as usize] = d + 1;
                    improved = true;
                }
            }
            let starts = round == 1 && v == 0;
            if improved || starts {
                out.send(Target::OutNeighbors, self.dist[v as usize]);
            }
        }

        fn wants_round(&self, v: VertexId, round: u32) -> bool {
            round == 1 && v == 0
        }
    }

    #[test]
    fn bfs_matches_oracle_and_round_bound() {
        let g = generators::cycle(10);
        let mut prog = Bfs::new(10);
        let stats = Engine::new(&g).run_until_quiescent(&mut prog, 1000);
        let want = mrbc_graph::algo::bfs_distances(&g, 0);
        assert_eq!(prog.dist, want);
        // Sends happen in rounds 1..=10; the last delivery (to vertex 0,
        // which cannot improve) is processed in round 11.
        assert_eq!(stats.rounds, 11);
        // One message per edge relaxed exactly once on a cycle.
        assert_eq!(stats.messages, 10);
        assert_eq!(stats.bits, 320);
    }

    #[test]
    fn messages_have_one_round_latency() {
        // On a path 0 -> 1 -> 2, vertex 2 learns its distance in round 3:
        // round 1: 0 sends; round 2: 1 receives + sends; round 3: 2 receives.
        let g = generators::path(3);
        let mut prog = Bfs::new(3);
        let stats = Engine::new(&g).run_until_quiescent(&mut prog, 100);
        assert_eq!(prog.dist, vec![0, 1, 2]);
        assert_eq!(stats.rounds, 3, "2 send rounds + 1 receive-only round");
    }

    #[test]
    fn run_rounds_is_exact() {
        let g = generators::path(5);
        let mut prog = Bfs::new(5);
        let stats = Engine::new(&g).run_rounds(&mut prog, 2);
        assert_eq!(stats.rounds, 2);
        // After 2 rounds only vertex 1 has received; its send to vertex 2
        // is still in flight.
        assert_eq!(prog.dist[..2], [0, 1]);
        assert_eq!(prog.dist[2], INF_DIST);
    }

    /// Echo program used to exercise explicit targets.
    struct EchoToIn {
        hits: Vec<u32>,
    }

    impl VertexProgram for EchoToIn {
        type Msg = ();

        fn message_bits(&self, _: &()) -> u64 {
            1
        }

        fn round(
            &mut self,
            v: VertexId,
            round: u32,
            inbox: &[(VertexId, ())],
            out: &mut Outbox<()>,
        ) {
            self.hits[v as usize] += inbox.len() as u32;
            if round == 1 {
                out.send(Target::InNeighbors, ());
            }
        }

        fn wants_round(&self, _: VertexId, round: u32) -> bool {
            round == 1
        }
    }

    #[test]
    fn in_neighbor_targeting() {
        // 0 -> 1, 2 -> 1: vertex 1 sends to in-neighbors {0, 2}.
        let g = GraphBuilder::new(3).edges([(0, 1), (2, 1)]).build();
        let mut prog = EchoToIn { hits: vec![0; 3] };
        Engine::new(&g).run_rounds(&mut prog, 2);
        assert_eq!(prog.hits, vec![1, 0, 1]);
    }

    /// Sends to an explicit non-neighbor — must panic.
    struct Teleporter;

    impl VertexProgram for Teleporter {
        type Msg = ();

        fn message_bits(&self, _: &()) -> u64 {
            1
        }

        fn round(&mut self, v: VertexId, _r: u32, _i: &[(VertexId, ())], out: &mut Outbox<()>) {
            if v == 0 {
                out.send(Target::Neighbor(2), ());
            }
        }
    }

    #[test]
    #[should_panic(expected = "CONGEST violation")]
    fn non_neighbor_send_is_rejected() {
        let g = generators::path(3); // 0-1-2; 0 and 2 not adjacent
        Engine::new(&g).run_rounds(&mut Teleporter, 1);
    }

    #[test]
    fn all_neighbors_deduplicates_bidirectional_edges() {
        // 0 <-> 1 plus 0 -> 2: AllNeighbors from 0 must hit {1, 2} once each.
        struct Blast {
            got: Vec<u32>,
        }
        impl VertexProgram for Blast {
            type Msg = ();
            fn message_bits(&self, _: &()) -> u64 {
                1
            }
            fn round(
                &mut self,
                v: VertexId,
                round: u32,
                inbox: &[(VertexId, ())],
                out: &mut Outbox<()>,
            ) {
                self.got[v as usize] += inbox.len() as u32;
                if round == 1 && v == 0 {
                    out.send(Target::AllNeighbors, ());
                }
            }
        }
        let g = GraphBuilder::new(3).edges([(0, 1), (1, 0), (0, 2)]).build();
        let mut prog = Blast { got: vec![0; 3] };
        let stats = Engine::new(&g).run_rounds(&mut prog, 2);
        assert_eq!(prog.got, vec![0, 1, 1]);
        assert_eq!(stats.messages, 2);
    }

    #[test]
    fn quiescence_respects_pending_state() {
        // A program that is silent in round 1 but acts in round 3 must not
        // be stopped early when is_quiescent reports pending work.
        struct DelayedSender {
            fired: bool,
        }
        impl VertexProgram for DelayedSender {
            type Msg = ();
            fn message_bits(&self, _: &()) -> u64 {
                1
            }
            fn round(
                &mut self,
                v: VertexId,
                round: u32,
                _i: &[(VertexId, ())],
                out: &mut Outbox<()>,
            ) {
                if v == 0 && round == 3 {
                    self.fired = true;
                    out.send(Target::OutNeighbors, ());
                }
            }
            fn is_quiescent(&self, v: VertexId) -> bool {
                v != 0 || self.fired
            }
        }
        let g = generators::path(2);
        let mut prog = DelayedSender { fired: false };
        let stats = Engine::new(&g).run_until_quiescent(&mut prog, 100);
        assert!(prog.fired);
        // Rounds: 1,2 silent-but-pending, 3 send, 4 deliver; detection round
        // itself is not counted.
        assert_eq!(stats.rounds, 4);
    }

    #[test]
    fn stats_merge_adds_fields_and_keeps_worst_outcome() {
        let mut a = RunStats {
            rounds: 3,
            messages: 10,
            bits: 100,
            outcome: RunOutcome::Converged,
        };
        a.merge(RunStats {
            rounds: 2,
            messages: 5,
            bits: 50,
            outcome: RunOutcome::BudgetExhausted,
        });
        assert_eq!(
            a,
            RunStats {
                rounds: 5,
                messages: 15,
                bits: 150,
                outcome: RunOutcome::BudgetExhausted,
            }
        );
        a.merge(RunStats::default());
        assert_eq!(a.outcome, RunOutcome::BudgetExhausted, "worst is sticky");
    }

    #[test]
    fn budget_exhaustion_is_reported_not_silent() {
        // BFS on a long path cannot quiesce in 3 rounds.
        let g = generators::path(50);
        let mut prog = Bfs::new(50);
        let stats = Engine::new(&g).run_until_quiescent(&mut prog, 3);
        assert_eq!(stats.rounds, 3);
        assert_eq!(stats.outcome, RunOutcome::BudgetExhausted);
        assert!(!stats.outcome.converged());
        // A completed run converges.
        let mut prog = Bfs::new(50);
        let stats = Engine::new(&g).run_until_quiescent(&mut prog, 1000);
        assert_eq!(stats.outcome, RunOutcome::Converged);
        // Fixed-schedule runs are their own completion criterion.
        let mut prog = Bfs::new(50);
        assert_eq!(
            Engine::new(&g).run_rounds(&mut prog, 3).outcome,
            RunOutcome::Converged
        );
    }
}
