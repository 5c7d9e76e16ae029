//! The FaultPlan DSL.
//!
//! A plan is a `;`-separated list of clauses:
//!
//! ```text
//! drop:p=0.01                each transmission is lost with probability 0.01
//! dup:p=0.005                each delivery is duplicated with probability 0.005
//! delay:pair=0-3,rounds=2    the 0↔3 link straggles 2 extra rounds per message
//! kill:host=1@round=12       the launcher SIGKILLs worker 1 once it reports round 12
//! kill:worker=1@query=25     the serve pool SIGKILLs worker 1 at its 25th dispatched query
//! pause:worker=0:ms=400      the serve pool SIGSTOPs worker 0 for 400 ms, then SIGCONTs
//! partition:pair=0-2@round=9,ms=300
//!                            the 0↔2 link is severed for 300 ms starting at round 9
//! stall:ms=150               the serving batch worker sleeps 150 ms per batch
//! hangup:session=2           the daemon force-closes its 2nd accepted session
//! torn:wal@rec=5             the pool front-end's WAL tears (half-writes) its 5th record
//! fsyncfail:ms=120           WAL fsyncs start failing 120 ms of flush budget in
//! churn:edges=64@seed=9      the pool front-end drives a seeded 64-mutation edge storm
//! seed=42                    RNG seed for the probabilistic clauses
//! ```
//!
//! Clauses may repeat (`delay`, `kill`, `partition`, and `hangup`
//! accumulate; `drop`/`dup`/`stall`/`seed` take the last occurrence).
//! Whitespace around clauses is ignored.
//!
//! `drop`, `dup` and `delay` are *simulated* inside one address space by
//! `ReliableLink`, which masks them. `kill` and `partition` are
//! different: the `mrbc-net` substrate executes them **for real** — `kill`
//! makes the process launcher deliver an actual `SIGKILL` to a worker
//! process, and `partition` makes both endpoints of a TCP link drop the
//! connection and refuse to re-establish it for a wall-clock window.
//! (A partition window is wall-clock, not round-counted, because a severed
//! link stalls the global barrier — rounds cannot advance while it holds.)
//!
//! `kill:worker=` and `pause:worker=` target the supervised serve-worker
//! pool (`mrbc-serve`): the router delivers a real `SIGKILL` as it sends
//! that worker the given number of queries, or a real `SIGSTOP` whose
//! `SIGCONT` the supervisor sends when the window ends — the shared
//! vocabulary between the chaos harness and the pool integration tests.
//!
//! `torn` and `fsyncfail` target the pool front-end's write-ahead log
//! (`mrbc-serve` with `--wal-dir`): `torn:wal@rec=N` makes the Nth append
//! write only half its frame before poisoning the log (a simulated crash
//! mid-write — recovery must truncate the torn tail and keep exactly the
//! acknowledged prefix), and `fsyncfail:ms=D` makes every fsync fail once
//! `D` milliseconds of flush budget have been consumed (an unsyncable
//! disk — the front-end must refuse further acks with `WalFault`, never
//! acknowledge unsynced data).
//!
//! `churn` targets the supervised pool as *load*, not damage: the
//! front-end streams `K` edge mutations derived deterministically from
//! the clause's own seed through its normal broadcast/WAL path, so chaos
//! runs and smoke tests can hold sustained mutating traffic while other
//! clauses (kills, torn writes) fire mid-storm. Two pools given the same
//! clause and the same initial graph apply the identical mutation
//! sequence — the parity assertion the mutate-heavy smoke leans on.
//!
//! `stall` and `hangup` target the long-running query service
//! (`mrbc-serve`): `stall` delays the batch worker a wall-clock window
//! per dispatched batch (the knob overload and coalescing tests turn),
//! and `hangup` makes the daemon sever the Nth accepted client session
//! mid-stream (chaos-testing that one killed session cannot take the
//! daemon down).

use std::fmt;
use std::str::FromStr;

/// A straggler rule: every message between the two endpoints stalls the
/// sender an extra `rounds` rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DelayFault {
    /// One endpoint of the slow link.
    pub a: usize,
    /// The other endpoint (the rule applies in both directions).
    pub b: usize,
    /// Extra rounds of latency per message on this link.
    pub rounds: u32,
}

/// A real process kill: the launcher delivers `SIGKILL` to worker `host`
/// once that worker reports reaching `round`. This is not simulated — the
/// process actually dies and must be respawned from its durable checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillFault {
    /// The worker process to kill.
    pub host: usize,
    /// The 1-based global step at which the kill is triggered.
    pub round: u32,
}

/// A real serve-worker kill: the pool router delivers `SIGKILL` to pool
/// worker `rank` as it sends it its `query`th request. The chaos harness and the pool integration tests share this clause
/// so "worker dies mid-query" means the same thing everywhere.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerKillFault {
    /// The pool worker rank to kill.
    pub rank: usize,
    /// The 1-based dispatched-query count at which the kill fires.
    pub query: u64,
}

/// A real serve-worker freeze: the pool router `SIGSTOP`s worker `rank`
/// at its first request, and the supervisor `SIGCONT`s it `ms`
/// wall-clock milliseconds later. Unlike a
/// kill, the worker keeps its state; the clause exercises the straggler
/// path (hedging, heartbeat suspicion) rather than the respawn path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerPauseFault {
    /// The pool worker rank to pause.
    pub rank: usize,
    /// Wall-clock pause duration, in milliseconds.
    pub ms: u32,
}

/// A real network partition: starting when either endpoint reaches `round`,
/// the `a↔b` TCP link is severed and reconnection refused for `ms`
/// wall-clock milliseconds. Healing relies on the reconnect/backoff and
/// idempotent-resend machinery, so a healed partition must be invisible in
/// the results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionFault {
    /// One endpoint of the severed link.
    pub a: usize,
    /// The other endpoint.
    pub b: usize,
    /// The 1-based global step at which the partition starts.
    pub round: u32,
    /// Wall-clock duration of the partition, in milliseconds.
    pub ms: u32,
}

/// A seeded mutation storm: the pool front-end applies `edges` edge
/// mutations whose endpoints (and add/remove choice) derive
/// deterministically from `seed`, through the same broadcast + WAL path
/// client mutations take. Sustained mutating load for chaos runs —
/// reproducible, so two pools given the same clause stay in lockstep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnFault {
    /// Number of mutations in the storm.
    pub edges: u64,
    /// Seed the endpoint/op stream derives from (independent of the
    /// plan-level `seed`, so a storm can be pinned while probabilistic
    /// clauses vary).
    pub seed: u64,
}

/// A declarative, seeded description of the faults to inject into a run.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the probabilistic clauses (`drop`, `dup`).
    pub seed: u64,
    /// Per-transmission drop probability in `[0, 1)`.
    pub drop_p: f64,
    /// Per-delivery duplication probability in `[0, 1)`.
    pub dup_p: f64,
    /// Straggler links.
    pub delays: Vec<DelayFault>,
    /// Real process kills (executed by the `mrbc-net` launcher).
    pub kills: Vec<KillFault>,
    /// Real serve-worker kills (executed by the `mrbc-serve` pool
    /// router; fires by dispatched-query count, not round).
    pub worker_kills: Vec<WorkerKillFault>,
    /// Real serve-worker SIGSTOP windows (executed by the pool router and
    /// supervisor).
    pub worker_pauses: Vec<WorkerPauseFault>,
    /// Real wall-clock network partitions (executed by the TCP mesh).
    pub partitions: Vec<PartitionFault>,
    /// Wall-clock delay (ms) the `mrbc-serve` batch worker sleeps per
    /// dispatched batch; 0 means no stall.
    pub stall_ms: u32,
    /// Serving sessions (1-based accept order) the `mrbc-serve` daemon
    /// force-closes after their first response.
    pub hangups: Vec<u32>,
    /// 1-based WAL record sequence at which the pool front-end's log
    /// half-writes the frame and poisons itself (simulated crash
    /// mid-append); `None` means no torn write.
    pub torn_wal_rec: Option<u64>,
    /// Milliseconds of WAL flush budget after which every fsync fails
    /// (simulated unsyncable disk); 0 means fsyncs never fail.
    pub fsyncfail_ms: u64,
    /// Seeded mutation storm the pool front-end drives; `None` means no
    /// churn.
    pub churn: Option<ChurnFault>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            drop_p: 0.0,
            dup_p: 0.0,
            delays: Vec::new(),
            kills: Vec::new(),
            worker_kills: Vec::new(),
            worker_pauses: Vec::new(),
            partitions: Vec::new(),
            stall_ms: 0,
            hangups: Vec::new(),
            torn_wal_rec: None,
            fsyncfail_ms: 0,
            churn: None,
        }
    }
}

impl FaultPlan {
    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.drop_p == 0.0
            && self.dup_p == 0.0
            && self.delays.is_empty()
            && self.kills.is_empty()
            && self.worker_kills.is_empty()
            && self.worker_pauses.is_empty()
            && self.partitions.is_empty()
            && self.stall_ms == 0
            && self.hangups.is_empty()
            && self.torn_wal_rec.is_none()
            && self.fsyncfail_ms == 0
            && self.churn.is_none()
    }

    /// True if the plan contains only masked faults (drops, duplication,
    /// delays, healed partitions) — faults a reliable delivery layer hides
    /// completely, so results must be bitwise-identical to a fault-free
    /// run. Kills are recoverable via checkpoint respawn but still
    /// interrupt a process, so they are not *masked*. A serving
    /// `stall` only delays (maskable); a `hangup` severs a client session
    /// mid-stream — visible to that client, hence not masked.
    /// A worker *pause* only freezes a process that later resumes with
    /// its state intact — the pool hides it behind hedging/failover, so it
    /// is maskable like `stall`; a worker *kill* destroys in-flight work
    /// and is not. A torn WAL write or a failing fsync breaks the
    /// durability contract itself — clients see `WalFault` refusals, so
    /// neither is masked. A `churn` storm mutates the served graph on
    /// purpose — results legitimately differ from a storm-free run, so
    /// it is never masked.
    pub fn is_maskable(&self) -> bool {
        self.kills.is_empty()
            && self.worker_kills.is_empty()
            && self.hangups.is_empty()
            && self.torn_wal_rec.is_none()
            && self.fsyncfail_ms == 0
            && self.churn.is_none()
    }
}

/// Error from parsing a fault-plan string; carries a human-readable
/// description of the offending clause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultParseError(pub String);

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault plan: {}", self.0)
    }
}

impl std::error::Error for FaultParseError {}

fn err(msg: impl Into<String>) -> FaultParseError {
    FaultParseError(msg.into())
}

/// Splits `kv` at `=` and parses the value, checking the expected key.
fn keyed<T: FromStr>(kv: &str, key: &str) -> Result<T, FaultParseError> {
    let (k, v) = kv
        .split_once('=')
        .ok_or_else(|| err(format!("expected {key}=<value>, got {kv:?}")))?;
    if k.trim() != key {
        return Err(err(format!("expected key {key:?}, got {:?}", k.trim())));
    }
    v.trim()
        .parse()
        .map_err(|_| err(format!("cannot parse {key} value {:?}", v.trim())))
}

fn parse_probability(kv: &str) -> Result<f64, FaultParseError> {
    let p: f64 = keyed(kv, "p")?;
    if !(0.0..1.0).contains(&p) {
        return Err(err(format!("probability {p} outside [0, 1)")));
    }
    Ok(p)
}

impl FromStr for FaultPlan {
    type Err = FaultParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut plan = FaultPlan::default();
        for clause in s.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(seed) = clause.strip_prefix("seed=") {
                plan.seed = seed
                    .trim()
                    .parse()
                    .map_err(|_| err(format!("cannot parse seed {:?}", seed.trim())))?;
                continue;
            }
            let (kind, body) = clause.split_once(':').ok_or_else(|| {
                err(format!(
                    "clause {clause:?} has no kind (expected kind:args)"
                ))
            })?;
            match kind.trim() {
                "kill" => {
                    if body.trim_start().starts_with("worker=") {
                        // kill:worker=R@query=N — pool router kill.
                        let (rank_kv, query_kv) = body.split_once('@').ok_or_else(|| {
                            err(format!("kill clause {body:?}: expected worker=R@query=N"))
                        })?;
                        plan.worker_kills.push(WorkerKillFault {
                            rank: keyed(rank_kv, "worker")?,
                            query: keyed(query_kv, "query")?,
                        });
                    } else {
                        // kill:host=H@round=R — launcher kill.
                        let (host_kv, round_kv) = body.split_once('@').ok_or_else(|| {
                            err(format!("kill clause {body:?}: expected host=H@round=R"))
                        })?;
                        plan.kills.push(KillFault {
                            host: keyed(host_kv, "host")?,
                            round: keyed(round_kv, "round")?,
                        });
                    }
                }
                "pause" => {
                    // pause:worker=R:ms=D — pool supervisor SIGSTOP window.
                    let (rank_kv, ms_kv) = body.split_once(':').ok_or_else(|| {
                        err(format!("pause clause {body:?}: expected worker=R:ms=D"))
                    })?;
                    plan.worker_pauses.push(WorkerPauseFault {
                        rank: keyed(rank_kv, "worker")?,
                        ms: keyed(ms_kv, "ms")?,
                    });
                }
                "partition" => {
                    // partition:pair=A-B@round=R,ms=D
                    let (pair_kv, rest) = body.split_once('@').ok_or_else(|| {
                        err(format!(
                            "partition clause {body:?}: expected pair=A-B@round=R,ms=D"
                        ))
                    })?;
                    let pair: String = keyed(pair_kv, "pair")?;
                    let (a, b) = pair
                        .split_once('-')
                        .ok_or_else(|| err(format!("pair {pair:?}: expected A-B")))?;
                    let (round_kv, ms_kv) = rest.split_once(',').ok_or_else(|| {
                        err(format!("partition clause {body:?}: expected round=R,ms=D"))
                    })?;
                    plan.partitions.push(PartitionFault {
                        a: a.parse()
                            .map_err(|_| err(format!("bad pair endpoint {a:?}")))?,
                        b: b.parse()
                            .map_err(|_| err(format!("bad pair endpoint {b:?}")))?,
                        round: keyed(round_kv, "round")?,
                        ms: keyed(ms_kv, "ms")?,
                    });
                }
                "drop" => plan.drop_p = parse_probability(body)?,
                "dup" => plan.dup_p = parse_probability(body)?,
                // stall:ms=D — serving batch-worker delay per batch.
                "stall" => plan.stall_ms = keyed(body, "ms")?,
                // hangup:session=N — sever the Nth accepted serving session.
                "hangup" => plan.hangups.push(keyed(body, "session")?),
                "torn" => {
                    // torn:wal@rec=N — tear the Nth WAL append.
                    let (target, rec_kv) = body
                        .split_once('@')
                        .ok_or_else(|| err(format!("torn clause {body:?}: expected wal@rec=N")))?;
                    if target.trim() != "wal" {
                        return Err(err(format!(
                            "torn target {:?}: only \"wal\" is supported",
                            target.trim()
                        )));
                    }
                    plan.torn_wal_rec = Some(keyed(rec_kv, "rec")?);
                }
                // fsyncfail:ms=D — WAL fsyncs fail after D ms of flush budget.
                "fsyncfail" => plan.fsyncfail_ms = keyed(body, "ms")?,
                "churn" => {
                    // churn:edges=K@seed=S — seeded pool mutation storm.
                    let (edges_kv, seed_kv) = body.split_once('@').ok_or_else(|| {
                        err(format!("churn clause {body:?}: expected edges=K@seed=S"))
                    })?;
                    plan.churn = Some(ChurnFault {
                        edges: keyed(edges_kv, "edges")?,
                        seed: keyed(seed_kv, "seed")?,
                    });
                }
                "delay" => {
                    // delay:pair=A-B,rounds=K
                    let (pair_kv, rounds_kv) = body.split_once(',').ok_or_else(|| {
                        err(format!("delay clause {body:?}: expected pair=A-B,rounds=K"))
                    })?;
                    let pair: String = keyed(pair_kv, "pair")?;
                    let (a, b) = pair
                        .split_once('-')
                        .ok_or_else(|| err(format!("pair {pair:?}: expected A-B")))?;
                    plan.delays.push(DelayFault {
                        a: a.parse()
                            .map_err(|_| err(format!("bad pair endpoint {a:?}")))?,
                        b: b.parse()
                            .map_err(|_| err(format!("bad pair endpoint {b:?}")))?,
                        rounds: keyed(rounds_kv, "rounds")?,
                    });
                }
                other => return Err(err(format!("unknown fault kind {other:?}"))),
            }
        }
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    /// Renders the plan back into the DSL (parse ∘ display is identity on
    /// the normalized form).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if self.drop_p > 0.0 {
            parts.push(format!("drop:p={}", self.drop_p));
        }
        if self.dup_p > 0.0 {
            parts.push(format!("dup:p={}", self.dup_p));
        }
        for d in &self.delays {
            parts.push(format!("delay:pair={}-{},rounds={}", d.a, d.b, d.rounds));
        }
        for k in &self.kills {
            parts.push(format!("kill:host={}@round={}", k.host, k.round));
        }
        for k in &self.worker_kills {
            parts.push(format!("kill:worker={}@query={}", k.rank, k.query));
        }
        for p in &self.worker_pauses {
            parts.push(format!("pause:worker={}:ms={}", p.rank, p.ms));
        }
        for p in &self.partitions {
            parts.push(format!(
                "partition:pair={}-{}@round={},ms={}",
                p.a, p.b, p.round, p.ms
            ));
        }
        if self.stall_ms > 0 {
            parts.push(format!("stall:ms={}", self.stall_ms));
        }
        for h in &self.hangups {
            parts.push(format!("hangup:session={h}"));
        }
        if let Some(rec) = self.torn_wal_rec {
            parts.push(format!("torn:wal@rec={rec}"));
        }
        if self.fsyncfail_ms > 0 {
            parts.push(format!("fsyncfail:ms={}", self.fsyncfail_ms));
        }
        if let Some(c) = self.churn {
            parts.push(format!("churn:edges={}@seed={}", c.edges, c.seed));
        }
        parts.push(format!("seed={}", self.seed));
        write!(f, "{}", parts.join(";"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_reference_example() {
        let plan: FaultPlan = "kill:host=2@round=40;drop:p=0.01;delay:pair=0-3,rounds=2;seed=42"
            .parse()
            .expect("reference plan");
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.kills, vec![KillFault { host: 2, round: 40 }]);
        assert_eq!(plan.drop_p, 0.01);
        assert_eq!(plan.dup_p, 0.0);
        assert_eq!(
            plan.delays,
            vec![DelayFault {
                a: 0,
                b: 3,
                rounds: 2
            }]
        );
        assert!(!plan.is_empty());
        assert!(!plan.is_maskable());
    }

    #[test]
    fn repeated_clauses_accumulate() {
        let plan: FaultPlan = "kill:host=0@round=5;kill:host=1@round=9;dup:p=0.5"
            .parse()
            .expect("plan");
        assert_eq!(plan.kills.len(), 2);
        assert_eq!(plan.dup_p, 0.5);
        assert!(!plan.is_maskable());
    }

    #[test]
    fn whitespace_and_empty_clauses_are_tolerated() {
        let plan: FaultPlan = " drop:p=0.25 ; ; seed=7 ".parse().expect("plan");
        assert_eq!(plan.drop_p, 0.25);
        assert_eq!(plan.seed, 7);
        assert!(plan.is_maskable());
    }

    #[test]
    fn display_round_trips() {
        let text = "drop:p=0.01;dup:p=0.005;delay:pair=0-3,rounds=2;\
                    kill:host=1@round=12;kill:worker=2@query=25;pause:worker=0:ms=400;\
                    partition:pair=0-2@round=9,ms=300;stall:ms=150;\
                    hangup:session=2;torn:wal@rec=5;fsyncfail:ms=120;\
                    churn:edges=64@seed=9;seed=42";
        let plan: FaultPlan = text.parse().expect("plan");
        assert_eq!(plan.to_string(), text);
        let again: FaultPlan = plan.to_string().parse().expect("round trip");
        assert_eq!(again, plan);
    }

    #[test]
    fn stall_and_hangup_clauses_parse() {
        let plan: FaultPlan = "stall:ms=200;hangup:session=1;hangup:session=3"
            .parse()
            .expect("plan");
        assert_eq!(plan.stall_ms, 200);
        assert_eq!(plan.hangups, vec![1, 3]);
        assert!(!plan.is_empty());
        // A stall only delays batches — maskable; a hangup severs a live
        // client session — not masked.
        let s: FaultPlan = "stall:ms=50".parse().expect("plan");
        assert!(s.is_maskable());
        assert!(!plan.is_maskable());
    }

    #[test]
    fn kill_and_partition_clauses_parse() {
        let plan: FaultPlan = "kill:host=3@round=17;partition:pair=1-2@round=5,ms=250"
            .parse()
            .expect("plan");
        assert_eq!(plan.kills, vec![KillFault { host: 3, round: 17 }]);
        assert_eq!(
            plan.partitions,
            vec![PartitionFault {
                a: 1,
                b: 2,
                round: 5,
                ms: 250
            }]
        );
        assert!(!plan.is_empty());
        // A kill interrupts a real process: recoverable, but not masked.
        assert!(!plan.is_maskable());
        // A healed partition alone must be masked by reconnect + resend.
        let p: FaultPlan = "partition:pair=0-1@round=2,ms=100".parse().expect("plan");
        assert!(p.is_maskable());
    }

    #[test]
    fn worker_kill_and_pause_clauses_parse_and_round_trip() {
        let text = "kill:worker=1@query=25;pause:worker=0:ms=400;seed=0";
        let plan: FaultPlan = text.parse().expect("plan");
        assert_eq!(
            plan.worker_kills,
            vec![WorkerKillFault { rank: 1, query: 25 }]
        );
        assert_eq!(
            plan.worker_pauses,
            vec![WorkerPauseFault { rank: 0, ms: 400 }]
        );
        assert!(plan.kills.is_empty(), "worker kill is not a launcher kill");
        assert_eq!(plan.to_string(), text);
        let again: FaultPlan = plan.to_string().parse().expect("round trip");
        assert_eq!(again, plan);
        // A killed worker loses in-flight work: not maskable.
        assert!(!plan.is_empty());
        assert!(!plan.is_maskable());
        // A paused worker resumes with state intact: maskable, like stall.
        let p: FaultPlan = "pause:worker=2:ms=50".parse().expect("plan");
        assert!(p.is_maskable());
        assert!(!p.is_empty());
        // Repeats accumulate in clause order.
        let multi: FaultPlan = "kill:worker=0@query=1;kill:worker=2@query=9"
            .parse()
            .expect("plan");
        assert_eq!(multi.worker_kills.len(), 2);
        assert_eq!(multi.worker_kills[1].rank, 2);
    }

    #[test]
    fn bad_plans_are_rejected_with_context() {
        for (text, needle) in [
            ("drop:p=1.5", "outside"),
            ("drop:q=0.1", "expected key"),
            ("teleport:p=0.1", "unknown fault kind"),
            ("crash:host=1@round=2", "unknown fault kind \"crash\""),
            ("delay:pair=0-1", "rounds"),
            ("delay:pair=01,rounds=2", "A-B"),
            ("kill:host=1", "host=H@round=R"),
            ("kill:worker=1", "worker=R@query=N"),
            ("kill:worker=1@round=2", "expected key"),
            ("pause:worker=1", "worker=R:ms=D"),
            ("pause:worker=1:s=9", "expected key"),
            ("pause:worker=x:ms=9", "cannot parse worker"),
            ("partition:pair=0-1", "pair=A-B@round=R,ms=D"),
            ("partition:pair=0-1@round=3", "round=R,ms=D"),
            ("stall:s=5", "expected key"),
            ("hangup:rank=1", "expected key"),
            ("stall:ms=soon", "cannot parse ms"),
            ("torn:wal", "wal@rec=N"),
            ("torn:disk@rec=3", "only \"wal\""),
            ("torn:wal@seq=3", "expected key"),
            ("fsyncfail:ms=never", "cannot parse ms"),
            ("fsyncfail:after=9", "expected key"),
            ("churn:edges=8", "edges=K@seed=S"),
            ("churn:edges=8@rng=3", "expected key"),
            ("churn:edges=lots@seed=3", "cannot parse edges"),
            ("seed=banana", "seed"),
            ("justaword", "no kind"),
        ] {
            let got = text.parse::<FaultPlan>().expect_err(text);
            assert!(got.0.contains(needle), "{text}: {got:?} missing {needle:?}");
        }
    }

    #[test]
    fn wal_clauses_parse_and_are_never_masked() {
        let plan: FaultPlan = "torn:wal@rec=7".parse().expect("plan");
        assert_eq!(plan.torn_wal_rec, Some(7));
        assert!(!plan.is_empty());
        assert!(!plan.is_maskable(), "a torn WAL write surfaces to clients");

        let plan: FaultPlan = "fsyncfail:ms=250".parse().expect("plan");
        assert_eq!(plan.fsyncfail_ms, 250);
        assert!(!plan.is_empty());
        assert!(!plan.is_maskable(), "a failing fsync surfaces to clients");
    }

    #[test]
    fn churn_clause_parses_and_is_never_masked() {
        let plan: FaultPlan = "churn:edges=64@seed=9".parse().expect("plan");
        assert_eq!(plan.churn, Some(ChurnFault { edges: 64, seed: 9 }));
        assert!(!plan.is_empty());
        assert!(
            !plan.is_maskable(),
            "a mutation storm changes served results by design"
        );
        // Last occurrence wins, like the other scalar clauses.
        let last: FaultPlan = "churn:edges=4@seed=1;churn:edges=8@seed=2"
            .parse()
            .expect("plan");
        assert_eq!(last.churn, Some(ChurnFault { edges: 8, seed: 2 }));
    }

    #[test]
    fn empty_string_is_the_empty_plan() {
        let plan: FaultPlan = "".parse().expect("empty");
        assert!(plan.is_empty());
        assert!(plan.is_maskable());
    }
}
