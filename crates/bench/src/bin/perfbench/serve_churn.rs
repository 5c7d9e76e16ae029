//! The `serve-churn` workload: writes beside reads through a durable
//! two-worker pool. One op is one cycle — a `mutate` acknowledged under
//! the WAL, a `bc_score` polled until it answers at the new epoch, then
//! three reads of the `serve-read` mix. It is the only workload that
//! restarts from disk: after the timed section a second pool writes a
//! log of fixed length and is cold-started from it several times.

use std::path::{Path, PathBuf};
use std::time::Duration;

use mrbc_core::BcConfig;
use mrbc_graph::{CsrGraph, VertexId};
use mrbc_serve::{start_pool, DurableLog, Pool, PoolConfig, ServeClient, WorkerSpawn};
use mrbc_util::wal::WalConfig;

use crate::gen::{MutationStream, Query, QueryMix, Seeds};
use crate::serve_read::{offline_scores, warm, SCHED};
use crate::stats::Summary;
use crate::sys::{self, Scratch};
use crate::workload::{tail_us, Effort, InputSpec, Pass};

/// Polls a fresh read may take before the cycle counts as failed (the
/// mutation is applied before its ack, so the first poll succeeds
/// unless the pool is broken).
const MAX_FRESH_POLLS: usize = 100;

/// Starts a two-worker in-process pool on `g`, durable in `wal_dir`,
/// with the pool's default group-commit window and snapshot cadence.
fn start(g: CsrGraph, wal_dir: &Path) -> Result<Pool, String> {
    let spawn = WorkerSpawn::InProcess {
        graph: g,
        bc: Box::new(BcConfig::default()),
        sched: SCHED,
    };
    let cfg = PoolConfig {
        workers: 2,
        wal_dir: Some(wal_dir.to_path_buf()),
        ..PoolConfig::default()
    };
    start_pool(spawn, cfg).map_err(|e| format!("start_pool: {e}"))
}

/// A started pool with its engine warmed and one connected client.
struct Warm {
    g: CsrGraph,
    hot: Vec<VertexId>,
    wal_dir: PathBuf,
    pool: Pool,
    client: ServeClient,
}

/// Set-up as a user pays it: generate the graph, create the WAL
/// directory, start the pool, connect, warm the full-BC vector (which
/// builds the incremental engine) and the hot sources.
fn set_up(spec: &InputSpec, seeds: Seeds, scratch: &Scratch) -> Result<Warm, String> {
    let input = spec.build(seeds);
    let dir = scratch.subdir("wal").map_err(|e| format!("wal dir: {e}"))?;
    let pool = start(input.g.clone(), &dir)?;
    let mut client =
        ServeClient::connect(pool.local_addr()).map_err(|e| format!("connect: {e}"))?;
    warm(&mut client, &input.sources)?;
    Ok(Warm {
        g: input.g,
        hot: input.sources,
        wal_dir: dir,
        pool,
        client,
    })
}

/// Per-step latencies of the timed cycles, µs.
#[derive(Default)]
struct Cycles {
    cycle: Vec<f64>,
    ack: Vec<f64>,
    fresh: Vec<f64>,
    read: Vec<f64>,
}

/// One cycle. Returns `(ops attempted, ops failed)`.
fn cycle(
    client: &mut ServeClient,
    stream: &mut MutationStream,
    mix: &mut QueryMix,
    out: &mut Cycles,
    id: u64,
) -> (u64, u64) {
    let _root = mrbc_obs::span("bench.op", "bench").arg("id", id);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (op, u, v) = stream.next_mutation();
    let t0 = sys::now_us();
    let acked = {
        let _s = mrbc_obs::span("bench.pool.mutate", "bench");
        client.mutate(op, u, v)
    };
    let t_ack = sys::now_us();
    attempted += 1;
    let epoch = match acked {
        // The stream only emits mutations that change the graph.
        Ok((epoch, true)) => epoch,
        _ => {
            failed += 1;
            0
        }
    };
    out.ack.push(t_ack.saturating_sub(t0) as f64);

    let mut fresh = false;
    for _ in 0..MAX_FRESH_POLLS {
        let _s = mrbc_obs::span("bench.pool.fresh", "bench");
        attempted += 1;
        match client.bc_score(0, u) {
            Ok((e, _)) if e >= epoch => {
                fresh = true;
                break;
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
    if !fresh {
        failed += 1;
    }
    out.fresh.push(sys::now_us().saturating_sub(t0) as f64);

    for _ in 0..3 {
        let _s = mrbc_obs::span("bench.pool.read", "bench");
        let r0 = sys::now_us();
        let ok = match mix.next_query() {
            Query::Bc(v) => client.bc_score(0, v).is_ok(),
            Query::TopK(k) => client.top_k(0, k).is_ok(),
            Query::Path(s, t) => client.path_info(0, s, t).is_ok(),
        };
        out.read.push(sys::now_us().saturating_sub(r0) as f64);
        attempted += 1;
        if !ok {
            failed += 1;
        }
    }
    out.cycle.push(sys::now_us().saturating_sub(t0) as f64);
    (attempted, failed)
}

/// Compares every vertex's served score with an offline recompute of
/// `expected`, bit for bit (`top_k(n)` returns all of them in one call).
fn audit_scores(client: &mut ServeClient, expected: &CsrGraph) -> Result<(), String> {
    let n = expected.num_vertices();
    let (_, ranked) = client
        .top_k(0, n as u32)
        .map_err(|e| format!("final top_k({n}): {e}"))?;
    let want = offline_scores(expected);
    let mut seen = vec![false; n];
    let mut wrong = 0usize;
    for (v, score) in ranked {
        if want
            .get(v as usize)
            .is_none_or(|w| w.to_bits() != score.to_bits())
        {
            wrong += 1;
        } else {
            seen[v as usize] = true;
        }
    }
    let unseen = seen.iter().filter(|s| !**s).count();
    if wrong + unseen > 0 {
        return Err(format!(
            "served scores differ from an offline recompute of the mirrored graph \
             ({wrong} wrong, {unseen} missing of {n})"
        ));
    }
    Ok(())
}

/// Cold-opens the log in `dir` as a restarted front-end would:
/// `(open ms, mutations recovered)`.
fn reopen(dir: &Path) -> Result<(f64, u64), String> {
    let sync = WalConfig {
        flush_interval_ms: 0,
        ..WalConfig::default()
    };
    let t0 = sys::now_us();
    let (_log, rec) = DurableLog::open(dir, sync).map_err(|e| format!("reopen wal: {e}"))?;
    Ok((sys::secs_since(t0) * 1e3, rec.mutations.len() as u64))
}

/// The restart scenario, kept apart from the timed cycles so the log it
/// recovers has the same length on every run (a restart replays the
/// whole acknowledged history, which would otherwise grow with however
/// many cycles the box happened to fit): write `effort.wal_history`
/// mutations through a fresh pool, shut it down, then time
/// `effort.recoveries` cold `start_pool`s on that directory up to the
/// first answer that is at the pre-shutdown epoch and bit-correct.
fn recovery(
    g: &CsrGraph,
    seeds: Seeds,
    effort: Effort,
    scratch: &Scratch,
    pass: &mut Pass,
) -> Result<(), String> {
    let dir = scratch
        .subdir("recovery")
        .map_err(|e| format!("wal dir: {e}"))?;
    let mut stream = MutationStream::new(g, seeds.ops ^ 0x7265_636f_7665_7279);
    let mut epoch = 1u64;
    {
        let mut pool = start(g.clone(), &dir)?;
        let mut client =
            ServeClient::connect(pool.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let every = PoolConfig::default().wal_snapshot_every;
        for i in 1..=effort.wal_history {
            let (op, u, v) = stream.next_mutation();
            pass.attempted += 1;
            match client.mutate(op, u, v) {
                Ok((e, true)) => epoch = e,
                other => return Err(format!("recovery history mutation {i}: {other:?}")),
            }
            if i % every == 0 {
                // Let the supervisor's 5 ms pump take the snapshot at
                // exactly this record, so every run replays the same
                // snapshot + suffix split.
                std::thread::sleep(Duration::from_millis(40));
            }
        }
        drop(client);
        pool.shutdown();
    }
    let (open_ms, recovered) = reopen(&dir)?;
    pass.layers.put("wal.open_ms", open_ms, 1);
    pass.layers
        .put("wal.recovered_records", recovered as f64, 1);
    let mut lost = (effort.wal_history as u64).saturating_sub(recovered);

    let expected = stream.graph();
    let want = offline_scores(&expected);
    let mut ms = Vec::new();
    for r in 0..effort.recoveries {
        let t0 = sys::now_us();
        let mut pool = start(g.clone(), &dir)?;
        let mut client =
            ServeClient::connect(pool.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let v = (r % expected.num_vertices()) as u32;
        let answer = client.bc_score(0, v);
        ms.push(sys::secs_since(t0) * 1e3);
        pass.attempted += 1;
        match answer {
            Ok((e, score)) if e == epoch && score.to_bits() == want[v as usize].to_bits() => {}
            Ok((e, _)) if e != epoch => {
                lost += epoch.saturating_sub(e);
                pass.problem(format!(
                    "restart {r}: recovered epoch {e}, pre-shutdown epoch {epoch}"
                ));
            }
            other => pass.problem(format!("restart {r}: first answer wrong: {other:?}")),
        }
        drop(client);
        pool.shutdown();
    }
    let s = Summary::of(&mut ms);
    pass.layers.put_noted(
        "recovery_ms",
        s.median,
        s.n as u64,
        format!(
            "cold start_pool -> first correct answer, {} logged mutations",
            effort.wal_history
        ),
    );
    pass.layers.put("wal.lost_acked", lost as f64, 1);
    if lost > 0 {
        pass.problem(format!(
            "{lost} acknowledged mutation(s) lost across restart"
        ));
    }
    Ok(())
}

/// Runs one pass: set-up, cycles until the box is spent, the end-state
/// audit, then the restart scenario.
pub(crate) fn run(spec: &InputSpec, seeds: Seeds, effort: Effort) -> Result<Pass, String> {
    let scratch = Scratch::create().map_err(|e| format!("scratch dir: {e}"))?;
    let mut pass = Pass::default();
    let t0 = sys::now_us();
    let Warm {
        g,
        hot,
        wal_dir,
        mut pool,
        mut client,
    } = set_up(spec, seeds, &scratch)?;
    let first_setup_s = sys::secs_since(t0);

    let mut stream = MutationStream::new(&g, seeds.ops);
    let mut mix = QueryMix::new(g.num_vertices() as u32, hot, seeds.ops.wrapping_add(1));
    let mut timed = Cycles::default();
    let t0 = sys::now_us();
    let deadline = t0 + effort.box_us();
    let mut id = 0u64;
    loop {
        let (attempted, failed) = cycle(&mut client, &mut stream, &mut mix, &mut timed, id);
        pass.attempted += attempted;
        pass.failed += failed;
        id += 1;
        if sys::now_us() >= deadline {
            break;
        }
    }
    let cycles = id;
    pass.ops_per_s = cycles as f64 / sys::secs_since(t0).max(1e-9);
    pass.set_ops(&mut timed.cycle, 95.0);

    // Pool counters before anything else touches the pool.
    let ps = pool.pool_stats();
    pass.layers.put("pool.routed", ps.routed as f64, 1);
    pass.layers.put("pool.failovers", ps.failovers as f64, 1);
    pass.layers
        .put("pool.retries_emitted", ps.retries_emitted as f64, 1);
    pass.layers
        .put("pool.partials_emitted", ps.partials_emitted as f64, 1);
    let rerouted = ps.failovers + ps.retries_emitted + ps.partials_emitted;
    if rerouted > 0 {
        pass.problem(format!(
            "{rerouted} failover/retry/partial event(s) without a fault plan"
        ));
    }

    let ack = Summary::of(&mut timed.ack);
    let (ack_p95, ack_note) = tail_us(&timed.ack, 95.0);
    pass.layers.put_noted(
        "mutate_ack_p50_us",
        ack.median,
        cycles,
        ack.quartile_note(1.0),
    );
    pass.layers
        .put_noted("mutate_ack_p95_us", ack_p95, cycles, ack_note);
    pass.layers
        .put("fresh_p50_us", Summary::of(&mut timed.fresh).median, cycles);
    pass.layers.put(
        "pool.read_p50_us",
        Summary::of(&mut timed.read).median,
        3 * cycles,
    );
    pass.layers
        .put("churn_cycles_per_s", pass.ops_per_s, cycles);

    // End state: the pool's scores against the mirrored graph, then its
    // log against what it acknowledged.
    pass.attempted += 1;
    if let Err(what) = audit_scores(&mut client, &stream.graph()) {
        pass.problem(what);
    }
    drop(client);
    pool.shutdown();
    pass.finish_setups(first_setup_s, effort, &mut || {
        set_up(spec, seeds, &scratch).map(drop)
    })?;
    let acked = timed.ack.len() as u64;
    match reopen(&wal_dir) {
        Ok((_, recovered)) if recovered >= acked.saturating_sub(pass.failed) => {}
        Ok((_, recovered)) => pass.problem(format!(
            "the churn log holds {recovered} of {acked} acknowledged mutations"
        )),
        Err(e) => pass.problem(e),
    }

    recovery(&g, seeds, effort, &scratch, &mut pass)?;
    Ok(pass)
}
