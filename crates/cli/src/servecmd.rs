//! `mrbc serve` / `mrbc serve pool` / `mrbc query` — the long-running
//! query daemon (single-process or supervised worker pool) and its
//! client, bridging the `mrbc-serve` crate into the CLI's exit-code
//! contract: structured `Busy` responses exit 4, `Stale` responses
//! exit 5, pool-level `Retry` exhaustion exits 6, and a corrupt or
//! unsyncable write-ahead log exits 8 (both from `WalFault` refusals and
//! from a pool that cannot open its `--wal-dir`), so shell scripts (and
//! the CI smoke job) can distinguish "retry later", "re-pin your epoch",
//! "pool is recovering" and "durability broken" from hard failures.

use std::io::BufRead;
use std::process::Command;
use std::thread;

use crate::args::ParsedArgs;
use crate::commands::{emit_line, load, CmdError};
use mrbc_core::BcConfig;
use mrbc_net::child::LIFELINE;
use mrbc_obs as obs;
use mrbc_serve::{
    start_pool, ClientConfig, MutateOp, PoolConfig, Request, Response, RetryClient, SchedConfig,
    ServeClient, ServeConfig, ServeStats, ShutdownHandle, TraceCtx, WorkerSpawn,
};

/// Arms the flight recorder when `--flight-dir DIR` was given: every
/// subsequent panic, worker Dead verdict, or Retry emission
/// dumps the in-memory event ring to `DIR/flight-<pid>.mrfr`.
fn arm_flight(p: &ParsedArgs) -> Result<(), CmdError> {
    if let Some(dir) = p.get_str("flight-dir") {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| CmdError::general(format!("cannot create {}: {e}", dir.display())))?;
        obs::flight::set_dir(&dir);
        obs::flight::arm_panic_dump();
    }
    Ok(())
}

/// `mrbc serve <graph> [--port P] [--addr A] [--hosts H] [--batch B]
/// [--queue Q] [--max-batch M] [--faults PLAN]`
///
/// Loads the graph, starts the daemon, and prints `SERVE <addr>` on
/// stdout once the socket is bound (the line scripts poll for). Runs
/// until a client sends the protocol `Shutdown` request or `QUIT`
/// arrives on stdin. A daemon started by hand ignores stdin EOF, so it
/// survives being backgrounded with a closed stdin; one started under a
/// supervisor (a pool front-end) exits on it — see
/// [`watch_stdin_for_quit`].
pub fn cmd_serve(p: &ParsedArgs) -> Result<String, CmdError> {
    if p.positional.first().map(String::as_str) == Some("pool") {
        return cmd_pool(p);
    }
    let g = load(p).map_err(CmdError::general)?;
    let addr = format!(
        "{}:{}",
        p.get_str("addr").unwrap_or("127.0.0.1"),
        p.get_or("port", 0u16).map_err(CmdError::general)?
    );
    let positive = |key: &str, default: usize| -> Result<usize, CmdError> {
        let v: usize = p.get_or(key, default).map_err(CmdError::general)?;
        if v == 0 {
            return Err(CmdError::general(format!("--{key} must be at least 1")));
        }
        Ok(v)
    };
    let faults = match p.get_str("faults") {
        None => None,
        Some(spec) => Some(
            spec.parse()
                .map_err(|e| CmdError::general(format!("bad --faults plan: {e}")))?,
        ),
    };
    arm_flight(p)?;
    let cfg = ServeConfig {
        addr,
        bc: BcConfig {
            num_hosts: positive("hosts", 1)?,
            batch_size: positive("batch", 32)?,
            ..BcConfig::default()
        },
        sched: SchedConfig {
            queue_cap: positive("queue", 64)?,
            max_batch: positive("max-batch", 8)?,
        },
        faults,
    };
    let mut server =
        mrbc_serve::start(g, cfg).map_err(|e| CmdError::general(format!("cannot serve: {e}")))?;

    // The readiness line must be visible *now*, not when the command
    // returns — scripts block on it.
    emit_line(&format!("SERVE {}", server.local_addr()))
        .map_err(|e| CmdError::general(format!("cannot announce readiness: {e}")))?;

    watch_stdin_for_quit(server.shutdown_handle());
    server.wait();
    let stats = server.stats();
    Ok(format!(
        "daemon exited cleanly: {} sessions, {} queries, {} mutations, final epoch {}\n",
        stats.sessions, stats.queries, stats.mutations, stats.epoch
    ))
}

/// Watches stdin for a `QUIT` line on a detached thread, which then
/// begins shutdown through `quit`. Detached on purpose: if stdin never
/// yields QUIT the thread parks on a read until process exit, and
/// joining it would hang a protocol-initiated shutdown.
///
/// What EOF means depends on how the daemon was launched. A supervisor
/// (`mrbc_net::child`) writes the [`LIFELINE`] line first and holds the
/// pipe open for as long as it lives, so after that line EOF means the
/// supervisor is gone and is taken as `QUIT`. Without it — started by
/// hand, stdin closed or `/dev/null` — EOF keeps the daemon serving.
fn watch_stdin_for_quit(quit: ShutdownHandle) {
    drop(
        thread::Builder::new()
            .name("serve-stdin".into())
            .spawn(move || {
                let mut supervised = false;
                for line in std::io::stdin().lock().lines() {
                    match line.as_deref().map(str::trim) {
                        Ok("QUIT") => return quit.trigger(),
                        Ok(LIFELINE) => supervised = true,
                        Ok(_) => {}
                        Err(_) => break,
                    }
                }
                if supervised {
                    quit.trigger();
                }
            }),
    );
}

/// `mrbc serve pool <graph> [--workers W] [--port P] [--addr A]
/// [--hosts H] [--batch B] [--queue Q] [--max-batch M]
/// [--retry-after MS] [--faults PLAN]
/// [--wal-dir DIR] [--wal-flush-ms MS]`
///
/// Starts `W` serve-worker child processes (each a full `mrbc serve`
/// daemon of this same binary) behind a supervising front-end router:
/// source-range sharded routing, heartbeat failure detection, SIGKILL →
/// respawn → mutation-log replay recovery, and a structured `Retry`
/// instead of a hang. Prints the same
/// `SERVE <addr>` readiness line as the single-process daemon; clients
/// cannot tell the difference until a worker dies under them.
///
/// `--faults` accepts the shared plan DSL; the pool executes
/// `kill:worker=R@query=N` (SIGKILL worker R after its N-th routed
/// query), `pause:worker=R:ms=D` (SIGSTOP/SIGCONT freeze),
/// `torn:wal@rec=N` (tear the Nth WAL append), and `fsyncfail:ms=D`
/// (WAL fsyncs start failing) clauses for chaos runs.
///
/// `--wal-dir DIR` turns on crash-consistent durability: every
/// acknowledged mutation is fsynced into a write-ahead log before the
/// ack leaves, and a restart over the same directory replays the log to
/// the exact pre-crash epoch. A WAL that cannot be opened (corrupt
/// beyond its last snapshot, or unsyncable) exits 8 instead of serving
/// with silent data loss. `--wal-flush-ms MS` sets the group-commit
/// flush interval (0 = fsync inline on every append).
fn cmd_pool(p: &ParsedArgs) -> Result<String, CmdError> {
    let graph = p
        .positional
        .get(1)
        .ok_or_else(|| CmdError::general("serve pool needs a graph file argument"))?
        .clone();
    // Fail fast on an unreadable graph here, with a good message, rather
    // than letting every worker child die trying.
    drop(
        mrbc_graph::io::read_edge_list_file(&graph, None)
            .map_err(|e| CmdError::general(format!("cannot read {graph}: {e}")))?,
    );
    let positive = |key: &str, default: usize| -> Result<usize, CmdError> {
        let v: usize = p.get_or(key, default).map_err(CmdError::general)?;
        if v == 0 {
            return Err(CmdError::general(format!("--{key} must be at least 1")));
        }
        Ok(v)
    };
    let workers = positive("workers", 2)?;
    let addr = format!(
        "{}:{}",
        p.get_str("addr").unwrap_or("127.0.0.1"),
        p.get_or("port", 0u16).map_err(CmdError::general)?
    );
    let faults = match p.get_str("faults") {
        None => None,
        Some(spec) => Some(
            spec.parse()
                .map_err(|e| CmdError::general(format!("bad --faults plan: {e}")))?,
        ),
    };
    let wal_dir = match p.get_str("wal-dir") {
        None => None,
        Some(dir) => {
            let dir = std::path::PathBuf::from(dir);
            std::fs::create_dir_all(&dir)
                .map_err(|e| CmdError::general(format!("cannot create {}: {e}", dir.display())))?;
            Some(dir)
        }
    };
    let cfg = PoolConfig {
        addr,
        workers,
        retry_after_ms: p.get_or("retry-after", 100u32).map_err(CmdError::general)?,
        faults,
        wal_dir: wal_dir.clone(),
        wal_flush_ms: p.get_or("wal-flush-ms", 5u64).map_err(CmdError::general)?,
        ..PoolConfig::default()
    };

    arm_flight(p)?;
    // Workers export their own per-process Perfetto timelines into
    // `--trace-dir` (one file per rank; a respawned replacement reuses
    // its rank's path). `mrbc obs merge` stitches them together with
    // the front-end's trace afterwards.
    let trace_dir = match p.get_str("trace-dir") {
        None => None,
        Some(dir) => {
            let dir = std::path::PathBuf::from(dir);
            std::fs::create_dir_all(&dir)
                .map_err(|e| CmdError::general(format!("cannot create {}: {e}", dir.display())))?;
            Some(dir)
        }
    };
    let flight_dir = p.get_str("flight-dir").map(str::to_string);

    // Each worker is this same binary running the single-process daemon;
    // the pool reads its `SERVE <addr>` readiness line from stdout.
    let exe = std::env::current_exe()
        .map_err(|e| CmdError::general(format!("cannot locate own binary: {e}")))?;
    let hosts = positive("hosts", 1)?;
    let batch = positive("batch", 32)?;
    let queue = positive("queue", 64)?;
    let max_batch = positive("max-batch", 8)?;
    let spawn = WorkerSpawn::Process(Box::new(move |rank| {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "serve",
            &graph,
            "--port",
            "0",
            "--hosts",
            &hosts.to_string(),
            "--batch",
            &batch.to_string(),
            "--queue",
            &queue.to_string(),
            "--max-batch",
            &max_batch.to_string(),
        ]);
        if let Some(dir) = &trace_dir {
            let path = dir.join(format!("trace-worker-{rank}.json"));
            cmd.args(["--trace", &path.to_string_lossy()]);
        }
        if let Some(dir) = &flight_dir {
            cmd.args(["--flight-dir", dir]);
        }
        cmd
    }));

    let mut pool = start_pool(spawn, cfg).map_err(|e| {
        // `start_pool` signals an unrecoverable WAL (corrupt beyond the
        // last snapshot, or unsyncable) as InvalidData; that is the
        // durability-broken exit code, distinct from ordinary failures.
        if wal_dir.is_some() && e.kind() == std::io::ErrorKind::InvalidData {
            CmdError {
                message: format!("cannot start pool: {e}"),
                code: 8,
            }
        } else {
            CmdError::general(format!("cannot start pool: {e}"))
        }
    })?;

    emit_line(&format!("SERVE {}", pool.local_addr()))
        .map_err(|e| CmdError::general(format!("cannot announce readiness: {e}")))?;

    watch_stdin_for_quit(pool.shutdown_handle());
    pool.wait();
    let stats = pool.pool_stats();
    let recoveries = pool.recoveries_ms();
    Ok(format!(
        "pool exited cleanly: {} workers, {} sessions, {} routed, \
         {} failovers, {} respawns, {} retries emitted, \
         {} mutations replayed, recoveries {:?} ms\n",
        workers,
        stats.sessions,
        stats.routed,
        stats.failovers,
        stats.respawns,
        stats.retries_emitted,
        stats.replayed_mutations,
        recoveries,
    ))
}

fn render_stats(s: &ServeStats) -> String {
    let mut out = String::new();
    for (label, value) in s.rows() {
        out += &format!("{:<20}{value}\n", format!("{label}:"));
    }
    for (name, h) in &s.hists {
        out += &format!(
            "{name:<19} n={} p50={}us p99={}us p999={}us max={}us\n",
            h.count(),
            h.percentile_bucket_lo(50),
            h.percentile_bucket_lo(99),
            h.quantile_lo(999, 1000),
            h.max(),
        );
    }
    out
}

fn parse_edge(spec: &str) -> Result<(u32, u32), CmdError> {
    let (u, v) = spec
        .split_once('-')
        .ok_or_else(|| CmdError::general(format!("bad edge {spec:?}: expected U-V")))?;
    let parse = |x: &str| {
        x.trim()
            .parse::<u32>()
            .map_err(|_| CmdError::general(format!("bad vertex id {x:?} in edge {spec:?}")))
    };
    Ok((parse(u)?, parse(v)?))
}

/// `mrbc query <addr> <sub> [--epoch E] [--retries N] [...]` where
/// `<sub>` is one of `bc --v V`, `top --k K`, `dist --s S --t T`,
/// `subset --sources L`, `mutate --add U-V | --remove U-V`, `stats`,
/// `shutdown`. `--retries N` wraps the call in the reconnecting
/// [`RetryClient`], absorbing pool `Retry` responses and transient
/// socket failures with jittered backoff — the mode chaos scripts use
/// so a worker SIGKILL under load still exits 0.
pub fn cmd_query(p: &ParsedArgs) -> Result<String, CmdError> {
    let addr = p
        .positional
        .first()
        .ok_or_else(|| CmdError::general("missing daemon address"))?;
    let sub = p
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or_else(|| CmdError::general("missing query subcommand"))?;
    let epoch: u64 = p.get_or("epoch", 0u64).map_err(CmdError::general)?;
    let retries: u32 = p.get_or("retries", 0u32).map_err(CmdError::general)?;

    let req = match sub {
        "bc" => Request::BcScore {
            epoch,
            v: p.get_or("v", 0u32).map_err(CmdError::general)?,
        },
        "top" => Request::TopK {
            epoch,
            k: p.get_or("k", 10u32).map_err(CmdError::general)?,
        },
        "dist" => Request::PathInfo {
            epoch,
            s: p.get_or("s", 0u32).map_err(CmdError::general)?,
            t: p.get_or("t", 0u32).map_err(CmdError::general)?,
        },
        "subset" => {
            let spec = p
                .get_str("sources")
                .ok_or_else(|| CmdError::general("subset needs --sources V,V,..."))?;
            let sources = spec
                .split(',')
                .map(|x| {
                    x.trim()
                        .parse::<u32>()
                        .map_err(|_| CmdError::general(format!("bad source {x:?}")))
                })
                .collect::<Result<Vec<u32>, CmdError>>()?;
            Request::SubsetBc { epoch, sources }
        }
        "mutate" => {
            let (op, spec) = match (p.get_str("add"), p.get_str("remove")) {
                (Some(s), None) => (MutateOp::AddEdge, s),
                (None, Some(s)) => (MutateOp::RemoveEdge, s),
                _ => {
                    return Err(CmdError::general(
                        "mutate needs exactly one of --add U-V / --remove U-V",
                    ))
                }
            };
            let (u, v) = parse_edge(spec)?;
            Request::Mutate { op, u, v }
        }
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        other => return Err(CmdError::general(format!("unknown query {other:?}"))),
    };

    // Every query originates a fresh trace context: the daemon, the pool
    // front-end, and whichever workers execute shards all tag their
    // spans with this trace id, so `mrbc obs merge` can correlate one
    // query across process boundaries. Costs nothing when no recorder
    // is installed anywhere.
    let ctx = TraceCtx::root();
    let span_id = obs::fresh_id();
    let _span = obs::span("query.client", "client")
        .arg("trace", ctx.trace)
        .arg("span", span_id)
        .arg("parent", ctx.parent);
    let down = ctx.child(span_id);

    let resp = if retries > 0 {
        let mut client = RetryClient::new(
            vec![addr.clone()],
            ClientConfig {
                max_retries: retries,
                ..ClientConfig::default()
            },
        );
        client
            .call_traced(down, &req)
            .map_err(|e| CmdError::general(format!("query failed after retries: {e}")))?
    } else {
        let mut client = ServeClient::connect(addr)
            .map_err(|e| CmdError::general(format!("cannot connect to {addr}: {e}")))?;
        client
            .call_traced(down, &req)
            .map_err(|e| CmdError::general(format!("query failed: {e}")))?
    };
    match resp {
        Response::BcValue { epoch, score } => Ok(format!("bc = {score:.6} @ epoch {epoch}\n")),
        Response::TopKList { epoch, entries } => {
            let mut out = format!("top-{} betweenness @ epoch {epoch}:\n", entries.len());
            for (v, score) in entries {
                out += &format!("  {v:>8}  {score:.3}\n");
            }
            Ok(out)
        }
        Response::PathInfo { epoch, dist, sigma } => {
            if dist == u32::MAX {
                Ok(format!("unreachable @ epoch {epoch}\n"))
            } else {
                Ok(format!("dist = {dist}, sigma = {sigma} @ epoch {epoch}\n"))
            }
        }
        Response::SubsetBc { epoch, scores } => {
            let mut out = format!(
                "subset-source BC over {} vertices @ epoch {epoch}, top-10:\n",
                scores.len()
            );
            for (v, score) in mrbc_core::postprocess::top_k(&scores, 10) {
                out += &format!("  {v:>8}  {score:.3}\n");
            }
            Ok(out)
        }
        Response::Mutated { epoch, applied } => Ok(if applied {
            format!("mutation applied; epoch is now {epoch}\n")
        } else {
            format!("mutation was a no-op; epoch stays {epoch}\n")
        }),
        Response::Stats(s) => Ok(render_stats(&s)),
        Response::Bye => Ok("daemon acknowledged shutdown\n".to_string()),
        Response::Busy { queued, capacity } => Err(CmdError {
            message: format!("daemon busy: queue {queued}/{capacity} full; retry later"),
            code: 4,
        }),
        Response::Stale { requested, current } => Err(CmdError {
            message: format!("epoch {requested} is stale; daemon is at epoch {current}"),
            code: 5,
        }),
        Response::Retry { after_ms } => Err(CmdError {
            message: format!("pool is recovering; retry after {after_ms} ms (or pass --retries N)"),
            code: 6,
        }),
        Response::WalFault { message } => Err(CmdError {
            message: format!("durability broken: {message}"),
            code: 8,
        }),
        Response::Error { message } => Err(CmdError::general(format!("daemon error: {message}"))),
        Response::Welcome { .. } => Err(CmdError::general("unexpected Welcome")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use mrbc_graph::generators;

    fn sv(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    fn daemon() -> (mrbc_serve::Server, String) {
        let g = generators::rmat(generators::RmatConfig::new(5, 6), 13);
        let server = mrbc_serve::start(g, ServeConfig::default()).expect("daemon");
        let addr = server.local_addr().to_string();
        (server, addr)
    }

    /// The `query stats` listing, byte for byte as the hand-written
    /// renderer printed it before the field table.
    #[test]
    fn stats_listing_is_pinned() {
        let mut h = obs::Histogram::default();
        h.record(120);
        h.record(90_000);
        let s = ServeStats {
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
                ("serve.exec_us".to_string(), obs::Histogram::default()),
                ("serve.total_us".to_string(), h),
            ],
        };
        let want = "\
epoch:              5
sessions:           9
queries:            10
source queries:     8
batches:            2
batched sources:    6
coalescing factor:  4.00
busy rejections:    1
stale rejections:   3
mutations:          4
queue depth:        7
failover attempts:  11
replayed mutations: 12
sources reused:     120
sources rebuilt:    13
reuse ratio:        0.90
serve.exec_us       n=0 p50=0us p99=0us p999=0us max=0us
serve.total_us      n=2 p50=120us p99=81920us p999=81920us max=90000us
";
        assert_eq!(render_stats(&s), want);
    }

    #[test]
    fn query_subcommands_roundtrip_against_a_daemon() {
        let (mut server, addr) = daemon();

        let p = parse(&sv(&["query", &addr, "bc", "--v", "3"]), &[]).expect("parse");
        assert!(cmd_query(&p).expect("bc").contains("@ epoch 1"));

        let p = parse(&sv(&["query", &addr, "top", "--k", "4"]), &[]).expect("parse");
        let top = cmd_query(&p).expect("top");
        assert!(top.contains("top-4 betweenness @ epoch 1"), "{top}");

        let p = parse(&sv(&["query", &addr, "dist", "--s", "0", "--t", "1"]), &[]).expect("parse");
        assert!(cmd_query(&p).expect("dist").contains("epoch 1"));

        let p = parse(
            &sv(&["query", &addr, "subset", "--sources", "1,2,2,5"]),
            &[],
        )
        .expect("parse");
        assert!(cmd_query(&p).expect("subset").contains("top-10"));

        let p = parse(&sv(&["query", &addr, "mutate", "--add", "0-31"]), &[]).expect("parse");
        let rep = cmd_query(&p).expect("mutate");
        assert!(rep.contains("epoch is now 2"), "{rep}");

        // The old epoch pin now exits with the stale code.
        let p = parse(
            &sv(&["query", &addr, "bc", "--v", "0", "--epoch", "1"]),
            &[],
        )
        .expect("parse");
        let err = cmd_query(&p).expect_err("stale");
        assert_eq!(err.code, 5);
        assert!(err.message.contains("stale"), "{err}");

        let p = parse(&sv(&["query", &addr, "stats"]), &[]).expect("parse");
        let stats = cmd_query(&p).expect("stats");
        assert!(stats.contains("coalescing factor"), "{stats}");
        assert!(stats.contains("stale rejections:   1"), "{stats}");
        // The mutate above ran against a warm engine (the earlier bc
        // query built it), so the maintenance counters are live: every
        // source is either reused or rebuilt, never zero of both.
        assert!(stats.contains("sources reused:"), "{stats}");
        assert!(stats.contains("reuse ratio:"), "{stats}");
        assert!(
            !stats.contains("sources rebuilt:    0\n"),
            "a maintained mutation rebuilds at least the affected cone: {stats}"
        );

        let p = parse(&sv(&["query", &addr, "shutdown"]), &[]).expect("parse");
        assert!(cmd_query(&p).expect("shutdown").contains("acknowledged"));
        server.wait();
    }

    #[test]
    fn query_error_paths() {
        let (mut server, addr) = daemon();

        let p = parse(&sv(&["query", &addr, "frobnicate"]), &[]).expect("parse");
        assert!(cmd_query(&p)
            .expect_err("unknown")
            .message
            .contains("unknown query"));

        let p = parse(&sv(&["query", &addr, "mutate"]), &[]).expect("parse");
        assert!(cmd_query(&p)
            .expect_err("missing op")
            .message
            .contains("exactly one"));

        let p = parse(&sv(&["query", &addr, "mutate", "--add", "7"]), &[]).expect("parse");
        assert!(cmd_query(&p)
            .expect_err("bad edge")
            .message
            .contains("expected U-V"));

        // Out-of-range vertex surfaces the daemon's structured error.
        let p = parse(&sv(&["query", &addr, "bc", "--v", "99999"]), &[]).expect("parse");
        let err = cmd_query(&p).expect_err("oob");
        assert_eq!(err.code, 1);
        assert!(err.message.contains("out of range"), "{err}");

        let p = parse(&sv(&["query", "127.0.0.1:1", "stats"]), &[]).expect("parse");
        assert!(cmd_query(&p)
            .expect_err("no daemon")
            .message
            .contains("cannot connect"));

        server.shutdown();
    }

    #[test]
    fn wal_fault_maps_to_exit_code_8() {
        let g = generators::rmat(generators::RmatConfig::new(5, 6), 13);
        let dir = std::env::temp_dir().join(format!("mrbc-cli-walfault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spawn = WorkerSpawn::InProcess {
            graph: g,
            bc: Box::default(),
            sched: SchedConfig::default(),
        };
        let cfg = PoolConfig {
            workers: 1,
            wal_dir: Some(dir.clone()),
            wal_flush_ms: 0,
            // The very first WAL append tears: the mutation must be
            // refused with the durability-broken exit code, not acked.
            faults: Some("torn:wal@rec=1".parse().expect("plan")),
            ..PoolConfig::default()
        };
        let mut pool = start_pool(spawn, cfg).expect("pool");
        let addr = pool.local_addr().to_string();

        let p = parse(&sv(&["query", &addr, "mutate", "--add", "0-1"]), &[]).expect("parse");
        let err = cmd_query(&p).expect_err("torn wal refuses the ack");
        assert_eq!(err.code, 8, "{err}");
        assert!(err.message.contains("durability broken"), "{err}");

        pool.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn busy_daemon_maps_to_exit_code_4() {
        let g = generators::rmat(generators::RmatConfig::new(5, 6), 13);
        // Queue of 1 and a stalled worker: the second+ concurrent query
        // must shed with Busy.
        let cfg = ServeConfig {
            sched: SchedConfig {
                queue_cap: 1,
                max_batch: 1,
            },
            faults: Some("stall:ms=300".parse().expect("plan")),
            ..ServeConfig::default()
        };
        let mut server = mrbc_serve::start(g, cfg).expect("daemon");
        let addr = server.local_addr().to_string();

        let mut codes = Vec::new();
        let mut handles = Vec::new();
        for s in 0..4u32 {
            let addr = addr.clone();
            handles.push(std::thread::spawn(move || {
                let argv = sv(&["query", &addr, "dist", "--s", &s.to_string(), "--t", "0"]);
                let p = parse(&argv, &[]).expect("parse");
                match cmd_query(&p) {
                    Ok(_) => 0,
                    Err(e) => e.code,
                }
            }));
        }
        for h in handles {
            codes.push(h.join().expect("thread"));
        }
        assert!(codes.contains(&4), "codes: {codes:?}");
        assert!(codes.iter().all(|&c| c == 0 || c == 4), "codes: {codes:?}");
        server.shutdown();
    }
}
