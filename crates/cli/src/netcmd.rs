//! Multi-process subcommands: `worker`, `launch`, and `checkpoint-info`.
//!
//! `mrbc launch` spawns N `mrbc worker` processes on localhost, wires
//! their stdio into the recovery control plane, optionally SIGKILLs
//! ranks mid-run (`--kill`), and verifies that every completed rank —
//! crashed-and-restarted or not — reports the same result fingerprint.
//! `mrbc worker` is the per-rank process: it binds its TCP mesh
//! endpoint, announces `LISTEN <addr>`, and then speaks the line
//! protocol documented in [`mrbc_net::launch`] over stdin/stdout.
//! `mrbc checkpoint-info` inspects and fully validates a checkpoint
//! directory; corruption exits with the dedicated status code 3.

use std::io::BufRead;
use std::path::Path;
use std::process::Command;

use crate::args::ParsedArgs;
use crate::commands::{emit_line, CmdError};
use mrbc_core::dist::spmd::MrbcSpmd;
use mrbc_dgalois::spmd::{run_local, SpmdProgram};
use mrbc_dgalois::{partition, DistGraph, PartitionPolicy};
use mrbc_graph::{io, sample, CsrGraph};
use mrbc_net::launch::{event_line, outcome_line, parse_control_line};
use mrbc_net::mesh::{Mesh, MeshConfig};
use mrbc_net::worker::{await_resume, run_worker_from, ControlPlane, WorkerConfig, WorkerError};
use mrbc_net::{launch, CheckpointError, CheckpointStore, LaunchConfig, RankOutcome};

/// The problem definition every rank must agree on byte-for-byte: the
/// graph, the deduplicated source set, the batch size, and the
/// partition. `launch` forwards exactly these flags to each `worker` so
/// the SPMD replicas are constructed identically.
struct Problem {
    graph_path: String,
    g: CsrGraph,
    sources: Vec<u32>,
    batch: usize,
    ranks: usize,
    policy: PartitionPolicy,
}

impl Problem {
    fn partition(&self) -> DistGraph {
        partition(&self.g, self.ranks, self.policy)
    }
}

fn problem_of(p: &ParsedArgs) -> Result<Problem, CmdError> {
    let graph_path = p
        .positional
        .first()
        .ok_or_else(|| CmdError::general("missing graph file argument"))?
        .clone();
    let g = io::read_edge_list_file(&graph_path, None)
        .map_err(|e| CmdError::general(format!("cannot read {graph_path}: {e}")))?;
    let k: usize = p.get_or("sources", 32usize)?;
    let seed: u64 = p.get_or("seed", 1u64)?;
    let sources = sample::contiguous_sources(g.num_vertices(), k, seed);
    let batch: usize = p.get_or("batch", 32usize)?;
    if batch == 0 {
        return Err(CmdError::general("--batch must be at least 1"));
    }
    let ranks: usize = p.get_or("ranks", 4usize)?;
    if ranks == 0 {
        return Err(CmdError::general("--ranks must be at least 1"));
    }
    let policy = match p.get_str("policy").unwrap_or("cartesian") {
        "cartesian" => PartitionPolicy::CartesianVertexCut,
        "blocked" => PartitionPolicy::BlockedEdgeCut,
        other => {
            return Err(CmdError::general(format!(
                "unknown partition policy {other:?}"
            )))
        }
    };
    Ok(Problem {
        graph_path,
        g,
        sources,
        batch,
        ranks,
        policy,
    })
}

fn ckpt_err(e: CheckpointError) -> CmdError {
    CmdError::checkpoint(format!("checkpoint: {e}"))
}

fn worker_err(e: WorkerError) -> CmdError {
    match e {
        WorkerError::Checkpoint(e) => ckpt_err(e),
        other => CmdError::general(format!("worker: {other}")),
    }
}

/// Parses `--partitions "step:peer:ms[,step:peer:ms…]"` fault windows.
fn partitions_of(p: &ParsedArgs) -> Result<Vec<(u64, usize, u64)>, CmdError> {
    let Some(spec) = p.get_str("partitions") else {
        return Ok(Vec::new());
    };
    let mut out = Vec::new();
    for clause in spec.split(',') {
        let parts: Vec<&str> = clause.split(':').collect();
        let parsed = match parts.as_slice() {
            [s, peer, ms] => match (s.parse(), peer.parse(), ms.parse()) {
                (Ok(s), Ok(peer), Ok(ms)) => Some((s, peer, ms)),
                _ => None,
            },
            _ => None,
        };
        match parsed {
            Some(t) => out.push(t),
            None => {
                return Err(CmdError::general(format!(
                    "bad --partitions clause {clause:?} (want step:peer:ms)"
                )))
            }
        }
    }
    Ok(out)
}

/// `mrbc worker`: one rank of a multi-process run. Prints `LISTEN
/// <addr>`, then blocks on the launcher's `RESUME` before executing;
/// progress and the final outcome go to stdout as protocol lines.
pub fn cmd_worker(p: &ParsedArgs) -> Result<String, CmdError> {
    let prob = problem_of(p)?;
    let rank: usize = p
        .get_str("rank")
        .ok_or_else(|| CmdError::general("missing --rank"))?
        .parse()
        .map_err(|_| CmdError::general("bad --rank"))?;
    if rank >= prob.ranks {
        return Err(CmdError::general(format!(
            "--rank {rank} out of range for --ranks {}",
            prob.ranks
        )));
    }
    let dg = prob.partition();
    let mut prog = MrbcSpmd::new(&prob.g, &dg, &prob.sources, prob.batch);

    let mut mcfg = MeshConfig::localhost(rank, prob.ranks);
    if let Some(ms) = p.get_str("dead-after") {
        mcfg.detector.dead_after_ms = ms
            .parse()
            .map_err(|_| CmdError::general("bad --dead-after"))?;
    }
    let mut mesh = Mesh::bind(&mcfg).map_err(|e| CmdError::general(format!("bind: {e}")))?;

    let mut cfg = WorkerConfig {
        partitions: partitions_of(p)?,
        ..WorkerConfig::default()
    };
    if let Some(ms) = p.get_str("deadline") {
        cfg.deadline_ms = Some(
            ms.parse()
                .map_err(|_| CmdError::general("bad --deadline"))?,
        );
    }
    if let Some(dir) = p.get_str("checkpoint-dir") {
        cfg.store = Some(CheckpointStore::open(Path::new(dir), rank as u32).map_err(ckpt_err)?);
    }

    // Control plane: launcher lines arrive on stdin (reader thread →
    // channel, then a wake for the mesh the worker blocks in), events
    // leave on stdout, flushed per line. The last wake, after `tx` is
    // gone, lets the worker see a launcher that hung up: stdin is the
    // launcher's lifeline. Its first line, `mrbc_net::child::LIFELINE`,
    // is no control message, so it is skipped.
    let (tx, rx) = std::sync::mpsc::channel();
    let waker = mesh.waker();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if let Some(msg) = parse_control_line(&line) {
                if tx.send(msg).is_err() {
                    return;
                }
                waker.wake();
            }
        }
        drop(tx);
        waker.wake();
    });
    let mut control = ControlPlane {
        rx: Some(rx),
        // A launcher that stopped reading has hung up; stdin EOF
        // tells the worker, so a failed write carries no news.
        notify: Box::new(|ev| drop(emit_line(&event_line(ev)))),
    };

    emit_line(&format!("LISTEN {}", mesh.local_addr()))
        .map_err(|e| CmdError::general(format!("stdout: {e}")))?;

    let start = await_resume(&mut prog, &mut mesh, &mut cfg, &mut control).map_err(worker_err)?;
    let outcome =
        run_worker_from(&mut prog, &mut mesh, &mut cfg, &mut control, start).map_err(worker_err)?;
    Ok(format!("{}\n", outcome_line(&outcome)))
}

/// `mrbc launch`: spawns `--ranks` worker processes of this same binary
/// on localhost, executes `--kill rank@step` faults for real (SIGKILL +
/// respawn + checkpoint recovery), and reports per-rank outcomes plus
/// the cross-rank fingerprint agreement. `--verify` additionally runs
/// the same program in-process and asserts the distributed result is
/// bit-identical.
pub fn cmd_launch(p: &ParsedArgs) -> Result<String, CmdError> {
    let prob = problem_of(p)?;
    let kills = kills_of(p)?;
    let ckpt_dir = p.get_str("checkpoint-dir").map(str::to_string);
    if !kills.is_empty() && ckpt_dir.is_none() {
        return Err(CmdError::general(
            "--kill needs --checkpoint-dir: recovery restarts from durable checkpoints",
        ));
    }
    let exe = std::env::current_exe()
        .map_err(|e| CmdError::general(format!("cannot locate own binary: {e}")))?;
    let cfg = LaunchConfig {
        num_workers: prob.ranks,
        kills: kills.clone(),
        timeout_ms: p.get_or("timeout", 120_000u64)?,
    };
    let forward: Vec<(&str, Option<String>)> = vec![
        ("--sources", Some(p.get_or("sources", 32usize)?.to_string())),
        ("--seed", Some(p.get_or("seed", 1u64)?.to_string())),
        ("--batch", Some(prob.batch.to_string())),
        ("--ranks", Some(prob.ranks.to_string())),
        (
            "--policy",
            Some(p.get_str("policy").unwrap_or("cartesian").to_string()),
        ),
        ("--checkpoint-dir", ckpt_dir.clone()),
        ("--deadline", p.get_str("deadline").map(str::to_string)),
        ("--dead-after", p.get_str("dead-after").map(str::to_string)),
    ];
    let report = launch(
        |rank| {
            let mut cmd = Command::new(&exe);
            cmd.arg("worker").arg(&prob.graph_path);
            cmd.args(["--rank", &rank.to_string()]);
            for (flag, value) in &forward {
                if let Some(v) = value {
                    cmd.args([*flag, v.as_str()]);
                }
            }
            cmd
        },
        &cfg,
    )
    .map_err(|e| CmdError::general(format!("launch: {e}")))?;

    let mut s = format!(
        "launched {} workers over localhost TCP ({} planned kills)\n",
        prob.ranks,
        kills.len()
    );
    for (rank, outcome) in report.outcomes.iter().enumerate() {
        match outcome {
            RankOutcome::Completed { steps, fingerprint } => {
                s += &format!(
                    "  rank {rank}: completed, {steps} steps, fingerprint {fingerprint:016x}\n"
                );
            }
            RankOutcome::Degraded {
                step,
                fingerprint,
                missing,
            } => {
                s += &format!(
                    "  rank {rank}: degraded at step {step}, fingerprint {fingerprint:016x}, missing {missing:?}\n"
                );
            }
        }
    }
    s += &format!(
        "recoveries: {}   final epoch: {}\n",
        report.recoveries, report.epoch
    );
    match report.consensus_fingerprint() {
        Some(fp) => s += &format!("consensus fingerprint: {fp:016x}\n"),
        None => s += "no consensus fingerprint (degraded or divergent ranks)\n",
    }
    if p.has("verify") {
        let fp = report.consensus_fingerprint().ok_or_else(|| {
            CmdError::general("--verify needs every rank completed with one fingerprint")
        })?;
        let dg = prob.partition();
        let mut reference = MrbcSpmd::new(&prob.g, &dg, &prob.sources, prob.batch);
        run_local(&mut reference, u64::MAX)
            .map_err(|e| CmdError::general(format!("in-process reference run: {e}")))?;
        if reference.fingerprint() != fp {
            return Err(CmdError::general(format!(
                "verification FAILED: distributed fingerprint {fp:016x} != in-process {:016x}",
                reference.fingerprint()
            )));
        }
        s += "verified: distributed result is bit-identical to the in-process engine\n";
    }
    Ok(s)
}

/// Parses `--kill "rank@step[,rank@step…]"` planned SIGKILLs.
fn kills_of(p: &ParsedArgs) -> Result<Vec<(usize, u64)>, CmdError> {
    let Some(spec) = p.get_str("kill") else {
        return Ok(Vec::new());
    };
    let mut out = Vec::new();
    for clause in spec.split(',') {
        let parsed = clause.split_once('@').and_then(|(r, s)| {
            match (r.parse::<usize>(), s.parse::<u64>()) {
                (Ok(r), Ok(s)) => Some((r, s)),
                _ => None,
            }
        });
        match parsed {
            Some(t) => out.push(t),
            None => {
                return Err(CmdError::general(format!(
                    "bad --kill clause {clause:?} (want rank@step)"
                )))
            }
        }
    }
    Ok(out)
}

/// `mrbc checkpoint-info`: lists and fully validates (magic, version,
/// rank, length, CRC) every retained checkpoint for `--rank` in the
/// given directory. A truncated or corrupt file exits with status 3.
pub fn cmd_checkpoint_info(p: &ParsedArgs) -> Result<String, CmdError> {
    let dir = p
        .positional
        .first()
        .ok_or_else(|| CmdError::general("missing checkpoint directory argument"))?;
    let rank: u32 = p.get_or("rank", 0u32)?;
    let store = CheckpointStore::open(Path::new(dir), rank).map_err(ckpt_err)?;
    let steps = store.list_steps().map_err(ckpt_err)?;
    if steps.is_empty() {
        return Ok(format!("no checkpoints for rank {rank} in {dir}\n"));
    }
    let mut s = format!("rank {rank} checkpoints in {dir}:\n");
    for step in &steps {
        let payload = store.load(*step).map_err(ckpt_err)?;
        s += &format!(
            "  step {step:>6}: {} payload bytes, crc ok\n",
            payload.len()
        );
    }
    s += &format!(
        "newest durable boundary: step {}\n",
        // lint: allow(unwrap): steps is non-empty on this path
        steps.last().expect("non-empty")
    );
    Ok(s)
}
