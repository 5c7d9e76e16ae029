//! The `mesh-tcp` workload: the SPMD solver with its ranks as threads
//! over the real `mrbc_net::mesh` on localhost (one op = one solve:
//! bind + connect + step loop), the substrate `mrbc launch` runs on.
//! Compute is milliseconds of each solve; framing, acks, heartbeats and
//! idle polling are the rest. Every solve must match the in-process
//! `run_local` twin bit for bit.

use std::net::SocketAddr;

use mrbc_core::dist::spmd::MrbcSpmd;
use mrbc_dgalois::spmd::{run_local, SpmdProgram};
use mrbc_dgalois::{partition, DistGraph, PartitionPolicy};
use mrbc_net::mesh::{Mesh, MeshConfig};
use mrbc_net::worker::{run_worker, ControlPlane, WorkerConfig, WorkerOutcome};

use crate::gen::Seeds;
use crate::stats::{self, Summary};
use crate::sys;
use crate::workload::{same_bits, Effort, Input, InputSpec, Pass};

/// Milliseconds a rank waits for its peers to connect.
const CONNECT_TIMEOUT_MS: u64 = 20_000;

/// What one solve produced: `(steps, fingerprint, scores)`.
type Solved = (u64, u64, Vec<f64>);

/// The reference: the same SPMD program stepped in one process.
fn solve_inproc(input: &Input, dg: &DistGraph) -> Result<Solved, String> {
    let mut prog = MrbcSpmd::new(&input.g, dg, &input.sources, input.batch);
    let steps = run_local(&mut prog, u64::MAX).map_err(|e| format!("run_local: {e}"))?;
    Ok((steps, prog.fingerprint(), prog.into_bc()))
}

/// Binds one mesh endpoint per rank on ephemeral localhost ports.
fn bind_all(ranks: usize) -> Result<(Vec<Mesh>, Vec<SocketAddr>), String> {
    let meshes = (0..ranks)
        .map(|rank| Mesh::bind(&MeshConfig::localhost(rank, ranks)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("mesh bind: {e}"))?;
    let addrs = meshes.iter().map(Mesh::local_addr).collect();
    Ok((meshes, addrs))
}

/// One solve over TCP, a thread per rank, as `netbench` drives it.
/// Returns rank 0's result; every rank must complete.
fn solve_tcp(input: &Input, dg: &DistGraph, op: usize) -> Result<Solved, String> {
    let _root = mrbc_obs::span("bench.op", "bench").arg("id", op as u64);
    let (meshes, addrs) = bind_all(dg.num_hosts)?;
    let results: Vec<Result<Solved, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = meshes
            .into_iter()
            .enumerate()
            .map(|(rank, mut mesh)| {
                let addrs = &addrs;
                scope.spawn(move || {
                    let _s = mrbc_obs::span_on("bench.mesh.run_worker", "bench", rank as u32);
                    mesh.connect(addrs, CONNECT_TIMEOUT_MS)
                        .map_err(|e| format!("rank {rank} connect: {e}"))?;
                    let mut prog = MrbcSpmd::new(&input.g, dg, &input.sources, input.batch);
                    let mut cfg = WorkerConfig::default();
                    let mut control = ControlPlane::headless();
                    match run_worker(&mut prog, &mut mesh, &mut cfg, &mut control) {
                        Ok(WorkerOutcome::Completed { steps, fingerprint }) => {
                            Ok((steps, fingerprint, prog.into_bc()))
                        }
                        other => Err(format!("rank {rank} did not complete: {other:?}")),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("rank thread panicked".into()))
            })
            .collect()
    });
    let mut first = None;
    for r in results {
        let solved = r?;
        first.get_or_insert(solved);
    }
    first.ok_or_else(|| "no ranks".to_string())
}

/// Median ms of binding and connecting the whole mesh with no program
/// behind it, over `reps` attempts.
fn bind_connect_ms(ranks: usize, reps: usize) -> Result<(f64, u64), String> {
    let mut ms = Vec::new();
    for _ in 0..reps {
        let t0 = sys::now_us();
        let (meshes, addrs) = bind_all(ranks)?;
        // Every endpoint stays open until all have connected: a rank
        // that hung up early would fail its peers' handshakes.
        let all_connected = std::sync::Barrier::new(ranks);
        let connected = std::thread::scope(|scope| {
            let handles: Vec<_> = meshes
                .into_iter()
                .map(|mut mesh| {
                    let (addrs, all_connected) = (&addrs, &all_connected);
                    scope.spawn(move || {
                        let ok = mesh.connect(addrs, CONNECT_TIMEOUT_MS).is_ok();
                        all_connected.wait();
                        ok
                    })
                })
                .collect();
            handles.into_iter().all(|h| h.join().unwrap_or(false))
        });
        if !connected {
            return Err("mesh connect failed".to_string());
        }
        ms.push(sys::secs_since(t0) * 1e3);
    }
    let s = Summary::of(&mut ms);
    Ok((s.median, s.n as u64))
}

/// Runs one pass: set-up (graph, sources, partition), TCP solves until the box is spent, each audited against the
/// in-process twin, then the twin's own time and the bare
/// bind + connect cost.
pub(crate) fn run(spec: &InputSpec, seeds: Seeds, effort: Effort) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let set_up = || {
        let input = spec.build(seeds);
        let dg = partition(&input.g, input.hosts, PartitionPolicy::CartesianVertexCut);
        (input, dg)
    };
    let t0 = sys::now_us();
    let (input, dg) = set_up();
    let first_setup_s = sys::secs_since(t0);

    let (twin_steps, twin_fp, twin_bc) = solve_inproc(&input, &dg)?;
    let mut errors: Vec<String> = Vec::new();
    pass.time_solves(effort, &mut |rep| match solve_tcp(&input, &dg, rep) {
        Ok((steps, fp, scores)) => {
            if steps != twin_steps || fp != twin_fp || !same_bits(&scores, &twin_bc) {
                errors.push(format!(
                    "solve {rep}: TCP result differs from the run_local twin \
                     (steps {steps} vs {twin_steps}, fingerprint {fp:#x} vs {twin_fp:#x})"
                ));
            }
        }
        Err(e) => errors.push(format!("solve {rep}: {e}")),
    });
    for e in errors {
        pass.problem(e);
    }

    pass.finish_setups(first_setup_s, effort, &mut || {
        std::hint::black_box(set_up());
        Ok(())
    })?;

    let tcp_s = pass.op_us.median / 1e6;
    pass.layers.put("mesh.steps", twin_steps as f64, 1);
    pass.layers.put_noted(
        "mesh.tcp_solve_s",
        tcp_s,
        pass.op_us.n as u64,
        pass.op_us.quartile_note(1e6),
    );
    let mut unit = |_rep: usize| {
        std::hint::black_box(solve_inproc(&input, &dg).is_ok());
    };
    let mut inproc_us = stats::timeboxed(200_000, 1, 2, &mut sys::now_us, &mut unit);
    let inproc = Summary::of(&mut inproc_us);
    let inproc_s = inproc.median / 1e6;
    pass.layers
        .put("mesh.inproc_solve_s", inproc_s, inproc.n as u64);
    pass.layers.put(
        "mesh.us_per_step",
        tcp_s * 1e6 / (twin_steps.max(1)) as f64,
        1,
    );
    pass.layers.put_noted(
        "mesh.slowdown_x",
        tcp_s / inproc_s.max(1e-12),
        1,
        "derived: base mesh.inproc_solve_s".into(),
    );
    let (bc_ms, reps) = bind_connect_ms(input.hosts, 3)?;
    pass.layers.put("mesh.bind_connect_ms", bc_ms, reps);
    Ok(pass)
}
