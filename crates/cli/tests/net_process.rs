//! Process-level tests of the multi-process substrate through the real
//! `mrbc-cli` binary: chaos runs (launch 4 workers, SIGKILL ranks
//! mid-forward, mid-backward and after a batch boundary, recover from
//! durable checkpoints, verify the result is bit-identical to the
//! in-process engine), the structured exit-code contract for corrupt
//! checkpoints, and the launcher's lifeline (a SIGKILLed launcher takes
//! every rank with it).

use std::path::PathBuf;
use std::process::{Command, Stdio};

use mrbc_core::dist::spmd::MrbcSpmd;
use mrbc_dgalois::spmd::{run_local, SpmdProgram};
use mrbc_dgalois::{partition, PartitionPolicy};
use mrbc_graph::{generators, io, sample};
use mrbc_net::CheckpointStore;

mod common;
use common::{alive, children_of, kill_all, within_ms};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mrbc-cli"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mrbc-netproc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

fn write_test_graph(dir: &std::path::Path) -> String {
    let g = generators::grid_road_network(generators::RoadNetworkConfig::new(3, 8), 7);
    let path = dir.join("graph.el").to_string_lossy().into_owned();
    io::write_edge_list_file(&g, &path).expect("write graph");
    path
}

/// The tentpole acceptance test: four real worker processes compute
/// dist-MRBC over localhost TCP, rank 1 is SIGKILLed mid-forward-phase
/// and respawned from its durable checkpoint, and the final BC result
/// (by fingerprint) is bit-identical to a fault-free in-process run.
#[test]
fn chaos_kill_recovers_to_bit_identical_result() {
    let dir = tmpdir("chaos");
    let graph = write_test_graph(&dir);
    let ckpts = dir.join("ckpts").to_string_lossy().into_owned();
    let out = bin()
        .args([
            "launch",
            &graph,
            "--ranks",
            "4",
            "--sources",
            "8",
            "--batch",
            "4",
            "--policy",
            "blocked",
            "--kill",
            "1@1",
            "--checkpoint-dir",
            &ckpts,
            "--timeout",
            "90000",
            "--verify",
        ])
        .output()
        .expect("run launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "launch failed:\n{stdout}\n{stderr}");
    assert!(stdout.contains("recoveries: 1"), "{stdout}");
    assert!(stdout.contains("consensus fingerprint:"), "{stdout}");
    assert!(
        stdout.contains("bit-identical to the in-process engine"),
        "{stdout}"
    );
    // Every rank completed; nobody degraded.
    for rank in 0..4 {
        assert!(
            stdout.contains(&format!("rank {rank}: completed")),
            "{stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery inside a backward phase and across a batch boundary. The
/// kill steps come from the same problem run in-process, by what
/// `describe` names each step boundary: rank 1 dies in batch 1's backward
/// round 3, so every rank restores a backward snapshot and derives its
/// agenda and parked δ; rank 2 dies in batch 2's first step. Both
/// recover, and the result is bit-identical to the in-process engine.
#[test]
fn kills_in_a_backward_phase_and_after_a_batch_boundary_recover() {
    let dir = tmpdir("backward");
    let graph = write_test_graph(&dir);
    let g = io::read_edge_list_file(&graph, None).expect("read graph");
    let dg = partition(&g, 4, PartitionPolicy::CartesianVertexCut);
    let sources = sample::contiguous_sources(g.num_vertices(), 8, 1);
    let mut prog = MrbcSpmd::new(&g, &dg, &sources, 4);
    let mut boundaries = Vec::new();
    while !prog.done() {
        boundaries.push(prog.describe(0));
        run_local(&mut prog, 1).expect("step");
    }
    let step_of = |tag: &str| boundaries.iter().position(|d| d == tag).expect(tag);
    let kills = format!(
        "1@{},2@{}",
        step_of("batch 1/2 backward round 3"),
        step_of("batch 2/2 forward round 1")
    );
    let ckpts = dir.join("ckpts").to_string_lossy().into_owned();
    let out = bin()
        .args([
            "launch",
            &graph,
            "--ranks",
            "4",
            "--sources",
            "8",
            "--batch",
            "4",
            "--kill",
            &kills,
            "--checkpoint-dir",
            &ckpts,
            "--timeout",
            "90000",
            "--verify",
        ])
        .output()
        .expect("run launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "launch failed:\n{stdout}\n{stderr}");
    assert!(stdout.contains("recoveries: 2"), "{stdout}");
    assert!(
        stdout.contains("bit-identical to the in-process engine"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two planned kills due at the same step: the second comes due while
/// the first rank's EOF is still pending, so it is held back rather than
/// fired into a recovery that waits for one corpse only. The run
/// recovers and stays bit-identical to the in-process engine.
#[test]
fn two_kills_at_one_step_recover_and_verify() {
    let dir = tmpdir("twokills");
    let graph = write_test_graph(&dir);
    let ckpts = dir.join("ckpts").to_string_lossy().into_owned();
    let out = bin()
        .args([
            "launch",
            &graph,
            "--ranks",
            "3",
            "--sources",
            "8",
            "--batch",
            "4",
            "--kill",
            "0@1,1@1",
            "--checkpoint-dir",
            &ckpts,
            "--timeout",
            "90000",
            "--verify",
        ])
        .output()
        .expect("run launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "launch failed:\n{stdout}\n{stderr}");
    assert!(
        stdout.contains("bit-identical to the in-process engine"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A clean 2-process run (the CI smoke shape): no kills, fingerprint
/// consensus, in-process parity.
#[test]
fn two_process_clean_run_verifies() {
    let dir = tmpdir("clean2");
    let graph = write_test_graph(&dir);
    let out = bin()
        .args([
            "launch",
            &graph,
            "--ranks",
            "2",
            "--sources",
            "8",
            "--batch",
            "4",
            "--timeout",
            "60000",
            "--verify",
        ])
        .output()
        .expect("run launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "launch failed:\n{stdout}\n{stderr}");
    assert!(stdout.contains("recoveries: 0"), "{stdout}");
    assert!(
        stdout.contains("bit-identical to the in-process engine"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The structured-error satellite: `checkpoint-info` on a truncated or
/// CRC-flipped checkpoint exits with the dedicated status code 3 and a
/// structured message, distinguishable from generic failures (1) and
/// usage errors (2).
#[test]
fn corrupt_checkpoints_exit_with_code_3() {
    let dir = tmpdir("ckpt3");
    let store = CheckpointStore::open(&dir, 0).expect("open store");
    store.save(5, b"precious replicated state").expect("save");
    let dir_s = dir.to_string_lossy().into_owned();
    let file = dir.join("ckpt-r0-s000000000005.bin");

    // Intact store: exit 0, the step is listed and validated.
    let out = bin()
        .args(["checkpoint-info", &dir_s])
        .output()
        .expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("step      5"), "{stdout}");
    assert!(stdout.contains("crc ok"), "{stdout}");

    // Truncated payload: exit 3, message says truncated.
    let good = std::fs::read(&file).expect("read");
    std::fs::write(&file, &good[..good.len() - 4]).expect("truncate");
    let out = bin()
        .args(["checkpoint-info", &dir_s])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("truncated checkpoint"), "{stderr}");

    // CRC-flipped payload byte: exit 3, message says checksum.
    let mut bad = good.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x40;
    std::fs::write(&file, &bad).expect("corrupt");
    let out = bin()
        .args(["checkpoint-info", &dir_s])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("checksum mismatch"), "{stderr}");

    // Contrast: a usage-level failure stays on exit 1, and a parse
    // error on exit 2 — corruption is its own signal.
    let out = bin().args(["checkpoint-info"]).output().expect("run");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let out = bin()
        .args(["checkpoint-info", &dir_s, "--rank"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The keep-last-2 fallback satellite: corrupt the NEWEST checkpoint's
/// CRC on disk and assert recovery proceeds from the older retained one
/// — the worker reports the older step to `RECOVER`, restores it on
/// `RESUME`, completes, and exits 0 (emphatically not the corrupt-
/// checkpoint code 3).
#[test]
fn corrupt_newest_checkpoint_recovers_from_older_with_exit_zero() {
    use std::io::{BufRead, BufReader, Write};
    use std::process::Stdio;

    let dir = tmpdir("ckpt-fallback");
    let graph = write_test_graph(&dir);
    let ckpts = dir.join("ckpts");
    let ckpts_s = ckpts.to_string_lossy().into_owned();

    let spawn_worker = || {
        bin()
            .args([
                "worker",
                &graph,
                "--ranks",
                "1",
                "--rank",
                "0",
                "--sources",
                "8",
                "--batch",
                "4",
                "--checkpoint-dir",
                &ckpts_s,
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn worker")
    };
    // Drives one worker process through the launcher control protocol:
    // waits for LISTEN, optionally probes RECOVER (returning the CKPT
    // line), resumes at `step`, and waits for completion.
    let drive = |mut child: std::process::Child, probe: bool, step: u64, epoch: u32| {
        let mut stdin = child.stdin.take().expect("stdin");
        let stdout = BufReader::new(child.stdout.take().expect("stdout"));
        let mut lines = stdout.lines();
        let mut addr = String::new();
        for line in &mut lines {
            let line = line.expect("read line");
            if let Some(a) = line.strip_prefix("LISTEN ") {
                addr = a.trim().to_string();
                break;
            }
        }
        assert!(!addr.is_empty(), "worker never printed LISTEN");
        let mut ckpt_line = String::new();
        if probe {
            writeln!(stdin, "RECOVER").expect("send RECOVER");
            for line in &mut lines {
                let line = line.expect("read line");
                if line.starts_with("CKPT ") {
                    ckpt_line = line;
                    break;
                }
            }
        }
        writeln!(stdin, "RESUME {step} {epoch} {addr}").expect("send RESUME");
        let mut done = false;
        for line in &mut lines {
            let line = line.expect("read line");
            if line.starts_with("DONE ") {
                done = true;
                break;
            }
        }
        assert!(done, "worker never completed");
        let status = child.wait().expect("wait");
        (ckpt_line, status)
    };

    // First run: a clean single-rank execution that leaves real durable
    // checkpoints (the newest KEEP_CHECKPOINTS steps) behind.
    let (_, status) = drive(spawn_worker(), false, 0, 1);
    assert!(status.success(), "clean run failed: {status:?}");
    let store = CheckpointStore::open(&ckpts, 0).expect("open store");
    let steps = store.list_steps().expect("list");
    assert_eq!(steps.len(), 2, "keep-last-2 retention, got {steps:?}");
    let (older, newest) = (steps[0], steps[1]);

    // Bit-rot the NEWEST checkpoint's payload (CRC now mismatches).
    let newest_file = ckpts.join(format!("ckpt-r0-s{newest:012}.bin"));
    let mut bytes = std::fs::read(&newest_file).expect("read ckpt");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&newest_file, &bytes).expect("corrupt ckpt");

    // Second run: RECOVER must report the OLDER (valid) boundary, and
    // resuming there must restore, re-execute, and complete with exit 0.
    let (ckpt_line, status) = drive(spawn_worker(), true, older, 2);
    assert_eq!(
        ckpt_line,
        format!("CKPT {older}"),
        "worker must skip the corrupt newest checkpoint"
    );
    assert!(
        status.success(),
        "recovery from the older checkpoint failed: {status:?}"
    );
    assert_ne!(
        status.code(),
        Some(3),
        "must not die with the corrupt-checkpoint code"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An empty checkpoint directory is not an error — there is just
/// nothing durable yet.
#[test]
fn empty_checkpoint_dir_reports_cleanly() {
    let dir = tmpdir("ckpt-empty");
    let dir_s = dir.to_string_lossy().into_owned();
    let out = bin()
        .args(["checkpoint-info", &dir_s, "--rank", "3"])
        .output()
        .expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no checkpoints for rank 3"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A SIGKILLed launcher leaves no rank behind: each rank's stdin is the
/// launcher's lifeline, so every rank reads EOF and exits within 1 s,
/// and the checkpoints they leave are whole (atomic write-rename).
#[test]
fn sigkill_of_the_launcher_takes_every_rank_with_it() {
    let dir = tmpdir("lifeline");
    // A solve of several seconds, so the kill lands mid-run.
    let g = generators::grid_road_network(generators::RoadNetworkConfig::new(16, 64), 7);
    let graph = dir.join("graph.el").to_string_lossy().into_owned();
    io::write_edge_list_file(&g, &graph).expect("write graph");
    let ckpts = dir.join("ckpts");
    let ckpts_s = ckpts.to_string_lossy().into_owned();
    let mut launcher = bin()
        .args([
            "launch",
            &graph,
            "--ranks",
            "3",
            "--sources",
            "64",
            "--batch",
            "4",
            "--checkpoint-dir",
            &ckpts_s,
            "--timeout",
            "90000",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn launch");

    // Mid-solve: all three ranks up and every one past its first
    // durable step boundary.
    let mut ranks = Vec::new();
    let running = within_ms(60_000, || {
        ranks = children_of(launcher.id());
        ranks.len() == 3
            && (0..3).all(|r| {
                CheckpointStore::open(&ckpts, r)
                    .and_then(|s| s.list_steps())
                    .is_ok_and(|steps| !steps.is_empty())
            })
    });
    assert!(running, "ranks {ranks:?} never checkpointed");
    assert!(
        launcher.try_wait().expect("poll launch").is_none(),
        "the solve finished before the kill"
    );
    launcher.kill().expect("SIGKILL the launcher");
    launcher.wait().expect("reap the launcher");

    let gone = within_ms(1_000, || ranks.iter().all(|&r| !alive(r)));
    kill_all(&ranks);
    assert!(gone, "ranks {ranks:?} outlived their launcher by 1 s");
    for rank in 0..3 {
        let out = bin()
            .args(["checkpoint-info", &ckpts_s, "--rank", &rank.to_string()])
            .output()
            .expect("run checkpoint-info");
        assert!(
            out.status.success(),
            "rank {rank}'s checkpoints do not validate: {out:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A rank that dies without a planned kill — SIGKILLed from outside
/// mid-solve — is recovered like a planned one: its EOF starts the
/// recovery, and the result stays bit-identical to the in-process run.
#[test]
fn an_unplanned_rank_death_is_recovered() {
    let dir = tmpdir("unplanned");
    let g = generators::grid_road_network(generators::RoadNetworkConfig::new(16, 64), 7);
    let graph = dir.join("graph.el").to_string_lossy().into_owned();
    io::write_edge_list_file(&g, &graph).expect("write graph");
    let ckpts = dir.join("ckpts");
    let ckpts_s = ckpts.to_string_lossy().into_owned();
    let launcher = bin()
        .args([
            "launch",
            &graph,
            "--ranks",
            "3",
            "--sources",
            "16",
            "--batch",
            "4",
            "--checkpoint-dir",
            &ckpts_s,
            "--timeout",
            "30000",
            "--verify",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn launch");
    let mut ranks = Vec::new();
    let running = within_ms(30_000, || {
        ranks = children_of(launcher.id());
        ranks.len() == 3
            && CheckpointStore::open(&ckpts, 1)
                .and_then(|s| s.list_steps())
                .is_ok_and(|steps| !steps.is_empty())
    });
    assert!(running, "ranks {ranks:?} never checkpointed");
    // Which pid is rank 1 does not matter: any rank's death is one.
    let status = Command::new("kill")
        .args(["-9", &ranks[1].to_string()])
        .status()
        .expect("kill");
    assert!(status.success());

    let out = launcher.wait_with_output().expect("launch exits");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "launch failed:\n{stdout}\n{stderr}");
    assert!(stdout.contains("recoveries: 1"), "{stdout}");
    assert!(
        stdout.contains("bit-identical to the in-process engine"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
