//! Process-level tests of the supervised serve-worker pool through the
//! real `mrbc-cli` binary: a pool of worker child processes behind the
//! front-end router, queried by real `mrbc query` client processes while
//! a fault clause SIGKILLs or freezes a worker mid-load. The CI
//! pool-chaos smoke job runs the same shapes. The lifecycle tests check
//! that no worker outlives its front-end: not a SIGKILLed one, and not
//! a `start_pool` that failed half-way.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use mrbc_graph::{generators, io};
use mrbc_serve::{PoolConfig, WorkerSpawn};

mod common;
use common::{alive, all_pids, children_of, kill_all, within_ms};

/// How long a freshly spawned server gets to print its readiness line.
const SERVE_READY_TIMEOUT_MS: u64 = 30_000;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mrbc-cli"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mrbc-poolproc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

fn write_test_graph(dir: &std::path::Path) -> String {
    let g = generators::rmat(generators::RmatConfig::new(6, 6), 19);
    let path = dir.join("graph.el").to_string_lossy().into_owned();
    io::write_edge_list_file(&g, &path).expect("write graph");
    path
}

/// Waits — bounded — for the child's `SERVE <addr>` readiness line.
///
/// A plain blocking read here wedges the whole test run if the child
/// hangs (or dies) before printing, which is exactly what a pool worker
/// crash at startup looks like. Instead a reader thread forwards the
/// line over a channel and this polls it against a deadline, failing
/// fast with the exit status when the child dies early.
fn wait_for_serve(child: &mut Child, what: &str) -> String {
    let stdout = child.stdout.take().expect("stdout");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { return };
            if let Some(a) = line.strip_prefix("SERVE ") {
                let _ = tx.send(a.trim().to_string());
                return;
            }
        }
    });
    let deadline_us = mrbc_obs::monotonic_us() + SERVE_READY_TIMEOUT_MS * 1_000;
    loop {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(addr) => return addr,
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                panic!(
                    "{what} closed stdout before printing SERVE (status: {:?})",
                    child.try_wait()
                );
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            // The line may still be in flight from the reader thread.
            if let Ok(addr) = rx.recv_timeout(Duration::from_millis(500)) {
                return addr;
            }
            panic!("{what} exited ({status}) before printing SERVE");
        }
        assert!(
            mrbc_obs::monotonic_us() < deadline_us,
            "{what} never printed SERVE within {SERVE_READY_TIMEOUT_MS} ms"
        );
    }
}

/// Starts `mrbc serve pool` and returns the child plus its front-end
/// address (read from the `SERVE <addr>` readiness line).
fn start_pool(graph: &str, extra: &[&str]) -> (Child, String) {
    let mut cmd = bin();
    cmd.args(["serve", "pool", graph, "--workers", "3"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn pool");
    let addr = wait_for_serve(&mut child, "serve pool");
    (child, addr)
}

fn stop_pool(mut child: Child, addr: &str) {
    let ok = bin()
        .args(["query", addr, "shutdown"])
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false);
    if !ok {
        // Fall back to the stdin QUIT channel.
        if let Some(stdin) = child.stdin.as_mut() {
            drop(writeln!(stdin, "QUIT"));
        }
    }
    let _ = child.wait();
}

/// A clean pool run answers exactly like a single daemon and accepts the
/// full query surface through real client processes.
#[test]
fn pool_serves_the_full_query_surface() {
    let dir = tmpdir("clean");
    let graph = write_test_graph(&dir);

    // Reference: a single-process daemon on the same graph.
    let (single, single_addr) = {
        let mut cmd = bin();
        cmd.args(["serve", &graph])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = cmd.spawn().expect("spawn daemon");
        let addr = wait_for_serve(&mut child, "serve daemon");
        (child, addr)
    };
    let (pool, pool_addr) = start_pool(&graph, &[]);

    // Identical bc / dist / subset answers, byte-for-byte on stdout
    // (scores print with enough digits that bit divergence would show).
    for args in [
        vec!["bc", "--v", "7"],
        vec!["top", "--k", "5"],
        vec!["dist", "--s", "3", "--t", "9"],
        vec!["subset", "--sources", "1,5,9,33,50"],
    ] {
        let from = |addr: &str| {
            let out = bin()
                .args(["query", addr])
                .args(&args)
                .output()
                .expect("query");
            assert!(out.status.success(), "query {args:?} failed: {out:?}");
            String::from_utf8_lossy(&out.stdout).into_owned()
        };
        assert_eq!(
            from(&single_addr),
            from(&pool_addr),
            "pool diverged from single daemon on {args:?}"
        );
    }

    stop_pool(pool, &pool_addr);
    stop_pool(single, &single_addr);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The chaos smoke: 3 workers, a fault clause SIGKILLs worker 0 under
/// query load, and every client process (driving with `--retries`)
/// still exits 0 with answers identical to the pre-kill ones.
#[test]
fn pool_chaos_kill_under_load_leaves_no_hung_or_failed_client() {
    let dir = tmpdir("chaos");
    let graph = write_test_graph(&dir);
    let (pool, addr) = start_pool(&graph, &["--faults", "kill:worker=0@query=2"]);

    // Baseline answer before the kill clause fires.
    let baseline = {
        let out = bin()
            .args(["query", &addr, "bc", "--v", "7", "--retries", "10"])
            .output()
            .expect("baseline query");
        assert!(out.status.success(), "baseline failed: {out:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    // Hammer the pool with concurrent client processes; the kill fires
    // once worker 0 has been routed its 2nd query. Every client must
    // exit 0 (absorbing any Retry via --retries) with the exact
    // baseline answer — no hangs, no corrupt responses.
    let mut clients = Vec::new();
    for _ in 0..8 {
        let child = bin()
            .args(["query", &addr, "bc", "--v", "7", "--retries", "30"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn client");
        clients.push(child);
    }
    for child in clients {
        let out = child.wait_with_output().expect("client output");
        assert!(
            out.status.success(),
            "client failed during chaos: {:?}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            baseline,
            "client observed a divergent BC score across failover"
        );
    }

    stop_pool(pool, &addr);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The running processes whose command line mentions `needle`.
fn running_with_arg(needle: &str) -> Vec<u32> {
    all_pids()
        .into_iter()
        .filter(|&p| {
            std::fs::read(format!("/proc/{p}/cmdline"))
                .is_ok_and(|c| String::from_utf8_lossy(&c).contains(needle))
                && alive(p)
        })
        .collect()
}

/// A SIGKILLed front-end takes its process workers with it: their stdin
/// is its lifeline, and the kernel closes it when the front-end dies.
#[test]
fn sigkill_of_the_front_end_leaves_no_worker() {
    let dir = tmpdir("orphan");
    let graph = write_test_graph(&dir);
    let mut front = bin()
        .args(["serve", "pool", &graph, "--workers", "2"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pool");
    wait_for_serve(&mut front, "serve pool");
    let workers = children_of(front.id());
    assert_eq!(workers.len(), 2, "two worker processes: {workers:?}");

    front.kill().expect("SIGKILL the front-end");
    front.wait().expect("reap the front-end");
    let gone = within_ms(1_000, || workers.iter().all(|&w| !alive(w)));
    kill_all(&workers);
    assert!(gone, "workers {workers:?} outlived their front-end by 1 s");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `start_pool` that fails on rank 1 tears down rank 0, which is
/// already up, instead of leaking it behind the error.
#[test]
fn a_failed_start_leaves_no_worker_behind() {
    let dir = tmpdir("failedstart");
    let graph = write_test_graph(&dir);
    let exe = env!("CARGO_BIN_EXE_mrbc-cli");
    let worker_graph = graph.clone();
    let spawn = WorkerSpawn::Process(Box::new(move |rank| {
        if rank == 1 {
            return Command::new("/nonexistent/worker");
        }
        let mut cmd = Command::new(exe);
        cmd.args(["serve", &worker_graph, "--port", "0"]);
        cmd
    }));
    let cfg = PoolConfig {
        workers: 2,
        ..PoolConfig::default()
    };
    let started = mrbc_serve::start_pool(spawn, cfg);
    assert!(started.is_err(), "rank 1 cannot start");
    let gone = within_ms(1_500, || running_with_arg(&graph).is_empty());
    let left = running_with_arg(&graph);
    kill_all(&left);
    assert!(gone, "rank 0 ({left:?}) outlived the failed start");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Starts a 2-worker `mrbc serve pool` with `extra` flags, its stdout
/// and stderr captured in files under `dir`; returns the child, its
/// address and the two file paths.
fn start_logged_pool(graph: &str, extra: &[&str], dir: &Path) -> (Child, String, PathBuf, PathBuf) {
    let (out, err) = (dir.join("pool.out"), dir.join("pool.err"));
    let child = bin()
        .args(["serve", "pool", graph, "--workers", "2"])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(std::fs::File::create(&out).expect("pool.out"))
        .stderr(std::fs::File::create(&err).expect("pool.err"))
        .spawn()
        .expect("spawn pool");
    let mut addr = None;
    within_ms(SERVE_READY_TIMEOUT_MS, || {
        let text = std::fs::read_to_string(&out).unwrap_or_default();
        addr = text
            .lines()
            .find_map(|l| Some(l.strip_prefix("SERVE ")?.trim().to_string()));
        addr.is_some()
    });
    let addr = addr.expect("serve pool never printed SERVE");
    (child, addr, out, err)
}

/// Runs six concurrent retrying `query bc` clients against a pool whose
/// worker 0 is frozen for `ms` at its first query; returns the pool's
/// final report and its stderr. Every client must exit 0.
fn pause_run(tag: &str, ms: u32) -> (String, String) {
    let dir = tmpdir(tag);
    let graph = write_test_graph(&dir);
    let plan = format!("pause:worker=0:ms={ms}");
    let (mut pool, addr, out, err) = start_logged_pool(&graph, &["--faults", &plan], &dir);
    let thawed_at = mrbc_obs::monotonic_us() + (u64::from(ms) + 500) * 1_000;
    let clients: Vec<Child> = (0..6)
        .map(|_| {
            bin()
                .args(["query", &addr, "bc", "--v", "7", "--retries", "30"])
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn client")
        })
        .collect();
    for client in clients {
        let done = client.wait_with_output().expect("client output");
        assert!(
            done.status.success(),
            "client failed under {plan}: {:?}\n{}",
            done.status,
            String::from_utf8_lossy(&done.stderr)
        );
    }
    // Stay up until the `SIGCONT` has fallen due, so it is sent (or
    // dropped) before shutdown discards it.
    within_ms(u64::from(ms) + 500, || {
        mrbc_obs::monotonic_us() >= thawed_at
    });
    let bye = bin()
        .args(["query", &addr, "shutdown"])
        .output()
        .expect("shutdown");
    assert!(bye.status.success(), "{bye:?}");
    assert!(pool.wait().expect("pool exits").success());
    let report = std::fs::read_to_string(out).expect("pool.out");
    let stderr = std::fs::read_to_string(err).expect("pool.err");
    let _ = std::fs::remove_dir_all(&dir);
    (report, stderr)
}

/// A freeze shorter than the dead verdict thaws on its `SIGCONT`: no
/// respawn, every client answered.
#[test]
fn a_short_pause_thaws_without_a_respawn() {
    let (report, _) = pause_run("pause300", 300);
    assert!(report.contains(" 0 respawns"), "{report}");
}

/// A freeze longer than the dead verdict (2,000 ms by default) gets the
/// worker killed and respawned; the `SIGCONT` that falls due afterwards
/// belongs to a torn-down generation and is dropped, so no signal ever
/// reaches a reaped pid.
#[test]
fn a_pause_past_the_dead_verdict_respawns_and_signals_no_reaped_pid() {
    let (report, stderr) = pause_run("pause3000", 3_000);
    assert!(report.contains(" 1 respawns"), "{report}");
    assert!(!stderr.contains("No such process"), "{stderr}");
}
