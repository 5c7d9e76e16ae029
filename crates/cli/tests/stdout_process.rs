//! The CLI's stdout contract through the real `mrbc-cli` binary: a
//! reader that has gone away (`mrbc info g | true`) ends the run
//! quietly, never with a panic.

use std::process::{Command, Stdio};

use mrbc_graph::{generators, io};

#[test]
fn a_closed_stdout_ends_the_report_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("mrbc-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let graph = dir.join("graph.el").to_string_lossy().into_owned();
    let g = generators::rmat(generators::RmatConfig::new(8, 8), 3);
    io::write_edge_list_file(&g, &graph).expect("write graph");

    let mut child = Command::new(env!("CARGO_BIN_EXE_mrbc-cli"))
        .args(["info", &graph])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn info");
    // Close the read end before the report can be written.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("info exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "panicked: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    let _ = std::fs::remove_dir_all(&dir);
}
