//! A daemon that has served many short sessions holds no more than one
//! that has served a few: the accept loop joins each session thread once
//! it has ended, not only at shutdown, so an ended connection keeps no
//! thread stack mapped. Every `mrbc query` call is one session.
//!
//! In a test binary of its own, so no other test's threads move the
//! process's mapping count.

#![cfg(target_os = "linux")]

use mrbc_graph::generators;
use mrbc_serve::{start, ServeClient, ServeConfig};

/// Lines of `/proc/self/maps`: one per mapping, and every live thread
/// holds at least its stack and that stack's guard page.
fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("procfs")
        .lines()
        .count()
}

#[test]
fn ended_sessions_leave_no_thread_stacks_behind() {
    let graph = generators::rmat(generators::RmatConfig::new(6, 8), 7);
    let server = start(graph, ServeConfig::default()).expect("daemon starts");
    let addr = server.local_addr();
    let session = || {
        let mut client = ServeClient::connect(addr).expect("connect");
        client.stats().expect("stats");
    };
    // Warm up: allocator arenas and the first stacks are mapped once.
    for _ in 0..20 {
        session();
    }
    let before = mappings();
    for _ in 0..300 {
        session();
    }
    let grown = mappings().saturating_sub(before);
    assert!(
        grown < 50,
        "300 ended sessions grew the process by {grown} mappings"
    );
}
