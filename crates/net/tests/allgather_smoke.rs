//! Transport-only soak: 50 back-to-back allgather rounds over a 4-rank
//! localhost TCP mesh, no SPMD program on top. Exercises the framing,
//! reliability, and — because each rank finishes at its own pace — the
//! orderly-goodbye path: the fastest rank must not destroy the final
//! round's payloads by closing its sockets before peers have read them.
//! Then a two-rank run shows that an established mesh never polls.

use std::net::SocketAddr;

use mrbc_net::mesh::{Mesh, MeshConfig};

#[test]
fn four_rank_allgather_loop() {
    let n = 4usize;
    let mut meshes: Vec<Mesh> = (0..n)
        .map(|r| Mesh::bind(&MeshConfig::localhost(r, n)).expect("bind"))
        .collect();
    let addrs: Vec<SocketAddr> = meshes.iter().map(|m| m.local_addr()).collect();
    std::thread::scope(|scope| {
        for (rank, mut mesh) in meshes.drain(..).enumerate() {
            let addrs = addrs.clone();
            scope.spawn(move || {
                mesh.connect(&addrs, 15_000).expect("establish");
                for step in 0..50u64 {
                    let payload = vec![rank as u8; (step as usize % 7) + 1];
                    let all = match mesh.allgather(step, payload, Some(10_000)) {
                        Ok(a) => a,
                        Err(e) => panic!("rank {rank} step {step}: {e} stats {:?}", mesh.stats),
                    };
                    assert_eq!(all.len(), n);
                    for (p, bytes) in all.iter().enumerate() {
                        assert_eq!(bytes.len(), (step as usize % 7) + 1, "len from {p}");
                        assert!(bytes.iter().all(|&b| b == p as u8), "step {step} from {p}");
                    }
                }
                mesh.goodbye();
            });
        }
    });
}

/// Once connected, a rank wakes only for a frame or a due deadline:
/// 1,000 back-to-back steps without a single idle wake-up.
#[test]
fn established_mesh_never_wakes_for_nothing() {
    let n = 2usize;
    let mut meshes: Vec<Mesh> = (0..n)
        .map(|r| Mesh::bind(&MeshConfig::localhost(r, n)).expect("bind"))
        .collect();
    let addrs: Vec<SocketAddr> = meshes.iter().map(|m| m.local_addr()).collect();
    std::thread::scope(|scope| {
        for (rank, mut mesh) in meshes.drain(..).enumerate() {
            let addrs = addrs.clone();
            scope.spawn(move || {
                mesh.connect(&addrs, 15_000).expect("establish");
                let idle_before = mesh.stats.idle_wakes;
                for step in 0..1_000u64 {
                    let all = mesh
                        .allgather(step, vec![rank as u8; 64], Some(10_000))
                        .expect("allgather");
                    assert_eq!(all[1 - rank], vec![(1 - rank) as u8; 64]);
                }
                assert_eq!(
                    mesh.stats.idle_wakes, idle_before,
                    "rank {rank} woke with nothing to do: {:?}",
                    mesh.stats
                );
                mesh.goodbye();
            });
        }
    });
}
