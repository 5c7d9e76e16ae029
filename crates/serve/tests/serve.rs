//! End-to-end tests of the query service over real TCP.
//!
//! The acceptance contracts from the issue, verbatim:
//!
//! * **serving parity** — daemon answers are bit-identical to offline
//!   `mrbc_core::driver::bc` / `brandes::forward_counts` /
//!   `postprocess::top_k`, across at least two graph epochs;
//! * **batching observable** — ≥ 8 concurrent source-scoped queries
//!   produce *fewer* batches than queries (coalescing factor > 1);
//! * **overload graceful** — a burst larger than the queue yields
//!   structured `Busy` responses, no hangs, no panics, with a
//!   fault-plan-stalled worker holding the queue full;
//! * **chaos** — a client killed mid-stream (and a fault-injected
//!   hangup) leaves the daemon healthy for other clients.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mrbc_core::{bc, brandes, postprocess, BcConfig};
use mrbc_graph::{generators, CsrGraph, VertexId};
use mrbc_serve::{
    start, MutateOp, Request, Response, SchedConfig, ServeClient, ServeConfig, Server,
};

fn test_graph() -> CsrGraph {
    generators::rmat(generators::RmatConfig::new(6, 8), 97)
}

fn launch(graph: CsrGraph, sched: SchedConfig, faults: Option<&str>) -> Server {
    let cfg = ServeConfig {
        sched,
        faults: faults.map(|f| f.parse().expect("fault plan parses")),
        ..ServeConfig::default()
    };
    start(graph, cfg).expect("daemon starts")
}

fn offline_full_bc(g: &CsrGraph) -> Vec<f64> {
    let sources: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
    bc(g, &sources, &BcConfig::default()).bc
}

#[test]
fn serving_parity_across_two_epochs() {
    let g = test_graph();
    let n = g.num_vertices();
    let mut server = launch(g.clone(), SchedConfig::default(), None);
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    assert_eq!(client.welcome().epoch, 1);
    assert_eq!(client.welcome().vertices, n as u64);

    // Epoch 1: every answer must be bit-identical to the offline stack.
    let offline = offline_full_bc(&g);
    for v in [0u32, 1, (n / 2) as u32, (n - 1) as u32] {
        let (epoch, score) = client.bc_score(0, v).expect("bc(v)");
        assert_eq!(epoch, 1);
        assert_eq!(score.to_bits(), offline[v as usize].to_bits(), "bc({v})");
    }
    let (_, entries) = client.top_k(0, 10).expect("top_k");
    let want: Vec<(u32, f64)> = postprocess::top_k(&offline, 10);
    assert_eq!(entries, want);
    let (dist_ref, sigma_ref) = brandes::forward_counts(&g, 3);
    for t in [0u32, 7, (n - 1) as u32] {
        let (_, dist, sigma) = client.path_info(0, 3, t).expect("dist(s,t)");
        assert_eq!(dist, dist_ref[t as usize]);
        assert_eq!(sigma.to_bits(), sigma_ref[t as usize].to_bits());
    }
    let subset = [5u32, 9, 5, 1];
    let (_, scores) = client.subset_bc(0, &subset).expect("subset");
    assert_eq!(scores, bc(&g, &[1, 5, 9], &BcConfig::default()).bc);

    // Mutate: find an absent edge deterministically, add it.
    let (u, v) = (0..n as u32)
        .flat_map(|u| (0..n as u32).map(move |v| (u, v)))
        .find(|&(u, v)| u != v && !g.has_edge(u, v))
        .expect("some absent edge");
    let (epoch, applied) = client.mutate(MutateOp::AddEdge, u, v).expect("mutate");
    assert!(applied);
    assert_eq!(epoch, 2);

    // Epoch 2: parity against the mutated graph.
    let g2 = mrbc_graph::GraphBuilder::new(n)
        .edges(g.edges())
        .edge(u, v)
        .build();
    let offline2 = offline_full_bc(&g2);
    for probe in [u, v, 0] {
        let (epoch, score) = client.bc_score(0, probe).expect("bc after mutate");
        assert_eq!(epoch, 2);
        assert_eq!(score.to_bits(), offline2[probe as usize].to_bits());
    }
    let (_, entries2) = client.top_k(0, 5).expect("top_k epoch 2");
    assert_eq!(entries2, postprocess::top_k(&offline2, 5));
    let (dist2, sigma2) = brandes::forward_counts(&g2, u);
    let (_, d, s) = client.path_info(0, u, v).expect("dist epoch 2");
    assert_eq!(d, dist2[v as usize]);
    assert_eq!(s.to_bits(), sigma2[v as usize].to_bits());

    client.shutdown().expect("clean shutdown");
    server.wait();
}

#[test]
fn pinned_epoch_goes_stale_after_mutation() {
    let g = test_graph();
    let mut server = launch(g, SchedConfig::default(), None);
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    // A pin on the current epoch works.
    let (epoch, _) = client.bc_score(1, 0).expect("pinned query");
    assert_eq!(epoch, 1);
    // Pinning a future epoch is refused immediately.
    match client
        .call(&Request::BcScore { epoch: 99, v: 0 })
        .expect("call")
    {
        Response::Stale { requested, current } => {
            assert_eq!(requested, 99);
            assert_eq!(current, 1);
        }
        other => panic!("expected Stale, got {other:?}"),
    }
    // After a mutation the old pin is refused too.
    client.mutate(MutateOp::AddEdge, 0, 63).expect("mutate");
    match client
        .call(&Request::TopK { epoch: 1, k: 3 })
        .expect("call")
    {
        Response::Stale { requested, current } => {
            assert_eq!(requested, 1);
            assert_eq!(current, 2);
        }
        other => panic!("expected Stale, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert!(stats.stale_rejections >= 2, "stats: {stats:?}");
    server.shutdown();
}

#[test]
fn concurrent_source_queries_coalesce_into_fewer_batches() {
    let g = test_graph();
    // Stall the worker so concurrent submissions pile up in the queue
    // and the dispatcher has something to coalesce deterministically.
    let mut server = launch(
        g.clone(),
        SchedConfig {
            queue_cap: 64,
            max_batch: 8,
        },
        Some("stall:ms=60"),
    );
    let addr = server.local_addr();

    const CLIENTS: usize = 8;
    let mut handles = Vec::new();
    for i in 0..CLIENTS {
        handles.push(thread::spawn(move || {
            let mut c = ServeClient::connect(addr).expect("connect");
            let (_, dist, sigma) = c.path_info(0, i as u32, (i + 1) as u32).expect("dist");
            (dist, sigma)
        }));
    }
    let results: Vec<(u32, f64)> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    // Parity still holds per query.
    for (i, (dist, sigma)) in results.iter().enumerate() {
        let (dref, sref) = brandes::forward_counts(&g, i as u32);
        assert_eq!(*dist, dref[i + 1]);
        assert_eq!(sigma.to_bits(), sref[i + 1].to_bits());
    }

    let stats = server.stats();
    assert_eq!(stats.source_queries, CLIENTS as u64);
    assert!(
        stats.batches < CLIENTS as u64,
        "expected coalescing: {} batches for {CLIENTS} queries",
        stats.batches
    );
    assert!(
        stats.coalescing_factor() > 1.0,
        "factor {}",
        stats.coalescing_factor()
    );
    server.shutdown();
}

#[test]
fn overload_sheds_load_with_structured_busy() {
    let g = test_graph();
    // Tiny queue + a long worker stall: a burst must overflow admission.
    let mut server = launch(
        g,
        SchedConfig {
            queue_cap: 2,
            max_batch: 1,
        },
        Some("stall:ms=200"),
    );
    let addr = server.local_addr();

    const BURST: usize = 10;
    let busy = Arc::new(AtomicU64::new(0));
    let answered = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for i in 0..BURST {
        let busy = Arc::clone(&busy);
        let answered = Arc::clone(&answered);
        handles.push(thread::spawn(move || {
            let mut c = ServeClient::connect(addr).expect("connect");
            let resp = c
                .call(&Request::PathInfo {
                    epoch: 0,
                    s: i as u32,
                    t: 0,
                })
                .expect("call returns (no hang)");
            match resp {
                Response::Busy { queued, capacity } => {
                    assert_eq!(capacity, 2);
                    assert!(queued <= capacity);
                    busy.fetch_add(1, Ordering::Relaxed);
                }
                Response::PathInfo { .. } => {
                    answered.fetch_add(1, Ordering::Relaxed);
                }
                other => panic!("unexpected response {other:?}"),
            }
        }));
    }
    for h in handles {
        h.join().expect("no client hangs or panics");
    }
    let shed = busy.load(Ordering::Relaxed);
    let ok = answered.load(Ordering::Relaxed);
    assert_eq!(shed + ok, BURST as u64);
    assert!(shed > 0, "burst of {BURST} over capacity 2 must shed load");
    let stats = server.stats();
    assert_eq!(stats.busy_rejections, shed);
    server.shutdown();
}

#[test]
fn client_killed_mid_stream_leaves_daemon_healthy() {
    let g = test_graph();
    let mut server = launch(g.clone(), SchedConfig::default(), Some("stall:ms=50"));
    let addr = server.local_addr();

    // A raw socket that submits a queued query and slams the connection
    // shut before the worker can answer (reply channel dies mid-batch).
    {
        let mut victim = ServeClient::connect(addr).expect("victim connects");
        let req = mrbc_serve::proto::encode_request(
            7,
            mrbc_serve::proto::TraceCtx::NONE,
            &Request::PathInfo {
                epoch: 0,
                s: 1,
                t: 2,
            },
        );
        use std::io::Write;
        let mut raw: TcpStream = TcpStream::connect(addr).expect("raw connect");
        // Unsent handshake on `raw` is fine: the stream just dies.
        raw.write_all(&mrbc_util::framing::seal(&req))
            .expect("write");
        drop(raw);
        // The greeted victim also dies with a query in flight.
        victim
            .call(&Request::PathInfo {
                epoch: 0,
                s: 2,
                t: 3,
            })
            .ok();
        drop(victim);
    }

    // The daemon must still answer a fresh client, with parity intact.
    thread::sleep(Duration::from_millis(120));
    let mut c = ServeClient::connect(addr).expect("daemon still accepts");
    let (dref, _) = brandes::forward_counts(&g, 4);
    let (_, dist, _) = c.path_info(0, 4, 5).expect("daemon still answers");
    assert_eq!(dist, dref[5]);
    server.shutdown();
}

#[test]
fn hangup_fault_severs_the_targeted_session_only() {
    let g = test_graph();
    // Session #1 is severed by the plan right after its first response.
    let mut server = launch(g.clone(), SchedConfig::default(), Some("hangup:session=1"));
    let addr = server.local_addr();

    // The first session connects (handshake succeeds — that *is* the
    // first response) and then finds its connection gone.
    let severed = match ServeClient::connect(addr) {
        Ok(mut c) => c.bc_score(0, 0).is_err(),
        // Depending on timing the Welcome write may already race the
        // severed socket; either way the session must be dead.
        Err(_) => true,
    };
    assert!(severed, "session 1 must be severed by the fault plan");

    // Session #2 is untouched and gets parity-grade answers.
    let mut c2 = ServeClient::connect(addr).expect("session 2 connects");
    let offline = offline_full_bc(&g);
    let (_, score) = c2.bc_score(0, 0).expect("session 2 answers");
    assert_eq!(score.to_bits(), offline[0].to_bits());
    assert_eq!(server.stats().sessions, 2);
    server.shutdown();
}

#[test]
fn malformed_and_unshaken_requests_are_rejected() {
    let g = test_graph();
    let mut server = launch(g, SchedConfig::default(), None);
    let addr = server.local_addr();

    // A query before Hello is refused with a structured error.
    use std::io::{Read, Write};
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let req =
        mrbc_serve::proto::encode_request(1, mrbc_serve::proto::TraceCtx::NONE, &Request::Stats);
    raw.write_all(&mrbc_util::framing::seal(&req))
        .expect("write");
    let mut dec = mrbc_util::framing::EnvelopeDecoder::new();
    let mut buf = [0u8; 1024];
    let resp = loop {
        if let Some(body) = dec.next_body().expect("envelope") {
            break mrbc_serve::proto::decode_response(&body).expect("decode").1;
        }
        let n = raw.read(&mut buf).expect("read");
        assert!(n > 0, "daemon closed without answering");
        dec.feed(&buf[..n]);
    };
    match resp {
        Response::Error { message } => assert!(message.contains("handshake")),
        other => panic!("expected Error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn phase_histograms_are_real_without_a_recorder() {
    // No recorder is installed in this process, so `obs::now_us()` reads
    // 0; the phase stamps must come from the always-on monotonic clock.
    let g = test_graph();
    let mut server = launch(g, SchedConfig::default(), Some("stall:ms=20"));
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    for v in 0..4 {
        client.bc_score(0, v).expect("bc(v)");
    }
    let stats = client.stats().expect("stats");
    let total = stats.hist("serve.total_us").expect("total histogram");
    assert_eq!(total.count(), 4);
    // Each query sat out the 20 ms stall between admission and answer.
    assert!(
        total.percentile_bucket_lo(50) >= 8_192,
        "serve.total_us p50 bucket starts at {} us",
        total.percentile_bucket_lo(50)
    );
    server.shutdown();
}
