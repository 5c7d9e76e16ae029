//! Behaviour of the shared framed connection (`mrbc_serve::conn`), seen
//! from outside through both daemons built on it:
//!
//! * requests written back-to-back before any read come back complete,
//!   in submission order, ids echoed;
//! * a session that never reads is not buffered for without bound,
//!   cannot delay another session, and leaves a healthy daemon behind;
//! * shutdown wakes idle sessions rather than waiting for them to poll;
//! * frames split across TCP writes, and several frames in one write,
//!   both decode.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use mrbc_core::BcConfig;
use mrbc_graph::{generators, CsrGraph};
use mrbc_obs::monotonic_us;
use mrbc_serve::proto::{decode_response, encode_request};
use mrbc_serve::{
    start, start_pool, Pool, PoolConfig, Request, Response, SchedConfig, ServeClient, ServeConfig,
    Server, TraceCtx, WorkerSpawn,
};
use mrbc_util::framing::{seal, EnvelopeDecoder};

const VERTICES: u32 = 256;

fn graph() -> CsrGraph {
    generators::rmat(generators::RmatConfig::new(8, 8), 97)
}

/// Room for every request a test pipelines: a shed `Busy` is answered
/// inline and would legitimately overtake queued work.
fn sched() -> SchedConfig {
    SchedConfig {
        queue_cap: 16_384,
        max_batch: 8,
    }
}

fn daemon() -> Server {
    let cfg = ServeConfig {
        sched: sched(),
        ..ServeConfig::default()
    };
    start(graph(), cfg).expect("daemon starts")
}

fn pool() -> Pool {
    let spawn = WorkerSpawn::InProcess {
        graph: graph(),
        bc: Box::new(BcConfig::default()),
        sched: sched(),
    };
    start_pool(spawn, PoolConfig::default()).expect("pool starts")
}

fn frame(id: u64, req: &Request) -> Vec<u8> {
    seal(&encode_request(id, TraceCtx::NONE, req))
}

fn hello() -> Request {
    Request::Hello { generation: 0 }
}

/// A raw protocol session: no client library between the test and the
/// bytes on the wire.
struct Raw {
    stream: TcpStream,
    dec: EnvelopeDecoder,
}

impl Raw {
    fn connect(addr: SocketAddr) -> Raw {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        Raw {
            stream,
            dec: EnvelopeDecoder::new(),
        }
    }

    fn greeted(addr: SocketAddr) -> Raw {
        let mut raw = Raw::connect(addr);
        raw.stream.write_all(&frame(1, &hello())).expect("hello");
        match raw.recv() {
            Some((1, Response::Welcome { .. })) => raw,
            other => panic!("expected Welcome, got {other:?}"),
        }
    }

    /// The next response, or `None` once the daemon has closed the
    /// connection (EOF, or a reset if unread bytes were in flight).
    fn recv(&mut self) -> Option<(u64, Response)> {
        let mut buf = [0u8; 4096];
        loop {
            if let Some(body) = self.dec.next_body().expect("valid envelope") {
                return Some(decode_response(&body).expect("valid response"));
            }
            match self.stream.read(&mut buf) {
                Ok(0) => return None,
                Ok(n) => self.dec.feed(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return None,
                Err(e) => panic!("read failed: {e}"),
            }
        }
    }
}

/// (a) `N` mixed queries in one write, nothing read until all are sent.
fn pipelined_requests_answer_in_order(addr: SocketAddr) {
    const N: u64 = 48;
    let mut raw = Raw::connect(addr);
    let mut bytes = frame(1, &hello());
    for id in 2..N + 2 {
        let v = id as u32 % VERTICES;
        let req = match id % 3 {
            0 => Request::BcScore { epoch: 0, v },
            1 => Request::PathInfo {
                epoch: 0,
                s: v,
                t: 0,
            },
            _ => Request::TopK { epoch: 0, k: 4 },
        };
        bytes.extend_from_slice(&frame(id, &req));
    }
    raw.stream.write_all(&bytes).expect("one write");

    for id in 1..N + 2 {
        let (rid, resp) = raw.recv().expect("a response per request");
        assert_eq!(rid, id, "responses follow submission order");
        let ok = match (id, id % 3) {
            (1, _) => matches!(resp, Response::Welcome { .. }),
            (_, 0) => matches!(resp, Response::BcValue { .. }),
            (_, 1) => matches!(resp, Response::PathInfo { .. }),
            _ => matches!(resp, Response::TopKList { .. }),
        };
        assert!(ok, "request {id} got {resp:?}");
    }
}

#[test]
fn daemon_answers_pipelined_requests_in_order() {
    let mut server = daemon();
    pipelined_requests_answer_in_order(server.local_addr());
    server.shutdown();
}

#[test]
fn pool_answers_pipelined_requests_in_order() {
    let mut pool = pool();
    pipelined_requests_answer_in_order(pool.local_addr());
    pool.shutdown();
}

/// (b) A greeted session keeps sending queries whose answers (~3 KB
/// each, ~90 MB for the whole flood) it never reads. The daemon must
/// stop taking its requests once the socket buffers and the session's
/// bounded writer queue are full — it may not buffer the flood — while
/// other sessions are served promptly throughout and after.
fn stalled_reader_is_bounded_and_delays_nobody(addr: SocketAddr) {
    const FLOOD: u64 = 30_000;
    let mut observer = ServeClient::connect(addr).expect("observer connects");
    let before = observer.stats().expect("stats").queries;

    let stalled = Raw::greeted(addr);
    let mut bytes = Vec::new();
    for id in 0..FLOOD {
        let req = Request::TopK {
            epoch: 0,
            k: VERTICES,
        };
        bytes.extend_from_slice(&frame(2 + id, &req));
    }
    // The daemon stops reading at some point, so this write may block
    // until the stream is shut down below.
    let mut flood_side = stalled.stream.try_clone().expect("clone");
    let flooder = std::thread::spawn(move || drop(flood_side.write_all(&bytes)));

    // Admission of the flood stops by itself, well short of its end.
    let mut admitted = 0;
    let mut settled_polls = 0;
    let deadline = monotonic_us() + 60_000_000;
    while settled_polls < 10 {
        std::thread::sleep(Duration::from_millis(50));
        let s = observer.stats().expect("stats stay available");
        let now = s.queries - before;
        settled_polls = if now == admitted && s.queue_depth == 0 {
            settled_polls + 1
        } else {
            0
        };
        admitted = now;
        assert!(monotonic_us() < deadline, "flood never settled");
    }
    assert!(admitted > 0, "the flood was never served at all");
    assert!(
        admitted < FLOOD / 2,
        "daemon took {admitted} of {FLOOD} requests from a session that reads nothing"
    );

    // With the stalled session still connected, a neighbour is served
    // without delay.
    let mut neighbour = ServeClient::connect(addr).expect("neighbour connects");
    for v in 0..10 {
        let t = monotonic_us();
        neighbour.bc_score(0, v).expect("neighbour is answered");
        let took_us = monotonic_us() - t;
        assert!(took_us < 2_000_000, "query took {took_us} us");
    }

    stalled
        .stream
        .shutdown(std::net::Shutdown::Both)
        .expect("stalled session leaves");
    flooder.join().expect("flooder ends");
    let mut fresh = ServeClient::connect(addr).expect("daemon still accepts");
    fresh.top_k(0, 3).expect("daemon still answers");
}

#[test]
fn daemon_is_not_delayed_by_a_session_that_never_reads() {
    let mut server = daemon();
    stalled_reader_is_bounded_and_delays_nobody(server.local_addr());
    server.shutdown();
}

#[test]
fn pool_is_not_delayed_by_a_session_that_never_reads() {
    let mut pool = pool();
    stalled_reader_is_bounded_and_delays_nobody(pool.local_addr());
    pool.shutdown();
}

/// (c) Eight greeted, idle sessions; `shutdown` must wake their blocked
/// readers instead of waiting for anything to time out.
fn idle_sessions_see_eof(mut sessions: Vec<Raw>, shutdown: impl FnOnce()) {
    let t = monotonic_us();
    shutdown();
    let took_us = monotonic_us() - t;
    assert!(
        took_us < 500_000,
        "shutdown took {took_us} us with {} idle sessions",
        sessions.len()
    );
    for (i, raw) in sessions.iter_mut().enumerate() {
        assert!(raw.recv().is_none(), "session {i} was not closed");
    }
}

#[test]
fn daemon_shutdown_wakes_idle_sessions() {
    let mut server = daemon();
    let sessions = (0..8).map(|_| Raw::greeted(server.local_addr())).collect();
    idle_sessions_see_eof(sessions, || server.shutdown());
}

#[test]
fn pool_shutdown_wakes_idle_sessions() {
    let mut pool = pool();
    let sessions = (0..8).map(|_| Raw::greeted(pool.local_addr())).collect();
    idle_sessions_see_eof(sessions, || pool.shutdown());
}

/// (d) Frame boundaries and TCP segment boundaries are unrelated.
#[test]
fn frames_split_or_coalesced_on_the_wire_both_decode() {
    let mut server = daemon();
    let mut raw = Raw::connect(server.local_addr());

    // One frame in two writes. The first half alone must produce no
    // answer; the pause lets it arrive as its own segment.
    let hello = frame(1, &hello());
    let (head, tail) = hello.split_at(hello.len() / 2);
    raw.stream.write_all(head).expect("first half");
    std::thread::sleep(Duration::from_millis(50));
    raw.stream.write_all(tail).expect("second half");
    assert!(matches!(raw.recv(), Some((1, Response::Welcome { .. }))));

    // Two frames in one write.
    let mut two = frame(2, &Request::BcScore { epoch: 0, v: 3 });
    two.extend_from_slice(&frame(3, &Request::TopK { epoch: 0, k: 2 }));
    raw.stream.write_all(&two).expect("two frames");
    assert!(matches!(raw.recv(), Some((2, Response::BcValue { .. }))));
    assert!(matches!(raw.recv(), Some((3, Response::TopKList { .. }))));
    server.shutdown();
}
