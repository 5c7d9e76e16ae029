//! The `serve-read` workload: closed-loop clients reading a warmed
//! single daemon over localhost TCP (one op = one query of the mix).
//! Every answer is cached, so the kernels do next to nothing and the
//! client → socket → session pump → scheduler → proto path does all of
//! it. Every reply is compared bit-for-bit with an offline recompute.

use std::net::SocketAddr;

use mrbc_core::{bc, brandes, postprocess, BcConfig};
use mrbc_graph::{sample, CsrGraph, VertexId};
use mrbc_serve::{SchedConfig, ServeClient, ServeConfig, Server};

use crate::gen::{Query, QueryMix, Seeds, TOP_K};
use crate::stats::{self, Summary};
use crate::sys;
use crate::workload::{tail_us, Effort, InputSpec, Pass};

/// Scheduler knobs of every daemon and pool worker perfbench starts
/// (the existing serve benches' values).
pub(crate) const SCHED: SchedConfig = SchedConfig {
    queue_cap: 256,
    max_batch: 8,
};

/// Offline answers to every query of the mix, computed from the graph
/// alone — never from the daemon under test.
pub(crate) struct Oracle {
    full: Vec<f64>,
    top: Vec<(VertexId, f64)>,
    forward: Vec<(Vec<u32>, Vec<f64>)>,
}

/// Every vertex's score, recomputed offline through the driver — what
/// a daemon's full-BC vector must equal bit for bit.
pub(crate) fn offline_scores(g: &CsrGraph) -> Vec<f64> {
    bc(
        g,
        &sample::all_sources(g.num_vertices()),
        &BcConfig::default(),
    )
    .bc
}

/// Warms a freshly started daemon or pool the way both serve workloads
/// do: the epoch's full-BC vector (which builds the incremental engine)
/// and the hot sources' forward artifacts.
pub(crate) fn warm(client: &mut ServeClient, hot: &[VertexId]) -> Result<(), String> {
    client.top_k(0, 1).map_err(|e| format!("warm top_k: {e}"))?;
    for &s in hot {
        client
            .path_info(0, s, 0)
            .map_err(|e| format!("warm path_info: {e}"))?;
    }
    Ok(())
}

impl Oracle {
    /// Recomputes every answer for `g` offline: the full-BC vector
    /// through the driver, forward artifacts per source through Brandes.
    pub(crate) fn of(g: &CsrGraph) -> Oracle {
        let n = g.num_vertices();
        let full = offline_scores(g);
        Oracle {
            top: postprocess::top_k(&full, TOP_K as usize),
            forward: (0..n as VertexId)
                .map(|s| brandes::forward_counts(g, s))
                .collect(),
            full,
        }
    }

    /// Sends `q` and checks the reply bit-for-bit. `false` on a socket
    /// error, a refusal (`Busy`/`Stale`/`Retry`/...) or a wrong answer.
    pub(crate) fn ask(&self, client: &mut ServeClient, q: Query) -> bool {
        let _call = mrbc_obs::span("bench.client.call", "bench");
        match q {
            Query::Bc(v) => client
                .bc_score(0, v)
                .is_ok_and(|(_, s)| s.to_bits() == self.full[v as usize].to_bits()),
            Query::TopK(k) => client.top_k(0, k).is_ok_and(|(_, got)| {
                got.len() == self.top.len()
                    && got
                        .iter()
                        .zip(&self.top)
                        .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
            }),
            Query::Path(s, t) => {
                let (dist, sigma) = &self.forward[s as usize];
                client.path_info(0, s, t).is_ok_and(|(_, d, sg)| {
                    d == dist[t as usize] && sg.to_bits() == sigma[t as usize].to_bits()
                })
            }
        }
    }
}

/// A started, warmed daemon with one connected client.
struct Warm {
    g: CsrGraph,
    hot: Vec<VertexId>,
    server: Server,
    client: ServeClient,
}

/// Set-up as a user pays it: generate the graph, start the daemon,
/// connect, and warm the epoch's full-BC vector and the hot sources'
/// forward artifacts.
fn set_up(spec: &InputSpec, seeds: Seeds) -> Result<Warm, String> {
    let input = spec.build(seeds);
    let cfg = ServeConfig {
        sched: SCHED,
        ..ServeConfig::default()
    };
    let server = mrbc_serve::start(input.g.clone(), cfg).map_err(|e| format!("start: {e}"))?;
    let mut client =
        ServeClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    warm(&mut client, &input.sources)?;
    Ok(Warm {
        g: input.g,
        hot: input.sources,
        server,
        client,
    })
}

/// One closed-loop client: queries until `deadline_us`, returning the
/// per-op latencies (µs), ops attempted and ops failed.
fn client_loop(
    client: &mut ServeClient,
    mix: &mut QueryMix,
    oracle: &Oracle,
    deadline_us: u64,
    tid: u32,
) -> (Vec<f64>, u64, u64) {
    let mut lat = Vec::new();
    let mut failed = 0u64;
    let mut op = 0u64;
    loop {
        let q = mix.next_query();
        let _root = mrbc_obs::span_on("bench.op", "bench", tid).arg("id", op);
        let t0 = sys::now_us();
        let ok = oracle.ask(client, q);
        let t1 = sys::now_us();
        lat.push(t1.saturating_sub(t0) as f64);
        op += 1;
        if !ok {
            failed += 1;
        }
        if t1 >= deadline_us {
            return (lat, op, failed);
        }
    }
}

/// Median µs of `count` calls of `call` (each timed on its own).
fn median_call_us(count: usize, call: &mut dyn FnMut() -> bool) -> (f64, u64, u64) {
    let mut us = Vec::with_capacity(count);
    let mut failed = 0;
    for _ in 0..count {
        let t0 = sys::now_us();
        if !call() {
            failed += 1;
        }
        us.push(sys::now_us().saturating_sub(t0) as f64);
    }
    (Summary::of(&mut us).median, count as u64, failed)
}

/// Runs one pass: set-up, phase A (1 client, half the
/// box: per-op latency), phase B (2 clients, the other half:
/// throughput), then the door probes (`connect`, `stats`) and the
/// daemon's own counters.
pub(crate) fn run(spec: &InputSpec, seeds: Seeds, effort: Effort) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let t0 = sys::now_us();
    let Warm {
        g,
        hot,
        mut server,
        mut client,
    } = set_up(spec, seeds)?;
    let first_setup_s = sys::secs_since(t0);
    let addr: SocketAddr = server.local_addr();
    let n = g.num_vertices() as u32;
    let oracle = Oracle::of(&g);
    let half_us = effort.box_us() / 2;

    // Phase A: one closed-loop client — the latency a lone caller sees.
    let mut mix = QueryMix::new(n, hot.clone(), seeds.ops);
    let (mut lat_a, ops_a, failed_a) =
        client_loop(&mut client, &mut mix, &oracle, sys::now_us() + half_us, 0);
    pass.attempted += ops_a;
    pass.failed += failed_a;
    pass.set_ops(&mut lat_a, 99.0);
    let (p99, p99_note) = tail_us(&lat_a, 99.0);
    pass.layers.put_noted(
        "query_p50_us",
        pass.op_us.median,
        ops_a,
        pass.op_us.quartile_note(1.0),
    );
    pass.layers.put_noted("query_p99_us", p99, ops_a, p99_note);

    // Phase B: two closed-loop clients — throughput with the daemon's
    // queue occupied.
    let t0 = sys::now_us();
    let deadline = t0 + half_us;
    let mut b_ops = 0u64;
    let mut connect_errors = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..=2u32)
            .map(|i| {
                let (oracle, hot) = (&oracle, hot.clone());
                scope.spawn(move || {
                    let mut mix = QueryMix::new(n, hot, seeds.ops.wrapping_add(u64::from(i)));
                    ServeClient::connect(addr)
                        .map(|mut c| client_loop(&mut c, &mut mix, oracle, deadline, i))
                })
            })
            .collect();
        for h in handles {
            match h.join().expect("client thread") {
                Ok((_, ops, failed)) => {
                    b_ops += ops;
                    pass.failed += failed;
                }
                Err(_) => connect_errors += 1,
            }
        }
    });
    pass.attempted += b_ops + connect_errors;
    pass.failed += connect_errors;
    pass.ops_per_s = b_ops as f64 / sys::secs_since(t0).max(1e-9);
    pass.layers.put("qps", pass.ops_per_s, b_ops);

    // The doors on their own: a fresh connection (TCP + Hello/Welcome),
    // and Stats, which the session thread answers without the scheduler.
    let (connect_us, reps, failed) = median_call_us(10, &mut || ServeClient::connect(addr).is_ok());
    pass.layers.put("client.connect_us", connect_us, reps);
    pass.attempted += reps;
    pass.failed += failed;
    let (stats_us, reps, failed) = median_call_us(60, &mut || client.stats().is_ok());
    pass.layers.put("server.stats_rtt_p50_us", stats_us, reps);
    pass.attempted += reps;
    pass.failed += failed;

    // The daemon's own counters. Its phase histograms read 0 unless a
    // recorder is installed (the server stamps jobs with obs::now_us).
    let st = server.stats();
    let p50 = |name: &str| {
        st.hist(name)
            .map_or(0.0, |h| h.percentile_bucket_lo(50) as f64)
    };
    let lower = "log2-bucket lower bound".to_string();
    for (metric, hist) in [
        ("sched.queue_us_p50", "serve.queue_us"),
        ("sched.exec_us_p50", "serve.exec_us"),
        ("sched.total_us_p50", "serve.total_us"),
    ] {
        pass.layers
            .put_noted(metric, p50(hist), st.queries, lower.clone());
    }
    pass.layers.put(
        "sched.coalescing_factor",
        st.coalescing_factor(),
        st.batches,
    );
    pass.layers
        .put("sched.busy_rejections", st.busy_rejections as f64, 1);
    pass.layers
        .put("sched.stale_rejections", st.stale_rejections as f64, 1);

    drop(client);
    server.shutdown();
    // A set-up's daemon shuts down when its `Warm` drops.
    pass.finish_setups(first_setup_s, effort, &mut || set_up(spec, seeds).map(drop))?;
    Ok(pass)
}

/// A framed TCP echo on localhost owned by the bench: the same envelope
/// and frame sizes as a query, no daemon behind it — the floor under
/// `query_p50_us`. Returns the median round trip in µs over `count`
/// exchanges.
pub(crate) fn loopback_echo_rtt_us(count: usize) -> Result<(f64, u64), String> {
    use mrbc_serve::proto::encode_request;
    use mrbc_serve::{Request, TraceCtx};
    use mrbc_util::framing::{self, EnvelopeDecoder};
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("echo bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("echo addr: {e}"))?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut buf = [0u8; 4096];
        loop {
            let n = s.read(&mut buf)?;
            if n == 0 {
                return Ok(());
            }
            s.write_all(&buf[..n])?;
        }
    });
    let io = |e: std::io::Error| format!("echo client: {e}");
    let mut s = TcpStream::connect(addr).map_err(io)?;
    s.set_nodelay(true).map_err(io)?;
    // Filler the size of a PathInfo request body, the mix's largest.
    let probe = Request::PathInfo {
        epoch: 0,
        s: 0,
        t: 0,
    };
    let body_len = encode_request(1, TraceCtx::NONE, &probe).len();
    let frame = framing::seal(&vec![0x5a; body_len]);
    let mut dec = EnvelopeDecoder::new();
    let mut buf = [0u8; 4096];
    let mut us = Vec::with_capacity(count);
    for _ in 0..count {
        let t0 = sys::now_us();
        s.write_all(&frame).map_err(io)?;
        loop {
            if dec
                .next_body()
                .map_err(|e| format!("echo frame: {e}"))?
                .is_some()
            {
                break;
            }
            let n = s.read(&mut buf).map_err(io)?;
            if n == 0 {
                return Err("echo peer closed".to_string());
            }
            dec.feed(&buf[..n]);
        }
        us.push(sys::now_us().saturating_sub(t0) as f64);
    }
    drop(s);
    echo.join()
        .map_err(|_| "echo thread panicked".to_string())?
        .map_err(|e| format!("echo server: {e}"))?;
    stats::sort(&mut us);
    Ok((stats::median(&us).unwrap_or(0.0), us.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn the_oracle_rejects_a_wrong_graph() {
        let spec = Workload::ServeRead.input_spec(true);
        let warm = set_up(&spec, Seeds::from_seed(3)).expect("set-up");
        let mut client = warm.client;
        let n = warm.g.num_vertices() as u32;
        // Against its own graph every score checks out ...
        let right = Oracle::of(&warm.g);
        assert!((0..n).all(|v| right.ask(&mut client, Query::Bc(v))));
        // ... against the same graph a few mutations later, not all do.
        let mut stream = crate::gen::MutationStream::new(&warm.g, 1);
        for _ in 0..8 {
            stream.next_mutation();
        }
        let wrong = Oracle::of(&stream.graph());
        assert!(!(0..n).all(|v| wrong.ask(&mut client, Query::Bc(v))));
    }

    #[test]
    fn echo_floor_is_measured() {
        let (us, n) = loopback_echo_rtt_us(50).expect("echo");
        assert_eq!(n, 50);
        assert!(us >= 0.0);
    }
}
