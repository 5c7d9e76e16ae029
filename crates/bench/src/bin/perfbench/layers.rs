//! Isolated layer measurements: each layer's public functions called
//! directly, on inputs that do not depend on which workload is being
//! traced, so a regression localises itself. ns-scale work is timed
//! over batches; µs-scale work per call.
//!
//! `store`/`incr` go through [`EpochStore`], the public door to the
//! incremental engine, on the serve workloads' graph.

use std::path::Path;
use std::sync::mpsc;

use mrbc_core::BcConfig;
use mrbc_dgalois::comm::{Exchange, PhaseDir, RoundComm};
use mrbc_dgalois::{partition, PartitionPolicy};
use mrbc_graph::{generators, GraphBuilder};
use mrbc_serve::proto::{decode_request, decode_response, encode_request, encode_response};
use mrbc_serve::sched::{Job, Scheduler};
use mrbc_serve::{DurableLog, EpochStore, MutateOp, Request, Response, TraceCtx};
use mrbc_util::framing::{self, EnvelopeDecoder};
use mrbc_util::wal::WalConfig;
use mrbc_util::{crc, DenseBitset, FlatMap};

use crate::gen::{MutationStream, Query, QueryMix, Rng, Seeds};
use crate::metrics::MetricSet;
use crate::serve_read::{loopback_echo_rtt_us, SCHED};
use crate::stats::{self, Summary};
use crate::sys::{self, Scratch};
use crate::workload::{tail_us, Input};

/// Batched timing of `op` over about `box_us` µs, summarized: the
/// median is ns per call.
fn timed_ns(batch: usize, box_us: u64, op: &mut dyn FnMut()) -> Summary {
    Summary::of(&mut stats::ns_per_call(batch, box_us, op))
}

/// Records the median ns per call of `op` under `name`.
fn ns(m: &mut MetricSet, name: &str, batch: usize, box_us: u64, op: &mut dyn FnMut()) {
    let s = timed_ns(batch, box_us, op);
    m.put_noted(name, s.median, s.n as u64, format!("batches of {batch}"));
}

/// The request/response pairs of `count` queries of the read mix.
fn mix_frames(input: &Input, seed: u64, count: usize) -> (Vec<Request>, Vec<Response>) {
    let n = input.g.num_vertices() as u32;
    let mut mix = QueryMix::new(n, input.sources.clone(), seed);
    (0..count)
        .map(|i| match mix.next_query() {
            Query::Bc(v) => (
                Request::BcScore { epoch: 0, v },
                Response::BcValue {
                    epoch: 1,
                    score: f64::from(v) * 0.5,
                },
            ),
            Query::TopK(k) => (
                Request::TopK { epoch: 0, k },
                Response::TopKList {
                    epoch: 1,
                    entries: (0..k).map(|j| (j, f64::from(j + i as u32))).collect(),
                },
            ),
            Query::Path(s, t) => (
                Request::PathInfo { epoch: 0, s, t },
                Response::PathInfo {
                    epoch: 1,
                    dist: t % 7,
                    sigma: f64::from(s),
                },
            ),
        })
        .unzip()
}

/// `proto`, `framing`, `crc`, `sched`, `dgalois::comm`, `util`: pure
/// in-memory calls, each boxed to `box_us` µs.
fn in_memory(m: &mut MetricSet, serve_input: &Input, seeds: Seeds, box_us: u64) {
    let (reqs, resps) = mix_frames(serve_input, seeds.ops, 256);
    let req_bodies: Vec<Vec<u8>> = reqs
        .iter()
        .map(|r| encode_request(7, TraceCtx::NONE, r))
        .collect();
    let resp_bodies: Vec<Vec<u8>> = resps.iter().map(|r| encode_response(7, r)).collect();
    let mut i = 0usize;
    let mut next = move || {
        i = (i + 1) % 256;
        i
    };
    ns(m, "proto.encode_request_ns", 2048, box_us, &mut || {
        std::hint::black_box(encode_request(7, TraceCtx::NONE, &reqs[next()]));
    });
    ns(m, "proto.decode_request_ns", 2048, box_us, &mut || {
        std::hint::black_box(decode_request(&req_bodies[next()]).is_ok());
    });
    ns(m, "proto.encode_response_ns", 2048, box_us, &mut || {
        std::hint::black_box(encode_response(7, &resps[next()]));
    });
    ns(m, "proto.decode_response_ns", 2048, box_us, &mut || {
        std::hint::black_box(decode_response(&resp_bodies[next()]).is_ok());
    });

    let body = [0xa5u8; 256];
    let mut dec = EnvelopeDecoder::new();
    ns(m, "framing.seal_open_ns", 1024, box_us, &mut || {
        dec.feed(&framing::seal(&body));
        std::hint::black_box(dec.next_body().is_ok());
    });

    let block = vec![0x3cu8; 64 << 10];
    let s = timed_ns(16, box_us, &mut || {
        std::hint::black_box(crc::crc32(std::hint::black_box(&block)));
    });
    // bytes per ns × 1e9 / 2^20 = MiB/s.
    m.put_noted(
        "crc.mb_per_s",
        block.len() as f64 / s.median.max(1e-9) * 1e9 / (1u64 << 20) as f64,
        s.n as u64,
        "64 KiB blocks".into(),
    );

    // Scheduler::submit + take_batch on one thread: eight queries in,
    // one full batch out.
    let sched = Scheduler::new(SCHED);
    let (tx, _rx) = mpsc::channel();
    let s = timed_ns(256, box_us, &mut || {
        for id in 0..SCHED.max_batch as u64 {
            let job = Job {
                session: 0,
                id,
                enqueued_us: 0,
                ctx: TraceCtx::NONE,
                req: Request::BcScore { epoch: 0, v: 0 },
                reply: tx.clone(),
            };
            std::hint::black_box(sched.submit(job).is_ok());
        }
        std::hint::black_box(sched.take_batch().len());
    });
    m.put_noted(
        "sched.submit_take_ns",
        s.median / SCHED.max_batch as f64,
        s.n as u64,
        "per job: 8 submits + 1 take_batch".into(),
    );

    // Exchange::send × N + finish over a 4-host partition.
    const ITEMS: usize = 4096;
    let g = generators::grid_road_network(generators::RoadNetworkConfig::new(8, 64), seeds.graph);
    let dg = partition(&g, 4, PartitionPolicy::CartesianVertexCut);
    let s = timed_ns(8, box_us, &mut || {
        let mut ex: Exchange<u64> = Exchange::new(4);
        for i in 0..ITEMS {
            ex.send(i % 4, (i / 4) % 4, i as u64, 16);
        }
        let mut comm = RoundComm::new(4);
        std::hint::black_box(ex.finish(&dg, PhaseDir::Reduce, &mut comm));
    });
    m.put_noted(
        "dgalois.exchange_ns_per_item",
        s.median / ITEMS as f64,
        s.n as u64,
        format!("{ITEMS} sends + finish, 4 hosts"),
    );

    // Set-bit iteration over DenseBitset, per 64-bit word scanned.
    const BITS: usize = 1 << 16;
    let mut rng = Rng::new(seeds.ops);
    for (name, per_mille) in [
        ("bitset.scan_sparse_ns_per_word", 10u32),
        ("bitset.scan_dense_ns_per_word", 500),
    ] {
        let mut bits = DenseBitset::new(BITS);
        for i in 0..BITS {
            if rng.below(1000) < per_mille {
                bits.set(i);
            }
        }
        let s = timed_ns(16, box_us, &mut || {
            std::hint::black_box(bits.iter_ones().sum::<usize>());
        });
        m.put_noted(
            name,
            s.median / (BITS / 64) as f64,
            s.n as u64,
            format!("{} % of {BITS} bits set", per_mille / 10),
        );
    }

    // FlatMap::get at the size of MRBC's distance -> sources map.
    let mut map: FlatMap<u32, u64> = FlatMap::new();
    for d in 0..32u32 {
        map.insert(d * 3, u64::from(d));
    }
    let mut key = 0u32;
    ns(m, "flat_map.get_ns", 4096, box_us, &mut || {
        key = (key + 7) % 96;
        std::hint::black_box(map.get(&key));
    });
}

/// Total bytes of the files in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|md| md.is_file())
                .map(|md| md.len())
                .sum()
        })
        .unwrap_or(0)
}

/// `wal`: `DurableLog::append_durable` called directly, under the
/// default 5 ms group-commit window and with fsync per append.
fn wal(m: &mut MetricSet, scratch: &Scratch, appends: usize) -> Result<(), String> {
    for (name, flush_ms) in [("wal.append_p50_us", 5u64), ("wal.append_sync_p50_us", 0)] {
        let dir = scratch
            .subdir("walbench")
            .map_err(|e| format!("wal dir: {e}"))?;
        let cfg = WalConfig {
            flush_interval_ms: flush_ms,
            ..WalConfig::default()
        };
        let (log, _) = DurableLog::open(&dir, cfg).map_err(|e| format!("wal open: {e}"))?;
        let before = dir_bytes(&dir);
        let mut us = Vec::with_capacity(appends);
        for i in 0..appends as u32 {
            let t0 = sys::now_us();
            log.append_durable(MutateOp::AddEdge, i, i + 1)
                .map_err(|e| format!("wal append: {e}"))?;
            us.push(sys::now_us().saturating_sub(t0) as f64);
        }
        let s = Summary::of(&mut us);
        m.put_noted(
            name,
            s.median,
            s.n as u64,
            format!("flush interval {flush_ms} ms"),
        );
        if flush_ms == 0 {
            m.put(
                "wal.bytes_per_record",
                dir_bytes(&dir).saturating_sub(before) as f64 / appends.max(1) as f64,
                appends as u64,
            );
        }
    }
    Ok(())
}

/// `store` / `incr`: an [`EpochStore`] on the serve graph, cold, then
/// hit, then driven through `mutations` mutations of the seeded stream.
fn store(m: &mut MetricSet, serve_input: &Input, seeds: Seeds, mutations: usize, box_us: u64) {
    let g = &serve_input.g;
    let n = g.num_vertices();
    let t0 = sys::now_us();
    let st = EpochStore::new(g.clone(), BcConfig::default());
    std::hint::black_box(st.full_bc());
    m.put("store.full_bc_cold_ms", sys::secs_since(t0) * 1e3, 1);
    ns(m, "store.full_bc_hit_ns", 4096, box_us, &mut || {
        std::hint::black_box(st.full_bc());
    });

    // First touch of each source is a miss (published from the engine),
    // every later touch a hit.
    let mut miss_us: Vec<f64> = (0..n as u32)
        .map(|s| {
            let t0 = sys::now_us();
            std::hint::black_box(st.forward(s));
            sys::now_us().saturating_sub(t0) as f64
        })
        .collect();
    let s = Summary::of(&mut miss_us);
    m.put("store.forward_miss_us", s.median, s.n as u64);
    let mut src = 0u32;
    ns(m, "store.forward_hit_ns", 4096, box_us, &mut || {
        src = (src + 1) % n as u32;
        std::hint::black_box(st.forward(src));
    });

    // What mutate does before the engine runs: one CSR rebuild.
    let mut rebuild_us = stats::timeboxed(box_us, 1, 5, &mut sys::now_us, &mut |_| {
        std::hint::black_box(GraphBuilder::new(n).edges(g.edges()).edge(0, 1).build());
    });
    let rebuild = Summary::of(&mut rebuild_us).median;

    let mut stream = MutationStream::new(g, seeds.ops);
    let mut us = Vec::with_capacity(mutations);
    let (mut reused, mut rebuilt, mut fallbacks) = (0u64, 0u64, 0u64);
    let mut affected: Vec<f64> = Vec::with_capacity(mutations);
    for _ in 0..mutations {
        let (op, u, v) = stream.next_mutation();
        let t0 = sys::now_us();
        let out = st.mutate(op, u, v);
        us.push(sys::now_us().saturating_sub(t0) as f64);
        if let Some(incr) = out.maintenance {
            reused += incr.sources_reused;
            rebuilt += incr.sources_rebuilt;
            fallbacks += u64::from(incr.fallback_full);
            affected.push(incr.affected as f64 / n as f64);
        }
    }
    let s = Summary::of(&mut us);
    let (p95, p95_note) = tail_us(&us, 95.0);
    m.put_noted(
        "store.mutate_p50_us",
        s.median,
        s.n as u64,
        s.quartile_note(1.0),
    );
    m.put_noted("store.mutate_p95_us", p95, s.n as u64, p95_note);
    m.put_noted(
        "incr.apply_p50_us",
        s.median - rebuild,
        s.n as u64,
        format!("derived: mutate p50 - one-edge rebuild ({rebuild:.0} us)"),
    );
    let maintained = affected.len() as u64;
    m.put(
        "incr.reuse_ratio",
        reused as f64 / (reused + rebuilt).max(1) as f64,
        maintained,
    );
    m.put(
        "incr.affected_fraction_p50",
        Summary::of(&mut affected).median,
        maintained,
    );
    m.put(
        "incr.fallback_share",
        fallbacks as f64 / maintained.max(1) as f64,
        maintained,
    );
    m.put_noted(
        "incr.artifact_bytes_computed",
        20.0 * (n * n) as f64,
        1,
        "computed: 20 B per (source, vertex), not measured".into(),
    );
}

/// How much of each isolated measurement to take.
#[derive(Clone, Copy)]
pub(crate) struct Depth {
    /// Box of each in-memory micro-measurement, µs.
    pub box_us: u64,
    /// Direct `append_durable` calls per flush setting.
    pub wal_appends: usize,
    /// Direct `EpochStore::mutate` calls.
    pub store_mutations: usize,
    /// Loopback echo round trips.
    pub echoes: usize,
}

impl Depth {
    /// The traced run's depth.
    pub(crate) const FULL: Depth = Depth {
        box_us: 50_000,
        wal_appends: 40,
        store_mutations: 200,
        echoes: 400,
    };
    /// The `--quick` depth.
    pub(crate) const QUICK: Depth = Depth {
        box_us: 2_000,
        wal_appends: 5,
        store_mutations: 20,
        echoes: 30,
    };
}

/// Every isolated layer measurement. `serve_input` is the serve
/// workloads' generated input (graph + hot sources).
pub(crate) fn isolated(
    serve_input: &Input,
    seeds: Seeds,
    depth: Depth,
) -> Result<MetricSet, String> {
    let mut m = MetricSet::default();
    in_memory(&mut m, serve_input, seeds, depth.box_us);
    let scratch = Scratch::create().map_err(|e| format!("scratch dir: {e}"))?;
    wal(&mut m, &scratch, depth.wal_appends)?;
    store(
        &mut m,
        serve_input,
        seeds,
        depth.store_mutations,
        depth.box_us,
    );
    let (echo_us, n) = loopback_echo_rtt_us(depth.echoes)?;
    m.put("loopback.echo_rtt_p50_us", echo_us, n);
    Ok(m)
}
