//! Incremental-maintenance benchmark for the serving tier's epoch
//! store: measures what the `mrbc-incr` engine actually saves over
//! drop-and-recompute, and proves the savings are real —
//!
//! * **mutation-to-fresh-epoch latency**: per-mutation `mutate` +
//!   `full_bc` round-trip percentiles (p50/p99) for an incrementally
//!   maintained store and for a baseline store with maintenance
//!   disabled (every mutation pays a full MRBC recompute);
//! * **reuse**: the fraction of per-source artifacts the engine kept
//!   bitwise-frozen across the mutation stream (the cone tests' yield),
//!   and the median affected-source fraction per mutation;
//! * **parity**: after the measured stream, the maintained BC vector is
//!   compared bit-for-bit against an offline recompute of the final
//!   graph — the bench refuses to report a speedup for wrong answers.
//!
//! Two graph shapes bound the design space: a power-law R-MAT graph
//! (skewed degrees, shallow BFS cones — the favourable case the gate
//! is defined against) and a road-network grid (large diameter, wide
//! cones — the adversarial case, reported but not gated).
//!
//! Run with: `cargo run --release -p mrbc-bench --bin incrbench`
//! Pass `--json` to also emit a machine-readable `BENCH_incr.json`
//! (schema `mrbc-bench-incr-v1`), `--quick` for the small CI shape.

use mrbc_bench::report::Table;
use mrbc_core::BcConfig;
use mrbc_graph::{generators, CsrGraph};
use mrbc_obs::json::JsonWriter;
use mrbc_serve::{EpochStore, IncrConfig, MutateOp};
use mrbc_util::stats::percentile;

struct Case {
    name: &'static str,
    graph: CsrGraph,
    /// Applied mutations timed on the incremental store.
    incr_mutations: usize,
    /// Applied mutations timed on the drop-and-recompute baseline
    /// (fewer: each one pays a full recompute).
    full_mutations: usize,
}

struct Measurement {
    name: &'static str,
    vertices: u64,
    edges: u64,
    mutations: u64,
    incr_p50_us: u64,
    incr_p99_us: u64,
    full_p50_us: u64,
    full_p99_us: u64,
    /// `full_p50_us / incr_p50_us` — the headline number.
    speedup: f64,
    /// `reused / (reused + rebuilt)` summed over the stream.
    reuse_ratio: f64,
    /// Median over mutations of `affected_sources / n`.
    affected_fraction_p50: f64,
}

fn cases(quick: bool) -> Vec<Case> {
    if quick {
        return vec![
            Case {
                name: "powerlaw-s6",
                graph: generators::rmat(generators::RmatConfig::new(6, 8), 23),
                incr_mutations: 24,
                full_mutations: 8,
            },
            Case {
                name: "road-6x10",
                graph: generators::grid_road_network(generators::RoadNetworkConfig::new(6, 10), 7),
                incr_mutations: 24,
                full_mutations: 8,
            },
        ];
    }
    vec![
        Case {
            name: "powerlaw-s8",
            graph: generators::rmat(generators::RmatConfig::new(8, 8), 23),
            incr_mutations: 48,
            full_mutations: 12,
        },
        Case {
            name: "road-12x24",
            graph: generators::grid_road_network(generators::RoadNetworkConfig::new(12, 24), 7),
            incr_mutations: 48,
            full_mutations: 12,
        },
    ]
}

/// Deterministic mutation stream over the probe graph, alternating
/// add/remove so the edge count stays roughly stable. Same derivation
/// as the pool's churn driver so numbers line up across harnesses.
fn probe_mutation(i: usize, n: u32) -> (MutateOp, u32, u32) {
    let bits = mrbc_util::splitmix64(i as u64 ^ 0x00c0_4e51);
    let u = (bits % u64::from(n)) as u32;
    let mut v = ((bits >> 32) % u64::from(n)) as u32;
    if u == v {
        v = (v + 1) % n;
    }
    let op = if i.is_multiple_of(2) {
        MutateOp::AddEdge
    } else {
        MutateOp::RemoveEdge
    };
    (op, u, v)
}

/// Streams mutations through `store` until `want` of them apply,
/// timing `mutate` + `full_bc` (mutation to queryable fresh epoch) for
/// each. Returns sorted latencies plus the maintenance tallies.
struct StreamResult {
    lat_us: Vec<u64>,
    reused: u64,
    rebuilt: u64,
    affected_fractions: Vec<f64>,
}

fn run_stream(store: &EpochStore, want: usize) -> StreamResult {
    let (n64, _) = store.graph_info();
    let n = n64 as u32;
    // Warm: the engine (when enabled) is built on the first full query,
    // exactly as a serving worker would experience it.
    let _ = store.full_bc();
    let mut out = StreamResult {
        lat_us: Vec::with_capacity(want),
        reused: 0,
        rebuilt: 0,
        affected_fractions: Vec::with_capacity(want),
    };
    let mut i = 0usize;
    while out.lat_us.len() < want {
        let (op, u, v) = probe_mutation(i, n);
        i += 1;
        let t0 = mrbc_obs::monotonic_us();
        let m = store.mutate(op, u, v);
        if !m.applied {
            continue;
        }
        let _ = store.full_bc();
        out.lat_us.push(mrbc_obs::monotonic_us().saturating_sub(t0));
        if let Some(o) = m.maintenance {
            out.reused += o.sources_reused;
            out.rebuilt += o.sources_rebuilt;
            out.affected_fractions
                .push(o.affected as f64 / f64::from(n.max(1)));
        }
    }
    out.lat_us.sort_unstable();
    out.affected_fractions
        .sort_by(|a, b| a.partial_cmp(b).expect("fractions are finite"));
    out
}

/// One case: the same graph behind two stores — incremental maintenance
/// on (the default serving path) and off (drop-and-recompute baseline)
/// — each fed the same deterministic stream. Ends with a bit-parity
/// audit of the maintained BC vector against an offline recompute.
fn run_case(case: Case) -> Measurement {
    let vertices = case.graph.num_vertices() as u64;
    let edges = case.graph.num_edges() as u64;
    let cfg = BcConfig::default();

    let incr_store = EpochStore::new(case.graph.clone(), cfg.clone());
    let incr = run_stream(&incr_store, case.incr_mutations);

    let baseline = EpochStore::with_incr(
        case.graph,
        cfg.clone(),
        IncrConfig {
            enabled: false,
            ..IncrConfig::default()
        },
    );
    let full = run_stream(&baseline, case.full_mutations);

    // Parity audit: the maintained vector must equal a from-scratch
    // recompute of the final mutated graph, bit for bit. A bench that
    // reports speedups for wrong answers is worse than no bench.
    let final_graph = incr_store.graph();
    let sources: Vec<u32> = (0..final_graph.num_vertices() as u32).collect();
    let offline = mrbc_core::bc(&final_graph, &sources, &cfg);
    let served = incr_store.full_bc();
    assert_eq!(served.len(), offline.bc.len(), "bc length diverged");
    for (v, (a, b)) in served.iter().zip(offline.bc.iter()).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "bc[{v}] diverged after maintenance: {a:?} vs {b:?}"
        );
    }

    let incr_p50 = percentile(&incr.lat_us, 0.50);
    let full_p50 = percentile(&full.lat_us, 0.50);
    let denom = incr.reused + incr.rebuilt;
    Measurement {
        name: case.name,
        vertices,
        edges,
        mutations: incr.lat_us.len() as u64,
        incr_p50_us: incr_p50,
        incr_p99_us: percentile(&incr.lat_us, 0.99),
        full_p50_us: full_p50,
        full_p99_us: percentile(&full.lat_us, 0.99),
        speedup: full_p50 as f64 / incr_p50.max(1) as f64,
        reuse_ratio: if denom == 0 {
            0.0
        } else {
            incr.reused as f64 / denom as f64
        },
        affected_fraction_p50: percentile(&incr.affected_fractions, 0.50),
    }
}

fn to_json(ms: &[Measurement], min_speedup: f64, within_budget: bool) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string("mrbc-bench-incr-v1");
    w.key("cases");
    w.begin_array();
    for m in ms {
        w.begin_object();
        w.key("name");
        w.string(m.name);
        w.key("vertices");
        w.number(m.vertices);
        w.key("edges");
        w.number(m.edges);
        w.key("mutations");
        w.number(m.mutations);
        w.key("incr_p50_us");
        w.number(m.incr_p50_us);
        w.key("incr_p99_us");
        w.number(m.incr_p99_us);
        w.key("full_p50_us");
        w.number(m.full_p50_us);
        w.key("full_p99_us");
        w.number(m.full_p99_us);
        w.key("speedup");
        w.float(m.speedup);
        w.key("reuse_ratio");
        w.float(m.reuse_ratio);
        w.key("affected_fraction_p50");
        w.float(m.affected_fraction_p50);
        w.end_object();
    }
    w.end_array();
    w.key("min_speedup");
    w.float(min_speedup);
    w.key("within_budget");
    w.boolean(within_budget);
    w.end_object();
    w.finish()
}

/// The gate is defined against the power-law case only: skewed-degree
/// graphs are what the serving tier targets, and the road grid exists
/// to show the adversarial bound, not to pass it. Requires median
/// speedup ≥ `min_speedup`, a nonzero reuse ratio (the cone tests must
/// actually prune), and a median affected-source fraction below half
/// the graph (otherwise "incremental" is a euphemism).
fn gate(ms: &[Measurement], min_speedup: f64) -> bool {
    ms.iter()
        .filter(|m| m.name.starts_with("powerlaw"))
        .all(|m| m.speedup >= min_speedup && m.reuse_ratio > 0.0 && m.affected_fraction_p50 < 0.5)
}

fn main() {
    mrbc_obs::install("incrbench");
    let json_out = std::env::args().any(|a| a == "--json");
    let quick = std::env::args().any(|a| a == "--quick");
    // The committed full-run baseline must clear 3x; the CI quick shape
    // runs tiny graphs where fixed costs eat the margin, so it gates at
    // 1.5x (still enough to catch a maintenance path that silently
    // degrades to recompute).
    let min_speedup = if quick { 1.5 } else { 3.0 };
    let mut tbl = Table::new(
        "incremental maintenance: mutation-to-fresh-epoch vs drop-and-recompute",
        &[
            "case",
            "verts",
            "edges",
            "muts",
            "incr p50",
            "full p50",
            "speedup",
            "reuse",
            "affected p50",
        ],
    );
    let mut measurements = Vec::new();
    for case in cases(quick) {
        let m = run_case(case);
        tbl.row(vec![
            m.name.into(),
            m.vertices.to_string(),
            m.edges.to_string(),
            m.mutations.to_string(),
            format!("{}us", m.incr_p50_us),
            format!("{}us", m.full_p50_us),
            format!("{:.1}x", m.speedup),
            format!("{:.2}", m.reuse_ratio),
            format!("{:.2}", m.affected_fraction_p50),
        ]);
        measurements.push(m);
    }
    tbl.print();

    let within_budget = gate(&measurements, min_speedup);
    println!(
        "\neach mutation is timed to a *queryable fresh epoch* (mutate + full_bc);\n\
         the incremental store rebuilds only cone-affected sources and re-folds,\n\
         the baseline recomputes every source. every case ends with a bit-parity\n\
         audit against an offline recompute, so the speedups above are for\n\
         answers identical to the slow path. gate (power-law case): speedup >=\n\
         {min_speedup:.1}x, reuse ratio > 0, median affected fraction < 0.5."
    );
    if json_out {
        let doc = to_json(&measurements, min_speedup, within_budget);
        std::fs::write("BENCH_incr.json", &doc).expect("write BENCH_incr.json");
        println!("\nmachine-readable results written to BENCH_incr.json");
    }
    if !within_budget {
        eprintln!("incrbench: acceptance violated (speedup, reuse, or affected-fraction gate)");
        // lint: allow(exit): bench binary's CI gate — nonzero exit is the contract
        std::process::exit(1);
    }
}
