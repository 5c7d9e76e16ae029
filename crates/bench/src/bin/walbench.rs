//! Durability benchmark for the pool front-end's write-ahead log:
//! measures what an acknowledged-durable mutation costs and proves what
//! it actually buys —
//!
//! * **ack latency**: per-mutation `Mutated` round-trip percentiles
//!   (p50/p99) for a non-durable baseline pool and for WAL-backed pools
//!   at several flush intervals (0 = inline fsync per append, the
//!   pool's default; 5 ms = a group-commit window; 50 ms = worst-case
//!   batching);
//! * **zero lost acks**: after each durable case the pool is shut down
//!   and the log reopened cold; every acknowledged mutation must be
//!   recovered (`lost_acked = 0` — the contract `check-json` gates on);
//! * **bounded overhead**: at the 5 ms flush interval, durable ack p99
//!   must stay within 2× of the baseline p99 plus the group-commit
//!   window — the window is latency the design *spends* on purpose (one
//!   fsync amortizes every append inside it), so the budget charges it
//!   at face value and doubles the sum for scheduling slack.
//!
//! Run with: `cargo run --release -p mrbc-bench --bin walbench`
//! Pass `--json` to also emit a machine-readable `BENCH_wal.json`
//! (schema `mrbc-bench-wal-v1`), `--quick` for the three-case CI shape
//! (baseline, the default inline fsync, the 5 ms window).

use std::path::PathBuf;

use mrbc_bench::report::Table;
use mrbc_core::BcConfig;
use mrbc_graph::generators;
use mrbc_obs::json::JsonWriter;
use mrbc_serve::{
    start_pool, ClientConfig, DurableLog, MutateOp, PoolConfig, Request, Response, RetryClient,
    SchedConfig, WorkerSpawn,
};
use mrbc_util::stats::percentile;
use mrbc_util::wal::WalConfig;

struct Case {
    name: &'static str,
    /// `None` = non-durable baseline; `Some(ms)` = WAL group-commit
    /// window (0 = synchronous fsync per append).
    flush_ms: Option<u64>,
    mutations: usize,
}

struct Measurement {
    name: &'static str,
    flush_ms: Option<u64>,
    acked: u64,
    recovered: u64,
    lost_acked: u64,
    ack_p50_us: u64,
    ack_p99_us: u64,
}

/// The group-commit window the overhead budget is defined against (the
/// WAL's default window before inline fsync became the default).
const WINDOW_FLUSH_MS: u64 = 5;

/// Every case; `--quick` runs all but the 50 ms one, at 64 mutations.
fn cases(quick: bool) -> Vec<Case> {
    let case = |name, flush_ms, mutations| Case {
        name,
        flush_ms,
        mutations,
    };
    let mut all = vec![
        case("nodurable", None, 256),
        case("flush0-sync", Some(0), 256),
        case("flush5ms", Some(WINDOW_FLUSH_MS), 256),
        case("flush50ms", Some(50), 128),
    ];
    if quick {
        all.retain(|c| c.flush_ms != Some(50));
        all.iter_mut().for_each(|c| c.mutations = 64);
    }
    all
}

/// Deterministic mutation stream: edge (u, v) pairs over the probe
/// graph, alternating add/remove so the epoch keeps advancing.
fn probe_mutation(i: usize, n: u32) -> (MutateOp, u32, u32) {
    let bits = mrbc_util::splitmix64(i as u64 ^ 0x0077_a1b0);
    let u = (bits % u64::from(n)) as u32;
    let v = ((bits >> 32) % u64::from(n)) as u32;
    let op = if i.is_multiple_of(2) {
        MutateOp::AddEdge
    } else {
        MutateOp::RemoveEdge
    };
    (op, u, v)
}

/// One case: pool up (WAL-backed or not), a single client streams timed
/// mutations, pool down, then — for durable cases — reopen the log cold
/// and count how many acknowledged mutations actually survived.
fn run_case(case: &Case) -> Measurement {
    let wal_dir: Option<PathBuf> = case.flush_ms.map(|ms| {
        let d = std::env::temp_dir().join(format!(
            "mrbc-walbench-{}-{}-{}",
            case.name,
            ms,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("create wal dir");
        d
    });
    let g = generators::rmat(generators::RmatConfig::new(6, 8), 23);
    let n = g.num_vertices() as u32;
    let cfg = PoolConfig {
        workers: 2,
        wal_dir: wal_dir.clone(),
        wal_flush_ms: case.flush_ms.unwrap_or(0),
        wal_snapshot_every: 32,
        ..PoolConfig::default()
    };
    let spawn = WorkerSpawn::InProcess {
        graph: g,
        bc: Box::new(BcConfig::default()),
        sched: SchedConfig {
            queue_cap: 256,
            max_batch: 8,
        },
    };
    let mut pool = start_pool(spawn, cfg).expect("pool starts");
    let addr = pool.local_addr().to_string();

    let mut client = RetryClient::new(vec![addr], ClientConfig::default());
    let mut acked = 0u64;
    let mut lat_us: Vec<u64> = Vec::with_capacity(case.mutations);
    for i in 0..case.mutations {
        let (op, u, v) = probe_mutation(i, n);
        let t0 = mrbc_obs::monotonic_us();
        match client.call(&Request::Mutate { op, u, v }) {
            Ok(Response::Mutated { .. }) => {
                lat_us.push(mrbc_obs::monotonic_us().saturating_sub(t0));
                acked += 1;
            }
            other => panic!("mutation {i} failed: {other:?}"),
        }
    }
    pool.shutdown();

    // Cold recovery: reopen the log as a restarted front-end would and
    // count the mutations it hands back. Every ack the client saw must
    // be in there — this is the durability contract, measured.
    let recovered = match &wal_dir {
        Some(dir) => {
            let sync = WalConfig {
                flush_interval_ms: 0,
                ..WalConfig::default()
            };
            let (_log, rec) = DurableLog::open(dir, sync).expect("reopen wal");
            rec.mutations.len() as u64
        }
        // The baseline persists nothing; nothing was promised, nothing
        // is lost. `lost_acked` is 0 by definition, not by recovery.
        None => acked,
    };
    if let Some(dir) = &wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    lat_us.sort_unstable();
    Measurement {
        name: case.name,
        flush_ms: case.flush_ms,
        acked,
        recovered,
        lost_acked: acked.saturating_sub(recovered),
        ack_p50_us: percentile(&lat_us, 0.50),
        ack_p99_us: percentile(&lat_us, 0.99),
    }
}

/// The gate: at the 5 ms flush interval, durable ack p99 must be
/// ≤ 2 × (baseline p99 + the group-commit window). Returns the budget
/// so the report can print what was compared against what.
fn overhead_budget_us(ms: &[Measurement]) -> Option<(u64, u64)> {
    let baseline = ms.iter().find(|m| m.flush_ms.is_none())?;
    let durable = ms.iter().find(|m| m.flush_ms == Some(WINDOW_FLUSH_MS))?;
    let budget = 2 * (baseline.ack_p99_us + WINDOW_FLUSH_MS * 1_000);
    Some((durable.ack_p99_us, budget))
}

fn to_json(ms: &[Measurement], p99: u64, budget: u64, within_budget: bool) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string("mrbc-bench-wal-v1");
    w.key("cases");
    w.begin_array();
    for m in ms {
        w.begin_object();
        w.key("name");
        w.string(m.name);
        w.key("durable");
        w.boolean(m.flush_ms.is_some());
        w.key("flush_ms");
        w.number(m.flush_ms.unwrap_or(0));
        w.key("acked");
        w.number(m.acked);
        w.key("recovered");
        w.number(m.recovered);
        w.key("lost_acked");
        w.number(m.lost_acked);
        w.key("ack_p50_us");
        w.number(m.ack_p50_us);
        w.key("ack_p99_us");
        w.number(m.ack_p99_us);
        w.end_object();
    }
    w.end_array();
    w.key("default_flush_p99_us");
    w.number(p99);
    w.key("budget_p99_us");
    w.number(budget);
    w.key("within_budget");
    w.boolean(within_budget);
    w.end_object();
    w.finish()
}

fn main() {
    mrbc_obs::install("walbench");
    let json_out = std::env::args().any(|a| a == "--json");
    let quick = std::env::args().any(|a| a == "--quick");
    let mut tbl = Table::new(
        "wal durability: ack latency vs group-commit window, recovery completeness",
        &[
            "case",
            "durable",
            "flush",
            "acked",
            "recovered",
            "lost",
            "ack p50",
            "ack p99",
        ],
    );
    let mut measurements = Vec::new();
    for case in cases(quick) {
        let m = run_case(&case);
        tbl.row(vec![
            m.name.into(),
            if m.flush_ms.is_some() { "yes" } else { "no" }.into(),
            m.flush_ms.map_or("-".to_string(), |ms| format!("{ms}ms")),
            m.acked.to_string(),
            m.recovered.to_string(),
            m.lost_acked.to_string(),
            format!("{}us", m.ack_p50_us),
            format!("{}us", m.ack_p99_us),
        ]);
        measurements.push(m);
    }
    tbl.print();

    let lost: u64 = measurements.iter().map(|m| m.lost_acked).sum();
    let (p99, budget) = overhead_budget_us(&measurements).expect("baseline and window cases ran");
    let within_budget = p99 <= budget;
    println!(
        "\nlost counts acked mutations missing after cold recovery (must be 0:\n\
         every Mutated reply waits for its covering fsync); the overhead gate\n\
         compares {WINDOW_FLUSH_MS}ms-window ack p99 ({p99}us) against 2 x (baseline p99 +\n\
         {WINDOW_FLUSH_MS}ms window) = {budget}us — the window is latency group commit\n\
         spends on purpose, one fsync amortizing every append inside it."
    );
    if json_out {
        let doc = to_json(&measurements, p99, budget, within_budget);
        std::fs::write("BENCH_wal.json", &doc).expect("write BENCH_wal.json");
        println!("\nmachine-readable results written to BENCH_wal.json");
    }
    if lost > 0 || !within_budget {
        eprintln!("walbench: acceptance violated (lost acked mutations or overhead budget)");
        // lint: allow(exit): bench binary's CI gate — nonzero exit is the contract
        std::process::exit(1);
    }
}
