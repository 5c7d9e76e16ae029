//! Subcommand implementations, kept separate from `main` so they are unit
//! testable (each returns its report as a `String`).

use crate::args::ParsedArgs;
use mrbc_core::congest::mrbc::{directed_apsp, TerminationMode};
use mrbc_core::{bc, tune_batch_size, Algorithm, BcConfig};
use mrbc_dgalois::{partition, CostModel, PartitionPolicy};
use mrbc_faults::FaultPlan;
use mrbc_graph::generators::{
    self, KroneckerConfig, RmatConfig, RoadNetworkConfig, WebCrawlConfig,
};
use mrbc_graph::properties::GraphProperties;
use mrbc_graph::{algo, io, sample, CsrGraph};
use mrbc_obs::json::{self, Value};

/// Usage text for `mrbc help`.
pub const USAGE: &str = "\
mrbc — Min-Rounds Betweenness Centrality (PPoPP 2019 reproduction)

USAGE:
  mrbc generate <kind> --out <file> [--scale S] [--n N] [--seed X] [...]
      kinds: rmat kron ba ws er road webcrawl cycle path
  mrbc info <file> [--sources K] [--seed X]
  mrbc bc <file> [--algorithm mrbc|sbbc|mfbc|abbc|brandes] [--hosts H]
                 [--sources K] [--batch B] [--chunk C] [--top N] [--seed X]
                 [--csv out.csv] [--faults PLAN]
  mrbc apsp <file> [--mode 2n|finalizer|detect] [--sources K] [--seed X]
  mrbc tune <file> [--hosts H] [--candidates 8,16,32] [--pilot K] [--seed X]
  mrbc check-json <file>   validate an emitted --trace / --metrics /
                           bench / dist-check JSON document
  mrbc launch <file> --ranks N [--kill R@S,...] [--checkpoint-dir DIR]
                     [--sources K] [--batch B] [--seed X] [--policy P]
                     [--deadline MS] [--timeout MS] [--verify]
      run N real worker processes over localhost TCP; --kill SIGKILLs
      rank R at step S and recovers it from durable checkpoints
  mrbc worker <file> --rank R --ranks N [...]   one launched rank
      (normally spawned by `mrbc launch`, speaks the stdio control
      protocol; see `mrbc_net::launch` docs)
  mrbc checkpoint-info <dir> [--rank R]   validate a checkpoint directory
  mrbc serve <file> [--port P] [--addr A] [--hosts H] [--batch B]
                    [--queue Q] [--max-batch M] [--faults PLAN]
                    [--flight-dir D]
      long-running query daemon; prints \"SERVE <addr>\" when ready and
      runs until a client sends shutdown or QUIT arrives on stdin; stdin
      EOF keeps it serving unless a supervisor started it (a pool
      front-end), in which case it exits when its supervisor does
  mrbc serve pool <file> [--workers W] [--port P] [--addr A]
                    [--hosts H] [--batch B] [--queue Q] [--max-batch M]
                    [--retry-after MS] [--faults PLAN]
                    [--wal-dir DIR] [--wal-flush-ms MS]
                    [--trace-dir D] [--flight-dir D]
      supervised pool of W serve-worker child processes behind one
      front-end: source-range sharded routing, heartbeat failure
      detection, SIGKILL -> respawn -> mutation replay recovery; worker
      death surfaces as a structured Retry, never a hung client;
      each worker exits when the front-end does, even after kill -9
      --trace-dir D: each worker writes D/trace-worker-<rank>.json
      (combine with the front-end's own --trace and `mrbc obs merge`)
      --flight-dir D: dump the flight-recorder ring to D on panic,
      worker death, and every Retry emission
      --wal-dir DIR: every acknowledged mutation is fsynced into a
      write-ahead log in DIR before the ack leaves; a restart over DIR
      replays it to the exact pre-crash epoch (a log that cannot be
      opened exits 8). --wal-flush-ms MS is the group-commit window
      (default 5; 0 = fsync on every append)
  mrbc query <addr> <sub> [--epoch E] [--retries N] [...]
      subs: bc --v V | top --k K | dist --s S --t T
            subset --sources V,V,... | mutate --add U-V | --remove U-V
            stats | shutdown
      --epoch E pins the graph epoch (0 = current); a daemon-side
      mutation makes pinned queries exit 5
      --retries N absorbs pool Retry responses and transient socket
      failures with jittered backoff before giving up
  mrbc obs merge --out merged.json <frontend.json> <worker.json>...
      stitch per-process --trace timelines into one Perfetto document,
      aligning worker clocks from the pool's Hello-handshake probes
      (pass the front-end trace first: it holds the probes)
  mrbc obs last-flight [--dir D] [<file.mrfr>]
      print the most recent flight-recorder dump (written on panic,
      worker death, or any Retry response when --flight-dir
      was given to serve / serve pool)
  mrbc help

EXIT CODES:
  0 success   1 command failed   2 usage error
  3 corrupt or unreadable checkpoint (truncated file, CRC mismatch, ...)
  4 daemon busy (queue full; retry)   5 pinned epoch is stale
  6 pool is recovering (Retry exhausted; resend later)
  8 durability broken (the write-ahead log is corrupt or cannot be synced)

OBSERVABILITY (any command):
  --trace out.json    write a Chrome-trace / Perfetto timeline of the run
  --metrics out.json  write a metrics snapshot (counters, histograms, and
                      the Theorem 1 / Lemma 8 bound-probe report) and arm
                      the online invariant probes
  --verbose           live progress line on stderr (round, frontier,
                      sources settled, bytes)

FAULT PLANS (--faults):
  Semicolon-separated clauses, e.g. \"drop:p=0.01;delay:pair=0-3,rounds=2;seed=42\"
    drop:p=P               each message transmission is lost with probability P
    dup:p=P                each delivery is duplicated with probability P
    delay:pair=A-B,rounds=D  messages A->B arrive D rounds late
                           (bc masks drop/dup/delay: scores are bit-identical
                           to a clean run, only the overhead is reported)
    kill:worker=R@query=N  (serve pool) SIGKILL worker R after it has been
                           routed N queries; the supervisor respawns it
    pause:worker=R:ms=D    (serve pool) freeze worker R with SIGSTOP for
                           D ms once it has seen traffic, then SIGCONT
    torn:wal@rec=N         (serve pool, --wal-dir) the Nth WAL append is
                           half-written and the log poisoned
    fsyncfail:ms=D         (serve pool, --wal-dir) WAL fsyncs fail once D ms
                           of flush budget are spent; mutations exit 8
    churn:edges=K@seed=S   (serve pool) the front-end drives a seeded storm
                           of K edge mutations through its normal path
    hangup:session=N       (serve) the daemon severs its Nth accepted session
    stall:ms=D             (serve) the batch worker sleeps D ms per batch
    seed=S                 deterministic fault stream seed
";

/// Boolean switches `main` declares to the argument parser.
// NB: "v" must NOT be a switch — `query bc --v V` takes a vertex id,
// and a boolean `-v` would silently eat it (the query then defaults to
// vertex 0, which is exactly the bug this comment is a tombstone for).
pub const SWITCHES: &[&str] = &["verbose", "verify"];

/// Structured command failure: the message to print and the process
/// exit code the shell contract assigns it (1 = generic failure,
/// 3 = corrupt or unreadable checkpoint; 2 is reserved for usage
/// errors, raised by `main` on parse failure).
#[derive(Debug)]
pub struct CmdError {
    /// Human-readable failure description.
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

impl CmdError {
    /// A generic failure (exit code 1).
    pub fn general(message: impl Into<String>) -> Self {
        CmdError {
            message: message.into(),
            code: 1,
        }
    }

    /// A checkpoint-corruption failure (exit code 3).
    pub fn checkpoint(message: impl Into<String>) -> Self {
        CmdError {
            message: message.into(),
            code: 3,
        }
    }
}

impl From<String> for CmdError {
    fn from(message: String) -> Self {
        CmdError::general(message)
    }
}

impl std::fmt::Display for CmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CmdError {}

/// Writes `line` and a newline to stdout and flushes it, so a reader
/// blocked on it (a supervisor waiting for `SERVE` or `LISTEN`) sees it
/// now. A closed stdout comes back as the error, never as a panic.
pub fn emit_line(line: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::stdout().lock();
    writeln!(out, "{line}")?;
    out.flush()
}

/// Dispatches a parsed command line; returns the report to print.
pub fn run(p: &ParsedArgs) -> Result<String, CmdError> {
    let obs = ObsRun::begin(p);
    let result = match p.command.as_str() {
        "generate" => cmd_generate(p).map_err(CmdError::from),
        "info" => cmd_info(p).map_err(CmdError::from),
        "bc" => cmd_bc(p).map_err(CmdError::from),
        "apsp" => cmd_apsp(p).map_err(CmdError::from),
        "tune" => cmd_tune(p).map_err(CmdError::from),
        "check-json" => cmd_check_json(p).map_err(CmdError::from),
        "worker" => crate::netcmd::cmd_worker(p),
        "launch" => crate::netcmd::cmd_launch(p),
        "checkpoint-info" => crate::netcmd::cmd_checkpoint_info(p),
        "serve" => crate::servecmd::cmd_serve(p),
        "query" => crate::servecmd::cmd_query(p),
        "obs" => crate::obscmd::cmd_obs(p),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CmdError::general(format!(
            "unknown command {other:?}\n\n{USAGE}"
        ))),
    };
    obs.finish(result)
}

/// Per-invocation observability session: installs the global recorder
/// when `--trace` / `--metrics` ask for it, arms the bound probes for
/// metrics runs, and on completion writes the requested JSON exports.
struct ObsRun {
    trace: Option<String>,
    metrics: Option<String>,
    active: bool,
}

impl ObsRun {
    fn begin(p: &ParsedArgs) -> Self {
        let trace = p.get_str("trace").map(str::to_string);
        let metrics = p.get_str("metrics").map(str::to_string);
        let active = trace.is_some() || metrics.is_some();
        if active {
            mrbc_obs::install(&format!("mrbc {}", p.command));
            // Stamp the recorder with the OS pid so `obs merge` can
            // match this process's trace against the pool's clock
            // probes and flight dumps.
            mrbc_obs::set_pid(u64::from(std::process::id()));
            // Metrics runs validate the paper's bounds online; the trace
            // alone stays probe-free (probes cost oracle BFS time).
            mrbc_obs::set_probes(metrics.is_some());
        }
        mrbc_obs::set_verbose(p.has("verbose"));
        ObsRun {
            trace,
            metrics,
            active,
        }
    }

    fn finish(self, result: Result<String, CmdError>) -> Result<String, CmdError> {
        mrbc_obs::set_verbose(false);
        if !self.active {
            return result;
        }
        mrbc_obs::set_probes(false);
        let rec = mrbc_obs::uninstall();
        let mut out = result?;
        let rec = rec.ok_or_else(|| {
            CmdError::general(
                "observability is compiled out (mrbc-obs feature \"record\" disabled); \
                 --trace/--metrics cannot export",
            )
        })?;
        if let Some(path) = &self.trace {
            std::fs::write(path, rec.to_chrome_trace_json())
                .map_err(|e| CmdError::general(format!("cannot write {path}: {e}")))?;
            out += &format!(
                "trace timeline written to {path} ({} events)\n",
                rec.events().len()
            );
        }
        if let Some(path) = &self.metrics {
            std::fs::write(path, rec.to_metrics_json())
                .map_err(|e| CmdError::general(format!("cannot write {path}: {e}")))?;
            out += &format!("metrics snapshot written to {path}\n");
        }
        Ok(out)
    }
}

/// A gate on one element of a report's array: from the element's name,
/// the gated field and the array's floor, the failure text if it fails.
type Gate = (
    &'static str,
    fn(&str, Option<&Value>, f64) -> Option<String>,
);

/// An array `check-json` walks.
struct List {
    /// The array's key, then any name accepted in its place.
    keys: &'static [&'static str],
    /// What the summary counts its elements as (and, after a comma,
    /// what their all passing shows).
    counted_as: &'static str,
    /// A top-level number the gates compare against, and the summary's
    /// words for it.
    floor: Option<(&'static str, &'static str)>,
    /// Numbers every element must carry.
    needs: &'static [&'static str],
    /// The gates apply to elements whose name starts so (any name when
    /// empty); the failure text when no element does.
    only: (&'static str, &'static str),
    gates: &'static [Gate],
}

const CASES: List = List {
    keys: &["cases"],
    counted_as: "cases",
    floor: None,
    needs: &[],
    only: ("", ""),
    gates: &[],
};

/// A pass/fail flag a report carries about itself.
struct Verdict {
    /// Path to the flag; an optional verdict is read when the path's
    /// first key is present.
    at: &'static [&'static str],
    required: bool,
    /// Failure text when the flag is false.
    failed: &'static str,
    /// Failure text when it is not a flag.
    malformed: &'static str,
    /// The line a true flag adds to the output.
    held: &'static str,
}

const WITHIN_BUDGET: Verdict = Verdict {
    at: &["within_budget"],
    required: false,
    failed: "bench reports budget exceeded",
    malformed: "malformed within_budget field",
    held: "overhead budget: within bounds\n",
};

/// One kind of document `check-json` validates.
struct Schema {
    /// The tag the document must carry, or its prefix when this ends in
    /// `-`, under `schema` (under `otherData.schema` for `nested`).
    tag: &'static str,
    nested: bool,
    /// What failure texts call the document.
    noun: &'static str,
    /// Top-level keys that must be present; `Some` for a count, `true`
    /// where a count of zero means nothing was explored.
    top: &'static [(&'static str, Option<bool>)],
    lists: &'static [List],
    verdict: Option<Verdict>,
}

const BENCH: Schema = Schema {
    tag: "mrbc-bench-",
    nested: false,
    noun: "bench",
    top: &[],
    lists: &[List {
        keys: &["cases", "inputs"],
        ..CASES
    }],
    verdict: Some(WITHIN_BUDGET),
};

/// Every document kind, first match wins: `--metrics` and `--trace`
/// exports, `mrbc-analyze dist-check --json` reports (any recorded
/// violation, truncation or uncaught seeded bug fails), the two bench
/// reports with gates of their own, then any other `BENCH_*.json`.
const SCHEMAS: &[Schema] = &[
    Schema {
        tag: json::METRICS_SCHEMA,
        noun: "metrics",
        top: &[("counters", None), ("gauges", None), ("histograms", None)],
        lists: &[],
        verdict: Some(Verdict {
            at: &["bounds", "within_bounds"],
            required: false,
            failed: "bound probes report violations",
            malformed: "malformed bounds report",
            held: "bound probes: all invariants hold\n",
        }),
        ..BENCH
    },
    Schema {
        tag: json::TRACE_SCHEMA,
        nested: true,
        noun: "trace",
        lists: &[List {
            keys: &["traceEvents"],
            counted_as: "events",
            ..CASES
        }],
        verdict: None,
        ..BENCH
    },
    Schema {
        tag: "mrbc-analyze-dist-v1",
        noun: "dist-check",
        top: &[
            ("states_explored", Some(true)),
            ("invariants_checked", Some(true)),
            ("max_depth", Some(false)),
        ],
        lists: &[
            List {
                keys: &["models"],
                counted_as: "models clean",
                gates: &[
                    ("violation", |name, f, _| {
                        (!matches!(f, Some(Value::Null)))
                            .then(|| format!("model {name:?} records a violation"))
                    }),
                    ("truncated", |name, f, _| {
                        (f.and_then(Value::as_bool) != Some(false))
                            .then(|| format!("model {name:?} was truncated"))
                    }),
                ],
                ..CASES
            },
            List {
                keys: &["injections"],
                counted_as: "seeded bugs caught",
                gates: &[("caught", |name, f, _| {
                    (f.and_then(Value::as_bool) != Some(true))
                        .then(|| format!("seeded bug {name:?} was not caught"))
                })],
                ..CASES
            },
        ],
        verdict: None,
        ..BENCH
    },
    // BENCH_wal.json: a recovery that surfaced fewer mutations than
    // were acknowledged is a durability-contract breach, not a perf
    // regression, and the overhead verdict is mandatory.
    Schema {
        tag: "mrbc-bench-wal-v1",
        lists: &[List {
            gates: &[
                ("lost_acked", |name, f, _| match f.and_then(Value::as_u64) {
                    Some(0) => None,
                    Some(n) => Some(format!(
                        "case {name:?} lost {n} acked mutation(s) across recovery"
                    )),
                    None => Some(format!("case {name:?} missing lost_acked")),
                }),
            ],
            counted_as: "cases, zero lost acked mutations",
            ..CASES
        }],
        verdict: Some(Verdict {
            required: true,
            failed: "durability overhead budget exceeded",
            malformed: "missing or malformed within_budget",
            ..WITHIN_BUDGET
        }),
        ..BENCH
    },
    // BENCH_incr.json: the power-law case — the workload the serving
    // tier is designed for — must clear the report's own speedup floor
    // with a nonzero reuse ratio and a median affected-source fraction
    // below half the graph. An engine that reuses nothing has silently
    // degraded to drop-and-recompute; this gate makes that a CI failure.
    // Other cases are reported, not gated.
    Schema {
        tag: "mrbc-bench-incr-v1",
        lists: &[List {
            floor: Some(("min_speedup", "power-law speedup floor")),
            needs: &["speedup", "reuse_ratio", "affected_fraction_p50"],
            only: ("powerlaw", "no power-law case to gate on"),
            gates: &[
                ("speedup", |name, f, floor| {
                    let speedup = f.and_then(Value::as_f64)?;
                    (speedup < floor).then(|| {
                        format!("case {name:?} speedup {speedup:.2}x below the {floor:.1}x floor")
                    })
                }),
                ("reuse_ratio", |name, f, _| {
                    (f.and_then(Value::as_f64)? <= 0.0).then(|| {
                        format!(
                            "case {name:?} reused no per-source artifacts \
                             (maintenance degraded to full recompute)"
                        )
                    })
                }),
                ("affected_fraction_p50", |name, f, _| {
                    let affected = f.and_then(Value::as_f64)?;
                    (affected >= 0.5).then(|| {
                        format!(
                            "case {name:?} median affected-source fraction \
                             {affected:.2} is not incremental"
                        )
                    })
                }),
            ],
            ..CASES
        }],
        verdict: Some(Verdict {
            required: true,
            failed: "incremental speedup gate failed",
            malformed: "missing or malformed within_budget",
            ..WITHIN_BUDGET
        }),
        ..BENCH
    },
    BENCH,
];

/// `mrbc check-json <file>`: re-parse an emitted export and verify its
/// schema tag and shape against [`SCHEMAS`] — the hermetic validation
/// step the CI smoke test runs on `--trace` / `--metrics` output, and
/// the gate on every bench report.
fn cmd_check_json(p: &ParsedArgs) -> Result<String, String> {
    let path = p
        .positional
        .first()
        .ok_or_else(|| "missing JSON file argument".to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let top = v.get("schema").and_then(Value::as_str);
    let nested = v
        .get("otherData")
        .and_then(|o| o.get("schema"))
        .and_then(Value::as_str);
    let matched = SCHEMAS.iter().find_map(|s| {
        let tag = if s.nested { nested } else { top }?;
        let hit = tag == s.tag || (s.tag.ends_with('-') && tag.starts_with(s.tag));
        hit.then_some((s, tag))
    });
    let (schema, tag) = matched.ok_or_else(|| format!("{path}: unrecognized schema"))?;
    match validate(schema, tag, &v) {
        Ok(report) => Ok(format!("{path}: {report}")),
        Err(why) => Err(format!("{path}: {why}")),
    }
}

/// Walks `v` through one schema's checks, in the order the table lists
/// them; the report on success, the first failure otherwise.
fn validate(s: &Schema, tag: &str, v: &Value) -> Result<String, String> {
    let noun = s.noun;
    for &(key, count) in s.top {
        let missing = || format!("{noun} document missing {key:?}");
        let field = v.get(key).ok_or_else(missing)?;
        if let Some(nonzero) = count {
            if field.as_u64().ok_or_else(missing)? == 0 && nonzero {
                return Err(format!("{noun} explored nothing ({key} = 0)"));
            }
        }
    }
    let mut claims = Vec::new();
    for list in s.lists {
        let items = list
            .keys
            .iter()
            .find_map(|key| v.get(key))
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{noun} document missing {}", list.keys[0]))?;
        claims.push(format!("{} {}", items.len(), list.counted_as));
        let mut floor = 0.0;
        if let Some((key, words)) = list.floor {
            floor = v
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing or malformed {key}"))?;
            claims.push(format!("{words} {floor:.1}x"));
        }
        let mut gated = 0usize;
        for item in items {
            let name = item.get("name").and_then(Value::as_str).unwrap_or("?");
            for key in list.needs {
                if item.get(key).and_then(Value::as_f64).is_none() {
                    return Err(format!("case {name:?} missing {key}"));
                }
            }
            if !name.starts_with(list.only.0) {
                continue;
            }
            gated += 1;
            for (key, gate) in list.gates {
                if let Some(why) = gate(name, item.get(key), floor) {
                    return Err(why);
                }
            }
        }
        if gated == 0 && !list.only.1.is_empty() {
            return Err(list.only.1.to_string());
        }
    }
    let mut report = format!("valid {tag} document");
    if !claims.is_empty() {
        report += &format!(" ({})", claims.join(", "));
    }
    report.push('\n');
    if let Some(verdict) = &s.verdict {
        if verdict.required || v.get(verdict.at[0]).is_some() {
            let flag = verdict.at.iter().try_fold(v, |v, key| v.get(key));
            match flag.and_then(Value::as_bool) {
                Some(true) => report += verdict.held,
                Some(false) => return Err(verdict.failed.to_string()),
                None => return Err(verdict.malformed.to_string()),
            }
        }
    }
    Ok(report)
}

/// Builds a generator graph from CLI parameters (shared by `generate` and
/// the tests).
pub fn build_graph(kind: &str, p: &ParsedArgs) -> Result<CsrGraph, String> {
    let seed: u64 = p.get_or("seed", 42u64)?;
    let scale: u32 = p.get_or("scale", 10u32)?;
    let n: usize = p.get_or("n", 1usize << scale)?;
    let ef: usize = p.get_or("edge-factor", 8usize)?;
    Ok(match kind {
        "rmat" => generators::rmat(RmatConfig::new(scale, ef), seed),
        "kron" => generators::kronecker(KroneckerConfig::new(scale, ef), seed),
        "ba" => generators::barabasi_albert(n, p.get_or("attach", 3usize)?, seed),
        "ws" => {
            generators::watts_strogatz(n, p.get_or("k", 2usize)?, p.get_or("beta", 0.1f64)?, seed)
        }
        "er" => generators::erdos_renyi(n, p.get_or("p", 0.01f64)?, seed),
        "road" => generators::grid_road_network(
            RoadNetworkConfig::new(p.get_or("height", 4usize)?, p.get_or("width", 256usize)?),
            seed,
        ),
        "webcrawl" => generators::web_crawl(
            WebCrawlConfig {
                tail_length: p.get_or("tail", 40usize)?,
                ..WebCrawlConfig::new(n)
            },
            seed,
        ),
        "cycle" => generators::cycle(n),
        "path" => generators::path(n),
        other => return Err(format!("unknown graph kind {other:?}")),
    })
}

/// Parses a numeric flag that must be ≥ 1 (host counts, batch and chunk
/// sizes): a zero would panic deep inside the partitioner or worklist
/// machinery, and the CLI contract is to never panic on bad input.
fn positive(p: &ParsedArgs, key: &str, default: usize) -> Result<usize, String> {
    let v: usize = p.get_or(key, default)?;
    if v == 0 {
        return Err(format!("--{key} must be at least 1"));
    }
    Ok(v)
}

pub(crate) fn load(p: &ParsedArgs) -> Result<CsrGraph, String> {
    let path = p
        .positional
        .first()
        .ok_or_else(|| "missing graph file argument".to_string())?;
    io::read_edge_list_file(path, None).map_err(|e| format!("cannot read {path}: {e}"))
}

fn faults_of(p: &ParsedArgs) -> Result<Option<FaultPlan>, String> {
    match p.get_str("faults") {
        None => Ok(None),
        Some(spec) => spec
            .parse::<FaultPlan>()
            .map(Some)
            .map_err(|e| format!("bad --faults plan: {e}")),
    }
}

fn sources_of(p: &ParsedArgs, g: &CsrGraph) -> Result<Vec<u32>, String> {
    let k: usize = p.get_or("sources", 32usize)?;
    let seed: u64 = p.get_or("seed", 1u64)?;
    Ok(sample::contiguous_sources(g.num_vertices(), k, seed))
}

fn cmd_generate(p: &ParsedArgs) -> Result<String, String> {
    let kind = p
        .positional
        .first()
        .ok_or_else(|| "missing graph kind".to_string())?
        .clone();
    let out = p
        .get_str("out")
        .ok_or_else(|| "missing --out <file>".to_string())?
        .to_string();
    let g = build_graph(&kind, p)?;
    io::write_edge_list_file(&g, &out).map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(format!(
        "wrote {kind} graph: {} vertices, {} edges -> {out}\n",
        g.num_vertices(),
        g.num_edges()
    ))
}

fn cmd_info(p: &ParsedArgs) -> Result<String, String> {
    let g = load(p)?;
    let sources = sources_of(p, &g)?;
    let props = GraphProperties::measure(&g, &sources);
    Ok(format!(
        "vertices:           {}\n\
         edges:              {}\n\
         max out-degree:     {}\n\
         max in-degree:      {}\n\
         estimated diameter: {} (from {} sources)\n\
         classification:     {}\n\
         weakly connected:   {}\n\
         strongly connected: {}\n",
        props.num_vertices,
        props.num_edges,
        props.max_out_degree,
        props.max_in_degree,
        props.estimated_diameter,
        props.num_sources,
        if props.is_low_diameter() {
            "low-diameter (SBBC territory)"
        } else {
            "non-trivial diameter (MRBC territory)"
        },
        algo::is_weakly_connected(&g),
        algo::is_strongly_connected(&g),
    ))
}

fn cmd_bc(p: &ParsedArgs) -> Result<String, String> {
    let g = load(p)?;
    let sources = sources_of(p, &g)?;
    let algorithm = match p.get_str("algorithm").unwrap_or("mrbc") {
        "mrbc" => Algorithm::Mrbc,
        "sbbc" => Algorithm::Sbbc,
        "mfbc" => Algorithm::Mfbc,
        "abbc" => Algorithm::Abbc,
        "brandes" => Algorithm::Brandes,
        other => return Err(format!("unknown algorithm {other:?}")),
    };
    let faults = faults_of(p)?;
    let cfg = BcConfig {
        algorithm,
        num_hosts: positive(p, "hosts", 4)?,
        batch_size: positive(p, "batch", 32)?,
        chunk_size: positive(p, "chunk", BcConfig::default().chunk_size)?,
        faults,
        ..BcConfig::default()
    };
    let result = bc(&g, &sources, &cfg);
    let top: usize = p.get_or("top", 10usize)?;

    let mut out = format!(
        "{} on {} vertices / {} edges, {} sources, {} hosts\n\
         modeled execution time: {:.6}s (compute {:.6}s, comm {:.6}s)\n",
        algorithm.name(),
        g.num_vertices(),
        g.num_edges(),
        sources.len(),
        cfg.num_hosts,
        result.execution_time,
        result.computation_time,
        result.communication_time,
    );
    if let Some(stats) = &result.stats {
        out += &format!(
            "BSP rounds: {}   comm volume: {}   sync items: {}   imbalance: {:.2}\n",
            stats.num_rounds(),
            mrbc_util::stats::humanize_bytes(stats.total_bytes()),
            stats.total_sync_items(),
            stats.load_imbalance(),
        );
        if let Some(csv) = p.get_str("csv") {
            let f = std::fs::File::create(csv).map_err(|e| format!("cannot create {csv}: {e}"))?;
            stats
                .write_csv(std::io::BufWriter::new(f))
                .map_err(|e| format!("cannot write {csv}: {e}"))?;
            out += &format!("per-round CSV written to {csv}\n");
        }
    }
    if let Some(rec) = &result.recovery {
        out += &format!("{rec}\n");
    }
    out += &format!("top-{top} betweenness:\n");
    // The shared deterministic ranking (score desc, then vertex id asc)
    // keeps this table byte-identical to the serve daemon's `top_k`.
    for (v, score) in mrbc_core::postprocess::top_k(&result.bc, top) {
        out += &format!("  {v:>8}  {score:.3}\n");
    }
    Ok(out)
}

fn cmd_apsp(p: &ParsedArgs) -> Result<String, String> {
    let g = load(p)?;
    let mode = match p.get_str("mode").unwrap_or("detect") {
        "2n" => TerminationMode::FixedTwoN,
        "finalizer" => TerminationMode::Finalizer,
        "detect" => TerminationMode::GlobalDetection,
        other => return Err(format!("unknown mode {other:?}")),
    };
    let sources = if mode == TerminationMode::Finalizer {
        (0..g.num_vertices() as u32).collect()
    } else {
        sources_of(p, &g)?
    };
    let out = directed_apsp(&g, &sources, mode);
    let mut s = format!(
        "directed APSP ({:?}) over {} sources\n\
         forward rounds:   {}\n\
         forward messages: {}\n\
         message bits:     {}\n",
        mode,
        out.sources_sorted.len(),
        out.forward.rounds,
        out.forward.messages,
        out.forward.bits,
    );
    if let Some(d) = out.diameter {
        s += &format!("directed diameter (Algorithm 4): {d}\n");
    }
    Ok(s)
}

fn cmd_tune(p: &ParsedArgs) -> Result<String, String> {
    let g = load(p)?;
    let hosts = positive(p, "hosts", 4)?;
    let pilot_k = positive(p, "pilot", 32)?;
    let seed: u64 = p.get_or("seed", 1u64)?;
    let candidates: Vec<usize> = p
        .get_str("candidates")
        .unwrap_or("8,16,32,64")
        .split(',')
        .map(|x| x.trim().parse().map_err(|_| format!("bad candidate {x:?}")))
        .collect::<Result<_, _>>()?;
    let dg = partition(&g, hosts, PartitionPolicy::CartesianVertexCut);
    let pilot = sample::contiguous_sources(g.num_vertices(), pilot_k, seed);
    let outcome = tune_batch_size(&g, &dg, &pilot, &candidates, &CostModel::default());
    let mut s = String::from("batch-size autotuning (modeled time per source):\n");
    for smp in &outcome.samples {
        let marker = if smp.batch_size == outcome.best_batch_size {
            "  <-- best"
        } else {
            ""
        };
        s += &format!(
            "  k = {:>4}: {:>10.6}s, {:.1} rounds/source{marker}\n",
            smp.batch_size, smp.time_per_source, smp.rounds_per_source
        );
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn sv(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    fn tmpfile(name: &str) -> String {
        let dir = std::env::temp_dir().join("mrbc_cli_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_and_unknown_command() {
        let p = parse(&sv(&["help"]), &[]).expect("parse");
        assert!(run(&p).expect("help").contains("USAGE"));
        let p = parse(&sv(&["frobnicate"]), &[]).expect("parse");
        assert!(run(&p).is_err());
    }

    #[test]
    fn generate_info_bc_roundtrip() {
        let file = tmpfile("cli_rt.el");
        let p = parse(
            &sv(&[
                "generate", "rmat", "--out", &file, "--scale", "7", "--seed", "3",
            ]),
            &[],
        )
        .expect("parse");
        let msg = run(&p).expect("generate");
        assert!(msg.contains("128 vertices"));

        let p = parse(&sv(&["info", &file, "--sources", "8"]), &[]).expect("parse");
        let info = run(&p).expect("info");
        assert!(info.contains("vertices:           128"), "{info}");

        let p = parse(
            &sv(&[
                "bc",
                &file,
                "--algorithm",
                "mrbc",
                "--hosts",
                "2",
                "--sources",
                "8",
                "--top",
                "3",
            ]),
            &[],
        )
        .expect("parse");
        let rep = run(&p).expect("bc");
        assert!(rep.contains("MRBC on 128 vertices"), "{rep}");
        assert!(rep.contains("BSP rounds"), "{rep}");
    }

    #[test]
    fn apsp_and_tune_commands() {
        let file = tmpfile("cli_cycle.el");
        let g = generators::cycle(24);
        io::write_edge_list_file(&g, &file).expect("write");

        let p = parse(&sv(&["apsp", &file, "--mode", "finalizer"]), &[]).expect("parse");
        let rep = run(&p).expect("apsp");
        assert!(rep.contains("forward rounds"), "{rep}");

        let p = parse(
            &sv(&[
                "tune",
                &file,
                "--hosts",
                "2",
                "--candidates",
                "2,4",
                "--pilot",
                "6",
            ]),
            &[],
        )
        .expect("parse");
        let rep = run(&p).expect("tune");
        assert!(rep.contains("<-- best"), "{rep}");
    }

    #[test]
    fn bc_csv_flag_writes_per_round_series() {
        let file = tmpfile("cli_csv.el");
        let csv = tmpfile("cli_rounds.csv");
        io::write_edge_list_file(&generators::cycle(16), &file).expect("write");
        let p = parse(
            &sv(&["bc", &file, "--hosts", "2", "--sources", "4", "--csv", &csv]),
            &[],
        )
        .expect("parse");
        let rep = run(&p).expect("bc");
        assert!(rep.contains("per-round CSV"), "{rep}");
        let text = std::fs::read_to_string(&csv).expect("csv exists");
        assert!(text.starts_with("round,total_work"), "{text}");
        assert!(text.lines().count() > 2);
    }

    #[test]
    fn every_generator_kind_builds() {
        for kind in [
            "rmat", "kron", "ba", "ws", "er", "road", "webcrawl", "cycle", "path",
        ] {
            let p =
                parse(&sv(&["generate", kind, "--scale", "6", "--n", "50"]), &[]).expect("parse");
            let g = build_graph(kind, &p).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(g.num_vertices() > 0, "{kind} built an empty graph");
        }
    }

    #[test]
    fn bc_with_faults_reports_overhead_and_matches_clean_scores() {
        let file = tmpfile("cli_faults.el");
        io::write_edge_list_file(&generators::barabasi_albert(80, 2, 7), &file).expect("write");
        let base = &["bc", &file, "--hosts", "3", "--sources", "8", "--top", "3"];
        let clean = run(&parse(&sv(base), &[]).expect("parse")).expect("clean bc");

        let mut argv = base.to_vec();
        argv.extend_from_slice(&["--faults", "drop:p=0.05;seed=42"]);
        let faulty = run(&parse(&sv(&argv), &[]).expect("parse")).expect("faulty bc");
        assert!(faulty.contains("fault overhead:"), "{faulty}");
        // Masking is exact, so the top-N table is byte-identical.
        let tail = |s: &str| s[s.find("top-3").unwrap()..].to_string();
        assert_eq!(tail(&clean), tail(&faulty));
    }

    #[test]
    fn bad_fault_plans_are_reported() {
        let file = tmpfile("cli_badplan.el");
        io::write_edge_list_file(&generators::cycle(8), &file).expect("write");
        let p = parse(&sv(&["bc", &file, "--faults", "explode:now"]), &[]).expect("parse");
        assert!(run(&p).unwrap_err().message.contains("bad --faults plan"));
        // No in-process crash simulation exists: a `crash:` clause is an
        // unknown fault kind, refused rather than silently ignored.
        let p = parse(&sv(&["bc", &file, "--faults", "crash:host=0@round=1"]), &[]).expect("parse");
        let err = run(&p).unwrap_err().message;
        assert!(
            err.contains("bad --faults plan") && err.contains("unknown fault kind"),
            "{err}"
        );
    }

    #[test]
    fn bc_trace_and_metrics_exports_validate() {
        let _guard = mrbc_obs::test_mutex().lock().unwrap();
        let file = tmpfile("cli_obs.el");
        let trace = tmpfile("cli_obs_trace.json");
        let metrics = tmpfile("cli_obs_metrics.json");
        io::write_edge_list_file(&generators::rmat(RmatConfig::new(6, 5), 9), &file)
            .expect("write");
        let p = parse(
            &sv(&[
                "bc",
                &file,
                "--hosts",
                "2",
                "--sources",
                "8",
                "--verbose",
                "--trace",
                &trace,
                "--metrics",
                &metrics,
            ]),
            SWITCHES,
        )
        .expect("parse");
        let rep = run(&p).expect("bc with obs");
        assert!(rep.contains("trace timeline written"), "{rep}");
        assert!(rep.contains("metrics snapshot written"), "{rep}");

        // Hermetic validation through the check-json subcommand (what CI
        // runs), including the Lemma 8 bound-probe verdict.
        let p = parse(&sv(&["check-json", &metrics]), SWITCHES).expect("parse");
        let chk = run(&p).expect("check metrics");
        assert!(chk.contains("all invariants hold"), "{chk}");
        let p = parse(&sv(&["check-json", &trace]), SWITCHES).expect("parse");
        assert!(run(&p).expect("check trace").contains("mrbc-trace-v1"));

        // The timeline separates forward APSP from BC accumulation.
        let text = std::fs::read_to_string(&trace).expect("trace exists");
        assert!(text.contains("\"cat\":\"forward\""), "forward spans tagged");
        assert!(
            text.contains("\"cat\":\"accumulation\""),
            "accumulation spans tagged"
        );
        let m = std::fs::read_to_string(&metrics).expect("metrics exists");
        assert!(m.contains("\"model\":\"bsp\""), "{m}");
        assert!(m.contains("\"within_bounds\":true"), "{m}");
    }

    #[test]
    fn apsp_metrics_reports_theorem1_bounds() {
        let _guard = mrbc_obs::test_mutex().lock().unwrap();
        let file = tmpfile("cli_obs_apsp.el");
        let metrics = tmpfile("cli_obs_apsp_metrics.json");
        io::write_edge_list_file(&generators::cycle(20), &file).expect("write");
        let p = parse(
            &sv(&[
                "apsp",
                &file,
                "--mode",
                "detect",
                "--sources",
                "6",
                "--metrics",
                &metrics,
            ]),
            SWITCHES,
        )
        .expect("parse");
        run(&p).expect("apsp with metrics");
        let m = std::fs::read_to_string(&metrics).expect("metrics exists");
        assert!(m.contains("\"model\":\"congest\""), "{m}");
        assert!(m.contains("\"within_bounds\":true"), "{m}");
        let p = parse(&sv(&["check-json", &metrics]), SWITCHES).expect("parse");
        assert!(run(&p).expect("check").contains("all invariants hold"));
    }

    #[test]
    fn check_json_rejects_garbage() {
        let path = tmpfile("cli_obs_garbage.json");
        std::fs::write(&path, "{\"schema\":\"other\"}").expect("write");
        let p = parse(&sv(&["check-json", &path]), SWITCHES).expect("parse");
        assert!(run(&p).unwrap_err().message.contains("unrecognized schema"));
        std::fs::write(&path, "not json").expect("write");
        assert!(run(&p).unwrap_err().message.contains("invalid JSON"));
    }

    #[test]
    fn check_json_validates_dist_check_reports() {
        let path = tmpfile("cli_dist_report.json");
        let clean = "{\"schema\":\"mrbc-analyze-dist-v1\",\"states_explored\":1078,\
                     \"invariants_checked\":11,\"max_depth\":12,\"models\":[\
                     {\"name\":\"recovery\",\"states\":322,\"max_depth\":11,\
                     \"truncated\":false,\"violation\":null}],\"injections\":[\
                     {\"name\":\"skip-replay-lock\",\"model\":\"pool\",\
                     \"caught\":true,\"invariant\":\"no-duplicate-mutation\"}]}";
        std::fs::write(&path, clean).expect("write");
        let p = parse(&sv(&["check-json", &path]), SWITCHES).expect("parse");
        let rep = run(&p).expect("clean dist report validates");
        assert!(rep.contains("mrbc-analyze-dist-v1"), "{rep}");
        assert!(rep.contains("1 seeded bugs caught"), "{rep}");

        // A recorded violation fails validation.
        let violated = clean.replace(
            "\"violation\":null",
            "\"violation\":{\"invariant\":\"bsp-skew\",\"trace_len\":4}",
        );
        std::fs::write(&path, violated).expect("write");
        let err = run(&p).unwrap_err();
        assert!(err.message.contains("records a violation"), "{err:?}");

        // An uncaught seeded bug fails validation.
        let uncaught = clean.replace("\"caught\":true", "\"caught\":false");
        std::fs::write(&path, uncaught).expect("write");
        let err = run(&p).unwrap_err();
        assert!(err.message.contains("was not caught"), "{err:?}");

        // Truncated exploration fails validation.
        let truncated = clean.replace("\"truncated\":false", "\"truncated\":true");
        std::fs::write(&path, truncated).expect("write");
        let err = run(&p).unwrap_err();
        assert!(err.message.contains("was truncated"), "{err:?}");

        // Missing exploration stats fail validation.
        std::fs::write(&path, "{\"schema\":\"mrbc-analyze-dist-v1\"}").expect("write");
        let err = run(&p).unwrap_err();
        assert!(err.message.contains("missing"), "{err:?}");
    }

    #[test]
    fn check_json_gates_wal_bench_reports() {
        let path = tmpfile("cli_wal_bench.json");
        let clean = "{\"schema\":\"mrbc-bench-wal-v1\",\"cases\":[\
                     {\"name\":\"nodurable\",\"acked\":64,\"lost_acked\":0},\
                     {\"name\":\"flush5ms\",\"acked\":64,\"lost_acked\":0}],\
                     \"within_budget\":true}";
        std::fs::write(&path, clean).expect("write");
        let p = parse(&sv(&["check-json", &path]), SWITCHES).expect("parse");
        let rep = run(&p).expect("clean wal bench validates");
        assert!(rep.contains("zero lost acked mutations"), "{rep}");

        // Any lost acked mutation fails the gate, whatever the budget says.
        let lossy = clean.replacen("\"lost_acked\":0", "\"lost_acked\":2", 1);
        std::fs::write(&path, lossy).expect("write");
        let err = run(&p).unwrap_err();
        assert!(err.message.contains("lost 2 acked"), "{err:?}");

        // A blown overhead budget fails too.
        let slow = clean.replace("\"within_budget\":true", "\"within_budget\":false");
        std::fs::write(&path, slow).expect("write");
        let err = run(&p).unwrap_err();
        assert!(err.message.contains("budget exceeded"), "{err:?}");

        // The verdict is mandatory for the WAL schema (unlike the
        // generic bench arm, where it is optional).
        let noverdict = clean.replace(",\"within_budget\":true", "");
        std::fs::write(&path, noverdict).expect("write");
        let err = run(&p).unwrap_err();
        assert!(err.message.contains("within_budget"), "{err:?}");
    }

    #[test]
    fn check_json_gates_incr_bench_reports() {
        let path = tmpfile("cli_incr_bench.json");
        let clean = "{\"schema\":\"mrbc-bench-incr-v1\",\"cases\":[\
                     {\"name\":\"powerlaw-s8\",\"speedup\":25.3,\"reuse_ratio\":0.67,\
                      \"affected_fraction_p50\":0.05},\
                     {\"name\":\"road-12x24\",\"speedup\":14.0,\"reuse_ratio\":0.43,\
                      \"affected_fraction_p50\":0.43}],\
                     \"min_speedup\":3.0,\"within_budget\":true}";
        std::fs::write(&path, clean).expect("write");
        let p = parse(&sv(&["check-json", &path]), SWITCHES).expect("parse");
        let rep = run(&p).expect("clean incr bench validates");
        assert!(rep.contains("power-law speedup floor 3.0x"), "{rep}");

        // A power-law speedup below the report's own floor fails.
        let slow = clean.replacen("\"speedup\":25.3", "\"speedup\":2.1", 1);
        std::fs::write(&path, slow).expect("write");
        let err = run(&p).unwrap_err();
        assert!(err.message.contains("below the 3.0x floor"), "{err:?}");

        // Zero reuse on the power-law case means the maintenance path
        // silently degraded to full recompute — fail loudly.
        let inert = clean.replacen("\"reuse_ratio\":0.67", "\"reuse_ratio\":0.0", 1);
        std::fs::write(&path, inert).expect("write");
        let err = run(&p).unwrap_err();
        assert!(err.message.contains("reused no per-source"), "{err:?}");

        // A median affected fraction covering half the graph is not
        // incremental maintenance, whatever the wall clock says.
        let wide = clean.replacen(
            "\"affected_fraction_p50\":0.05",
            "\"affected_fraction_p50\":0.61",
            1,
        );
        std::fs::write(&path, wide).expect("write");
        let err = run(&p).unwrap_err();
        assert!(err.message.contains("not incremental"), "{err:?}");

        // The road case is reported but not gated: an adversarial
        // affected fraction there must NOT fail validation.
        let road_wide = clean.replacen(
            "\"affected_fraction_p50\":0.43",
            "\"affected_fraction_p50\":0.93",
            1,
        );
        std::fs::write(&path, road_wide).expect("write");
        run(&p).expect("road case is informational only");

        // Without a power-law case there is nothing to gate on; that is
        // a malformed report, not a pass.
        let nopl = clean.replacen("powerlaw-s8", "mystery-s8", 1);
        std::fs::write(&path, nopl).expect("write");
        let err = run(&p).unwrap_err();
        assert!(err.message.contains("no power-law case"), "{err:?}");

        // The verdict and the floor are mandatory for this schema.
        let noverdict = clean.replace(",\"within_budget\":true", "");
        std::fs::write(&path, noverdict).expect("write");
        let err = run(&p).unwrap_err();
        assert!(err.message.contains("within_budget"), "{err:?}");
        let nofloor = clean.replace("\"min_speedup\":3.0,", "");
        std::fs::write(&path, nofloor).expect("write");
        let err = run(&p).unwrap_err();
        assert!(err.message.contains("min_speedup"), "{err:?}");
    }

    /// `query bc --v V` must reach the daemon with vertex V: parsing
    /// through the binary's real switch list (the path `main` takes)
    /// must treat `--v` as a valued flag, not a verbose toggle.
    #[test]
    fn query_vertex_flag_is_not_eaten_by_a_switch() {
        let p = parse(&sv(&["query", "127.0.0.1:1", "bc", "--v", "3"]), SWITCHES).expect("parse");
        assert_eq!(p.get_or("v", 0u32).expect("valued"), 3);
    }

    #[test]
    fn bad_inputs_are_reported() {
        let p = parse(&sv(&["bc", "/nonexistent/file.el"]), &[]).expect("parse");
        assert!(run(&p).unwrap_err().message.contains("cannot read"));
        let p = parse(&sv(&["generate", "nope", "--out", "/tmp/x.el"]), &[]).expect("parse");
        assert!(run(&p).unwrap_err().message.contains("unknown graph kind"));
    }

    /// Zero host/batch/chunk counts would panic deep inside the
    /// partitioner or worklist machinery; the CLI must reject them as
    /// errors instead, for every subcommand that accepts them.
    #[test]
    fn zero_valued_size_flags_are_rejected() {
        let file = tmpfile("cli_zero.el");
        io::write_edge_list_file(&generators::cycle(8), &file).expect("write");
        for argv in [
            vec!["bc", &file, "--hosts", "0"],
            vec!["bc", &file, "--batch", "0"],
            vec!["bc", &file, "--algorithm", "abbc", "--chunk", "0"],
            vec!["tune", &file, "--hosts", "0"],
            vec!["tune", &file, "--pilot", "0"],
        ] {
            let p = parse(&sv(&argv), &[]).expect("parse");
            let err = run(&p).unwrap_err();
            assert!(
                err.message.contains("must be at least 1"),
                "{argv:?}: {err}"
            );
        }
    }

    /// Malformed graph files surface as errors, never panics.
    #[test]
    fn malformed_graph_files_do_not_panic() {
        for (name, text) in [
            ("cli_bad_token.el", "0 1\n2 notanumber\n"),
            ("cli_bad_arity.el", "0 1 2 3\n"),
            ("cli_bad_neg.el", "0 -1\n"),
        ] {
            let file = tmpfile(name);
            std::fs::write(&file, text).expect("write");
            for cmd in ["bc", "info", "apsp", "tune"] {
                let p = parse(&sv(&[cmd, &file]), &[]).expect("parse");
                let err = run(&p).unwrap_err();
                assert!(
                    err.message.contains("cannot read"),
                    "{cmd} on {name}: {err}"
                );
            }
        }
    }
}
