//! `--all` and `--aa`: the whole set, one child process per workload
//! and trace mode (so `peak_rss_mb` is per workload), collected into one
//! report; `--aa` runs the set twice on the same build and holds the
//! differences against the benchmark's own bounds.

use std::process::Command;

use mrbc_obs::json::{self, JsonWriter, Value};

use crate::metrics::{Better, Def, END_TO_END, PER_LAYER};
use crate::run::Single;
use crate::sys::Environment;
use crate::workload::Workload;

/// What `--all` / `--aa` were asked to do.
#[derive(Debug, PartialEq)]
pub(crate) struct Plan {
    /// `--seed`, handed to every child.
    pub seed: u64,
    /// `--seconds`, handed to every child.
    pub seconds: f64,
    /// Also run each workload traced.
    pub trace: bool,
    /// `--quick` children.
    pub quick: bool,
    /// 1 for `--all`, 2 for `--aa`.
    pub passes: usize,
    /// `--out FILE`: where the collected JSON goes.
    pub out: Option<String>,
}

/// Runs one child and returns its result line (the last line of its
/// standard output).
pub(crate) type Runner<'a> = &'a mut dyn FnMut(&Single) -> Result<String, String>;

/// The production [`Runner`]: re-executes this binary for one workload,
/// echoes what it printed, and hands back its last line.
pub(crate) fn spawn_child(s: &Single) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", s.workload.name()])
        .args(["--seed", &s.seed.to_string()])
        .args(["--seconds", &s.seconds.to_string()])
        .args(["--trace", if s.trace { "1" } else { "0" }]);
    if s.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines() {
        println!("  | {line}");
    }
    let last = stdout.lines().last().unwrap_or("").to_string();
    if !out.status.success() {
        return Err(format!(
            "{} (trace {}) exited with {}: {}",
            s.workload.name(),
            u8::from(s.trace),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(last)
}

/// One child's parsed result.
struct Run {
    workload: Workload,
    trace: bool,
    pass: usize,
    raw: String,
    doc: Value,
}

impl Run {
    fn metric(&self, name: &str) -> Option<f64> {
        self.doc
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
    }
}

/// Below this many seconds a single `setup_s` reading is shown by `--aa`
/// but not judged.
const CHEAP_SETUP_S: f64 = 0.005;

/// How much worse `b` is than `a`, as a share of `a` (negative when it
/// is better).
fn worsening(def: &Def, a: f64, b: f64) -> f64 {
    let rel = (b - a) / a.abs().max(1e-12);
    match def.better {
        Better::Lower => rel,
        Better::Higher => -rel,
    }
}

/// `--aa`: every end-to-end metric of pass 2 against pass 1 and the
/// workload's bound for it, every `≡` per-layer count for equality.
/// Returns the number of violations. Both passes ran the same build, so
/// a second pass that is *better* by more than the bound is as much a
/// violation as one that is worse: either way the benchmark cannot tell
/// a change of that size from its own noise.
fn compare_passes(runs: &[Run]) -> usize {
    let mut violations = 0;
    println!("\nA/A: second pass against first, same build");
    println!(
        "  {:<18} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "differs", "bound"
    );
    let find = |w: Workload, trace: bool, pass: usize| {
        runs.iter()
            .find(|r| r.workload == w && r.trace == trace && r.pass == pass)
    };
    for w in Workload::ALL {
        if let (Some(a), Some(b)) = (find(w, false, 0), find(w, false, 1)) {
            for def in END_TO_END {
                let (Some(x), Some(y)) = (a.metric(def.name), b.metric(def.name)) else {
                    continue;
                };
                let worse = worsening(def, x, y);
                let bound = w.aa_bound(def);
                // A set-up of a few hundred µs runs wholly at one of the
                // box's two CPU speeds (27 % apart), so one run against
                // one run says nothing about it. The pipeline likewise
                // exempts `setup_s` from its spread check and judges only
                // its median over ten runs.
                let judged = def.name != "setup_s" || x.min(y) >= CHEAP_SETUP_S;
                let flag = if worse.abs() <= bound {
                    ""
                } else if judged {
                    violations += 1;
                    "  EXCEEDS"
                } else {
                    "  (not judged: set-up under 5 ms)"
                };
                println!(
                    "  {:<18} {:<14} {x:>14.4} {y:>14.4} {:>+8.1}% {:>6.0}%{flag}",
                    w.name(),
                    def.name,
                    worse * 100.0,
                    bound * 100.0
                );
            }
        }
        if let (Some(a), Some(b)) = (find(w, true, 0), find(w, true, 1)) {
            for def in PER_LAYER.iter().filter(|d| d.exact) {
                let (x, y) = (a.metric(def.name), b.metric(def.name));
                if x.map(f64::to_bits) != y.map(f64::to_bits) {
                    violations += 1;
                    println!(
                        "  {:<18} {:<30} {x:?} vs {y:?}  NOT IDENTICAL",
                        w.name(),
                        def.name
                    );
                }
            }
        }
    }
    violations
}

/// Writes the collected results: the environment they are comparable
/// within, the settings, and every child's result line verbatim.
fn collected_json(plan: &Plan, env: &Environment, runs: &[Run]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string("mrbc-perfbench-v1");
    w.key("comparable");
    w.boolean(!plan.quick);
    w.key("environment");
    w.begin_object();
    w.key("nproc");
    w.number(env.nproc as u64);
    w.key("cpu_model");
    w.string(&env.cpu_model);
    w.key("rustc");
    w.string(&env.rustc);
    w.key("git_commit");
    w.string(&env.commit);
    w.end_object();
    w.key("seed");
    w.number(plan.seed);
    w.key("time_box_seconds");
    w.float(plan.seconds);
    w.key("runs");
    w.begin_array();
    for r in runs {
        w.begin_object();
        w.key("workload");
        w.string(r.workload.name());
        w.key("trace");
        w.boolean(r.trace);
        w.key("pass");
        w.number(r.pass as u64);
        w.key("result");
        w.raw(&r.raw);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Runs the plan through `runner`. `Ok(true)` when every child was
/// correct and (for `--aa`) every difference stayed within its bound.
pub(crate) fn run(plan: &Plan, runner: Runner<'_>) -> Result<bool, String> {
    let env = Environment::read();
    println!(
        "perfbench: {} logical CPUs ({}), {}, commit {}, seed {}, time box {} s{}",
        env.nproc,
        env.cpu_model,
        env.rustc,
        env.commit,
        plan.seed,
        plan.seconds,
        if plan.quick {
            " — QUICK, numbers comparable with nothing"
        } else {
            ""
        }
    );
    let mut runs = Vec::new();
    let mut all_correct = true;
    for pass in 0..plan.passes {
        for workload in Workload::ALL {
            for trace in [false, true] {
                if trace && !plan.trace {
                    continue;
                }
                let single = Single {
                    workload,
                    seed: plan.seed,
                    seconds: plan.seconds,
                    trace,
                    quick: plan.quick,
                };
                println!(
                    "\n== {} · trace {} · pass {} ==",
                    workload.name(),
                    u8::from(trace),
                    pass + 1
                );
                let raw = runner(&single)?;
                let doc = json::parse(&raw)
                    .map_err(|e| format!("{}: result line is not JSON: {e}", workload.name()))?;
                all_correct &= doc.get("correct").and_then(Value::as_bool) == Some(true);
                runs.push(Run {
                    workload,
                    trace,
                    pass,
                    raw,
                    doc,
                });
            }
        }
    }
    let violations = if plan.passes > 1 {
        compare_passes(&runs)
    } else {
        0
    };
    if let Some(path) = &plan.out {
        std::fs::write(path, collected_json(plan, &env, &runs))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("\nresults written to {path}");
    }
    println!(
        "\n{} runs, {}, {violations} A/A violation(s)",
        runs.len(),
        if all_correct {
            "every audit passed"
        } else {
            "AUDIT FAILURES"
        }
    );
    Ok(all_correct && violations == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric of `defs` is in a result line's `metrics`, with its
    /// registered unit.
    fn assert_complete(result: &Value, defs: &[Def], who: &str) {
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
        let metrics = result.get("metrics").expect("metrics");
        for def in defs {
            let m = metrics
                .get(def.name)
                .unwrap_or_else(|| panic!("{who}: {} missing", def.name));
            assert!(m.get("value").and_then(Value::as_f64).is_some());
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(def.unit));
        }
    }

    /// The `--quick` shape of `--all`, run in this process instead of in
    /// children, collected into the `--out` document and read back.
    #[test]
    fn quick_suite_reports_every_workload_and_every_metric() {
        let out = std::env::temp_dir().join(format!("perfbench-quick-{}.json", std::process::id()));
        let plan = Plan {
            seed: 4,
            seconds: 0.2,
            trace: false,
            quick: true,
            passes: 1,
            out: Some(out.display().to_string()),
        };
        let mut in_process = |s: &Single| s.run().map(|outcome| outcome.to_json());
        let ok = run(&plan, &mut in_process).expect("suite runs");
        assert!(ok, "every quick run audits clean");

        let text = std::fs::read_to_string(&out).expect("collected JSON written");
        let _ = std::fs::remove_file(&out);
        let doc = json::parse(&text).expect("collected JSON parses");
        assert_eq!(doc.get("comparable").and_then(Value::as_bool), Some(false));
        let runs = doc.get("runs").and_then(Value::as_arr).expect("runs");
        assert_eq!(runs.len(), Workload::ALL.len());
        for w in Workload::ALL {
            let run = runs
                .iter()
                .find(|r| r.get("workload").and_then(Value::as_str) == Some(w.name()))
                .unwrap_or_else(|| panic!("{} missing", w.name()));
            assert_complete(run.get("result").expect("result"), END_TO_END, w.name());
        }
    }

    /// One traced `--quick` run: it solves under the bench's own spans,
    /// probes the three other stack tiers, and must come back with every
    /// per-layer metric — the issue's twelve end-to-end names among them,
    /// each under its own name or the `op_*` name it maps to.
    #[test]
    fn quick_traced_run_reports_every_layer() {
        // The traced run installs the process-wide recorder.
        let _serial = mrbc_obs::test_mutex()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let single = Single {
            workload: Workload::OfflineRoad,
            seed: 4,
            seconds: 0.2,
            trace: true,
            quick: true,
        };
        let line = single.run().expect("traced run").to_json();
        let result = json::parse(&line).expect("result line parses");
        assert_complete(&result, PER_LAYER, "offline-road traced");
        let value = |name: &str| {
            result
                .get("metrics")
                .and_then(|m| m.get(name)?.get("value"))
                .and_then(Value::as_f64)
        };
        // Values only a correct run produces: the restart scenario
        // recovered its whole (quick: 12-record) log, 9-byte WAL bodies
        // sit in 8-byte envelopes, nothing acknowledged was lost.
        assert_eq!(value("wal.recovered_records"), Some(12.0));
        assert_eq!(value("wal.lost_acked"), Some(0.0));
        assert_eq!(value("wal.bytes_per_record"), Some(17.0));
        assert_eq!(value("failed_share"), Some(0.0));
        assert!(value("trace.core.self_share").is_some_and(|pct| pct > 0.0));
        for name in [
            "setup_s",
            "peak_rss_mb",
            "solve_s",
            "query_p50_us",
            "query_p99_us",
            "qps",
            "mutate_ack_p50_us",
            "mutate_ack_p95_us",
            "fresh_p50_us",
            "churn_cycles_per_s",
            "recovery_ms",
            "failed_share",
        ] {
            assert!(crate::metrics::def(name).is_some(), "{name}");
        }
    }

    #[test]
    fn aa_flags_a_difference_beyond_the_bound_in_either_direction() {
        let lower = &END_TO_END[1];
        let higher = &END_TO_END[3];
        assert_eq!((lower.name, higher.name), ("op_p50_ms", "ops_per_s"));
        assert!(worsening(lower, 10.0, 10.5) > 0.049);
        assert!(worsening(lower, 10.0, 9.0) < 0.0);
        assert!(worsening(higher, 100.0, 80.0) > 0.19);
        assert!(worsening(higher, 100.0, 120.0) < 0.0);

        let run_of = |pass, name: &str, value: f64| {
            let raw = format!(
                "{{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{\
                 \"{name}\":{{\"value\":{value},\"unit\":\"x\"}}}}}}"
            );
            Run {
                workload: Workload::ServeRead,
                trace: false,
                pass,
                doc: json::parse(&raw).expect("json"),
                raw,
            }
        };
        let run = |pass, p50: f64| run_of(pass, "op_p50_ms", p50);
        // serve-read holds `op_p50_ms` to 10 %, tighter than the contract.
        assert_eq!(Workload::ServeRead.aa_bound(lower), 0.10);
        assert_eq!(compare_passes(&[run(0, 2.0), run(1, 2.15)]), 0);
        assert_eq!(compare_passes(&[run(0, 2.0), run(1, 2.3)]), 1);
        assert_eq!(compare_passes(&[run(0, 2.0), run(1, 1.85)]), 0);
        assert_eq!(
            compare_passes(&[run(0, 2.0), run(1, 1.4)]),
            1,
            "30 % faster"
        );
        // `setup_s` is judged from 5 ms up; a 0.1 ms set-up is only shown.
        let setup = |a, b| compare_passes(&[run_of(0, "setup_s", a), run_of(1, "setup_s", b)]);
        assert_eq!(setup(0.2, 0.3), 1);
        assert_eq!(setup(0.0001, 0.00013), 0);
    }
}
