//! `perfbench` — one benchmark for the whole stack: five workloads
//! (offline solves on a power-law and a road graph, cached reads from a
//! daemon, mutations through a durable pool, the SPMD solver over the
//! TCP mesh), end-to-end metrics with regression bounds, and a traced
//! run that budgets each layer. See `README.md` beside this file and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1   one run, result JSON on the last line
//! perfbench --all [--trace] [--seed N] [--seconds S] [--out FILE]
//! perfbench --aa  [--trace] ...                                  the set twice; differences beside bounds
//! perfbench --all --quick                                        every workload in <= 2 s, numbers not comparable
//! ```

mod gen;
mod layers;
mod mesh_tcp;
mod metrics;
mod offline;
mod run;
mod serve_churn;
mod serve_read;
mod stats;
mod suite;
mod sys;
mod trace;
mod workload;

use std::process::ExitCode;

use run::Single;
use workload::Workload;

/// The time box a run measures for unless `--seconds` says otherwise;
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

/// The box of a `--quick` pass.
const QUICK_SECONDS: f64 = 0.3;

/// What the command line asked for.
#[derive(Debug, PartialEq)]
enum Mode {
    /// One workload in this process.
    Single(Single),
    /// Every workload, each in a child process (`passes` times over).
    Suite(suite::Plan),
}

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
       perfbench --all|--aa [--trace] [--quick] [--seed N] [--seconds S] [--out FILE]
workloads: offline-powerlaw offline-road serve-read serve-churn mesh-tcp";

/// Parses the command line (without the program name).
fn parse(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let (mut seed, mut seconds) = (1u64, None);
    let (mut trace, mut quick, mut all, mut aa) = (false, false, false, false);
    let mut out = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            // `--trace 0|1` as the pipeline passes it; a bare `--trace`
            // means 1.
            "--trace" => {
                trace = match it.next_if(|v| matches!(v.as_str(), "0" | "1")) {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--quick" => quick = true,
            "--all" => all = true,
            "--aa" => aa = true,
            "--out" => out = Some(value("a file name")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let seconds = seconds.unwrap_or(if quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    match (workload, all || aa) {
        (Some(workload), false) => Ok(Mode::Single(Single {
            workload,
            seed,
            seconds,
            trace,
            quick,
        })),
        (None, true) => Ok(Mode::Suite(suite::Plan {
            seed,
            seconds,
            trace,
            quick,
            passes: if aa { 2 } else { 1 },
            out,
        })),
        (Some(_), true) => Err("--workload and --all/--aa exclude each other".to_string()),
        (None, false) => Err("nothing to run".to_string()),
    }
}

/// Runs one workload here and prints the contract's result line last.
fn single(s: &Single) -> ExitCode {
    if s.quick {
        println!("QUICK: tiny inputs and boxes; these numbers are comparable with nothing");
    }
    match s.run() {
        Ok(outcome) => {
            for p in &outcome.tally.problems {
                println!("AUDIT FAILED: {p}");
            }
            println!("{}", outcome.to_json());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", s.workload.name());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; run with --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Mode::Single(s)) => single(&s),
        Ok(Mode::Suite(plan)) => match suite::run(&plan, &mut suite::spawn_child) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_pipeline_command_line() {
        let mode = parse(&args(
            "--workload serve-read --seed 42 --seconds 10 --trace 1",
        ));
        assert_eq!(
            mode,
            Ok(Mode::Single(Single {
                workload: Workload::ServeRead,
                seed: 42,
                seconds: 10.0,
                trace: true,
                quick: false,
            }))
        );
        let Ok(Mode::Single(s)) = parse(&args("--trace 0 --workload mesh-tcp")) else {
            panic!("single mode");
        };
        assert!(!s.trace && s.seed == 1 && s.seconds == DEFAULT_SECONDS);
    }

    #[test]
    fn parses_suite_modes_and_rejects_nonsense() {
        let Ok(Mode::Suite(plan)) = parse(&args("--aa --trace --quick --out x.json")) else {
            panic!("suite mode");
        };
        assert_eq!((plan.passes, plan.trace, plan.quick), (2, true, true));
        assert_eq!(plan.seconds, QUICK_SECONDS);
        assert_eq!(plan.out.as_deref(), Some("x.json"));
        let Ok(Mode::Suite(plan)) = parse(&args("--all --seed 9")) else {
            panic!("suite mode");
        };
        assert_eq!((plan.passes, plan.trace, plan.seed), (1, false, 9));
        for bad in [
            "",
            "--workload nope",
            "--all --workload serve-read",
            "--seconds 0 --all",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "`{bad}` must be rejected");
        }
    }
}
