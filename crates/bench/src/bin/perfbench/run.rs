//! One workload, one process: the untraced run that yields the
//! end-to-end metrics (`--trace 0`) and the traced run that yields the
//! per-layer ones (`--trace 1`).

use mrbc_obs::json::JsonWriter;

use crate::gen::Seeds;
use crate::layers::{self, Depth};
use crate::metrics::{Def, MetricSet, END_TO_END, PER_LAYER};
use crate::workload::{Effort, Pass, Workload};
use crate::{mesh_tcp, offline, serve_churn, serve_read, sys, trace};

/// What to run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Single {
    /// The workload.
    pub workload: Workload,
    /// `--seed`: inputs are a function of it alone.
    pub seed: u64,
    /// `--seconds`: the timed section's box.
    pub seconds: f64,
    /// `--trace 1`: the traced, per-layer run.
    pub trace: bool,
    /// `--quick`: tiny inputs, ≤ 2 s, numbers comparable with nothing.
    pub quick: bool,
}

/// What a run reports.
pub(crate) struct Outcome {
    /// The table `metrics` is reported against.
    pub defs: &'static [Def],
    /// The measured values.
    pub metrics: MetricSet,
    /// Attempts, failures and audit findings over the run's passes.
    pub tally: Tally,
}

impl Outcome {
    /// An outcome, provided every metric of `defs` was measured: the
    /// contract wants each of them in every run.
    fn complete(defs: &'static [Def], metrics: MetricSet, tally: Tally) -> Result<Outcome, String> {
        match metrics.missing(defs).as_slice() {
            [] => Ok(Outcome {
                defs,
                metrics,
                tally,
            }),
            missing => Err(format!("not measured: {}", missing.join(", "))),
        }
    }

    /// True when nothing failed and every audit passed.
    pub(crate) fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.problems.is_empty()
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub(crate) fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("correct");
        w.boolean(self.correct());
        w.key("attempted");
        w.number(self.tally.attempted.max(1));
        w.key("failed");
        w.number(self.tally.failed);
        w.key("metrics");
        self.metrics.write_contract(&mut w, self.defs);
        w.end_object();
        w.finish()
    }
}

impl Single {
    fn effort(&self, seconds: f64, full: bool) -> Effort {
        if self.quick {
            Effort::quick(seconds)
        } else if full {
            Effort::full(seconds)
        } else {
            Effort::reduced(seconds)
        }
    }

    /// One pass of `w` on this run's seed.
    fn pass(&self, w: Workload, effort: Effort) -> Result<Pass, String> {
        let spec = w.input_spec(self.quick);
        let seeds = Seeds::from_seed(self.seed);
        match w {
            Workload::OfflinePowerlaw | Workload::OfflineRoad => {
                Ok(offline::run(&spec, seeds, effort))
            }
            Workload::ServeRead => serve_read::run(&spec, seeds, effort),
            Workload::ServeChurn => serve_churn::run(&spec, seeds, effort),
            Workload::MeshTcp => mesh_tcp::run(&spec, seeds, effort),
        }
    }

    /// Runs the workload as asked.
    pub(crate) fn run(&self) -> Result<Outcome, String> {
        if self.trace {
            self.traced()
        } else {
            self.untraced()
        }
    }

    /// `--trace 0`: the full-length pass with no recorder installed.
    fn untraced(&self) -> Result<Outcome, String> {
        let w = self.workload;
        let pass = self.pass(w, self.effort(self.seconds, true))?;
        let mut m = MetricSet::default();
        m.put_noted("setup_s", pass.setup_s, 1, "median of the set-ups".into());
        m.put_noted(
            "op_p50_ms",
            pass.op_us.median / 1e3,
            pass.op_us.n as u64,
            format!("{}; {}", w.op(), pass.op_us.quartile_note(1e3)),
        );
        m.put_noted(
            "op_slow_ms",
            pass.op_slow_ms,
            pass.op_us.n as u64,
            pass.op_slow_what.clone(),
        );
        m.put("ops_per_s", pass.ops_per_s, pass.op_us.n as u64);
        m.put_noted(
            "peak_rss_mb",
            pass.peak_rss_mb,
            1,
            "VmHWM at the end of the timed section".into(),
        );

        println!("end-to-end ({}):", w.name());
        m.print(END_TO_END);
        println!("this workload's own figures:");
        pass.layers.print(PER_LAYER);
        let mut tally = Tally::default();
        tally.add(w.name(), &pass);
        Outcome::complete(END_TO_END, m, tally)
    }

    /// `--trace 1`: a third of the box untraced (the reference), a
    /// third with the recorder installed (the timeline), then — because
    /// the contract wants every per-layer metric from every traced run —
    /// the other stack tiers at probe scale (untraced), the kernel layers
    /// on this workload's graph, and the isolated layer measurements.
    fn traced(&self) -> Result<Outcome, String> {
        let w = self.workload;
        let third = self.effort(self.seconds / 3.0, false);
        let mut m = MetricSet::default();
        let mut tally = Tally::default();

        let (cpu0, t0) = (sys::cpu_seconds(), sys::now_us());
        let reference = self.pass(w, third)?;
        let (cpu_s, wall_s) = (sys::cpu_seconds() - cpu0, sys::secs_since(t0));

        mrbc_obs::install("perfbench");
        let traced = self.pass(w, third);
        let recorder = mrbc_obs::uninstall();
        let traced = traced?;
        let recorder = recorder.ok_or("the recorder vanished during the traced pass")?;
        let harvest = trace::harvest(&recorder, w.name(), &mut m)?;
        drop(recorder);

        // The contract wants every per-layer metric from every traced
        // run, so the stack tiers this workload does not run are run too,
        // at probe scale and with no recorder: like the reference pass,
        // and unlike the traced one, their latencies are untraced.
        let probe = self.effort(if self.quick { self.seconds / 3.0 } else { 2.0 }, false);
        for v in [Workload::ServeRead, Workload::ServeChurn, Workload::MeshTcp] {
            if v != w {
                let pass = self.pass(v, probe)?;
                m.absorb(&pass.layers);
                tally.add(v.name(), &pass);
            }
        }
        // The one family that has to come from a traced pass: the daemon
        // stamps its queue/exec histograms only while a recorder is
        // installed. `serve-read` has its traced pass already; elsewhere
        // a probe-length one is run for `sched.*` alone.
        let sched = if w == Workload::ServeRead {
            None
        } else {
            mrbc_obs::install("perfbench-sched");
            let pass = self.pass(Workload::ServeRead, probe);
            drop(mrbc_obs::uninstall());
            let pass = pass?;
            tally.add("serve-read (sched.*)", &pass);
            Some(pass)
        };

        // Kernel layers on this workload's own graph; isolated layers
        // on the serve graph.
        let seeds = Seeds::from_seed(self.seed);
        let input = w.input_spec(self.quick).build(seeds);
        let offline = matches!(w, Workload::OfflinePowerlaw | Workload::OfflineRoad);
        let kernel_box_s = if self.quick { 0.0 } else { 0.5 };
        m.absorb(&offline::kernel_layers(&input, kernel_box_s, !offline));
        let serve_input = Workload::ServeRead.input_spec(self.quick).build(seeds);
        let depth = if self.quick {
            Depth::QUICK
        } else {
            Depth::FULL
        };
        m.absorb(&layers::isolated(&serve_input, seeds, depth)?);

        // This workload's own figures come from the untraced reference.
        m.absorb(&reference.layers);
        m.absorb_prefix(&sched.as_ref().unwrap_or(&traced).layers, "sched.");
        tally.add("reference", &reference);
        tally.add("traced", &traced);

        let base = reference.op_us.median.max(1e-9);
        m.put_noted(
            "obs.trace_overhead_pct",
            (traced.op_us.median - reference.op_us.median) / base * 100.0,
            traced.op_us.n as u64,
            format!(
                "op p50 traced {:.1} us vs untraced {:.1} us",
                traced.op_us.median, reference.op_us.median
            ),
        );
        m.put_noted("proc.cpu_s", cpu_s, 1, "over the reference pass".into());
        m.put_noted(
            "proc.cpu_share",
            cpu_s / wall_s.max(1e-9) * 100.0,
            1,
            format!("of {wall_s:.2} s wall; 100 % = one core"),
        );
        let get = |name: &str| m.get(name).unwrap_or(0.0);
        let (query, echo, sched) = (
            get("query_p50_us"),
            get("loopback.echo_rtt_p50_us"),
            get("sched.total_us_p50"),
        );
        m.put_noted(
            "server.unattributed_us",
            query - echo - sched,
            1,
            format!("residue: query p50 {query:.0} - echo {echo:.0} - sched total {sched:.0}"),
        );
        m.put(
            "failed_share",
            tally.failed as f64 / tally.attempted.max(1) as f64 * 100.0,
            tally.attempted,
        );

        println!("per-layer ({}):", w.name());
        m.print(PER_LAYER);
        println!(
            "trace: {} events ({} dropped) -> {}",
            harvest.events,
            harvest.dropped,
            harvest.file.display()
        );
        for (layer, us) in &harvest.self_us {
            println!("  trace.{layer}.self_us {us}");
        }
        Outcome::complete(PER_LAYER, m, tally)
    }
}

/// Attempt / failure / audit totals over the passes of one run.
#[derive(Default)]
pub(crate) struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (errors, refusals, audit mismatches).
    pub failed: u64,
    /// Audit findings; empty when every answer was correct.
    pub problems: Vec<String>,
}

impl Tally {
    fn add(&mut self, which: &str, pass: &Pass) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        self.problems
            .extend(pass.problems.iter().map(|p| format!("{which}: {p}")));
    }
}
