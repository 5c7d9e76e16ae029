//! The `offline-*` workloads (one op = one `mrbc_core::bc()` solve) and
//! the kernel-layer measurements (`graph`, `dgalois`, `core`) that every
//! traced run takes on its own workload's graph.

use mrbc_core::dist::{mrbc::mrbc_bc, sbbc::sbbc_bc};
use mrbc_core::{bc, brandes, postprocess, Algorithm, BcConfig};
use mrbc_dgalois::{partition, BspStats, CostModel, PartitionPolicy};
use mrbc_graph::GraphBuilder;

use crate::gen::Seeds;
use crate::metrics::MetricSet;
use crate::stats::{self, Summary};
use crate::sys;
use crate::workload::{same_bits, Effort, Input, InputSpec, Pass};

/// The driver configuration an input is solved with.
fn bc_config(input: &Input, hosts: usize) -> BcConfig {
    BcConfig {
        algorithm: Algorithm::Mrbc,
        num_hosts: hosts,
        batch_size: input.batch,
        partition: PartitionPolicy::CartesianVertexCut,
        ..BcConfig::default()
    }
}

/// The `≡` figures of one solve: they must repeat exactly, solve after
/// solve and run after run, or two wall-clock numbers are not timing
/// the same algorithm.
#[derive(Clone, Debug, PartialEq)]
struct Counts {
    rounds: u64,
    messages: u64,
    bytes: u64,
    sync_items: u64,
    work_units: u64,
    imbalance_bits: u64,
    modeled_bits: u64,
}

impl Counts {
    fn of(stats: &BspStats) -> Counts {
        Counts {
            rounds: u64::from(stats.num_rounds()),
            messages: stats.total_messages(),
            bytes: stats.total_bytes(),
            sync_items: stats.total_sync_items(),
            work_units: stats.total_work(),
            imbalance_bits: stats.load_imbalance().to_bits(),
            modeled_bits: stats.execution_time(&CostModel::default()).to_bits(),
        }
    }

    fn put(&self, m: &mut MetricSet) {
        m.put("dgalois.rounds", self.rounds as f64, 1);
        m.put("dgalois.messages", self.messages as f64, 1);
        m.put("dgalois.bytes", self.bytes as f64, 1);
        m.put("dgalois.sync_items", self.sync_items as f64, 1);
        m.put("dgalois.work_units", self.work_units as f64, 1);
        m.put("dgalois.imbalance", f64::from_bits(self.imbalance_bits), 1);
        m.put(
            "dgalois.modeled_exec_s",
            f64::from_bits(self.modeled_bits),
            1,
        );
    }
}

/// One solve. Untraced it goes through the public door, `bc()`. With a
/// recorder installed it runs the two calls `bc()` is made of under the
/// bench's own spans, so the trace separates partitioning from the
/// round loop.
fn solve(input: &Input, op: usize) -> (Vec<f64>, BspStats) {
    let _root = mrbc_obs::span("bench.op", "bench").arg("id", op as u64);
    if !mrbc_obs::is_enabled() {
        let out = bc(&input.g, &input.sources, &bc_config(input, input.hosts));
        let stats = out.stats.expect("MRBC is a distributed algorithm");
        return (out.bc, stats);
    }
    let dg = {
        let _s = mrbc_obs::span("bench.dgalois.partition", "bench");
        partition(&input.g, input.hosts, PartitionPolicy::CartesianVertexCut)
    };
    let _s = mrbc_obs::span("bench.core.mrbc_bc", "bench");
    let out = mrbc_bc(&input.g, &dg, &input.sources, input.batch);
    (out.bc, out.stats)
}

/// Runs one pass of an offline workload: set-up, solves until the box
/// is spent, then the audit (multi-host scores
/// bit-identical to the 1-host twin and within 1e-9 relative of
/// sequential Brandes; every `≡` count equal across solves).
pub(crate) fn run(spec: &InputSpec, seeds: Seeds, effort: Effort) -> Pass {
    let mut pass = Pass::default();
    let t0 = sys::now_us();
    let input = spec.build(seeds);
    let first_setup_s = sys::secs_since(t0);

    let mut first: Option<(Vec<f64>, Counts)> = None;
    let mut drifted = 0u64;
    pass.time_solves(effort, &mut |rep| {
        let (scores, stats) = solve(&input, rep);
        let counts = Counts::of(&stats);
        match &first {
            None => first = Some((scores, counts)),
            Some((s0, c0)) => {
                if !same_bits(s0, &scores) || *c0 != counts {
                    drifted += 1;
                }
            }
        }
    });
    let (scores, counts) = first.expect("at least one solve ran");
    if drifted > 0 {
        pass.problem(format!(
            "{drifted} solve(s) differed from the first in scores or ≡ counts"
        ));
    }

    // Audit against the 1-host twin and the sequential oracle.
    let twin = bc(&input.g, &input.sources, &bc_config(&input, 1)).bc;
    if !same_bits(&twin, &scores) {
        pass.problem(format!(
            "{}-host scores are not bit-identical to the 1-host twin",
            input.hosts
        ));
    }
    let oracle = brandes::bc_sources(&input.g, &input.sources);
    let off = scores
        .iter()
        .zip(&oracle)
        .filter(|(got, want)| (*got - *want).abs() > 1e-9 * want.abs().max(1.0))
        .count();
    if off > 0 {
        pass.problem(format!(
            "{off} score(s) beyond 1e-9 relative of brandes::bc_sources"
        ));
    }

    pass.finish_setups(first_setup_s, effort, &mut || {
        std::hint::black_box(spec.build(seeds));
        Ok(())
    })
    .expect("generating an input cannot fail");
    counts.put(&mut pass.layers);
    pass.layers.put_noted(
        "solve_s",
        pass.op_us.median / 1e6,
        pass.op_us.n as u64,
        pass.op_us.quartile_note(1e6),
    );
    pass
}

/// Median seconds of `call`, time-boxed to `box_s` with at least one
/// measured repetition after the discarded warm-up.
fn median_s(box_s: f64, call: &mut dyn FnMut()) -> (f64, u64) {
    let mut unit = |_rep: usize| call();
    let mut us = stats::timeboxed((box_s * 1e6) as u64, 1, 1, &mut sys::now_us, &mut unit);
    let s = Summary::of(&mut us);
    (s.median / 1e6, s.n as u64)
}

/// Measures the `graph`, `dgalois` and `core` layers on `input` by
/// timing calls into their public functions, each for about `box_s`
/// seconds. `solve_s` (a full `bc()`) is measured too unless the caller
/// already has it from a longer pass.
pub(crate) fn kernel_layers(input: &Input, box_s: f64, with_solve: bool) -> MetricSet {
    let mut m = MetricSet::default();
    let g = &input.g;
    let n = g.num_vertices();
    m.put("graph.vertices", n as f64, 1);
    m.put("graph.edges", g.num_edges() as f64, 1);
    m.put("graph.generate_ms", input.generate_ms, 1);

    // What EpochStore::mutate does under its lock: rebuild the CSR with
    // one more edge.
    let (rebuild_s, reps) = median_s(box_s.min(0.2), &mut || {
        let rebuilt = GraphBuilder::new(n)
            .edges(g.edges())
            .edge(0, (n - 1) as u32)
            .build();
        std::hint::black_box(rebuilt);
    });
    m.put("graph.rebuild_us", rebuild_s * 1e6, reps);

    let policy = PartitionPolicy::CartesianVertexCut;
    let (partition_s, reps) = median_s(box_s.min(0.2), &mut || {
        std::hint::black_box(partition(g, input.hosts, policy));
    });
    m.put("dgalois.partition_ms", partition_s * 1e3, reps);

    let dg = partition(g, input.hosts, policy);
    let dg1 = partition(g, 1, policy);
    // The multi-host solve and its 1-host twin alternate, so the figures
    // derived from the two together (sync share, ns per sync item) see
    // the same CPU speed on both sides: one solve after the other, each
    // measured once, read 5 % and 23 % sync share on the same road grid.
    let mut outcome = None;
    let (mut dist_us, mut h1_us) = (Vec::new(), Vec::new());
    let mut pair = |rep: usize| {
        let t0 = sys::now_us();
        outcome = Some(mrbc_bc(g, &dg, &input.sources, input.batch));
        let t1 = sys::now_us();
        std::hint::black_box(mrbc_bc(g, &dg1, &input.sources, input.batch));
        let t2 = sys::now_us();
        if rep > 0 {
            dist_us.push((t1 - t0) as f64);
            h1_us.push((t2 - t1) as f64);
        }
    };
    stats::timeboxed((box_s * 1e6) as u64, 1, 3, &mut sys::now_us, &mut pair);
    let outcome = outcome.expect("mrbc_bc ran");
    let (dist, h1) = (Summary::of(&mut dist_us), Summary::of(&mut h1_us));
    let (dist_s, h1_s) = (dist.median / 1e6, h1.median / 1e6);
    m.put("core.dist_mrbc_s", dist_s, dist.n as u64);
    m.put("core.dist_mrbc_h1_s", h1_s, h1.n as u64);

    let counts = Counts::of(&outcome.stats);
    counts.put(&mut m);
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    m.put("core.us_per_round", per(dist_s * 1e6, counts.rounds), 1);
    m.put_noted(
        "core.ns_per_work_unit",
        per(h1_s * 1e9, counts.work_units),
        1,
        "derived: 1-host twin / work units".into(),
    );
    m.put_noted(
        "core.ns_per_sync_item",
        per((dist_s - h1_s) * 1e9, counts.sync_items),
        1,
        "derived: (multi-host - 1-host twin) / sync items".into(),
    );
    m.put_noted(
        "dgalois.sync_share",
        (1.0 - h1_s / dist_s.max(1e-12)) * 100.0,
        1,
        "derived: 1 - h1/dist, base core.dist_mrbc_s".into(),
    );

    let (brandes_s, reps) = median_s(box_s.min(0.5), &mut || {
        std::hint::black_box(brandes::bc_sources(g, &input.sources));
    });
    m.put("core.brandes_s", brandes_s, reps);
    m.put_noted(
        "core.slowdown_vs_brandes",
        dist_s / brandes_s.max(1e-12),
        1,
        "derived: base core.brandes_s".into(),
    );
    let (sbbc_s, reps) = median_s(box_s, &mut || {
        std::hint::black_box(sbbc_bc(g, &dg, &input.sources));
    });
    m.put("core.sbbc_s", sbbc_s, reps);

    let mut next = 0usize;
    let (fwd_s, reps) = median_s(box_s.min(0.1), &mut || {
        let s = input.sources[next % input.sources.len()];
        next += 1;
        std::hint::black_box(brandes::forward_counts(g, s));
    });
    m.put("core.forward_counts_us", fwd_s * 1e6, reps);
    let (topk_s, reps) = median_s(box_s.min(0.1), &mut || {
        std::hint::black_box(postprocess::top_k(&outcome.bc, 10));
    });
    m.put("core.top_k_us", topk_s * 1e6, reps);

    if with_solve {
        let cfg = bc_config(input, input.hosts);
        let (solve_s, reps) = median_s(box_s, &mut || {
            std::hint::black_box(bc(g, &input.sources, &cfg));
        });
        m.put("solve_s", solve_s, reps);
    }
    m
}
