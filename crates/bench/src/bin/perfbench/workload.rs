//! The five workloads: their names, why each is in the set, the inputs
//! each generates from the seed, and the shape every measured pass
//! reports back in.

use mrbc_graph::{generators, sample, CsrGraph, GraphBuilder, VertexId};

use crate::gen::{Rng, Seeds};
use crate::metrics::{Def, MetricSet};
use crate::stats::{self, Summary};
use crate::sys;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Workload {
    /// Offline `bc()` on a low-diameter power-law graph.
    OfflinePowerlaw,
    /// Offline `bc()` on a high-diameter road grid.
    OfflineRoad,
    /// Cached reads against a single serve daemon.
    ServeRead,
    /// Mutations beside reads through a durable two-worker pool.
    ServeChurn,
    /// The SPMD solver over the real TCP mesh.
    MeshTcp,
}

impl Workload {
    /// Every workload, in reporting order.
    pub(crate) const ALL: [Workload; 5] = [
        Workload::OfflinePowerlaw,
        Workload::OfflineRoad,
        Workload::ServeRead,
        Workload::ServeChurn,
        Workload::MeshTcp,
    ];

    /// The `--workload` name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Workload::OfflinePowerlaw => "offline-powerlaw",
            Workload::OfflineRoad => "offline-road",
            Workload::ServeRead => "serve-read",
            Workload::ServeChurn => "serve-churn",
            Workload::MeshTcp => "mesh-tcp",
        }
    }

    /// Parses a `--workload` name.
    pub(crate) fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one *op* of this workload is (the unit `op_p50_ms`,
    /// `op_slow_ms` and `ops_per_s` count).
    pub(crate) fn op(self) -> &'static str {
        match self {
            Workload::OfflinePowerlaw | Workload::OfflineRoad => "one bc() solve",
            Workload::ServeRead => "one query of the read mix",
            Workload::ServeChurn => "one mutate -> fresh read -> 3 cached reads cycle",
            Workload::MeshTcp => "one 2-rank TCP solve (bind + connect + steps)",
        }
    }

    /// The share by which `--aa` lets two runs of this workload differ
    /// on an end-to-end metric. The contract's `BENCHMARK.json` has one
    /// bound per metric for all five workloads, set by the noisiest; a
    /// workload that repeats more steadily than that (README, "How
    /// steady") is held to the issue's tighter bound here.
    pub(crate) fn aa_bound(self, def: &Def) -> f64 {
        let contract = def.bound.unwrap_or(f64::INFINITY);
        let own = match (self, def.name) {
            (Workload::ServeRead, "op_p50_ms" | "ops_per_s") => 0.10,
            (Workload::MeshTcp, "op_p50_ms") => 0.15,
            _ => contract,
        };
        own.min(contract)
    }

    /// The input this workload generates (`quick` = the ≤ 2 s shape,
    /// whose numbers are not comparable with anything).
    pub(crate) fn input_spec(self, quick: bool) -> InputSpec {
        use {GraphSpec::*, Variation::*};
        let spec = |graph, sources, varies, hosts, batch| InputSpec {
            graph,
            sources,
            varies,
            hosts,
            batch,
        };
        match (self, quick) {
            // Paper's low-diameter regime: few rounds, heavy traffic.
            (Workload::OfflinePowerlaw, false) => spec(Rmat(12, 16), 256, Labels, 16, 64),
            (Workload::OfflinePowerlaw, true) => spec(Rmat(7, 8), 16, Labels, 4, 8),
            // Paper's high-diameter regime: ~1 000 nearly empty rounds.
            (Workload::OfflineRoad, false) => spec(Road(16, 512), 32, Streets, 4, 32),
            (Workload::OfflineRoad, true) => spec(Road(4, 32), 8, Streets, 2, 4),
            // 1 024 vertices: the incremental engine's admission cap.
            // The 64 sampled sources are the read mix's hot set.
            (Workload::ServeRead | Workload::ServeChurn, false) => {
                spec(Rmat(10, 8), 64, Traffic, 4, 32)
            }
            (Workload::ServeRead | Workload::ServeChurn, true) => {
                spec(Rmat(6, 8), 16, Traffic, 2, 8)
            }
            (Workload::MeshTcp, false) => spec(Road(8, 64), 32, Streets, 2, 16),
            (Workload::MeshTcp, true) => spec(Road(2, 8), 4, Streets, 2, 4),
        }
    }
}

/// The dataset seed: what the generators are seeded with wherever the
/// command-line seed is *not* allowed to move an input property.
const DATASET_SEED: u64 = 0x6d72_6263_2d70_6572; // "mrbc-per"

/// What `--seed` varies in a workload's input. Wall time follows the
/// work in the input, and the work in a freshly drawn graph or source
/// chunk differs by tens of percent from draw to draw — far more than
/// any regression bound (measured: 660 to 1 220 ms per solve across six
/// seeds of `rmat(12, 16)`). So the graph generators run on a fixed
/// *dataset seed*, and the command-line seed draws instances of equal
/// work from there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Variation {
    /// The seed relabels the vertices of the dataset graph (and its
    /// source chunk with them): an isomorphic instance, so the same
    /// relaxations and path counts, laid out and partitioned afresh.
    Labels,
    /// The seed picks which cross streets the road generator removes;
    /// the source chunk stays where the dataset seed put it (on a
    /// 500-hop grid the chunk's position alone doubles the round count).
    Streets,
    /// The graph is the dataset; the seed draws the traffic: the hot
    /// source set, the query mix, the mutation endpoints. (What a
    /// mutation costs depends on where in the graph it lands, which
    /// averages out over a run's hundreds of mutations; what it costs
    /// on a *different* graph does not.)
    Traffic,
}

/// Which generator builds a workload's graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum GraphSpec {
    /// `rmat(scale, edge_factor)`.
    Rmat(u32, usize),
    /// `grid_road_network(height × width)`.
    Road(usize, usize),
}

/// Everything that determines a workload's generated input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct InputSpec {
    /// Graph generator and size.
    pub graph: GraphSpec,
    /// Number of BC sources sampled.
    pub sources: usize,
    /// What the command-line seed varies.
    pub varies: Variation,
    /// Simulated hosts / mesh ranks.
    pub hosts: usize,
    /// Source batch size `k`.
    pub batch: usize,
}

/// A generated input.
pub(crate) struct Input {
    /// The graph.
    pub g: CsrGraph,
    /// The sampled sources.
    pub sources: Vec<VertexId>,
    /// Simulated hosts / mesh ranks.
    pub hosts: usize,
    /// Source batch size `k`.
    pub batch: usize,
    /// Wall milliseconds the generator took.
    pub generate_ms: f64,
}

impl InputSpec {
    /// Generates the input for `seeds`.
    pub(crate) fn build(&self, seeds: Seeds) -> Input {
        let (graph_seed, source_seed) = match self.varies {
            Variation::Labels => (DATASET_SEED, DATASET_SEED),
            Variation::Streets => (seeds.graph, DATASET_SEED),
            Variation::Traffic => (DATASET_SEED, seeds.sources),
        };
        let t0 = sys::now_us();
        let mut g = match self.graph {
            GraphSpec::Rmat(scale, ef) => {
                generators::rmat(generators::RmatConfig::new(scale, ef), graph_seed)
            }
            GraphSpec::Road(h, w) => {
                generators::grid_road_network(generators::RoadNetworkConfig::new(h, w), graph_seed)
            }
        };
        let n = g.num_vertices();
        // The paper's scheme (a contiguous chunk) for solves; a uniform
        // sample for the serve workloads' hot set.
        let mut sources = match self.varies {
            Variation::Traffic => sample::uniform_sources(n, self.sources, source_seed),
            _ => sample::contiguous_sources(n, self.sources, source_seed),
        };
        if self.varies == Variation::Labels {
            let mut label: Vec<VertexId> = (0..n as VertexId).collect();
            let mut rng = Rng::new(seeds.graph);
            for i in (1..n).rev() {
                label.swap(i, rng.below(i as u32 + 1) as usize);
            }
            g = GraphBuilder::new(n)
                .edges(
                    g.edges()
                        .map(|(u, v)| (label[u as usize], label[v as usize])),
                )
                .build();
            for s in &mut sources {
                *s = label[*s as usize];
            }
        }
        let generate_ms = sys::secs_since(t0) * 1e3;
        Input {
            g,
            sources,
            hosts: self.hosts,
            batch: self.batch,
            generate_ms,
        }
    }
}

/// Mutations in the log `recovery_ms` restarts from: one snapshot's
/// worth (the pool's default `wal_snapshot_every`, 64) plus a 40-record
/// suffix, so a restart exercises snapshot load *and* log replay.
pub(crate) const WAL_HISTORY: usize = 64 + 40;

/// How long and how thoroughly one pass measures.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Effort {
    /// The time box of the pass's timed section, seconds.
    pub seconds: f64,
    /// Set-ups performed and timed (the median is reported). The first
    /// is the instance the pass measures; the others run after it.
    pub setups: usize,
    /// Solves discarded as warm-up before the measured ones.
    pub warm_ups: usize,
    /// Measured repetitions a solve-type section must reach even when
    /// the box is already spent.
    pub min_reps: usize,
    /// Cold restarts timed for `recovery_ms`.
    pub recoveries: usize,
    /// Acknowledged mutations in the log those restarts recover.
    pub wal_history: usize,
}

impl Effort {
    /// A full untraced pass: the contract's `--seconds`, three set-ups.
    pub(crate) fn full(seconds: f64) -> Effort {
        Effort {
            seconds,
            setups: 3,
            warm_ups: 1,
            min_reps: 5,
            recoveries: 5,
            wal_history: WAL_HISTORY,
        }
    }

    /// A reduced pass (reference / traced / probe): one set-up, a
    /// shorter box, fewer forced repetitions.
    pub(crate) fn reduced(seconds: f64) -> Effort {
        Effort {
            seconds,
            setups: 1,
            warm_ups: 1,
            min_reps: 2,
            recoveries: 2,
            wal_history: WAL_HISTORY,
        }
    }

    /// The `--quick` shape: no warm-up, one of everything, a 12-record
    /// restart log.
    pub(crate) fn quick(seconds: f64) -> Effort {
        Effort {
            seconds,
            setups: 1,
            warm_ups: 0,
            min_reps: 1,
            recoveries: 1,
            wal_history: 12,
        }
    }

    /// The time box in µs.
    pub(crate) fn box_us(&self) -> u64 {
        (self.seconds * 1e6) as u64
    }
}

/// What one measured pass of a workload reports.
#[derive(Default)]
pub(crate) struct Pass {
    /// Median set-up seconds (graph generation … first timed op).
    pub setup_s: f64,
    /// `VmHWM` when the timed section and its audit ended, MB. Read
    /// before the extra set-ups and restarts: those create fresh threads
    /// whose allocator arenas the process keeps, so a later reading
    /// would measure arena reuse, not the program.
    pub peak_rss_mb: f64,
    /// Per-op latency of the pass, µs.
    pub op_us: Summary,
    /// The slow end of op latency in ms, and which statistic it is.
    pub op_slow_ms: f64,
    /// What `op_slow_ms` is on this pass (`p99`, `p95`, `slowest`, …).
    pub op_slow_what: String,
    /// Ops completed per wall second under the workload's concurrency.
    pub ops_per_s: f64,
    /// Layer and scenario metrics this pass measured.
    pub layers: MetricSet,
    /// Operations attempted (requests sent, solves started).
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// Human-readable audit findings (empty = every check passed).
    pub problems: Vec<String>,
}

impl Pass {
    /// Ends the measured part of the pass: takes the peak-RSS reading,
    /// then times the remaining set-ups (each torn down at once) and
    /// reports the median over all of them, `first_s` included.
    pub(crate) fn finish_setups(
        &mut self,
        first_s: f64,
        effort: Effort,
        set_up: &mut dyn FnMut() -> Result<(), String>,
    ) -> Result<(), String> {
        self.peak_rss_mb = sys::peak_rss_mb();
        let mut all = vec![first_s];
        // The cheaper the set-up, the more often it is repeated, so a
        // sub-millisecond median is not decided by one page-fault burst.
        let total = effort.setups
            * match first_s {
                s if s < 0.005 => 10,
                s if s < 0.05 => 3,
                _ => 1,
            };
        for _ in 1..total {
            let t0 = sys::now_us();
            set_up()?;
            all.push(sys::secs_since(t0));
        }
        self.setup_s = Summary::of(&mut all).median;
        Ok(())
    }

    /// The timed section of a solve-type workload: repeats `solve`
    /// until the box is spent (warm-ups discarded, `min_reps` measured
    /// at least) and sets the op figures from the measured solves.
    pub(crate) fn time_solves(&mut self, effort: Effort, solve: &mut dyn FnMut(usize)) {
        let mut op_us = stats::timeboxed(
            effort.box_us(),
            effort.warm_ups,
            effort.min_reps,
            &mut sys::now_us,
            solve,
        );
        let measured_s: f64 = op_us.iter().sum::<f64>() / 1e6;
        self.ops_per_s = op_us.len() as f64 / measured_s.max(1e-9);
        self.attempted += (op_us.len() + effort.warm_ups) as u64;
        self.set_ops(&mut op_us, 99.0);
    }

    /// Records a failed audit check.
    pub(crate) fn problem(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }

    /// Sets the op-latency figures from per-op µs samples: the median,
    /// and as the slow end the `want`-th percentile under [`tail_us`]'s
    /// rule.
    pub(crate) fn set_ops(&mut self, op_us: &mut [f64], want: f64) {
        self.op_us = Summary::of(op_us);
        let (slow_us, what) = tail_us(op_us, want);
        self.op_slow_ms = slow_us / 1e3;
        self.op_slow_what = what;
    }
}

/// Whether two score vectors are equal bit for bit (the repo's parity
/// contract is bitwise, so `==` — blind to `-0.0` and NaN payloads —
/// is not the comparison).
pub(crate) fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter()
        .map(|x| x.to_bits())
        .eq(b.iter().map(|x| x.to_bits()))
}

/// The slow end of sorted µs samples, and which statistic it is: the
/// `want`-th percentile when at least ten samples lie beyond it, else
/// the highest percentile above the median that the sample does
/// support, else the slowest sample. A tail figure therefore never sits
/// below the median it is printed beside, and on a sample too small for
/// any tail percentile it bounds the tail from above instead of naming a
/// percentile the sample cannot support. `(0, …)` on an empty sample.
pub(crate) fn tail_us(sorted_us: &[f64], want: f64) -> (f64, String) {
    match stats::tail(sorted_us, want) {
        Some(t) if t.pct == want => (t.value, format!("p{want}")),
        Some(t) if t.pct > 50.0 => (
            t.value,
            format!("p{} (sample too small for p{want})", t.pct),
        ),
        _ => (
            sorted_us.last().copied().unwrap_or(0.0),
            format!(
                "slowest of {} (sample too small for p{want})",
                sorted_us.len()
            ),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_inputs_are_seeded() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(!w.op().is_empty());
        }
        assert_eq!(Workload::parse("nope"), None);
        let spec = Workload::MeshTcp.input_spec(true);
        let a = spec.build(Seeds::from_seed(1));
        let b = spec.build(Seeds::from_seed(1));
        let c = spec.build(Seeds::from_seed(2));
        assert_eq!(a.sources, b.sources);
        assert_eq!(
            a.g.edges().collect::<Vec<_>>(),
            b.g.edges().collect::<Vec<_>>()
        );
        assert!(
            a.sources != c.sources
                || a.g.edges().collect::<Vec<_>>() != c.g.edges().collect::<Vec<_>>()
        );
        assert_eq!(a.g.num_vertices(), 16);
    }

    #[test]
    fn slow_end_follows_the_sample_size() {
        let mut p = Pass::default();
        let mut few: Vec<f64> = (1..=12).map(|i| i as f64 * 1000.0).collect();
        p.set_ops(&mut few, 99.0);
        assert_eq!(p.op_slow_ms, 12.0);
        assert!(
            p.op_slow_what.starts_with("slowest of 12"),
            "{}",
            p.op_slow_what
        );
        let mut many: Vec<f64> = (1..=1000).map(|i| i as f64 * 1000.0).collect();
        p.set_ops(&mut many, 99.0);
        assert_eq!((p.op_slow_ms, p.op_slow_what.as_str()), (990.0, "p99"));
        assert_eq!(p.op_us.median, 500_500.0);
        let (v, note) = tail_us(&many[..300], 99.0);
        assert_eq!(v, 285_000.0);
        assert!(note.starts_with("p95"), "{note}");
        // 30 samples support the median and nothing above it: the tail
        // is the slowest sample, never a p50 under a p95's name.
        let (v, note) = tail_us(&many[..30], 95.0);
        assert_eq!(v, 30_000.0);
        assert!(note.starts_with("slowest of 30"), "{note}");
        assert!(v >= stats::median(&many[..30]).expect("non-empty"));
        assert_eq!(tail_us(&[], 95.0).0, 0.0);
    }
}
