//! The metric registry: every name perfbench may report, with its unit,
//! direction and (for end-to-end metrics) regression bound. The tables
//! here are the single source `BENCHMARK.json` is checked against by a
//! unit test, so the file and the binary cannot drift apart.

use std::collections::BTreeMap;

use mrbc_obs::json::JsonWriter;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One registered metric.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Def {
    /// Reported name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    /// `≡` metrics: counts that must repeat exactly for the same seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: false,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: true,
    }
}

/// The end-to-end metrics every workload reports (`--trace 0`). One
/// *op* is the workload's unit of work: a solve (`offline-*`,
/// `mesh-tcp`), a query (`serve-read`), a mutate→fresh→reads cycle
/// (`serve-churn`); see the README for the per-workload reading.
///
/// The three op metrics carry the widest bound the contract allows
/// because one bound serves all five workloads and the CPU-bound one
/// (`offline-powerlaw`) is only that steady on a shared 2-vCPU box: a
/// pure ALU loop there flips between 61 and 78 ms for seconds at a time,
/// and ten back-to-back runs of one seed spread 8-20 % (README, "How
/// steady"). The sleep-paced workloads repeat within 1-2 %.
pub(crate) const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25),
    e2e("op_slow_ms", "ms", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
];

/// The per-layer metrics of a traced run (`--trace 1`), layer = module.
pub(crate) const PER_LAYER: &[Def] = &[
    // graph
    exact("graph.vertices", "count"),
    exact("graph.edges", "count"),
    lo("graph.generate_ms", "ms"),
    lo("graph.rebuild_us", "us"),
    // dgalois
    lo("dgalois.partition_ms", "ms"),
    exact("dgalois.rounds", "count"),
    exact("dgalois.messages", "count"),
    exact("dgalois.bytes", "bytes"),
    exact("dgalois.sync_items", "count"),
    exact("dgalois.work_units", "count"),
    exact("dgalois.imbalance", "x"),
    exact("dgalois.modeled_exec_s", "s"),
    lo("dgalois.sync_share", "%"),
    lo("dgalois.exchange_ns_per_item", "ns"),
    // core
    lo("solve_s", "s"),
    lo("core.dist_mrbc_s", "s"),
    lo("core.dist_mrbc_h1_s", "s"),
    lo("core.us_per_round", "us"),
    lo("core.ns_per_work_unit", "ns"),
    lo("core.ns_per_sync_item", "ns"),
    lo("core.brandes_s", "s"),
    lo("core.slowdown_vs_brandes", "x"),
    lo("core.sbbc_s", "s"),
    lo("core.forward_counts_us", "us"),
    lo("core.top_k_us", "us"),
    // store / incr
    lo("store.full_bc_cold_ms", "ms"),
    lo("store.full_bc_hit_ns", "ns"),
    lo("store.forward_hit_ns", "ns"),
    lo("store.forward_miss_us", "us"),
    lo("store.mutate_p50_us", "us"),
    lo("store.mutate_p95_us", "us"),
    lo("incr.apply_p50_us", "us"),
    Def {
        better: Better::Higher,
        ..exact("incr.reuse_ratio", "ratio")
    },
    exact("incr.affected_fraction_p50", "ratio"),
    exact("incr.fallback_share", "ratio"),
    exact("incr.artifact_bytes_computed", "bytes"),
    // proto / framing / crc
    lo("proto.encode_request_ns", "ns"),
    lo("proto.decode_request_ns", "ns"),
    lo("proto.encode_response_ns", "ns"),
    lo("proto.decode_response_ns", "ns"),
    lo("framing.seal_open_ns", "ns"),
    hi("crc.mb_per_s", "MB/s"),
    // sched
    lo("sched.submit_take_ns", "ns"),
    lo("sched.queue_us_p50", "us"),
    lo("sched.exec_us_p50", "us"),
    lo("sched.total_us_p50", "us"),
    hi("sched.coalescing_factor", "x"),
    lo("sched.busy_rejections", "count"),
    lo("sched.stale_rejections", "count"),
    // client / server
    lo("query_p50_us", "us"),
    lo("query_p99_us", "us"),
    hi("qps", "1/s"),
    lo("client.connect_us", "us"),
    lo("server.stats_rtt_p50_us", "us"),
    lo("loopback.echo_rtt_p50_us", "us"),
    lo("server.unattributed_us", "us"),
    // pool
    lo("mutate_ack_p50_us", "us"),
    lo("mutate_ack_p95_us", "us"),
    lo("fresh_p50_us", "us"),
    hi("churn_cycles_per_s", "1/s"),
    lo("recovery_ms", "ms"),
    lo("pool.read_p50_us", "us"),
    hi("pool.routed", "count"),
    lo("pool.failovers", "count"),
    lo("pool.retries_emitted", "count"),
    lo("pool.partials_emitted", "count"),
    // wal
    lo("wal.append_p50_us", "us"),
    lo("wal.append_sync_p50_us", "us"),
    lo("wal.bytes_per_record", "bytes"),
    lo("wal.open_ms", "ms"),
    exact("wal.recovered_records", "count"),
    exact("wal.lost_acked", "count"),
    // mesh
    exact("mesh.steps", "count"),
    lo("mesh.bind_connect_ms", "ms"),
    lo("mesh.inproc_solve_s", "s"),
    lo("mesh.tcp_solve_s", "s"),
    lo("mesh.us_per_step", "us"),
    lo("mesh.slowdown_x", "x"),
    // util
    lo("bitset.scan_sparse_ns_per_word", "ns"),
    lo("bitset.scan_dense_ns_per_word", "ns"),
    lo("flat_map.get_ns", "ns"),
    // process / tracing
    lo("proc.cpu_s", "s"),
    lo("proc.cpu_share", "%"),
    lo("failed_share", "%"),
    lo("obs.trace_overhead_pct", "%"),
    lo("obs.trace_events", "count"),
    lo("trace.dgalois.self_share", "%"),
    lo("trace.core.self_share", "%"),
    lo("trace.client.self_share", "%"),
    lo("trace.store.self_share", "%"),
    lo("trace.pool.self_share", "%"),
    lo("trace.mesh.self_share", "%"),
    lo("trace.harness.self_share", "%"),
];

/// Looks a metric up in either table.
pub(crate) fn def(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// One reported value.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Value {
    /// The measured number.
    pub value: f64,
    /// How many samples stand behind it (1 for a counter read).
    pub samples: u64,
    /// Free-text qualifier printed beside it (quartiles, which
    /// percentile a tail really is, "derived", ...).
    pub note: String,
}

/// Named measurements, checked against the registry on entry.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct MetricSet {
    map: BTreeMap<&'static str, Value>,
}

impl MetricSet {
    /// Records `name = value` backed by `samples` samples.
    ///
    /// # Panics
    /// On a name the registry does not know — a typo here would
    /// otherwise surface as a metric silently missing from the output.
    pub(crate) fn put(&mut self, name: &str, value: f64, samples: u64) {
        self.put_noted(name, value, samples, String::new());
    }

    /// [`MetricSet::put`] with a qualifier for the printed report.
    pub(crate) fn put_noted(&mut self, name: &str, value: f64, samples: u64, note: String) {
        let d = def(name).unwrap_or_else(|| panic!("metric `{name}` is not in the registry"));
        self.map.insert(
            d.name,
            Value {
                value,
                samples,
                note,
            },
        );
    }

    /// The recorded value of `name`, if any.
    pub(crate) fn get(&self, name: &str) -> Option<f64> {
        self.map.get(name).map(|v| v.value)
    }

    /// Copies every entry of `other` in, overwriting same-named ones.
    pub(crate) fn absorb(&mut self, other: &MetricSet) {
        for (k, v) in &other.map {
            self.map.insert(k, v.clone());
        }
    }

    /// Copies only `other`'s entries whose name starts with `prefix`.
    pub(crate) fn absorb_prefix(&mut self, other: &MetricSet, prefix: &str) {
        for (k, v) in other.map.iter().filter(|(k, _)| k.starts_with(prefix)) {
            self.map.insert(k, v.clone());
        }
    }

    /// Names from `defs` that have no recorded value.
    pub(crate) fn missing(&self, defs: &[Def]) -> Vec<&'static str> {
        defs.iter()
            .map(|d| d.name)
            .filter(|n| !self.map.contains_key(n))
            .collect()
    }

    /// Writes the contract's `metrics` object: exactly the names of
    /// `defs`, each `{"value": …, "unit": …}`.
    pub(crate) fn write_contract(&self, w: &mut JsonWriter, defs: &[Def]) {
        w.begin_object();
        for d in defs {
            if let Some(v) = self.map.get(d.name) {
                w.key(d.name);
                w.begin_object();
                w.key("value");
                w.float(v.value);
                w.key("unit");
                w.string(d.unit);
                w.end_object();
            }
        }
        w.end_object();
    }

    /// Prints `name value unit (n=samples) note`, one metric per line,
    /// in registry order.
    pub(crate) fn print(&self, defs: &[Def]) {
        for d in defs {
            if let Some(v) = self.map.get(d.name) {
                let exact = if d.exact { " ≡" } else { "" };
                println!(
                    "  {:<34} {:>18.6} {:<6} n={:<6}{exact} {}",
                    d.name, v.value, d.unit, v.samples, v.note
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrbc_obs::json::{self, Value as Json};

    fn find_up(name: &str) -> std::path::PathBuf {
        let start = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        start
            .ancestors()
            .map(|d| d.join(name))
            .find(|p| p.is_file())
            .unwrap_or_else(|| panic!("{name} not found above {}", start.display()))
    }

    fn names_of(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` must be an array"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    fn registry(defs: &[Def]) -> Vec<(String, String, String, Option<f64>)> {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    match d.better {
                        Better::Lower => "lower",
                        Better::Higher => "higher",
                    }
                    .to_string(),
                    d.bound,
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let text = std::fs::read_to_string(find_up("BENCHMARK.json")).expect("read");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(names_of(&doc, "end_to_end"), registry(END_TO_END));
        assert_eq!(names_of(&doc, "per_layer"), registry(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect();
        let ours: Vec<String> = crate::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn registry_obeys_the_contract_limits() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"));
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} registered twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(d.name.chars().all(ok), "{}", d.name);
            assert!(d.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", d.name);
        }
        // setup_s carries the largest bound.
        let max = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(def("setup_s").and_then(|d| d.bound), Some(max));
    }

    #[test]
    fn metric_set_round_trips_the_contract_shape() {
        let mut m = MetricSet::default();
        m.put("setup_s", 0.5, 3);
        m.put_noted("op_p50_ms", 2.25, 100, "q1 2.1 q3 2.4".into());
        assert_eq!(m.get("setup_s"), Some(0.5));
        assert_eq!(
            m.missing(END_TO_END),
            ["op_slow_ms", "ops_per_s", "peak_rss_mb"]
        );
        let mut w = JsonWriter::new();
        m.write_contract(&mut w, END_TO_END);
        let doc = json::parse(&w.finish()).expect("parses");
        let v = doc.get("op_p50_ms").expect("present");
        assert_eq!(v.get("value").and_then(Json::as_f64), Some(2.25));
        assert_eq!(v.get("unit").and_then(Json::as_str), Some("ms"));
        let mut other = MetricSet::default();
        other.put("sched.total_us_p50", 9.0, 1);
        other.put("qps", 400.0, 1);
        m.absorb_prefix(&other, "sched.");
        assert_eq!(m.get("sched.total_us_p50"), Some(9.0));
        assert_eq!(m.get("qps"), None);
        m.absorb(&other);
        assert_eq!(m.get("qps"), Some(400.0));
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn unknown_names_are_rejected() {
        MetricSet::default().put("no.such.metric", 1.0, 1);
    }
}
