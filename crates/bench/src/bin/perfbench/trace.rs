//! The traced pass's harvest: write the recorder's timeline as a
//! Perfetto file, and fold its spans into self time per layer.
//!
//! The bench opens one root span per op (`bench.op`) and wraps every
//! call it makes into a layer in `bench.<layer>.<call>`; the program's
//! own spans land in the same recorder. A span's *self time* is its
//! duration minus the part covered by the spans nested directly inside
//! it, so the shares of one op add up to the op.

use std::collections::BTreeMap;
use std::path::PathBuf;

use mrbc_obs::{Recorder, TraceEvent};

use crate::metrics::MetricSet;
use crate::sys;

/// The root span every op runs under.
const ROOT: &str = "bench.op";

/// Layers self time is reported for (`trace.<layer>.self_share`);
/// `harness` is the root span's own self time — op time not inside any
/// call into the program.
const LAYERS: [&str; 7] = [
    "dgalois", "core", "client", "store", "pool", "mesh", "harness",
];

/// Which layer a span's time belongs to.
fn layer_of(name: &str) -> &'static str {
    if name == ROOT {
        return "harness";
    }
    let module = name
        .strip_prefix("bench.")
        .unwrap_or(name)
        .split('.')
        .next()
        .unwrap_or("");
    match module {
        "dgalois" | "exchange" => "dgalois",
        "core" | "batch" => "core",
        "client" => "client",
        // The daemon's execution span around one job against the store.
        "serve" | "store" => "store",
        "pool" => "pool",
        "mesh" | "net" => "mesh",
        _ => "harness",
    }
}

/// Self time per layer, µs, summed over every op-rooted span tree of
/// `events`, plus the total root time. Spans outside any root (session
/// lifetimes, set-up) are ignored. Nesting is by time containment in
/// start order; where threads overlap (two mesh ranks, two clients) a
/// span that merely overlaps its predecessor becomes its sibling, so
/// shares stay within the op but are approximate there.
pub(crate) fn self_time_by_layer(events: &[TraceEvent]) -> (BTreeMap<&'static str, u64>, u64) {
    let mut order: Vec<(usize, &TraceEvent)> = events.iter().enumerate().collect();
    // Parents before children: earlier start first, then longer first,
    // then later-recorded first — a guard is recorded when it drops, so
    // of two spans with the same µs start and length the outer one was
    // recorded last.
    order.sort_by_key(|&(i, e)| (e.ts_us, std::cmp::Reverse(e.dur_us), std::cmp::Reverse(i)));
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut root_total = 0u64;
    // Open spans, innermost last: (end, layer, duration, time covered by
    // direct children).
    type Open = (u64, &'static str, u64, u64);
    let mut stack: Vec<Open> = Vec::new();
    fn close(stack: &mut Vec<Open>, by_layer: &mut BTreeMap<&'static str, u64>) {
        if let Some((_, layer, dur, covered)) = stack.pop() {
            *by_layer.entry(layer).or_default() += dur.saturating_sub(covered);
        }
    }
    for (_, e) in order {
        let end = e.ts_us + e.dur_us;
        while stack.last().is_some_and(|top| end > top.0) {
            close(&mut stack, &mut by_layer);
        }
        if stack.is_empty() && e.name != ROOT {
            continue;
        }
        if let Some(parent) = stack.last_mut() {
            parent.3 += e.dur_us;
        } else {
            root_total += e.dur_us;
        }
        stack.push((end, layer_of(e.name), e.dur_us, 0));
    }
    while !stack.is_empty() {
        close(&mut stack, &mut by_layer);
    }
    (by_layer, root_total)
}

/// What a traced pass leaves behind.
pub(crate) struct Harvest {
    /// Where the Perfetto timeline was written.
    pub file: PathBuf,
    /// Events recorded (and how many the recorder had to drop).
    pub events: usize,
    /// Events dropped at the recorder's cap.
    pub dropped: u64,
    /// Self µs per layer, for the printed report.
    pub self_us: BTreeMap<&'static str, u64>,
}

/// Writes `rec`'s timeline to `<target>/perfbench/trace-<workload>.json`
/// and records `trace.<layer>.self_share` and `obs.trace_events`.
pub(crate) fn harvest(
    rec: &Recorder,
    workload: &str,
    m: &mut MetricSet,
) -> Result<Harvest, String> {
    let dir = sys::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let file = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&file, rec.to_chrome_trace_json())
        .map_err(|e| format!("{}: {e}", file.display()))?;

    let (self_us, root_total) = self_time_by_layer(rec.events());
    for layer in LAYERS {
        let us = self_us.get(layer).copied().unwrap_or(0);
        m.put_noted(
            &format!("trace.{layer}.self_share"),
            us as f64 / root_total.max(1) as f64 * 100.0,
            rec.events().len() as u64,
            format!("{us} us of {root_total} us under {ROOT}"),
        );
    }
    m.put("obs.trace_events", rec.events().len() as f64, 1);
    Ok(Harvest {
        file,
        events: rec.events().len(),
        dropped: rec.dropped_events(),
        self_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, ts_us: u64, dur_us: u64) -> TraceEvent {
        TraceEvent {
            name,
            cat: "bench",
            ts_us,
            dur_us,
            tid: 0,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let events = [
            // Outside any root: ignored.
            ev("serve.session", 0, 10_000),
            // Op 0: 100 µs, of which a client call 80, of which the
            // daemon's execution 30.
            ev("bench.op", 100, 100),
            ev("bench.client.call", 110, 80),
            ev("serve.query", 120, 30),
            // Op 1: a solve with partition then rounds with exchanges.
            ev("bench.op", 300, 1000),
            ev("bench.dgalois.partition", 300, 200),
            ev("bench.core.mrbc_bc", 500, 800),
            ev("batch.forward", 510, 400),
            ev("exchange.reduce", 520, 100),
            ev("exchange.broadcast", 700, 50),
        ];
        let (by, total) = self_time_by_layer(&events);
        assert_eq!(total, 1100);
        assert_eq!(by["harness"], 20);
        assert_eq!(by["client"], 50);
        assert_eq!(by["store"], 30);
        assert_eq!(by["dgalois"], 200 + 100 + 50);
        assert_eq!(by["core"], (800 - 400) + (400 - 150));
        assert_eq!(by.values().sum::<u64>(), total, "shares add up to the ops");
    }

    #[test]
    fn equal_spans_nest_in_recording_order() {
        // Inner guards drop (and are recorded) first; at µs resolution a
        // call can have exactly its root's start and length.
        let events = [ev("bench.client.call", 10, 50), ev("bench.op", 10, 50)];
        let (by, total) = self_time_by_layer(&events);
        assert_eq!((total, by["client"], by["harness"]), (50, 50, 0));
    }

    #[test]
    fn overlapping_siblings_stay_inside_the_op() {
        // Two rank threads exchanging at overlapping times under one op.
        let events = [
            ev("bench.op", 0, 100),
            ev("net.worker.exchange", 10, 50),
            ev("net.worker.exchange", 30, 50),
        ];
        let (by, total) = self_time_by_layer(&events);
        assert_eq!(total, 100);
        assert_eq!(by["mesh"], 100);
        assert_eq!(by["harness"], 0);
    }

    #[test]
    fn layer_names_cover_bench_and_program_spans() {
        assert_eq!(layer_of("bench.op"), "harness");
        assert_eq!(layer_of("bench.pool.mutate"), "pool");
        assert_eq!(layer_of("pool.route"), "pool");
        assert_eq!(layer_of("bench.mesh.run_worker"), "mesh");
        assert_eq!(layer_of("net.worker.exchange"), "mesh");
        assert_eq!(layer_of("batch.backward"), "core");
        assert_eq!(layer_of("something.else"), "harness");
        for layer in LAYERS {
            assert!(crate::metrics::def(&format!("trace.{layer}.self_share")).is_some());
        }
    }
}
