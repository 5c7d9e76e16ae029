//! Peak live bytes of SPMD MRBC runs. At a batch boundary the program
//! frees the finished batch before it builds the next, so a multi-batch
//! run peaks at about the live memory of a single batch instead of two;
//! and a batch holds its labels and its proxies' distances, not a table
//! of parked δ contributions or per-proxy σ and δ partials.

// The workspace denies unsafe_code; measuring peak live bytes requires
// implementing GlobalAlloc, as in `crates/obs/tests/no_overhead.rs`.
#![allow(unsafe_code)]

use mrbc_core::dist::spmd::MrbcSpmd;
use mrbc_dgalois::spmd::run_local;
use mrbc_dgalois::{partition, PartitionPolicy};
use mrbc_graph::generators;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates directly to the system allocator; the two counters
// are relaxed atomics with no further invariants.
unsafe impl GlobalAlloc for PeakAlloc {
    // SAFETY: same contract as `System.alloc`, to which this forwards.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: layout is forwarded unchanged from the caller.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System.dealloc`, to which this forwards.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: ptr/layout are forwarded unchanged from the caller.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Peak live bytes above the starting level while `f` runs.
fn peak_during(f: impl FnOnce()) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed) - base
}

#[test]
fn a_batch_boundary_holds_one_batch_not_two() {
    let g = generators::rmat(generators::RmatConfig::new(10, 8), 3);
    let dg = partition(&g, 4, PartitionPolicy::CartesianVertexCut);
    let run = |sources: &[u32]| {
        peak_during(|| {
            let mut prog = MrbcSpmd::new(&g, &dg, sources, 32);
            run_local(&mut prog, u64::MAX).expect("run");
        })
    };
    let sources: Vec<u32> = (0..128).collect();
    let one = run(&sources[..32]);
    let four = run(&sources);
    let ratio = four as f64 / one as f64;
    assert!(
        ratio <= 1.1,
        "4 batches peaked at {four} B, {ratio:.3}× one batch's {one} B"
    );
}

#[test]
fn a_road_batch_peaks_below_thirteen_megabytes() {
    // Road 16×512 (8,192 vertices), one batch of k = 32, 4 hosts: the
    // four n·k label tables alone are 6.3 MB, and the run peaks at about
    // 11.5 MB, as each of the 12,124 proxies keeps only its distances.
    // Per-proxy σ and δ partials (16 B per proxy and source) took the
    // same run to 17.7 MB.
    let g = generators::grid_road_network(generators::RoadNetworkConfig::new(16, 512), 5);
    let dg = partition(&g, 4, PartitionPolicy::CartesianVertexCut);
    let sources: Vec<u32> = (0..32).collect();
    let peak = peak_during(|| {
        let mut prog = MrbcSpmd::new(&g, &dg, &sources, 32);
        run_local(&mut prog, u64::MAX).expect("run");
    });
    assert!(peak <= 13_000_000, "one road batch peaked at {peak} B");
}
