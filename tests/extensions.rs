//! Integration tests for the paper-referenced extensions: the batch
//! autotuner, σ-precision approximation, and eager-vs-delayed
//! synchronization.

use mrbc::prelude::*;
use mrbc_core::congest::mrbc::{mrbc_bc_with_precision, SigmaPrecision, TerminationMode};
use mrbc_core::dist::mrbc::{mrbc_bc_with_options, MrbcOptions};
use proptest::prelude::*;

#[test]
fn tuner_agrees_with_exhaustive_sweep() {
    // A decisively long tail: at tail_length 60 the 12-vs-24 margin is
    // ~0.05% and flips with the RNG stream behind the generated crawl;
    // at 120 the batch-24 win is ~40%, making the paper-shape assertion
    // below robust to generator details.
    let g = generators::web_crawl(
        WebCrawlConfig {
            tail_length: 120,
            ..WebCrawlConfig::new(800)
        },
        9,
    );
    let dg = partition(&g, 4, PartitionPolicy::CartesianVertexCut);
    let pilot = sample::contiguous_sources(g.num_vertices(), 24, 1);
    let cost = CostModel::default();
    let outcome = tune_batch_size(&g, &dg, &pilot, &[4, 12, 24], &cost);
    // The winner must be the argmin of the probes it reports.
    let best_probe = outcome
        .samples
        .iter()
        .min_by(|a, b| a.time_per_source.total_cmp(&b.time_per_source))
        .expect("probes");
    assert_eq!(outcome.best_batch_size, best_probe.batch_size);
    // On a long-tail crawl, bigger batches must not lose.
    assert_eq!(outcome.best_batch_size, 24, "{:?}", outcome.samples);
}

#[test]
fn sigma_precision_trades_bits_for_bounded_error() {
    let g = generators::barabasi_albert(300, 3, 4);
    let sources: Vec<u32> = (0..24).collect();
    let exact = mrbc_core::congest::mrbc::mrbc_bc(&g, &sources, TerminationMode::GlobalDetection);
    let approx = mrbc_bc_with_precision(
        &g,
        &sources,
        TerminationMode::GlobalDetection,
        SigmaPrecision::Single,
    );
    assert!(approx.forward.bits < exact.forward.bits);
    for (a, e) in approx.bc.iter().zip(&exact.bc) {
        assert!((a - e).abs() <= 1e-4 * e.abs().max(1.0), "{a} vs {e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_eager_and_delayed_sync_agree(
        n in 4usize..30,
        raw in proptest::collection::vec((0u32..30, 0u32..30), 0..90),
        hosts in 1usize..5,
    ) {
        let edges: Vec<(u32, u32)> =
            raw.into_iter().map(|(u, v)| (u % n as u32, v % n as u32)).collect();
        let g = GraphBuilder::new(n).edges(edges).build();
        let sources = sample::uniform_sources(n, (n / 2).max(1), 3);
        let dg = partition(&g, hosts, PartitionPolicy::CartesianVertexCut);
        let run = |delayed| {
            mrbc_bc_with_options(
                &g,
                &dg,
                &sources,
                &MrbcOptions {
                    batch_size: 4,
                    delayed_sync: delayed,
                },
            )
        };
        let d = run(true);
        let e = run(false);
        for (a, b) in d.bc.iter().zip(&e.bc) {
            prop_assert!((a - b).abs() < 1e-9 * b.abs().max(1.0));
        }
        // Eager can never synchronize fewer items than delayed.
        prop_assert!(e.stats.total_sync_items() >= d.stats.total_sync_items());
    }
}
