//! End-to-end fault injection: the whole-driver BC path must mask network
//! faults bitwise under every distributed algorithm.

use mrbc::prelude::*;

fn plan(spec: &str) -> FaultPlan {
    spec.parse().unwrap_or_else(|e| panic!("{spec:?}: {e}"))
}

#[test]
fn driver_bc_masks_network_faults_under_every_algorithm() {
    let g = generators::web_crawl(WebCrawlConfig::new(200), 17);
    let sources = sample::contiguous_sources(g.num_vertices(), 12, 1);
    let spec = "drop:p=0.08;dup:p=0.03;delay:pair=0-2,rounds=2;seed=5";
    for alg in [Algorithm::Mrbc, Algorithm::Sbbc, Algorithm::Mfbc] {
        let base = BcConfig {
            algorithm: alg,
            num_hosts: 3,
            batch_size: 8,
            ..BcConfig::default()
        };
        let clean = bc(&g, &sources, &base);
        let faulty = bc(
            &g,
            &sources,
            &BcConfig {
                faults: Some(plan(spec)),
                ..base
            },
        );
        assert_eq!(clean.bc, faulty.bc, "{}: masking must be exact", alg.name());
        let rec = faulty.recovery.expect("ledger present under a fault plan");
        assert!(
            rec.drops > 0 && rec.retransmissions > 0,
            "{}: {rec:?}",
            alg.name()
        );
        assert!(
            rec.stall_rounds > 0,
            "{}: straggler link must stall",
            alg.name()
        );
        assert!(
            faulty.communication_time >= clean.communication_time,
            "{}: fault overhead cannot speed the run up",
            alg.name()
        );
    }
}
