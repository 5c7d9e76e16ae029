//! Criterion micro-benchmarks for the fault-injection subsystem: what the
//! reliable-delivery layer costs on top of the fault-free substrate, at
//! increasing drop rates.

// Benches panic on bad fixtures exactly like tests do.
#![allow(clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use mrbc_core::{bc, Algorithm, BcConfig};
use mrbc_faults::FaultPlan;
use mrbc_graph::generators::{self, RmatConfig};
use std::hint::black_box;

fn bench_reliable_link(c: &mut Criterion) {
    let g = generators::rmat(RmatConfig::new(9, 8), 11);
    let sources: Vec<u32> = (0..16).collect();
    let base = BcConfig {
        algorithm: Algorithm::Mrbc,
        num_hosts: 4,
        ..BcConfig::default()
    };

    let mut group = c.benchmark_group("mrbc_bc_rmat9_4hosts");
    group.sample_size(10);
    group.bench_function("fault_free", |b| {
        b.iter(|| black_box(bc(&g, &sources, &base)))
    });
    for p in ["0.01", "0.05", "0.20"] {
        let cfg = BcConfig {
            faults: Some(format!("drop:p={p};seed=42").parse::<FaultPlan>().unwrap()),
            ..base.clone()
        };
        group.bench_function(format!("reliable_drop_{p}"), |b| {
            b.iter(|| black_box(bc(&g, &sources, &cfg)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_reliable_link);
criterion_main!(benches);
