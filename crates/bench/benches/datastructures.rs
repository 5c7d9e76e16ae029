//! Criterion micro-benchmarks for the Section 4.3 data-structure choice:
//! the paper observes that a Boost `flat_map` (sorted vector) beats the
//! standard red-black-tree map for `M_v` "even with O(k) insertion
//! complexity due to improved locality" (footnote 1). This bench
//! replicates that comparison for our `FlatMap` vs `std::BTreeMap`, plus
//! set-bit iteration over `DenseBitset`.

// Benches panic on bad fixtures exactly like tests do.
#![allow(clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use mrbc_util::{DenseBitset, FlatMap};
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;

/// The `M_v` access pattern: a handful of distinct distances (MRBC maps
/// distance → source bitvector, so the key universe is tiny), hammered
/// with lookups and in-order scans.
fn mv_pattern(rng: &mut impl Rng, distinct_keys: u32) -> Vec<(u32, bool)> {
    (0..2_000)
        .map(|_| (rng.gen_range(0..distinct_keys), rng.gen_bool(0.2)))
        .collect()
}

fn bench_flat_map_vs_btree(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let ops = mv_pattern(&mut rng, 24);

    let mut group = c.benchmark_group("mv_map");
    group.bench_function("flat_map", |b| {
        b.iter(|| {
            let mut m: FlatMap<u32, u64> = FlatMap::new();
            for &(k, ins) in &ops {
                if ins {
                    m.insert(k, k as u64);
                } else {
                    black_box(m.get(&k));
                }
            }
            // The scheduling scan: full in-order traversal.
            let mut acc = 0u64;
            for (k, v) in m.iter() {
                acc += *k as u64 + v;
            }
            black_box(acc)
        })
    });
    group.bench_function("btree_map", |b| {
        b.iter(|| {
            let mut m: BTreeMap<u32, u64> = BTreeMap::new();
            for &(k, ins) in &ops {
                if ins {
                    m.insert(k, k as u64);
                } else {
                    black_box(m.get(&k));
                }
            }
            let mut acc = 0u64;
            for (k, v) in m.iter() {
                acc += *k as u64 + v;
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_bitset_ops(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let k = 128usize;
    let mut bits = DenseBitset::new(k);
    for _ in 0..48 {
        bits.set(rng.gen_range(0..k));
    }

    let mut group = c.benchmark_group("bitset");
    group.bench_function("iter_ones", |b| {
        b.iter(|| black_box(bits.iter_ones().sum::<usize>()))
    });
    group.finish();
}

criterion_group!(benches, bench_flat_map_vs_btree, bench_bitset_ops);
criterion_main!(benches);
