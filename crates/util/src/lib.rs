//! Support data structures for the MRBC reproduction.
//!
//! This crate contains the small, dependency-free building blocks that the
//! rest of the workspace is built on:
//!
//! * [`DenseBitset`] — a fixed-capacity bitset over `u64` words. The
//!   Gluon-style synchronization layer uses them to track which vertices
//!   were updated in a round, and MRBC to mark the proxy labels already
//!   synchronized.
//! * [`FlatMap`] — a sorted-vector map. The paper explicitly uses a *Boost
//!   flat map* for its `M_v : distance → bitvector over sources` (Section
//!   4.3) because the improved locality of a sorted vector beats a
//!   red-black tree even with `O(k)` insertion; this is the Rust
//!   equivalent, kept for the benches that replay that comparison (MRBC
//!   itself derives `M_v` from its distance table).
//! * [`stats`] — running statistics, load-imbalance ratios, and formatting
//!   helpers used by the benchmark harness.
//! * [`sync`] — the CAS primitives of the asynchronous execution paths
//!   ([`sync::AtomicMin`], [`sync::ActivityCounter`]), model-checked
//!   under loom (`RUSTFLAGS="--cfg loom"`).
//! * [`backoff`] — deterministic exponential backoff with seeded jitter,
//!   shared by the simulated [`ReliableLink`] retry loop and the real TCP
//!   reconnect path in `mrbc-net`.
//! * [`crc`] / [`wire`] — CRC-32 checksums and the bounds-checked
//!   little-endian encoding used for network frames, SPMD exchange
//!   payloads, and durable checkpoints.
//! * [`framing`] — the shared `[len][crc][body]` stream envelope and
//!   magic/version handshake preamble every TCP protocol in the
//!   workspace (`mrbc-net`, `mrbc-serve`) speaks.
//! * [`fsio`] — the one durable file-replacement sequence (write tmp →
//!   fsync → rename → fsync dir) shared by the WAL and the checkpoint
//!   store.
//! * [`wal`] — a durable write-ahead log (CRC-framed records, rotating
//!   segments, torn-tail truncation, fsync per append or group commit, and
//!   snapshot compaction) backing the serving tier's ack-durability
//!   promise.
//!
//! [`ReliableLink`]: https://docs.rs/mrbc-dgalois

pub mod backoff;
mod bitset;
pub mod crc;
mod flat_map;
pub mod framing;
pub mod fsio;
pub mod stats;
pub mod sync;
pub mod wal;
pub mod wire;

pub use bitset::DenseBitset;
pub use flat_map::FlatMap;

/// A cheap, high-quality 64-bit mixer (splitmix64 finalizer).
///
/// Used for deterministic pseudo-random decisions that must not consume
/// state from a shared RNG (e.g. hashed edge partitioning).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
        // Consecutive inputs should differ in many bits.
        let d = (splitmix64(41) ^ splitmix64(42)).count_ones();
        assert!(d > 10, "poor avalanche: {d} differing bits");
    }
}
