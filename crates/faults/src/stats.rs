//! Recovery-overhead accounting.

use std::fmt;

/// The cost of surviving the injected faults, filled in by the reliable
/// delivery layer. Everything here is
/// *overhead relative to the fault-free run*: a plan that injects nothing
/// leaves every field zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Data transmissions lost in the network.
    pub drops: u64,
    /// Acknowledgements lost (the data arrived, but the sender timed out
    /// and resent anyway).
    pub ack_drops: u64,
    /// Spurious duplicate deliveries suppressed by sequence numbers.
    pub duplicates: u64,
    /// Payload retransmissions performed by the reliable layer.
    pub retransmissions: u64,
    /// Extra bytes on the wire: resent payloads, acks, duplicates.
    pub retry_bytes: u64,
    /// Extra rounds spent in retransmission backoff and straggler stalls
    /// (per BSP round, the slowest host pair's stall — the barrier waits
    /// for it).
    pub stall_rounds: u64,
}

impl RecoveryStats {
    /// True if no fault fired and no recovery machinery ran.
    pub fn is_clean(&self) -> bool {
        *self == Self::default()
    }

    /// Accumulates another phase's overhead into this one.
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.drops += other.drops;
        self.ack_drops += other.ack_drops;
        self.duplicates += other.duplicates;
        self.retransmissions += other.retransmissions;
        self.retry_bytes += other.retry_bytes;
        self.stall_rounds += other.stall_rounds;
    }
}

impl fmt::Display for RecoveryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fault overhead: {} drops + {} lost acks + {} duplicates -> {} retransmissions, {} retry bytes, {} stall rounds",
            self.drops,
            self.ack_drops,
            self.duplicates,
            self.retransmissions,
            self.retry_bytes,
            self.stall_rounds,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fieldwise() {
        let mut a = RecoveryStats {
            drops: 1,
            retry_bytes: 100,
            stall_rounds: 3,
            ..RecoveryStats::default()
        };
        let b = RecoveryStats {
            drops: 2,
            duplicates: 1,
            retransmissions: 7,
            ..RecoveryStats::default()
        };
        a.merge(&b);
        assert_eq!(a.drops, 3);
        assert_eq!(a.retry_bytes, 100);
        assert_eq!(a.stall_rounds, 3);
        assert_eq!(a.duplicates, 1);
        assert_eq!(a.retransmissions, 7);
        assert!(!a.is_clean());
        assert!(RecoveryStats::default().is_clean());
    }

    #[test]
    fn display_mentions_the_headline_numbers() {
        let s = RecoveryStats {
            drops: 5,
            retransmissions: 4,
            stall_rounds: 2,
            ..RecoveryStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("5 drops"), "{text}");
        assert!(text.contains("4 retransmissions"), "{text}");
        assert!(text.contains("2 stall rounds"), "{text}");
    }
}
