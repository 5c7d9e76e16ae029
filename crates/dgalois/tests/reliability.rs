//! Property tests for the shared seq/ack reliability core and for
//! [`ReliableLink`] masking under hostile delivery schedules.
//!
//! The previous suite only exercised message *drop* and *duplication*; the
//! properties here additionally subject the acknowledgement path to
//! duplication AND reordering (stale cumulative acks, re-delivered acks,
//! acks arriving out of order), which is exactly what a real TCP mesh
//! produces when connections break and unacked frames are resent after
//! reconnect.

use mrbc_dgalois::comm::{Exchange, PhaseDir, ReliableLink, RoundComm};
use mrbc_dgalois::reliability::{Accept, AckTracker, PairSeqs, Reassembly};
use mrbc_dgalois::{partition, PartitionPolicy};
use mrbc_faults::FaultSession;
use mrbc_graph::generators;
use proptest::prelude::*;

proptest! {
    /// End-to-end sender/receiver exchange over an adversarial network:
    /// data frames are delivered in random order with duplicates, acks are
    /// cumulative, may be dropped, duplicated, and applied out of order.
    /// After a deterministic resend-until-acked recovery phase, every
    /// payload must have been released exactly once, in order, and the
    /// sender's retention buffer must be empty.
    #[test]
    fn core_masks_duplication_and_reordering_of_data_and_acks(
        n in 1usize..48,
        entropy in proptest::collection::vec(0u64..(1u64 << 62), 0..192),
    ) {
        let mut seqs = PairSeqs::new(2);
        let mut sender: AckTracker<u64> = AckTracker::new();
        for i in 0..n {
            let seq = seqs.alloc(0, 1);
            prop_assert_eq!(seq, i as u64);
            sender.sent(seq, 1000 + seq); // payload distinguishable from seq
        }
        let mut receiver: Reassembly<u64> = Reassembly::new();
        let mut delivered: Vec<u64> = Vec::new();
        // Cumulative acks in flight; index-addressed so the schedule can
        // deliver them out of order, and entries are only *sometimes*
        // removed on delivery so the same ack can arrive twice.
        let mut acks_in_flight: Vec<u64> = Vec::new();

        for e in entropy {
            match e % 4 {
                0 | 1 => {
                    // Deliver a random still-unacked data frame (possibly a
                    // duplicate of one already released).
                    let unacked: Vec<(u64, u64)> =
                        sender.unacked().map(|(s, &p)| (s, p)).collect();
                    if unacked.is_empty() {
                        continue;
                    }
                    let (seq, payload) = unacked[(e as usize / 4) % unacked.len()];
                    receiver.offer(seq, payload, &mut delivered);
                    if let Some(c) = receiver.cumulative_ack() {
                        acks_in_flight.push(c);
                    }
                }
                2 => {
                    // Deliver an in-flight ack, picked at a random index
                    // (reordering); half the time leave it in flight so it
                    // is delivered again later (duplication).
                    if acks_in_flight.is_empty() {
                        continue;
                    }
                    let idx = (e as usize / 4) % acks_in_flight.len();
                    let ack = acks_in_flight[idx];
                    if (e >> 40) & 1 == 0 {
                        acks_in_flight.remove(idx);
                    }
                    sender.ack_through(ack);
                }
                _ => {
                    // Re-deliver an already-released frame: must be
                    // recognized as a duplicate, never re-released.
                    if delivered.is_empty() {
                        continue;
                    }
                    let seq = (e / 4) % delivered.len() as u64;
                    let got = receiver.offer(seq, 1000 + seq, &mut delivered);
                    prop_assert_eq!(got, Accept::Duplicate);
                }
            }
        }

        // Recovery: the sender retransmits its unacked frames in sequence
        // order until everything is acknowledged — the post-reconnect
        // resend loop of the real transport.
        let mut spins = 0;
        while !sender.is_empty() {
            let resend: Vec<(u64, u64)> = sender.unacked().map(|(s, &p)| (s, p)).collect();
            for (seq, payload) in resend {
                receiver.offer(seq, payload, &mut delivered);
            }
            if let Some(c) = receiver.cumulative_ack() {
                sender.ack_through(c);
            }
            spins += 1;
            prop_assert!(spins <= 2, "in-order resend must converge in one pass");
        }

        let expect: Vec<u64> = (0..n as u64).map(|s| 1000 + s).collect();
        prop_assert_eq!(delivered, expect, "exactly-once, in-order release");
        prop_assert_eq!(receiver.held_len(), 0);
        prop_assert_eq!(receiver.next_expected(), n as u64);
    }

    /// The simulated [`ReliableLink`] must keep masking faults when the
    /// *acknowledgement* leg is as lossy as the data leg: whatever gets
    /// dropped or duplicated, delivered inboxes are bitwise-identical to a
    /// fault-free run, and overhead is charged iff faults actually fired.
    #[test]
    fn reliable_link_masks_hostile_ack_schedules(
        drop_milli in 0u64..500,
        dup_milli in 0u64..500,
        seed in 0u64..4096,
    ) {
        let g = generators::cycle(12);
        let dg = partition(&g, 2, PartitionPolicy::BlockedEdgeCut);
        let plan: mrbc_faults::FaultPlan = format!(
            "drop:p=0.{drop_milli:03};dup:p=0.{dup_milli:03};seed={seed}"
        )
        .parse()
        .expect("generated plan");
        let session = FaultSession::new(plan);
        let mut link = ReliableLink::new(&session, 2);
        let mut lossy = RoundComm::new(2);
        let mut clean = RoundComm::new(2);
        let mut lossy_inboxes = Vec::new();
        let mut clean_inboxes = Vec::new();
        for round in 1..=12u32 {
            link.begin_round(round);
            let mut ex: Exchange<u32> = Exchange::new(2);
            ex.send(0, 1, round, 16);
            ex.send(1, 0, round + 100, 16);
            lossy_inboxes.push(ex.finish_reliable(&dg, PhaseDir::Reduce, &mut lossy, Some(&mut link)));
            let mut ex: Exchange<u32> = Exchange::new(2);
            ex.send(0, 1, round, 16);
            ex.send(1, 0, round + 100, 16);
            clean_inboxes.push(ex.finish(&dg, PhaseDir::Reduce, &mut clean));
        }
        prop_assert_eq!(lossy_inboxes, clean_inboxes);
        prop_assert_eq!(lossy.bytes(), clean.bytes());
        let fired = link.recovery.drops + link.recovery.ack_drops + link.recovery.duplicates;
        if fired == 0 {
            prop_assert_eq!(link.recovery.retransmissions, 0);
            prop_assert_eq!(lossy.stall_rounds, 0);
        } else {
            prop_assert!(
                lossy.retry_bytes >= clean.messages() * mrbc_dgalois::comm::ACK_BYTES,
                "overhead must at least cover the ack traffic"
            );
        }
        // Ack drops force retransmission even though the payload arrived.
        prop_assert!(link.recovery.retransmissions >= link.recovery.ack_drops);
    }
}
