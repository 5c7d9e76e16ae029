//! Host-to-host message exchange with Gluon-style accounting.
//!
//! Gluon "aggregates the messages of all proxies at the end of each round,
//! compresses the metadata that identifies the proxies, and exchanges one
//! communication message between each pair of hosts" (Section 5.3). The
//! [`Exchange`] mailbox reproduces that: any number of per-proxy items may
//! be staged between a host pair during a round; on [`Exchange::finish`]
//! they are delivered as *one* message per pair whose size is
//!
//! ```text
//! header + min(ceil(shared_proxies(pair) / 8), INDEX_META_BYTES · items) + Σ payload_bytes
//! ```
//!
//! — the metadata identifying which of the pair's shared proxies are
//! present is encoded either as a bitset over the shared universe (cheap
//! when the round is dense) or as an explicit index list (cheap when it
//! is sparse), whichever is smaller, matching Gluon's adaptive metadata
//! encoding. This is the mechanism behind the paper's key communication
//! observation (Section 5.3): MRBC synchronizes the same number of
//! proxies as SBBC but in far fewer rounds, so each round is denser, the
//! bitset encoding wins, and the per-item metadata cost collapses —
//! "more proxies are synchronized in each round in MRBC, which leads to
//! more compression of metadata and lower communication volume".

use crate::reliability::PairSeqs;
use crate::topology::DistGraph;
use mrbc_faults::{FaultSession, RecoveryStats};

/// Fixed per-message envelope (tags, lengths) in bytes.
pub const MESSAGE_HEADER_BYTES: u64 = 16;

/// Metadata bytes per item under the sparse (index-list) encoding:
/// a 4-byte proxy offset plus framing.
pub const INDEX_META_BYTES: u64 = 8;

/// Bytes of one acknowledgement frame (pair id + sequence number).
pub const ACK_BYTES: u64 = 12;

/// Retransmission backoff cap, in modeled rounds. Backoff doubles per
/// retry (1, 2, 4, …) up to this bound.
pub const MAX_BACKOFF_ROUNDS: u32 = 8;

/// Retransmission attempts after which the link gives up on backoff and
/// delivers out of band (a real transport would escalate to connection
/// re-establishment; the simulated link just bounds the stall).
pub const MAX_RETRIES: u32 = 16;

/// Direction of a synchronization phase, which determines which side of a
/// host pair owns the shared-proxy universe used for metadata accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseDir {
    /// Mirror → master: the destination host owns the universe.
    Reduce,
    /// Master → mirror: the source host owns the universe.
    Broadcast,
}

/// Per-round communication record, accumulated across phases.
#[derive(Clone, Debug)]
pub struct RoundComm {
    /// Bytes sent by each host this round.
    pub sent_bytes: Vec<u64>,
    /// Bytes received by each host this round.
    pub recv_bytes: Vec<u64>,
    /// Host-pair messages each host participated in this round.
    pub msgs_per_host: Vec<u32>,
    /// Proxy items synchronized (pre-aggregation), the "number of proxies
    /// synchronized" count the paper compares between SBBC and MRBC.
    pub items: u64,
    /// Fault overhead: extra bytes from retransmissions, acks, and
    /// duplicate deliveries (zero on a fault-free run).
    pub retry_bytes: u64,
    /// Fault overhead: extra rounds this BSP round stalled on the slowest
    /// host pair's retransmission backoff and straggler delays — the
    /// barrier waits for the worst link, so the maximum (not the sum)
    /// over pairs is charged per phase.
    pub stall_rounds: u32,
}

impl RoundComm {
    /// Empty record for `num_hosts` hosts.
    pub fn new(num_hosts: usize) -> Self {
        Self {
            sent_bytes: vec![0; num_hosts],
            recv_bytes: vec![0; num_hosts],
            msgs_per_host: vec![0; num_hosts],
            items: 0,
            retry_bytes: 0,
            stall_rounds: 0,
        }
    }

    /// Total bytes on the wire, derived from the per-host send ledger so
    /// the aggregate can never drift from the per-host breakdown (every
    /// byte sent is received exactly once, so the receive ledger agrees).
    pub fn bytes(&self) -> u64 {
        let sent: u64 = self.sent_bytes.iter().sum();
        debug_assert_eq!(sent, self.recv_bytes.iter().sum::<u64>());
        sent
    }

    /// Total aggregated host-pair messages, derived from the per-host
    /// participation counts (each pair message counts at both endpoints).
    pub fn messages(&self) -> u64 {
        let ends: u64 = self.msgs_per_host.iter().map(|&m| m as u64).sum();
        debug_assert_eq!(ends % 2, 0, "every pair message has two endpoints");
        ends / 2
    }
}

/// The reliable-delivery layer over the simulated network.
///
/// Real Gluon runs over LCI/MPI, which already guarantee delivery; under
/// an injected [`FaultSession`] the raw network may drop, duplicate, or
/// stall the aggregated host-pair messages, and this layer restores the
/// exactly-once, in-order semantics BSP synchronization needs:
///
/// * **sequence numbers** per ordered host pair — duplicates (network- or
///   retransmission-induced) are detected and suppressed at the receiver;
/// * **ack / resend** — every delivered message is acknowledged
///   ([`ACK_BYTES`]); a sender that misses the ack retransmits after a
///   bounded exponential backoff (1, 2, 4, … up to
///   [`MAX_BACKOFF_ROUNDS`] rounds, at most [`MAX_RETRIES`] attempts).
///
/// Because a BSP round cannot complete until its sync phase delivers
/// everything, retries happen *within* the logical round: faults never
/// change what is delivered, only what it costs. The cost shows up as
/// [`RoundComm::retry_bytes`] and [`RoundComm::stall_rounds`] (and in the
/// [`RecoveryStats`] ledger); label evolution stays bitwise-identical to
/// the fault-free run — the invariant the recovery property tests check.
pub struct ReliableLink<'a> {
    session: &'a FaultSession,
    /// Sequence-number streams per ordered host pair — the same allocator
    /// the real TCP transport uses (`crate::reliability`), so simulated and
    /// real paths share one reliability core.
    seqs: PairSeqs,
    /// Current BSP round, used to key the session's decisions.
    round: u32,
    /// Accumulated fault/overhead ledger.
    pub recovery: RecoveryStats,
}

impl<'a> ReliableLink<'a> {
    /// A fresh link layer for `num_hosts` hosts under `session`.
    pub fn new(session: &'a FaultSession, num_hosts: usize) -> Self {
        Self {
            session,
            seqs: PairSeqs::new(num_hosts),
            round: 0,
            recovery: RecoveryStats::default(),
        }
    }

    /// Enters BSP round `round`: subsequent transfers draw their fault
    /// decisions from this round's decision space.
    pub fn begin_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Simulates the reliable transfer of one aggregated pair message of
    /// `bytes` bytes. Returns `(stall_rounds, extra_bytes)`: how long the
    /// sender was held up by backoff + straggler delay, and the bytes
    /// beyond the first transmission (resends, acks, duplicates).
    fn transfer(&mut self, from: usize, to: usize, bytes: u64) -> (u32, u64) {
        let seq = self.seqs.alloc(from, to);
        let mut stall = self.session.delay_rounds(from, to);
        let mut extra = 0u64;
        // Shared pacing schedule (1, 2, 4, … ≤ MAX_BACKOFF_ROUNDS rounds,
        // unjittered): the same `Backoff` the real transports use, so the
        // modeled link and the TCP layer cannot drift apart.
        let mut backoff = mrbc_util::backoff::Backoff::new(1, MAX_BACKOFF_ROUNDS as u64, 0, 0);
        let mut attempt = 0u32;
        let mut acks = 0u64;
        let mut resends = 0u64;
        loop {
            // Each (data, ack) leg of each attempt gets its own decision
            // point, keyed so no two legs ever collide.
            let tag = seq.wrapping_mul(2 * (MAX_RETRIES as u64 + 1)) + 2 * attempt as u64;
            let delivered = !self.session.should_drop(self.round, from, to, tag);
            if delivered {
                // The receiver sees the payload; a retransmitted copy of
                // an already-delivered sequence number is discarded there.
                if self.session.should_duplicate(self.round, from, to, tag) {
                    self.recovery.duplicates += 1;
                    extra += bytes;
                }
                extra += ACK_BYTES;
                acks += 1;
                let ack_ok = !self.session.should_drop(self.round, to, from, tag + 1);
                if ack_ok {
                    break;
                }
                self.recovery.ack_drops += 1;
            } else {
                self.recovery.drops += 1;
            }
            attempt += 1;
            if attempt > MAX_RETRIES {
                break;
            }
            // Timeout, then resend the payload.
            stall += backoff.next_delay() as u32;
            self.recovery.retransmissions += 1;
            resends += 1;
            extra += bytes;
        }
        self.recovery.retry_bytes += extra;
        if mrbc_obs::is_enabled() {
            // The retry/ack traffic class of the reliable layer (the
            // congest engine tags the same class on its message path).
            mrbc_obs::counter_add("link.acks", acks);
            mrbc_obs::counter_add("link.retransmissions", resends);
            mrbc_obs::counter_add("link.retry_bytes", extra);
            if stall > 0 {
                mrbc_obs::counter_add("link.stall_rounds", stall as u64);
            }
        }
        (stall, extra)
    }
}

/// A one-round, one-phase mailbox: stage per-proxy items, then deliver
/// them as aggregated host-pair messages.
pub struct Exchange<M> {
    num_hosts: usize,
    /// `staged[to]` holds `(from, item)` pairs.
    staged: Vec<Vec<(usize, M)>>,
    /// `pair_payload[from * H + to]` accumulated payload bytes.
    pair_payload: Vec<u64>,
    /// `pair_items[from * H + to]` item counts.
    pair_items: Vec<u32>,
}

impl<M> Exchange<M> {
    /// Creates an empty exchange for `num_hosts` hosts.
    pub fn new(num_hosts: usize) -> Self {
        Self {
            num_hosts,
            staged: (0..num_hosts).map(|_| Vec::new()).collect(),
            pair_payload: vec![0; num_hosts * num_hosts],
            pair_items: vec![0; num_hosts * num_hosts],
        }
    }

    /// Stages one proxy item from `from` to `to` carrying
    /// `payload_bytes` of label data. Same-host items are delivered for
    /// free (a proxy talking to itself costs nothing on a real system
    /// either).
    pub fn send(&mut self, from: usize, to: usize, item: M, payload_bytes: u64) {
        if from != to {
            let idx = from * self.num_hosts + to;
            self.pair_payload[idx] += payload_bytes;
            self.pair_items[idx] += 1;
        }
        self.staged[to].push((from, item));
    }

    /// Finalizes the phase: applies the metadata-compression model,
    /// accumulates into `comm`, and returns the per-host inboxes.
    pub fn finish(
        self,
        dg: &DistGraph,
        dir: PhaseDir,
        comm: &mut RoundComm,
    ) -> Vec<Vec<(usize, M)>> {
        self.finish_reliable(dg, dir, comm, None)
    }

    /// [`Exchange::finish`], over an unreliable network when `link` is
    /// given: each aggregated pair message additionally runs through the
    /// [`ReliableLink`], which guarantees delivery (so the returned inboxes
    /// are identical to the fault-free ones) and charges the
    /// retry/straggler overhead to `comm.retry_bytes` / `comm.stall_rounds`
    /// and the link's [`RecoveryStats`]. The phase stalls for the slowest
    /// pair — a BSP barrier waits on the worst link, so the per-pair
    /// maximum (not the sum) is what the round loses.
    pub fn finish_reliable(
        self,
        dg: &DistGraph,
        dir: PhaseDir,
        comm: &mut RoundComm,
        mut link: Option<&mut ReliableLink<'_>>,
    ) -> Vec<Vec<(usize, M)>> {
        let obs_start = mrbc_obs::now_us();
        let bytes_before = comm.bytes();
        let h = self.num_hosts;
        let mut phase_stall = 0u32;
        for from in 0..h {
            for to in 0..h {
                if from == to {
                    continue;
                }
                let idx = from * h + to;
                let items = self.pair_items[idx];
                if items == 0 {
                    continue;
                }
                let universe = match dir {
                    PhaseDir::Reduce => dg.shared_proxies(from, to),
                    PhaseDir::Broadcast => dg.shared_proxies(to, from),
                } as u64;
                let metadata = universe.div_ceil(8).min(INDEX_META_BYTES * items as u64);
                let total = MESSAGE_HEADER_BYTES + metadata + self.pair_payload[idx];
                comm.sent_bytes[from] += total;
                comm.recv_bytes[to] += total;
                comm.msgs_per_host[from] += 1;
                comm.msgs_per_host[to] += 1;
                comm.items += items as u64;
                if let Some(link) = link.as_deref_mut() {
                    let (stall, extra) = link.transfer(from, to, total);
                    phase_stall = phase_stall.max(stall);
                    comm.retry_bytes += extra;
                }
            }
        }
        if let Some(link) = link {
            comm.stall_rounds += phase_stall;
            link.recovery.stall_rounds += phase_stall as u64;
        }
        if mrbc_obs::is_enabled() {
            // Serialization/aggregation cost of this phase finish, split
            // by direction so reduce and broadcast stay distinguishable.
            let dur = mrbc_obs::now_us().saturating_sub(obs_start);
            let (name, us, by) = match dir {
                PhaseDir::Reduce => (
                    "exchange.reduce",
                    "exchange.reduce_us",
                    "exchange.reduce.bytes",
                ),
                PhaseDir::Broadcast => (
                    "exchange.broadcast",
                    "exchange.broadcast_us",
                    "exchange.broadcast.bytes",
                ),
            };
            let bytes = comm.bytes() - bytes_before;
            mrbc_obs::histogram_record(us, dur);
            mrbc_obs::counter_add(by, bytes);
            mrbc_obs::span_at(
                name,
                mrbc_obs::Phase::Sync.as_str(),
                obs_start,
                dur,
                0,
                &[("bytes", bytes)],
            );
        }
        self.staged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{partition, PartitionPolicy};
    use mrbc_graph::generators;

    fn two_host_dg() -> DistGraph {
        let g = generators::cycle(10);
        partition(&g, 2, PartitionPolicy::BlockedEdgeCut)
    }

    #[test]
    fn same_host_items_are_free() {
        let dg = two_host_dg();
        let mut comm = RoundComm::new(2);
        let mut ex: Exchange<u32> = Exchange::new(2);
        ex.send(0, 0, 7, 100);
        let inboxes = ex.finish(&dg, PhaseDir::Reduce, &mut comm);
        assert_eq!(comm.bytes(), 0);
        assert_eq!(comm.messages(), 0);
        assert_eq!(inboxes[0], vec![(0, 7)]);
    }

    #[test]
    fn cross_host_items_are_aggregated_into_one_message() {
        let dg = two_host_dg();
        let mut comm = RoundComm::new(2);
        let mut ex: Exchange<u32> = Exchange::new(2);
        ex.send(0, 1, 1, 10);
        ex.send(0, 1, 2, 10);
        ex.send(0, 1, 3, 10);
        let inboxes = ex.finish(&dg, PhaseDir::Reduce, &mut comm);
        assert_eq!(comm.messages(), 1, "three items, one aggregated message");
        assert_eq!(comm.items, 3);
        let universe = dg.shared_proxies(0, 1) as u64;
        let meta = universe.div_ceil(8).min(INDEX_META_BYTES * 3);
        assert_eq!(comm.bytes(), MESSAGE_HEADER_BYTES + meta + 30);
        assert_eq!(comm.sent_bytes[0], comm.bytes());
        assert_eq!(comm.recv_bytes[1], comm.bytes());
        assert_eq!(inboxes[1].len(), 3);
    }

    #[test]
    fn broadcast_uses_owner_side_universe() {
        let dg = two_host_dg();
        let mut c1 = RoundComm::new(2);
        let mut ex: Exchange<()> = Exchange::new(2);
        ex.send(0, 1, (), 8);
        ex.finish(&dg, PhaseDir::Reduce, &mut c1);

        let mut c2 = RoundComm::new(2);
        let mut ex: Exchange<()> = Exchange::new(2);
        ex.send(0, 1, (), 8);
        ex.finish(&dg, PhaseDir::Broadcast, &mut c2);

        let meta = |universe: u64| universe.div_ceil(8).min(INDEX_META_BYTES);
        let reduce_meta = meta(dg.shared_proxies(0, 1) as u64);
        let bcast_meta = meta(dg.shared_proxies(1, 0) as u64);
        assert_eq!(c1.bytes() + bcast_meta, c2.bytes() + reduce_meta);
    }

    #[test]
    fn reliable_finish_under_empty_plan_costs_only_acks() {
        let dg = two_host_dg();
        let session = FaultSession::new(Default::default());
        let mut link = ReliableLink::new(&session, 2);
        link.begin_round(1);
        let mut comm = RoundComm::new(2);
        let mut ex: Exchange<u32> = Exchange::new(2);
        ex.send(0, 1, 1, 10);
        ex.send(1, 0, 2, 10);
        let inboxes = ex.finish_reliable(&dg, PhaseDir::Reduce, &mut comm, Some(&mut link));
        assert_eq!(inboxes[1], vec![(0, 1)]);
        assert_eq!(inboxes[0], vec![(1, 2)]);
        // Two pair messages, each acknowledged once; nothing resent.
        assert_eq!(comm.retry_bytes, 2 * ACK_BYTES);
        assert_eq!(comm.stall_rounds, 0);
        assert_eq!(link.recovery.retransmissions, 0);
        assert_eq!(link.recovery.drops, 0);
    }

    #[test]
    fn reliable_link_masks_drops_and_charges_overhead() {
        let dg = two_host_dg();
        let plan: mrbc_faults::FaultPlan = "drop:p=0.4;seed=7".parse().unwrap();
        let session = FaultSession::new(plan);
        let mut link = ReliableLink::new(&session, 2);
        let mut lossy = RoundComm::new(2);
        let mut clean = RoundComm::new(2);
        let mut lossy_inboxes = Vec::new();
        let mut clean_inboxes = Vec::new();
        for round in 1..=40u32 {
            link.begin_round(round);
            let mut ex: Exchange<u32> = Exchange::new(2);
            ex.send(0, 1, round, 10);
            lossy_inboxes.push(ex.finish_reliable(
                &dg,
                PhaseDir::Reduce,
                &mut lossy,
                Some(&mut link),
            ));
            let mut ex: Exchange<u32> = Exchange::new(2);
            ex.send(0, 1, round, 10);
            clean_inboxes.push(ex.finish(&dg, PhaseDir::Reduce, &mut clean));
        }
        // Masking: delivery is exactly what the fault-free run sees.
        assert_eq!(lossy_inboxes, clean_inboxes);
        assert_eq!(
            lossy.bytes(),
            clean.bytes(),
            "base wire accounting unchanged"
        );
        // At p = 0.4 over 40 rounds, some payload drops must have fired,
        // each costing a retransmission and a backoff stall.
        assert!(link.recovery.drops > 0, "{:?}", link.recovery);
        assert!(link.recovery.retransmissions >= link.recovery.drops);
        assert!(lossy.retry_bytes > 40 * ACK_BYTES);
        assert!(lossy.stall_rounds > 0);
        assert_eq!(link.recovery.stall_rounds, lossy.stall_rounds as u64);
    }

    #[test]
    fn reliable_link_is_deterministic() {
        let dg = two_host_dg();
        let run = || {
            let plan: mrbc_faults::FaultPlan = "drop:p=0.3;dup:p=0.1;seed=99".parse().unwrap();
            let session = FaultSession::new(plan);
            let mut link = ReliableLink::new(&session, 2);
            let mut comm = RoundComm::new(2);
            for round in 1..=20u32 {
                link.begin_round(round);
                let mut ex: Exchange<u32> = Exchange::new(2);
                ex.send(0, 1, round, 16);
                ex.send(1, 0, round, 16);
                ex.finish_reliable(&dg, PhaseDir::Broadcast, &mut comm, Some(&mut link));
            }
            (link.recovery, comm.retry_bytes, comm.stall_rounds)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn straggler_delay_stalls_phase_by_the_slowest_pair() {
        let dg = two_host_dg();
        let plan: mrbc_faults::FaultPlan = "delay:pair=0-1,rounds=3".parse().unwrap();
        let session = FaultSession::new(plan);
        let mut link = ReliableLink::new(&session, 2);
        link.begin_round(1);
        let mut comm = RoundComm::new(2);
        let mut ex: Exchange<u32> = Exchange::new(2);
        ex.send(0, 1, 1, 8); // delayed pair
        ex.send(1, 0, 2, 8); // also the delayed pair (bidirectional)
        ex.finish_reliable(&dg, PhaseDir::Reduce, &mut comm, Some(&mut link));
        // Barrier semantics: the phase pays max(3, 3) = 3, not 6.
        assert_eq!(comm.stall_rounds, 3);
    }

    #[test]
    fn batching_amortizes_metadata() {
        // The core Gluon effect: k items in one round cost less than k
        // items across k rounds.
        let dg = two_host_dg();
        let one_round = {
            let mut comm = RoundComm::new(2);
            let mut ex: Exchange<u32> = Exchange::new(2);
            for i in 0..8 {
                ex.send(0, 1, i, 12);
            }
            ex.finish(&dg, PhaseDir::Reduce, &mut comm);
            comm.bytes()
        };
        let many_rounds = {
            let mut comm = RoundComm::new(2);
            for i in 0..8 {
                let mut ex: Exchange<u32> = Exchange::new(2);
                ex.send(0, 1, i, 12);
                ex.finish(&dg, PhaseDir::Reduce, &mut comm);
            }
            comm.bytes()
        };
        assert!(
            one_round < many_rounds,
            "batched {one_round} !< unbatched {many_rounds}"
        );
    }
}
