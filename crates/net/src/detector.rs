//! Heartbeat failure detector with configurable suspect/dead timeouts.
//!
//! Pure state machine: time enters only as explicit millisecond
//! timestamps supplied by the caller, so every transition is unit-testable
//! without sleeping and the mesh can drive it from its own clock. Any
//! received frame counts as liveness evidence (data and acks beat
//! heartbeats at their own game); heartbeats exist so that liveness
//! evidence keeps flowing through long compute phases and barrier waits.
//!
//! Per peer the state is
//!
//! ```text
//! Alive --silence > suspect_after_ms--> Suspect --silence > dead_after_ms--> Dead
//!   ^                                      |
//!   +------------- any frame -------------+        (Dead is sticky until reset)
//! ```
//!
//! `Dead` is deliberately sticky: a worker that was declared dead and
//! later reappears must re-enter through the recovery protocol (epoch
//! bump + [`HeartbeatDetector::reset_peer`]), not silently resurrect —
//! otherwise two sides can disagree about how much state was lost.

/// Peer liveness verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeerStatus {
    /// Fresh evidence within the suspect window.
    Alive,
    /// Silent for longer than `suspect_after_ms` but not yet dead.
    Suspect,
    /// Silent for longer than `dead_after_ms` (sticky until reset).
    Dead,
}

/// Detector timing knobs, all in milliseconds.
#[derive(Clone, Copy, Debug)]
pub struct DetectorConfig {
    /// How often this node should emit heartbeats.
    pub heartbeat_every_ms: u64,
    /// Silence after which a peer becomes [`PeerStatus::Suspect`].
    pub suspect_after_ms: u64,
    /// Silence after which a peer becomes [`PeerStatus::Dead`].
    pub dead_after_ms: u64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            heartbeat_every_ms: 50,
            suspect_after_ms: 500,
            dead_after_ms: 2_000,
        }
    }
}

/// Tracks liveness for every peer of one node.
#[derive(Debug)]
pub struct HeartbeatDetector {
    cfg: DetectorConfig,
    /// Last time evidence arrived from each peer.
    last_heard_ms: Vec<u64>,
    /// Sticky dead markers.
    dead: Vec<bool>,
    /// Last time we sent our own heartbeat round.
    last_beat_ms: u64,
}

impl HeartbeatDetector {
    /// A detector for `num_peers` peers, all considered freshly alive at
    /// `now_ms`.
    pub fn new(num_peers: usize, cfg: DetectorConfig, now_ms: u64) -> Self {
        assert!(
            cfg.suspect_after_ms < cfg.dead_after_ms,
            "suspect window must precede the dead window"
        );
        Self {
            cfg,
            last_heard_ms: vec![now_ms; num_peers],
            dead: vec![false; num_peers],
            last_beat_ms: now_ms,
        }
    }

    /// The configured timings.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// Records liveness evidence from `peer` at `now_ms`. Evidence from a
    /// peer already declared dead is ignored (stickiness; see module docs).
    pub fn heard_from(&mut self, peer: usize, now_ms: u64) {
        if !self.dead[peer] {
            let slot = &mut self.last_heard_ms[peer];
            *slot = (*slot).max(now_ms);
        }
    }

    /// The verdict for `peer` at `now_ms`. Marks `Dead` sticky as a side
    /// effect once the dead window elapses.
    pub fn status(&mut self, peer: usize, now_ms: u64) -> PeerStatus {
        if self.dead[peer] {
            return PeerStatus::Dead;
        }
        let silence = now_ms.saturating_sub(self.last_heard_ms[peer]);
        if silence > self.cfg.dead_after_ms {
            self.dead[peer] = true;
            PeerStatus::Dead
        } else if silence > self.cfg.suspect_after_ms {
            PeerStatus::Suspect
        } else {
            PeerStatus::Alive
        }
    }

    /// Peers currently dead at `now_ms`.
    pub fn dead_peers(&mut self, now_ms: u64) -> Vec<usize> {
        (0..self.last_heard_ms.len())
            .filter(|&p| self.status(p, now_ms) == PeerStatus::Dead)
            .collect()
    }

    /// True when a heartbeat round is due at `now_ms`; advances the beat
    /// clock when it is (call once per mesh wake-up, send on `true`).
    pub fn beat_due(&mut self, now_ms: u64) -> bool {
        if now_ms.saturating_sub(self.last_beat_ms) >= self.cfg.heartbeat_every_ms {
            self.last_beat_ms = now_ms;
            true
        } else {
            false
        }
    }

    /// When the next heartbeat round falls due.
    pub fn next_beat_ms(&self) -> u64 {
        self.last_beat_ms + self.cfg.heartbeat_every_ms
    }

    /// The first instant at which `peer`, silent from now on, reads
    /// [`PeerStatus::Dead`]; `None` once it is dead.
    pub fn dead_at_ms(&self, peer: usize) -> Option<u64> {
        (!self.dead[peer]).then(|| self.last_heard_ms[peer] + self.cfg.dead_after_ms + 1)
    }

    /// Re-admits `peer` after recovery: clears the sticky dead marker and
    /// restarts its silence clock at `now_ms`.
    pub fn reset_peer(&mut self, peer: usize, now_ms: u64) {
        self.dead[peer] = false;
        self.last_heard_ms[peer] = now_ms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DetectorConfig {
        DetectorConfig {
            heartbeat_every_ms: 10,
            suspect_after_ms: 100,
            dead_after_ms: 300,
        }
    }

    #[test]
    fn alive_suspect_dead_progression() {
        let mut d = HeartbeatDetector::new(2, cfg(), 1_000);
        assert_eq!(d.status(0, 1_050), PeerStatus::Alive);
        assert_eq!(d.status(0, 1_101), PeerStatus::Suspect);
        assert_eq!(d.status(0, 1_300), PeerStatus::Suspect);
        assert_eq!(d.status(0, 1_301), PeerStatus::Dead);
        // Peer 1 heard from along the way stays alive.
        d.heard_from(1, 1_250);
        assert_eq!(d.status(1, 1_301), PeerStatus::Alive);
    }

    #[test]
    fn evidence_recovers_a_suspect() {
        let mut d = HeartbeatDetector::new(1, cfg(), 0);
        assert_eq!(d.status(0, 150), PeerStatus::Suspect);
        d.heard_from(0, 160);
        assert_eq!(d.status(0, 200), PeerStatus::Alive);
    }

    #[test]
    fn dead_is_sticky_until_reset() {
        let mut d = HeartbeatDetector::new(1, cfg(), 0);
        assert_eq!(d.status(0, 301), PeerStatus::Dead);
        // Late evidence does not resurrect.
        d.heard_from(0, 302);
        assert_eq!(d.status(0, 303), PeerStatus::Dead);
        assert_eq!(d.dead_peers(303), vec![0]);
        // Recovery re-admits explicitly.
        d.reset_peer(0, 400);
        assert_eq!(d.status(0, 450), PeerStatus::Alive);
        assert!(d.dead_peers(450).is_empty());
    }

    #[test]
    fn beat_clock_advances_on_due() {
        let mut d = HeartbeatDetector::new(1, cfg(), 0);
        assert!(d.beat_due(10));
        assert!(!d.beat_due(15));
        assert!(d.beat_due(20));
        // Clock never ticks backward.
        d.heard_from(0, 100);
        d.heard_from(0, 50);
        assert_eq!(d.status(0, 140), PeerStatus::Alive);
    }

    #[test]
    fn due_times_match_the_verdicts() {
        let mut d = HeartbeatDetector::new(1, cfg(), 0);
        assert_eq!(d.next_beat_ms(), 10);
        assert!(!d.beat_due(d.next_beat_ms() - 1));
        assert!(d.beat_due(d.next_beat_ms()));
        d.heard_from(0, 40);
        let dead_at = d.dead_at_ms(0).expect("alive");
        assert_eq!(d.status(0, dead_at - 1), PeerStatus::Suspect);
        assert_eq!(d.status(0, dead_at), PeerStatus::Dead);
        assert_eq!(d.dead_at_ms(0), None);
    }

    #[test]
    #[should_panic(expected = "suspect window")]
    fn rejects_inverted_windows() {
        let bad = DetectorConfig {
            heartbeat_every_ms: 10,
            suspect_after_ms: 300,
            dead_after_ms: 100,
        };
        let _ = HeartbeatDetector::new(1, bad, 0);
    }
}
