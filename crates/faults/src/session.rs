//! Turning a [`FaultPlan`] into per-event decisions.

use crate::plan::FaultPlan;

/// Stream tags keep the decision spaces of unrelated questions disjoint,
/// so e.g. "drop attempt 0?" and "duplicate?" for the same transmission
/// never share a hash input.
const STREAM_DROP: u64 = 0x01;
const STREAM_DUP: u64 = 0x02;

/// SplitMix64 finalizer: a high-quality 64-bit mix.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A live fault-injection session over one plan.
///
/// All probabilistic answers are pure functions of
/// `(seed, stream, round, from, to, attempt)` — no internal RNG state —
/// so two runs with the same plan make identical decisions regardless of
/// the order (or number) of queries in between. That is what makes the
/// recovery property tests meaningful: the fault-free and faulty runs can
/// be compared bit for bit.
#[derive(Clone, Debug)]
pub struct FaultSession {
    plan: FaultPlan,
}

impl FaultSession {
    /// Opens a session over `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self { plan }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Uniform value in `[0, 1)` for one decision point.
    fn unit(&self, stream: u64, round: u32, from: usize, to: usize, attempt: u64) -> f64 {
        let mut h = splitmix64(self.plan.seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        h = splitmix64(h ^ round as u64);
        h = splitmix64(h ^ (from as u64).wrapping_shl(32) ^ to as u64);
        h = splitmix64(h ^ attempt);
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Is transmission `attempt` (0 = first try; distinct values for data
    /// and ack legs) of a `from → to` message in `round` lost?
    pub fn should_drop(&self, round: u32, from: usize, to: usize, attempt: u64) -> bool {
        self.plan.drop_p > 0.0
            && self.unit(STREAM_DROP, round, from, to, attempt) < self.plan.drop_p
    }

    /// Does the network deliver a spurious duplicate of this message?
    pub fn should_duplicate(&self, round: u32, from: usize, to: usize, attempt: u64) -> bool {
        self.plan.dup_p > 0.0 && self.unit(STREAM_DUP, round, from, to, attempt) < self.plan.dup_p
    }

    /// Extra straggler rounds for a message between `from` and `to`
    /// (delay rules are bidirectional and cumulative).
    pub fn delay_rounds(&self, from: usize, to: usize) -> u32 {
        self.plan
            .delays
            .iter()
            .filter(|d| (d.a, d.b) == (from, to) || (d.a, d.b) == (to, from))
            .map(|d| d.rounds)
            .sum()
    }

    /// Real process kills whose trigger round is `round` (evaluated by the
    /// launcher against each worker's reported progress).
    pub fn kills_at(&self, round: u32) -> impl Iterator<Item = &crate::plan::KillFault> {
        self.plan.kills.iter().filter(move |k| k.round == round)
    }

    /// Wall-clock partition window (in ms) starting at `round` for the
    /// unordered pair `{a, b}`, if any. Overlapping windows accumulate.
    pub fn partition_ms_at(&self, round: u32, a: usize, b: usize) -> u32 {
        self.plan
            .partitions
            .iter()
            .filter(|p| p.round == round && ((p.a, p.b) == (a, b) || (p.a, p.b) == (b, a)))
            .map(|p| p.ms)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::DelayFault;

    fn session(text: &str) -> FaultSession {
        FaultSession::new(text.parse().expect("plan"))
    }

    #[test]
    fn decisions_are_deterministic_and_order_independent() {
        let s1 = session("drop:p=0.3;dup:p=0.2;seed=9");
        let s2 = session("drop:p=0.3;dup:p=0.2;seed=9");
        // Query s2 in a scrambled order first; answers must still match.
        let probe: Vec<(u32, usize, usize, u64)> = (0..50)
            .map(|i| (i as u32 % 7, i % 3, (i + 1) % 4, i as u64 % 5))
            .collect();
        let late: Vec<bool> = probe
            .iter()
            .rev()
            .map(|&(r, f, t, a)| s2.should_drop(r, f, t, a))
            .collect();
        let early: Vec<bool> = probe
            .iter()
            .map(|&(r, f, t, a)| s1.should_drop(r, f, t, a))
            .collect();
        let mut late = late;
        late.reverse();
        assert_eq!(early, late);
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let s = session("drop:p=0.25;seed=1");
        let n = 10_000;
        let dropped = (0..n).filter(|&i| s.should_drop(i as u32, 0, 1, 0)).count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "observed drop rate {rate}");
    }

    #[test]
    fn different_seeds_differ() {
        let a = session("drop:p=0.5;seed=1");
        let b = session("drop:p=0.5;seed=2");
        let diff = (0..256)
            .filter(|&i| a.should_drop(i, 0, 1, 0) != b.should_drop(i, 0, 1, 0))
            .count();
        assert!(diff > 32, "seeds produced near-identical streams ({diff})");
    }

    #[test]
    fn zero_probability_never_fires() {
        let s = session("seed=3");
        assert!((0..1000).all(|i| !s.should_drop(i, 0, 1, 0)));
        assert!((0..1000).all(|i| !s.should_duplicate(i, 0, 1, 0)));
    }

    #[test]
    fn delays_are_bidirectional_and_cumulative() {
        let s = session("delay:pair=0-3,rounds=2;delay:pair=3-0,rounds=1;delay:pair=1-2,rounds=5");
        assert_eq!(s.delay_rounds(0, 3), 3);
        assert_eq!(s.delay_rounds(3, 0), 3);
        assert_eq!(s.delay_rounds(1, 2), 5);
        assert_eq!(s.delay_rounds(0, 1), 0);
        assert_eq!(
            s.plan().delays[0],
            DelayFault {
                a: 0,
                b: 3,
                rounds: 2
            }
        );
    }

    #[test]
    fn kill_and_partition_queries() {
        let s = session(
            "kill:host=1@round=12;kill:host=2@round=12;\
             partition:pair=0-2@round=9,ms=300;partition:pair=2-0@round=9,ms=50",
        );
        let at12: Vec<usize> = s.kills_at(12).map(|k| k.host).collect();
        assert_eq!(at12, vec![1, 2]);
        assert_eq!(s.kills_at(11).count(), 0);
        // Partition windows are unordered-pair keyed and cumulative.
        assert_eq!(s.partition_ms_at(9, 0, 2), 350);
        assert_eq!(s.partition_ms_at(9, 2, 0), 350);
        assert_eq!(s.partition_ms_at(8, 0, 2), 0);
        assert_eq!(s.partition_ms_at(9, 0, 1), 0);
    }
}
