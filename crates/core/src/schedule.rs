//! The forward send calendar of Algorithm 3 — one type shared by the
//! CONGEST engine ([`crate::congest::mrbc`]) and the D-Galois engine
//! ([`crate::dist::mrbc`], and through it `dist::spmd`).
//!
//! Algorithm 3 keeps at each vertex `v` the lexicographically sorted list
//! `L_v` of its labels `(d, j)` and sends the label at 1-based position
//! `ℓ` exactly in round `d + ℓ`. The paper stores `L_v` as `M_v`, a flat
//! map from distance to a bitvector over source indices (Section 4.3).
//! Neither is stored here: source `j` has a label at `v` exactly when
//! `v`'s distance to it is finite, at that distance, so `L_v` is the
//! finite entries of `v`'s distance row, sorted ([`sorted_labels`]), and
//! `M_v` is the same labels grouped by distance.
//!
//! The calendar keeps only what it reads, by two facts the lemmas give:
//!
//! * the sent labels are always a *prefix* of `L_v`: sends go in position
//!   order (`d + ℓ` strictly increases along the list), and Lemma 2
//!   (`d + ℓ ≥ r + 1` for a label inserted in round `r`) puts every
//!   insertion after every sent label;
//! * so with `sent` labels fired, the next one is the smallest unsent
//!   label, at position `sent + 1`, and it fires in round `d + sent + 1`.
//!
//! Per vertex it holds `sent` and a binary min-heap of the unsent labels,
//! keyed `(d << 32) | j` (whose order is `L_v`'s), in the vertex's `k`
//! slots of one flat array. An insertion is a push, an improvement
//! (Steps 16–17) a find and a sift-up, a send a pop. Every vertex with an
//! unsent label is filed in the intrusive list of the round its heap root
//! fires in (`head` per round, `next`/`prev` in the vertex's slot); each
//! of those operations re-files only the vertex it touched, and reading
//! round `r`'s flags walks list `r`. So a forward round costs what it
//! sends, not `O(n)`.
//!
//! [`scheduled_send`] is the reference that debug assertions and tests
//! check the calendar against: it sorts the vertex's distance row, so it
//! shares no storage with the structure it checks.

use mrbc_graph::INF_DIST;

/// No vertex / no round.
const NONE: u32 = u32::MAX;

/// A label due in some round: `(vertex, source index, distance)`.
pub(crate) type Flag = (u32, u32, u32);

/// The forward calendar of every vertex. Forward-phase state only.
#[derive(Default)]
pub(crate) struct SendSchedule {
    k: usize,
    /// Per vertex `v`, the heap of its unsent labels in
    /// `heap[v·k .. v·k + len]`.
    heap: Vec<u64>,
    /// Per vertex: its counts and its links in the round lists.
    cal: Vec<Slot>,
    /// First vertex of each round's list.
    head: Vec<u32>,
}

/// One vertex's calendar state (all `u32`, so `cal` is one flat array).
#[derive(Clone, Copy)]
struct Slot {
    /// Unsent labels (the heap's length).
    len: u32,
    /// Labels already sent (a prefix of `L_v`).
    sent: u32,
    /// The round the vertex is filed under (`NONE`: nothing left to send).
    due: u32,
    /// Neighbours in that round's list.
    next: u32,
    prev: u32,
}

const EMPTY: Slot = Slot {
    len: 0,
    sent: 0,
    due: NONE,
    next: NONE,
    prev: NONE,
};

/// The heap key of label `(d, j)`: ordered as `L_v` orders labels.
fn key(j: u32, d: u32) -> u64 {
    u64::from(d) << 32 | u64::from(j)
}

/// `L_v` from `v`'s distance row: its finite entries as `(d, j)`, sorted.
pub(crate) fn sorted_labels(row: &[u32]) -> Vec<(u32, u32)> {
    let mut labels: Vec<(u32, u32)> = (0..row.len() as u32)
        .map(|j| (row[j as usize], j))
        .filter(|&(d, _)| d != INF_DIST)
        .collect();
    labels.sort_unstable();
    labels
}

/// Reference for [`SendSchedule::due`]: the `(j, d)` at the position `ℓ`
/// of `L_v` with `d + ℓ = round`, if any, from `v`'s distance row.
pub(crate) fn scheduled_send(row: &[u32], round: u32) -> Option<(u32, u32)> {
    sorted_labels(row)
        .into_iter()
        .zip(1..)
        .find(|&((d, _), l)| d + l == round)
        .map(|((d, j), _)| (j, d))
}

/// Reference for [`SendSchedule::flags`]: [`scheduled_send`] on every row
/// of `dist` (flat over `(v, j)`, `k` sources).
pub(crate) fn scan_flags(dist: &[u32], k: usize, round: u32) -> Vec<Flag> {
    dist.chunks(k.max(1))
        .enumerate()
        .filter_map(|(v, row)| scheduled_send(row, round).map(|(j, d)| (v as u32, j, d)))
        .collect()
}

impl SendSchedule {
    /// An empty schedule for `n` vertices and `k` sources.
    pub(crate) fn new(n: usize, k: usize) -> Self {
        Self {
            k,
            heap: vec![0; n * k],
            cal: vec![EMPTY; n],
            // A label fires in round d + ℓ ≤ (n − 1) + k, inside the
            // forward phase's 2n + k bound.
            head: vec![NONE; 2 * n + k + 4],
        }
    }

    /// Labels of `v` (the length of `L_v`).
    pub(crate) fn labels(&self, v: usize) -> u32 {
        self.cal[v].sent + self.cal[v].len
    }

    /// Labels of `v` not yet sent.
    pub(crate) fn pending(&self, v: usize) -> u32 {
        self.cal[v].len
    }

    /// Adds the label `(d, j)` (source `j` has none at `v` yet).
    pub(crate) fn insert(&mut self, v: usize, j: u32, d: u32) {
        let len = self.cal[v].len as usize;
        // Past `k` labels the heap would spill into the next vertex's.
        assert!(len < self.k, "more labels than sources at vertex {v}");
        self.cal[v].len += 1;
        self.sift_up(v, len, key(j, d));
        self.refile(v);
    }

    /// Moves source `j`'s unsent label from distance `from` to the
    /// shorter `to` (Steps 16–17 of Algorithm 3).
    pub(crate) fn improve(&mut self, v: usize, j: u32, from: u32, to: u32) {
        let (base, len) = (v * self.k, self.cal[v].len as usize);
        let at = self.heap[base..base + len]
            .iter()
            .position(|&x| x == key(j, from));
        // lint: allow(unwrap): callers move only the unsent label they just read at `from`
        let i = at.expect("label to move is unsent");
        self.sift_up(v, i, key(j, to));
        self.refile(v);
    }

    /// Records that `v` sent its next label.
    pub(crate) fn mark_sent(&mut self, v: usize) {
        let base = v * self.k;
        let c = &mut self.cal[v];
        debug_assert!(c.len > 0, "vertex {v} has nothing to send");
        c.len -= 1;
        c.sent += 1;
        let last = self.heap[base + c.len as usize];
        self.sift_down(v, last);
        self.refile(v);
    }

    /// The `(j, d)` that `v` sends in `round`, if any. `O(1)`; `row` is
    /// `v`'s distance row, read only by the debug check.
    pub(crate) fn due(&self, v: usize, round: u32, row: &[u32]) -> Option<(u32, u32)> {
        let got = (self.cal[v].due == round).then(|| self.next_label(v));
        debug_assert_eq!(
            got,
            scheduled_send(row, round),
            "calendar disagrees with L_v at vertex {v}, round {round}"
        );
        got
    }

    /// Fills `flags` with every label due in `round`, in ascending vertex
    /// order (the order is replicated state in `dist::spmd`). Costs the
    /// list's length; `dist` (flat over `(v, j)`) is read only by the
    /// debug check.
    pub(crate) fn flags(&self, round: u32, dist: &[u32], flags: &mut Vec<Flag>) {
        flags.clear();
        let mut v = self.head.get(round as usize).copied().unwrap_or(NONE);
        while v != NONE {
            let (j, d) = self.next_label(v as usize);
            flags.push((v, j, d));
            v = self.cal[v as usize].next;
        }
        flags.sort_unstable_by_key(|&(v, _, _)| v);
        debug_assert_eq!(
            *flags,
            scan_flags(dist, self.k, round),
            "calendar disagrees with L_v in round {round}"
        );
    }

    /// Rebuilds the calendar from the labels `dist` and the send stamps
    /// `tau` (both flat over `(v, j)` with `k` sources; `u32::MAX` = not
    /// sent), where every send happened before round `next_round`.
    /// Errors name what the stamps contradict.
    pub(crate) fn restore(
        dist: &[u32],
        tau: &[u32],
        k: usize,
        next_round: u32,
    ) -> Result<Self, &'static str> {
        if k == 0 || tau.len() != dist.len() {
            return Err("send stamps do not match the labels");
        }
        let n = dist.len() / k;
        let mut s = Self::new(n, k);
        for (v, (row, stamps)) in dist.chunks(k).zip(tau.chunks(k)).enumerate() {
            let labels = sorted_labels(row);
            // Distances < n keep every fire round inside the calendar.
            if labels.last().is_some_and(|&(d, _)| d as usize >= n) {
                return Err("label distance out of range");
            }
            let sent = labels
                .iter()
                .take_while(|&&(_, j)| stamps[j as usize] != NONE)
                .count();
            if stamps.iter().filter(|&&t| t != NONE).count() != sent {
                return Err("sent labels are not a prefix of L_v");
            }
            // The label at position ℓ fired in round d + ℓ.
            let stamped = |(&(d, j), l): (&(u32, u32), u32)| {
                stamps[j as usize] == d + l && d + l < next_round
            };
            if !labels[..sent].iter().zip(1..).all(stamped) {
                return Err("send stamp contradicts the label's position");
            }
            s.cal[v].sent = sent as u32;
            for &(d, j) in &labels[sent..] {
                s.insert(v, j, d);
            }
        }
        Ok(s)
    }

    /// `(j, d)` of `v`'s next unsent label: its heap root.
    fn next_label(&self, v: usize) -> (u32, u32) {
        debug_assert!(self.cal[v].len > 0, "vertex {v} has nothing to send");
        let root = self.heap[v * self.k];
        (root as u32, (root >> 32) as u32)
    }

    /// The round `v` sends its next label in (`NONE` if all are sent).
    fn next_round(&self, v: usize) -> u32 {
        let c = self.cal[v];
        if c.len == 0 {
            return NONE;
        }
        (self.heap[v * self.k] >> 32) as u32 + c.sent + 1
    }

    /// Places `x` at heap position `i` of `v`, or above it while it is
    /// smaller than its parent.
    fn sift_up(&mut self, v: usize, mut i: usize, x: u64) {
        let heap = &mut self.heap[v * self.k..];
        while i > 0 {
            let parent = (i - 1) / 2;
            if heap[parent] <= x {
                break;
            }
            heap[i] = heap[parent];
            i = parent;
        }
        heap[i] = x;
    }

    /// Places `x` at the root of `v`'s heap, or below it while a child is
    /// smaller.
    fn sift_down(&mut self, v: usize, x: u64) {
        let base = v * self.k;
        let heap = &mut self.heap[base..base + self.cal[v].len as usize];
        if heap.is_empty() {
            return;
        }
        let mut i = 0;
        loop {
            let mut c = 2 * i + 1;
            if c >= heap.len() {
                break;
            }
            if c + 1 < heap.len() && heap[c + 1] < heap[c] {
                c += 1;
            }
            if x <= heap[c] {
                break;
            }
            heap[i] = heap[c];
            i = c;
        }
        heap[i] = x;
    }

    /// Moves `v` to the list of the round it sends next in.
    fn refile(&mut self, v: usize) {
        let c = self.cal[v];
        let r = self.next_round(v);
        if r == c.due {
            return;
        }
        if c.due != NONE {
            if c.prev == NONE {
                self.head[c.due as usize] = c.next;
            } else {
                self.cal[c.prev as usize].next = c.next;
            }
            if c.next != NONE {
                self.cal[c.next as usize].prev = c.prev;
            }
        }
        let mut next = NONE;
        if r != NONE {
            next = self.head[r as usize];
            if next != NONE {
                self.cal[next as usize].prev = v as u32;
            }
            self.head[r as usize] = v as u32;
        }
        let c = &mut self.cal[v];
        (c.due, c.next, c.prev) = (r, next, NONE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A schedule beside the distance table and send stamps its labels
    /// come from, updated as both engines update theirs.
    struct Vertices {
        s: SendSchedule,
        k: usize,
        dist: Vec<u32>,
        tau: Vec<u32>,
    }

    impl Vertices {
        fn new(n: usize, k: usize) -> Self {
            let (dist, tau) = (vec![INF_DIST; n * k], vec![NONE; n * k]);
            let s = SendSchedule::new(n, k);
            Self { s, k, dist, tau }
        }

        fn insert(&mut self, v: usize, j: u32, d: u32) {
            self.dist[v * self.k + j as usize] = d;
            self.s.insert(v, j, d);
        }

        fn improve(&mut self, v: usize, j: u32, to: u32) {
            let from = std::mem::replace(&mut self.dist[v * self.k + j as usize], to);
            self.s.improve(v, j, from, to);
        }

        fn flags(&self, round: u32) -> Vec<Flag> {
            let mut flags = Vec::new();
            self.s.flags(round, &self.dist, &mut flags);
            flags
        }

        /// Sends every label due in `round`, as both engines do.
        fn send_round(&mut self, round: u32) -> Vec<Flag> {
            let flags = self.flags(round);
            assert_eq!(
                flags,
                scan_flags(&self.dist, self.k, round),
                "round {round}"
            );
            for &(v, j, _) in &flags {
                self.tau[v as usize * self.k + j as usize] = round;
                self.s.mark_sent(v as usize);
            }
            flags
        }
    }

    #[test]
    fn label_appended_to_a_fully_sent_block_reopens_it() {
        // Lemma 2's boundary case d + ℓ = r + 1: (1, j0) fires in round
        // 2, then (1, j1) joins the distance-1 block, all of whose labels
        // have been sent, and must fire in round 1 + 2 = 3.
        let mut s = Vertices::new(1, 2);
        s.insert(0, 0, 1);
        assert_eq!(s.send_round(1), vec![]);
        assert_eq!(s.send_round(2), vec![(0, 0, 1)]);
        assert_eq!(s.s.pending(0), 0);
        s.insert(0, 1, 1);
        assert_eq!(s.s.due(0, 3, &s.dist), Some((1, 1)));
        assert_eq!(s.send_round(3), vec![(0, 1, 1)]);
        assert_eq!((s.s.labels(0), s.s.pending(0)), (2, 0));
    }

    #[test]
    fn a_new_block_after_the_sent_ones_does_not_reopen() {
        let mut s = Vertices::new(2, 3);
        s.insert(1, 2, 0);
        assert_eq!(s.send_round(1), vec![(1, 2, 0)]);
        s.insert(1, 1, 2);
        s.insert(1, 0, 2);
        // Positions 2 and 3 at distance 2: rounds 4 and 5, in source order
        // whatever the insertion order.
        assert_eq!(s.send_round(3), vec![]);
        assert_eq!(s.send_round(4), vec![(1, 0, 2)]);
        assert_eq!(s.send_round(5), vec![(1, 1, 2)]);
        assert_eq!(s.s.pending(1), 0);
    }

    #[test]
    fn improvement_refiles_only_the_moved_vertex() {
        let mut s = Vertices::new(3, 2);
        s.insert(0, 0, 3);
        s.insert(2, 1, 1);
        assert_eq!(s.flags(4), vec![(0, 0, 3)]);
        assert_eq!(s.flags(2), vec![(2, 1, 1)]);
        s.improve(0, 0, 1);
        assert_eq!(s.flags(4), vec![]);
        assert_eq!(s.flags(2), vec![(0, 0, 1), (2, 1, 1)]);
        assert_eq!(s.s.labels(0), 1);
    }

    #[test]
    fn improvement_moves_a_label_ahead_of_the_unsent_ones() {
        // A vertex with many unsent labels: an improvement sifts the
        // moved label up the heap to its place in L_v.
        let k = 9;
        let mut s = Vertices::new(8, k);
        for j in (0..k as u32).rev() {
            s.insert(0, j, 5 + j % 3);
        }
        s.improve(0, 7, 2);
        s.improve(0, 4, 3);
        let sent: Vec<Flag> = (1..=20).flat_map(|r| s.send_round(r)).collect();
        let order: Vec<u32> = sent.iter().map(|&(_, j, _)| j).collect();
        assert_eq!(order, vec![7, 4, 0, 3, 6, 1, 2, 5, 8]);
        assert_eq!(s.s.pending(0), 0);
    }

    #[test]
    fn restore_rebuilds_the_calendar_from_dist_and_send_stamps() {
        let mut live = Vertices::new(2, 2);
        live.insert(0, 0, 0);
        live.insert(0, 1, 1);
        live.insert(1, 1, 0);
        live.send_round(1);
        assert_eq!(live.tau, [1, NONE, NONE, 1]);
        let back = SendSchedule::restore(&live.dist, &live.tau, 2, 2).expect("consistent");
        // Rounds still to come (the oracle would also report round 1's
        // labels, which are already sent).
        for r in 2..8 {
            let mut flags = Vec::new();
            back.flags(r, &live.dist, &mut flags);
            assert_eq!(flags, live.flags(r), "round {r}");
        }
        assert_eq!(back.pending(0), 1);
        // Stamps that contradict the labels: vertex 0's second label sent
        // but not its first; both sent in round 1; a label sent after the
        // round restored into.
        let restore = |tau: &[u32], next| SendSchedule::restore(&live.dist, tau, 2, next).err();
        assert!(restore(&[NONE, 3, NONE, 1], 4).is_some());
        assert!(restore(&[1, 1, NONE, 1], 2).is_some());
        assert!(restore(&live.tau, 1).is_some());
        assert!(restore(&[1, NONE, NONE, NONE], 2).is_none());
    }
}
