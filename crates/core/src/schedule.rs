//! The send schedule `M_v` of Algorithm 3 and its forward calendar — one
//! type shared by the CONGEST engine ([`crate::congest::mrbc`]) and the
//! D-Galois engine ([`crate::dist::mrbc`], and through it `dist::spmd`).
//!
//! `M_v` is the paper's Section 4.3 structure: a flat map from distance to
//! a bitvector over source indices, whose labels `(d, j)` in key-then-bit
//! order are the lexicographically sorted list `L_v`. Algorithm 3 sends
//! the label at 1-based position `ℓ` exactly in round `d + ℓ`.
//!
//! Walking `M_v` to find that label costs `O(|M_v|)` per vertex per round
//! ([`SendSchedule::scheduled_send`], kept as the reference that debug
//! assertions and tests compare against). The calendar finds it in
//! `O(1)`, from two facts the lemmas give:
//!
//! * the sent labels are always a *prefix* of `L_v`: sends go in position
//!   order (`d + ℓ` strictly increases along the list), and Lemma 2
//!   (`d + ℓ ≥ r + 1` for a label inserted in round `r`) puts every
//!   insertion after every sent label;
//! * so with `sent` labels fired, the next one sits at position
//!   `sent + 1`, in the first block holding an unsent label (block index
//!   `skip`, `below` labels before it), and fires in round
//!   `d_skip + sent + 1`.
//!
//! Every vertex with an unsent label is filed in the intrusive list of
//! that round (`head` per round, `next`/`prev` in the vertex's slot — flat
//! `u32` arrays allocated once per batch). An insertion, an improvement or
//! a send re-files only the vertex it touched, and reading round `r`'s
//! flags walks list `r`. So a forward round costs what it sends, not
//! `O(n)`.
//!
//! One case needs care: Lemma 2 allows `d + ℓ = r + 1`, so a label can be
//! appended to the last block whose labels have all been sent. That block
//! is reopened (`skip -= 1`, `below -= cnt - 1`).

use mrbc_util::{DenseBitset, FlatMap};

/// No vertex / no round.
const NONE: u32 = u32::MAX;

/// A label due in some round: `(vertex, source index, distance)`.
pub(crate) type Flag = (u32, u32, u32);

/// `M_v` for every vertex plus the forward calendar derived from it.
pub(crate) struct SendSchedule {
    k: usize,
    /// `M_v`: distance → bitvector over source indices.
    maps: Vec<FlatMap<u32, DenseBitset>>,
    /// Per vertex: its cursor and its links in the round lists.
    cal: Vec<Slot>,
    /// First vertex of each round's list.
    head: Vec<u32>,
}

/// One vertex's calendar state (all `u32`, so `cal` is one flat array).
#[derive(Clone, Copy)]
struct Slot {
    /// Labels in `M_v`.
    labels: u32,
    /// Labels of `M_v` already sent (a prefix of `L_v`).
    sent: u32,
    /// Index of the first `M_v` block holding an unsent label.
    skip: u32,
    /// Labels in the blocks before `skip`.
    below: u32,
    /// The round the vertex is filed under (`NONE`: nothing left to send).
    due: u32,
    /// Neighbours in that round's list.
    next: u32,
    prev: u32,
}

const EMPTY: Slot = Slot {
    labels: 0,
    sent: 0,
    skip: 0,
    below: 0,
    due: NONE,
    next: NONE,
    prev: NONE,
};

/// `(skip, below)` for a vertex that has sent `sent` labels of `map`.
fn cursor_of(map: &FlatMap<u32, DenseBitset>, sent: u32) -> (u32, u32) {
    let (mut skip, mut below) = (0u32, 0u32);
    for (_, bits) in map.iter() {
        let cnt = bits.count_ones() as u32;
        if below + cnt > sent {
            break;
        }
        skip += 1;
        below += cnt;
    }
    (skip, below)
}

impl SendSchedule {
    /// An empty schedule for `n` vertices and `k` sources.
    pub(crate) fn new(n: usize, k: usize) -> Self {
        Self {
            k,
            maps: (0..n).map(|_| FlatMap::new()).collect(),
            cal: vec![EMPTY; n],
            // A label fires in round d + ℓ ≤ (n − 1) + k, inside the
            // forward phase's 2n + k bound.
            head: vec![NONE; 2 * n + k + 4],
        }
    }

    /// `M_v`.
    pub(crate) fn map(&self, v: usize) -> &FlatMap<u32, DenseBitset> {
        &self.maps[v]
    }

    /// Labels in `M_v` (the length of `L_v`).
    pub(crate) fn labels(&self, v: usize) -> u32 {
        self.cal[v].labels
    }

    /// Labels in `M_v` not yet sent.
    pub(crate) fn pending(&self, v: usize) -> u32 {
        let c = self.cal[v];
        c.labels - c.sent
    }

    /// Adds the label `(d, j)` to `M_v` (source `j` has none there yet).
    pub(crate) fn insert(&mut self, v: usize, j: u32, d: u32) {
        let k = self.k;
        let map = &mut self.maps[v];
        // The key of the last block whose labels have all been sent.
        let spent = (self.cal[v].skip as usize)
            .checked_sub(1)
            .and_then(|i| map.nth(i))
            .map(|&(fd, _)| fd);
        debug_assert!(
            spent.is_none_or(|fd| fd <= d),
            "label inserted ahead of a sent one (Lemma 2)"
        );
        let bits = map.get_or_insert_with(d, || DenseBitset::new(k));
        let fresh = bits.set(j as usize);
        debug_assert!(fresh, "source already has a label in M_v");
        let c = &mut self.cal[v];
        if spent == Some(d) {
            // Appended to the fully sent block: reopen it.
            let cnt = bits.count_ones() as u32;
            debug_assert_eq!(bits.rank(j as usize) as u32, cnt - 1);
            c.skip -= 1;
            c.below -= cnt - 1;
        }
        c.labels += 1;
        self.refile(v);
    }

    /// Moves source `j`'s unsent label from distance `from` to the
    /// shorter `to` (Steps 16–17 of Algorithm 3).
    pub(crate) fn improve(&mut self, v: usize, j: u32, from: u32, to: u32) {
        let map = &mut self.maps[v];
        // lint: allow(unwrap): callers move only the label they just read at `from`
        let bits = map.get_mut(&from).expect("label to move must exist");
        bits.clear(j as usize);
        if bits.none() {
            // The block held no sent label, so it is at or after `skip`
            // and removing it leaves the cursor valid.
            map.remove(&from);
        }
        self.cal[v].labels -= 1;
        self.insert(v, j, to);
    }

    /// Records that `v` sent its next label.
    pub(crate) fn mark_sent(&mut self, v: usize) {
        let (_, bits) = self.cursor_block(v);
        let cnt = bits.count_ones() as u32;
        let c = &mut self.cal[v];
        c.sent += 1;
        if c.sent == c.below + cnt {
            c.skip += 1;
            c.below += cnt;
        }
        self.refile(v);
    }

    /// The `(j, d)` that `v` sends in `round`, if any. `O(1)`.
    pub(crate) fn due(&self, v: usize, round: u32) -> Option<(u32, u32)> {
        let got = (self.cal[v].due == round).then(|| self.next_label(v));
        debug_assert_eq!(
            got,
            self.scheduled_send(v, round),
            "calendar disagrees with the M_v scan at vertex {v}, round {round}"
        );
        got
    }

    /// Every label due in `round`, in ascending vertex order (the order
    /// is replicated state in `dist::spmd`). Costs the list's length.
    pub(crate) fn flags(&self, round: u32) -> Vec<Flag> {
        let mut flags = Vec::new();
        let mut v = self.head.get(round as usize).copied().unwrap_or(NONE);
        while v != NONE {
            let (j, d) = self.next_label(v as usize);
            flags.push((v, j, d));
            v = self.cal[v as usize].next;
        }
        flags.sort_unstable_by_key(|&(v, _, _)| v);
        debug_assert_eq!(
            flags,
            self.scan_flags(round),
            "calendar disagrees with the M_v scan in round {round}"
        );
        flags
    }

    /// Reference for [`Self::flags`]: [`Self::scheduled_send`] on every
    /// vertex.
    pub(crate) fn scan_flags(&self, round: u32) -> Vec<Flag> {
        (0..self.maps.len())
            .filter_map(|v| self.scheduled_send(v, round).map(|(j, d)| (v as u32, j, d)))
            .collect()
    }

    /// Reference for [`Self::due`]: the unique `(j, d)` of `M_v` at a
    /// position `ℓ` with `d + ℓ = round`, found by scanning the distance
    /// blocks in order. The 1-based position of `(d, j)` is (labels at
    /// smaller distances) + (rank of `j` in its block) + 1.
    pub(crate) fn scheduled_send(&self, v: usize, round: u32) -> Option<(u32, u32)> {
        let mut below: u32 = 0;
        for (d, bits) in self.maps[v].iter() {
            let cnt = bits.count_ones() as u32;
            let lo = d + below + 1;
            if round < lo {
                return None;
            }
            if round <= d + below + cnt {
                // lint: allow(unwrap): rank < cnt == bits.count_ones() by the bound just checked
                let j = bits.select((round - lo) as usize).expect("rank in block") as u32;
                return Some((j, *d));
            }
            below += cnt;
        }
        None
    }

    /// Replaces every `M_v` with `maps` and rebuilds the cursors and the
    /// calendar from them and the send stamps `tau` (flat over
    /// `(v, j)`, `u32::MAX` = not sent). Errors name what is inconsistent.
    pub(crate) fn restore(
        &mut self,
        maps: Vec<FlatMap<u32, DenseBitset>>,
        tau: &[u32],
    ) -> Result<(), &'static str> {
        let (n, k) = (maps.len(), self.k);
        if tau.len() != n * k {
            return Err("send stamps do not match the schedule");
        }
        *self = Self::new(n, k);
        for (v, map) in maps.into_iter().enumerate() {
            let labels: u32 = map.iter().map(|(_, b)| b.count_ones() as u32).sum();
            let sent = tau[v * k..(v + 1) * k]
                .iter()
                .filter(|&&t| t != NONE)
                .count() as u32;
            // Labels ≤ k and distances < n keep every fire round inside
            // the calendar.
            if sent > labels || labels as usize > k {
                return Err("schedule label count out of range");
            }
            if map.last().is_some_and(|&(d, _)| d as usize >= n) {
                return Err("schedule distance out of range");
            }
            let (skip, below) = cursor_of(&map, sent);
            self.cal[v] = Slot {
                labels,
                sent,
                skip,
                below,
                ..EMPTY
            };
            self.maps[v] = map;
            self.refile(v);
        }
        Ok(())
    }

    /// The `M_v` block holding `v`'s next unsent label.
    fn cursor_block(&self, v: usize) -> &(u32, DenseBitset) {
        let skip = self.cal[v].skip as usize;
        // lint: allow(unwrap): only called while v has an unsent label, which sits in block `skip`
        self.maps[v].nth(skip).expect("vertex has an unsent label")
    }

    /// `(j, d)` of `v`'s next unsent label.
    fn next_label(&self, v: usize) -> (u32, u32) {
        let (d, bits) = self.cursor_block(v);
        let c = self.cal[v];
        let rank = (c.sent - c.below) as usize;
        // lint: allow(unwrap): sent − below < the block's count while it holds an unsent label
        let j = bits.select(rank).expect("cursor inside its block") as u32;
        (j, *d)
    }

    /// The round `v` sends its next label in (`NONE` if all are sent).
    fn next_round(&self, v: usize) -> u32 {
        self.maps[v]
            .nth(self.cal[v].skip as usize)
            .map_or(NONE, |(d, _)| d + self.cal[v].sent + 1)
    }

    /// Moves `v` to the list of the round it sends next in.
    fn refile(&mut self, v: usize) {
        let c = self.cal[v];
        debug_assert_eq!(
            cursor_of(&self.maps[v], c.sent),
            (c.skip, c.below),
            "stale cursor at vertex {v}"
        );
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

    /// Sends every label due in `round`, as both engines do.
    fn send_round(s: &mut SendSchedule, round: u32) -> Vec<Flag> {
        let flags = s.flags(round);
        assert_eq!(flags, s.scan_flags(round), "round {round}");
        for &(v, _, _) in &flags {
            s.mark_sent(v as usize);
        }
        flags
    }

    #[test]
    fn label_appended_to_a_fully_sent_block_reopens_it() {
        // Lemma 2's boundary case d + ℓ = r + 1: (1, j0) fires in round
        // 2, then (1, j1) joins the same, fully sent block and must fire
        // in round 1 + 2 = 3. A cursor that does not step back over that
        // block never sends it.
        let mut s = SendSchedule::new(1, 2);
        s.insert(0, 0, 1);
        assert_eq!(send_round(&mut s, 1), vec![]);
        assert_eq!(send_round(&mut s, 2), vec![(0, 0, 1)]);
        assert_eq!(s.pending(0), 0);
        s.insert(0, 1, 1);
        assert_eq!(s.due(0, 3), Some((1, 1)));
        assert_eq!(send_round(&mut s, 3), vec![(0, 1, 1)]);
        assert_eq!((s.labels(0), s.pending(0)), (2, 0));
    }

    #[test]
    fn a_new_block_after_the_sent_ones_does_not_reopen() {
        let mut s = SendSchedule::new(2, 3);
        s.insert(1, 2, 0);
        assert_eq!(send_round(&mut s, 1), vec![(1, 2, 0)]);
        s.insert(1, 0, 2);
        s.insert(1, 1, 2);
        // Positions 2 and 3 at distance 2: rounds 4 and 5.
        assert_eq!(send_round(&mut s, 3), vec![]);
        assert_eq!(send_round(&mut s, 4), vec![(1, 0, 2)]);
        assert_eq!(send_round(&mut s, 5), vec![(1, 1, 2)]);
        assert_eq!(s.pending(1), 0);
    }

    #[test]
    fn improvement_refiles_only_the_moved_vertex() {
        let mut s = SendSchedule::new(3, 2);
        s.insert(0, 0, 3);
        s.insert(2, 1, 1);
        assert_eq!(s.flags(4), vec![(0, 0, 3)]);
        assert_eq!(s.flags(2), vec![(2, 1, 1)]);
        s.improve(0, 0, 3, 1);
        assert_eq!(s.flags(4), vec![]);
        assert_eq!(s.flags(2), vec![(0, 0, 1), (2, 1, 1)]);
        assert_eq!(s.map(0).len(), 1);
    }

    #[test]
    fn restore_rebuilds_the_calendar_from_maps_and_send_stamps() {
        let mut live = SendSchedule::new(2, 2);
        live.insert(0, 0, 0);
        live.insert(0, 1, 1);
        live.insert(1, 1, 0);
        send_round(&mut live, 1);
        let tau = [1, NONE, NONE, 1];
        let maps = (0..2).map(|v| live.map(v).clone()).collect();
        let mut back = SendSchedule::new(2, 2);
        back.restore(maps, &tau).expect("consistent");
        // Rounds still to come (the scan would also report round 1's
        // labels, which are already sent).
        for r in 2..8 {
            assert_eq!(back.flags(r), live.flags(r), "round {r}");
        }
        assert_eq!(back.pending(0), 1);
        let maps = (0..2).map(|v| live.map(v).clone()).collect();
        assert!(back.restore(maps, &[1, 1, 1, 1]).is_err());
    }
}
