//! Incrementally maintained argmin indexes over placeable boards.
//!
//! Every dispatcher key is a lexicographic tuple whose leading term
//! derives from [`est_busy_until_s`](crate::state::ClusterState::est_busy_until_s)
//! — an *absolute* sim-time value that changes only on board-local
//! events (enqueue, pop, in-flight estimate update, completion,
//! churn/outage/blackout edges). This module keeps each placeable
//! board filed under one of three classes so a pick touches O(log B)
//! state instead of scanning every board:
//!
//! * **Zero** — the board's busy-until is at or behind the clock, so
//!   its backlog is exactly `0.0` and *stays* `0.0` as the clock
//!   advances (an idle board, or one whose in-flight estimate has
//!   already lapsed with nothing queued). Filed globally by
//!   `(dispatched as f64, board)` — the `LeastLoaded` tie-break — and
//!   per architecture class by board index.
//! * **Ordered** — busy-until is strictly ahead of the clock and
//!   independent of it (oracle accumulator, or an online board whose
//!   in-flight finish estimate has not lapsed). Filed per architecture
//!   class by `(busy_until bits, board)`; the fleet-wide head is the
//!   least of the (few) class heads, so no global ordering is kept.
//!   Since busy and backlog are non-negative and `x ↦ (x - now).max(0)`
//!   is monotone, bit order on the stored busy value *is* backlog
//!   order.
//! * **Stale** — an online board whose in-flight finish estimate has
//!   lapsed while work is still queued (or, defensively, an idle board
//!   with queued work): its busy-until is genuinely clock-dependent
//!   (`now + Σ queued`), so no clock-free ordering over it can be
//!   maintained incrementally. Every pick walks all stale boards,
//!   evaluating each board's exact backlog: each dispatcher folds the
//!   walk with an order-free argmin whose key ends in the board index,
//!   so visit order cannot change a pick. In steady state the class is near-empty (boards enter it
//!   only when a service estimate overran and feedback shrinks it
//!   again); under a systematic-underestimation chaos clause it can
//!   hold most of the fleet, and the walk stays O(stale boards) per
//!   pick.
//!
//! Every class lives in [`IndexedHeaps`]: flat binary min-heaps over
//! `(key bits, board)` with a board→slot map, so a refile re-keys the
//! board in place with one sift per heap and allocates nothing.
//! Dispatchers read Zero and Ordered class heads and walk a head
//! equal-key group top-down ([`IndexedHeaps::walk`]), descending only
//! below boards that are in the group; the stale heap (every key `0`)
//! is only a slot-mapped set and is read whole.
//!
//! Every [`ClusterState`](crate::state::ClusterState) builds the index
//! at construction and keeps it for its whole life, whatever the fleet
//! size: the indexed pick is each dispatcher's only pick path. The
//! classes are repaired *eagerly* at every mutation site (the
//! kernel calls [`refresh_dispatch_index`](crate::state::ClusterState::refresh_dispatch_index)
//! wherever it touches a board) plus two prefix sweeps when the clock
//! advances: ordered entries whose busy-until the clock has reached
//! reclassify to Zero/Stale, and in-flight estimates the clock has
//! passed (tracked in a third heap) demote their boards out of
//! Ordered. Each board is swept at most once per insertion, so the
//! sweeps are amortised O(log B) per event.
//!
//! The index never *computes* a key: dispatchers use it only to
//! enumerate a small candidate set that provably contains the argmin,
//! then compare candidates with the exact same floating-point
//! expressions the reference linear scan uses — which is how the
//! indexed picks reproduce the scan bit-for-bit. The scans compile
//! only for tests and under the `pick_crosscheck` feature, which
//! asserts the equality on every pick. Head-group membership is
//! decided on the filed busy-until bits, through the scan's own backlog
//! expression ([`backlog_at`](crate::state::ClusterState::backlog_at)):
//! eager repair keeps a filed value equal to the board's live
//! busy-until, the invariant the ordering itself rests on, so a walk
//! reads no board state until it accepts a candidate.

/// Which class a board is filed under (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BoardClass {
    /// Not placeable (down or blacked out): in no set.
    None,
    /// Backlog is exactly zero and stays zero as the clock advances.
    Zero {
        /// `(dispatched as f64).to_bits()` — the `LeastLoaded` tie key.
        disp_bits: u64,
    },
    /// Busy-until is ahead of the clock and independent of it.
    Ordered {
        /// Bit pattern of the absolute busy-until value.
        busy_bits: u64,
        /// Bit pattern of the in-flight finish estimate when the class
        /// must demote once the clock passes it (online mode only).
        ifl_bits: Option<u64>,
    },
    /// Busy-until depends on the clock: walked exactly on every pick.
    Stale,
}

/// Slot-map sentinel: the board is filed in no heap of the family.
const ABSENT: u32 = u32::MAX;

/// A family of indexed binary min-heaps over `(key, board)` entries:
/// one heap per group (an architecture class, or one global group),
/// each a flat `Vec`, plus one board→slot map shared by the family — a
/// board sits in at most one heap, and its group is fixed by the
/// caller (a board's architecture class never changes). Filing,
/// re-keying and removing a board is one sift through its heap and
/// never allocates once the heaps have grown to their working size.
/// Entries are unique (they end in the board), so heap order is the
/// strict `(key, board)` order the sorted sets it replaces used.
#[derive(Clone, Debug, Default)]
struct IndexedHeaps {
    /// Per group: a binary min-heap over `(key, board)`.
    heaps: Vec<Vec<(u64, u32)>>,
    /// Per board: its position in its group's heap, or [`ABSENT`].
    slot: Vec<u32>,
}

impl IndexedHeaps {
    /// Empty heaps over `n` boards in `groups` groups.
    fn new(n: usize, groups: usize) -> Self {
        IndexedHeaps {
            heaps: vec![Vec::new(); groups],
            slot: vec![ABSENT; n],
        }
    }

    /// File board `b` of group `g` under `key`, or take it out of the
    /// family on `None`. A filed board is re-keyed in place.
    fn set(&mut self, g: usize, b: u32, key: Option<u64>) {
        let h = &mut self.heaps[g];
        let s = self.slot[b as usize];
        match key {
            None if s == ABSENT => {}
            None => {
                let i = s as usize;
                self.slot[b as usize] = ABSENT;
                let last = h.pop().expect("a filed board has a heap entry");
                if i < h.len() {
                    h[i] = last;
                    if i > 0 && last < h[(i - 1) / 2] {
                        sift_up(h, &mut self.slot, i);
                    } else {
                        sift_down(h, &mut self.slot, i);
                    }
                }
            }
            Some(k) if s == ABSENT => {
                h.push((k, b));
                let i = h.len() - 1;
                sift_up(h, &mut self.slot, i);
            }
            Some(k) => {
                let i = s as usize;
                let old = h[i].0;
                h[i].0 = k;
                if k < old {
                    sift_up(h, &mut self.slot, i);
                } else if k > old {
                    sift_down(h, &mut self.slot, i);
                }
            }
        }
    }

    /// The least `(key, board)` entry of group `g`.
    #[inline]
    fn first(&self, g: usize) -> Option<(u64, u32)> {
        self.heaps[g].first().copied()
    }

    /// Number of groups.
    #[inline]
    fn groups(&self) -> usize {
        self.heaps.len()
    }

    /// Walk group `g` top-down from its head, calling `f(key, board)`
    /// on each visited entry and descending below an entry only when
    /// `f` accepts it. Children never order before their parent, so for
    /// a predicate that holds on a prefix of the `(key, board)` order —
    /// a head group — the accepted entries are exactly that prefix, and
    /// `f` is called at most once more per accepted entry (the rejected
    /// frontier). Visit order is heap order, not sorted order: callers
    /// fold accepted boards with an order-free argmin.
    fn walk(&self, g: usize, mut f: impl FnMut(u64, usize) -> bool) {
        let h = &self.heaps[g];
        // Right siblings still to visit: at most one per level of the
        // path from the root, and a heap of `u32` boards has < 33.
        let mut pending = [0usize; 33];
        let mut depth = 0;
        let mut i = 0;
        loop {
            if i < h.len() && f(h[i].0, h[i].1 as usize) {
                pending[depth] = 2 * i + 2;
                depth += 1;
                i = 2 * i + 1;
            } else if depth == 0 {
                return;
            } else {
                depth -= 1;
                i = pending[depth];
            }
        }
    }

    /// Entries filed across every group (diagnostics / tests).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.heaps.iter().map(Vec::len).sum()
    }
}

/// Move the entry at `i` towards the root until its parent orders
/// before it, keeping the slot map in step.
fn sift_up(h: &mut [(u64, u32)], slot: &mut [u32], mut i: usize) {
    let e = h[i];
    while i > 0 {
        let p = (i - 1) / 2;
        if h[p] < e {
            break;
        }
        h[i] = h[p];
        slot[h[i].1 as usize] = i as u32;
        i = p;
    }
    h[i] = e;
    slot[e.1 as usize] = i as u32;
}

/// Move the entry at `i` towards the leaves until both children order
/// after it, keeping the slot map in step.
fn sift_down(h: &mut [(u64, u32)], slot: &mut [u32], mut i: usize) {
    let e = h[i];
    loop {
        let mut c = 2 * i + 1;
        if c >= h.len() {
            break;
        }
        if c + 1 < h.len() && h[c + 1] < h[c] {
            c += 1;
        }
        if e < h[c] {
            break;
        }
        h[i] = h[c];
        slot[h[i].1 as usize] = i as u32;
        i = c;
    }
    h[i] = e;
    slot[e.1 as usize] = i as u32;
}

/// The maintained index structure. Owned by
/// [`ClusterState`](crate::state::ClusterState); all classification
/// logic lives there (it needs the live board state), this type only
/// keeps the heaps consistent and answers ordered queries.
#[derive(Clone, Debug, Default)]
pub(crate) struct DispatchIndex {
    /// Current class of each board (`class[b]` mirrors heap membership).
    class: Vec<BoardClass>,
    /// Zero-class boards by `(dispatched bits, board)`, one group.
    zero: IndexedHeaps,
    /// Zero-class boards per architecture class, by board index (every
    /// key is `0`).
    zero_arch: IndexedHeaps,
    /// Ordered-class boards per architecture class, by `(busy bits,
    /// board)`. The fleet-wide head is the least of the class heads.
    ordered: IndexedHeaps,
    /// Ordered-class boards whose class lapses when the clock passes
    /// their in-flight finish estimate, by `(estimate bits, board)`,
    /// one group.
    inflight: IndexedHeaps,
    /// Stale-class boards, one group, every key `0`: the heap is only
    /// a slot-mapped set, walked whole by [`stale_iter`](Self::stale_iter).
    stale: IndexedHeaps,
}

impl DispatchIndex {
    /// Reset to an empty index over `n` boards in `n_arch`
    /// architecture classes.
    pub(crate) fn reset(&mut self, n: usize, n_arch: usize) {
        self.class = vec![BoardClass::None; n];
        self.zero = IndexedHeaps::new(n, 1);
        self.zero_arch = IndexedHeaps::new(n, n_arch);
        self.ordered = IndexedHeaps::new(n, n_arch);
        self.inflight = IndexedHeaps::new(n, 1);
        self.stale = IndexedHeaps::new(n, 1);
    }

    /// Re-file board `b`, of architecture class `a`, under `class`:
    /// each heap re-keys, files or drops the board in place (a board
    /// that stays Ordered moves with one sift per heap).
    pub(crate) fn set_class(&mut self, b: usize, a: usize, class: BoardClass) {
        if class == self.class[b] {
            // Identical classification files identically.
            return;
        }
        let bu = b as u32;
        let zero = match class {
            BoardClass::Zero { disp_bits } => Some(disp_bits),
            _ => None,
        };
        self.zero.set(0, bu, zero);
        self.zero_arch.set(a, bu, zero.map(|_| 0));
        let (busy, ifl) = match class {
            BoardClass::Ordered {
                busy_bits,
                ifl_bits,
            } => (Some(busy_bits), ifl_bits),
            _ => (None, None),
        };
        self.ordered.set(a, bu, busy);
        self.inflight.set(0, bu, ifl);
        self.stale
            .set(0, bu, (class == BoardClass::Stale).then_some(0));
        self.class[b] = class;
    }

    /// An ordered entry at or behind `now_bits`, if any — the
    /// clock-advance sweep target (any class head that qualifies; the
    /// sweep drains them all).
    pub(crate) fn ordered_lapsed(&self, now_bits: u64) -> Option<usize> {
        (0..self.ordered.groups()).find_map(|a| match self.ordered.first(a) {
            Some((bits, b)) if bits <= now_bits => Some(b as usize),
            _ => None,
        })
    }

    /// The earliest filed in-flight estimate strictly behind
    /// `now_bits`, if any — the other clock-advance sweep target.
    pub(crate) fn inflight_lapsed(&self, now_bits: u64) -> Option<usize> {
        match self.inflight.first(0) {
            Some((bits, b)) if bits < now_bits => Some(b as usize),
            _ => None,
        }
    }

    /// Any zero-class (backlog exactly zero) board?
    #[inline]
    pub(crate) fn has_zero(&self) -> bool {
        self.zero.first(0).is_some()
    }

    /// The zero-class board minimising `(dispatched, board)` — the
    /// `LeastLoaded` champion among idle boards.
    #[inline]
    pub(crate) fn zero_min(&self) -> Option<usize> {
        self.zero.first(0).map(|(_, b)| b as usize)
    }

    /// The lowest-indexed zero-class board in architecture class `a` —
    /// the band champion where per-arch keys tie on everything but `b`.
    #[inline]
    pub(crate) fn zero_min_arch(&self, a: usize) -> Option<usize> {
        self.zero_arch.first(a).map(|(_, b)| b as usize)
    }

    /// The least filed busy-until among ordered-class boards of
    /// architecture class `a` — the class head's.
    #[inline]
    pub(crate) fn ordered_min_busy(&self, a: usize) -> Option<f64> {
        self.ordered.first(a).map(|(bits, _)| f64::from_bits(bits))
    }

    /// Walk the ordered-class boards of architecture class `a` from the
    /// head, calling `f(busy-until, board)` and descending only below
    /// boards `f` accepts (see [`IndexedHeaps::walk`]). `f` must accept
    /// a prefix of the `(busy-until, board)` order — a head equal-key
    /// group.
    #[inline]
    pub(crate) fn walk_ordered(&self, a: usize, mut f: impl FnMut(f64, usize) -> bool) {
        self.ordered.walk(a, |bits, b| f(f64::from_bits(bits), b));
    }

    /// Every stale-class board, in no particular order: callers fold
    /// the walk with an order-free argmin.
    #[inline]
    pub(crate) fn stale_iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.stale.heaps[0].iter().map(|&(_, b)| b as usize)
    }

    /// Filed entries across every class (diagnostics / tests).
    #[cfg(test)]
    pub(crate) fn filed(&self) -> usize {
        self.zero.len() + self.ordered.len() + self.stale.len()
    }

    /// Stale entries currently filed (diagnostics / tests).
    #[cfg(test)]
    pub(crate) fn stale_len(&self) -> usize {
        self.stale.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Every structural invariant of a heap family against a sorted-set
    /// model: heap order, the slot map round-tripping both ways, and the
    /// per-group heads.
    fn check_heaps(h: &IndexedHeaps, model: &[BTreeSet<(u64, u32)>], key_of: &[Option<u64>]) {
        for (g, heap) in h.heaps.iter().enumerate() {
            assert_eq!(h.first(g), model[g].first().copied(), "group {g} head");
            assert_eq!(heap.len(), model[g].len(), "group {g} size");
            for (i, &(k, b)) in heap.iter().enumerate() {
                assert_eq!(h.slot[b as usize], i as u32, "slot of board {b}");
                assert_eq!(key_of[b as usize], Some(k), "key of board {b}");
                if i > 0 {
                    assert!(heap[(i - 1) / 2] < heap[i], "heap order at {i}");
                }
            }
        }
        for (b, k) in key_of.iter().enumerate() {
            if k.is_none() {
                assert_eq!(h.slot[b], ABSENT, "unfiled board {b} has a slot");
            }
        }
    }

    /// The accepted set of a walk whose predicate is `(key, board) <
    /// cut`, sorted — must equal the model's sorted prefix below `cut`.
    fn walk_below(
        h: &IndexedHeaps,
        g: usize,
        key_of: &[Option<u64>],
        cut: (u64, u32),
    ) -> Vec<(u64, u32)> {
        let mut got = Vec::new();
        h.walk(g, |k, b| {
            assert_eq!(key_of[b], Some(k), "walked entry carries its key");
            let e = (k, b as u32);
            let hit = e < cut;
            if hit {
                got.push(e);
            }
            hit
        });
        got.sort_unstable();
        got
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Model check: random file / re-key / remove streams over at
        /// most 64 boards, with keys drawn from a handful of values so
        /// they collide and ties fall to the board index, against one
        /// `BTreeSet<(u64, u32)>` per group. Group counts can exceed
        /// the board count, so some groups are empty throughout.
        #[test]
        fn indexed_heaps_match_sorted_set_model(
            n in 1usize..65,
            groups in 1usize..5,
            ops in prop::collection::vec((0usize..64, 0u64..6, 0u8..4), 0..300),
            cuts in prop::collection::vec((0u64..7, 0u32..65), 1..8),
        ) {
            let mut h = IndexedHeaps::new(n, groups);
            let mut model = vec![BTreeSet::new(); groups];
            let mut key_of: Vec<Option<u64>> = vec![None; n];
            check_heaps(&h, &model, &key_of);
            for (step, &(b, k, op)) in ops.iter().enumerate() {
                let b = b % n;
                let g = b % groups;
                // One op in four removes (a no-op on an unfiled board).
                let key = (op != 0).then_some(k);
                h.set(g, b as u32, key);
                if let Some(old) = key_of[b] {
                    model[g].remove(&(old, b as u32));
                }
                if let Some(k) = key {
                    model[g].insert((k, b as u32));
                }
                key_of[b] = key;
                check_heaps(&h, &model, &key_of);
                let cut = cuts[step % cuts.len()];
                for (g, set) in model.iter().enumerate() {
                    let want: Vec<(u64, u32)> = set.range(..cut).copied().collect();
                    prop_assert_eq!(walk_below(&h, g, &key_of, cut), want);
                }
            }
            // Drain: every group ends empty, and an empty group's walk
            // never calls its predicate.
            for (b, k) in key_of.iter_mut().enumerate() {
                h.set(b % groups, b as u32, None);
                *k = None;
            }
            for set in &mut model {
                set.clear();
            }
            check_heaps(&h, &model, &key_of);
            for g in 0..groups {
                h.walk(g, |_, _| panic!("walked an empty group"));
            }
        }

        /// The index's queries against the sorted-set design it
        /// replaced (global and per-class `BTreeSet`s): random class
        /// streams over two or three architecture classes, including
        /// runs where the zero class stays empty.
        #[test]
        fn dispatch_index_matches_sorted_set_reference(
            n in 1usize..65,
            n_arch in 2usize..4,
            ops in prop::collection::vec((0usize..64, 0u8..5, 0u64..6, 0u64..6), 0..200),
            zero_ok in 0u8..2,
        ) {
            let mut idx = DispatchIndex::default();
            idx.reset(n, n_arch);
            let mut zero = BTreeSet::new();
            let mut zero_arch = vec![BTreeSet::new(); n_arch];
            let mut ordered = BTreeSet::new();
            let mut ordered_arch = vec![BTreeSet::new(); n_arch];
            let mut inflight = BTreeSet::new();
            let mut class = vec![BoardClass::None; n];
            for &(b, kind, k1, k2) in &ops {
                let b = b % n;
                let (a, bu) = (b % n_arch, b as u32);
                let c = match kind {
                    1 if zero_ok == 1 => BoardClass::Zero { disp_bits: k1 },
                    2 => BoardClass::Ordered { busy_bits: k1, ifl_bits: None },
                    3 => BoardClass::Ordered { busy_bits: k1, ifl_bits: Some(k2) },
                    4 => BoardClass::Stale,
                    _ => BoardClass::None,
                };
                idx.set_class(b, a, c);
                match class[b] {
                    BoardClass::Zero { disp_bits } => {
                        zero.remove(&(disp_bits, bu));
                        zero_arch[a].remove(&bu);
                    }
                    BoardClass::Ordered { busy_bits, ifl_bits } => {
                        ordered.remove(&(busy_bits, bu));
                        ordered_arch[a].remove(&(busy_bits, bu));
                        if let Some(f) = ifl_bits {
                            inflight.remove(&(f, bu));
                        }
                    }
                    _ => {}
                }
                match c {
                    BoardClass::Zero { disp_bits } => {
                        zero.insert((disp_bits, bu));
                        zero_arch[a].insert(bu);
                    }
                    BoardClass::Ordered { busy_bits, ifl_bits } => {
                        ordered.insert((busy_bits, bu));
                        ordered_arch[a].insert((busy_bits, bu));
                        if let Some(f) = ifl_bits {
                            inflight.insert((f, bu));
                        }
                    }
                    _ => {}
                }
                class[b] = c;

                prop_assert_eq!(idx.has_zero(), !zero.is_empty());
                prop_assert_eq!(idx.zero_min(), zero.first().map(|&(_, b)| b as usize));
                for a in 0..n_arch {
                    prop_assert_eq!(idx.zero_min_arch(a), zero_arch[a].first().map(|&b| b as usize));
                    let head = ordered_arch[a].first();
                    prop_assert_eq!(
                        idx.ordered_min_busy(a).map(f64::to_bits),
                        head.map(|&(k, _)| k)
                    );
                    // The head equal-key group, walked top-down.
                    if let Some(&(k0, _)) = head {
                        let mut got = Vec::new();
                        idx.walk_ordered(a, |busy, b| {
                            let hit = match class[b] {
                                BoardClass::Ordered { busy_bits, .. } => {
                                    assert_eq!(busy.to_bits(), busy_bits);
                                    busy_bits == k0
                                }
                                other => panic!("walked a {other:?} board"),
                            };
                            if hit {
                                got.push(b as u32);
                            }
                            hit
                        });
                        got.sort_unstable();
                        let want: Vec<u32> = ordered_arch[a]
                            .range((k0, 0)..=(k0, u32::MAX))
                            .map(|&(_, b)| b)
                            .collect();
                        prop_assert_eq!(got, want);
                    }
                }
                for now in 0..7u64 {
                    let lapsed = idx.ordered_lapsed(now);
                    let any = ordered.first().is_some_and(|&(k, _)| k <= now);
                    prop_assert_eq!(lapsed.is_some(), any);
                    if let Some(b) = lapsed {
                        prop_assert!(matches!(
                            class[b],
                            BoardClass::Ordered { busy_bits, .. } if busy_bits <= now
                        ));
                    }
                    let want = inflight.first().filter(|&&(k, _)| k < now).map(|&(_, b)| b as usize);
                    prop_assert_eq!(idx.inflight_lapsed(now), want);
                }
                let stale: Vec<usize> = (0..n).filter(|&b| class[b] == BoardClass::Stale).collect();
                let mut walked: Vec<usize> = idx.stale_iter().collect();
                walked.sort_unstable();
                prop_assert_eq!(&walked, &stale);
                prop_assert_eq!(idx.filed(), zero.len() + ordered.len() + stale.len());
            }
        }
    }
}
