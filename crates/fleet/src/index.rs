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
//!   maintained incrementally. Stale boards are bucketed in an ordered
//!   set keyed by lapse time, and picks are served from a cached
//!   [`StaleView`] — per-(clock, revision) global and per-architecture
//!   orderings by *exact* backlog bits — so the head equal-key groups
//!   dispatchers walk are the same ones they walk in the ordered
//!   class. The view is rebuilt lazily when the clock has moved or any
//!   stale board was refiled since the last pick; in steady state the
//!   class is near-empty (boards enter it only when a service estimate
//!   overran and feedback shrinks it again), and under a systematic-
//!   underestimation chaos clause — where most of the fleet goes stale
//!   — bursty arrivals at shared timestamps amortise one rebuild over
//!   many picks instead of degrading every pick to five linear scans.
//!   Small stale sets (≤ [`STALE_SCAN_MAX`]) skip the view and keep
//!   the exact per-pick walk: sorting a handful of boards costs more
//!   than scanning them.
//!
//! Zero and Ordered filings live in [`IndexedHeaps`]: flat binary
//! min-heaps over `(key bits, board)` with a board→slot map, so a
//! refile re-keys the board in place with one sift per heap and
//! allocates nothing. Dispatchers read class heads and walk a head
//! equal-key group top-down ([`IndexedHeaps::walk`]), descending only
//! below boards that are in the group.
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

use std::cell::{Ref, RefCell};
use std::collections::BTreeSet;

/// Stale sets at or below this size are walked exactly per pick
/// instead of going through the cached [`StaleView`]: collecting and
/// sorting a handful of boards costs more than evaluating them
/// directly, and small sets are the steady state (boards only go
/// stale when a service estimate overran).
pub(crate) const STALE_SCAN_MAX: usize = 16;

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
    /// Busy-until depends on the clock: bucketed by lapse time and
    /// served through the cached [`StaleView`].
    Stale {
        /// Bit pattern of the in-flight finish estimate that lapsed
        /// (`0` for an idle board with queued work) — the bucket key.
        /// Identical keys still invalidate the view on refile: the
        /// board's backlog may have moved even though its lapse time
        /// did not.
        lapse_bits: u64,
    },
}

/// Cached orderings over the stale class, valid for one `(clock,
/// revision)` pair. Stale backlogs are clock-dependent (`fold(now) −
/// now` — the bits genuinely change as `now` moves), so the view is
/// rebuilt from exact per-board backlog bits whenever the clock has
/// advanced or any stale board was refiled, and reused verbatim across
/// the picks in between (bursty arrivals at one timestamp, the hot
/// adversarial pattern). Since backlogs are non-negative and finite,
/// bit order *is* numeric order, and dispatchers walk the same head
/// equal-key groups they walk in the ordered class.
#[derive(Clone, Debug, Default)]
pub(crate) struct StaleView {
    /// Clock bits the view was built at.
    now_bits: u64,
    /// `stale_rev` the view was built at.
    rev: u64,
    /// Every stale board by `(backlog bits, board)`, ascending.
    by_bl: Vec<(u64, u32)>,
    /// Stale boards per architecture class, same order.
    by_bl_arch: Vec<Vec<(u64, u32)>>,
}

impl StaleView {
    /// All stale boards, ascending `(backlog bits, board)`.
    #[inline]
    pub(crate) fn all(&self) -> &[(u64, u32)] {
        &self.by_bl
    }

    /// Stale boards of architecture class `a`, same order.
    #[inline]
    pub(crate) fn arch(&self, a: usize) -> &[(u64, u32)] {
        &self.by_bl_arch[a]
    }
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
    /// Stale-class boards by `(lapse bits, board)` — ordered by when
    /// their in-flight estimate lapsed, so rebuild order (and the
    /// fallback exact walk) is deterministic.
    stale: BTreeSet<(u64, u32)>,
    /// Bumped whenever any board enters, leaves or refiles within the
    /// stale class; part of the [`StaleView`] cache key.
    stale_rev: u64,
    /// Cached per-(clock, revision) stale orderings, rebuilt lazily on
    /// first use after an invalidation (interior mutability: picks
    /// hold `&ClusterState`).
    stale_view: RefCell<StaleView>,
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
        self.stale = BTreeSet::new();
        // Keep the revision monotone across resets so a view cached
        // before a rebuild can never alias a fresh (clock, revision)
        // pair.
        self.stale_rev += 1;
    }

    /// Re-file board `b`, of architecture class `a`, under `class`:
    /// each heap re-keys, files or drops the board in place (a board
    /// that stays Ordered moves with one sift per heap).
    pub(crate) fn set_class(&mut self, b: usize, a: usize, class: BoardClass) {
        let old = self.class[b];
        // Any refile touching the stale class invalidates the cached
        // view — including an identical reclassification: a queue
        // mutation moves a stale board's backlog without moving its
        // lapse key, and the view orders by backlog.
        if matches!(class, BoardClass::Stale { .. }) || matches!(old, BoardClass::Stale { .. }) {
            self.stale_rev += 1;
        }
        if class == old {
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
        if let BoardClass::Stale { lapse_bits } = old {
            self.stale.remove(&(lapse_bits, bu));
        }
        if let BoardClass::Stale { lapse_bits } = class {
            self.stale.insert((lapse_bits, bu));
        }
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

    /// Stale-class boards, ascending `(lapse time, board)` — the exact
    /// per-pick walk for small sets (and the deterministic rebuild
    /// order for the view).
    #[inline]
    pub(crate) fn stale_iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.stale.iter().map(|&(_, b)| b as usize)
    }

    /// The cached stale orderings for the current clock, or `None`
    /// when the stale set is small enough (≤ [`STALE_SCAN_MAX`]) that
    /// the caller should walk [`stale_iter`](Self::stale_iter)
    /// exactly. `backlog_bits` must return board `b`'s exact current
    /// backlog bits (the same value the pick's key expressions read);
    /// it is only invoked on a rebuild — when the clock has moved or a
    /// stale board was refiled since the view was last built.
    /// `arch_of` is the board→class map the boards were filed by.
    pub(crate) fn stale_view(
        &self,
        now_bits: u64,
        backlog_bits: impl Fn(usize) -> u64,
        arch_of: &[u16],
    ) -> Option<Ref<'_, StaleView>> {
        if self.stale.len() <= STALE_SCAN_MAX {
            return None;
        }
        {
            let v = self.stale_view.borrow();
            if v.now_bits == now_bits && v.rev == self.stale_rev {
                return Some(v);
            }
        }
        let mut v = self.stale_view.borrow_mut();
        v.now_bits = now_bits;
        v.rev = self.stale_rev;
        v.by_bl.clear();
        let n_arch = self.ordered.groups();
        if v.by_bl_arch.len() != n_arch {
            v.by_bl_arch.resize(n_arch, Vec::new());
        }
        for arch in &mut v.by_bl_arch {
            arch.clear();
        }
        for &(_, b) in &self.stale {
            v.by_bl.push((backlog_bits(b as usize), b));
        }
        v.by_bl.sort_unstable();
        for i in 0..v.by_bl.len() {
            let (bits, b) = v.by_bl[i];
            v.by_bl_arch[arch_of[b as usize] as usize].push((bits, b));
        }
        drop(v);
        Some(self.stale_view.borrow())
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

    /// Two architecture classes, alternating by parity: the index and
    /// the board→class map its callers pass in.
    fn index(n: usize) -> (DispatchIndex, Vec<u16>) {
        let mut idx = DispatchIndex::default();
        idx.reset(n, 2);
        (idx, (0..n).map(|b| (b % 2) as u16).collect())
    }

    /// The view only engages past `STALE_SCAN_MAX`, orders by exact
    /// backlog bits globally and per class, and is reused verbatim
    /// while `(clock, revision)` is unchanged.
    #[test]
    fn stale_view_engages_sorts_and_caches() {
        let n = STALE_SCAN_MAX + 4;
        let (mut idx, arch_of) = index(n);
        let stale = |b: usize| BoardClass::Stale {
            lapse_bits: b as u64,
        };
        for b in 0..STALE_SCAN_MAX {
            idx.set_class(b, b % 2, stale(b));
        }
        // At the threshold: callers must walk the exact iterator.
        assert!(idx.stale_view(1, |_| 0, &arch_of).is_none());
        for b in STALE_SCAN_MAX..n {
            idx.set_class(b, b % 2, stale(b));
        }
        assert_eq!(idx.stale_len(), n);
        // Backlog descending in board index → the view must re-sort.
        let bl = |b: usize| (n - b) as u64;
        let view = idx.stale_view(1, bl, &arch_of).expect("past the threshold");
        let all: Vec<(u64, u32)> = view.all().to_vec();
        assert_eq!(all.len(), n);
        assert!(all.windows(2).all(|w| w[0] <= w[1]), "sorted by backlog");
        assert_eq!(all[0], (1, (n - 1) as u32), "deepest board files first");
        for a in 0..2 {
            assert!(view.arch(a).iter().all(|&(_, b)| b as usize % 2 == a));
            assert!(view.arch(a).windows(2).all(|w| w[0] <= w[1]));
        }
        drop(view);
        // Same clock, same revision: the rebuild closure must not run.
        let cached = idx
            .stale_view(1, |_| panic!("cache hit must not rebuild"), &arch_of)
            .expect("cached");
        assert_eq!(cached.all(), &all[..]);
        drop(cached);
        // A clock move alone invalidates (stale backlogs are
        // clock-dependent).
        let moved = idx.stale_view(2, |b| b as u64, &arch_of).expect("rebuilt");
        assert_eq!(moved.all()[0], (0, 0));
        drop(moved);
        // A refile under the *same* lapse key still invalidates: the
        // board's backlog may have moved even though its key did not.
        idx.set_class(3, 1, BoardClass::Stale { lapse_bits: 3 });
        let rebuilt = idx
            .stale_view(2, |b| (n - b) as u64, &arch_of)
            .expect("rebuilt");
        assert_eq!(rebuilt.all()[0], (1, (n - 1) as u32));
        drop(rebuilt);
        // Leaving the class shrinks the set below the threshold + 1;
        // dropping to the threshold disengages the view entirely.
        for b in 0..4 {
            idx.set_class(b, b % 2, BoardClass::None);
        }
        assert_eq!(idx.stale_len(), n - 4);
        assert!(idx.stale_view(2, |_| 0, &arch_of).is_none());
    }

    /// The stale set itself stays ordered by `(lapse time, board)` so
    /// the fallback exact walk and rebuild order are deterministic.
    #[test]
    fn stale_set_orders_by_lapse_time() {
        let (mut idx, _) = index(6);
        for (b, lapse) in [(4usize, 7u64), (1, 3), (5, 3), (0, 9)] {
            idx.set_class(b, b % 2, BoardClass::Stale { lapse_bits: lapse });
        }
        let walked: Vec<usize> = idx.stale_iter().collect();
        assert_eq!(walked, vec![1, 5, 4, 0]);
        assert_eq!(idx.filed(), 4);
    }

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
                    4 => BoardClass::Stale { lapse_bits: k1 },
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
                let stale = class.iter().filter(|c| matches!(c, BoardClass::Stale { .. })).count();
                prop_assert_eq!(idx.filed(), zero.len() + ordered.len() + stale);
            }
        }
    }
}
