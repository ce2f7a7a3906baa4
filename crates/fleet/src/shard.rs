//! The execution plane of the fleet kernel: one completion queue
//! behind the control loop.
//!
//! Between two control events (arrival, monitor tick, churn, chaos
//! edge) every completion is board-local: a board finishing a job only
//! starts its own next job. So the kernel advances the completion
//! queue to the next control timestamp in one call, folding each
//! completion into the run state as it pops, before the control event
//! reads any state. Control decisions that place a job on a board (an
//! arrival, a preemptive migration, a churn redistribution) reach the
//! plane through `deliver` between advances, never mid-advance.
//!
//! Completions pop in `(finish_s, id)` order: the queue is keyed by
//! exactly that, and a successor always finishes after the completion
//! that started it. The order depends on the simulation alone, never
//! on push order, so the order-sensitive learned state (the feedback
//! EWMA, the streaming sums) is pinned, and a checkpoint restore can
//! rebuild the queue from the in-flight jobs in any order. See
//! DESIGN.md "Execution plane".

use crate::admission::AdmissionTable;
use crate::job::JobOutcome;
use crate::state::{BoardState, ClusterState, InFlight, QueuedJob};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The completion queue: a min-heap of `(finish_s bits, job id,
/// board)`. Finish times are finite and non-negative, so their bit
/// patterns order like the numbers, and job ids are unique, so every
/// key is distinct and the pop order is the sorted order of the keys,
/// whatever order they were pushed in.
pub(crate) type Completions = BinaryHeap<Reverse<(u64, u32, u32)>>;

/// Hand `job` to board `b`: start it now when the board is idle
/// (pushing its completion onto `queue`), else queue it behind the
/// board's current work. The table is only read here: everything a
/// start needs was resolved when the job was placed.
pub(crate) fn deliver(
    state: &mut ClusterState,
    queue: &mut Completions,
    b: usize,
    job: QueuedJob,
    table: &AdmissionTable,
) {
    let (class, now_s) = (state.arch_class(b), state.now_s);
    let bs = &mut state.boards[b];
    if bs.in_flight.is_none() {
        start_on(b, class, bs, queue, now_s, job, table);
    } else {
        bs.enqueue(job);
    }
}

/// The completion queue of restored board state: one entry per busy
/// board, at the in-flight job's already-resolved finish time.
pub(crate) fn completion_queue(boards: &[BoardState]) -> Completions {
    boards
        .iter()
        .enumerate()
        .filter_map(|(b, bs)| {
            let o = &bs.in_flight.as_ref()?.outcome;
            Some(Reverse((o.finish_s.to_bits(), o.id, b as u32)))
        })
        .collect()
}

/// Pop the least `(finish_s, id, board)` only if it finishes strictly
/// before `to_s`.
pub(crate) fn pop_before(queue: &mut Completions, to_s: f64) -> Option<(f64, u32, usize)> {
    let &Reverse((bits, id, board)) = queue.peek()?;
    let finish_s = f64::from_bits(bits);
    if finish_s >= to_s {
        return None;
    }
    queue.pop();
    Some((finish_s, id, board as usize))
}

/// Process every completion strictly before `to_s` in `(finish_s, id)`
/// order, starting each board's next queued job as the previous one
/// finishes, and hand each finished job to `fold` once its board has
/// moved on. An empty window costs one heap peek.
pub(crate) fn advance(
    state: &mut ClusterState,
    queue: &mut Completions,
    to_s: f64,
    table: &AdmissionTable,
    mut fold: impl FnMut(&mut ClusterState, usize, InFlight),
) {
    let mut last = (0u64, 0u32);
    while let Some((time_s, id, b)) = pop_before(queue, to_s) {
        // A successor's completion lands strictly after its start, so
        // pops never go backwards; a zero-length service would break
        // that, and with it the fold order.
        debug_assert!(
            (time_s.to_bits(), id) >= last,
            "completion pops went backwards"
        );
        last = (time_s.to_bits(), id);
        let class = state.arch_class(b);
        let bs = &mut state.boards[b];
        let fin = bs
            .in_flight
            .take()
            .expect("completion event for an idle board");
        bs.completed += 1;
        if let Some(next) = bs.pop_next() {
            start_on(b, class, bs, queue, time_s, next, table);
        }
        fold(state, b, fin);
    }
}

/// Begin service of `job` on idle board `b` (of architecture class
/// `class`) *now*: one run fixes the true finish time, the completion
/// event is pushed onto the completion queue, and dispatchers see only
/// the estimate until then.
fn start_on(
    b: usize,
    class: usize,
    bs: &mut BoardState,
    queue: &mut Completions,
    now_s: f64,
    job: QueuedJob,
    table: &AdmissionTable,
) {
    debug_assert!(bs.in_flight.is_none());
    let w = &job.job.workload;
    // The stock binary under GTS (cold mode, cache misses awaiting the
    // async training, guard bypasses), or the job's static build.
    let version = job.schedule.map(|(_, v)| v);
    let (wall_time_s, energy_j) = table.run(job.slot, class, version, b, job.job.seed);
    // A chaos throttle stretches real execution (DVFS-style: the work
    // takes longer at the capped clock) but not the migration penalty,
    // which models data movement off-board. slowdown is 1.0 outside
    // throttle windows, and `x * 1.0` is bitwise identity, so the
    // no-chaos path is unchanged to the last bit.
    if bs.slowdown > 1.0 {
        bs.throttled_starts += 1;
    }
    let service = wall_time_s * bs.slowdown + job.penalty_s;
    let finish = now_s + service;
    debug_assert!(finish.is_finite() && finish >= 0.0);
    bs.busy_s += service;
    bs.in_flight = Some(InFlight {
        id: job.job.id,
        taxon: job.job.taxon,
        start_s: now_s,
        est_finish_s: now_s + job.est_total_s(),
        profiled_s: job.profiled_s,
        raw_service_s: wall_time_s * bs.slowdown,
        outcome: JobOutcome {
            id: job.job.id,
            workload: w.name,
            class: job.job.class(),
            board: b,
            arrival_s: job.job.arrival_s,
            start_s: now_s,
            finish_s: finish,
            service_s: service,
            energy_j,
            slo_s: job.slo_s,
            migrations: job.migrations,
        },
    });
    queue.push(Reverse((finish.to_bits(), job.job.id, b as u32)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Finish times the generator draws from: few enough that they
    /// collide, spread from zero to seconds so the bit-pattern key is
    /// checked against the numeric order.
    const FINISH_S: [f64; 6] = [0.0, 5e-324, 1e-6, 0.25, 1.0, 3.5];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The completion heap is order-free: a random multiset of
        /// `(finish_s, id, board)`, with colliding finish times, pushed
        /// in a shuffled order pops in sorted order, and a bounded pop
        /// stops exactly at the first finish at or past the bound.
        #[test]
        fn completion_pops_are_sorted_whatever_the_push_order(
            entries in prop::collection::vec((0usize..6, 0u32..48, 0u32..16), 0..120),
            swaps in prop::collection::vec((0usize..1000, 0usize..1000), 0..240),
            cut in 0usize..7,
        ) {
            let mut pushed: Vec<(f64, u32, usize)> = entries
                .iter()
                .map(|&(f, id, b)| (FINISH_S[f], id, b as usize))
                .collect();
            for &(i, j) in &swaps {
                if !pushed.is_empty() {
                    let n = pushed.len();
                    pushed.swap(i % n, j % n);
                }
            }
            let mut queue = Completions::new();
            for &(finish_s, id, b) in &pushed {
                queue.push(Reverse((finish_s.to_bits(), id, b as u32)));
            }
            let mut want = pushed.clone();
            want.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2)));

            let to_s = FINISH_S.get(cut).copied().unwrap_or(f64::INFINITY);
            let mut got = Vec::new();
            while let Some(c) = pop_before(&mut queue, to_s) {
                got.push(c);
            }
            prop_assert!(got.iter().all(|c| c.0 < to_s));
            prop_assert!(queue.peek().is_none_or(|Reverse(k)| f64::from_bits(k.0) >= to_s));
            while let Some(c) = pop_before(&mut queue, f64::INFINITY) {
                got.push(c);
            }
            prop_assert_eq!(got, want);
        }
    }
}
