//! The execution plane of the fleet kernel: one completion
//! [`EventQueue`] behind the control loop.
//!
//! Between two control events (arrival, monitor tick, churn, chaos
//! edge) every completion is board-local: a board finishing a job only
//! starts its own next job. So the kernel advances the completion
//! queue to the next control timestamp in one call, and folds what it
//! produced back into the run state at a **barrier merge** before the
//! control event reads any state. Control decisions that place a job
//! on a board (an arrival, a preemptive migration, a churn
//! redistribution) reach the plane through `deliver` at the barrier,
//! never mid-advance.
//!
//! The advance records completions in heap pop order, which depends
//! on push order. The merge sorts feedback observations and streaming
//! folds by (completion time, job id) instead, so the learned state
//! is pinned to the simulation alone; that is what lets a checkpoint
//! restore rebuild the queue in board order (see
//! `completion_queue`) and still resume bit-identically. See
//! DESIGN.md "Execution plane".

use crate::job::{JobOutcome, Taxon};
use crate::kernel::{Event, EventKind, EventQueue};
use crate::state::{BoardState, InFlight, QueuedJob};
use astro_exec::executor::{ExecPolicy, ExecRequest, Executor};
use astro_exec::program::CompiledProgram;
use astro_hw::boards::BoardSpec;
use astro_ir::Module;
use std::collections::BTreeMap;

/// Key of a compiled static-binary variant: (workload, architecture,
/// policy version), the name strings reduced to their [`sk`] addresses.
/// A workload maps to exactly one taxon, and versions are per (taxon,
/// architecture), so the key never aliases schedules.
///
/// [`sk`]: crate::sim::sk
pub(crate) type WarmKey = (usize, usize, u32);

/// The compiled-program memo the execution plane runs from, keyed by
/// [`sk`](crate::sim::sk) name addresses (probed per job start — the
/// compiled values are pure functions of the named module and
/// schedule, and the maps are never iterated). Populated by the
/// control plane *at dispatch/migration time* (compilation is
/// deterministic and memoised, so moving it off the start path changes
/// no result); the advance phase only reads it, through a plain shared
/// reference.
#[derive(Default)]
pub(crate) struct ProgramSet {
    /// Stock binaries, per workload (run under GTS).
    pub cold: BTreeMap<usize, CompiledProgram>,
    /// Astro static binaries, per (workload, architecture, version).
    pub warm: BTreeMap<WarmKey, CompiledProgram>,
}

/// One observed completion, recorded during an advance and folded
/// into the feedback layer at the barrier merge in (time, id) order.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Observation {
    /// Completion timestamp (the merge sort key).
    pub finish_s: f64,
    /// Job stream id (the merge tie-breaker).
    pub id: u32,
    /// The job's taxonomy.
    pub taxon: Taxon,
    /// Architecture key of the board it ran on.
    pub arch: &'static str,
    /// Uncorrected profiled service estimate it was admitted with.
    pub profiled_s: f64,
    /// Service time actually observed (excluding migration penalties).
    pub observed_s: f64,
}

/// What one advance produced: folded into the run state at the
/// barrier.
#[derive(Default)]
pub(crate) struct AdvanceDelta {
    /// Outcomes revealed, one per completion event processed (heap
    /// pop order; the barrier fold sorts them by `(finish_s, id)`).
    pub outcomes: Vec<JobOutcome>,
    /// Feedback observations (empty unless the scenario enables the
    /// feedback layer).
    pub observations: Vec<Observation>,
}

/// Everything an advance needs: the execution backend, the compiled
/// programs, source modules and board specs, all read-only.
pub(crate) struct AdvanceCtx<'a> {
    /// The execution backend (answers are a pure function of the
    /// request).
    pub exec: &'a dyn Executor,
    /// Compiled binaries, populated at dispatch time.
    pub progs: &'a ProgramSet,
    /// Source modules per workload.
    pub modules: &'a BTreeMap<&'static str, Module>,
    /// Board specs, global index order.
    pub specs: &'a [BoardSpec],
    /// Record [`Observation`]s for the feedback layer?
    pub collect_observations: bool,
}

/// Hand `job` to board `b`: start it now when the board is idle
/// (pushing its completion onto `queue`), else queue it behind the
/// board's current work.
pub(crate) fn deliver(
    boards: &mut [BoardState],
    queue: &mut EventQueue,
    b: usize,
    job: QueuedJob,
    now_s: f64,
    ctx: &AdvanceCtx<'_>,
) {
    if boards[b].in_flight.is_none() {
        start_on(b, &mut boards[b], queue, now_s, job, ctx);
    } else {
        boards[b].enqueue(job);
    }
}

/// The completion queue of restored board state: exactly one event per
/// busy board, at the in-flight job's already-resolved finish time,
/// pushed in board order. Only events on different boards can share a
/// timestamp (one in-flight job per board), and the barrier merge
/// folds same-time completions in (time, id) order whatever order the
/// heap pops them in, so the push order changes no result.
pub(crate) fn completion_queue(boards: &[BoardState]) -> EventQueue {
    let mut queue = EventQueue::new();
    for (b, bs) in boards.iter().enumerate() {
        if let Some(f) = &bs.in_flight {
            queue.push(
                f.outcome.finish_s,
                EventKind::Completion { board: b as u32 },
            );
        }
    }
    queue
}

/// Process every completion strictly before `to_s`, starting each
/// board's next queued job as the previous one finishes. An empty
/// window costs one heap peek.
pub(crate) fn advance(
    boards: &mut [BoardState],
    queue: &mut EventQueue,
    to_s: f64,
    ctx: &AdvanceCtx<'_>,
) -> AdvanceDelta {
    let mut delta = AdvanceDelta::default();
    while let Some(ev) = queue.pop_before(to_s) {
        let Event { time_s, kind, .. } = ev;
        let EventKind::Completion { board } = kind else {
            unreachable!("the completion queue holds only completion events");
        };
        let b = board as usize;
        let bs = &mut boards[b];
        let fin = bs
            .in_flight
            .take()
            .expect("completion event for an idle board");
        bs.completed += 1;
        if ctx.collect_observations {
            delta.observations.push(Observation {
                finish_s: time_s,
                id: fin.outcome.id,
                taxon: fin.taxon,
                arch: ctx.specs[b].name,
                profiled_s: fin.profiled_s,
                observed_s: fin.raw_service_s,
            });
        }
        delta.outcomes.push(fin.outcome);
        if let Some(next) = bs.pop_next() {
            start_on(b, bs, queue, time_s, next, ctx);
        }
    }
    delta
}

/// Begin service of `job` on idle board `b` *now*: one executor run
/// fixes the true finish time, the completion event is pushed onto the
/// completion queue, and dispatchers see only the estimate until then.
fn start_on(
    b: usize,
    bs: &mut BoardState,
    queue: &mut EventQueue,
    now_s: f64,
    job: QueuedJob,
    ctx: &AdvanceCtx<'_>,
) {
    debug_assert!(bs.in_flight.is_none());
    let spec = &ctx.specs[b];
    let w = &job.job.workload;
    let module = &ctx.modules[w.name];
    let full = spec.config_space().full();
    // Only the run's (wall, energy) totals matter here, so the scalar
    // executor path is used: on the replay backend it skips the whole
    // checkpoint-vector assembly per job.
    let (wall_time_s, energy_j) = match &job.schedule {
        None => {
            // Stock binary under GTS (cold mode, cache misses awaiting
            // the async training, guard bypasses).
            let prog = ctx
                .progs
                .cold
                .get(&crate::sim::sk(w.name))
                .expect("stock binary compiled at dispatch");
            ctx.exec.execute_scalar(&ExecRequest {
                workload: w.name,
                module,
                program: prog,
                board: spec,
                config: full,
                policy: ExecPolicy::Gts,
                seed: job.job.seed,
            })
        }
        Some((st, version)) => {
            let prog = ctx
                .progs
                .warm
                .get(&(
                    crate::sim::sk(w.name),
                    crate::sim::sk(job.sched_arch),
                    *version,
                ))
                .expect("static binary compiled at dispatch");
            ctx.exec.execute_scalar(&ExecRequest {
                workload: w.name,
                module,
                program: prog,
                board: spec,
                config: full,
                policy: ExecPolicy::StaticTable(st.as_table()),
                seed: job.job.seed,
            })
        }
    };
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
    queue.push(finish, EventKind::Completion { board: b as u32 });
}
