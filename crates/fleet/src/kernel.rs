//! The discrete-event fleet kernel: a virtual-clock event loop driving
//! online dispatch, preemptive redispatch and board churn.
//!
//! Earlier revisions planned every placement in one sequential batch
//! pass and only then executed boards; the kernel replaces that with a
//! single event loop over a monotone virtual clock, split into two
//! planes:
//!
//! * **The control plane** (this module) owns every decision that
//!   reads global state: arrivals from the [`ArrivalCursor`]
//!   (dispatcher invoked *now* against the live [`ClusterState`]),
//!   monitor ticks (preemptive redispatch of predicted SLO-missers),
//!   [`EventKind::BoardDown`] / [`EventKind::BoardUp`] churn and the
//!   chaos window edges. Churn and chaos edges are all known before
//!   the first step, so they form one timeline sorted once at
//!   construction; the only control event scheduled at run time is
//!   the next monitor tick. It runs sequentially, in one deterministic
//!   (time, schedule-order) sequence, because online dispatch observes
//!   every board at once.
//! * **The execution plane** ([`crate::shard`]) owns everything that
//!   is board-local: completion chains — a board finishing a job and
//!   starting its next — in one completion heap that advances to each
//!   control timestamp, folding each completion as it pops.
//!
//! Everything stays seed-deterministic: control events at equal
//! timestamps resolve churn < chaos < arrival < tick, every service
//! time is a pure function of the request, and completions pop in
//! `(finish_s, id)` order, a key of the simulation alone. So the
//! order-sensitive state folded from them (feedback EWMAs, streaming
//! sums) does not depend on how the heap was filled, and a checkpoint
//! restore that rebuilds it from the in-flight jobs resumes
//! bit-identically. [`DispatchMode::Oracle`] reproduces the original
//! batch planner's placements through this same loop, so historical
//! comparisons stay meaningful; [`DispatchMode::Online`] is the
//! live-feedback upgrade, and [`Scenario::with_feedback`] closes the
//! loop further by correcting profiled estimates with observed service
//! times.

use crate::admission::AdmissionTable;
use crate::arrival::ArrivalCursor;
use crate::cache::{CacheDecision, PolicyCache};
use crate::chaos::{ChaosSchedule, ChaosStats, ClauseStats, CompiledChaos};
use crate::checkpoint::{self, CheckpointError, CursorState, Dec, Enc};
use crate::dispatch::{Dispatcher, JobEstimates};
use crate::feedback::ServiceFeedback;
use crate::job::{JobOutcome, JobSpec};
use crate::metrics::{FleetMetrics, FleetOutcome, StreamAgg};
use crate::shard::{self, Completions};
use crate::sim::{FleetSim, PolicyMode};
use crate::state::{BoardState, ClusterState, DispatchMode, DropReason, DroppedJob, QueuedJob};
use crate::telemetry::{FlightRecorder, WindowSample};
use astro_core::schedule::StaticSchedule;

/// A fleet state change on the control timeline: a churn edge or a
/// chaos window edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Board churn: the board stops accepting work and its queue is
    /// redistributed (the in-flight job drains).
    BoardDown(u32),
    /// Board churn: the board is available again.
    BoardUp(u32),
    /// Chaos: a thermal-throttle window opens on the board. The clause
    /// index resolves the factor in the compiled schedule (kept out of
    /// the event so [`EventKind`] stays `Copy + Eq`).
    ThrottleStart {
        /// Board index.
        board: u32,
        /// Index into the scenario's chaos clauses.
        clause: u32,
    },
    /// Chaos: the matching throttle window closes.
    ThrottleEnd {
        /// Board index.
        board: u32,
        /// Index into the scenario's chaos clauses.
        clause: u32,
    },
    /// Chaos: a dispatch-blackout window opens on the board (it keeps
    /// executing but accepts no new placements).
    BlackoutStart {
        /// Board index.
        board: u32,
        /// Index into the scenario's chaos clauses.
        clause: u32,
    },
    /// Chaos: the matching blackout window closes.
    BlackoutEnd {
        /// Board index.
        board: u32,
        /// Index into the scenario's chaos clauses.
        clause: u32,
    },
}

/// The control plane's schedule: every churn and chaos edge, fixed
/// before the first step, plus the one monitor tick pending at a time.
struct Timeline {
    /// `(time_s, push index, kind)`: the churn events, then the
    /// compiled chaos events, stable-sorted by time, so equal
    /// timestamps keep that order (churn < chaos, clause order within).
    edges: Vec<(f64, u64, EventKind)>,
    /// Edges processed.
    pos: usize,
    /// The pending monitor tick.
    tick_s: Option<f64>,
}

impl Timeline {
    /// Pops the edge or tick due before the next arrival (`None` = no
    /// arrival left), ties resolved churn < chaos < arrival < tick: an
    /// edge wins when no later than both, a tick only when strictly
    /// before the arrival.
    fn pop(&mut self, arrival_s: Option<f64>) -> Option<(f64, ControlAction)> {
        if let Some(&(t, _, kind)) = self.edges.get(self.pos) {
            if arrival_s.is_none_or(|a| t <= a) && self.tick_s.is_none_or(|tick| t <= tick) {
                self.pos += 1;
                return Some((t, ControlAction::Edge(kind)));
            }
        }
        let t = self.tick_s.filter(|&t| arrival_s.is_none_or(|a| t < a))?;
        self.tick_s = None;
        Some((t, ControlAction::Tick))
    }

    /// Serialises the pending control events in the checkpoint v3
    /// layout, which frames them as a priority queue: a push counter
    /// and lifetime push/pop counters, then every pending event in
    /// (time, push order). All of it derives from the position, the
    /// pending tick and the `ticks` processed: edges count as pushed
    /// first, then every tick, so the pending tick is the last push.
    fn encode(&self, enc: &mut Enc, ticks: u64) {
        let pushed = self.edges.len() as u64 + ticks + self.tick_s.is_some() as u64;
        enc.u64(pushed); // the next push sequence number
        enc.u64(pushed);
        enc.u64(self.pos as u64 + ticks);
        let rest = &self.edges[self.pos..];
        enc.usize(rest.len() + self.tick_s.is_some() as usize);
        // An edge at the tick's own time was pushed earlier, so the
        // tick sorts before the first edge strictly later than it.
        let at = self
            .tick_s
            .map_or(rest.len(), |t| rest.partition_point(|e| e.0 <= t));
        for &edge in &rest[..at] {
            enc_edge(enc, edge);
        }
        if let Some(t) = self.tick_s {
            enc.f64(t);
            enc.u64(pushed - 1);
            enc.u8(0);
        }
        for &edge in &rest[at..] {
            enc_edge(enc, edge);
        }
    }

    /// Reads a [`Timeline::encode`]d section against this timeline's
    /// own edges: the pending edges must be exactly `edges[pos..]`, bit
    /// for bit; at most one tick may be pending, only when `ticking`,
    /// and never before `now_s`; and every counter must be the one
    /// `encode` derives. Returns the position, the pending tick and the
    /// ticks processed, which the caller checks against the kernel
    /// counters.
    fn decode(
        &self,
        dec: &mut Dec<'_>,
        ticking: bool,
        now_s: f64,
    ) -> Result<(usize, Option<f64>, u64), CheckpointError> {
        let corrupt = |what| Err(CheckpointError::Corrupt(what));
        let next_seq = dec.u64()?;
        let pushed = dec.u64()?;
        let popped = dec.u64()?;
        let n = dec.count(17)?;
        let mut rest = Vec::with_capacity(n);
        let mut tick = None;
        for _ in 0..n {
            let time_s = dec.f64()?;
            let seq = dec.u64()?;
            let tag = dec.u8()?;
            let kind = match tag {
                0 => {
                    if tick.is_some() || !ticking {
                        return corrupt("monitor tick pending where the scenario has none");
                    }
                    tick = Some((time_s, seq));
                    continue;
                }
                1 => EventKind::BoardDown(dec.u32()?),
                2 => EventKind::BoardUp(dec.u32()?),
                3..=6 => {
                    let (board, clause) = (dec.u32()?, dec.u32()?);
                    match tag {
                        3 => EventKind::ThrottleStart { board, clause },
                        4 => EventKind::ThrottleEnd { board, clause },
                        5 => EventKind::BlackoutStart { board, clause },
                        _ => EventKind::BlackoutEnd { board, clause },
                    }
                }
                _ => return corrupt("control event tag out of range"),
            };
            rest.push((time_s, seq, kind));
        }
        let Some(pos) = self.edges.len().checked_sub(rest.len()) else {
            return corrupt("more pending control edges than the scenario schedules");
        };
        let same = |a: &(f64, u64, EventKind), b: &(f64, u64, EventKind)| {
            a.0.to_bits() == b.0.to_bits() && a.1 == b.1 && a.2 == b.2
        };
        if !rest.iter().zip(&self.edges[pos..]).all(|(a, b)| same(a, b)) {
            return corrupt("pending control edges are not the scenario's churn/chaos schedule");
        }
        let ticks = next_seq.checked_sub(self.edges.len() as u64 + tick.is_some() as u64);
        let Some(ticks) = ticks.filter(|&t| pushed == next_seq && popped == pos as u64 + t) else {
            return corrupt("control counters inconsistent with the pending events");
        };
        if let Some((t, seq)) = tick {
            if seq != next_seq - 1 || !t.is_finite() || t < now_s {
                return corrupt("pending monitor tick is not the last push or predates the clock");
            }
        }
        Ok((pos, tick.map(|(t, _)| t), ticks))
    }
}

/// One pending edge in the v3 control-event layout: time, push index,
/// kind tag (`1..=6`; `0` is the monitor tick) and its indices.
fn enc_edge(enc: &mut Enc, (time_s, seq, kind): (f64, u64, EventKind)) {
    enc.f64(time_s);
    enc.u64(seq);
    let (tag, board, clause) = match kind {
        EventKind::BoardDown(b) => (1, b, None),
        EventKind::BoardUp(b) => (2, b, None),
        EventKind::ThrottleStart { board, clause } => (3, board, Some(clause)),
        EventKind::ThrottleEnd { board, clause } => (4, board, Some(clause)),
        EventKind::BlackoutStart { board, clause } => (5, board, Some(clause)),
        EventKind::BlackoutEnd { board, clause } => (6, board, Some(clause)),
    };
    enc.u8(tag);
    enc.u32(board);
    if let Some(c) = clause {
        enc.u32(c);
    }
}

/// One board leaving or (re)joining the fleet mid-run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnEvent {
    /// When, seconds.
    pub time_s: f64,
    /// Which board.
    pub board: usize,
    /// `true` = joins, `false` = leaves.
    pub up: bool,
}

/// What one kernel run does beyond dispatching: mode, churn schedule,
/// preemptive redispatch, observed-service feedback.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Cold stock binaries vs warm cached Astro policies.
    pub policy: PolicyMode,
    /// Which backlog estimate dispatchers observe.
    pub dispatch: DispatchMode,
    /// Board up/down schedule (empty = stable fleet).
    pub churn: Vec<ChurnEvent>,
    /// Migrate queued jobs predicted to miss their SLO at monitor ticks.
    /// Requires [`DispatchMode::Online`] and a positive tick interval.
    pub preemption: bool,
    /// Monitor tick period, seconds (`0` = no ticks).
    pub monitor_interval_s: f64,
    /// Service-time penalty each migration/redistribution pays (state
    /// transfer), seconds.
    pub migration_cost_s: f64,
    /// Total migrations allowed per job before the preemption scan
    /// stops considering it. The counter it gates
    /// ([`QueuedJob::migrations`](crate::state::QueuedJob)) includes
    /// churn redistributions as well as preemptive moves — the PR 4
    /// semantics, preserved bit-for-bit.
    pub max_migrations: u32,
    /// Churn redistributions allowed per job before it is dropped with
    /// [`DropReason::MigrationCap`]. Counted by its own
    /// [`QueuedJob::redispatches`](crate::state::QueuedJob) counter,
    /// so preemptive migrations never consume this cap. The default
    /// (`u32::MAX`) reproduces the uncapped PR 4 behaviour: a down
    /// board's queue must go somewhere.
    pub max_redispatches: u32,
    /// Feed observed service times from completions back into
    /// dispatch-time estimates through the per-(taxon, architecture)
    /// EWMA layer ([`ServiceFeedback`]).
    pub feedback: bool,
    /// Adversarial chaos clauses compiled into the control-plane event
    /// stream (empty = no chaos; the no-chaos paths are bit-for-bit
    /// the PR 5 kernel — the golden tests pin this).
    pub chaos: ChaosSchedule,
}

impl Scenario {
    /// Batch-equivalent semantics: oracle estimates, stable fleet, no
    /// preemption — the configuration that reproduces the three-stage
    /// planner's placements through the event kernel.
    pub fn oracle(policy: PolicyMode) -> Self {
        Scenario {
            policy,
            dispatch: DispatchMode::Oracle,
            churn: Vec::new(),
            preemption: false,
            monitor_interval_s: 0.0,
            migration_cost_s: 0.0,
            max_migrations: 2,
            max_redispatches: u32::MAX,
            feedback: false,
            chaos: ChaosSchedule::default(),
        }
    }

    /// Live dispatch against observable cluster state.
    pub fn online(policy: PolicyMode) -> Self {
        Scenario {
            dispatch: DispatchMode::Online,
            ..Scenario::oracle(policy)
        }
    }

    /// Add a board churn schedule.
    pub fn with_churn(mut self, churn: Vec<ChurnEvent>) -> Self {
        self.churn = churn;
        self
    }

    /// Enable deadline-driven preemptive redispatch: scan every
    /// `interval_s`, migrate at cost `cost_s`, at most `max_migrations`
    /// times per job.
    pub fn with_preemption(mut self, interval_s: f64, cost_s: f64, max_migrations: u32) -> Self {
        assert!(
            interval_s > 0.0,
            "preemption needs a positive tick interval"
        );
        self.preemption = true;
        self.monitor_interval_s = interval_s;
        self.migration_cost_s = cost_s;
        self.max_migrations = max_migrations;
        self
    }

    /// Set the migration cost without enabling preemption (churn
    /// redistribution pays it too).
    pub fn with_migration_cost(mut self, cost_s: f64) -> Self {
        self.migration_cost_s = cost_s;
        self
    }

    /// Cap churn redistributions per job: a job orphaned by board
    /// churn more than `cap` times is dropped with
    /// [`DropReason::MigrationCap`] instead of bouncing forever.
    pub fn with_redispatch_cap(mut self, cap: u32) -> Self {
        self.max_redispatches = cap;
        self
    }

    /// Attach a chaos schedule: its clauses are validated against the
    /// churn schedule at run start and compiled into the control-plane
    /// event stream (see [`crate::chaos`]). Traffic clauses are *not*
    /// applied here — shape the job stream with
    /// [`ArrivalProcess::generate_shaped`](crate::arrival::ArrivalProcess::generate_shaped).
    pub fn with_chaos(mut self, chaos: ChaosSchedule) -> Self {
        self.chaos = chaos;
        self
    }

    /// Enable the observed-service feedback layer: completions teach a
    /// per-(taxon, architecture) EWMA correction that dispatch-time
    /// estimates — and therefore the phase-aware and energy-aware
    /// dispatchers, backlog predictions and preemption scans — consult
    /// on every subsequent decision.
    pub fn with_feedback(mut self) -> Self {
        self.feedback = true;
        self
    }

    /// `policy/dispatch` label for reports (`+fb` when the feedback
    /// layer is on).
    pub fn label(&self) -> String {
        format!(
            "{}/{}{}",
            self.policy.name(),
            self.dispatch.name(),
            if self.feedback { "+fb" } else { "" }
        )
    }
}

/// Event accounting for one kernel run. Invariant at exit:
/// `arrivals == completions + dropped` and
/// `dropped == dropped_no_board + dropped_migration_cap`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Events processed.
    pub events: u64,
    /// Arrival events.
    pub arrivals: u64,
    /// Completion events.
    pub completions: u64,
    /// Jobs dropped (all reasons).
    pub dropped: u64,
    /// Jobs dropped because no board was up to take them.
    pub dropped_no_board: u64,
    /// Jobs dropped because churn redistributed them past
    /// [`Scenario::max_redispatches`].
    pub dropped_migration_cap: u64,
    /// Preemptive (SLO-driven) migrations.
    pub migrations: u64,
    /// Churn-driven queue redistributions.
    pub redistributions: u64,
    /// Monitor ticks processed.
    pub ticks: u64,
    /// Boards taken down (scenario churn and chaos rack outages both
    /// land here — outages *are* churn events).
    pub board_downs: u64,
    /// Boards brought (back) up.
    pub board_ups: u64,
    /// Chaos throttle/blackout window-edge events processed (rack
    /// outages count as board downs/ups instead).
    pub chaos_events: u64,
    /// Jobs delivered to the execution plane (placements, migrations,
    /// redistributions).
    pub messages: u64,
    /// Barrier advances of the execution plane.
    pub advances: u64,
}

impl KernelStats {
    /// Arrivals admitted onto a board: every delivery that is not a
    /// migration or a redistribution.
    pub fn dispatches(&self) -> u64 {
        self.messages - self.migrations - self.redistributions
    }
}

/// Per-run scratch for estimate construction, refilled in place per
/// admission so estimating allocates nothing however many jobs stream
/// through. Both parts hold one slot per architecture class of the
/// run's [`ClusterState`].
struct EstScratch {
    /// Estimates handed to dispatchers (feedback-corrected).
    est: JobEstimates,
    /// Uncorrected profiled walls — what policy resolution and the
    /// admission guard reason about.
    base_s: Vec<f64>,
}

impl EstScratch {
    fn new(n_arches: usize) -> Self {
        EstScratch {
            est: JobEstimates::zeroed(n_arches),
            base_s: vec![0.0; n_arches],
        }
    }
}

impl<'a> FleetSim<'a> {
    /// A resident (streaming) kernel over this simulator: jobs are
    /// pulled lazily from `cursor` instead of a materialised slice, and
    /// completed outcomes are folded into the streaming aggregate as
    /// they complete. With `retain = false` they are then discarded —
    /// O(boards) memory however many jobs flow through; with
    /// `retain = true` they are also kept for [`FleetOutcome::outcomes`].
    /// The caller owns the loop: [`ResidentKernel::step`] advances one
    /// control event at a time (so a service can checkpoint between
    /// events), [`ResidentKernel::run`] drives it to completion and
    /// [`ResidentKernel::finish`] assembles the [`FleetOutcome`]
    /// ([`FleetSim::run_traced`] is exactly that, over a
    /// [`SliceCursor`](crate::arrival::SliceCursor) with retention on).
    pub fn resident<'r>(
        &'r self,
        cursor: &'r mut dyn ArrivalCursor,
        dispatcher: &'r mut dyn Dispatcher,
        cache: &'r mut PolicyCache,
        scenario: &'r Scenario,
        telemetry: &'r mut FlightRecorder,
        retain: bool,
    ) -> ResidentKernel<'a, 'r> {
        ResidentKernel::new(self, cursor, dispatcher, cache, scenario, telemetry, retain)
    }
}

/// The fleet kernel as a long-lived value instead of one closed loop:
/// the same control plane, execution plane and determinism contract as
/// the batch path (which is a thin wrapper over this), but
/// arrivals stream in through an [`ArrivalCursor`], each
/// [`ResidentKernel::step`] processes exactly one control event, and
/// the caller decides when to pause, checkpoint or finish. Completed
/// outcomes are always folded into streaming quantile digests and
/// counters as they complete; with retention off they are then
/// discarded, so a run's footprint is O(boards + architectures),
/// independent of how many jobs flow through.
pub struct ResidentKernel<'a, 'r> {
    sim: &'r FleetSim<'a>,
    cursor: &'r mut dyn ArrivalCursor,
    dispatcher: &'r mut dyn Dispatcher,
    cache: &'r mut PolicyCache,
    scenario: &'r Scenario,
    telemetry: &'r mut FlightRecorder,
    chaos: CompiledChaos,
    chaos_stats: ChaosStats,
    table: AdmissionTable<'a>,
    state: ClusterState<'a>,
    completions: Completions,
    stats: KernelStats,
    feedback: Option<ServiceFeedback>,
    train_time_s: f64,
    train_energy_j: f64,
    guard_bypasses: u64,
    /// The completion sink every run folds into.
    stream: StreamAgg,
    /// Retained per-job outcomes — the optional second sink, `Some`
    /// exactly when the kernel was built with `retain = true`.
    outcomes: Option<Vec<JobOutcome>>,
    dropped: Vec<DroppedJob>,
    scratch: EstScratch,
    timeline: Timeline,
    open: usize,
    pending: Option<JobSpec>,
    wall_run: Option<std::time::Instant>,
    finished: bool,
}

/// What one [`ResidentKernel::step`] decided to do: apply a timeline
/// edge, run the monitor tick, or admit the job the cursor has
/// buffered.
enum ControlAction {
    Edge(EventKind),
    Tick,
    Arrive(JobSpec),
}

impl<'a, 'r> ResidentKernel<'a, 'r> {
    /// Validates the scenario against `sim`'s cluster, lays churn and
    /// the compiled chaos schedule onto the control timeline, builds
    /// every per-run table — everything the old batch loop did before
    /// its first event. Executes nothing: drive with
    /// [`ResidentKernel::step`] or [`ResidentKernel::run`].
    pub(crate) fn new(
        sim: &'r FleetSim<'a>,
        cursor: &'r mut dyn ArrivalCursor,
        dispatcher: &'r mut dyn Dispatcher,
        cache: &'r mut PolicyCache,
        scenario: &'r Scenario,
        telemetry: &'r mut FlightRecorder,
        retain: bool,
    ) -> Self {
        let n_boards = sim.cluster.len();
        assert!(
            !scenario.preemption
                || (scenario.dispatch == DispatchMode::Online && scenario.monitor_interval_s > 0.0),
            "preemption requires online dispatch and a positive monitor interval"
        );
        for ev in &scenario.churn {
            assert!(
                ev.board < n_boards,
                "churn event names board {} of {n_boards}",
                ev.board
            );
            assert!(ev.time_s >= 0.0, "churn events cannot predate the run");
        }

        // Compile the chaos schedule (validating clause shapes) and
        // lay churn, then chaos, onto one timeline; the stable sort
        // keeps that push order at equal timestamps.
        let chaos = scenario.chaos.compile(n_boards);
        let chaos_stats = chaos.stats.clone();
        let churn = scenario.churn.iter().map(|ev| {
            let b = ev.board as u32;
            let kind = if ev.up {
                EventKind::BoardUp(b)
            } else {
                EventKind::BoardDown(b)
            };
            (ev.time_s, kind)
        });
        let mut edges: Vec<(f64, u64, EventKind)> = churn
            .chain(chaos.events.iter().copied())
            .enumerate()
            .map(|(i, (t, kind))| (t, i as u64, kind))
            .collect();
        edges.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Reject inconsistent liveness sequences outright: replaying
        // the merged churn + rack-outage edges in timeline order, a
        // BoardUp for a board that is already up, or a BoardDown for
        // one already down, is a schedule bug, not a scenario. It used
        // to be silently absorbed (`up = true` is idempotent), which
        // let e.g. a mistyped board index skew every later decision
        // without a trace.
        let mut up = vec![true; n_boards];
        for &(t, _, kind) in &edges {
            let (b, to_up) = match kind {
                EventKind::BoardDown(b) => (b as usize, false),
                EventKind::BoardUp(b) => (b as usize, true),
                _ => continue,
            };
            if to_up {
                assert!(
                    !up[b],
                    "inconsistent churn/chaos schedule: board {b} is brought up at {t} s \
                     without a preceding BoardDown"
                );
            } else {
                assert!(
                    up[b],
                    "inconsistent churn/chaos schedule: board {b} is taken down at {t} s \
                     while already down"
                );
            }
            up[b] = to_up;
        }

        let state = ClusterState::new(sim.cluster, scenario.dispatch);
        let mut feedback = scenario.feedback.then(ServiceFeedback::default);
        // The admission tables: workloads interned, replay calibrations
        // recorded (earlier runs of this simulator are cache hits) and
        // resolved, stock binaries ready; the execution plane only ever
        // reads them.
        let table = AdmissionTable::new(
            sim,
            cursor.workloads(),
            &state,
            &mut *cache,
            feedback.as_mut(),
        );
        let outcomes = retain.then(|| Vec::with_capacity(cursor.total()));
        // Per-arrival scratch, refilled in place (no per-event allocs).
        let scratch = EstScratch::new(state.n_arch());

        // Arrivals are consumed from the (sorted) stream through a
        // cursor and merged against the timeline in `next_control`.
        let timeline = Timeline {
            edges,
            pos: 0,
            tick_s: (scenario.monitor_interval_s > 0.0).then_some(scenario.monitor_interval_s),
        };
        // Jobs not yet completed or dropped. The cursor knows its
        // stream length up front even though specs materialise lazily.
        let open = cursor.total();

        // Wall-clock phase profiling (machine time, recorder-gated —
        // the off path never reads the OS clock).
        let wall_run = telemetry.stopwatch();

        ResidentKernel {
            sim,
            cursor,
            dispatcher,
            cache,
            scenario,
            telemetry,
            chaos,
            chaos_stats,
            table,
            state,
            completions: Completions::new(),
            stats: KernelStats::default(),
            feedback,
            train_time_s: 0.0,
            train_energy_j: 0.0,
            guard_bypasses: 0,
            stream: StreamAgg::default(),
            outcomes,
            dropped: Vec::new(),
            scratch,
            timeline,
            open,
            pending: None,
            wall_run,
            finished: false,
        }
    }

    /// Advances the kernel by exactly one control event — an arrival,
    /// a churn/chaos edge or a monitor tick, each preceded by the
    /// completions before it — or, when no control remains, by the
    /// final drain of the completion queue. Returns `false` once the
    /// run is complete (after which [`ResidentKernel::finish`]
    /// assembles the outcome).
    pub fn step(&mut self) -> bool {
        if self.finished {
            return false;
        }
        let ctl = self.next_control();

        // Every completion strictly before this control event is folded
        // in, in (finish_s, id) order, before the decision reads any
        // state. With no control left, the whole completion chain
        // drains.
        let to_s = ctl.as_ref().map_or(f64::INFINITY, |(t, _)| *t);
        let from_s = self.state.now_s;
        self.stats.advances += 1;
        let wall = self.telemetry.stopwatch();
        shard::advance(
            &mut self.state,
            &mut self.completions,
            to_s,
            &self.table,
            |state, b, fin| {
                // The advance moved board `b` outside the control
                // plane's view: repair its index entry before any
                // decision reads it.
                state.refresh_dispatch_index(b);
                self.stats.events += 1;
                self.stats.completions += 1;
                self.open -= 1;
                self.stream.add(&fin.outcome);
                self.telemetry.on_complete(&fin.outcome);
                if let Some(fb) = self.feedback.as_mut() {
                    let line = self.table.fb_line(fin.taxon, state.arch_class(b));
                    fb.observe_at(line, fin.profiled_s, fin.raw_service_s);
                }
                if let Some(kept) = self.outcomes.as_mut() {
                    kept.push(fin.outcome);
                }
            },
        );
        self.telemetry.lap_advance(wall);
        let wall = self.telemetry.stopwatch();
        self.telemetry.on_window_close(from_s, to_s);
        self.telemetry.lap_merge(wall);
        let Some((time_s, act)) = ctl else {
            self.finished = true;
            return false;
        };
        debug_assert!(
            time_s >= self.state.now_s - 1e-9,
            "virtual clock ran backwards: {} -> {}",
            self.state.now_s,
            time_s
        );
        // A control event never predates the clock, so from here
        // `state.now_s` is the event's timestamp; the handlers read it
        // there.
        self.state.advance_now(time_s);
        self.stats.events += 1;
        match act {
            ControlAction::Arrive(job) => self.on_arrival(job),
            ControlAction::Tick => self.on_tick(),
            ControlAction::Edge(EventKind::BoardDown(b)) => self.on_board_down(b as usize),
            ControlAction::Edge(EventKind::BoardUp(b)) => self.on_board_up(b as usize),
            ControlAction::Edge(edge) => self.on_chaos_edge(edge),
        }
        true
    }

    /// The next control event: a three-way merge of the timeline's
    /// next edge, its pending tick and the arrival cursor, ties
    /// resolved churn < chaos < arrival < tick (see [`Timeline::pop`]).
    /// The cursor is consuming, so the peeked job waits in a one-slot
    /// buffer until this decides to admit it.
    fn next_control(&mut self) -> Option<(f64, ControlAction)> {
        if self.pending.is_none() {
            self.pending = self.cursor.next_job();
        }
        let ctl = self
            .timeline
            .pop(self.pending.as_ref().map(|j| j.arrival_s));
        ctl.or_else(|| {
            let job = self.pending.take()?;
            Some((job.arrival_s, ControlAction::Arrive(job)))
        })
    }

    /// Drives [`ResidentKernel::step`] until the run completes.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Has the final drain run (is the kernel ready to
    /// [`ResidentKernel::finish`])?
    pub fn done(&self) -> bool {
        self.finished
    }

    /// Jobs the arrival cursor has yielded so far (including one
    /// possibly buffered, not-yet-admitted peek).
    pub fn position(&self) -> usize {
        self.cursor.position()
    }

    /// Jobs completed so far.
    pub fn completions(&self) -> u64 {
        self.stats.completions
    }

    /// Jobs neither completed nor dropped yet (counts arrivals the
    /// cursor has not yielded yet).
    pub fn open(&self) -> usize {
        self.open
    }

    /// The virtual clock, seconds.
    pub fn now_s(&self) -> f64 {
        self.state.now_s
    }

    /// Consumes the drained kernel: exit invariants, the retained
    /// outcomes put in id order, and [`FleetOutcome`] assembly. Metrics
    /// come from the retained outcomes when retention is on (exact
    /// percentiles, id-order energy sum), from the streaming aggregate
    /// otherwise (exact counters and sums, digest percentiles).
    pub fn finish(mut self) -> FleetOutcome {
        assert!(
            self.finished,
            "finish() called before the kernel drained; step() to completion first"
        );
        self.telemetry.lap_total(self.wall_run);
        assert_eq!(self.open, 0, "kernel exited with open jobs");
        assert_eq!(
            self.stats.arrivals,
            self.stats.completions + self.stats.dropped,
            "event accounting out of balance: {:?}",
            self.stats
        );
        assert_eq!(
            self.stats.dropped,
            self.stats.dropped_no_board + self.stats.dropped_migration_cap,
            "per-reason drop accounting out of balance: {:?}",
            self.stats
        );
        debug_assert!(self
            .state
            .boards
            .iter()
            .all(|s| s.queue_is_empty() && s.in_flight.is_none()));

        self.dropped.sort_by_key(|d| d.id);
        self.chaos_stats.throttled_starts =
            self.state.boards.iter().map(|s| s.throttled_starts).sum();
        let busy_s = self.state.boards.iter().map(|s| s.busy_s);
        let (mut metrics, outcomes) = match self.outcomes {
            Some(mut kept) => {
                order_by_id(&mut kept);
                let m = FleetMetrics::from_outcomes(&kept, busy_s, self.train_energy_j);
                (m, kept)
            }
            None => (self.stream.metrics(busy_s, self.train_energy_j), Vec::new()),
        };
        if let Some(fb) = &self.feedback {
            metrics.feedback = fb.stats;
        }
        FleetOutcome {
            metrics,
            outcomes,
            cache: self.cache.stats,
            guard_bypasses: self.guard_bypasses,
            train_time_s: self.train_time_s,
            train_energy_j: self.train_energy_j,
            backend: self.sim.params.backend.name(),
            calibrations: self
                .sim
                .replay_exec
                .as_ref()
                .map(|r| r.stats().calibrations)
                .unwrap_or(0),
            dispatch: self.scenario.dispatch.name(),
            dropped: self.dropped,
            kernel: self.stats,
            chaos: self.chaos_stats,
            stream: self.stream.summary(),
        }
    }
}

/// Puts `kept` in ascending id order, duplicate ids in their slice
/// order: what a stable sort by id gives, without moving the records
/// through one. The `(id, index)` keys sort unstably at 8 B a record,
/// become each record's destination rank, and the ranks are applied in
/// place; every swap puts at least one record in its final slot.
pub(crate) fn order_by_id(kept: &mut [JobOutcome]) {
    assert!(
        u32::try_from(kept.len()).is_ok(),
        "more retained outcomes than a u32 index holds"
    );
    let mut keys: Vec<u64> = kept
        .iter()
        .enumerate()
        .map(|(i, o)| u64::from(o.id) << 32 | i as u64)
        .collect();
    keys.sort_unstable();
    let mut dest = vec![0u32; kept.len()];
    for (rank, key) in keys.iter().enumerate() {
        dest[*key as u32 as usize] = rank as u32;
    }
    for i in 0..kept.len() {
        while dest[i] as usize != i {
            let j = dest[i] as usize;
            kept.swap(i, j);
            dest.swap(i, j);
        }
    }
}

/// Kernel event counters, every field in declaration order. The
/// exhaustive destructuring makes a field added later but not encoded
/// a compile error rather than a silent resume divergence.
fn enc_kernel_stats(enc: &mut Enc, s: &KernelStats) {
    let KernelStats {
        events,
        arrivals,
        completions,
        dropped,
        dropped_no_board,
        dropped_migration_cap,
        migrations,
        redistributions,
        ticks,
        board_downs,
        board_ups,
        chaos_events,
        messages,
        advances,
    } = *s;
    enc.u64(events);
    enc.u64(arrivals);
    enc.u64(completions);
    enc.u64(dropped);
    enc.u64(dropped_no_board);
    enc.u64(dropped_migration_cap);
    enc.u64(migrations);
    enc.u64(redistributions);
    enc.u64(ticks);
    enc.u64(board_downs);
    enc.u64(board_ups);
    enc.u64(chaos_events);
    enc.u64(messages);
    enc.u64(advances);
}

fn dec_kernel_stats(dec: &mut Dec<'_>) -> Result<KernelStats, CheckpointError> {
    let stats = KernelStats {
        events: dec.u64()?,
        arrivals: dec.u64()?,
        completions: dec.u64()?,
        dropped: dec.u64()?,
        dropped_no_board: dec.u64()?,
        dropped_migration_cap: dec.u64()?,
        migrations: dec.u64()?,
        redistributions: dec.u64()?,
        ticks: dec.u64()?,
        board_downs: dec.u64()?,
        board_ups: dec.u64()?,
        chaos_events: dec.u64()?,
        messages: dec.u64()?,
        advances: dec.u64()?,
    };
    if stats.dropped != stats.dropped_no_board + stats.dropped_migration_cap {
        return Err(CheckpointError::Corrupt(
            "per-reason drop counters do not sum to the drop total",
        ));
    }
    Ok(stats)
}

/// Chaos accounting counters. Clause labels are *not* serialised — the
/// resuming kernel recompiles the same schedule and keeps its own
/// labels — so a checkpoint cannot inject arbitrary strings into
/// reports. Destructured exhaustively, like [`enc_kernel_stats`].
fn enc_chaos_stats(enc: &mut Enc, s: &ChaosStats) {
    let ChaosStats {
        clauses,
        throttled_starts,
        max_slowdown,
        misprofiled,
        blackout_drops,
    } = s;
    enc.usize(clauses.len());
    for ClauseStats {
        label: _,
        events,
        affected_jobs,
    } in clauses
    {
        enc.u64(*events);
        enc.u64(*affected_jobs);
    }
    enc.u64(*throttled_starts);
    enc.f64(*max_slowdown);
    enc.u64(*misprofiled);
    enc.u64(*blackout_drops);
}

/// `fresh` is the compiled schedule's zeroed accounting (labels filled
/// in): the clause count must match it exactly.
fn dec_chaos_stats(dec: &mut Dec<'_>, fresh: &ChaosStats) -> Result<ChaosStats, CheckpointError> {
    let n = dec.count(16)?;
    if n != fresh.clauses.len() {
        return Err(CheckpointError::Corrupt(
            "chaos clause count does not match the scenario",
        ));
    }
    let mut clauses = Vec::with_capacity(n);
    for c in &fresh.clauses {
        clauses.push(ClauseStats {
            label: c.label.clone(),
            events: dec.u64()?,
            affected_jobs: dec.u64()?,
        });
    }
    let throttled_starts = dec.u64()?;
    let max_slowdown = dec.f64()?;
    if !max_slowdown.is_finite() || max_slowdown < 0.0 {
        return Err(CheckpointError::Corrupt(
            "chaos max_slowdown is not finite and non-negative",
        ));
    }
    Ok(ChaosStats {
        clauses,
        throttled_starts,
        max_slowdown,
        misprofiled: dec.u64()?,
        blackout_drops: dec.u64()?,
    })
}

impl<'a, 'r> ResidentKernel<'a, 'r> {
    /// Fingerprint of everything a checkpoint's bytes implicitly assume
    /// about the kernel resuming them: fleet size, stream length,
    /// scenario label and retention mode.
    fn config_fp(&self) -> u64 {
        let mut enc = Enc::new();
        enc.usize(self.state.len());
        enc.usize(self.cursor.total());
        enc.str(&self.scenario.label());
        enc.bool(self.outcomes.is_some());
        checkpoint::fnv1a(&enc.finish())
    }

    /// Serialises the complete mid-run state to a versioned,
    /// checksummed byte buffer: cursor position, virtual clock, pending
    /// control events, per-board queues and in-flight jobs, every counter, the
    /// policy cache, feedback EWMAs, chaos accounting, the streaming
    /// aggregate and any retained outcomes. A kernel built over the same
    /// configuration that [`ResidentKernel::restore`]s these bytes
    /// continues bit-identically to the uninterrupted run, execution
    /// counters included.
    ///
    /// What is *not* serialised is everything rebuildable: the
    /// admission tables (profiles, calibrations and binaries; on
    /// restore, the policy version every queued job will start under is
    /// resolved again), the completion queue (one event per busy board,
    /// rebuilt from the in-flight jobs), the dispatch index, and
    /// telemetry (the flight recorder's non-perturbation contract means
    /// it never affects results).
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        checkpoint::header(&mut enc, self.config_fp());
        self.cursor.save().encode(&mut enc);
        match &self.pending {
            None => enc.bool(false),
            Some(j) => {
                enc.bool(true);
                checkpoint::enc_job_spec(&mut enc, j);
            }
        }
        enc.f64(self.state.now_s);
        self.timeline.encode(&mut enc, self.stats.ticks);
        enc_kernel_stats(&mut enc, &self.stats);
        for b in &self.state.boards {
            b.encode(&mut enc);
        }
        enc_chaos_stats(&mut enc, &self.chaos_stats);
        match &self.feedback {
            None => enc.bool(false),
            Some(fb) => {
                enc.bool(true);
                fb.encode(&mut enc);
            }
        }
        self.cache.encode(&mut enc);
        enc.f64(self.train_time_s);
        enc.f64(self.train_energy_j);
        enc.u64(self.guard_bypasses);
        enc.usize(self.open);
        if let Some(kept) = &self.outcomes {
            enc.usize(kept.len());
            for o in kept {
                checkpoint::enc_outcome(&mut enc, o);
            }
        }
        // The dropped list is small (drops are exceptional) and
        // reported in both modes, so it is serialised unconditionally.
        enc.usize(self.dropped.len());
        for d in &self.dropped {
            checkpoint::enc_dropped(&mut enc, d);
        }
        self.stream.encode(&mut enc);
        checkpoint::seal(enc.finish())
    }

    /// Restores a [`ResidentKernel::checkpoint`] into this kernel,
    /// which must have been built over the same configuration (cluster,
    /// cursor, scenario, retention — fingerprinted in the header). Every
    /// section is decoded and validated into temporaries before
    /// anything is applied, so a corrupted, truncated or mismatched
    /// checkpoint returns a [`CheckpointError`] and leaves the kernel
    /// exactly as it was.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let payload = checkpoint::unseal(bytes)?;
        let mut dec = Dec::new(payload);
        checkpoint::check_header(&mut dec, self.config_fp())?;
        let n_boards = self.state.len();
        let n_clauses = self.chaos.factors.len();

        let cursor_state = CursorState::decode(&mut dec)?;
        let pending = if dec.bool()? {
            Some(checkpoint::dec_job_spec(&mut dec)?)
        } else {
            None
        };
        let now_s = dec.f64()?;
        if !now_s.is_finite() || now_s < 0.0 {
            return Err(CheckpointError::Corrupt(
                "virtual clock is not finite and non-negative",
            ));
        }
        let ticking = self.scenario.monitor_interval_s > 0.0;
        let (pos, tick_s, ticks) = self.timeline.decode(&mut dec, ticking, now_s)?;
        let stats = dec_kernel_stats(&mut dec)?;
        if stats.ticks != ticks {
            return Err(CheckpointError::Corrupt(
                "control counters disagree with the kernel's tick count",
            ));
        }
        let arch_keys = self.sim.cluster.arch_keys();
        // Queued jobs must name workloads this kernel interned (the
        // registry check in decode is necessary, not sufficient: the
        // cursor's pool can be narrower); each gets its slot back.
        let slot_of = |name: &str| self.table.slot(name);
        let mut boards = Vec::with_capacity(n_boards);
        for _ in 0..n_boards {
            boards.push(BoardState::decode(
                &mut dec, &arch_keys, &slot_of, n_boards, n_clauses,
            )?);
        }
        if let Some(j) = &pending {
            if self.table.slot(j.workload.name).is_none() {
                return Err(CheckpointError::UnknownWorkload(
                    j.workload.name.to_string(),
                ));
            }
        }
        let chaos_stats = dec_chaos_stats(&mut dec, &self.chaos.stats)?;
        let feedback = if dec.bool()? {
            Some(ServiceFeedback::decode(&mut dec, &arch_keys)?)
        } else {
            None
        };
        if feedback.is_some() != self.scenario.feedback {
            return Err(CheckpointError::Corrupt(
                "feedback section does not match the scenario",
            ));
        }
        let cache = PolicyCache::decode(&mut dec, &arch_keys)?;
        let train_time_s = dec.f64()?;
        let train_energy_j = dec.f64()?;
        let guard_bypasses = dec.u64()?;
        let open = dec.usize()?;
        if self.cursor.total() as u64 != stats.completions + stats.dropped + open as u64 {
            return Err(CheckpointError::Corrupt(
                "open-job count inconsistent with completion/drop counters",
            ));
        }
        let outcomes = match self.outcomes {
            Some(_) => {
                let n = dec.count(4)?;
                if n as u64 != stats.completions {
                    return Err(CheckpointError::Corrupt(
                        "retained outcome count disagrees with the completion counter",
                    ));
                }
                // Reserve the whole stream, as `new` does, so the
                // resumed run never regrows the vector.
                let mut kept = Vec::with_capacity(self.cursor.total());
                for _ in 0..n {
                    kept.push(checkpoint::dec_outcome(&mut dec, n_boards)?);
                }
                Some(kept)
            }
            None => None,
        };
        let n = dec.count(5)?;
        let mut dropped = Vec::with_capacity(n);
        for _ in 0..n {
            dropped.push(checkpoint::dec_dropped(&mut dec)?);
        }
        let stream = StreamAgg::decode(&mut dec)?;
        if stream.jobs != stats.completions {
            return Err(CheckpointError::Corrupt(
                "streaming aggregate disagrees with the completion counter",
            ));
        }
        dec.finish()?;

        // The cursor validates before it applies, so it is safe as the
        // first mutation: a rejected position leaves everything
        // untouched.
        self.cursor.load(&cursor_state)?;

        // ---- apply (infallible from here) ---------------------------
        self.pending = pending;
        self.state.now_s = now_s;
        self.state.restore_boards(boards);
        self.timeline.pos = pos;
        self.timeline.tick_s = tick_s;
        self.completions = shard::completion_queue(&self.state.boards);
        self.stats = stats;
        self.chaos_stats = chaos_stats;
        self.feedback = feedback;
        *self.cache = cache;
        self.train_time_s = train_time_s;
        self.train_energy_j = train_energy_j;
        self.guard_bypasses = guard_bypasses;
        self.open = open;
        self.stream = stream;
        self.outcomes = outcomes;
        self.dropped = dropped;
        self.finished = false;

        // The restored cache and feedback layer intern afresh, and the
        // policy versions restored queued jobs will start under are
        // resolved before they reach the execution plane. In-flight
        // jobs carry their precomputed outcome and need nothing.
        self.table.bind(self.cache, self.feedback.as_mut());
        for b in 0..n_boards {
            let class = self.state.arch_class(b);
            for q in self.state.boards[b].queued() {
                if let Some((st, v)) = q.schedule {
                    self.table.version(q.slot, class, v, st);
                }
            }
        }
        Ok(())
    }
}

/// Observable (wall, energy) estimate of `slot` (of `taxon`) on
/// architecture class `class` under the schedule it would run there
/// (fresh cache line or stock binary), *uncorrected* — callers fold the
/// feedback correction in via [`AdmissionTable::corrected`]. The single
/// source of the policy-estimate rule: both admission-time dispatch
/// estimates and preemption-scan predictions go through here, so they
/// can never disagree.
fn estimate_on(
    table: &mut AdmissionTable,
    cache: &PolicyCache,
    policy: PolicyMode,
    taxon: crate::job::Taxon,
    slot: usize,
    class: usize,
) -> (f64, f64, bool) {
    let warm = match policy {
        PolicyMode::Warm => cache.warm_line(table.cache_line(taxon, class)),
        PolicyMode::Cold => None,
    };
    let (wall, energy) = match warm {
        Some(e) => table.warm(slot, class, e.version, e.schedule),
        None => table.cold(slot, class),
    };
    (wall, energy, warm.is_some())
}

/// A resolved schedule and its policy version (`None` = stock binary).
type Resolved = Option<(StaticSchedule, u32)>;

impl ResidentKernel<'_, '_> {
    // ---- control events -----------------------------------------------------

    /// An arrival: the admission decision — estimates, dispatcher
    /// pick, cached schedule (training on a miss), latency guard,
    /// feedback correction — then placement. With no placeable board,
    /// a drop.
    fn on_arrival(&mut self, job: JobSpec) {
        self.stats.arrivals += 1;
        if !self.state.any_placeable() {
            // Whole fleet down — or every up board under a dispatch
            // blackout; `drop_job` tells the two apart.
            self.drop_job(job.id, DropReason::NoBoardUp);
            return;
        }
        let slot = self
            .table
            .slot(job.workload.name)
            .expect("the cursor yields only the workloads it declares");
        let (slo_s, mf, b) = self.admission_pick(&job, slot);
        let (schedule, profiled_s) = self.resolve_with_training(&job, slot, b);
        // The corrupted profiled estimate is what the job is admitted
        // with — and what the feedback layer later compares observed
        // service against, which is exactly how the EWMA learns the
        // 1/mf repair.
        let profiled_s = profiled_s * mf;
        let class = self.state.arch_class(b);
        let svc_est = self
            .table
            .corrected(self.feedback.as_ref(), job.taxon, class, profiled_s);
        let (id, name) = (job.id, job.workload.name);
        self.admit_onto(
            b,
            QueuedJob {
                job,
                slot,
                slo_s,
                schedule,
                sched_arch: self.sim.cluster.arch_key(b),
                est_service_s: svc_est,
                profiled_s,
                penalty_s: 0.0,
                migrations: 0,
                redispatches: 0,
            },
        );
        self.telemetry
            .on_dispatch(self.state.now_s, id, name, b, svc_est);
    }

    /// A monitor tick: the preemption scan (when enabled), a gauge
    /// sample for the recorder, and the next tick while jobs are open.
    fn on_tick(&mut self) {
        self.stats.ticks += 1;
        let now_s = self.state.now_s;
        if self.scenario.preemption {
            let migrated_before = self.stats.migrations;
            self.preempt_scan();
            self.telemetry
                .on_preempt_scan(now_s, self.stats.migrations - migrated_before);
        }
        // Gated on the level so the gauge walk costs nothing when
        // telemetry is off; reads state only, so it cannot perturb the
        // run either way.
        if self.telemetry.wants_ticks() {
            let sample = self.window_sample(now_s);
            self.telemetry.on_tick(sample);
        }
        if self.open > 0 {
            self.timeline.tick_s = Some(now_s + self.scenario.monitor_interval_s);
        }
    }

    /// Board churn down: the board stops accepting work and its
    /// in-flight job drains. Its queued work is redistributed, or
    /// dropped when nowhere is placeable or the redispatch cap is
    /// exhausted.
    fn on_board_down(&mut self, b: usize) {
        self.stats.board_downs += 1;
        self.telemetry.on_churn(self.state.now_s, b, false);
        self.state.set_up(b, false);
        for qj in self.state.boards[b].take_queued() {
            if !self.state.any_placeable() {
                self.drop_job(qj.job.id, DropReason::NoBoardUp);
            } else if qj.redispatches >= self.scenario.max_redispatches {
                self.drop_job(qj.job.id, DropReason::MigrationCap);
            } else {
                self.redispatch(qj);
            }
        }
    }

    /// Board churn up: the board is available again.
    fn on_board_up(&mut self, b: usize) {
        self.stats.board_ups += 1;
        self.telemetry.on_churn(self.state.now_s, b, true);
        self.state.set_up(b, true);
    }

    /// A throttle or blackout window edge: apply it to the board, then
    /// charge it to its clause.
    fn on_chaos_edge(&mut self, edge: EventKind) {
        let (what, board, clause) = match edge {
            EventKind::ThrottleStart { board, clause } => {
                let bs = &mut self.state.boards[board as usize];
                bs.throttles
                    .push((clause, self.chaos.factors[clause as usize]));
                bs.recompute_slowdown();
                // Throttle windows apply whether or not the board is
                // up — a board going down mid-throttle comes back at
                // whatever speed its open windows dictate.
                self.chaos_stats.max_slowdown = self.chaos_stats.max_slowdown.max(bs.slowdown);
                ("throttle start", board, clause)
            }
            EventKind::ThrottleEnd { board, clause } => {
                let bs = &mut self.state.boards[board as usize];
                bs.throttles.retain(|&(c, _)| c != clause);
                bs.recompute_slowdown();
                ("throttle end", board, clause)
            }
            EventKind::BlackoutStart { board, clause } => {
                self.state.add_blackout(board as usize);
                ("blackout start", board, clause)
            }
            EventKind::BlackoutEnd { board, clause } => {
                self.state.remove_blackout(board as usize);
                ("blackout end", board, clause)
            }
            EventKind::BoardDown(_) | EventKind::BoardUp(_) => {
                unreachable!("churn has handlers of its own")
            }
        };
        self.stats.chaos_events += 1;
        let cs = &mut self.chaos_stats.clauses[clause as usize];
        cs.events += 1;
        self.telemetry
            .on_chaos(self.state.now_s, what, &cs.label, board as usize);
    }

    /// The one drop path: count the drop under its reason, close the
    /// job, and charge a no-board drop to the blackout accounting when
    /// some board is up but every up board is blacked out.
    fn drop_job(&mut self, id: u32, reason: DropReason) {
        match reason {
            DropReason::NoBoardUp => {
                self.stats.dropped_no_board += 1;
                if self.state.any_up() {
                    self.chaos_stats.blackout_drops += 1;
                }
            }
            DropReason::MigrationCap => self.stats.dropped_migration_cap += 1,
        }
        self.stats.dropped += 1;
        self.open -= 1;
        self.dropped.push(DroppedJob { id, reason });
        self.telemetry.on_drop(self.state.now_s, id, reason.name());
    }

    /// The fleet's gauges at `t_s`, for the recorder's window series.
    fn window_sample(&self, t_s: f64) -> WindowSample {
        let state = &self.state;
        let nb = state.boards.len();
        let mut mean_util = 0.0;
        let mut queue_depth = 0u64;
        let mut backlog_s = 0.0;
        let mut boards_up = 0u32;
        let mut boards_placeable = 0u32;
        let mut throttled = 0u32;
        let mut blacked_out = 0u32;
        for b in 0..nb {
            mean_util += state.utilisation(b);
            queue_depth += state.queue_depth(b) as u64;
            backlog_s += state.backlog_s(b);
            boards_up += state.up(b) as u32;
            boards_placeable += state.placeable(b) as u32;
            throttled += (!state.boards[b].throttles.is_empty()) as u32;
            blacked_out += (state.boards[b].blackouts > 0) as u32;
        }
        let [p50_s, p95_s, p99_s] = self.stream.latency_quantiles();
        let (fb_err, fb_samples, fb_corr) = match &self.feedback {
            Some(fb) => (
                fb.stats.mean_abs_rel_err(),
                fb.stats.samples,
                fb.mean_correction(),
            ),
            None => (0.0, 0, 1.0),
        };
        WindowSample {
            t_s,
            completions: self.stream.jobs,
            p50_s,
            p95_s,
            p99_s,
            slo_miss_rate: self.stream.slo_miss_rate(),
            mean_util: mean_util / nb as f64,
            queue_depth,
            backlog_s,
            boards_up,
            boards_placeable,
            throttled,
            blacked_out,
            feedback_mean_abs_rel_err: fb_err,
            feedback_samples: fb_samples,
            feedback_mean_correction: fb_corr,
        }
    }

    // ---- admission ----------------------------------------------------------

    /// The admission prelude arrivals and churn redistribution share:
    /// estimates, misprofile corruption, dispatcher pick. Returns the
    /// resolved SLO, the misprofile factor and the picked board.
    fn admission_pick(&mut self, job: &JobSpec, slot: usize) -> (f64, f64, usize) {
        let slo_s = self.estimates_into(job, slot);
        // Mis-profiled taxa: corrupt what the dispatcher and admission
        // see (never the SLO — deadlines are contracts, not estimates).
        let mf = self.chaos.misprofile_factor(
            job.class(),
            self.state.now_s,
            Some(&mut self.chaos_stats),
        );
        if mf != 1.0 {
            for s in &mut self.scratch.est.service_s {
                *s *= mf;
            }
        }
        let b = self.dispatcher.pick(&self.state, job, &self.scratch.est);
        let n_boards = self.state.len();
        assert!(b < n_boards, "dispatcher picked board {b} of {n_boards}");
        assert!(
            self.state.placeable(b),
            "dispatcher picked down or blacked-out board {b}"
        );
        (slo_s, mf, b)
    }

    /// Refill the estimate scratch with `job`'s estimates, one slot per
    /// architecture class (and the uncorrected profiled walls); returns
    /// the resolved SLO. Every read is a table index, so an admission
    /// costs O(architectures) however many boards the cluster has.
    /// Read-only on the cache (peeks, no accounting).
    fn estimates_into(&mut self, job: &JobSpec, slot: usize) -> f64 {
        let slo_s = job.slo_tightness * self.table.best_cold(slot);
        let scratch = &mut self.scratch;
        debug_assert_eq!(scratch.base_s.len(), self.state.n_arch());
        for a in 0..self.state.n_arch() {
            let (wall, energy, warm) = estimate_on(
                &mut self.table,
                self.cache,
                self.scenario.policy,
                job.taxon,
                slot,
                a,
            );
            scratch.base_s[a] = wall;
            scratch.est.service_s[a] =
                self.table
                    .corrected(self.feedback.as_ref(), job.taxon, a, wall);
            scratch.est.energy_j[a] = energy;
            scratch.est.warm[a] = warm;
        }
        slo_s
    }

    /// Arrival-path policy resolution on board `b`: full cache lookup
    /// (training on miss, warm refresh on staleness — asynchronous, off
    /// the serving path, so the triggering job runs its stock binary),
    /// then the admission latency guard. Returns the schedule to run
    /// and the guarded *uncorrected* profiled service estimate (the
    /// caller applies the feedback correction).
    fn resolve_with_training(&mut self, job: &JobSpec, slot: usize, b: usize) -> (Resolved, f64) {
        let class = self.state.arch_class(b);
        let sim = self.sim;
        let schedule = match self.scenario.policy {
            PolicyMode::Cold => None,
            PolicyMode::Warm => {
                let line = self.table.cache_line(job.taxon, class);
                match self.cache.lookup_line(line) {
                    CacheDecision::Hit(s, v) => Some((s, v)),
                    CacheDecision::Stale(snap) => {
                        let (trained, t, e) =
                            sim.train(job, b, Some(&snap), sim.params.refresh_episodes);
                        self.train_time_s += t;
                        self.train_energy_j += e;
                        let snapshot = trained.hooks.agent.snapshot();
                        self.cache
                            .refresh_line(line, trained.static_schedule, snapshot);
                        None
                    }
                    CacheDecision::Miss => {
                        let (trained, t, e) = sim.train(job, b, None, sim.params.train.episodes);
                        self.train_time_s += t;
                        self.train_energy_j += e;
                        let snapshot = trained.hooks.agent.snapshot();
                        self.cache
                            .insert_line(line, trained.static_schedule, snapshot);
                        None
                    }
                }
            }
        };
        let cold_est = self.scratch.base_s[class];
        self.apply_guard(slot, class, schedule, cold_est)
    }

    /// Admission latency guard: when the schedule's profiled service on
    /// `class` regresses past the guard factor, the job runs its stock
    /// binary instead. The bypass counter ticks per admission.
    fn apply_guard(
        &mut self,
        slot: usize,
        class: usize,
        schedule: Resolved,
        cold_est: f64,
    ) -> (Resolved, f64) {
        let Some((st, v)) = schedule else {
            return (None, cold_est);
        };
        let (kept, wall) = self.table.guard(slot, class, v, st);
        if !kept {
            self.guard_bypasses += 1;
        }
        (kept.then_some((st, v)), wall)
    }

    /// Books an admission (an arrival or a churn redistribution) on the
    /// oracle accumulator — batch stage-1 semantics: the oracle books
    /// what it plans and re-plans, it just never observes reality —
    /// then places it.
    fn admit_onto(&mut self, b: usize, qj: QueuedJob) {
        let acc = &mut self.state.boards[b].oracle_busy_until_s;
        *acc = acc.max(self.state.now_s) + qj.est_total_s();
        self.place(b, qj);
    }

    /// The placement tail every delivery shares: count the dispatch and
    /// the message, hand the job to the execution plane, and repair the
    /// board's index entry.
    fn place(&mut self, b: usize, qj: QueuedJob) {
        self.state.boards[b].dispatched += 1;
        self.stats.messages += 1;
        shard::deliver(&mut self.state, &mut self.completions, b, qj, &self.table);
        self.state.refresh_dispatch_index(b);
    }

    // ---- migration ----------------------------------------------------------

    /// Re-resolve a migrating job's schedule for the target board
    /// without training (there is no time to train on the migration
    /// path): a fresh cache line for the target architecture applies
    /// (guard permitting), anything else runs the stock binary.
    /// `misprofile` is the chaos estimate-corruption factor active at
    /// migration time (1.0 when none): it scales the profiled estimate
    /// the same way it scaled the arrival-time estimate, so feedback
    /// sees a consistently corrupted signal it can learn to repair.
    fn migrate_onto(&mut self, mut qj: QueuedJob, target: usize, misprofile: f64) -> QueuedJob {
        let class = self.state.arch_class(target);
        let arch = self.sim.cluster.arch_key(target);
        let schedule = match self.scenario.policy {
            PolicyMode::Warm if qj.sched_arch == arch => qj.schedule,
            PolicyMode::Warm => self
                .cache
                .warm_line(self.table.cache_line(qj.job.taxon, class))
                .map(|e| (e.schedule, e.version)),
            PolicyMode::Cold => None,
        };
        let (cold_wall, _) = self.table.cold(qj.slot, class);
        let (schedule, profiled_s) = self.apply_guard(qj.slot, class, schedule, cold_wall);
        qj.schedule = schedule;
        qj.sched_arch = arch;
        let profiled_s = profiled_s * misprofile;
        qj.profiled_s = profiled_s;
        qj.est_service_s =
            self.table
                .corrected(self.feedback.as_ref(), qj.job.taxon, class, profiled_s);
        qj.penalty_s += self.scenario.migration_cost_s;
        qj.migrations += 1;
        qj
    }

    /// Churn redistribution: a fresh admission of an orphaned queued
    /// job over the boards still placeable, paying the migration cost.
    fn redispatch(&mut self, qj: QueuedJob) {
        self.stats.redistributions += 1;
        let (_, mf, b) = self.admission_pick(&qj.job, qj.slot);
        let mut qj = self.migrate_onto(qj, b, mf);
        // Churn redistributions are capped by their own counter —
        // preemptive migrations (max_migrations) do not consume it.
        qj.redispatches += 1;
        self.admit_onto(b, qj);
    }

    /// Preemptive redispatch scan: walk every live board's queue in
    /// order, predict each queued job's finish from observable state,
    /// and migrate predicted SLO-missers to a board predicted to *meet*
    /// the deadline (never a sideways bounce — a migration must turn a
    /// predicted miss into a predicted hit).
    fn preempt_scan(&mut self) {
        let now_s = self.state.now_s;
        for b in 0..self.state.len() {
            if !self.state.up(b) || self.state.boards[b].queue_is_empty() {
                continue;
            }
            let mut t_avail = match &self.state.boards[b].in_flight {
                Some(f) => f.est_finish_s.max(now_s),
                None => now_s,
            };
            // One pass over the queue in place: each job leaves the
            // front and is either migrated or re-queued at the back, so
            // the kept jobs end up in their original order and the
            // queue's buffer is reused.
            for _ in 0..self.state.boards[b].queue_len() {
                let qj = self.state.boards[b].pop_next().expect("queued job");
                let pred_finish = t_avail + qj.est_total_s();
                let deadline = qj.job.arrival_s + qj.slo_s;
                // Any active misprofile window corrupts the scan's
                // predictions too (the scan sees the same lie arrivals
                // do); not charged to clause stats — predictions are
                // not admissions.
                let mf = self.chaos.misprofile_factor(qj.job.class(), now_s, None);
                let target =
                    if pred_finish > deadline && qj.migrations < self.scenario.max_migrations {
                        self.best_alternative(&qj, b, mf)
                            .filter(|&(alt_finish, _)| alt_finish <= deadline)
                    } else {
                        None
                    };
                match target {
                    Some((_, b2)) => {
                        let qj = self.migrate_onto(qj, b2, mf);
                        self.place(b2, qj);
                        self.stats.migrations += 1;
                    }
                    None => {
                        t_avail = pred_finish;
                        self.state.boards[b].enqueue(qj);
                    }
                }
            }
            self.state.refresh_dispatch_index(b);
        }
    }

    /// The lowest predicted finish for `qj` among the placeable boards
    /// other than `from`, by observable estimates (corrupted by the
    /// active misprofile factor `mf`), with the board that offers it.
    fn best_alternative(&mut self, qj: &QueuedJob, from: usize, mf: f64) -> Option<(f64, usize)> {
        let now_s = self.state.now_s;
        let mut best: Option<(f64, usize)> = None;
        for b2 in self.state.placeable_boards().filter(|&b2| b2 != from) {
            let class = self.state.arch_class(b2);
            let (wall, _, _) = estimate_on(
                &mut self.table,
                self.cache,
                self.scenario.policy,
                qj.job.taxon,
                qj.slot,
                class,
            );
            let wall = self
                .table
                .corrected(self.feedback.as_ref(), qj.job.taxon, class, wall * mf);
            // The job keeps its already-accumulated penalty on the
            // target board, so the prediction must carry it — or a
            // re-migration could be approved that is itself predicted
            // to miss.
            let alt = self.state.online_busy_until_s(b2).max(now_s)
                + qj.penalty_s
                + self.scenario.migration_cost_s
                + wall;
            if best.map(|(t, _)| alt < t).unwrap_or(true) {
                best = Some((alt, b2));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builders_compose() {
        let s = Scenario::online(PolicyMode::Warm)
            .with_churn(vec![ChurnEvent {
                time_s: 1.0,
                board: 0,
                up: false,
            }])
            .with_preemption(0.5, 0.01, 3);
        assert_eq!(s.dispatch, DispatchMode::Online);
        assert!(s.preemption);
        assert_eq!(s.max_migrations, 3);
        assert_eq!(s.max_redispatches, u32::MAX);
        assert!(!s.feedback);
        assert_eq!(s.churn.len(), 1);
        assert_eq!(s.label(), "warm/online");
        let o = Scenario::oracle(PolicyMode::Cold);
        assert_eq!(o.dispatch, DispatchMode::Oracle);
        assert!(!o.preemption);
        assert_eq!(o.label(), "cold/oracle");
        let f = Scenario::online(PolicyMode::Warm)
            .with_feedback()
            .with_redispatch_cap(3);
        assert!(f.feedback);
        assert_eq!(f.max_redispatches, 3);
        assert_eq!(f.label(), "warm/online+fb");
    }

    use crate::arrival::{ArrivalProcess, GenCursor};
    use crate::cluster::ClusterSpec;
    use crate::dispatch::PhaseAware;
    use crate::sim::{FleetParams, FleetSim};
    use crate::telemetry::FlightRecorder;
    use astro_exec::executor::BackendKind;
    use astro_workloads::InputSize;

    fn ckpt_pool() -> Vec<astro_workloads::Workload> {
        ["swaptions", "bfs"]
            .iter()
            .map(|n| astro_workloads::by_name(n).unwrap())
            .collect()
    }

    fn ckpt_scenario() -> Scenario {
        Scenario::online(PolicyMode::Warm)
            .with_feedback()
            .with_churn(vec![
                ChurnEvent {
                    time_s: 0.002,
                    board: 1,
                    up: false,
                },
                ChurnEvent {
                    time_s: 0.004,
                    board: 1,
                    up: true,
                },
            ])
            .with_chaos(
                ChaosSchedule::new()
                    .throttle(2, 2.0, 0.001, 0.006)
                    .blackout(vec![3], 0.002, 0.005),
            )
    }

    fn ckpt_cursor() -> GenCursor {
        GenCursor::new(
            ArrivalProcess::Poisson {
                rate_jobs_per_s: 9_000.0,
            },
            60,
            &ckpt_pool(),
            InputSize::Test,
            (4.0, 8.0),
            7,
            &[],
        )
    }

    fn ckpt_params() -> FleetParams {
        let mut p = FleetParams::new(7);
        p.backend = BackendKind::Replay;
        p
    }

    /// Everything the determinism contract pins across a
    /// checkpoint/restore cycle, execution-plane counters included.
    fn ckpt_fingerprint(out: &FleetOutcome) -> String {
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{}",
            out.metrics,
            out.kernel,
            out.chaos,
            out.stream,
            out.cache,
            out.dropped,
            out.guard_bypasses,
            out.train_time_s.to_bits(),
            out.train_energy_j.to_bits(),
        )
    }

    #[test]
    fn checkpoint_roundtrip_resumes_bit_identically() {
        let cluster = ClusterSpec::heterogeneous(6);
        let scenario = ckpt_scenario();

        // Uninterrupted streaming reference.
        let reference = {
            let sim = FleetSim::new(&cluster, ckpt_params());
            let mut cursor = ckpt_cursor();
            let mut dispatcher = PhaseAware::default();
            let mut cache = PolicyCache::new(8);
            let mut telemetry = FlightRecorder::off();
            let mut k = sim.resident(
                &mut cursor,
                &mut dispatcher,
                &mut cache,
                &scenario,
                &mut telemetry,
                false,
            );
            k.run();
            k.finish()
        };

        // Interrupted run: step partway, checkpoint, keep going —
        // taking the checkpoint must not perturb the run.
        let (bytes, undisturbed) = {
            let sim = FleetSim::new(&cluster, ckpt_params());
            let mut cursor = ckpt_cursor();
            let mut dispatcher = PhaseAware::default();
            let mut cache = PolicyCache::new(8);
            let mut telemetry = FlightRecorder::off();
            let mut k = sim.resident(
                &mut cursor,
                &mut dispatcher,
                &mut cache,
                &scenario,
                &mut telemetry,
                false,
            );
            for _ in 0..40 {
                assert!(k.step(), "fixture must checkpoint mid-run");
            }
            let bytes = k.checkpoint();
            k.run();
            (bytes, k.finish())
        };
        assert_eq!(ckpt_fingerprint(&reference), ckpt_fingerprint(&undisturbed));

        // Restore into a fresh kernel (same config) and drain.
        let resumed = {
            let sim = FleetSim::new(&cluster, ckpt_params());
            let mut cursor = ckpt_cursor();
            let mut dispatcher = PhaseAware::default();
            let mut cache = PolicyCache::new(8);
            let mut telemetry = FlightRecorder::off();
            let mut k = sim.resident(
                &mut cursor,
                &mut dispatcher,
                &mut cache,
                &scenario,
                &mut telemetry,
                false,
            );
            k.restore(&bytes).expect("restore succeeds");
            k.run();
            k.finish()
        };
        assert_eq!(ckpt_fingerprint(&reference), ckpt_fingerprint(&resumed));
    }

    /// A restored retained run reserves the whole stream, as a fresh
    /// one does, so the rest of the run never regrows the vector.
    #[test]
    fn restore_reserves_the_whole_stream_for_retained_outcomes() {
        let cluster = ClusterSpec::heterogeneous(6);
        let scenario = ckpt_scenario();
        let sim = FleetSim::new(&cluster, ckpt_params());
        let mut cursor = ckpt_cursor();
        let mut dispatcher = PhaseAware::default();
        let mut cache = PolicyCache::new(8);
        let mut telemetry = FlightRecorder::off();
        let mut k = sim.resident(
            &mut cursor,
            &mut dispatcher,
            &mut cache,
            &scenario,
            &mut telemetry,
            true,
        );
        for _ in 0..40 {
            assert!(k.step(), "fixture must checkpoint mid-run");
        }
        let bytes = k.checkpoint();
        let kept = k.outcomes.as_ref().map_or(0, Vec::len);
        assert!(0 < kept && kept < k.cursor.total(), "fixture is mid-stream");
        k.restore(&bytes).expect("restore succeeds");
        let reserved = k.outcomes.as_ref().map_or(0, Vec::capacity);
        assert!(
            reserved >= k.cursor.total(),
            "restore reserved {reserved} outcomes of a {}-job stream",
            k.cursor.total()
        );
        k.run();
        assert_eq!(k.finish().outcomes.len(), 60);
    }

    #[test]
    fn checkpoint_rejects_malformed_bytes() {
        let cluster = ClusterSpec::heterogeneous(6);
        let scenario = ckpt_scenario();
        let sim = FleetSim::new(&cluster, ckpt_params());
        let mut cursor = ckpt_cursor();
        let mut dispatcher = PhaseAware::default();
        let mut cache = PolicyCache::new(8);
        let mut telemetry = FlightRecorder::off();
        let mut k = sim.resident(
            &mut cursor,
            &mut dispatcher,
            &mut cache,
            &scenario,
            &mut telemetry,
            false,
        );
        for _ in 0..40 {
            assert!(k.step());
        }
        let bytes = k.checkpoint();

        // Any single byte flip anywhere is caught by the checksum.
        for at in [0, 4, 12, bytes.len() / 2, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            assert!(
                k.restore(&bad).is_err(),
                "byte flip at {at} must be rejected"
            );
        }
        // Truncation at any point is rejected.
        for cut in [0, 7, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                k.restore(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes must be rejected"
            );
        }
        // Bad magic and bad version (re-sealed so the checksum passes)
        // fail with their specific errors.
        let payload = &bytes[..bytes.len() - 8];
        let mut magic = payload.to_vec();
        magic[0] = b'X';
        assert_eq!(
            k.restore(&checkpoint::seal(magic)),
            Err(CheckpointError::BadMagic)
        );
        let mut version = payload.to_vec();
        version[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            k.restore(&checkpoint::seal(version)),
            Err(CheckpointError::BadVersion { found: 99, .. })
        ));
        // A checkpoint from a different configuration is refused.
        let other = {
            let sim2 = FleetSim::new(&cluster, ckpt_params());
            let mut c2 = ckpt_cursor();
            let mut d2 = PhaseAware::default();
            let mut cache2 = PolicyCache::new(8);
            let mut t2 = FlightRecorder::off();
            let s2 = Scenario::online(PolicyMode::Warm); // no feedback: different label
            let mut k2 = sim2.resident(&mut c2, &mut d2, &mut cache2, &s2, &mut t2, false);
            k2.step();
            k2.checkpoint()
        };
        assert!(matches!(
            k.restore(&other),
            Err(CheckpointError::ConfigMismatch { .. })
        ));

        // Every rejection above left the kernel untouched: the good
        // bytes still restore and the run still drains cleanly.
        k.restore(&bytes)
            .expect("good bytes restore after rejections");
        k.run();
        let out = k.finish();
        assert_eq!(
            out.kernel.arrivals,
            out.kernel.completions + out.kernel.dropped
        );
    }

    /// Restored queued jobs get their workload slot back from the
    /// resuming kernel's tables: an image naming a workload this
    /// kernel's cursor never declared is refused, and the refusal
    /// leaves the kernel untouched.
    #[test]
    fn restore_rejects_a_workload_the_kernel_did_not_intern() {
        let cluster = ClusterSpec::heterogeneous(6);
        let scenario = ckpt_scenario();
        let image = {
            let sim = FleetSim::new(&cluster, ckpt_params());
            let mut cursor = ckpt_cursor();
            let mut dispatcher = PhaseAware::default();
            let mut cache = PolicyCache::new(8);
            let mut telemetry = FlightRecorder::off();
            let mut k = sim.resident(
                &mut cursor,
                &mut dispatcher,
                &mut cache,
                &scenario,
                &mut telemetry,
                false,
            );
            for _ in 0..40 {
                assert!(k.step());
            }
            assert!(
                k.state
                    .boards
                    .iter()
                    .any(|b| b.queued().any(|q| q.job.workload.name == "bfs")),
                "fixture must queue a job the narrower kernel cannot intern"
            );
            k.checkpoint()
        };
        // Same stream length, scenario and fleet, so the header matches;
        // only the cursor's pool is narrower.
        let sim = FleetSim::new(&cluster, ckpt_params());
        let pool = vec![astro_workloads::by_name("swaptions").unwrap()];
        let mut cursor = GenCursor::new(
            ArrivalProcess::Poisson {
                rate_jobs_per_s: 9_000.0,
            },
            60,
            &pool,
            InputSize::Test,
            (4.0, 8.0),
            7,
            &[],
        );
        let mut dispatcher = PhaseAware::default();
        let mut cache = PolicyCache::new(8);
        let mut telemetry = FlightRecorder::off();
        let mut k = sim.resident(
            &mut cursor,
            &mut dispatcher,
            &mut cache,
            &scenario,
            &mut telemetry,
            false,
        );
        let before = k.checkpoint();
        assert_eq!(
            k.restore(&image),
            Err(CheckpointError::UnknownWorkload("bfs".to_string()))
        );
        assert_eq!(k.checkpoint(), before, "a refused image must not apply");
    }

    /// An image whose streaming aggregate (or retained outcome list)
    /// disagrees with the completion counter is refused, sealed
    /// checksum or not, and the refusal leaves the kernel untouched.
    #[test]
    fn restore_rejects_a_self_inconsistent_aggregate() {
        let cluster = ClusterSpec::heterogeneous(6);
        let scenario = ckpt_scenario();
        for retain in [false, true] {
            let sim = FleetSim::new(&cluster, ckpt_params());
            let mut cursor = ckpt_cursor();
            let mut dispatcher = PhaseAware::default();
            let mut cache = PolicyCache::new(8);
            let mut telemetry = FlightRecorder::off();
            let mut k = sim.resident(
                &mut cursor,
                &mut dispatcher,
                &mut cache,
                &scenario,
                &mut telemetry,
                retain,
            );
            for _ in 0..40 {
                assert!(k.step());
            }
            let good = k.checkpoint();
            // Encode images whose counts are off by one (each sealed
            // with a valid checksum by `checkpoint`).
            k.stream.jobs += 1;
            let bad_agg = k.checkpoint();
            k.stream.jobs -= 1;
            assert_eq!(
                k.restore(&bad_agg),
                Err(CheckpointError::Corrupt(
                    "streaming aggregate disagrees with the completion counter"
                ))
            );
            if let Some(kept) = k.outcomes.as_mut() {
                let last = kept.pop().expect("fixture must have completions");
                let bad_kept = k.checkpoint();
                k.outcomes.as_mut().unwrap().push(last);
                assert_eq!(
                    k.restore(&bad_kept),
                    Err(CheckpointError::Corrupt(
                        "retained outcome count disagrees with the completion counter"
                    ))
                );
            }
            assert_eq!(k.checkpoint(), good, "a refused image must not apply");
        }
    }

    /// The pending control events of an image must be the tail of the
    /// resuming kernel's own churn/chaos timeline, and its control
    /// counters the ones that timeline derives. An image taken under a
    /// different schedule (same label and sizes, so the header matches)
    /// or with its `popped` counter bumped is refused, sealed checksum
    /// or not, and the refusal leaves the kernel untouched.
    #[test]
    fn restore_rejects_a_foreign_control_timeline() {
        let cluster = ClusterSpec::heterogeneous(6);
        // Same clauses and label; only the throttle window ends later.
        let foreign = ckpt_scenario().with_chaos(
            ChaosSchedule::new()
                .throttle(2, 2.0, 0.001, 0.0065)
                .blackout(vec![3], 0.002, 0.005),
        );
        let image = {
            let sim = FleetSim::new(&cluster, ckpt_params());
            let mut cursor = ckpt_cursor();
            let mut dispatcher = PhaseAware::default();
            let mut cache = PolicyCache::new(8);
            let mut telemetry = FlightRecorder::off();
            let mut k = sim.resident(
                &mut cursor,
                &mut dispatcher,
                &mut cache,
                &foreign,
                &mut telemetry,
                false,
            );
            for _ in 0..40 {
                assert!(k.step());
            }
            assert!(
                k.timeline.pos < k.timeline.edges.len(),
                "fixture must checkpoint with the throttle end pending"
            );
            k.checkpoint()
        };

        let scenario = ckpt_scenario();
        let sim = FleetSim::new(&cluster, ckpt_params());
        let mut cursor = ckpt_cursor();
        let mut dispatcher = PhaseAware::default();
        let mut cache = PolicyCache::new(8);
        let mut telemetry = FlightRecorder::off();
        let mut k = sim.resident(
            &mut cursor,
            &mut dispatcher,
            &mut cache,
            &scenario,
            &mut telemetry,
            false,
        );
        for _ in 0..40 {
            assert!(k.step());
        }
        let good = k.checkpoint();
        assert_eq!(
            k.restore(&image),
            Err(CheckpointError::Corrupt(
                "pending control edges are not the scenario's churn/chaos schedule"
            ))
        );
        assert_eq!(k.checkpoint(), good, "a refused image must not apply");

        // The control section opens with next_seq, pushed and popped;
        // bump popped and re-seal.
        let tick = k.timeline.tick_s.is_some() as u64;
        let pushed = k.timeline.edges.len() as u64 + k.stats.ticks + tick;
        let popped = k.timeline.pos as u64 + k.stats.ticks;
        let counters: Vec<u8> = [pushed, pushed, popped]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let payload = &good[..good.len() - 8];
        let at = payload
            .windows(counters.len())
            .position(|w| w == counters.as_slice())
            .expect("control counters appear in the image")
            + 16;
        let mut bumped = payload.to_vec();
        bumped[at..at + 8].copy_from_slice(&(popped + 1).to_le_bytes());
        assert_eq!(
            k.restore(&checkpoint::seal(bumped)),
            Err(CheckpointError::Corrupt(
                "control counters inconsistent with the pending events"
            ))
        );
        assert_eq!(k.checkpoint(), good, "a refused image must not apply");

        k.restore(&good).expect("the kernel's own image restores");
        k.run();
        let out = k.finish();
        assert_eq!(
            out.kernel.arrivals,
            out.kernel.completions + out.kernel.dropped
        );
    }
}
