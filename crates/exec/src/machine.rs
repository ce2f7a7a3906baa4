//! The machine: a deterministic discrete-event simulator tying together
//! cores, caches, power, counters, threads, the OS scheduler and the
//! Astro runtime hooks.
//!
//! Execution alternates between *slices* (bounded batches of interpreted
//! work, see [`crate::interp`]) and engine events: blocking library
//! calls, thread spawns/joins, barrier releases, the periodic monitor
//! checkpoint (§3.2.1: every 500 ms), and the scheduler's balance tick.
//! Power is integrated piecewise between events from each core's current
//! activity, reproducing what the paper's on-board sensors measure.

use crate::interp::{run_slice, CoreCosts, SliceOutcome, StopReason};
use crate::program::CompiledProgram;
use crate::result::RunResult;
use crate::runtime::{MonitorSample, RuntimeHooks};
use crate::sched::{OsScheduler, SchedView};
use crate::sync::{BarrierArrival, BarrierTable, LockAttempt, MutexTable};
use crate::thread::{BlockReason, SimThread, ThreadId, ThreadState};
use crate::time::SimTime;
use astro_compiler::ProgramPhase;
use astro_hw::boards::BoardSpec;
use astro_hw::cache::CacheHierarchy;
use astro_hw::config::HwConfig;
use astro_hw::cores::CoreKind;
use astro_hw::counters::{HwPhase, PerfCounters};
use astro_hw::energy::{EnergyMeter, PowerProbe};
use astro_hw::power::CoreActivity;
use astro_ir::{FunctionId, LibCall};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Tunable costs and intervals of the engine.
#[derive(Clone, Copy, Debug)]
pub struct MachineParams {
    /// Monitor period (§3.2.1: "currently, it is 500 milliseconds").
    pub checkpoint_interval: SimTime,
    /// Preemption quantum for round-robin within a core.
    pub timeslice: SimTime,
    /// Interpreter batch size, in core cycles (bounds event granularity).
    pub batch_budget_cycles: f64,
    /// Scheduler balance period.
    pub balance_interval: SimTime,
    /// Service time of file reads/writes.
    pub io_file_latency: SimTime,
    /// Service time of reads from standard input (a human or pipe on the
    /// other side: this is what carves the valleys of Figure 3).
    pub io_stdin_latency: SimTime,
    /// Service time of terminal output.
    pub io_print_latency: SimTime,
    /// Network round-trip.
    pub net_latency: SimTime,
    /// Sleep duration when the call carries no immediate, µs granularity.
    pub sleep_default: SimTime,
    /// Thread creation cost.
    pub spawn_cost: SimTime,
    /// Cost of an uncontended lock/unlock and of barrier bookkeeping.
    pub sync_cost: SimTime,
    /// Cost of a learning-mode or static intrinsic (log phase, set
    /// config): a couple of stores plus a runtime call.
    pub intrinsic_cost: SimTime,
    /// Cost of a hybrid decision (reads performance counters — the extra
    /// runtime overhead §3.3 attributes to hybrid scheduling).
    pub hybrid_decide_cost: SimTime,
    /// Minimum dwell time between configuration changes: requests that
    /// arrive earlier are dropped. Rate-limits the per-function-entry
    /// actuation of static/hybrid binaries, exactly like a hotplug
    /// governor's cooldown (without it, §2's warning applies: "the cost
    /// of changing the hardware configuration might already overshadow
    /// the possible gains").
    pub min_config_dwell: SimTime,
    /// Safety limit: abort runs longer than this (simulated time).
    pub max_sim_time: SimTime,
    /// Cores reserved by "higher privilege jobs" (§3.2.3): a request
    /// needing more than `(little, big)` is rejected. `None` = all
    /// physical cores available.
    pub available: Option<(u8, u8)>,
    /// Attach a power probe at this sampling rate (Figure 3's apparatus).
    pub probe_rate_hz: Option<f64>,
    /// Seed for all behavioural randomness.
    pub seed: u64,
}

impl Default for MachineParams {
    fn default() -> Self {
        MachineParams {
            checkpoint_interval: SimTime::from_millis(500.0),
            timeslice: SimTime::from_millis(4.0),
            batch_budget_cycles: 400_000.0, // ~200 µs on a big core
            balance_interval: SimTime::from_millis(20.0),
            io_file_latency: SimTime::from_micros(180.0),
            io_stdin_latency: SimTime::from_millis(25.0),
            io_print_latency: SimTime::from_micros(60.0),
            net_latency: SimTime::from_millis(1.2),
            sleep_default: SimTime::from_millis(1.0),
            spawn_cost: SimTime::from_micros(40.0),
            sync_cost: SimTime::from_micros(1.5),
            intrinsic_cost: SimTime::from_micros(0.08),
            hybrid_decide_cost: SimTime::from_micros(2.5),
            min_config_dwell: SimTime::from_millis(50.0),
            max_sim_time: SimTime::from_secs(20_000.0),
            available: None,
            probe_rate_hz: None,
            seed: 0xA57_205C0ED,
        }
    }
}

/// A machine ready to run programs.
pub struct Machine<'a> {
    board: &'a BoardSpec,
    params: MachineParams,
}

impl<'a> Machine<'a> {
    /// Create a machine on `board` with `params`.
    pub fn new(board: &'a BoardSpec, params: MachineParams) -> Self {
        Machine { board, params }
    }

    /// Run `program` to completion under `scheduler` + `hooks`, starting
    /// in `initial_config`.
    pub fn run(
        &self,
        program: &CompiledProgram,
        scheduler: &mut dyn OsScheduler,
        hooks: &mut dyn RuntimeHooks,
        initial_config: HwConfig,
    ) -> RunResult {
        self.run_with_rng(program, scheduler, hooks, initial_config, self.params.seed)
    }

    /// Like [`Machine::run`], with the behavioural seed overridden for
    /// this run only. Lets one machine be reused across many jobs (fleet
    /// simulation), each run drawing its own service-time jitter, without
    /// rebuilding parameters.
    pub fn run_seeded(
        &self,
        program: &CompiledProgram,
        scheduler: &mut dyn OsScheduler,
        hooks: &mut dyn RuntimeHooks,
        initial_config: HwConfig,
        seed: u64,
    ) -> RunResult {
        self.run_with_rng(program, scheduler, hooks, initial_config, seed)
    }

    /// The single internal entry point: every run rebuilds the board
    /// state (cores, caches, counters, energy meter) from scratch and
    /// seeds the behavioural RNG from `seed`, so [`Machine::run`] and
    /// [`Machine::run_seeded`] cannot drift apart.
    fn run_with_rng(
        &self,
        program: &CompiledProgram,
        scheduler: &mut dyn OsScheduler,
        hooks: &mut dyn RuntimeHooks,
        initial_config: HwConfig,
        seed: u64,
    ) -> RunResult {
        let mut params = self.params;
        params.seed = seed;
        let mut sim = Sim::new(self.board, &params, program, initial_config);
        sim.run(scheduler, hooks)
    }

    /// The board this machine simulates.
    pub fn board(&self) -> &BoardSpec {
        self.board
    }

    /// The engine parameters.
    pub fn params(&self) -> &MachineParams {
        &self.params
    }
}

// ---------------------------------------------------------------------------
// Internal simulation state
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
enum EventKind {
    SliceEnd { core: usize },
    Wake { thread: ThreadId },
    Resume { thread: ThreadId, core: usize },
    Checkpoint,
    Balance,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Event {
    t: SimTime,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.t, self.seq).cmp(&(other.t, other.seq))
    }
}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct CoreState<'a> {
    enabled: bool,
    running: Option<ThreadId>,
    queue: VecDeque<ThreadId>,
    cache: CacheHierarchy,
    /// Outcome of the in-flight slice, applied at `SliceEnd`.
    pending: Option<SliceOutcome<'a>>,
    pending_duration: SimTime,
    /// When the current occupant was dispatched (timeslice accounting).
    slice_start: SimTime,
    busy_time: SimTime,
}

struct Sim<'a> {
    board: &'a BoardSpec,
    params: &'a MachineParams,
    prog: &'a CompiledProgram,

    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<Event>>,

    threads: Vec<SimThread>,
    blocked_since: Vec<SimTime>,
    cores: Vec<CoreState<'a>>,
    /// Per-chunk cycle tables of the program on each core kind.
    little_costs: CoreCosts<'a>,
    big_costs: CoreCosts<'a>,
    /// The scheduler's view, refreshed in place before each call.
    view: SchedView,
    /// Scratch: per-core activity for power integration.
    acts: Vec<(CoreKind, CoreActivity)>,
    /// Scratch: queued threads offered to the balance tick.
    queued: Vec<(ThreadId, usize, f64)>,
    barriers: BarrierTable,
    mutexes: MutexTable,

    config: HwConfig,
    /// Run-to-run variation of OS/device service times (±5%), seeded —
    /// the source of the sample variance Figure 10's statistics measure.
    jitter_rng: SmallRng,
    counters: PerfCounters,
    energy: EnergyMeter,
    probe: Option<PowerProbe>,
    last_integration: SimTime,

    // Program-phase log (Figure 7's "Log").
    logged_phase: ProgramPhase,
    blocked_depth: i32,

    // Checkpoint bookkeeping.
    last_cp_counters: PerfCounters,
    last_cp_energy: f64,
    last_cp_time: SimTime,

    last_config_change: SimTime,
    live_threads: usize,
    config_changes: u32,
    migrations: u32,
    checkpoints: Vec<MonitorSample>,
    timed_out: bool,
}

impl<'a> Sim<'a> {
    fn new(
        board: &'a BoardSpec,
        params: &'a MachineParams,
        prog: &'a CompiledProgram,
        config: HwConfig,
    ) -> Self {
        let n = board.num_cores();
        let cores = (0..n)
            .map(|c| {
                let (l2, sharers) = if c < board.num_little as usize {
                    (board.l2_little, board.num_little.max(1) as u32)
                } else {
                    (board.l2_big, board.num_big.max(1) as u32)
                };
                CoreState {
                    enabled: false,
                    running: None,
                    queue: VecDeque::new(),
                    cache: CacheHierarchy::with_l2_sharers(board.l1, l2, sharers),
                    pending: None,
                    pending_duration: SimTime::ZERO,
                    slice_start: SimTime::ZERO,
                    busy_time: SimTime::ZERO,
                }
            })
            .collect();

        let mut sim = Sim {
            board,
            params,
            prog,
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            threads: Vec::new(),
            blocked_since: Vec::new(),
            cores,
            little_costs: CoreCosts::new(prog, &board.little),
            big_costs: CoreCosts::new(prog, &board.big),
            view: SchedView {
                enabled: vec![false; n],
                kind: (0..n).map(|c| board.core_kind(c)).collect(),
                queue_len: vec![0; n],
                busy: vec![false; n],
            },
            acts: Vec::with_capacity(n),
            queued: Vec::new(),
            barriers: BarrierTable::default(),
            mutexes: MutexTable::default(),
            config,
            jitter_rng: SmallRng::seed_from_u64(params.seed ^ 0x4A17_7E5C),
            counters: PerfCounters::default(),
            energy: EnergyMeter::new(),
            probe: params.probe_rate_hz.map(PowerProbe::new),
            last_integration: SimTime::ZERO,
            logged_phase: ProgramPhase::Other,
            blocked_depth: 0,
            last_cp_counters: PerfCounters::default(),
            last_cp_energy: 0.0,
            last_cp_time: SimTime::ZERO,
            last_config_change: SimTime::ZERO,
            live_threads: 0,
            config_changes: 0,
            migrations: 0,
            checkpoints: Vec::new(),
            timed_out: false,
        };
        sim.apply_enable_mask(config);
        sim
    }

    // ---- plumbing -----------------------------------------------------------

    fn push_event(&mut self, t: SimTime, kind: EventKind) {
        self.seq += 1;
        self.heap.push(Reverse(Event {
            t,
            seq: self.seq,
            kind,
        }));
    }

    /// Bring `self.view` up to date with the cores (its `kind` column
    /// never changes).
    fn refresh_view(&mut self) {
        let v = &mut self.view;
        for (c, core) in self.cores.iter().enumerate() {
            v.enabled[c] = core.enabled;
            v.queue_len[c] = core.queue.len();
            v.busy[c] = core.running.is_some();
        }
    }

    /// Integrate power/energy/capacity from the last integration point to
    /// `to`, using each core's current activity.
    fn advance_to(&mut self, to: SimTime) {
        debug_assert!(to >= self.last_integration);
        let dt = (to - self.last_integration).as_secs();
        if dt > 0.0 {
            let acts = &mut self.acts;
            acts.clear();
            for (ci, core) in self.cores.iter().enumerate() {
                let kind = self.board.core_kind(ci);
                let act = match (&core.pending, core.enabled) {
                    (Some(out), true) => {
                        let total = out.total_cycles().max(1e-9);
                        CoreActivity {
                            busy_frac: out.exec_cycles / total,
                            stall_frac: out.stall_cycles / total,
                            enabled: true,
                        }
                    }
                    (None, true) => CoreActivity {
                        busy_frac: 0.0,
                        stall_frac: 0.0,
                        enabled: true,
                    },
                    (_, false) => CoreActivity::default(),
                };
                acts.push((kind, act));
                if core.enabled {
                    let spec = self.board.core_spec(ci);
                    self.counters.capacity_cycles += (dt * spec.freq_ghz * 1e9) as u64;
                }
            }
            let power = self.board.power.total_power(acts);
            self.energy.integrate(power, dt);
            if let Some(probe) = &mut self.probe {
                probe.observe(self.last_integration.as_secs(), to.as_secs(), power);
            }
        }
        self.last_integration = to;
        self.now = to;
    }

    /// Service-time jitter: ±5%, deterministic per machine seed.
    fn jitter(&mut self, t: SimTime) -> SimTime {
        let f = self.jitter_rng.gen_range(0.95..1.05);
        SimTime((t.0 as f64 * f) as u64)
    }

    // ---- thread lifecycle ---------------------------------------------------

    fn spawn_thread(&mut self, func: FunctionId, parent: Option<ThreadId>) -> ThreadId {
        let id = ThreadId(self.threads.len() as u32);
        let entry = self.prog.func(func).entry;
        let t = SimThread::new(id, func, entry, parent, self.params.seed);
        self.threads.push(t);
        self.blocked_since.push(SimTime::ZERO);
        self.live_threads += 1;
        if let Some(p) = parent {
            self.threads[p.0 as usize].live_children += 1;
        }
        id
    }

    fn enqueue(&mut self, scheduler: &mut dyn OsScheduler, tid: ThreadId) {
        self.refresh_view();
        let load = self.threads[tid.0 as usize].load;
        let core = scheduler.place(&self.view, tid, load);
        debug_assert!(
            self.cores[core].enabled,
            "scheduler placed on disabled core"
        );
        self.threads[tid.0 as usize].state = ThreadState::Runnable;
        self.cores[core].queue.push_back(tid);
        self.try_dispatch(core);
    }

    fn enqueue_on(&mut self, core: usize, tid: ThreadId, front: bool) {
        self.threads[tid.0 as usize].state = ThreadState::Runnable;
        if front {
            self.cores[core].queue.push_front(tid);
        } else {
            self.cores[core].queue.push_back(tid);
        }
        self.try_dispatch(core);
    }

    fn try_dispatch(&mut self, core: usize) {
        if !self.cores[core].enabled || self.cores[core].running.is_some() {
            return;
        }
        let Some(tid) = self.cores[core].queue.pop_front() else {
            return;
        };
        self.dispatch(core, tid, true);
    }

    /// Run one interpreter slice for `tid` on `core`.
    fn dispatch(&mut self, core: usize, tid: ThreadId, fresh: bool) {
        let costs = match self.board.core_kind(core) {
            CoreKind::Little => &self.little_costs,
            CoreKind::Big => &self.big_costs,
        };
        let spec = costs.spec;
        let thread = &mut self.threads[tid.0 as usize];
        thread.state = ThreadState::Running;
        thread.core = Some(core);
        let out = run_slice(
            self.prog,
            thread,
            costs,
            &mut self.cores[core].cache,
            self.params.batch_budget_cycles,
        );
        let secs = out.total_cycles() / (spec.freq_ghz * 1e9);
        let dur = SimTime::from_secs(secs).max(SimTime(1)); // always advances
        let cs = &mut self.cores[core];
        cs.running = Some(tid);
        cs.pending = Some(out);
        cs.pending_duration = dur;
        if fresh {
            cs.slice_start = self.now;
        }
        let at = self.now + dur;
        self.push_event(at, EventKind::SliceEnd { core });
    }

    fn update_load_busy(&mut self, tid: ThreadId, dur: SimTime) {
        const TAU_S: f64 = 0.05;
        let w = (dur.as_secs() / TAU_S).min(1.0);
        let t = &mut self.threads[tid.0 as usize];
        t.load = t.load * (1.0 - w) + w;
    }

    fn decay_load_blocked(&mut self, tid: ThreadId, blocked: SimTime) {
        const TAU_S: f64 = 0.05;
        let w = (blocked.as_secs() / TAU_S).min(1.0);
        let t = &mut self.threads[tid.0 as usize];
        t.load *= 1.0 - w;
    }

    fn block_thread(&mut self, tid: ThreadId, reason: BlockReason) {
        self.threads[tid.0 as usize].state = ThreadState::Blocked(reason);
        self.blocked_since[tid.0 as usize] = self.now;
    }

    fn finish_thread(&mut self, scheduler: &mut dyn OsScheduler, tid: ThreadId) {
        self.threads[tid.0 as usize].state = ThreadState::Finished;
        self.live_threads -= 1;
        if let Some(p) = self.threads[tid.0 as usize].parent {
            let parent = &mut self.threads[p.0 as usize];
            parent.live_children -= 1;
            if parent.live_children == 0
                && matches!(parent.state, ThreadState::Blocked(BlockReason::Join))
            {
                self.wake(scheduler, p);
            }
        }
    }

    fn wake(&mut self, scheduler: &mut dyn OsScheduler, tid: ThreadId) {
        let blocked = self.now.saturating_sub(self.blocked_since[tid.0 as usize]);
        self.decay_load_blocked(tid, blocked);
        self.enqueue(scheduler, tid);
    }

    // ---- configuration ------------------------------------------------------

    fn apply_enable_mask(&mut self, cfg: HwConfig) {
        let nl = self.board.num_little as usize;
        for (c, core) in self.cores.iter_mut().enumerate() {
            core.enabled = if c < nl {
                c < cfg.little as usize
            } else {
                (c - nl) < cfg.big as usize
            };
        }
    }

    fn request_config(&mut self, scheduler: &mut dyn OsScheduler, cfg: HwConfig) {
        if cfg == self.config {
            return;
        }
        // Rate limit: drop requests inside the dwell window.
        if self.config_changes > 0
            && self.now.saturating_sub(self.last_config_change) < self.params.min_config_dwell
        {
            return;
        }
        // Availability rule (§3.2.3): reject if reserved cores are needed.
        let (avail_l, avail_b) = self
            .params
            .available
            .unwrap_or((self.board.num_little, self.board.num_big));
        if cfg.little > avail_l || cfg.big > avail_b {
            return;
        }
        if cfg.little > self.board.num_little || cfg.big > self.board.num_big {
            return;
        }
        self.config = cfg;
        self.config_changes += 1;
        self.last_config_change = self.now;
        self.apply_enable_mask(cfg);
        // Drain queues of disabled cores; running threads are evicted at
        // their slice end by the scheduler's `replace`.
        let mut orphans: Vec<ThreadId> = Vec::new();
        for core in &mut self.cores {
            if !core.enabled {
                orphans.extend(core.queue.drain(..));
            }
        }
        for tid in orphans {
            self.migrations += 1;
            self.enqueue(scheduler, tid);
        }
    }

    // ---- monitor ------------------------------------------------------------

    fn current_phase(&self) -> ProgramPhase {
        if self.blocked_depth > 0 {
            ProgramPhase::Blocked
        } else {
            self.logged_phase
        }
    }

    fn rolling_delta(&self) -> astro_hw::counters::CounterDelta {
        self.last_cp_counters.delta(&self.counters)
    }

    fn checkpoint(&mut self, scheduler: &mut dyn OsScheduler, hooks: &mut dyn RuntimeHooks) {
        let delta = self.rolling_delta();
        let interval_s = (self.now - self.last_cp_time).as_secs().max(1e-9);
        let energy_delta = self.energy.joules() - self.last_cp_energy;
        let space = self.board.config_space();
        let sample = MonitorSample {
            t: self.now,
            config: self.config,
            config_idx: space.index(self.config),
            program_phase: self.current_phase(),
            hw_phase: HwPhase::from_delta(&delta),
            delta,
            energy_delta_j: energy_delta,
            watts: energy_delta / interval_s,
            mips: delta.instructions as f64 / interval_s / 1e6,
        };
        let req = hooks.on_checkpoint(&sample);
        self.checkpoints.push(sample);
        self.last_cp_counters = self.counters;
        self.last_cp_energy = self.energy.joules();
        self.last_cp_time = self.now;
        if let Some(cfg) = req {
            self.request_config(scheduler, cfg);
        }
    }

    // ---- engine calls -------------------------------------------------------

    fn handle_call(
        &mut self,
        scheduler: &mut dyn OsScheduler,
        hooks: &mut dyn RuntimeHooks,
        core: usize,
        tid: ThreadId,
        callee: LibCall,
        imms: &[i64],
    ) {
        let p = *self.params;
        let resume_after = |sim: &mut Sim, cost: SimTime, tid: ThreadId, core: usize| {
            let at = sim.now + cost;
            sim.push_event(at, EventKind::Resume { thread: tid, core });
        };
        match callee {
            LibCall::ReadFile | LibCall::WriteFile => {
                self.block_thread(tid, BlockReason::Io);
                let at = self.now + self.jitter(p.io_file_latency);
                self.push_event(at, EventKind::Wake { thread: tid });
            }
            LibCall::ReadStdin => {
                self.block_thread(tid, BlockReason::Io);
                let at = self.now + self.jitter(p.io_stdin_latency);
                self.push_event(at, EventKind::Wake { thread: tid });
            }
            LibCall::PrintStr => {
                self.block_thread(tid, BlockReason::Io);
                let at = self.now + self.jitter(p.io_print_latency);
                self.push_event(at, EventKind::Wake { thread: tid });
            }
            LibCall::NetSend | LibCall::NetRecv => {
                self.block_thread(tid, BlockReason::Net);
                let at = self.now + self.jitter(p.net_latency);
                self.push_event(at, EventKind::Wake { thread: tid });
            }
            LibCall::Sleep => {
                let dur = imms
                    .first()
                    .filter(|&&us| us > 0)
                    .map(|&us| SimTime::from_micros(us as f64))
                    .unwrap_or(p.sleep_default);
                self.block_thread(tid, BlockReason::Sleep);
                let at = self.now + self.jitter(dur);
                self.push_event(at, EventKind::Wake { thread: tid });
            }
            LibCall::BarrierWait => {
                let id = imms.first().copied().unwrap_or(0);
                let participants = imms
                    .get(1)
                    .copied()
                    .filter(|&n| n > 0)
                    .map(|n| n as u32)
                    .unwrap_or(self.live_threads as u32);
                match self.barriers.arrive(id, tid, participants) {
                    BarrierArrival::Wait => {
                        self.block_thread(tid, BlockReason::Barrier(id));
                    }
                    BarrierArrival::Release(waiters) => {
                        for w in waiters {
                            let at = self.now + self.jitter(p.sync_cost);
                            self.push_event(at, EventKind::Wake { thread: w });
                        }
                        let cost = self.jitter(p.sync_cost);
                        resume_after(self, cost, tid, core);
                    }
                }
            }
            LibCall::MutexLock => {
                let id = imms.first().copied().unwrap_or(0);
                match self.mutexes.lock(id, tid) {
                    LockAttempt::Acquired => resume_after(self, p.sync_cost, tid, core),
                    LockAttempt::Contended => self.block_thread(tid, BlockReason::Lock(id)),
                }
            }
            LibCall::MutexUnlock => {
                let id = imms.first().copied().unwrap_or(0);
                if let Some(next) = self.mutexes.unlock(id, tid) {
                    let at = self.now + p.sync_cost;
                    self.push_event(at, EventKind::Wake { thread: next });
                }
                resume_after(self, p.sync_cost, tid, core);
            }
            LibCall::ThreadSpawn => {
                let f = FunctionId(imms.first().copied().unwrap_or(0) as u32);
                let child = self.spawn_thread(f, Some(tid));
                self.enqueue(scheduler, child);
                let cost = self.jitter(p.spawn_cost);
                resume_after(self, cost, tid, core);
            }
            LibCall::ThreadJoin => {
                if self.threads[tid.0 as usize].live_children == 0 {
                    resume_after(self, p.sync_cost, tid, core);
                } else {
                    self.block_thread(tid, BlockReason::Join);
                }
            }
            LibCall::AstroLogPhase => {
                let phase =
                    ProgramPhase::from_index((imms.first().copied().unwrap_or(3) as usize).min(3));
                self.logged_phase = phase;
                hooks.on_log_phase(self.now, phase);
                if let (Some(probe), Some(frame)) =
                    (&mut self.probe, self.threads[tid.0 as usize].stack.last())
                {
                    probe.set_tag(self.prog.func(frame.func).name.clone());
                }
                resume_after(self, p.intrinsic_cost, tid, core);
            }
            LibCall::AstroToggleBlocked => {
                let entering = imms.first().copied().unwrap_or(0) != 0;
                self.blocked_depth += if entering { 1 } else { -1 };
                self.blocked_depth = self.blocked_depth.max(0);
                hooks.on_toggle_blocked(self.now, entering);
                resume_after(self, p.intrinsic_cost, tid, core);
            }
            LibCall::AstroSetConfig => {
                let idx = imms.first().copied().unwrap_or(0).max(0) as usize;
                if let Some(cfg) = hooks.on_set_config(self.now, idx) {
                    self.request_config(scheduler, cfg);
                }
                resume_after(self, p.intrinsic_cost, tid, core);
            }
            LibCall::AstroHybridDecide => {
                let phase =
                    ProgramPhase::from_index((imms.first().copied().unwrap_or(3) as usize).min(3));
                let hw = HwPhase::from_delta(&self.rolling_delta());
                if let Some(cfg) = hooks.on_hybrid_decide(self.now, phase, hw) {
                    self.request_config(scheduler, cfg);
                }
                resume_after(self, p.hybrid_decide_cost, tid, core);
            }
            other => unreachable!("non-engine call {other} reached the machine"),
        }
    }

    // ---- slice end ----------------------------------------------------------

    fn slice_end(
        &mut self,
        scheduler: &mut dyn OsScheduler,
        hooks: &mut dyn RuntimeHooks,
        core: usize,
    ) {
        let Some(tid) = self.cores[core].running.take() else {
            return; // stale event (thread migrated mid-flight: impossible, but harmless)
        };
        let out = self.cores[core].pending.take().expect("pending outcome");
        let dur = self.cores[core].pending_duration;

        // Account the slice.
        self.counters.instructions += out.instrs;
        self.counters.busy_cycles += out.total_cycles() as u64;
        self.counters.cache_accesses += out.mem_accesses;
        self.counters.cache_misses += out.mem_misses;
        self.cores[core].busy_time += dur;
        self.update_load_busy(tid, dur);

        match out.stop {
            StopReason::Finished => {
                self.finish_thread(scheduler, tid);
                self.try_dispatch(core);
            }
            StopReason::EngineCall { callee, imms } => {
                // The caller keeps its core while the runtime services the
                // call (the "syscall gap"); placement of other threads must
                // see the core as occupied. Blocking calls release it below.
                self.cores[core].running = Some(tid);
                self.handle_call(scheduler, hooks, core, tid, callee, imms);
                if matches!(self.threads[tid.0 as usize].state, ThreadState::Blocked(_)) {
                    self.cores[core].running = None;
                    self.try_dispatch(core);
                }
            }
            StopReason::Budget => {
                self.refresh_view();
                let load = self.threads[tid.0 as usize].load;
                let target = scheduler.replace(&self.view, tid, load, core);
                if target != core {
                    self.migrations += 1;
                    let at = self.now + SimTime::from_secs(self.board.migration_cost_s);
                    self.push_event(
                        at,
                        EventKind::Resume {
                            thread: tid,
                            core: target,
                        },
                    );
                    self.try_dispatch(core);
                } else if !self.cores[core].queue.is_empty()
                    && self.now - self.cores[core].slice_start >= self.params.timeslice
                {
                    // Round-robin rotation.
                    self.cores[core].queue.push_back(tid);
                    self.threads[tid.0 as usize].state = ThreadState::Runnable;
                    self.try_dispatch(core);
                } else {
                    self.dispatch(core, tid, false);
                }
            }
        }
    }

    // ---- main loop ----------------------------------------------------------

    fn run(&mut self, scheduler: &mut dyn OsScheduler, hooks: &mut dyn RuntimeHooks) -> RunResult {
        let main = self.spawn_thread(self.prog.entry, None);
        self.enqueue(scheduler, main);
        let cp = self.params.checkpoint_interval;
        self.push_event(cp, EventKind::Checkpoint);
        let bal = self.params.balance_interval;
        self.push_event(bal, EventKind::Balance);

        while self.live_threads > 0 {
            let Some(Reverse(ev)) = self.heap.pop() else {
                panic!(
                    "deadlock at {}: {} live threads, no pending events",
                    self.now, self.live_threads
                );
            };
            if ev.t > self.params.max_sim_time {
                self.timed_out = true;
                break;
            }
            self.advance_to(ev.t);
            match ev.kind {
                EventKind::SliceEnd { core } => self.slice_end(scheduler, hooks, core),
                EventKind::Wake { thread } => {
                    if !self.threads[thread.0 as usize].finished() {
                        self.wake(scheduler, thread);
                    }
                }
                EventKind::Resume { thread, core } => {
                    if self.threads[thread.0 as usize].finished() {
                        continue;
                    }
                    if self.cores[core].running == Some(thread) {
                        // End of a syscall gap: continue in place, or
                        // vacate if the configuration disabled the core
                        // meanwhile.
                        if self.cores[core].enabled {
                            self.dispatch(core, thread, false);
                        } else {
                            self.cores[core].running = None;
                            self.try_dispatch(core);
                            self.enqueue(scheduler, thread);
                        }
                    } else if self.cores[core].enabled {
                        // Migration arrival.
                        self.enqueue_on(core, thread, false);
                    } else {
                        self.enqueue(scheduler, thread);
                    }
                }
                EventKind::Checkpoint => {
                    self.checkpoint(scheduler, hooks);
                    let at = self.now + self.params.checkpoint_interval;
                    self.push_event(at, EventKind::Checkpoint);
                }
                EventKind::Balance => {
                    self.refresh_view();
                    self.queued.clear();
                    for (c, cs) in self.cores.iter().enumerate() {
                        for &t in &cs.queue {
                            self.queued.push((t, c, self.threads[t.0 as usize].load));
                        }
                    }
                    let moves = scheduler.balance(&self.view, &self.queued);
                    for (tid, to) in moves {
                        // Remove from its current queue, append to target.
                        for cs in &mut self.cores {
                            if let Some(pos) = cs.queue.iter().position(|&t| t == tid) {
                                cs.queue.remove(pos);
                                break;
                            }
                        }
                        self.migrations += 1;
                        self.cores[to].queue.push_back(tid);
                        self.try_dispatch(to);
                    }
                    let at = self.now + self.params.balance_interval;
                    self.push_event(at, EventKind::Balance);
                }
            }
        }

        let cpu_time_s: f64 = self.cores.iter().map(|c| c.busy_time.as_secs()).sum();
        RunResult {
            wall_time_s: self.now.as_secs(),
            cpu_time_s,
            energy_j: self.energy.joules(),
            instructions: self.counters.instructions,
            counters: self.counters,
            checkpoints: std::mem::take(&mut self.checkpoints),
            power_samples: self
                .probe
                .take()
                .map(|p| p.samples().to_vec())
                .unwrap_or_default(),
            config_changes: self.config_changes,
            migrations: self.migrations,
            timed_out: self.timed_out,
        }
    }
}
