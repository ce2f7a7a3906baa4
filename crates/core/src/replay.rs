//! The trace-replay execution backend: calibrate once on the
//! cycle-accurate engine, then answer runs by §4.1 trace composition.
//!
//! The paper already sanctions the substitution — §4.1 approximates
//! exhaustive execution by "generating traces for every hardware
//! configuration" and composing behaviours per checkpoint. This module
//! lifts that idea onto the [`Executor`] contract so whole layers
//! (fleet simulation, what-if sweeps) can trade cycle accuracy for
//! orders of magnitude in throughput:
//!
//! 1. **Calibration** (slow, once per `(workload, architecture)`): a
//!    [`RecordingExecutor`] runs the learning-instrumented program
//!    pinned under every configuration of the board through the inner
//!    backend, yielding a [`TraceSet`].
//! 2. **Replay** (fast, per request): fixed-configuration shapes
//!    ([`ExecPolicy::Pinned`]) answer from the matching pinned trace's
//!    totals, [`ExecPolicy::Gts`] from a dedicated GTS reference run
//!    (the GTS-vs-affinity scheduling gap is measured behaviour);
//!    static-schedule shapes compose the phase → configuration table
//!    over the pinned traces with [`TraceSim::compose_table`], switch
//!    costs included.
//!
//! Replayed results carry a small per-seed wobble (±[`ReplayExecutor::jitter_frac`],
//! deterministic per seed) mirroring the engine's behavioural
//! service-time jitter, so fleet statistics keep sample variance without
//! paying for interpretation.
//!
//! **Fidelity tiers**: machine = cycle-accurate reference; replay =
//! calibrated composition, within a few percent of the machine on the
//! calibration workloads (the repository's tests assert 25% as a hard
//! bound, and document ~10% as typical); learning episodes and hybrid
//! binaries require live counter feedback and stay machine-only.

use crate::record::RecordingExecutor;
use crate::trace::{Trace, TraceRecord, TraceSet};
use crate::tracesim::TraceSim;
use astro_exec::executor::{ExecPolicy, ExecRequest, Executor, MachineExecutor};
use astro_exec::machine::MachineParams;
use astro_exec::result::RunResult;
use astro_exec::runtime::MonitorSample;
use astro_exec::time::SimTime;
use astro_hw::config::ConfigSpace;
use astro_hw::counters::{CounterDelta, HwPhase, PerfCounters};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Replay accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Calibration sweeps performed (each is `num_configs` engine runs).
    pub calibrations: u64,
    /// Requests answered from traces.
    pub replays: u64,
}

/// Everything one `(workload, architecture)` calibration produced.
///
/// The pinned per-configuration sweep feeds schedule composition; the
/// GTS reference run answers cold-tier requests — the GTS-vs-affinity
/// scheduling gap is real behaviour the fleet experiments measure, so
/// the two shapes must not share a trace.
pub struct Calibration {
    /// Pinned traces, one per configuration index.
    pub pinned: TraceSet,
    /// One GTS run with all cores on.
    pub gts_full: Trace,
}

/// The calibrated trace-replay backend.
///
/// Thread-safe and deterministic: the calibration cache is shared
/// behind a read-write lock, every `TraceSet` is a pure function of
/// `(workload, architecture, inner parameters)`, and every replayed
/// answer is a pure function of the trace set and the request — so
/// results never depend on which thread first touched a key.
pub struct ReplayExecutor {
    inner: Box<dyn Executor>,
    /// Checkpoint interval of calibration runs, seconds.
    interval_s: f64,
    /// Behavioural seed of calibration runs.
    calib_seed: u64,
    /// Fraction of an interval's work lost on a configuration change
    /// during composition (mirrors [`TraceSim::switch_penalty`]).
    pub switch_penalty: f64,
    /// Per-seed wobble applied to replayed time/energy (± fraction).
    pub jitter_frac: f64,
    /// workload → architecture → calibration. Two levels so the per-job
    /// hot path looks keys up by `&str` without allocating; an `RwLock`
    /// so concurrent stage-2 workers replaying already-calibrated keys
    /// (the overwhelmingly common case) share a read lock instead of
    /// serialising on a mutex.
    cache: RwLock<BTreeMap<String, BTreeMap<&'static str, Arc<Calibration>>>>,
    calibrations: AtomicU64,
    replays: AtomicU64,
}

impl ReplayExecutor {
    /// A replay backend calibrating on the cycle-accurate engine at
    /// `params` (the usual construction).
    ///
    /// Calibration runs monitor at **8× finer granularity** than the
    /// serving checkpoint interval: composition can only downsize a
    /// phase its traces resolve, and fleet workloads routinely run
    /// blocked/IO stretches shorter than the serving checkpoint. A
    /// finer monitor changes nothing about the recorded run itself
    /// (checkpoints are observations, not costs) — it only sharpens the
    /// trace's phase boundaries.
    pub fn from_machine(params: MachineParams) -> Self {
        let mut calib = params;
        calib.checkpoint_interval =
            astro_exec::time::SimTime((params.checkpoint_interval.0 / 8).max(1));
        Self::with_inner(
            Box::new(MachineExecutor { params: calib }),
            calib.checkpoint_interval.as_secs(),
            params.seed,
        )
    }

    /// A replay backend calibrating through an arbitrary inner backend
    /// whose runs checkpoint every `interval_s` seconds.
    pub fn with_inner(inner: Box<dyn Executor>, interval_s: f64, calib_seed: u64) -> Self {
        ReplayExecutor {
            inner,
            interval_s,
            calib_seed,
            switch_penalty: 0.04,
            jitter_frac: 0.02,
            cache: RwLock::new(BTreeMap::new()),
            calibrations: AtomicU64::new(0),
            replays: AtomicU64::new(0),
        }
    }

    /// Ensure `(workload, board architecture)` is calibrated, recording
    /// the trace set through the inner backend if it is not, and return
    /// it. Calibrations are serialised on the cache lock so concurrent
    /// first touches do not duplicate engine work.
    pub fn calibrate(
        &self,
        workload: &str,
        module: &astro_ir::Module,
        board: &astro_hw::boards::BoardSpec,
    ) -> Arc<Calibration> {
        {
            let cache = self.cache.read().expect("calibration cache poisoned");
            if let Some(cal) = cache.get(workload).and_then(|m| m.get(board.name)) {
                return Arc::clone(cal);
            }
        }
        let mut cache = self.cache.write().expect("calibration cache poisoned");
        // Double-check: another thread may have calibrated while we
        // upgraded; writers hold the lock across the recording so
        // concurrent first touches never duplicate engine work.
        if let Some(cal) = cache.get(workload).and_then(|m| m.get(board.name)) {
            return Arc::clone(cal);
        }
        let rec = RecordingExecutor::new(&*self.inner, self.interval_s, self.calib_seed);
        let cal = Arc::new(Calibration {
            pinned: rec.record(module, board),
            gts_full: rec.record_gts_full(module, board),
        });
        cache
            .entry(workload.to_string())
            .or_default()
            .insert(board.name, Arc::clone(&cal));
        self.calibrations.fetch_add(1, Ordering::Relaxed);
        cal
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> ReplayStats {
        ReplayStats {
            calibrations: self.calibrations.load(Ordering::Relaxed),
            replays: self.replays.load(Ordering::Relaxed),
        }
    }

    /// Deterministic per-seed wobble on (time, energy), mirroring the
    /// engine's ±5% service-time jitter at fleet level.
    fn jitter_factors(&self, seed: u64) -> (f64, f64) {
        if self.jitter_frac == 0.0 {
            return (1.0, 1.0);
        }
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7E11_5EED_0CA1_1B8A);
        let ft = 1.0 + self.jitter_frac * rng.gen_range(-1.0..1.0);
        let fe = 1.0 + self.jitter_frac * rng.gen_range(-1.0..1.0);
        (ft, fe)
    }

    /// The unjittered `(wall_time_s, energy_j)` of running `policy`
    /// from `config` on `board` against `cal`: what
    /// [`Executor::execute_scalar`] answers before the per-seed wobble.
    /// A pure function of its inputs, so a caller that replays one
    /// shape many times (the fleet kernel, per workload, architecture
    /// and policy version) resolves it once and answers each run with
    /// [`ReplayExecutor::replay_scalar`].
    pub fn base_totals(
        &self,
        cal: &Calibration,
        board: &astro_hw::boards::BoardSpec,
        config: astro_hw::config::HwConfig,
        policy: ExecPolicy,
    ) -> (f64, f64) {
        let space = board.config_space();
        let start = space.index(config).min(cal.pinned.num_configs() - 1);
        match policy {
            ExecPolicy::Gts if config == space.full() => {
                (cal.gts_full.wall_time_s, cal.gts_full.energy_j)
            }
            ExecPolicy::Gts | ExecPolicy::Pinned => {
                let trace = cal.pinned.trace(start);
                (trace.wall_time_s, trace.energy_j)
            }
            ExecPolicy::StaticTable(table) => {
                let mut sim = TraceSim::new(&cal.pinned);
                sim.switch_penalty = self.switch_penalty;
                let (out, _) = sim.compose_table(table, start);
                (out.time_s, out.energy_j)
            }
        }
    }

    /// One replayed run of a shape whose [`ReplayExecutor::base_totals`]
    /// are `base`: the totals times the per-seed wobble, bitwise what
    /// [`Executor::execute_scalar`] returns for the same request.
    #[inline]
    pub fn replay_scalar(&self, base: (f64, f64), seed: u64) -> (f64, f64) {
        self.replays.fetch_add(1, Ordering::Relaxed);
        let (ft, fe) = self.jitter_factors(seed);
        (base.0 * ft, base.1 * fe)
    }

    /// Full-result answer against an already-resolved calibration.
    fn execute_with(&self, cal: &Calibration, req: &ExecRequest<'_>) -> RunResult {
        self.replays.fetch_add(1, Ordering::Relaxed);
        let space = req.board.config_space();
        let start = space.index(req.config).min(cal.pinned.num_configs() - 1);
        match req.policy {
            // Cold tier: the dedicated GTS reference run, when the
            // request is the usual all-cores-on shape; a GTS request at
            // a partial configuration (rare) falls back to the pinned
            // trace of that configuration.
            ExecPolicy::Gts if req.config == space.full() => {
                self.replay_fixed(&cal.gts_full, space, req.seed)
            }
            ExecPolicy::Gts | ExecPolicy::Pinned => {
                self.replay_fixed(cal.pinned.trace(start), space, req.seed)
            }
            ExecPolicy::StaticTable(table) => {
                self.replay_table(&cal.pinned, space, table, start, req.seed)
            }
        }
    }

    /// Answer a fixed-configuration request from `trace`.
    fn replay_fixed(&self, trace: &Trace, space: ConfigSpace, seed: u64) -> RunResult {
        let (ft, fe) = self.jitter_factors(seed);
        let composed: Vec<(usize, TraceRecord)> = trace
            .records
            .iter()
            .map(|r| (trace.config_idx, *r))
            .collect();
        self.assemble(
            space,
            trace.wall_time_s * ft,
            trace.energy_j * fe,
            trace.instructions,
            0,
            &composed,
            ft,
            fe,
        )
    }

    /// Answer a static-schedule request by table composition over the
    /// pinned traces (see [`TraceSim::compose_table`]).
    fn replay_table(
        &self,
        ts: &TraceSet,
        space: ConfigSpace,
        table: [usize; astro_compiler::ProgramPhase::COUNT],
        start_cfg: usize,
        seed: u64,
    ) -> RunResult {
        let mut sim = TraceSim::new(ts);
        sim.switch_penalty = self.switch_penalty;
        let (out, composed) = sim.compose_table(table, start_cfg);
        let (ft, fe) = self.jitter_factors(seed);
        self.assemble(
            space,
            out.time_s * ft,
            out.energy_j * fe,
            ts.trace(start_cfg.min(ts.num_configs() - 1)).instructions,
            out.config_changes as u32,
            &composed,
            ft,
            fe,
        )
    }

    /// Build a [`RunResult`] from a composed interval sequence,
    /// synthesising one monitor sample per interval.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        &self,
        space: ConfigSpace,
        wall_time_s: f64,
        energy_j: f64,
        instructions: u64,
        config_changes: u32,
        composed: &[(usize, TraceRecord)],
        ft: f64,
        fe: f64,
    ) -> RunResult {
        let mut t = 0.0f64;
        let checkpoints: Vec<MonitorSample> = composed
            .iter()
            .map(|(cfg, rec)| {
                t += rec.duration_s(self.interval_s) * ft;
                MonitorSample {
                    t: SimTime::from_secs(t),
                    config: space.from_index((*cfg).min(space.num_configs() - 1)),
                    config_idx: *cfg,
                    program_phase: rec.program_phase,
                    hw_phase: HwPhase::from_index(rec.hw_phase_idx),
                    delta: CounterDelta {
                        instructions: rec.instructions,
                        busy_cycles: 0,
                        capacity_cycles: 0,
                        cache_accesses: 0,
                        cache_misses: 0,
                    },
                    energy_delta_j: rec.energy_j * fe,
                    watts: rec.watts,
                    mips: rec.mips,
                }
            })
            .collect();
        RunResult {
            wall_time_s,
            // Composition is a single program-progress stream; replay
            // does not decompose busy time per core.
            cpu_time_s: wall_time_s,
            energy_j,
            instructions,
            counters: PerfCounters {
                instructions,
                busy_cycles: 0,
                capacity_cycles: 0,
                cache_accesses: 0,
                cache_misses: 0,
            },
            checkpoints,
            power_samples: Vec::new(),
            config_changes,
            migrations: 0,
            timed_out: false,
        }
    }
}

impl Executor for ReplayExecutor {
    fn name(&self) -> &'static str {
        "replay"
    }

    fn execute(&self, req: &ExecRequest<'_>) -> RunResult {
        let cal = self.calibrate(req.workload, req.module, req.board);
        self.execute_with(&cal, req)
    }

    fn execute_scalar(&self, req: &ExecRequest<'_>) -> (f64, f64) {
        let cal = self.calibrate(req.workload, req.module, req.board);
        let base = self.base_totals(&cal, req.board, req.config, req.policy);
        self.replay_scalar(base, req.seed)
    }
}
