//! The pluggable execution contract: "run this program variant on this
//! board and give me time / energy / counters".
//!
//! Every layer of the stack — the paper's pipeline, the figure
//! harness, the fleet simulator — ultimately issues this one request.
//! [`Executor`] abstracts *how faithfully* it is answered:
//!
//! * [`MachineExecutor`] (this crate) interprets the program on the
//!   cycle-accurate discrete-event [`Machine`] — the fidelity reference;
//! * `ReplayExecutor` (`astro-core`) answers from calibrated
//!   per-configuration traces by §4.1-style composition, trading cycle
//!   accuracy for orders of magnitude in throughput;
//! * `RecordingExecutor` (`astro-core`) decorates any inner backend to
//!   capture the calibration traces the replay tier consumes.
//!
//! A request is *semantic*, not mechanical: instead of carrying a
//! scheduler and hook objects (which only an interpreter could honour),
//! it names one of the run shapes the repository's experiments use
//! ([`ExecPolicy`]). Cycle-accurate backends map the shape onto the
//! matching scheduler/hooks pair; trace backends map it onto a
//! composition rule. Runs that need live counter feedback (learning
//! episodes, hybrid binaries) stay on [`Machine`] directly — they are
//! interpreter-bound by construction and documented as such.

use crate::machine::{Machine, MachineParams};
use crate::program::CompiledProgram;
use crate::result::RunResult;
use crate::runtime::{NullHooks, StaticBinaryHooks};
use crate::sched::affinity::AffinityScheduler;
use crate::sched::gts::GtsScheduler;
use astro_compiler::ProgramPhase;
use astro_hw::boards::BoardSpec;
use astro_hw::config::HwConfig;
use astro_ir::Module;

/// Which backend a harness should construct. Parsed from `--backend`
/// flags; the default everywhere is [`BackendKind::Machine`], which
/// reproduces every published figure byte-identically.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// Cycle-accurate interpretation ([`MachineExecutor`]).
    #[default]
    Machine,
    /// Calibrated trace replay (`astro-core`'s `ReplayExecutor`).
    Replay,
}

impl BackendKind {
    /// Stable label for flags and reports.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Machine => "machine",
            BackendKind::Replay => "replay",
        }
    }

    /// Parse a `--backend` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "machine" => Some(BackendKind::Machine),
            "replay" => Some(BackendKind::Replay),
            _ => None,
        }
    }
}

/// The run shapes the experiments use, in backend-neutral form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecPolicy {
    /// The stock binary under GTS — the paper's baseline. Cycle-accurate
    /// backends use [`GtsScheduler`] + [`NullHooks`].
    Gts,
    /// The program pinned to its initial configuration under affinity
    /// scheduling — fixed-configuration sweeps and trace calibration.
    Pinned,
    /// An Astro *static* binary: the phase → configuration-index table
    /// the compiler imprinted. Cycle-accurate backends run the
    /// already-instrumented program under [`AffinityScheduler`] +
    /// [`StaticBinaryHooks`]; trace backends compose the table over
    /// calibrated per-configuration traces. The table is carried
    /// explicitly so trace backends need not re-derive it from code.
    StaticTable([usize; ProgramPhase::COUNT]),
}

/// One execution request. Carries both the source [`Module`] (what
/// trace backends calibrate from) and the [`CompiledProgram`] variant
/// to interpret (what cycle-accurate backends run), plus the stable
/// workload identity the calibration cache is keyed by.
pub struct ExecRequest<'a> {
    /// Stable workload name — one half of the `(workload, architecture)`
    /// calibration-cache key, mirroring how the fleet's policy cache is
    /// keyed by `(taxon, architecture)`.
    pub workload: &'a str,
    /// The source module (pre-instrumentation).
    pub module: &'a Module,
    /// The compiled binary variant this request runs. For
    /// [`ExecPolicy::StaticTable`] this must be the static build whose
    /// imprinted table equals the one in the policy.
    pub program: &'a CompiledProgram,
    /// The board to run on.
    pub board: &'a BoardSpec,
    /// Initial hardware configuration.
    pub config: HwConfig,
    /// The run shape.
    pub policy: ExecPolicy,
    /// Behavioural seed for this run.
    pub seed: u64,
}

/// A pluggable execution backend. `Send + Sync` because fleet stage 2
/// fans requests out across OS threads against one shared backend.
pub trait Executor: Send + Sync {
    /// Backend label for reports.
    fn name(&self) -> &'static str;

    /// Answer one request. Same request (including seed) ⇒ identical
    /// [`RunResult`], whatever thread asks.
    fn execute(&self, req: &ExecRequest<'_>) -> RunResult;

    /// Answer one request with only its `(wall_time_s, energy_j)`
    /// totals — the two numbers throughput-bound callers (the fleet
    /// kernel's dispatch and completion paths) actually consume. Must
    /// return bitwise the same totals [`Executor::execute`] would;
    /// backends whose full [`RunResult`] is expensive to materialise
    /// (checkpoint vectors, power samples) override this with a path
    /// that skips the assembly.
    fn execute_scalar(&self, req: &ExecRequest<'_>) -> (f64, f64) {
        let r = self.execute(req);
        (r.wall_time_s, r.energy_j)
    }
}

/// The cycle-accurate backend: a thin adapter putting [`Machine`]
/// behind the [`Executor`] contract. Stateless between requests — each
/// call builds a fresh machine, so results are independent of request
/// order and thread interleaving.
#[derive(Clone, Copy, Debug)]
pub struct MachineExecutor {
    /// Engine parameters every request runs under (the request's seed
    /// overrides `params.seed`).
    pub params: MachineParams,
}

impl Executor for MachineExecutor {
    fn name(&self) -> &'static str {
        "machine"
    }

    fn execute(&self, req: &ExecRequest<'_>) -> RunResult {
        let machine = Machine::new(req.board, self.params);
        match req.policy {
            ExecPolicy::Gts => machine.run_seeded(
                req.program,
                &mut GtsScheduler::default(),
                &mut NullHooks,
                req.config,
                req.seed,
            ),
            ExecPolicy::Pinned => machine.run_seeded(
                req.program,
                &mut AffinityScheduler,
                &mut NullHooks,
                req.config,
                req.seed,
            ),
            ExecPolicy::StaticTable(_) => {
                let mut hooks = StaticBinaryHooks {
                    space: req.board.config_space(),
                };
                machine.run_seeded(
                    req.program,
                    &mut AffinityScheduler,
                    &mut hooks,
                    req.config,
                    req.seed,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::compile;
    use astro_ir::{FunctionBuilder, Ty, Value};

    fn tiny_module() -> Module {
        let mut m = Module::new("tiny");
        let mut b = FunctionBuilder::new("main", Ty::Void);
        b.counted_loop(50_000, |b| {
            let x = b.fmul(Ty::F64, Value::float(1.1), Value::float(2.2));
            b.fadd(Ty::F64, x, x);
        });
        b.ret(None);
        let f = m.add_function(b.finish());
        m.set_entry(f);
        m
    }

    #[test]
    fn machine_executor_matches_direct_machine_runs() {
        let board = BoardSpec::odroid_xu4();
        let module = tiny_module();
        let prog = compile(&module).unwrap();
        let params = MachineParams::default();
        let full = board.config_space().full();
        let exec = MachineExecutor { params };

        // GTS shape ≡ Machine + GtsScheduler + NullHooks.
        let via_exec = exec.execute(&ExecRequest {
            workload: "tiny",
            module: &module,
            program: &prog,
            board: &board,
            config: full,
            policy: ExecPolicy::Gts,
            seed: 7,
        });
        let machine = Machine::new(&board, params);
        let direct =
            machine.run_seeded(&prog, &mut GtsScheduler::default(), &mut NullHooks, full, 7);
        assert_eq!(via_exec.wall_time_s, direct.wall_time_s);
        assert_eq!(via_exec.energy_j, direct.energy_j);
        assert_eq!(via_exec.instructions, direct.instructions);

        // Pinned shape ≡ Machine + AffinityScheduler + NullHooks.
        let cfg = astro_hw::config::HwConfig::new(2, 1);
        let via_exec = exec.execute(&ExecRequest {
            workload: "tiny",
            module: &module,
            program: &prog,
            board: &board,
            config: cfg,
            policy: ExecPolicy::Pinned,
            seed: 3,
        });
        let direct = machine.run_seeded(&prog, &mut AffinityScheduler, &mut NullHooks, cfg, 3);
        assert_eq!(via_exec.wall_time_s, direct.wall_time_s);
        assert_eq!(via_exec.energy_j, direct.energy_j);
    }

    #[test]
    fn run_and_run_seeded_share_one_entry_point() {
        // `run` must be exactly `run_seeded` at the params seed — the
        // deduplicated internal path guarantees it.
        let board = BoardSpec::odroid_xu4();
        let prog = compile(&tiny_module()).unwrap();
        let params = MachineParams::default();
        let machine = Machine::new(&board, params);
        let full = board.config_space().full();
        let a = machine.run(&prog, &mut GtsScheduler::default(), &mut NullHooks, full);
        let b = machine.run_seeded(
            &prog,
            &mut GtsScheduler::default(),
            &mut NullHooks,
            full,
            params.seed,
        );
        assert_eq!(a.wall_time_s, b.wall_time_s);
        assert_eq!(a.energy_j, b.energy_j);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.checkpoints.len(), b.checkpoints.len());
    }

    #[test]
    fn backend_kind_parses_and_names() {
        assert_eq!(BackendKind::parse("machine"), Some(BackendKind::Machine));
        assert_eq!(BackendKind::parse("replay"), Some(BackendKind::Replay));
        assert_eq!(BackendKind::parse("warp"), None);
        assert_eq!(BackendKind::default().name(), "machine");
        assert_eq!(BackendKind::Replay.name(), "replay");
    }
}
