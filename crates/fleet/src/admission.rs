//! The kernel's admission tables: everything an admission or a job
//! start reads about one workload on one architecture, resolved once
//! per run and read by index after that.
//!
//! [`AdmissionTable::new`] interns the workloads the cursor can yield
//! into slots `0..W`; architectures are the
//! [`ClusterState::arch_class`]es. One cell per `(slot, class)` holds
//! the resolved calibration, the stock binary, the cold profile and a
//! short list of policy versions, each with its static binary, profile
//! and admission-guard verdict. A binary is what the run's backend
//! needs to answer a start: the compiled program on the engine, or the
//! replay base totals, which each run scales by its seed's wobble.
//! Every value is a pure function of the run's inputs, so filling the
//! cells lazily, in whatever order admissions touch them, changes no
//! result. The table also holds the policy cache's and the feedback
//! layer's interned id of every class, so a job's line in either is
//! `LineId::new(taxon, id)`: arithmetic, not a map probe. See DESIGN.md
//! "Admission tables".

use crate::cache::PolicyCache;
use crate::cluster::ClusterSpec;
use crate::feedback::ServiceFeedback;
use crate::job::Taxon;
use crate::lines::{ArchId, LineId};
use crate::sim::{fnv, FleetSim};
use crate::state::ClusterState;
use astro_core::pipeline::build_static;
use astro_core::replay::{Calibration, ReplayExecutor};
use astro_core::schedule::StaticSchedule;
use astro_exec::executor::{ExecPolicy, ExecRequest, Executor, MachineExecutor};
use astro_exec::program::{compile, CompiledProgram};
use astro_hw::boards::BoardSpec;
use astro_ir::Module;
use astro_workloads::Workload;
use std::sync::Arc;

/// Runs averaged into one profile: the ±5% service jitter would
/// otherwise dominate guard decisions near the boundary.
const PROFILE_SAMPLES: u64 = 3;

/// Profiled `(wall_s, energy_j)`, uncorrected.
type Profile = (f64, f64);

/// What the run's backend needs to answer a start of one binary.
enum Binary {
    /// The compiled program, run on the engine.
    Program(CompiledProgram),
    /// Replay base totals `(wall_s, energy_j)`; see
    /// [`ReplayExecutor::base_totals`].
    Totals((f64, f64)),
}

/// One cached policy version of a workload on an architecture class.
struct Version {
    version: u32,
    schedule: StaticSchedule,
    binary: Binary,
    profile: Option<Profile>,
    /// Admission-guard verdict: `(admit, guarded wall)`.
    guard: Option<(bool, f64)>,
}

/// One workload on one architecture class.
struct Cell {
    /// The resolved calibration, on the replay backend.
    cal: Option<Arc<Calibration>>,
    stock: Binary,
    cold: Option<Profile>,
    versions: Vec<Version>,
}

/// One workload the cursor can yield.
struct Slot {
    name: &'static str,
    module: Module,
    /// Unloaded cold wall on the fastest architecture: the SLO
    /// reference.
    best_cold: Option<f64>,
}

/// The per-run admission tables (see the module docs).
pub(crate) struct AdmissionTable<'a> {
    cluster: &'a ClusterSpec,
    /// Base seed of profile runs.
    seed: u64,
    latency_guard: f64,
    machine: MachineExecutor,
    replay: Option<Arc<ReplayExecutor>>,
    /// Lowest-indexed board of each class: where the class is
    /// calibrated and profiled.
    first: Vec<usize>,
    slots: Vec<Slot>,
    /// `(slot, class)` cells, slot-major.
    cells: Vec<Cell>,
    /// The policy cache's id of each class.
    cache_arch: Vec<ArchId>,
    /// The feedback layer's id of each class (empty without feedback).
    fb_arch: Vec<ArchId>,
}

impl<'a> AdmissionTable<'a> {
    /// Interns `workloads` (duplicates folded by name), calibrates every
    /// `(workload, class)` pair on the replay backend, resolves every
    /// stock binary and binds the cache's and the feedback layer's
    /// architecture ids.
    pub(crate) fn new(
        sim: &FleetSim<'a>,
        workloads: Vec<Workload>,
        state: &ClusterState,
        cache: &mut PolicyCache,
        feedback: Option<&mut ServiceFeedback>,
    ) -> Self {
        let mut slots: Vec<Slot> = Vec::new();
        for w in workloads {
            if !slots.iter().any(|s| s.name == w.name) {
                slots.push(Slot {
                    name: w.name,
                    module: (w.build)(sim.params.size),
                    best_cold: None,
                });
            }
        }
        let first: Vec<usize> = (0..state.n_arch())
            .map(|a| state.arch_first_board(a))
            .collect();
        let replay = sim.replay_exec.clone();
        let mut table = AdmissionTable {
            cluster: sim.cluster,
            seed: sim.params.seed,
            latency_guard: sim.params.latency_guard,
            machine: MachineExecutor {
                params: sim.params.machine,
            },
            replay,
            first,
            cells: Vec::with_capacity(slots.len() * state.n_arch()),
            slots,
            cache_arch: Vec::new(),
            fb_arch: Vec::new(),
        };
        for slot in 0..table.slots.len() {
            for class in 0..table.first.len() {
                let cal = table.replay.as_ref().map(|r| {
                    let s = &table.slots[slot];
                    r.calibrate(s.name, &s.module, table.spec(class))
                });
                let stock = table.binary(slot, class, cal.as_deref(), None);
                table.cells.push(Cell {
                    cal,
                    stock,
                    cold: None,
                    versions: Vec::new(),
                });
            }
        }
        table.bind(cache, feedback);
        table
    }

    /// (Re)intern every class in `cache` and `feedback`: at
    /// construction, and after a restore replaces either.
    pub(crate) fn bind(&mut self, cache: &mut PolicyCache, feedback: Option<&mut ServiceFeedback>) {
        let cluster = self.cluster;
        self.cache_arch = self
            .first
            .iter()
            .map(|&b| cache.intern_arch(cluster.arch_key(b)))
            .collect();
        self.fb_arch = match feedback {
            Some(fb) => self
                .first
                .iter()
                .map(|&b| fb.intern_arch(cluster.arch_key(b)))
                .collect(),
            None => Vec::new(),
        };
    }

    /// The slot of the workload named `name`.
    pub(crate) fn slot(&self, name: &str) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| std::ptr::eq(s.name, name))
            .or_else(|| self.slots.iter().position(|s| s.name == name))
    }

    /// `taxon`'s line on `class` in the policy cache.
    #[inline]
    pub(crate) fn cache_line(&self, taxon: Taxon, class: usize) -> LineId {
        LineId::new(taxon, self.cache_arch[class])
    }

    /// Apply the feedback correction for `taxon` on `class` to an
    /// uncorrected estimate (identity, bit for bit, without feedback).
    #[inline]
    pub(crate) fn corrected(
        &self,
        feedback: Option<&ServiceFeedback>,
        taxon: Taxon,
        class: usize,
        wall_s: f64,
    ) -> f64 {
        match feedback {
            Some(fb) => wall_s * fb.correction_at(self.fb_line(taxon, class)),
            None => wall_s,
        }
    }

    /// `taxon`'s cell on `class` in the feedback layer.
    #[inline]
    pub(crate) fn fb_line(&self, taxon: Taxon, class: usize) -> LineId {
        LineId::new(taxon, self.fb_arch[class])
    }

    fn spec(&self, class: usize) -> &'a BoardSpec {
        &self.cluster.boards[self.first[class]]
    }

    fn cell(&self, slot: usize, class: usize) -> usize {
        slot * self.first.len() + class
    }

    /// The binary of `slot` under `schedule` (stock when `None`) on
    /// `class`, for this run's backend.
    fn binary(
        &self,
        slot: usize,
        class: usize,
        cal: Option<&Calibration>,
        schedule: Option<&StaticSchedule>,
    ) -> Binary {
        let module = &self.slots[slot].module;
        match (&self.replay, cal) {
            (Some(replay), Some(cal)) => {
                let spec = self.spec(class);
                let policy =
                    schedule.map_or(ExecPolicy::Gts, |st| ExecPolicy::StaticTable(st.as_table()));
                Binary::Totals(replay.base_totals(cal, spec, spec.config_space().full(), policy))
            }
            _ => Binary::Program(match schedule {
                None => compile(module).expect("workload compiles"),
                Some(st) => compile(&build_static(module, st)).expect("static build compiles"),
            }),
        }
    }

    /// Unloaded cold service time of `slot` on the fastest
    /// architecture (the SLO reference point).
    pub(crate) fn best_cold(&mut self, slot: usize) -> f64 {
        if let Some(best) = self.slots[slot].best_cold {
            return best;
        }
        let mut best = f64::INFINITY;
        for class in 0..self.first.len() {
            best = best.min(self.cold(slot, class).0);
        }
        self.slots[slot].best_cold = Some(best);
        best
    }

    /// Profiled stock-binary service of `slot` on `class`.
    pub(crate) fn cold(&mut self, slot: usize, class: usize) -> Profile {
        let i = self.cell(slot, class);
        if let Some(p) = self.cells[i].cold {
            return p;
        }
        let p = self.profile(slot, class, &self.cells[i].stock, ExecPolicy::Gts);
        self.cells[i].cold = Some(p);
        p
    }

    /// Index of `version` in the cell's version list, resolving its
    /// binary on first sight.
    pub(crate) fn version(
        &mut self,
        slot: usize,
        class: usize,
        version: u32,
        schedule: StaticSchedule,
    ) -> usize {
        let i = self.cell(slot, class);
        if let Some(v) = self.cells[i]
            .versions
            .iter()
            .rposition(|v| v.version == version)
        {
            return v;
        }
        let binary = self.binary(slot, class, self.cells[i].cal.as_deref(), Some(&schedule));
        let versions = &mut self.cells[i].versions;
        versions.push(Version {
            version,
            schedule,
            binary,
            profile: None,
            guard: None,
        });
        versions.len() - 1
    }

    /// Profiled service of `slot` on `class` under policy `version`.
    pub(crate) fn warm(
        &mut self,
        slot: usize,
        class: usize,
        version: u32,
        schedule: StaticSchedule,
    ) -> Profile {
        let i = self.cell(slot, class);
        let vi = self.version(slot, class, version, schedule);
        let v = &self.cells[i].versions[vi];
        if let Some(p) = v.profile {
            return p;
        }
        let policy = ExecPolicy::StaticTable(v.schedule.as_table());
        let p = self.profile(slot, class, &v.binary, policy);
        self.cells[i].versions[vi].profile = Some(p);
        p
    }

    /// Admission latency guard for `slot` on `class` under policy
    /// `version`: `(admit, guarded wall)`. A schedule whose profiled
    /// service regresses past the guard factor of the stock binary's
    /// is refused, and the job is priced at the stock wall. Fixed per
    /// version, so it is resolved once and kept with it.
    pub(crate) fn guard(
        &mut self,
        slot: usize,
        class: usize,
        version: u32,
        schedule: StaticSchedule,
    ) -> (bool, f64) {
        let i = self.cell(slot, class);
        let vi = self.version(slot, class, version, schedule);
        if let Some(verdict) = self.cells[i].versions[vi].guard {
            return verdict;
        }
        let (cold_wall, _) = self.cold(slot, class);
        let (warm_wall, _) = self.warm(slot, class, version, schedule);
        let verdict = if warm_wall > cold_wall * self.latency_guard {
            (false, cold_wall)
        } else {
            (true, warm_wall)
        };
        self.cells[i].versions[vi].guard = Some(verdict);
        verdict
    }

    /// Mean of [`PROFILE_SAMPLES`] runs of `binary` at distinct seeds
    /// on `class`'s first board.
    fn profile(&self, slot: usize, class: usize, binary: &Binary, policy: ExecPolicy) -> Profile {
        let b = self.first[class];
        let base_seed = self
            .seed
            .wrapping_add(fnv(self.slots[slot].name))
            .wrapping_add(fnv(self.cluster.arch_key(b)).rotate_left(17));
        let mut wall = 0.0;
        let mut energy = 0.0;
        for k in 0..PROFILE_SAMPLES {
            let seed = base_seed.wrapping_add(k.wrapping_mul(0x9E37_79B9));
            let (wall_time_s, energy_j) = self.exec(slot, b, binary, policy, seed);
            wall += wall_time_s;
            energy += energy_j;
        }
        (
            wall / PROFILE_SAMPLES as f64,
            energy / PROFILE_SAMPLES as f64,
        )
    }

    /// One job's `(wall_s, energy_j)`: `slot` under policy `version`
    /// (the stock binary when `None`) on board `b` of `class`, at
    /// `seed`. A version must have been resolved when the job was
    /// placed; the execution plane only reads.
    pub(crate) fn run(
        &self,
        slot: usize,
        class: usize,
        version: Option<u32>,
        b: usize,
        seed: u64,
    ) -> (f64, f64) {
        let cell = &self.cells[self.cell(slot, class)];
        match version {
            None => self.exec(slot, b, &cell.stock, ExecPolicy::Gts, seed),
            Some(version) => {
                let v = cell
                    .versions
                    .iter()
                    .rfind(|v| v.version == version)
                    .expect("policy version resolved at dispatch");
                let policy = ExecPolicy::StaticTable(v.schedule.as_table());
                self.exec(slot, b, &v.binary, policy, seed)
            }
        }
    }

    fn exec(
        &self,
        slot: usize,
        b: usize,
        binary: &Binary,
        policy: ExecPolicy,
        seed: u64,
    ) -> (f64, f64) {
        match binary {
            Binary::Totals(base) => self
                .replay
                .as_ref()
                .expect("replay totals come from the replay backend")
                .replay_scalar(*base, seed),
            Binary::Program(program) => {
                let spec = &self.cluster.boards[b];
                let s = &self.slots[slot];
                self.machine.execute_scalar(&ExecRequest {
                    workload: s.name,
                    module: &s.module,
                    program,
                    board: spec,
                    config: spec.config_space().full(),
                    policy,
                    seed,
                })
            }
        }
    }
}
