//! The four benchmark workloads. The cluster, simulator parameters and
//! scenario of each are fixed; only the job stream derives from the
//! seed, so the program receives nothing from the seed but its inputs.
//! README.md says why each workload exists.

use astro_bench::figs::fleet::{mean_cold_service_s, tenant_pool};
use astro_fleet::{
    ArrivalCursor, ArrivalProcess, BackendKind, ChaosSchedule, ChurnEvent, ClusterSpec,
    FleetParams, GenCursor, JobSpec, PolicyMode, Scenario, SliceCursor, TrafficClause,
};
use astro_workloads::Workload;
use std::time::Instant;

/// Workload names, in the order the README documents them.
pub const NAMES: [&str; 4] = [
    "batch-replay",
    "wide-fleet",
    "resident-chaos",
    "machine-fidelity",
];

/// SLO tightness range, as a multiple of a job's unloaded cold service
/// time on the fastest architecture. Under the figures' (4, 8) no job
/// misses its SLO and the SLO metrics would read zero. Reaching below 1×
/// makes most misses come from service times rather than rare queueing
/// bursts, so the miss share is large enough to be steady across seeds.
const SLO_TIGHTNESS: (f64, f64) = (0.8, 2.0);

/// Seed of the simulator itself (profiling, training, replay
/// calibration), fixed so that `--seed` varies only the job stream.
const SIM_SEED: u64 = 2019;

/// How a workload's jobs reach the kernel.
pub enum Stream {
    /// A materialised stream read through a [`SliceCursor`].
    Slice(Vec<JobSpec>),
    /// A seeded generator pulled lazily through a [`GenCursor`],
    /// warped by the traffic clauses.
    Gen {
        process: ArrivalProcess,
        traffic: Vec<TrafficClause>,
    },
}

/// One fully specified workload.
pub struct Bench {
    pub name: &'static str,
    pub seed: u64,
    pub cluster: ClusterSpec,
    pub params: FleetParams,
    pub pool: Vec<Workload>,
    pub scenario: Scenario,
    pub stream: Stream,
    /// Jobs in one leg's stream.
    pub jobs: usize,
    /// The fixed stream that trains the policy cache in set-up, so the
    /// learned policies do not depend on the seed.
    pub train_jobs: Vec<JobSpec>,
    /// Scenario of the training run.
    pub train_scenario: Scenario,
    /// Arrivals of the measured stream admitted in set-up, before the
    /// steady phase starts (they fill the kernel's profile memos).
    pub warmup_jobs: usize,
    /// Keep per-job outcomes (`true`) or fold them into streaming
    /// aggregates (`false`).
    pub retain: bool,
    /// Control steps between checkpoints in the steady phase (0 = never).
    pub checkpoint_every: u64,
    /// Policy-cache staleness limit.
    pub staleness: u32,
    /// Nominal host seconds of one leg, set-up included. It fixes how
    /// many legs a run of `--seconds` takes (see [`Bench::legs`]); being
    /// a constant, it keeps the leg count apart from the host's speed.
    pub leg_s: f64,
    /// Mean host seconds of one cycle-accurate run (compile and execute)
    /// behind the arrival-rate calibration, over pool × architectures.
    pub machine_run_s: f64,
}

impl Bench {
    /// The named workload at `seed`, or `None` for an unknown name.
    pub fn new(name: &str, seed: u64) -> Option<Bench> {
        // (boards, backend, target utilisation, jobs per leg, retain,
        // nominal leg seconds)
        let (name, boards, backend, utilisation, jobs, retain, leg_s) = match name {
            "batch-replay" => (
                "batch-replay",
                100,
                BackendKind::Replay,
                0.85,
                300_000,
                true,
                1.2,
            ),
            "wide-fleet" => (
                "wide-fleet",
                2000,
                BackendKind::Replay,
                0.85,
                200_000,
                false,
                1.3,
            ),
            // Chaos removes capacity, so the base load is lower, as in
            // the fleet_chaos figure.
            "resident-chaos" => (
                "resident-chaos",
                200,
                BackendKind::Replay,
                0.6,
                400_000,
                false,
                1.1,
            ),
            "machine-fidelity" => (
                "machine-fidelity",
                20,
                BackendKind::Machine,
                0.6,
                4_000,
                true,
                2.0,
            ),
            _ => return None,
        };
        let cluster = ClusterSpec::heterogeneous(boards);
        let mut params = FleetParams::new(SIM_SEED);
        params.backend = backend;
        params.train.episodes = 4;
        params.refresh_episodes = 2;
        params.train.reward.gamma = 6.0;
        let pool = tenant_pool();
        let t0 = Instant::now();
        let mean_service_s = mean_cold_service_s(&cluster, &pool, &params);
        let machine_run_s =
            t0.elapsed().as_secs_f64() / (pool.len() * cluster.arch_keys().len()) as f64;
        let rate = utilisation * boards as f64 / mean_service_s;
        let process = ArrivalProcess::Poisson {
            rate_jobs_per_s: rate,
        };
        let train_scenario = Scenario::online(PolicyMode::Warm).with_feedback();
        let train_jobs = process.generate(jobs / 10, &pool, params.size, SLO_TIGHTNESS, SIM_SEED);
        let mut scenario = train_scenario.clone();
        let mut traffic = Vec::new();
        let mut checkpoint_every = 0;
        if name == "resident-chaos" {
            // Expected horizon of the unwarped stream; the warp keeps the
            // horizon, so the windows stay where they are put.
            let (chaos, churn) = chaos_schedule(boards, jobs as f64 / rate);
            traffic = chaos.traffic.clone();
            scenario = scenario
                .with_chaos(chaos)
                .with_churn(churn)
                .with_preemption(2.0 * mean_service_s, 0.05 * mean_service_s, 2)
                .with_redispatch_cap(1);
            checkpoint_every = 10_000;
        }
        let stream = if retain {
            Stream::Slice(process.generate_shaped(
                jobs,
                &pool,
                params.size,
                SLO_TIGHTNESS,
                seed,
                &traffic,
            ))
        } else {
            Stream::Gen { process, traffic }
        };
        Some(Bench {
            name,
            seed,
            cluster,
            params,
            pool,
            scenario,
            stream,
            jobs,
            train_jobs,
            train_scenario,
            warmup_jobs: jobs / 20,
            retain,
            checkpoint_every,
            staleness: (jobs / 4).max(8) as u32,
            leg_s,
            machine_run_s,
        })
    }

    /// Timed legs in a run of `seconds`: as many nominal legs as fit,
    /// and at least three, so that medians and per-window minima have
    /// samples to choose from.
    pub fn legs(&self, seconds: f64) -> usize {
        ((seconds / self.leg_s) as usize).max(3)
    }

    /// A fresh cursor at the start of this workload's stream.
    pub fn cursor(&self) -> Box<dyn ArrivalCursor + '_> {
        match &self.stream {
            Stream::Slice(jobs) => Box::new(SliceCursor::new(jobs)),
            Stream::Gen { process, traffic } => Box::new(GenCursor::new(
                *process,
                self.jobs,
                &self.pool,
                self.params.size,
                SLO_TIGHTNESS,
                self.seed,
                traffic,
            )),
        }
    }
}

/// Chaos for resident-chaos, hung off the stream horizon: two racks that
/// fail back to back (so work redistributed off the first can be
/// orphaned again and hit the redispatch cap), throttles, a misprofile
/// window, a partial and a brief whole-fleet blackout (no-board drops),
/// a diurnal swell with a flash crowd, and one board's churn.
fn chaos_schedule(n: usize, horizon: f64) -> (ChaosSchedule, Vec<ChurnEvent>) {
    let rack_a: Vec<usize> = (0..n).filter(|b| b % 10 == 0).collect();
    let rack_b: Vec<usize> = (0..n).filter(|b| b % 20 == 1).collect();
    let partial: Vec<usize> = (0..n).filter(|b| b % 10 == 4).collect();
    let mut chaos = ChaosSchedule::new()
        .rack_outage(rack_a, 0.25 * horizon, 0.40 * horizon)
        .rack_outage(rack_b, 0.2502 * horizon, 0.45 * horizon)
        .blackout(partial, 0.55 * horizon, 0.62 * horizon)
        .blackout((0..n).collect(), 0.70 * horizon, 0.702 * horizon)
        .misprofile(None, 0.5, 0.30 * horizon, 0.80 * horizon)
        .flash_crowd(0.45, 0.50, 1.3)
        .diurnal(2.0, 0.3, 12);
    for b in (3..n).step_by(10) {
        chaos = chaos.throttle(b, 2.0, 0.20 * horizon, 0.60 * horizon);
    }
    let churn_board = n - 1;
    let churn = vec![
        ChurnEvent {
            time_s: 0.50 * horizon,
            board: churn_board,
            up: false,
        },
        ChurnEvent {
            time_s: 0.65 * horizon,
            board: churn_board,
            up: true,
        },
    ];
    (chaos, churn)
}
