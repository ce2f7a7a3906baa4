//! Fleet scaling experiment: how far the calibrated trace-replay
//! backend stretches the event-driven fleet kernel.
//!
//! Two measurements:
//!
//! 1. **Per-job execution cost** — the same job stream answered by the
//!    cycle-accurate `MachineExecutor` and by the calibrated
//!    `ReplayExecutor`, per-job microseconds side by side (target:
//!    replay ≥ 20× cheaper per job; calibration, a one-off per
//!    (workload, architecture), is reported separately).
//! 2. **Scale sweep** — the headline scenario pair of the fleet
//!    experiment (cold least-loaded vs warm phase-aware) at 1k → 100k
//!    jobs, in both dispatch modes. The dispatcher ranking established
//!    at 1.2k jobs on the machine backend — warm phase-aware at least
//!    as good on p95/p99 *and* energy under `oracle` dispatch — must
//!    survive the backend swap, the kernel swap and two orders of
//!    magnitude of scale; the online rows show live queue feedback
//!    holding the same shape.
//!
//! All printed metrics are seed-deterministic; only the wall-clock
//! timing columns vary run to run.

use crate::figs::fleet::{mean_cold_service_s, tenant_pool, Case, DispatcherKind};
use crate::runner::{default_threads, parallel_map};
use crate::table::TextTable;
use astro_core::replay::ReplayExecutor;
use astro_exec::executor::{BackendKind, ExecPolicy, ExecRequest, Executor, MachineExecutor};
use astro_exec::program::{compile, CompiledProgram};
use astro_fleet::{
    ArrivalProcess, ClusterSpec, FleetParams, FleetSim, JobSpec, PolicyCache, PolicyMode, Scenario,
};
use astro_ir::Module;
use astro_workloads::InputSize;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-job cost duel: answer `stream`'s jobs through both backends and
/// report microseconds per job. The machine side is measured on a
/// bounded sample (its per-job cost is flat); the replay side answers
/// the whole stream.
fn per_job_duel(cluster: &ClusterSpec, params: &FleetParams, stream: &[JobSpec]) -> (f64, f64) {
    let mut modules: BTreeMap<&'static str, Module> = BTreeMap::new();
    let mut progs: BTreeMap<&'static str, CompiledProgram> = BTreeMap::new();
    for job in stream {
        let m = modules
            .entry(job.workload.name)
            .or_insert_with(|| (job.workload.build)(params.size));
        progs
            .entry(job.workload.name)
            .or_insert_with(|| compile(m).expect("workload compiles"));
    }
    let request = |job: &JobSpec, b: usize| {
        let spec = &cluster.boards[b];
        ExecRequest {
            workload: job.workload.name,
            module: &modules[job.workload.name],
            program: &progs[job.workload.name],
            board: spec,
            config: spec.config_space().full(),
            policy: ExecPolicy::Gts,
            seed: job.seed,
        }
    };

    let machine = MachineExecutor {
        params: params.machine,
    };
    let sample = stream.len().min(150);
    let t0 = Instant::now();
    for (i, job) in stream.iter().take(sample).enumerate() {
        std::hint::black_box(machine.execute(&request(job, i % cluster.len())));
    }
    let machine_us = t0.elapsed().as_secs_f64() * 1e6 / sample.max(1) as f64;

    let replay = ReplayExecutor::from_machine(params.machine);
    let t0 = Instant::now();
    for key in cluster.arch_keys() {
        let board = cluster.representative_board(key);
        for (name, module) in &modules {
            replay.calibrate(name, module, board);
        }
    }
    let calib_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for (i, job) in stream.iter().enumerate() {
        std::hint::black_box(replay.execute(&request(job, i % cluster.len())));
    }
    let replay_us = t0.elapsed().as_secs_f64() * 1e6 / stream.len().max(1) as f64;
    println!(
        "per-job cost at {} jobs:  machine {:.1} µs/job (sample of {sample})  vs  replay {:.2} µs/job  \
         →  {:.0}x speedup  (one-off calibration: {} trace sets in {:.2} s)",
        stream.len(),
        machine_us,
        replay_us,
        machine_us / replay_us.max(1e-9),
        replay.stats().calibrations,
        calib_s
    );
    (machine_us, replay_us)
}

/// Run the scaling experiment. `max_jobs` caps the sweep (the full
/// figure runs 1k → 100k); `backend` is what the sweep executes on
/// (default replay — the point of the figure).
pub fn run(size: InputSize, max_jobs: usize, n_boards: usize, seed: u64, backend: BackendKind) {
    println!(
        "=== Fleet scale: 1k → {max_jobs} tenant jobs over {n_boards} boards \
         (seed {seed}, backend {}) ===\n",
        backend.name()
    );
    let cluster = ClusterSpec::heterogeneous(n_boards);
    let mut params = FleetParams::new(seed);
    params.size = size;
    params.backend = backend;
    params.train.episodes = 4;
    params.refresh_episodes = 2;
    params.train.reward.gamma = 6.0;
    let pool = tenant_pool();

    let mean_service = mean_cold_service_s(&cluster, &pool, &params);
    let rate = 0.85 * n_boards as f64 / mean_service;
    println!(
        "cluster: {n_boards} boards (alternating XU4/RK3399);  mean unloaded service {:.3} ms;  \
         arrival rate {:.1} jobs/s (target utilisation 0.85)\n",
        mean_service * 1e3,
        rate
    );

    // --- per-job cost: machine vs replay ---------------------------------
    let duel_n = 1200.min(max_jobs.max(1));
    let duel_stream = ArrivalProcess::Poisson {
        rate_jobs_per_s: rate,
    }
    .generate(duel_n, &pool, size, (4.0, 8.0), seed);
    per_job_duel(&cluster, &params, &duel_stream);
    println!();

    // --- scale sweep ------------------------------------------------------
    let mut scales: Vec<usize> = [1_000, 10_000, 100_000]
        .into_iter()
        .filter(|&n| n <= max_jobs)
        .collect();
    if scales.last() != Some(&max_jobs) && max_jobs > 0 {
        scales.push(max_jobs);
    }

    let sim = FleetSim::new(&cluster, params.clone());
    let mut t = TextTable::new(&[
        "jobs",
        "dispatcher/policy/mode",
        "p50 (ms)",
        "p95 (ms)",
        "p99 (ms)",
        "p99/SLO",
        "SLO miss",
        "energy (J)",
        "cache h/m/st",
        "calib",
        "wall (s)",
    ]);
    let mut rankings = Vec::new();
    for &n in &scales {
        let stream = ArrivalProcess::Poisson {
            rate_jobs_per_s: rate,
        }
        .generate(n, &pool, size, (4.0, 8.0), seed);
        let staleness = (n / 4).max(8) as u32;
        let cases = [
            Case {
                dispatcher: DispatcherKind::LeastLoaded,
                scenario: Scenario::oracle(PolicyMode::Cold),
            },
            Case {
                dispatcher: DispatcherKind::PhaseAware,
                scenario: Scenario::oracle(PolicyMode::Warm),
            },
            Case {
                dispatcher: DispatcherKind::LeastLoaded,
                scenario: Scenario::online(PolicyMode::Cold),
            },
            Case {
                dispatcher: DispatcherKind::PhaseAware,
                scenario: Scenario::online(PolicyMode::Warm),
            },
        ];
        // Like `run_cases`, but timing each scenario inside its own
        // closure so the wall column reports per-scenario cost even
        // though the cases run concurrently.
        let rows: Vec<(String, astro_fleet::FleetOutcome, f64)> =
            parallel_map(cases.len(), default_threads(), |i| {
                let case = &cases[i];
                let mut dispatcher = case.dispatcher.build();
                let mut cache = PolicyCache::new(staleness);
                let t0 = Instant::now();
                let out = sim.run(&stream, dispatcher.as_mut(), &mut cache, &case.scenario);
                (case.label(), out, t0.elapsed().as_secs_f64())
            });
        for (label, out, wall) in &rows {
            let m = &out.metrics;
            t.row(vec![
                format!("{n}"),
                label.clone(),
                format!("{:.3}", m.p50_s * 1e3),
                format!("{:.3}", m.p95_s * 1e3),
                format!("{:.3}", m.p99_s * 1e3),
                format!("{:.2}", m.p99_slo_ratio),
                format!("{:.1}%", m.slo_miss_rate() * 100.0),
                format!("{:.4}", m.total_energy_j),
                format!(
                    "{}/{}/{}",
                    out.cache.hits, out.cache.misses, out.cache.stale_refreshes
                ),
                format!("{}", out.calibrations),
                format!("{wall:.2}"),
            ]);
        }
        let metrics_of = |label: &str| {
            rows.iter()
                .find(|(l, _, _)| l == label)
                .unwrap_or_else(|| panic!("no case labelled {label:?}"))
                .1
                .metrics
                .clone()
        };
        let cold = metrics_of("least-loaded/cold/oracle");
        let warm = metrics_of("phase-aware/warm/oracle");
        let ok = warm.p95_s <= cold.p95_s
            && warm.p99_s <= cold.p99_s
            && warm.total_energy_j <= cold.total_energy_j;
        rankings.push((n, cold, warm, ok));
    }
    t.print();
    println!();
    for (n, cold, warm, ok) in &rankings {
        println!(
            "{n} jobs (oracle):  warm phase-aware vs cold least-loaded  p95 {:.2}x  p99 {:.2}x  \
             energy {:.2}x  — {}",
            warm.p95_s / cold.p95_s,
            warm.p99_s / cold.p99_s,
            warm.total_energy_j / cold.total_energy_j,
            if *ok {
                "OK (ranking preserved)"
            } else {
                "UNEXPECTED"
            }
        );
    }
}
