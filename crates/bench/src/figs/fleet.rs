//! Fleet experiment: multi-board, multi-tenant co-scheduling with the
//! shared policy cache, driven by the discrete-event fleet kernel.
//!
//! A heterogeneous cluster (big-rich Odroid XU4s + LITTLE-rich RK3399s)
//! serves an open-loop stream of tenant jobs drawn from the workload
//! suite. Scenarios cross dispatchers (least-loaded, energy-aware,
//! phase-aware) with policy modes (cold = original binaries under GTS
//! with every core on; warm = Astro static binaries from the shared,
//! taxonomy-keyed policy cache) and dispatch modes (`oracle` =
//! batch-planner semantics through the kernel, the historical
//! reference; `online` = live queue feedback). Expected shape: the warm
//! phase-aware fleet beats the cold least-loaded fleet on tail latency
//! *and* total energy — placement quality cuts queueing on the matching
//! cluster shape, and learned schedules stop paying idle power during
//! blocked phases.
//!
//! Scenarios are independent (each owns its policy cache), so they fan
//! out across OS threads via [`crate::runner::parallel_map`]; results
//! are independent of the worker count, so the printed tables are
//! byte-identical for a given seed.

use crate::runner::{default_threads, parallel_map};
use crate::table::TextTable;
use astro_fleet::{
    ArrivalProcess, BackendKind, ClusterSpec, Dispatcher, EnergyAware, FleetOutcome, FleetParams,
    FleetSim, LeastLoaded, PhaseAware, PolicyCache, PolicyMode, Scenario,
};
use astro_workloads::{InputSize, Workload};

/// The tenant mix: compute-heavy, memory/IO and synchronisation-heavy
/// programs in roughly equal parts.
pub fn tenant_pool() -> Vec<Workload> {
    [
        "swaptions",
        "blackscholes",
        "hotspot",
        "bfs",
        "streamcluster",
        "fluidanimate",
        "sradv2",
        "vips",
    ]
    .iter()
    .map(|n| astro_workloads::by_name(n).expect("known workload"))
    .collect()
}

/// Mean unloaded (cold, GTS) service time of the pool across the
/// cluster's architectures — the arrival-rate calibration point.
/// Always measured on the cycle-accurate backend (it is O(pool ×
/// architectures), not O(jobs)), through the
/// [`Executor`](astro_exec::executor::Executor) contract.
pub fn mean_cold_service_s(cluster: &ClusterSpec, pool: &[Workload], params: &FleetParams) -> f64 {
    use astro_exec::executor::{ExecPolicy, ExecRequest, Executor, MachineExecutor};
    use astro_exec::program::compile;
    let exec = MachineExecutor {
        params: params.machine,
    };
    let mut total = 0.0;
    let mut n = 0usize;
    for key in cluster.arch_keys() {
        let spec = cluster.representative_board(key);
        for w in pool {
            let module = (w.build)(params.size);
            let prog = compile(&module).expect("workload compiles");
            let r = exec.execute(&ExecRequest {
                workload: w.name,
                module: &module,
                program: &prog,
                board: spec,
                config: spec.config_space().full(),
                policy: ExecPolicy::Gts,
                seed: params.machine.seed,
            });
            total += r.wall_time_s;
            n += 1;
        }
    }
    total / n as f64
}

/// Which placement policy a scenario runs (dispatchers are stateful, so
/// each run constructs its own from this tag).
#[derive(Clone, Copy, Debug)]
pub enum DispatcherKind {
    /// [`LeastLoaded`].
    LeastLoaded,
    /// [`EnergyAware`].
    EnergyAware,
    /// [`PhaseAware`].
    PhaseAware,
}

impl DispatcherKind {
    /// Label for reports.
    pub fn name(self) -> &'static str {
        match self {
            DispatcherKind::LeastLoaded => "least-loaded",
            DispatcherKind::EnergyAware => "energy-aware",
            DispatcherKind::PhaseAware => "phase-aware",
        }
    }

    /// A fresh dispatcher instance.
    pub fn build(self) -> Box<dyn Dispatcher> {
        match self {
            DispatcherKind::LeastLoaded => Box::new(LeastLoaded),
            DispatcherKind::EnergyAware => Box::new(EnergyAware),
            DispatcherKind::PhaseAware => Box::new(PhaseAware::default()),
        }
    }
}

/// One table row: a dispatcher crossed with a kernel scenario.
pub struct Case {
    /// Which dispatcher places jobs.
    pub dispatcher: DispatcherKind,
    /// Policy/dispatch mode, churn, preemption.
    pub scenario: Scenario,
}

impl Case {
    /// `dispatcher/policy/dispatch` row label (`+fb` when the
    /// observed-service feedback layer is on — see
    /// [`Scenario::label`]).
    pub fn label(&self) -> String {
        format!("{}/{}", self.dispatcher.name(), self.scenario.label())
    }
}

/// Run `cases` over one job stream, fanning the (independent) scenarios
/// out across OS threads. Each case gets a fresh policy cache: warm-up
/// happens *within* the stream, so the miss/hit trajectory is part of
/// the result.
pub fn run_cases(
    sim: &FleetSim,
    jobs: &[astro_fleet::JobSpec],
    staleness_limit: u32,
    cases: &[Case],
) -> Vec<(String, FleetOutcome)> {
    parallel_map(cases.len(), default_threads(), |i| {
        let case = &cases[i];
        let mut dispatcher = case.dispatcher.build();
        let mut cache = PolicyCache::new(staleness_limit);
        let out = sim.run(jobs, dispatcher.as_mut(), &mut cache, &case.scenario);
        (case.label(), out)
    })
}

/// The finished case labelled `dispatcher/policy/dispatch` — headline
/// comparisons select by identity, never by table position, so adding
/// or reordering cases cannot silently compare the wrong scenarios.
pub fn row<'a>(rows: &'a [(String, FleetOutcome)], label: &str) -> &'a FleetOutcome {
    &rows
        .iter()
        .find(|(l, _)| l == label)
        .unwrap_or_else(|| panic!("no case labelled {label:?}"))
        .1
}

/// Bitwise fingerprint of a run: FNV-1a over every outcome's placement
/// and float timeline bits plus the drop list, so a single last-ulp
/// divergence anywhere in the run flips the digest.
pub fn fingerprint(out: &FleetOutcome) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for o in &out.outcomes {
        fold(o.id as u64);
        fold(o.board as u64);
        fold(o.start_s.to_bits());
        fold(o.finish_s.to_bits());
        fold(o.service_s.to_bits());
        fold(o.energy_j.to_bits());
        fold(o.migrations as u64);
    }
    for d in &out.dropped {
        fold(d.id as u64);
        fold(d.reason as u64);
    }
    h
}

fn all_cases() -> Vec<Case> {
    vec![
        Case {
            dispatcher: DispatcherKind::LeastLoaded,
            scenario: Scenario::oracle(PolicyMode::Cold),
        },
        Case {
            dispatcher: DispatcherKind::LeastLoaded,
            scenario: Scenario::oracle(PolicyMode::Warm),
        },
        Case {
            dispatcher: DispatcherKind::EnergyAware,
            scenario: Scenario::oracle(PolicyMode::Warm),
        },
        Case {
            dispatcher: DispatcherKind::PhaseAware,
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
    ]
}

/// Print the standard fleet table for a set of finished cases.
pub fn print_table(rows: &[(String, FleetOutcome)]) {
    let mut t = TextTable::new(&[
        "dispatcher/policy/mode",
        "p50 (ms)",
        "p95 (ms)",
        "p99 (ms)",
        "p99/SLO",
        "SLO miss",
        "thr (job/s)",
        "energy (J)",
        "mean util",
        "cache h/m/st",
        "guard byp",
        "train (ms)",
    ]);
    for (label, out) in rows {
        let m = &out.metrics;
        t.row(vec![
            label.clone(),
            format!("{:.3}", m.p50_s * 1e3),
            format!("{:.3}", m.p95_s * 1e3),
            format!("{:.3}", m.p99_s * 1e3),
            format!("{:.2}", m.p99_slo_ratio),
            format!("{:.1}%", m.slo_miss_rate() * 100.0),
            format!("{:.1}", m.throughput_jps),
            format!("{:.4}", m.total_energy_j),
            format!("{:.2}", m.mean_util()),
            format!(
                "{}/{}/{}",
                out.cache.hits, out.cache.misses, out.cache.stale_refreshes
            ),
            format!("{}", out.guard_bypasses),
            format!("{:.2}", out.train_time_s * 1e3),
        ]);
    }
    t.print();
}

/// Run the fleet experiment on the default (cycle-accurate) backend.
pub fn run(size: InputSize, n_jobs: usize, n_boards: usize, seed: u64) {
    run_backend(size, n_jobs, n_boards, seed, BackendKind::Machine)
}

/// Run the fleet experiment on the given execution backend. The
/// machine backend is cycle-accurate; the replay backend prints one
/// extra calibration line and then the same tables, answered from
/// composed traces.
pub fn run_backend(
    size: InputSize,
    n_jobs: usize,
    n_boards: usize,
    seed: u64,
    backend: BackendKind,
) {
    println!("=== Fleet: {n_jobs} tenant jobs over {n_boards} boards (seed {seed}) ===\n");
    let cluster = ClusterSpec::heterogeneous(n_boards);
    let xu4 = (0..cluster.len()).filter(|&b| cluster.big_rich(b)).count();
    let mut params = FleetParams::new(seed);
    params.size = size;
    params.backend = backend;
    if backend != BackendKind::Machine {
        println!(
            "execution backend: {} (per-job runs answered by calibrated trace composition)\n",
            backend.name()
        );
    }
    params.train.episodes = 4;
    params.refresh_episodes = 2;
    // Latency-SLO-leaning reward for the cached policies: tenants pay
    // for tail latency, so γ is pushed past fig10's 3 — the validated
    // schedules keep compute phases at full width (no time regression)
    // and the energy win comes from downsizing blocked/IO phases.
    params.train.reward.gamma = 6.0;
    let pool = tenant_pool();

    // Calibrate the open-loop rate to ~85% fleet utilisation: queueing
    // must be live, or placement quality would be invisible.
    let mean_service = mean_cold_service_s(&cluster, &pool, &params);
    let rate = 0.85 * n_boards as f64 / mean_service;
    println!(
        "cluster: {xu4}x Odroid XU4 + {}x RK3399;  mean unloaded service {:.3} ms;  \
         arrival rate {:.1} jobs/s (target utilisation 0.85)\n",
        cluster.len() - xu4,
        mean_service * 1e3,
        rate
    );

    let sim = FleetSim::new(&cluster, params.clone());
    let staleness_limit = (n_jobs / 4).max(8) as u32;

    // --- Poisson (independent tenants) ----------------------------------
    println!("--- open-loop Poisson arrivals ---");
    let jobs = ArrivalProcess::Poisson {
        rate_jobs_per_s: rate,
    }
    .generate(n_jobs, &pool, size, (4.0, 8.0), seed);
    let rows = run_cases(&sim, &jobs, staleness_limit, &all_cases());
    print_table(&rows);

    let baseline = &row(&rows, "least-loaded/cold/oracle").metrics;
    let headline = &row(&rows, "phase-aware/warm/oracle").metrics;
    println!(
        "\nwarm phase-aware vs cold least-loaded (oracle):  p95 {:.2}x  p99 {:.2}x  \
         energy {:.2}x  SLO misses {} -> {}  — {}",
        headline.p95_s / baseline.p95_s,
        headline.p99_s / baseline.p99_s,
        headline.total_energy_j / baseline.total_energy_j,
        baseline.slo_misses,
        headline.slo_misses,
        if headline.p95_s < baseline.p95_s && headline.total_energy_j < baseline.total_energy_j {
            "OK (faster tail AND less energy)"
        } else {
            "UNEXPECTED"
        }
    );
    let online = &row(&rows, "phase-aware/warm/online").metrics;
    println!(
        "online  phase-aware/warm vs cold least-loaded (oracle):  p99 {:.2}x  p99/SLO {:.2} vs {:.2}",
        online.p99_s / baseline.p99_s,
        online.p99_slo_ratio,
        baseline.p99_slo_ratio,
    );

    // Per-architecture utilisation of the headline scenario.
    let util = &row(&rows, "phase-aware/warm/oracle").metrics.board_util;
    let arch_mean = |big_rich: bool| {
        let us: Vec<f64> = (0..cluster.len())
            .filter(|&b| cluster.big_rich(b) == big_rich)
            .map(|b| util[b])
            .collect();
        us.iter().sum::<f64>() / us.len().max(1) as f64
    };
    println!(
        "phase-aware/warm board utilisation:  XU4 mean {:.2}  RK3399 mean {:.2}",
        arch_mean(true),
        arch_mean(false)
    );

    // --- Bursty replay (coordinated spikes) -----------------------------
    println!("\n--- bursty arrivals (volleys of 16, same long-run rate) ---");
    let bursty_jobs = ArrivalProcess::Bursty {
        rate_jobs_per_s: rate,
        burst: 16,
        spread_s: mean_service * 0.5,
    }
    .generate(n_jobs / 2, &pool, size, (4.0, 8.0), seed ^ 0xB1257);
    let burst_cases = vec![
        Case {
            dispatcher: DispatcherKind::LeastLoaded,
            scenario: Scenario::oracle(PolicyMode::Cold),
        },
        Case {
            dispatcher: DispatcherKind::PhaseAware,
            scenario: Scenario::oracle(PolicyMode::Warm),
        },
        Case {
            dispatcher: DispatcherKind::PhaseAware,
            scenario: Scenario::online(PolicyMode::Warm),
        },
    ];
    let rows_b = run_cases(&sim, &bursty_jobs, staleness_limit, &burst_cases);
    print_table(&rows_b);
    println!(
        "\nburst tail: p99 {:.3} ms (cold LL oracle) vs {:.3} ms (warm PA oracle) vs \
         {:.3} ms (warm PA online)",
        row(&rows_b, "least-loaded/cold/oracle").metrics.p99_s * 1e3,
        row(&rows_b, "phase-aware/warm/oracle").metrics.p99_s * 1e3,
        row(&rows_b, "phase-aware/warm/online").metrics.p99_s * 1e3
    );
}
