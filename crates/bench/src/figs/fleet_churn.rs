//! Fleet churn experiment: online dispatch, preemptive redispatch and
//! board churn — the scenarios only the event-driven kernel can
//! express.
//!
//! The cluster serves an open-loop Poisson stream at ~85% target
//! utilisation; partway through, ~30% of the boards (a mix of both
//! architectures) leave the fleet, their queued work is redistributed
//! through the dispatcher, and they return after the trough. Four
//! scenarios face the identical churn schedule:
//!
//! * `least-loaded/cold/oracle` — the batch-planner baseline: blind
//!   accumulators, stock binaries;
//! * `phase-aware/warm/oracle` — better placement + cached policies,
//!   still blind to the live cluster;
//! * `least-loaded/cold/online` — live queue feedback alone;
//! * `phase-aware/warm/online + preemption` — the headline: live
//!   feedback, cached policies, *and* SLO-driven migration of queued
//!   jobs off predicted-miss boards (each migration pays a configurable
//!   cost).
//!
//! Expected shape: the headline beats the baseline on p99-vs-SLO —
//! during the outage the oracle keeps booking against stale estimates
//! and strands its queues, while the online kernel sees the real
//! backlog, and the monitor rescues the tail it cannot avoid.

use crate::figs::fleet::{
    mean_cold_service_s, print_table, row, run_cases, tenant_pool, Case, DispatcherKind,
};
use astro_fleet::{
    ArrivalProcess, BackendKind, ChurnEvent, ClusterSpec, FleetParams, FleetSim, PolicyMode,
    Scenario,
};
use astro_workloads::InputSize;
use std::time::Instant;

/// Boards taken down in the trough, in two waves hitting both
/// architectures of an alternating XU4/RK3399 cluster: wave 1 (20% of
/// the fleet, indices `0, 1, 10, 11, …`) leaves while the cluster is
/// still healthy; wave 2 (10%, indices `2, 12, …`) leaves mid-overload,
/// when the survivors' queues are already deep — which is what makes
/// queue redistribution visible.
fn churn_waves(n_boards: usize) -> (Vec<usize>, Vec<usize>) {
    (
        (0..n_boards).filter(|b| b % 10 < 2).collect(),
        (0..n_boards).filter(|b| b % 10 == 2).collect(),
    )
}

/// Run the churn experiment: `n_jobs` over `n_boards` with a mid-run
/// outage of ~30% of the fleet, comparing oracle/online dispatch with
/// and without preemptive redispatch, plus the observed-service
/// feedback layer on top of the headline.
pub fn run(size: InputSize, n_jobs: usize, n_boards: usize, seed: u64, backend: BackendKind) {
    println!(
        "=== Fleet churn: {n_jobs} tenant jobs over {n_boards} boards with a mid-run \
         outage (seed {seed}, backend {}) ===\n",
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
    let jobs = ArrivalProcess::Poisson {
        rate_jobs_per_s: rate,
    }
    .generate(n_jobs, &pool, size, (4.0, 8.0), seed);
    let horizon = jobs.last().map(|j| j.arrival_s).unwrap_or(0.0);

    // The outage: wave 1 leaves at 30% of the arrival horizon, wave 2
    // at 50% (mid-overload, queues deep), everyone returns at 70%.
    let (wave1, wave2) = churn_waves(n_boards);
    let mut churn: Vec<ChurnEvent> = Vec::new();
    churn.extend(wave1.iter().map(|&b| ChurnEvent {
        time_s: 0.3 * horizon,
        board: b,
        up: false,
    }));
    churn.extend(wave2.iter().map(|&b| ChurnEvent {
        time_s: 0.5 * horizon,
        board: b,
        up: false,
    }));
    churn.extend(wave1.iter().chain(&wave2).map(|&b| ChurnEvent {
        time_s: 0.7 * horizon,
        board: b,
        up: true,
    }));
    println!(
        "outage: boards {wave1:?} down from {:.3} s, boards {wave2:?} down from {:.3} s \
         (mid-overload), all back at {:.3} s of a {:.3} s horizon;\n\
         arrival rate {:.1} jobs/s;  migration cost {:.1} µs;  monitor every {:.1} µs\n",
        0.3 * horizon,
        0.5 * horizon,
        0.7 * horizon,
        horizon,
        rate,
        0.05 * mean_service * 1e6,
        2.0 * mean_service * 1e6,
    );

    let migration_cost = 0.05 * mean_service;
    let monitor = 2.0 * mean_service;
    let cases = vec![
        Case {
            dispatcher: DispatcherKind::LeastLoaded,
            scenario: Scenario::oracle(PolicyMode::Cold)
                .with_migration_cost(migration_cost)
                .with_churn(churn.clone()),
        },
        Case {
            dispatcher: DispatcherKind::PhaseAware,
            scenario: Scenario::oracle(PolicyMode::Warm)
                .with_migration_cost(migration_cost)
                .with_churn(churn.clone()),
        },
        Case {
            dispatcher: DispatcherKind::LeastLoaded,
            scenario: Scenario::online(PolicyMode::Cold)
                .with_migration_cost(migration_cost)
                .with_churn(churn.clone()),
        },
        Case {
            dispatcher: DispatcherKind::PhaseAware,
            scenario: Scenario::online(PolicyMode::Warm)
                .with_churn(churn.clone())
                .with_preemption(monitor, migration_cost, 2),
        },
        // The headline plus the observed-service feedback layer:
        // completions correct the profiled estimates every later
        // dispatch and preemption prediction prices from.
        Case {
            dispatcher: DispatcherKind::PhaseAware,
            scenario: Scenario::online(PolicyMode::Warm)
                .with_churn(churn.clone())
                .with_preemption(monitor, migration_cost, 2)
                .with_feedback(),
        },
    ];

    let sim = FleetSim::new(&cluster, params.clone());
    let staleness = (n_jobs / 4).max(8) as u32;
    let t0 = Instant::now();
    let rows = run_cases(&sim, &jobs, staleness, &cases);
    let wall = t0.elapsed().as_secs_f64();
    print_table(&rows);

    println!("\nkernel accounting (identical churn for every scenario):");
    for (label, out) in &rows {
        let k = &out.kernel;
        println!(
            "  {label:<32} events {:>8}  migrations {:>5}  redistributed {:>5}  dropped {:>4} \
             (no-board {:>3} / cap {:>3})  ticks {:>6}",
            k.events,
            k.migrations,
            k.redistributions,
            k.dropped,
            k.dropped_no_board,
            k.dropped_migration_cap,
            k.ticks
        );
    }

    let baseline = row(&rows, "least-loaded/cold/oracle");
    let headline = row(&rows, "phase-aware/warm/online");
    let ok = headline.metrics.p99_slo_ratio <= baseline.metrics.p99_slo_ratio
        && headline.metrics.slo_miss_rate() <= baseline.metrics.slo_miss_rate();
    println!(
        "\nonline warm phase-aware (+preemption) vs oracle cold least-loaded under churn:  \
         p99/SLO {:.2} vs {:.2}  SLO miss {:.1}% vs {:.1}%  p99 {:.2}x  energy {:.2}x  — {}",
        headline.metrics.p99_slo_ratio,
        baseline.metrics.p99_slo_ratio,
        headline.metrics.slo_miss_rate() * 100.0,
        baseline.metrics.slo_miss_rate() * 100.0,
        headline.metrics.p99_s / baseline.metrics.p99_s,
        headline.metrics.total_energy_j / baseline.metrics.total_energy_j,
        if ok {
            "OK (online + preemption wins the tail)"
        } else {
            "UNEXPECTED"
        }
    );

    // The feedback layer must never make the headline worse than the
    // cold baseline on the tail-vs-deadline headline metric.
    let fed = row(&rows, "phase-aware/warm/online+fb");
    let fb = &fed.metrics.feedback;
    println!(
        "with observed-service feedback:  p99/SLO {:.2} (vs {:.2} without, {:.2} cold baseline)  \
         SLO miss {:.1}%  — {}",
        fed.metrics.p99_slo_ratio,
        headline.metrics.p99_slo_ratio,
        baseline.metrics.p99_slo_ratio,
        fed.metrics.slo_miss_rate() * 100.0,
        if fed.metrics.p99_slo_ratio <= baseline.metrics.p99_slo_ratio {
            "OK (no worse than cold on p99-vs-SLO)"
        } else {
            "UNEXPECTED"
        }
    );
    println!(
        "feedback accounting: {} samples;  mispredict rate {:.1}%;  \
         mean |obs-pred|/pred {:.1}%",
        fb.samples,
        fb.mispredict_rate() * 100.0,
        fb.mean_abs_rel_err() * 100.0
    );
    println!("total wall time: {wall:.2} s for {} scenarios", rows.len());
}
