//! Fleet chaos experiment: the seeded adversarial scenario the chaos
//! engine was built for — correlated rack outages, overlapping thermal
//! throttles, a dispatch blackout, a misprofile window and flash-crowd
//! + diurnal traffic, all hitting the same job stream at once.
//!
//! The claim under test is the paper's, pushed to its least favourable
//! regime: compiler-assisted adaptive scheduling must keep its edge
//! when runtime conditions diverge hard from profile-time assumptions.
//! The oracle baseline books against estimates that chaos has made
//! stale three different ways (capacity, speed, truthfulness); the
//! online kernel sees real queues, preemption rescues predicted
//! misses, and the observed-service feedback layer is the only
//! component that can repair the misprofiled estimates. The verdict
//! line *asserts* graceful degradation: online+feedback must hold
//! p99-vs-SLO and SLO-miss at or below the oracle-cold baseline.

use crate::figs::fleet::{
    mean_cold_service_s, print_table, row, run_cases, tenant_pool, Case, DispatcherKind,
};
use astro_fleet::{
    ArrivalProcess, BackendKind, ChaosSchedule, ClusterSpec, FleetParams, FleetSim, PolicyMode,
    Scenario,
};
use astro_workloads::InputSize;
use std::time::Instant;

/// Wall-clock simulation throughput (completed job-runs across all
/// five scenarios / total wall seconds) recorded for PR 8 in
/// `BENCH_fleet.json` under the CI configuration (`--quick`: 10k jobs,
/// 20 boards, replay backend). The chaos path exercises preemption,
/// redispatch, the misprofile repair loop and the chaos clause engine
/// on every event, so it regresses independently of the no-chaos hot
/// path `fleet_million --perf-gate` guards.
const PR8_QUICK_CHAOS_BASELINE_JPS: f64 = 76_000.0;

/// Allowed fractional regression against
/// [`PR8_QUICK_CHAOS_BASELINE_JPS`] before `--perf-gate` fails the
/// run. Wider than the `fleet_million` band: the quick configuration
/// finishes in ~0.6 s of wall clock, where scheduler jitter on the
/// single-core CI container alone spans ~63-80k job-runs/s run to
/// run, and real hot-path regressions cost multiples. Re-measured for
/// PR 9 (whose dispatch-index threshold leaves this 20-board leg on
/// the unchanged scan path): idle-host samples spanned 43-65k
/// job-runs/s across two days while `fleet_million --quick` swung
/// 228-348k on the same runs — pure host variation, so the band is
/// widened to 45% to keep the gate about code, not neighbours.
const CHAOS_PERF_GATE_TOLERANCE: f64 = 0.45;

/// The adversarial schedule, scaled to the stream's arrival horizon.
/// Every clause is seed-independent given the horizon, so the same
/// `(seed, jobs, boards)` always faces byte-identical chaos.
fn chaos_schedule(n_boards: usize, horizon: f64) -> ChaosSchedule {
    let rack_a: Vec<usize> = (0..n_boards).filter(|b| b % 10 < 2).collect();
    let rack_b: Vec<usize> = (0..n_boards).filter(|b| b % 10 == 2).collect();
    let blackout: Vec<usize> = (0..n_boards).filter(|b| b % 10 == 4).collect();
    // Correlated outages: rack A (20% of the fleet) dies early, rack B
    // (10%) dies inside the flash crowd, when the survivors' queues are
    // already deep. Then a blackout overlapping outage B: boards
    // visible, healthy, and unplaceable — capacity loss the liveness
    // bit cannot see. Fleets of four boards or fewer leave some of
    // these sets empty, and a clause over no boards is malformed, so
    // it is left out.
    let mut chaos = ChaosSchedule::new();
    if !rack_a.is_empty() {
        chaos = chaos.rack_outage(rack_a, 0.25 * horizon, 0.45 * horizon);
    }
    if !rack_b.is_empty() {
        chaos = chaos.rack_outage(rack_b, 0.50 * horizon, 0.65 * horizon);
    }
    if !blackout.is_empty() {
        chaos = chaos.blackout(blackout, 0.55 * horizon, 0.62 * horizon);
    }
    chaos = chaos
        // A fleet-wide misprofile window: every estimate made in the
        // middle half of the run is 4x too low. Only the feedback
        // EWMA can learn the truth back from observed completions.
        .misprofile(None, 0.25, 0.30 * horizon, 0.90 * horizon)
        // Traffic: a 3x flash crowd square on top of a diurnal swell,
        // timed over outage B.
        .flash_crowd(0.45, 0.60, 3.0)
        .diurnal(2.0, 0.4, 12);
    // Thermal throttling: every fifth board runs 3x slow for the
    // middle half of the run, and half of those also catch an
    // overlapping 2x window (composing to 6x) around the crowd peak.
    for b in (3..n_boards).step_by(5) {
        chaos = chaos.throttle(b, 3.0, 0.20 * horizon, 0.70 * horizon);
        if b % 10 == 3 {
            chaos = chaos.throttle(b, 2.0, 0.40 * horizon, 0.60 * horizon);
        }
    }
    chaos
}

/// Run the chaos experiment: `n_jobs` over `n_boards` under the
/// composed adversarial schedule, comparing oracle/online dispatch
/// with and without preemption and observed-service feedback.
/// Panics if online+feedback fails to degrade
/// gracefully versus the oracle-cold baseline. `perf_gate` turns the
/// printed wall-throughput comparison against the PR 8 baseline into
/// a hard assertion — CI passes it with the `--quick` configuration
/// the baseline was recorded at.
pub fn run(
    size: InputSize,
    n_jobs: usize,
    n_boards: usize,
    seed: u64,
    backend: BackendKind,
    perf_gate: bool,
) {
    println!(
        "=== Fleet chaos: {n_jobs} tenant jobs over {n_boards} boards under correlated \
         outages + throttles + blackout + misprofile + flash crowd (seed {seed}, backend {}) \
         ===\n",
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
    // Lower target utilisation than the churn figure: chaos removes
    // far more effective capacity than a 30% outage does.
    let rate = 0.7 * n_boards as f64 / mean_service;
    let arrivals = ArrivalProcess::Poisson {
        rate_jobs_per_s: rate,
    };
    // Fix the horizon from the unshaped stream, hang the chaos grid
    // off it, then generate the shaped stream — the warp preserves
    // the horizon, so the windows stay where the schedule put them.
    let horizon = arrivals
        .generate(n_jobs, &pool, size, (4.0, 8.0), seed)
        .last()
        .map(|j| j.arrival_s)
        .unwrap_or(0.0);
    let chaos = chaos_schedule(n_boards, horizon);
    let jobs = arrivals.generate_shaped(n_jobs, &pool, size, (4.0, 8.0), seed, &chaos.traffic);

    println!(
        "chaos over a {horizon:.3} s horizon ({} kernel clauses, {} traffic clauses), \
         arrival rate {rate:.1} jobs/s (pre-warp):",
        chaos.clauses.len(),
        chaos.traffic.len()
    );
    for i in 0..chaos.clauses.len() {
        println!("  {:?}", chaos.clause(i));
    }
    println!();

    let migration_cost = 0.05 * mean_service;
    let monitor = 2.0 * mean_service;
    let cases = vec![
        Case {
            dispatcher: DispatcherKind::LeastLoaded,
            scenario: Scenario::oracle(PolicyMode::Cold)
                .with_migration_cost(migration_cost)
                .with_chaos(chaos.clone()),
        },
        Case {
            dispatcher: DispatcherKind::PhaseAware,
            scenario: Scenario::oracle(PolicyMode::Warm)
                .with_migration_cost(migration_cost)
                .with_chaos(chaos.clone()),
        },
        Case {
            dispatcher: DispatcherKind::LeastLoaded,
            scenario: Scenario::online(PolicyMode::Cold)
                .with_migration_cost(migration_cost)
                .with_chaos(chaos.clone()),
        },
        Case {
            dispatcher: DispatcherKind::PhaseAware,
            scenario: Scenario::online(PolicyMode::Warm)
                .with_chaos(chaos.clone())
                .with_preemption(monitor, migration_cost, 2),
        },
        // The headline: everything the adaptive stack has — online
        // queues, preemptive rescue, and the EWMA repair loop that is
        // the only defence against the misprofile window.
        Case {
            dispatcher: DispatcherKind::PhaseAware,
            scenario: Scenario::online(PolicyMode::Warm)
                .with_chaos(chaos.clone())
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

    println!("\nchaos accounting (identical schedule for every scenario):");
    for (label, out) in &rows {
        let c = &out.chaos;
        println!(
            "  {label:<32} throttled starts {:>6}  max slowdown {:>5.1}x  misprofiled {:>6} \
             blackout drops {:>4}  dropped {:>4}",
            c.throttled_starts, c.max_slowdown, c.misprofiled, c.blackout_drops, out.kernel.dropped,
        );
    }
    let clauses = &rows[0].1.chaos.clauses;
    println!("\nper-clause (first scenario):");
    for c in clauses {
        println!(
            "  {:<40} events {:>5}  affected jobs {:>6}",
            c.label, c.events, c.affected_jobs
        );
    }

    let baseline = row(&rows, "least-loaded/cold/oracle");
    let headline = row(&rows, "phase-aware/warm/online+fb");
    let no_fb = row(&rows, "phase-aware/warm/online");
    let ok = headline.metrics.p99_slo_ratio <= baseline.metrics.p99_slo_ratio
        && headline.metrics.slo_miss_rate() <= baseline.metrics.slo_miss_rate();
    println!(
        "\nonline warm phase-aware +preemption+fb vs oracle cold least-loaded under chaos:  \
         p99/SLO {:.2} vs {:.2}  SLO miss {:.1}% vs {:.1}%  (without fb: p99/SLO {:.2}, \
         miss {:.1}%)  p99 {:.2}x  energy {:.2}x  — {}",
        headline.metrics.p99_slo_ratio,
        baseline.metrics.p99_slo_ratio,
        headline.metrics.slo_miss_rate() * 100.0,
        baseline.metrics.slo_miss_rate() * 100.0,
        no_fb.metrics.p99_slo_ratio,
        no_fb.metrics.slo_miss_rate() * 100.0,
        headline.metrics.p99_s / baseline.metrics.p99_s,
        headline.metrics.total_energy_j / baseline.metrics.total_energy_j,
        if ok {
            "OK (adaptive stack degrades gracefully where the oracle collapses)"
        } else {
            "UNEXPECTED"
        }
    );
    let fb = &headline.metrics.feedback;
    println!(
        "feedback accounting: {} samples;  mispredict rate {:.1}%;  mean |obs-pred|/pred {:.1}%",
        fb.samples,
        fb.mispredict_rate() * 100.0,
        fb.mean_abs_rel_err() * 100.0
    );
    println!(
        "throughput under chaos: {:.0} jobs/s simulated;  total wall time {wall:.2} s for {} \
         scenarios",
        headline.metrics.throughput_jps,
        rows.len()
    );

    // The perf gate (ROADMAP: hold the hot path): wall-clock job-runs
    // per second across all scenarios vs the throughput recorded in
    // BENCH_fleet.json. Advisory outside `--perf-gate` (and only
    // meaningful at the `--quick` configuration the baseline was
    // measured under).
    crate::perf_gate(
        "wall job-runs/s (PR 8 chaos)",
        (n_jobs * rows.len()) as f64 / wall,
        PR8_QUICK_CHAOS_BASELINE_JPS,
        CHAOS_PERF_GATE_TOLERANCE,
        perf_gate,
    );
    assert!(
        ok,
        "graceful-degradation contract violated: online+feedback p99/SLO {:.3} vs baseline \
         {:.3}, SLO miss {:.3} vs {:.3}",
        headline.metrics.p99_slo_ratio,
        baseline.metrics.p99_slo_ratio,
        headline.metrics.slo_miss_rate(),
        baseline.metrics.slo_miss_rate()
    );
}

#[cfg(test)]
mod tests {
    use super::chaos_schedule;

    /// The CLI accepts any fleet size from one board up; the composed
    /// schedule must be well formed at every small size, where some
    /// rack and blackout sets are empty.
    #[test]
    fn chaos_schedule_is_valid_for_small_fleets() {
        for n in 1..=12 {
            chaos_schedule(n, 1.0).validate(n);
        }
    }
}
