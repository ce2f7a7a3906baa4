//! Fleet scale ceiling: one million tenant jobs over five hundred
//! boards through the event kernel, with observed-service feedback
//! closing the dispatch loop.
//!
//! The kernel's per-arrival estimate work is O(architectures) and its
//! dispatch pick O(log boards), so wall clock grows with the job count,
//! not the fleet. The figure runs the scenario once with telemetry off
//! and reports:
//!
//! * simulation throughput, with the execution plane's advance count
//!   and completions per advance (how much work each barrier window
//!   carries);
//! * the price of the flight recorder, from a second leg with it on,
//!   checked bitwise against the untraced run;
//! * the feedback layer's mispredict accounting: how wrong profiled
//!   estimates were against observed service, and how much of that
//!   error the EWMA correction absorbed.
//!
//! All printed simulation metrics are seed-deterministic; wall-clock
//! timing varies with the machine.

use crate::figs::fleet::{fingerprint, mean_cold_service_s, tenant_pool};
use astro_fleet::{
    ArrivalProcess, BackendKind, ClusterSpec, FleetParams, FleetSim, FlightRecorder, PhaseAware,
    PolicyCache, PolicyMode, Scenario, TraceLevel,
};
use astro_workloads::InputSize;
use std::time::Instant;

/// Telemetry-off simulation throughput recorded for PR 8 in
/// `BENCH_fleet.json` under the CI configuration (`--quick`: 50k jobs,
/// 100 boards, replay backend). The perf gate holds this
/// figure's hot path to within [`PERF_GATE_TOLERANCE`] of it.
const PR8_QUICK_BASELINE_JPS: f64 = 350_000.0;

/// Telemetry-off simulation throughput recorded for PR 9 in
/// `BENCH_fleet.json` under the CI mid configuration (`--gate`: 200k
/// jobs, 2000 boards, replay backend). Before the
/// indexed dispatch path this configuration was dominated by the
/// O(boards) pick per arrival; the gate holds the O(log B) claim at a
/// board count where backsliding to a linear pick would roughly halve
/// the number.
const PR9_GATE_BASELINE_JPS: f64 = 140_000.0;

/// The `--gate` CI configuration (jobs, boards) —
/// [`PR9_GATE_BASELINE_JPS`] was measured here, so the gate compares
/// against it for exactly this shape and the quick baseline otherwise.
const GATE_CONFIG: (usize, usize) = (200_000, 2_000);

/// Allowed fractional regression for the `--gate` leg. Wider than
/// [`PERF_GATE_TOLERANCE`]: the leg runs ~1.5 s of wall on the
/// single-core CI container, where neighbour bursts are worth -35% on
/// a bad sample, and the regression this gate exists to catch — the
/// indexed pick backsliding into a linear scan — costs ~3x at 2000
/// boards (to ~50k jobs/s, far below the floor this leaves).
const GATE_TOLERANCE: f64 = 0.30;

/// Allowed fractional regression against the selected baseline
/// before the `--perf-gate` verdict fails the run. Wider than the 2%
/// band the PR 7 gate used: at ~0.14 s of wall per quick leg the
/// single-core CI container's scheduling jitter alone is worth several
/// percent, and the gate exists to catch hot-path regressions (which
/// historically cost 2-10x, not 10%), not to flake on timer noise.
/// Re-widened from 10% for PR 9 after back-to-back idle-host samples
/// of the *same binary* spanned 227-348k jobs/s (noisy-neighbour
/// bursts worth -35%); the floor this leaves, ~227k, still sits far
/// above what any historical hot-path regression would produce.
const PERF_GATE_TOLERANCE: f64 = 0.35;

/// Run the million-job experiment: `n_jobs` over `n_boards` on
/// `backend` with telemetry off, then a second leg with the flight
/// recorder on at `trace_level` to price the telemetry overhead
/// (fingerprint-checked against the untraced run). `perf_gate` turns
/// the printed baseline comparison into a hard assertion — CI passes
/// it at the `--quick` and `--gate` configurations the recorded
/// baselines were measured at.
pub fn run(
    size: InputSize,
    n_jobs: usize,
    n_boards: usize,
    seed: u64,
    backend: BackendKind,
    trace_level: TraceLevel,
    perf_gate: bool,
) {
    println!(
        "=== Fleet million: {n_jobs} tenant jobs over {n_boards} boards \
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
         arrival rate {:.1} jobs/s (target utilisation 0.85)",
        mean_service * 1e3,
        rate
    );

    let t0 = Instant::now();
    let jobs = ArrivalProcess::Poisson {
        rate_jobs_per_s: rate,
    }
    .generate(n_jobs, &pool, size, (4.0, 8.0), seed);
    println!(
        "stream: {n_jobs} jobs generated in {:.2} s;  horizon {:.2} s of virtual time\n",
        t0.elapsed().as_secs_f64(),
        jobs.last().map(|j| j.arrival_s).unwrap_or(0.0)
    );

    // The headline scenario: warm policies, online dispatch, and the
    // observed-service feedback loop closed.
    let scenario = Scenario::online(PolicyMode::Warm).with_feedback();
    let staleness = (n_jobs / 4).max(8) as u32;

    // One simulator, so one replay backend, for both legs. Every (pool
    // workload, architecture) pair is calibrated here, before either
    // leg is timed, so both legs measure the same hot path.
    let sim = FleetSim::new(&cluster, params);
    if let Some(replay) = sim.replay_handle() {
        let t0 = Instant::now();
        for key in cluster.arch_keys() {
            let board = cluster.representative_board(key);
            for w in &pool {
                replay.calibrate(w.name, &(w.build)(size), board);
            }
        }
        println!(
            "replay calibration: {} trace sets in {:.2} s, outside the timed legs\n",
            replay.stats().calibrations,
            t0.elapsed().as_secs_f64()
        );
    }
    let mut cache = PolicyCache::new(staleness);
    let t0 = Instant::now();
    let base = sim.run(&jobs, &mut PhaseAware::default(), &mut cache, &scenario);
    let wall = t0.elapsed().as_secs_f64();
    let k = base.kernel;
    println!(
        "telemetry off ({} advances, {:.2} completions per advance, {} messages): \
         {wall:>6.2} s wall  ({:.1} k jobs/s of simulation throughput)\n",
        k.advances,
        k.completions as f64 / k.advances.max(1) as f64,
        k.messages,
        n_jobs as f64 / wall / 1e3
    );

    // Telemetry leg: the same configuration with the flight recorder
    // on. At `ticks` (the default) this prices the counter registry
    // and per-tick gauge walk without retaining per-job trace events —
    // the right level for a million-job run; `--trace-level full`
    // would hold millions of spans in memory.
    let mut cache = PolicyCache::new(staleness);
    let mut recorder = FlightRecorder::new(trace_level);
    let t0 = Instant::now();
    let traced = sim.run_traced(
        &jobs,
        &mut PhaseAware::default(),
        &mut cache,
        &scenario,
        &mut recorder,
    );
    let wall_t = t0.elapsed().as_secs_f64();
    let telemetry_identical = fingerprint(&base) == fingerprint(&traced);
    println!(
        "telemetry '{}' ({} windows, {} digest samples): {wall_t:>6.2} s wall  ({:.1} k jobs/s; \
         {:+.1}% vs telemetry off);  outcomes {}",
        recorder.level().name(),
        recorder.windows().len(),
        traced.stream.jobs,
        n_jobs as f64 / wall_t / 1e3,
        (wall_t / wall - 1.0) * 100.0,
        if telemetry_identical {
            "IDENTICAL with tracing on"
        } else {
            "DIVERGED — telemetry perturbed the simulation"
        }
    );
    assert!(
        telemetry_identical,
        "telemetry must never perturb the simulation"
    );

    // The perf gate (ROADMAP: hold the hot path): the telemetry-off
    // leg vs the throughput recorded in BENCH_fleet.json.
    // Advisory outside `--perf-gate`, and only meaningful at the two
    // configurations a baseline was measured under: `--quick` (the PR
    // 8 smoke floor) and `--gate` (the PR 9 mid leg that prices the
    // indexed dispatch path at 2000 boards).
    let (baseline, baseline_name, tolerance) = if (n_jobs, n_boards) == GATE_CONFIG {
        (PR9_GATE_BASELINE_JPS, "PR 9 gate", GATE_TOLERANCE)
    } else {
        (PR8_QUICK_BASELINE_JPS, "PR 8 quick", PERF_GATE_TOLERANCE)
    };
    crate::perf_gate(
        &format!("telemetry-off jobs/s ({baseline_name})"),
        n_jobs as f64 / wall,
        baseline,
        tolerance,
        perf_gate,
    );

    let m = &base.metrics;
    println!(
        "\nphase-aware/warm/online+fb over {} completed jobs:  p50 {:.3} ms  p95 {:.3} ms  \
         p99 {:.3} ms  p99/SLO {:.2}  SLO miss {:.1}%  energy {:.1} J  mean util {:.2}",
        m.jobs,
        m.p50_s * 1e3,
        m.p95_s * 1e3,
        m.p99_s * 1e3,
        m.p99_slo_ratio,
        m.slo_miss_rate() * 100.0,
        m.total_energy_j,
        m.mean_util()
    );
    println!(
        "policy cache: {} hits / {} misses / {} refreshes;  calibrations {};  \
         guard bypasses {}",
        base.cache.hits,
        base.cache.misses,
        base.cache.stale_refreshes,
        base.calibrations,
        base.guard_bypasses
    );
    let fb = &m.feedback;
    println!(
        "observed-service feedback: {} samples;  mispredict rate {:.1}% (band 25%);  \
         mean |observed-predicted|/predicted {:.1}%;  {} rejected",
        fb.samples,
        fb.mispredict_rate() * 100.0,
        fb.mean_abs_rel_err() * 100.0,
        fb.rejected
    );
    println!(
        "kernel: {} events;  {} arrivals;  {} completions;  dropped {} \
         (no-board-up {}, migration-cap {})",
        k.events, k.arrivals, k.completions, k.dropped, k.dropped_no_board, k.dropped_migration_cap
    );
}
