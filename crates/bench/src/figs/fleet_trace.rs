//! Flight-recorder showcase: the fleet_churn-shaped scenario run with
//! full tracing on, emitting a Chrome-trace/Perfetto JSON timeline plus
//! a per-window table of the streaming aggregates.
//!
//! The figure is also the recorder's acceptance harness. It runs the
//! identical scenario twice — telemetry off, then telemetry on at the
//! requested level — and asserts:
//!
//! * the two outcome fingerprints are **bitwise identical** (telemetry
//!   reads kernel state, never perturbs it);
//! * the emitted trace is well-formed JSON (checked by the crate's own
//!   validator, no JSON dependency), holds enough spans to be useful,
//!   and its sim timestamps are monotone;
//! * the kernel's *streaming* p50/p95/p99
//!   ([`FleetOutcome::stream`](astro_fleet::FleetOutcome::stream)) agree with the post-hoc
//!   [`FleetMetrics`](astro_fleet::FleetMetrics) percentiles on the
//!   same run to within one digest bucket (a factor of
//!   [`DIGEST_GROWTH`]) — the contract that lets the resident kernel
//!   drop the retained outcome vector.
//!
//! To look at the timeline: open <https://ui.perfetto.dev> and load the
//! emitted `trace.json` (or `chrome://tracing` in a Chromium browser).
//! Track 0 is the control plane (dispatch decisions, ticks, churn and
//! chaos edges), track 1 the shard advance windows, track 2 the
//! completion stream. All timestamps are microseconds of *sim* time.

use crate::figs::fleet::{fingerprint, mean_cold_service_s, tenant_pool, DispatcherKind};
use astro_fleet::{
    ArrivalProcess, BackendKind, ChaosSchedule, ChurnEvent, ClusterSpec, FleetParams, FleetSim,
    FlightRecorder, PolicyCache, PolicyMode, Scenario, TraceLevel, DIGEST_GROWTH,
};
use astro_workloads::InputSize;
use std::path::Path;
use std::time::Instant;

/// Run the flight-recorder figure: `n_jobs` over `n_boards` through
/// the headline churn + preemption + feedback scenario with a light
/// chaos garnish (throttle, blackout, misprofile, flash crowd), traced
/// at `level`, writing Chrome-trace JSON to `trace_path`.
pub fn run(
    size: InputSize,
    n_jobs: usize,
    n_boards: usize,
    seed: u64,
    backend: BackendKind,
    level: TraceLevel,
    trace_path: &Path,
) {
    println!(
        "=== Fleet trace: flight recorder at level '{}' over {n_jobs} jobs / {n_boards} boards \
         (seed {seed}, backend {}) ===\n",
        level.name(),
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

    // A flash crowd concentrates arrivals mid-run; the chaos windows
    // below land inside it so the trace shows the fleet under combined
    // pressure. The warp preserves the horizon, so absolute windows
    // can be derived from the plain stream's last arrival.
    let chaos = ChaosSchedule::new().flash_crowd(0.35, 0.6, 2.5);
    let jobs = ArrivalProcess::Poisson {
        rate_jobs_per_s: rate,
    }
    .generate_shaped(n_jobs, &pool, size, (4.0, 8.0), seed, &chaos.traffic);
    let horizon = jobs.last().map(|j| j.arrival_s).unwrap_or(0.0);

    let chaos = chaos
        .throttle(1 % n_boards, 3.0, 0.35 * horizon, 0.55 * horizon)
        .throttle(n_boards - 1, 2.0, 0.4 * horizon, 0.6 * horizon)
        .blackout(vec![0, 3 % n_boards], 0.45 * horizon, 0.55 * horizon)
        .misprofile(None, 1.8, 0.2 * horizon, 0.5 * horizon);

    // The fleet_churn outage shape: two down-waves, everyone back.
    let wave1: Vec<usize> = (0..n_boards).filter(|b| b % 10 < 2).collect();
    let wave2: Vec<usize> = (0..n_boards).filter(|b| b % 10 == 2).collect();
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

    let migration_cost = 0.05 * mean_service;
    let monitor = 2.0 * mean_service;
    let scenario = Scenario::online(PolicyMode::Warm)
        .with_churn(churn)
        .with_preemption(monitor, migration_cost, 2)
        .with_feedback()
        .with_chaos(chaos);
    println!(
        "scenario: {} + churn ({} boards out mid-run) + throttle/blackout/misprofile windows;  \
         horizon {horizon:.2} s;  monitor every {:.1} µs",
        scenario.label(),
        wave1.len() + wave2.len(),
        monitor * 1e6,
    );

    let sim = FleetSim::new(&cluster, params);
    let staleness = (n_jobs / 4).max(8) as u32;
    let dispatcher = DispatcherKind::PhaseAware;

    // Leg 1: telemetry off — the reference outcome.
    let mut cache = PolicyCache::new(staleness);
    let t0 = Instant::now();
    let base = sim.run(&jobs, &mut *dispatcher.build(), &mut cache, &scenario);
    let wall_off = t0.elapsed().as_secs_f64();

    // Leg 2: identical inputs, recorder on.
    let mut recorder = FlightRecorder::new(level);
    let mut cache = PolicyCache::new(staleness);
    let t0 = Instant::now();
    let traced = sim.run_traced(
        &jobs,
        &mut *dispatcher.build(),
        &mut cache,
        &scenario,
        &mut recorder,
    );
    let wall_on = t0.elapsed().as_secs_f64();

    let identical = fingerprint(&base) == fingerprint(&traced);
    println!(
        "\ntelemetry off {wall_off:.2} s / on {wall_on:.2} s wall;  outcomes {}",
        if identical {
            "IDENTICAL with tracing on vs off (bitwise fingerprint match)"
        } else {
            "DIVERGED — telemetry perturbed the simulation"
        }
    );
    assert!(identical, "telemetry must never perturb the simulation");

    // The per-window timeline: streaming aggregates at monitor ticks.
    let windows = recorder.windows();
    println!(
        "\nper-window timeline ({} monitor ticks; showing <= 24):",
        windows.len()
    );
    println!(
        "  {:>9}  {:>6}  {:>9}  {:>7}  {:>5}  {:>6}  {:>10}  {:>7}  {:>7}",
        "t (s)", "done", "p99 (ms)", "miss%", "util", "queue", "backlog(s)", "fb-err%", "up/ok"
    );
    let step = windows.len().div_ceil(24).max(1);
    for w in windows.iter().step_by(step) {
        println!(
            "  {:>9.3}  {:>6}  {:>9.3}  {:>7.1}  {:>5.2}  {:>6}  {:>10.3}  {:>7.1}  {:>4}/{}",
            w.t_s,
            w.completions,
            w.p99_s * 1e3,
            w.slo_miss_rate * 100.0,
            w.mean_util,
            w.queue_depth,
            w.backlog_s,
            w.feedback_mean_abs_rel_err * 100.0,
            w.boards_up,
            w.boards_placeable,
        );
    }

    // Counts come from the kernel; the recorder owns only its window
    // count.
    let k = &traced.kernel;
    println!("\ncounters:");
    for (name, n) in [
        ("dispatches", k.dispatches()),
        ("drops", k.dropped),
        ("ticks", k.ticks),
        ("board_downs", k.board_downs),
        ("board_ups", k.board_ups),
        ("chaos_events", k.chaos_events),
        ("advance_windows", recorder.advance_windows()),
    ] {
        println!("  {name:<16} {n}");
    }

    // Wall-clock phase profile — machine time, machine-dependent by
    // construction; excluded from goldens and fingerprints.
    let wall = recorder.wall();
    println!(
        "\nwall-clock phases (machine-dependent, not part of any golden):\n  \
         control plane {:.3} s;  shard advances {:.3} s;  barrier merges {:.3} s;  \
         total {:.3} s",
        wall.control_s(),
        wall.shard_advance_s,
        wall.barrier_merge_s,
        wall.total_s
    );

    // Emit and verify the Chrome trace.
    let json = recorder.render_chrome_trace();
    std::fs::write(trace_path, &json).expect("trace file writes");
    let parsed = astro_fleet::validate_json(&json);
    let monotone = recorder.timestamps_monotone();
    let n_events = recorder.events().len();
    println!(
        "\ntrace: {} events, {:.1} KiB -> {}  (JSON {}; sim timestamps {})",
        n_events,
        json.len() as f64 / 1024.0,
        trace_path.display(),
        if parsed.is_ok() { "valid" } else { "INVALID" },
        if monotone { "monotone" } else { "OUT OF ORDER" },
    );
    parsed.expect("emitted Chrome trace must be well-formed JSON");
    assert!(monotone, "trace timestamps must be non-decreasing sim time");
    // Spans only exist from `--trace-level spans` up; at `off`/`ticks`
    // an (empty or near-empty) trace file is the correct answer.
    if recorder.wants_spans() {
        assert!(
            n_events > 100,
            "expected a useful trace, got {n_events} events"
        );
    }

    // Streaming digest vs post-hoc metrics: within one log bucket. The
    // kernel folds every run into its streaming aggregate, whatever the
    // trace level; the recorder's tick gauges read from it.
    let m = &traced.metrics;
    let sum = &traced.stream;
    println!("\nstreaming digest vs post-hoc FleetMetrics (must agree within one bucket):");
    for (q, exact, est) in [
        (50.0, m.p50_s, sum.digest_p50_s),
        (95.0, m.p95_s, sum.digest_p95_s),
        (99.0, m.p99_s, sum.digest_p99_s),
    ] {
        let ok = est >= exact * (1.0 - 1e-9) && est <= exact * DIGEST_GROWTH * (1.0 + 1e-9);
        println!(
            "  p{q:<4} streamed {:>9.3} ms  exact {:>9.3} ms  ratio {:.4}  {}",
            est * 1e3,
            exact * 1e3,
            est / exact,
            if ok { "OK" } else { "OUT OF BUCKET" }
        );
        assert!(
            ok,
            "streamed p{q} = {est} vs exact {exact}: outside one digest bucket"
        );
    }
    assert_eq!(
        sum.jobs as usize, m.jobs,
        "the aggregate must fold exactly the completed jobs"
    );
    println!(
        "\nverdict: OK — tracing is outcome-invariant, the trace parses, and the streaming \
         digests match the post-hoc percentiles ({} completions, {} dropped, SLO miss {:.1}%)",
        m.jobs,
        traced.dropped.len(),
        m.slo_miss_rate() * 100.0
    );
}
