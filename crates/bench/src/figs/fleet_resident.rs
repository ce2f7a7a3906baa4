//! Resident service mode: the streaming kernel at horizons the batch
//! design cannot reach — 100M jobs over 5000 boards in O(boards)
//! memory by default, with a mid-run checkpoint priced and, at CI
//! scale, a full checkpoint → kill → resume cycle proven bit-identical.
//!
//! Four legs:
//!
//! * **Streamed headline**: a [`GenCursor`] pulls the seeded arrival
//!   stream one job at a time and outcomes are folded into streaming
//!   digests as they complete — no materialised `Vec<JobSpec>`, no
//!   retained `Vec<JobOutcome>`. Mid-run the kernel checkpoints itself
//!   (the serialised image is asserted O(boards)) and keeps running —
//!   taking a checkpoint must not perturb the run. Peak RSS (`VmHWM`)
//!   is read from the kernel's own process and asserted against an
//!   O(boards) budget that does **not** scale with the job count: the
//!   retained design at 100M jobs would hold gigabytes of outcomes
//!   before metrics were even computed.
//! * **Checkpoint → kill → resume** (CI scale): the headline leg's
//!   mid-run image is restored into a fresh
//!   simulator/cursor/dispatcher/cache and run to completion — the
//!   resumed fingerprint, execution-plane counters included, must
//!   equal an uninterrupted reference bit for bit. Skipped above 1M jobs
//!   (the property is scale-invariant and priced by the proptest
//!   suite; the full leg proves memory, not bitwise identity).
//! * **Retained comparison** (≤ 1M jobs): the same scenario through
//!   the batch path, pricing what retention costs and checking the two
//!   modes agree exactly on completions and makespan.
//! * **Long horizon**: simulated *days* of diurnal traffic with a
//!   chaos schedule layered on top — the figure the ROADMAP names as
//!   impossible in the batch design. Reported from the stream summary
//!   alone.
//!
//! All simulation results are seed-deterministic; wall clock, RSS and
//! the advance counters vary with the host.

use crate::figs::fleet::{mean_cold_service_s, tenant_pool};
use astro_core::replay::ReplayExecutor;
use astro_fleet::{
    ArrivalProcess, BackendKind, ChaosSchedule, ChurnEvent, ClusterSpec, FleetOutcome, FleetParams,
    FleetSim, FlightRecorder, GenCursor, PhaseAware, PolicyCache, PolicyMode, Scenario,
};
use astro_workloads::InputSize;
use std::sync::Arc;
use std::time::Instant;

/// Streaming (retention-off) throughput recorded for PR 10 in
/// `BENCH_fleet.json` under the CI configuration (`--quick`: 50k jobs,
/// 100 boards, replay backend). The streaming path runs the same
/// kernel as the batch path minus outcome retention, so the floor sits
/// at the PR 8/9 batch level.
const PR10_QUICK_BASELINE_JPS: f64 = 300_000.0;

/// Allowed fractional regression before `--perf-gate` fails the run —
/// the same wide band `fleet_million` uses, for the same reason:
/// back-to-back idle-host samples of one binary have spanned ±35% on
/// the single-core CI container, while the regressions the gate exists
/// to catch cost 2–10x.
const PERF_GATE_TOLERANCE: f64 = 0.35;

/// Peak-RSS budget: a fixed base (binary, calibration tables, policy
/// cache, digests) plus a per-board allowance covering queues, arenas,
/// the dispatch index and checkpoint scratch. Set to about 4x the
/// measured `VmHWM` (release build, 2-vCPU x86-64 Linux VM: 6 MiB at
/// `--quick`, 100 boards; 13-14 MiB at `--jobs 1000000 --boards 5000`),
/// so a per-job leak fails the run: ~40 bytes per job at a million
/// jobs, under one byte per job at the 100M-job default. The retained
/// design this mode replaces holds ~56 bytes per outcome.
const RSS_BASE_MIB: f64 = 26.0;
const RSS_PER_BOARD_MIB: f64 = 0.006;

/// Checkpoint-image budget: base sections (header, cursor, stream
/// digests, policy cache, counters) plus per-board queue/arena state.
/// Queues are O(boards) in expectation at sub-unit utilisation. Set to
/// about 4x the measured image (451,444 bytes at `--quick`, 100
/// boards; 1,207,274 bytes, ~241 B/board, at `--jobs 1000000 --boards
/// 5000`), which fits a ~426 KiB base plus ~154 B/board.
const CKPT_BASE_BYTES: usize = 1792 << 10;
const CKPT_PER_BOARD_BYTES: usize = 640;

/// The checkpoint → kill → resume cycle runs the scenario 2 + 1 times;
/// above this job count the full leg proves the memory claim instead
/// and bitwise identity rides on the proptest suite and CI smoke.
const CYCLE_MAX_JOBS: usize = 1_000_000;

/// Peak resident-set size of this process so far, MiB (`VmHWM` from
/// `/proc/self/status`; 0.0 where unavailable, which disables the RSS
/// assertion rather than failing spuriously off-Linux).
fn peak_rss_mib() -> f64 {
    let Ok(s) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in s.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            if let Some(kb) = rest
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<f64>().ok())
            {
                return kb / 1024.0;
            }
        }
    }
    0.0
}

/// The fingerprint of a streaming run: metrics, stream summary,
/// chaos/cache/drop accounting and every kernel counter, the
/// execution plane's messages and advances included.
fn fingerprint(out: &FleetOutcome) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{}",
        out.metrics,
        out.kernel,
        out.chaos,
        out.stream,
        out.dropped,
        out.guard_bypasses,
        out.train_time_s.to_bits(),
        out.train_energy_j.to_bits(),
    )
}

/// A simulator adopting the shared replay calibration cache when one
/// exists (bit-neutral; see [`FleetSim::replay_handle`]).
fn sim_with<'c>(
    cluster: &'c ClusterSpec,
    params: &FleetParams,
    shared: &Option<Arc<ReplayExecutor>>,
) -> FleetSim<'c> {
    match shared {
        Some(r) => FleetSim::with_replay(cluster, params.clone(), r.clone()),
        None => FleetSim::new(cluster, params.clone()),
    }
}

/// One streaming run: fresh cursor/dispatcher/cache over a shared
/// simulator, optionally checkpointing after `ckpt_at` control steps.
/// Returns the outcome, the wall clock, and the checkpoint image (when
/// requested).
fn streamed_run(
    sim: &FleetSim,
    mk_cursor: &dyn Fn() -> GenCursor,
    scenario: &Scenario,
    staleness: u32,
    ckpt_at: Option<usize>,
) -> (FleetOutcome, f64, Option<Vec<u8>>) {
    let mut cursor = mk_cursor();
    let mut dispatcher = PhaseAware::default();
    let mut cache = PolicyCache::new(staleness);
    let mut telemetry = FlightRecorder::off();
    let t0 = Instant::now();
    let mut k = sim.resident(
        &mut cursor,
        &mut dispatcher,
        &mut cache,
        scenario,
        &mut telemetry,
        false,
    );
    let mut image = None;
    if let Some(steps) = ckpt_at {
        for _ in 0..steps {
            assert!(k.step(), "checkpoint point past end of run");
        }
        image = Some(k.checkpoint());
    }
    k.run();
    (k.finish(), t0.elapsed().as_secs_f64(), image)
}

/// Restore `image` into a freshly built kernel (the "kill" is the drop
/// of the original) and run it to completion.
fn resumed_run(
    sim: &FleetSim,
    mk_cursor: &dyn Fn() -> GenCursor,
    scenario: &Scenario,
    staleness: u32,
    image: &[u8],
) -> FleetOutcome {
    let mut cursor = mk_cursor();
    let mut dispatcher = PhaseAware::default();
    let mut cache = PolicyCache::new(staleness);
    let mut telemetry = FlightRecorder::off();
    let mut k = sim.resident(
        &mut cursor,
        &mut dispatcher,
        &mut cache,
        scenario,
        &mut telemetry,
        false,
    );
    k.restore(image).expect("checkpoint image must restore");
    k.run();
    k.finish()
}

/// Run the resident-service experiment: `n_jobs` streamed over
/// `n_boards`, the checkpoint/kill/resume cycle at CI scale, the
/// retained comparison where affordable, and `days` of simulated
/// diurnal + chaos traffic. `perf_gate` turns the baseline
/// comparison into a hard assertion (CI passes it with `--quick`).
pub fn run(
    size: InputSize,
    n_jobs: usize,
    n_boards: usize,
    seed: u64,
    backend: BackendKind,
    days: usize,
    perf_gate: bool,
) {
    println!(
        "=== Fleet resident: {n_jobs} streamed jobs over {n_boards} boards \
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

    let scenario = Scenario::online(PolicyMode::Warm).with_feedback();
    let staleness = (n_jobs / 4).max(8) as u32;
    let process = ArrivalProcess::Poisson {
        rate_jobs_per_s: rate,
    };
    let mk_cursor = {
        let pool = pool.clone();
        move || GenCursor::new(process, n_jobs, &pool, size, (4.0, 8.0), seed, &[])
    };

    // Calibrations are a pure function of (workload, architecture,
    // engine parameters) — identical for every leg — so one replay
    // handle shared across legs is bit-neutral and prices the hot path
    // instead of re-recording traces.
    let shared_replay = FleetSim::new(&cluster, params.clone()).replay_handle();

    // Warm the shared calibration cache with a short throwaway run so
    // the timed legs price the steady-state hot path, not the one-off
    // per-(workload, architecture) trace recording.
    if shared_replay.is_some() {
        let t0 = Instant::now();
        let warm = process.generate(1_000.min(n_jobs), &pool, size, (4.0, 8.0), seed);
        let sim = sim_with(&cluster, &params, &shared_replay);
        let mut cache = PolicyCache::new(staleness);
        sim.run(&warm, &mut PhaseAware::default(), &mut cache, &scenario);
        println!(
            "calibration warmup: {} jobs in {:.2} s (trace recording, shared by every leg)",
            warm.len(),
            t0.elapsed().as_secs_f64()
        );
    }

    // ------------------------------------------------------------------
    // Leg 1: the streamed headline, with a mid-run checkpoint priced.
    // ------------------------------------------------------------------
    let sim = sim_with(&cluster, &params, &shared_replay);
    let ckpt_at = (n_jobs / 2).max(1);
    let (streamed, wall_s, image) =
        streamed_run(&sim, &mk_cursor, &scenario, staleness, Some(ckpt_at));
    let jps = n_jobs as f64 / wall_s;
    let image = image.expect("headline leg checkpoints");
    println!(
        "\nstreamed  (retention off): {wall_s:>7.2} s wall  \
         ({:.1} k jobs/s);  {} completions, {} dropped",
        jps / 1e3,
        streamed.kernel.completions,
        streamed.kernel.dropped
    );
    assert!(
        streamed.outcomes.is_empty(),
        "streaming leg must not retain outcomes"
    );
    let sum = &streamed.stream;
    println!(
        "stream summary over {} jobs:  digest p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms;  \
         window({}) p99 {:.3} ms",
        sum.jobs,
        sum.digest_p50_s * 1e3,
        sum.digest_p95_s * 1e3,
        sum.digest_p99_s * 1e3,
        sum.window_len,
        sum.window_p99_s * 1e3,
    );

    // Checkpoint image: O(boards), and taking it did not perturb the
    // run (the resume sweep below re-checks that bitwise at CI scale).
    let ckpt_budget = CKPT_BASE_BYTES + n_boards * CKPT_PER_BOARD_BYTES;
    println!(
        "checkpoint at control step {ckpt_at}: {:.1} KiB ({} bytes ≈ {:.0} B/board; \
         budget {:.1} KiB) — O(boards), job count does not appear",
        image.len() as f64 / 1024.0,
        image.len(),
        image.len() as f64 / n_boards as f64,
        ckpt_budget as f64 / 1024.0,
    );
    assert!(
        image.len() <= ckpt_budget,
        "checkpoint image {} bytes exceeds the O(boards) budget {}",
        image.len(),
        ckpt_budget
    );

    // Peak RSS: read *before* the retained comparison leg (VmHWM is a
    // process-lifetime high-water mark; the retained leg is allowed to
    // raise it — that is the point of the comparison).
    let rss = peak_rss_mib();
    let rss_budget = RSS_BASE_MIB + n_boards as f64 * RSS_PER_BOARD_MIB;
    let retained_est_mib = n_jobs as f64 * 56.0 / (1024.0 * 1024.0);
    println!(
        "peak RSS after streamed leg: {rss:.0} MiB (budget {rss_budget:.0} MiB = {RSS_BASE_MIB:.0} \
         + {n_boards}×{RSS_PER_BOARD_MIB}); retained outcomes alone would need ~{retained_est_mib:.0} MiB"
    );
    if rss > 0.0 {
        assert!(
            rss <= rss_budget,
            "peak RSS {rss:.0} MiB exceeds the O(boards) budget {rss_budget:.0} MiB"
        );
    }

    // ------------------------------------------------------------------
    // Leg 2: checkpoint → kill → resume (CI scale).
    // ------------------------------------------------------------------
    if n_jobs <= CYCLE_MAX_JOBS {
        let (reference, _, _) = streamed_run(&sim, &mk_cursor, &scenario, staleness, None);
        let reference = fingerprint(&reference);
        // The headline leg took a checkpoint mid-run and kept going:
        // its fingerprint doubles as the non-perturbation check.
        assert_eq!(
            fingerprint(&streamed),
            reference,
            "taking a checkpoint perturbed the run"
        );
        // The kernel that took the image is gone — the "kill".
        let resumed = resumed_run(&sim, &mk_cursor, &scenario, staleness, &image);
        assert_eq!(
            fingerprint(&resumed),
            reference,
            "resumed run diverged from the uninterrupted reference"
        );
        println!("checkpoint/kill/resume: fingerprint IDENTICAL to the uninterrupted run");
    } else {
        println!(
            "checkpoint/kill/resume sweep: skipped above {CYCLE_MAX_JOBS} jobs \
             (bitwise identity is held by proptest_checkpoint.rs and the CI smoke)"
        );
    }

    // ------------------------------------------------------------------
    // Leg 3: the retained comparison, where retention is affordable.
    // ------------------------------------------------------------------
    if n_jobs <= CYCLE_MAX_JOBS {
        let jobs = process.generate(n_jobs, &pool, size, (4.0, 8.0), seed);
        let mut cache = PolicyCache::new(staleness);
        let t0 = Instant::now();
        let retained = sim.run(&jobs, &mut PhaseAware::default(), &mut cache, &scenario);
        let wall_r = t0.elapsed().as_secs_f64();
        println!(
            "\nretained  (batch path, {} outcomes held): {wall_r:>7.2} s wall  ({:.1} k jobs/s;  \
             streaming speedup {:.2}x)",
            retained.outcomes.len(),
            n_jobs as f64 / wall_r / 1e3,
            wall_r / wall_s,
        );
        assert_eq!(
            retained.metrics.jobs, streamed.metrics.jobs,
            "retention changed the simulation"
        );
        assert_eq!(
            retained.metrics.makespan_s.to_bits(),
            streamed.metrics.makespan_s.to_bits(),
            "retention changed the simulation"
        );
    } else {
        println!(
            "\nretained comparison: skipped — {n_jobs} retained outcomes would hold \
             ~{retained_est_mib:.0} MiB before metrics were computed; this leg is why \
             the resident mode exists"
        );
    }

    // ------------------------------------------------------------------
    // Leg 4: the long-horizon figure — days of diurnal + chaos traffic.
    // ------------------------------------------------------------------
    let horizon_s = days as f64 * 86_400.0;
    let long_jobs = (n_jobs / 20).clamp(30_000, 5_000_000);
    let long_rate = long_jobs as f64 / horizon_s;
    let chaos = ChaosSchedule::new()
        .throttle(0, 2.0, 0.25 * horizon_s, 0.50 * horizon_s)
        .misprofile(None, 0.5, 0.30 * horizon_s, 0.80 * horizon_s)
        .blackout(vec![1 % n_boards], 0.45 * horizon_s, 0.55 * horizon_s)
        .diurnal(days as f64, 0.85, 8)
        .flash_crowd(0.60, 0.65, 6.0);
    let long_scenario = Scenario::online(PolicyMode::Warm)
        .with_feedback()
        .with_churn(vec![
            ChurnEvent {
                time_s: 0.35 * horizon_s,
                board: 2 % n_boards,
                up: false,
            },
            ChurnEvent {
                time_s: 0.70 * horizon_s,
                board: 2 % n_boards,
                up: true,
            },
        ])
        .with_chaos(chaos.clone());
    let mk_long = {
        let pool = pool.clone();
        let traffic = chaos.traffic.clone();
        move || {
            GenCursor::new(
                ArrivalProcess::Poisson {
                    rate_jobs_per_s: long_rate,
                },
                long_jobs,
                &pool,
                size,
                (4.0, 8.0),
                seed,
                &traffic,
            )
        }
    };
    let (long, wall_l, _) = streamed_run(&sim, &mk_long, &long_scenario, staleness, None);
    let m = &long.metrics;
    println!(
        "\nlong horizon: {:.1} simulated days of diurnal(depth 0.85)+flash-crowd traffic, \
         {long_jobs} jobs at {long_rate:.1} jobs/s, chaos (throttle/misprofile/blackout) + churn:",
        long.metrics.makespan_s / 86_400.0,
    );
    println!(
        "  {wall_l:.2} s wall;  p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  p99/SLO {:.2}  \
         SLO miss {:.1}%;  chaos: {} throttled starts, {} misprofiled, {} blackout drops",
        m.p50_s * 1e3,
        m.p95_s * 1e3,
        m.p99_s * 1e3,
        m.p99_slo_ratio,
        m.slo_miss_rate() * 100.0,
        long.chaos.throttled_starts,
        long.chaos.misprofiled,
        long.chaos.blackout_drops,
    );
    assert_eq!(
        long.kernel.arrivals,
        long.kernel.completions + long.kernel.dropped,
        "long-horizon accounting must balance"
    );
    assert!(
        long.metrics.makespan_s >= 0.9 * horizon_s,
        "long-horizon leg must actually span the simulated days"
    );

    // ------------------------------------------------------------------
    // Perf gate: the streamed headline vs the PR 10 recorded baseline.
    // ------------------------------------------------------------------
    println!();
    crate::perf_gate(
        "streamed jobs/s (PR 10 quick)",
        jps,
        PR10_QUICK_BASELINE_JPS,
        PERF_GATE_TOLERANCE,
        perf_gate,
    );
}
