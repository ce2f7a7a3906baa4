//! Property tests for the flight recorder: whatever churn-and-chaos
//! story a scenario tells, attaching a [`FlightRecorder`] at any level
//! must never perturb the simulation — the outcome fingerprints with
//! telemetry on and off are byte-identical — and the recorder's own
//! invariants must hold:
//! trace timestamps are monotone sim time, the trace holds exactly one
//! event per occurrence the kernel counts in its
//! [`KernelStats`](astro_fleet::KernelStats), the streamed completion
//! count matches the post-hoc metrics, and every streamed percentile
//! lands within one log bucket of the exact nearest-rank value. The
//! streamed figures come from the kernel's completion sink, reported in
//! [`FleetOutcome::stream`].

use astro_fleet::{
    ArrivalProcess, ChaosSchedule, ChurnEvent, ClusterSpec, FleetOutcome, FleetParams, FleetSim,
    FlightRecorder, JobClass, LeastLoaded, PolicyCache, PolicyMode, Scenario, TraceLevel,
    DIGEST_GROWTH,
};
use astro_workloads::{InputSize, Workload};
use proptest::prelude::*;

fn pool() -> Vec<Workload> {
    ["swaptions", "bfs"]
        .iter()
        .map(|n| astro_workloads::by_name(n).unwrap())
        .collect()
}

/// Bitwise fingerprint of everything a scenario observes (floats
/// through `to_bits`, so even a last-ulp drift between the traced and
/// untraced legs fails).
fn fingerprint(out: &FleetOutcome) -> Vec<u64> {
    let mut fp = Vec::new();
    for o in &out.outcomes {
        fp.push(o.id as u64);
        fp.push(o.board as u64);
        fp.push(o.start_s.to_bits());
        fp.push(o.finish_s.to_bits());
        fp.push(o.service_s.to_bits());
        fp.push(o.energy_j.to_bits());
        fp.push(o.migrations as u64);
    }
    for d in &out.dropped {
        fp.push(d.id as u64);
        fp.push(d.reason as u64);
    }
    let k = &out.kernel;
    fp.extend([
        k.events,
        k.arrivals,
        k.completions,
        k.dropped,
        k.migrations,
        k.redistributions,
        k.ticks,
        k.board_downs,
        k.board_ups,
        k.chaos_events,
    ]);
    let c = &out.chaos;
    fp.extend([
        c.throttled_starts,
        c.misprofiled,
        c.blackout_drops,
        c.max_slowdown.to_bits(),
    ]);
    fp.push(out.metrics.p99_s.to_bits());
    fp.push(out.metrics.total_energy_j.to_bits());
    fp
}

/// Arbitrary-but-coherent chaos on the `/97` horizon-fraction grid:
/// throttles, blackouts and misprofile windows overlap freely; traffic
/// shaping is a bitmask. Rack outages are deliberately absent — board
/// liveness is driven by the churn schedule in this suite, and the
/// kernel rejects a board downed by two independent stories.
fn build_chaos(
    n_boards: usize,
    horizon: f64,
    throttle_raw: &[(usize, u32, u32, u32)],
    blackout_raw: &[(u8, u32, u32)],
    misprofile_raw: &[(u8, u32, u32, u32)],
    traffic_bits: u8,
) -> ChaosSchedule {
    let grid = |g: u32| g as f64 / 97.0 * horizon;
    let half =
        |even: bool| -> Vec<usize> { (0..n_boards).filter(|b| (b % 2 == 0) == even).collect() };
    let mut chaos = ChaosSchedule::new();
    for &(b, factor_q, from_g, dur_g) in throttle_raw {
        let factor = 1.0 + factor_q as f64 / 4.0;
        chaos = chaos.throttle(b % n_boards, factor, grid(from_g), grid(from_g + dur_g));
    }
    for &(which, from_g, dur_g) in blackout_raw {
        chaos = chaos.blackout(half(which % 2 == 0), grid(from_g), grid(from_g + dur_g));
    }
    for &(class_pick, factor_q, from_g, dur_g) in misprofile_raw {
        let class = match class_pick % 5 {
            0 => None,
            k => Some(JobClass::ALL[(k - 1) as usize]),
        };
        let factor = 0.25 + factor_q as f64 / 4.0;
        chaos = chaos.misprofile(class, factor, grid(from_g), grid(from_g + dur_g));
    }
    if traffic_bits & 1 != 0 {
        chaos = chaos.flash_crowd(0.3, 0.5, 4.0);
    }
    if traffic_bits & 2 != 0 {
        chaos = chaos.diurnal(1.5, 0.6, 8);
    }
    chaos
}

/// Arbitrary board churn on the same grid: each fleet half gets at
/// most one down-then-up wave, so no board is downed twice and at
/// least the complementary half keeps the fleet placeable outside the
/// overlap of the two waves.
fn build_churn(n_boards: usize, horizon: f64, churn_raw: &[(u8, u32, u32)]) -> Vec<ChurnEvent> {
    let grid = |g: u32| g as f64 / 97.0 * horizon;
    let mut used = [false; 2];
    let mut churn = Vec::new();
    for &(which, down_g, dur_g) in churn_raw {
        let even = which % 2 == 0;
        if used[even as usize] {
            continue;
        }
        used[even as usize] = true;
        for b in (0..n_boards).filter(|b| (b % 2 == 0) == even) {
            churn.push(ChurnEvent {
                time_s: grid(down_g),
                board: b,
                up: false,
            });
            churn.push(ChurnEvent {
                time_s: grid(down_g + dur_g),
                board: b,
                up: true,
            });
        }
    }
    churn
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Telemetry is outcome-invariant: for arbitrary churn + chaos
    /// schedules, running with a full-level flight recorder attached
    /// produces a byte-identical
    /// outcome fingerprint to the untraced run — and the recorder's
    /// stream obeys its own contracts along the way.
    #[test]
    fn tracing_never_perturbs_the_simulation(
        n_jobs in 4usize..14,
        n_boards in 2usize..6,
        rate in 200.0f64..20_000.0,
        preempt_bit in 0u8..2,
        feedback_bit in 0u8..2,
        churn_raw in prop::collection::vec((0u8..2, 1u32..50, 1u32..40), 0..3),
        throttle_raw in prop::collection::vec(
            (0usize..6, 1u32..28, 1u32..80, 1u32..40),
            0..4,
        ),
        blackout_raw in prop::collection::vec((0u8..2, 1u32..80, 1u32..30), 0..3),
        misprofile_raw in prop::collection::vec(
            (0u8..5, 0u32..11, 1u32..80, 1u32..40),
            0..3,
        ),
        traffic_bits in 0u8..4,
        seed in 0u64..200,
    ) {
        let cluster = ClusterSpec::heterogeneous(n_boards);
        // Fix the horizon from the unshaped stream, then regenerate
        // shaped — the warp preserves the horizon, so the chaos and
        // churn grids stay valid.
        let probe = ArrivalProcess::Poisson { rate_jobs_per_s: rate }
            .generate(n_jobs, &pool(), InputSize::Test, (2.0, 8.0), seed);
        let horizon = probe.last().unwrap().arrival_s;
        let chaos = build_chaos(
            n_boards,
            horizon,
            &throttle_raw,
            &blackout_raw,
            &misprofile_raw,
            traffic_bits,
        );
        let churn = build_churn(n_boards, horizon, &churn_raw);
        let jobs = ArrivalProcess::Poisson { rate_jobs_per_s: rate }
            .generate_shaped(n_jobs, &pool(), InputSize::Test, (2.0, 8.0), seed, &chaos.traffic);

        let mut scenario = Scenario::online(PolicyMode::Cold)
            .with_migration_cost(1e-6)
            .with_churn(churn)
            .with_chaos(chaos);
        if preempt_bit == 1 {
            scenario = scenario.with_preemption(0.3 / rate * n_boards as f64, 1e-6, 2);
        }
        if feedback_bit == 1 {
            scenario = scenario.with_feedback();
        }

        let sim = FleetSim::new(&cluster, FleetParams::new(seed));

        // Leg 1: telemetry off — the reference.
        let mut cache = PolicyCache::new(0);
        let base = sim.run(&jobs, &mut LeastLoaded, &mut cache, &scenario);

        // Leg 2: identical inputs, recorder at the deepest level.
        let mut recorder = FlightRecorder::new(TraceLevel::Full);
        let mut cache = PolicyCache::new(0);
        let traced =
            sim.run_traced(&jobs, &mut LeastLoaded, &mut cache, &scenario, &mut recorder);

        prop_assert_eq!(
            fingerprint(&base),
            fingerprint(&traced),
            "telemetry perturbed the simulation (seed {seed})"
        );

        // The recorder's trace is monotone, and the kernel's streaming
        // aggregate (which the recorder's tick gauges read) agrees with
        // the post-hoc metrics.
        prop_assert!(recorder.timestamps_monotone(), "trace timestamps regressed");

        // The trace agrees with the kernel's counts: one event per
        // dispatch, drop, churn edge, chaos edge, tick and preempt scan,
        // and one advance span per window that completed something.
        let k = &traced.kernel;
        let in_trace = |cat: &str| recorder.events().iter().filter(|e| e.cat == cat).count() as u64;
        for (cat, expected) in [
            ("dispatch", k.dispatches()),
            ("drop", k.dropped),
            ("churn", k.board_downs + k.board_ups),
            ("chaos", k.chaos_events),
            ("tick", k.ticks),
            ("preempt", if scenario.preemption { k.ticks } else { 0 }),
            ("shard", recorder.advance_windows()),
        ] {
            prop_assert_eq!(in_trace(cat), expected, "{} events vs kernel count (seed {})", cat, seed);
        }
        let m = &traced.metrics;
        let sum = &traced.stream;
        prop_assert_eq!(sum.jobs, m.jobs as u64);
        for (q, exact, est) in [
            (50.0, m.p50_s, sum.digest_p50_s),
            (95.0, m.p95_s, sum.digest_p95_s),
            (99.0, m.p99_s, sum.digest_p99_s),
        ] {
            if m.jobs == 0 {
                prop_assert_eq!(est, 0.0);
            } else {
                prop_assert!(
                    est >= exact * (1.0 - 1e-9)
                        && est <= exact * DIGEST_GROWTH * (1.0 + 1e-9),
                    "streamed p{} = {} vs exact {}: outside one digest bucket (seed {seed})",
                    q,
                    est,
                    exact
                );
            }
        }
    }
}
