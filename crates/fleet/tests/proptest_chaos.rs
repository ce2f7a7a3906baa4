//! Property tests for the chaos engine: whatever clause mix a
//! [`ChaosSchedule`] throws at the kernel — correlated rack outages,
//! overlapping thermal throttles, dispatch blackouts, misprofiled
//! estimates, flash-crowd/diurnal traffic shaping — the kernel's
//! accounting invariants must hold and the run must replay
//! byte-identically under the same seed.

use astro_fleet::{
    ArrivalProcess, ChaosSchedule, ClusterSpec, FleetOutcome, FleetParams, FleetSim, JobClass,
    LeastLoaded, PolicyCache, PolicyMode, Scenario,
};
use astro_workloads::{InputSize, Workload};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn pool() -> Vec<Workload> {
    ["swaptions", "bfs"]
        .iter()
        .map(|n| astro_workloads::by_name(n).unwrap())
        .collect()
}

/// Bitwise fingerprint of everything a scenario observes, including
/// the per-chaos-clause accounting (floats through `to_bits`, so even
/// a last-ulp drift between replays fails).
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
        k.dropped_no_board,
        k.dropped_migration_cap,
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
    for cl in &c.clauses {
        fp.push(cl.events);
        fp.push(cl.affected_jobs);
    }
    fp.push(out.metrics.p99_s.to_bits());
    fp.push(out.metrics.total_energy_j.to_bits());
    fp
}

/// Build an arbitrary-but-consistent chaos schedule on the `/97`
/// horizon-fraction grid. Outages hit the even or the odd half of the
/// fleet (at most one window each, so no board is downed twice —
/// the kernel rejects incoherent liveness stories); throttles and
/// blackouts overlap freely; misprofile windows corrupt one class or
/// all of them.
#[allow(clippy::too_many_arguments)]
fn build_chaos(
    n_boards: usize,
    horizon: f64,
    outage_raw: &[(u8, u32, u32)],
    throttle_raw: &[(usize, u32, u32, u32)],
    blackout_raw: &[(u8, u32, u32)],
    misprofile_raw: &[(u8, u32, u32, u32)],
    traffic_bits: u8,
) -> ChaosSchedule {
    let grid = |g: u32| g as f64 / 97.0 * horizon;
    let half =
        |even: bool| -> Vec<usize> { (0..n_boards).filter(|b| (b % 2 == 0) == even).collect() };
    let mut chaos = ChaosSchedule::new();
    let mut outage_used = [false; 2];
    for &(which, from_g, dur_g) in outage_raw {
        let even = which % 2 == 0;
        // One outage window per fleet half, and never the whole fleet
        // at once here: the all-boards-down case is pinned by a unit
        // test, while this generator keeps jobs flowing.
        if outage_used[even as usize] || half(even).is_empty() || half(!even).is_empty() {
            continue;
        }
        outage_used[even as usize] = true;
        chaos = chaos.rack_outage(half(even), grid(from_g), grid(from_g + dur_g));
    }
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
        // Factors both below and above 1: [0.25, 2.75].
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary chaos schedules over arbitrary small fleets: every
    /// arrival still ends as exactly one completion or one explicit
    /// drop, event accounting balances including chaos events, the
    /// run replays byte-identically.
    #[test]
    fn invariants_hold_under_arbitrary_chaos(
        n_jobs in 4usize..14,
        n_boards in 2usize..6,
        rate in 200.0f64..20_000.0,
        online_bit in 0u8..2,
        preempt_bit in 0u8..2,
        feedback_bit in 0u8..2,
        outage_raw in prop::collection::vec((0u8..2, 1u32..60, 1u32..30), 0..3),
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
        let online = online_bit == 1;
        let cluster = ClusterSpec::heterogeneous(n_boards);
        // Generate once without traffic to fix the horizon the chaos
        // grid hangs off, then regenerate shaped — the warp preserves
        // the horizon, so the grid stays valid.
        let probe = ArrivalProcess::Poisson { rate_jobs_per_s: rate }
            .generate(n_jobs, &pool(), InputSize::Test, (2.0, 8.0), seed);
        let horizon = probe.last().unwrap().arrival_s;
        let chaos = build_chaos(
            n_boards,
            horizon,
            &outage_raw,
            &throttle_raw,
            &blackout_raw,
            &misprofile_raw,
            traffic_bits,
        );
        let jobs = ArrivalProcess::Poisson { rate_jobs_per_s: rate }
            .generate_shaped(n_jobs, &pool(), InputSize::Test, (2.0, 8.0), seed, &chaos.traffic);
        prop_assert_eq!(jobs.len(), n_jobs);
        prop_assert!(jobs.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));

        let mut scenario = if online {
            Scenario::online(PolicyMode::Cold)
        } else {
            Scenario::oracle(PolicyMode::Cold)
        }
        .with_migration_cost(1e-6)
        .with_chaos(chaos.clone());
        if preempt_bit == 1 && online {
            scenario = scenario.with_preemption(0.3 / rate * n_boards as f64, 1e-6, 2);
        }
        if feedback_bit == 1 {
            scenario = scenario.with_feedback();
        }

        let sim = FleetSim::new(&cluster, FleetParams::new(seed));
        let mut cache = PolicyCache::new(0);
        let out = sim.run(&jobs, &mut LeastLoaded, &mut cache, &scenario);

        // Complete-or-drop exactly once.
        prop_assert_eq!(out.outcomes.len() + out.dropped.len(), n_jobs);
        let mut seen: BTreeSet<u32> = out.outcomes.iter().map(|o| o.id).collect();
        for d in &out.dropped {
            prop_assert!(seen.insert(d.id), "job {} completed and dropped", d.id);
        }
        prop_assert_eq!(seen.len(), n_jobs);

        // Monotone per-job causality.
        for o in &out.outcomes {
            prop_assert!(o.board < n_boards);
            prop_assert!(o.start_s >= o.arrival_s - 1e-12);
            prop_assert!(o.finish_s > o.start_s);
            prop_assert!(o.service_s > 0.0);
        }

        // Accounting balances, chaos events included.
        let k = &out.kernel;
        prop_assert_eq!(k.arrivals, n_jobs as u64);
        prop_assert_eq!(k.arrivals, k.completions + k.dropped);
        prop_assert_eq!(
            k.events,
            k.arrivals + k.completions + k.ticks + k.board_downs + k.board_ups
                + k.chaos_events,
            "every processed event must be counted exactly once: {k:?}"
        );
        // Throttle and blackout clauses each fire a start and an
        // end on every board they name; outages land in the
        // board_downs/board_ups counters instead.
        let expected_chaos = throttle_raw.len() as u64 * 2
            + blackout_raw
                .iter()
                .map(|&(which, _, _)| {
                    2 * (0..n_boards).filter(|b| (b % 2 == 0) == (which % 2 == 0)).count()
                        as u64
                })
                .sum::<u64>();
        prop_assert_eq!(k.chaos_events, expected_chaos);
        let outage_boards: u64 = (0..chaos.clauses.len())
            .filter_map(|i| match chaos.clause(i) {
                astro_fleet::ChaosClause::RackOutage { boards, .. } => {
                    Some(boards.len() as u64)
                }
                _ => None,
            })
            .sum();
        prop_assert_eq!(k.board_downs, outage_boards);
        prop_assert_eq!(k.board_ups, outage_boards);
        prop_assert!(out.chaos.max_slowdown <= astro_fleet::MAX_SLOWDOWN);

        // Determinism: same seed, same bytes.
        let mut cache = PolicyCache::new(0);
        let again = sim.run(&jobs, &mut LeastLoaded, &mut cache, &scenario);
        prop_assert_eq!(fingerprint(&out), fingerprint(&again), "replay diverged");
    }
}
