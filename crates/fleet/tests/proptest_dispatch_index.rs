//! Kernel-driven stress for the indexed dispatch path: churn, chaos
//! (throttles, misprofile windows, blackouts, rack outages),
//! preemption and the feedback layer, through all three dispatchers.
//!
//! Two layers of assertion:
//!
//! * Always on: accounting conservation, and the estimate contract
//!   (one slot per architecture class, boards mapped to the right
//!   class) checked on every pick.
//! * Under `--features pick_crosscheck` (a dedicated CI leg): every
//!   single pick inside these runs is additionally asserted equal to
//!   the reference linear scan, bit for bit.
//!
//! The direct index-vs-scan mutation sweep (hand-driven board states,
//! exact ties, all three index classes) lives in
//! `src/dispatch.rs::tests::indexed_picks_match_scan_under_mutation_churn`,
//! which needs crate-private state.

use astro_fleet::{
    ArrivalProcess, ChaosSchedule, ChurnEvent, ClusterSpec, ClusterState, Dispatcher, EnergyAware,
    FleetParams, FleetSim, JobEstimates, JobSpec, LeastLoaded, PhaseAware, PolicyCache, PolicyMode,
    Scenario,
};
use astro_hw::boards::BoardSpec;
use astro_workloads::{InputSize, Workload};
use proptest::prelude::*;

/// XU4, RK3399 and TK1 boards in a repeating seven-board layout, built
/// from the public `boards` field. First appearance numbers the
/// architecture classes RK3399, TK1, XU4 — neither board parity nor
/// constructor order — so a board→class mix-up reads the wrong
/// estimate slot.
fn three_arch(n: usize) -> ClusterSpec {
    let layout: [fn() -> BoardSpec; 7] = [
        BoardSpec::rk3399,
        BoardSpec::rk3399,
        BoardSpec::jetson_tk1,
        BoardSpec::odroid_xu4,
        BoardSpec::jetson_tk1,
        BoardSpec::odroid_xu4,
        BoardSpec::odroid_xu4,
    ];
    ClusterSpec {
        boards: (0..n).map(|b| layout[b % layout.len()]()).collect(),
    }
}

/// Checks the estimate contract on every pick, then delegates: one
/// estimate slot per architecture class, and a board→class map that
/// agrees with the cluster's own first-appearance key order.
struct ClassChecked(Box<dyn Dispatcher>);

impl Dispatcher for ClassChecked {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn pick(&mut self, state: &ClusterState, job: &JobSpec, est: &JobEstimates) -> usize {
        let keys = state.spec.arch_keys();
        assert_eq!(state.n_arch(), keys.len());
        assert_eq!(est.service_s.len(), keys.len());
        assert_eq!(est.energy_j.len(), keys.len());
        assert_eq!(est.warm.len(), keys.len());
        for b in 0..state.len() {
            assert_eq!(
                keys[state.arch_class(b)],
                state.spec.arch_key(b),
                "board {b} maps to the wrong architecture class"
            );
        }
        self.0.pick(state, job, est)
    }
}

fn pool() -> Vec<Workload> {
    ["swaptions", "bfs"]
        .iter()
        .map(|n| astro_workloads::by_name(n).unwrap())
        .collect()
}

fn dispatcher(pick: u8) -> Box<dyn Dispatcher> {
    match pick {
        0 => Box::new(LeastLoaded),
        1 => Box::new(EnergyAware),
        _ => Box::new(PhaseAware::default()),
    }
}

/// A deterministic deep-queue run per dispatcher: enough boards that
/// the index's ordered heaps and per-arch champions matter, a burst
/// arrival pattern that piles queues deep (exercising the ordered
/// sweep at every completion), churn taking a board down and back up,
/// and a misprofile window that makes service estimates systematically
/// wrong — the feedback layer then shifts estimates mid-run, which is
/// what populates the Stale class (lapsed in-flight estimates with
/// work still queued). Runs on the alternating two-architecture fleet
/// and on the three-architecture layout.
#[test]
fn deep_queue_churn_chaos_stress() {
    for cluster in [ClusterSpec::heterogeneous(64), three_arch(64)] {
        deep_queue_churn_chaos_stress_on(&cluster);
    }
}

fn deep_queue_churn_chaos_stress_on(cluster: &ClusterSpec) {
    let jobs = ArrivalProcess::Bursty {
        rate_jobs_per_s: 400_000.0,
        burst: 32,
        spread_s: 1e-6,
    }
    .generate(1_200, &pool(), InputSize::Test, (3.0, 8.0), 23);
    let horizon = jobs.last().unwrap().arrival_s;
    let chaos = ChaosSchedule::new()
        .throttle(3, 2.0, 0.1 * horizon, 0.7 * horizon)
        .misprofile(None, 0.4, 0.2 * horizon, 0.9 * horizon)
        .blackout(vec![5, 6], 0.3 * horizon, 0.6 * horizon);
    let scenario = Scenario::online(PolicyMode::Cold)
        .with_migration_cost(1e-6)
        .with_preemption(2e-4, 1e-6, 3)
        .with_feedback()
        .with_churn(vec![
            ChurnEvent {
                time_s: 0.25 * horizon,
                board: 9,
                up: false,
            },
            ChurnEvent {
                time_s: 0.55 * horizon,
                board: 9,
                up: true,
            },
        ])
        .with_chaos(chaos);
    for pick in 0..3u8 {
        let mut params = FleetParams::new(23);
        params.backend = astro_fleet::BackendKind::Replay;
        let sim = FleetSim::new(cluster, params);
        let mut cache = PolicyCache::new(0);
        let mut d = ClassChecked(dispatcher(pick));
        let out = sim.run(&jobs, &mut d, &mut cache, &scenario);
        assert_eq!(
            out.outcomes.len() + out.dropped.len(),
            1_200,
            "accounting must balance ({})",
            dispatcher(pick).name()
        );
    }
}

/// Systematic-underestimation adversary: a misprofile window spanning
/// every admission corrupts all service estimates far below reality,
/// with feedback disabled so nothing ever corrects them — every
/// in-flight estimate lapses while work is still queued, herding most
/// of the fleet into the index's Stale class at once, so every pick's
/// exact stale walk covers most of the fleet. The accounting must stay
/// balanced, and picks equal to the reference scan on every single
/// pick under the `pick_crosscheck` CI leg. Deep bursty queues keep
/// boards stale for long stretches.
#[test]
fn systematic_underestimation_floods_stale_class() {
    let cluster = ClusterSpec::heterogeneous(96);
    let jobs = ArrivalProcess::Bursty {
        rate_jobs_per_s: 700_000.0,
        burst: 48,
        spread_s: 1e-6,
    }
    .generate(1_500, &pool(), InputSize::Test, (4.0, 9.0), 41);
    let horizon = jobs.last().unwrap().arrival_s;
    let chaos = ChaosSchedule::new().misprofile(None, 0.15, 0.0, 4.0 * horizon);
    let scenario = Scenario::online(PolicyMode::Cold)
        .with_migration_cost(1e-6)
        .with_chaos(chaos);
    for pick in 0..3u8 {
        let mut params = FleetParams::new(41);
        params.backend = astro_fleet::BackendKind::Replay;
        let sim = FleetSim::new(&cluster, params);
        let mut cache = PolicyCache::new(0);
        let out = sim.run(&jobs, &mut *dispatcher(pick), &mut cache, &scenario);
        assert_eq!(
            out.outcomes.len() + out.dropped.len(),
            1_500,
            "accounting must balance ({})",
            dispatcher(pick).name()
        );
        assert!(
            out.chaos.misprofiled >= 1_500,
            "the adversarial clause must corrupt every admission, got {}",
            out.chaos.misprofiled
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomised kernel runs: every combination of dispatcher, mode,
    /// preemption, feedback and chaos the driver can draw must keep the
    /// accounting balanced and the estimate contract intact, with churn
    /// windows pushing boards through the index's placeability edges
    /// mid-run.
    #[test]
    fn indexed_dispatch_under_random_scenarios(
        n_jobs in 30usize..80,
        // From a single board up: the index is the only pick path at
        // every fleet size, so the smallest fleets, where every board
        // churns or blacks out and one class can hold the whole fleet,
        // are compared with the reference scan too.
        n_boards in 1usize..56,
        rate in 2_000.0f64..200_000.0,
        online_bit in 0u8..2,
        preempt_bit in 0u8..2,
        feedback_bit in 0u8..2,
        chaos_bits in 0u8..8,
        dispatcher_pick in 0u8..3,
        churn_raw in prop::collection::vec((0usize..24, 5u32..60, 5u32..30, 0u8..2), 0..4),
        seed in 0u64..500,
        three_arch_bit in 0u8..2,
    ) {
        let online = online_bit == 1;
        let cluster = if three_arch_bit == 1 {
            three_arch(n_boards)
        } else {
            ClusterSpec::heterogeneous(n_boards)
        };
        let jobs = ArrivalProcess::Poisson { rate_jobs_per_s: rate }
            .generate(n_jobs, &pool(), InputSize::Test, (2.0, 8.0), seed);
        let horizon = jobs.last().unwrap().arrival_s;
        let mut touched = vec![false; n_boards];
        let mut churn: Vec<ChurnEvent> = Vec::new();
        for &(b, down_grid, dur_grid, return_bit) in &churn_raw {
            let b = b % n_boards;
            if touched[b] {
                continue;
            }
            touched[b] = true;
            churn.push(ChurnEvent {
                time_s: down_grid as f64 / 97.0 * horizon,
                board: b,
                up: false,
            });
            if return_bit == 1 {
                churn.push(ChurnEvent {
                    time_s: (down_grid + dur_grid) as f64 / 97.0 * horizon,
                    board: b,
                    up: true,
                });
            }
        }
        let mut scenario = if online {
            Scenario::online(PolicyMode::Cold)
        } else {
            Scenario::oracle(PolicyMode::Cold)
        }
        .with_migration_cost(1e-6)
        .with_churn(churn);
        if preempt_bit == 1 && online {
            scenario = scenario.with_preemption(0.3 / rate * n_boards as f64, 1e-6, 2);
        }
        if feedback_bit == 1 {
            scenario = scenario.with_feedback();
        }
        if chaos_bits != 0 {
            // Chaos boards are disjoint from the churn draw range edge
            // cases by liveness validation inside the kernel; blackout
            // windows drive add/remove_blackout through the index's
            // placeability hook mid-run.
            let mut chaos = ChaosSchedule::new();
            if chaos_bits & 1 != 0 {
                chaos = chaos.throttle(0, 2.5, 0.20 * horizon, 0.80 * horizon);
            }
            if chaos_bits & 2 != 0 {
                chaos = chaos.misprofile(None, 0.3, 0.25 * horizon, 0.75 * horizon);
            }
            if chaos_bits & 4 != 0 {
                chaos = chaos.blackout(vec![1 % n_boards], 0.3 * horizon, 0.6 * horizon);
            }
            scenario = scenario.with_chaos(chaos);
        }

        let sim = FleetSim::new(&cluster, FleetParams::new(seed));
        let mut cache = PolicyCache::new(0);
        let mut d = ClassChecked(dispatcher(dispatcher_pick));
        let out = sim.run(&jobs, &mut d, &mut cache, &scenario);
        prop_assert_eq!(out.outcomes.len() + out.dropped.len(), n_jobs);
    }
}
