//! Property tests for the event kernel: whatever stream, cluster
//! shape, dispatch mode, churn schedule and preemption setting a
//! scenario throws at it, the virtual clock must stay monotone (the
//! kernel debug-asserts it on every pop — these tests run in debug),
//! every arrival must end as exactly one completion or one explicit
//! drop, and the event accounting must balance.

use astro_fleet::{
    ArrivalProcess, ChurnEvent, ClusterSpec, FleetParams, FleetSim, LeastLoaded, PolicyCache,
    PolicyMode, Scenario,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary streams over arbitrary clusters with arbitrary churn:
    /// every job completes or is explicitly dropped, ids stay unique,
    /// causality holds per outcome, and the kernel's event counters
    /// balance exactly.
    #[test]
    fn every_arrival_completes_or_drops_and_events_balance(
        n_jobs in 1usize..14,
        n_boards in 1usize..4,
        rate in 100.0f64..20_000.0,
        online_bit in 0u8..2,
        preempt_bit in 0u8..2,
        churn_raw in prop::collection::vec(
            (0usize..4, 0.0f64..1.2, 0.0f64..0.5, 0u8..2),
            0..6,
        ),
        seed in 0u64..200,
    ) {
        let (online, preempt) = (online_bit == 1, preempt_bit == 1);
        let cluster = ClusterSpec::heterogeneous(n_boards);
        let sim = FleetSim::new(&cluster, FleetParams::new(seed));
        let jobs = ArrivalProcess::Poisson { rate_jobs_per_s: rate }
            .generate(n_jobs, &pool(), InputSize::Test, (2.0, 8.0), seed);
        let horizon = jobs.last().unwrap().arrival_s;
        // One down→(maybe up) window per board: the kernel rejects
        // inconsistent schedules (a board downed twice, or brought up
        // while up), so the generator produces only coherent liveness
        // stories — arbitrary in timing, boards touched, and whether
        // the board ever returns.
        let mut touched = [false; 4];
        let mut churn: Vec<ChurnEvent> = Vec::new();
        for &(b, down_frac, dur_frac, return_bit) in &churn_raw {
            let b = b % n_boards;
            if touched[b] {
                continue;
            }
            touched[b] = true;
            let t_down = down_frac * horizon;
            churn.push(ChurnEvent { time_s: t_down, board: b, up: false });
            if return_bit == 1 {
                churn.push(ChurnEvent {
                    time_s: t_down + dur_frac * horizon,
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
        if preempt && online {
            scenario = scenario.with_preemption(0.3 / rate * n_boards as f64, 1e-6, 2);
        }

        let mut cache = PolicyCache::new(0);
        let out = sim.run(&jobs, &mut LeastLoaded, &mut cache, &scenario);

        // Every arrival ends as exactly one completion or one drop.
        prop_assert_eq!(out.outcomes.len() + out.dropped.len(), n_jobs);
        let mut seen: BTreeSet<u32> = out.outcomes.iter().map(|o| o.id).collect();
        for d in &out.dropped {
            prop_assert!(seen.insert(d.id), "job {} both completed and dropped", d.id);
        }
        prop_assert_eq!(seen.len(), n_jobs);

        // Kernel accounting balances.
        let k = &out.kernel;
        prop_assert_eq!(k.arrivals, n_jobs as u64);
        prop_assert_eq!(k.completions, out.outcomes.len() as u64);
        prop_assert_eq!(k.dropped, out.dropped.len() as u64);
        prop_assert_eq!(k.arrivals, k.completions + k.dropped);
        prop_assert_eq!(
            k.events,
            k.arrivals + k.completions + k.ticks + k.board_downs + k.board_ups
                + k.chaos_events,
            "every processed event must be counted exactly once: {k:?}"
        );
        prop_assert_eq!(k.chaos_events, 0, "no chaos schedule, no chaos events");
        let downs = scenario.churn.iter().filter(|c| !c.up).count() as u64;
        let ups = scenario.churn.iter().filter(|c| c.up).count() as u64;
        prop_assert_eq!(k.board_downs, downs);
        prop_assert_eq!(k.board_ups, ups);
        if !scenario.preemption {
            prop_assert_eq!(k.migrations, 0);
        }

        // Per-outcome causality: arrival ≤ start < finish, service > 0,
        // and outcomes come back in id order on boards that exist.
        for (i, o) in out.outcomes.iter().enumerate() {
            if i > 0 {
                prop_assert!(out.outcomes[i - 1].id < o.id);
            }
            prop_assert!(o.board < n_boards);
            prop_assert!(o.start_s >= o.arrival_s - 1e-12);
            prop_assert!(o.finish_s > o.start_s);
            prop_assert!(o.service_s > 0.0);
            prop_assert!(o.energy_j > 0.0);
        }

        // Determinism: the same scenario replays byte-identically.
        let mut cache = PolicyCache::new(0);
        let again = sim.run(&jobs, &mut LeastLoaded, &mut cache, &scenario);
        prop_assert_eq!(&again.dropped, &out.dropped);
        for (x, y) in out.outcomes.iter().zip(&again.outcomes) {
            prop_assert_eq!(x.finish_s.to_bits(), y.finish_s.to_bits());
            prop_assert_eq!(x.energy_j.to_bits(), y.energy_j.to_bits());
            prop_assert_eq!(x.board, y.board);
            prop_assert_eq!(x.migrations, y.migrations);
        }
    }

    /// With no churn and no preemption, nothing is ever dropped or
    /// migrated, in either dispatch mode — the kernel degenerates to
    /// plain queueing.
    #[test]
    fn stable_fleet_never_drops_or_migrates(
        n_jobs in 1usize..12,
        n_boards in 1usize..4,
        online_bit in 0u8..2,
        seed in 0u64..200,
    ) {
        let online = online_bit == 1;
        let cluster = ClusterSpec::heterogeneous(n_boards);
        let sim = FleetSim::new(&cluster, FleetParams::new(seed));
        let jobs = ArrivalProcess::Poisson { rate_jobs_per_s: 2000.0 }
            .generate(n_jobs, &pool(), InputSize::Test, (4.0, 8.0), seed);
        let scenario = if online {
            Scenario::online(PolicyMode::Cold)
        } else {
            Scenario::oracle(PolicyMode::Cold)
        };
        let mut cache = PolicyCache::new(0);
        let out = sim.run(&jobs, &mut LeastLoaded, &mut cache, &scenario);
        prop_assert_eq!(out.outcomes.len(), n_jobs);
        prop_assert!(out.dropped.is_empty());
        prop_assert_eq!(out.kernel.migrations, 0);
        prop_assert_eq!(out.kernel.redistributions, 0);
        prop_assert!(out.outcomes.iter().all(|o| o.migrations == 0));
        prop_assert_eq!(out.dispatch, if online { "online" } else { "oracle" });
        prop_assert_eq!(
            out.kernel.events,
            out.kernel.arrivals + out.kernel.completions
        );
    }

    /// The redispatch cap drops per-reason: with cap 0 every churn
    /// orphan is dropped with the migration-cap reason (never
    /// silently completed, never misfiled as no-board-up while other
    /// boards are up), and accounting balances.
    #[test]
    fn redispatch_cap_drops_are_reported_per_reason(
        n_jobs in 6usize..14,
        seed in 0u64..100,
    ) {
        let cluster = ClusterSpec::heterogeneous(3);
        let sim = FleetSim::new(&cluster, FleetParams::new(seed));
        // High rate so board 0's queue is busy when it goes down.
        let jobs = ArrivalProcess::Poisson { rate_jobs_per_s: 50_000.0 }
            .generate(n_jobs, &pool(), InputSize::Test, (2.0, 6.0), seed);
        let horizon = jobs.last().unwrap().arrival_s;
        let scenario = Scenario::online(PolicyMode::Cold)
            .with_redispatch_cap(0)
            .with_churn(vec![ChurnEvent { time_s: horizon * 0.5, board: 0, up: false }]);
        let mut cache = PolicyCache::new(0);
        let out = sim.run(&jobs, &mut LeastLoaded, &mut cache, &scenario);
        let k = &out.kernel;
        prop_assert_eq!(k.redistributions, 0, "cap 0 forbids redistribution");
        prop_assert_eq!(k.dropped, k.dropped_no_board + k.dropped_migration_cap);
        prop_assert_eq!(k.dropped_no_board, 0, "boards 1..3 stayed up");
        prop_assert_eq!(
            out.dropped.iter().filter(|d| d.reason == astro_fleet::DropReason::MigrationCap).count() as u64,
            k.dropped_migration_cap
        );
        prop_assert_eq!(out.outcomes.len() + out.dropped.len(), n_jobs);
    }
}
