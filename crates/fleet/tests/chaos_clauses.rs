//! Kernel-level behaviour of individual chaos clauses: throttle
//! windows compose multiplicatively on real service times, boards
//! that go down mid-throttle come back at the speed their open
//! windows dictate, a whole-fleet blackout drops arrivals and churn
//! orphans through the existing `NoBoardUp` path, misprofile windows
//! feed the EWMA repair loop,
//! incoherent liveness schedules are rejected with a pinned
//! message, and a chaos edge, an arrival and a monitor tick at one
//! timestamp run in the pinned order edge < arrival < tick.

use astro_fleet::{
    ArrivalProcess, ChaosSchedule, ChurnEvent, ClusterSpec, DropReason, FleetParams, FleetSim,
    FlightRecorder, JobSpec, LeastLoaded, PolicyCache, PolicyMode, Scenario, TraceLevel,
};
use astro_workloads::{InputSize, Workload};

fn workload() -> Workload {
    astro_workloads::by_name("swaptions").unwrap()
}

fn job(id: u32, arrival_s: f64) -> JobSpec {
    let w = workload();
    JobSpec {
        id,
        workload: w,
        taxon: astro_fleet::taxon_of(&(w.build)(InputSize::Test)),
        arrival_s,
        slo_tightness: 50.0,
        seed: 7,
    }
}

fn run(jobs: &[JobSpec], scenario: &Scenario) -> astro_fleet::FleetOutcome {
    let cluster = ClusterSpec::heterogeneous(1);
    let sim = FleetSim::new(&cluster, FleetParams::new(3));
    let mut cache = PolicyCache::new(0);
    sim.run(jobs, &mut LeastLoaded, &mut cache, scenario)
}

/// Two overlapping throttle windows multiply: a job started under
/// factors 2 and 3 takes exactly 6x its unthrottled service time
/// (bit-for-bit — the slowdown is a single multiply on the wall time).
#[test]
fn overlapping_throttles_compose_multiplicatively() {
    let jobs = vec![job(0, 1.0)];
    let base = run(&jobs, &Scenario::oracle(PolicyMode::Cold));
    let s0 = base.outcomes[0].service_s;

    let chaos = ChaosSchedule::new()
        .throttle(0, 2.0, 0.5, 50.0)
        .throttle(0, 3.0, 0.8, 50.0);
    let out = run(&jobs, &Scenario::oracle(PolicyMode::Cold).with_chaos(chaos));
    assert_eq!(out.outcomes.len(), 1);
    assert_eq!(
        out.outcomes[0].service_s.to_bits(),
        (s0 * 6.0).to_bits(),
        "throttled service must be exactly slowdown x base"
    );
    assert_eq!(out.chaos.throttled_starts, 1);
    assert_eq!(out.chaos.max_slowdown, 6.0);
    assert_eq!(out.kernel.chaos_events, 4, "two starts, two ends");
}

/// A board that goes down in the middle of a throttle window comes
/// back up still throttled at the window's factor, and runs at full
/// speed once the window closes.
#[test]
fn board_down_mid_throttle_recovers_with_correct_factor() {
    let jobs = vec![job(0, 1.0)];
    let s0 = run(&jobs, &Scenario::oracle(PolicyMode::Cold)).outcomes[0].service_s;

    // Throttle [0.5, 100); outage [20, 30) punches a hole in it.
    let chaos = ChaosSchedule::new()
        .throttle(0, 2.0, 0.5, 100.0)
        .rack_outage(vec![0], 20.0, 30.0);
    let jobs = vec![job(0, 1.0), job(1, 40.0), job(2, 150.0)];
    let out = run(&jobs, &Scenario::oracle(PolicyMode::Cold).with_chaos(chaos));
    assert_eq!(out.outcomes.len(), 3);
    assert_eq!(out.kernel.board_downs, 1);
    assert_eq!(out.kernel.board_ups, 1);
    // Job 1 starts after the board returned, inside the still-open
    // throttle window: exactly 2x. Job 2 starts after the window
    // closed: exactly 1x.
    assert_eq!(out.outcomes[1].service_s.to_bits(), (s0 * 2.0).to_bits());
    assert_eq!(out.outcomes[2].service_s.to_bits(), s0.to_bits());
    assert_eq!(out.chaos.throttled_starts, 2);
}

/// A blackout covering every board routes arrivals through the
/// existing `DropReason::NoBoardUp` path — no new silent-drop reason —
/// while the boards themselves never go down, and the chaos accounting
/// tells the two apart via `blackout_drops`.
#[test]
fn whole_fleet_blackout_drops_via_no_board_up() {
    let n_jobs = 12;
    let jobs = ArrivalProcess::Poisson {
        rate_jobs_per_s: 500.0,
    }
    .generate(n_jobs, &[workload()], InputSize::Test, (4.0, 8.0), 9);
    let horizon = jobs.last().unwrap().arrival_s;

    let cluster = ClusterSpec::heterogeneous(3);
    let sim = FleetSim::new(&cluster, FleetParams::new(9));
    let chaos = ChaosSchedule::new().blackout(vec![0, 1, 2], 0.0, horizon * 2.0);
    let scenario = Scenario::online(PolicyMode::Cold).with_chaos(chaos);
    let mut cache = PolicyCache::new(0);
    let out = sim.run(&jobs, &mut LeastLoaded, &mut cache, &scenario);

    assert!(out.outcomes.is_empty(), "nothing is placeable");
    assert_eq!(out.dropped.len(), n_jobs);
    assert!(out
        .dropped
        .iter()
        .all(|d| d.reason == DropReason::NoBoardUp));
    assert_eq!(out.kernel.dropped_no_board, n_jobs as u64);
    assert_eq!(out.kernel.board_downs, 0, "blackout is not an outage");
    assert_eq!(
        out.chaos.blackout_drops, n_jobs as u64,
        "drops with all boards up are charged to the blackout"
    );
    assert_eq!(out.kernel.chaos_events, 6, "3 boards x (start + end)");
}

/// The second drop site: the last placeable board goes down with work
/// queued while every other board is blacked out. Its orphans have
/// nowhere to go, so they drop through `NoBoardUp` exactly like the
/// arrivals after them, each charged to the blackout because boards
/// are still up.
#[test]
fn board_down_into_blacked_out_fleet_drops_orphans_via_no_board_up() {
    let n_jobs = 40;
    let jobs = ArrivalProcess::Poisson {
        rate_jobs_per_s: 20_000.0,
    }
    .generate(n_jobs, &[workload()], InputSize::Test, (4.0, 8.0), 11);
    let horizon = jobs.last().unwrap().arrival_s;
    let down_s = jobs[n_jobs / 2].arrival_s;

    let cluster = ClusterSpec::heterogeneous(3);
    let sim = FleetSim::new(&cluster, FleetParams::new(11));
    let chaos = ChaosSchedule::new().blackout(vec![1, 2], 0.0, horizon * 2.0);
    let scenario = Scenario::online(PolicyMode::Cold)
        .with_chaos(chaos)
        .with_churn(vec![ChurnEvent {
            time_s: down_s,
            board: 0,
            up: false,
        }]);
    let mut cache = PolicyCache::new(0);
    let mut recorder = FlightRecorder::new(TraceLevel::Full);
    let out = sim.run_traced(
        &jobs,
        &mut LeastLoaded,
        &mut cache,
        &scenario,
        &mut recorder,
    );

    // Churn beats an arrival at the same timestamp, so the arrival at
    // `down_s` already finds the fleet unplaceable.
    let arrivals_after = jobs.iter().filter(|j| j.arrival_s >= down_s).count();
    assert_eq!(out.kernel.board_downs, 1);
    assert!(out
        .dropped
        .iter()
        .all(|d| d.reason == DropReason::NoBoardUp));
    assert!(
        out.dropped.len() > arrivals_after,
        "{} drops for {arrivals_after} arrivals after the down edge: no orphan dropped",
        out.dropped.len()
    );
    assert_eq!(out.chaos.blackout_drops, out.kernel.dropped_no_board);
    assert_eq!(out.kernel.dropped, out.dropped.len() as u64);
    // Every drop site reaches the recorder: one Full-level drop instant
    // per dropped job.
    let drop_events = recorder.events().iter().filter(|e| e.cat == "drop");
    assert_eq!(drop_events.count() as u64, out.kernel.dropped);
}

/// A misprofile window corrupts every admission's estimate and the
/// feedback layer observes the truth: the run books one misprofiled
/// admission per job and the EWMA collects samples it can repair
/// future estimates with.
#[test]
fn misprofile_charges_admissions_and_feeds_the_ewma() {
    let n_jobs = 20;
    let jobs = ArrivalProcess::Poisson {
        rate_jobs_per_s: 200.0,
    }
    .generate(n_jobs, &[workload()], InputSize::Test, (4.0, 8.0), 5);
    let horizon = jobs.last().unwrap().arrival_s;

    let cluster = ClusterSpec::heterogeneous(2);
    let sim = FleetSim::new(&cluster, FleetParams::new(5));
    let chaos = ChaosSchedule::new().misprofile(None, 4.0, 0.0, horizon * 2.0);
    let scenario = Scenario::online(PolicyMode::Cold)
        .with_feedback()
        .with_chaos(chaos);
    let mut cache = PolicyCache::new(0);
    let out = sim.run(&jobs, &mut LeastLoaded, &mut cache, &scenario);

    assert_eq!(out.outcomes.len(), n_jobs, "corruption never drops jobs");
    assert_eq!(out.chaos.misprofiled, n_jobs as u64);
    assert_eq!(out.chaos.clauses.len(), 1);
    assert_eq!(out.chaos.clauses[0].affected_jobs, n_jobs as u64);
    assert!(
        out.metrics.feedback.samples > 0,
        "feedback must observe the corrupted-vs-real gap"
    );
}

/// Satellite fix: a `BoardUp` for a board that was never down is an
/// incoherent schedule, rejected up front with a pinned message.
#[test]
#[should_panic(expected = "without a preceding BoardDown")]
fn board_up_without_down_is_rejected() {
    let jobs = vec![job(0, 1.0)];
    let scenario = Scenario::oracle(PolicyMode::Cold).with_churn(vec![ChurnEvent {
        time_s: 0.5,
        board: 0,
        up: true,
    }]);
    run(&jobs, &scenario);
}

/// Downing a board that is already down is rejected the same way —
/// whether the two downs come from churn or from a chaos outage.
#[test]
#[should_panic(expected = "while already down")]
fn double_down_is_rejected_across_churn_and_chaos() {
    let jobs = vec![job(0, 1.0)];
    let scenario = Scenario::oracle(PolicyMode::Cold)
        .with_churn(vec![ChurnEvent {
            time_s: 0.5,
            board: 0,
            up: false,
        }])
        .with_chaos(ChaosSchedule::new().rack_outage(vec![0], 0.7, 0.9));
    run(&jobs, &scenario);
}

/// The pinned control tie order at one shared timestamp: a chaos edge,
/// a job arrival and a monitor tick all at t = 1 s (ticks every 0.5 s,
/// so the second lands exactly there) run edge first, then the
/// arrival's dispatch, then the tick, as the full trace records them.
#[test]
fn edge_then_arrival_then_tick_at_a_shared_timestamp() {
    let jobs = vec![job(0, 1.0)];
    let mut scenario = Scenario::oracle(PolicyMode::Cold)
        .with_chaos(ChaosSchedule::new().throttle(0, 2.0, 1.0, 5.0));
    scenario.monitor_interval_s = 0.5;
    let cluster = ClusterSpec::heterogeneous(1);
    let sim = FleetSim::new(&cluster, FleetParams::new(3));
    let mut cache = PolicyCache::new(0);
    let mut telemetry = FlightRecorder::new(TraceLevel::Full);
    let out = sim.run_traced(
        &jobs,
        &mut LeastLoaded,
        &mut cache,
        &scenario,
        &mut telemetry,
    );
    assert_eq!(out.outcomes.len(), 1);
    let at_1s: Vec<&str> = telemetry
        .events()
        .iter()
        .filter(|e| e.ts_us == 1e6 && e.tid == 0)
        .map(|e| e.cat)
        .collect();
    assert_eq!(at_1s, ["chaos", "dispatch", "tick"]);
}
