//! Golden-output regression tests: frozen fingerprints of three
//! no-chaos kernel configurations shaped like the `fleet_sim`,
//! `fleet_churn` and `fleet_million` figures (miniaturised so they run
//! in test time). The chaos engine threads a slowdown multiplier and
//! placeability checks through the hot path; these goldens prove the
//! no-chaos path stays bit-for-bit unchanged — here and in every
//! future PR. If a change legitimately alters kernel semantics, the
//! constants must be re-derived and the change called out in review.

use astro_fleet::{
    ArrivalProcess, BackendKind, ChaosSchedule, ChurnEvent, ClusterSpec, EnergyAware, FleetOutcome,
    FleetParams, FleetSim, FlightRecorder, GenCursor, LeastLoaded, PhaseAware, PolicyCache,
    PolicyMode, Scenario, TraceLevel,
};
use astro_workloads::{InputSize, Workload};

fn pool() -> Vec<Workload> {
    ["swaptions", "bfs", "streamcluster"]
        .iter()
        .map(|n| astro_workloads::by_name(n).unwrap())
        .collect()
}

/// FNV-1a over every observable bit of the run: per-job placements and
/// float timelines (`to_bits`), drops with reasons, kernel counters
/// and aggregate metrics. One flipped bit anywhere flips the digest.
fn fingerprint(out: &FleetOutcome) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for o in &out.outcomes {
        eat(o.id as u64);
        eat(o.board as u64);
        eat(o.start_s.to_bits());
        eat(o.finish_s.to_bits());
        eat(o.service_s.to_bits());
        eat(o.energy_j.to_bits());
        eat(o.slo_s.to_bits());
        eat(o.migrations as u64);
    }
    for d in &out.dropped {
        eat(d.id as u64);
        eat(d.reason as u64);
    }
    let k = &out.kernel;
    for x in [
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
    ] {
        eat(x);
    }
    eat(out.metrics.p50_s.to_bits());
    eat(out.metrics.p99_s.to_bits());
    eat(out.metrics.total_energy_j.to_bits());
    eat(out.metrics.slo_miss_rate().to_bits());
    eat(out.metrics.feedback.samples);
    h
}

/// `fleet_sim` shape: steady Poisson stream over a small
/// heterogeneous fleet, oracle and online dispatch, machine backend.
#[test]
fn golden_fleet_sim_shape() {
    let cluster = ClusterSpec::heterogeneous(8);
    let jobs = ArrivalProcess::Poisson {
        rate_jobs_per_s: 4000.0,
    }
    .generate(200, &pool(), InputSize::Test, (3.0, 8.0), 42);

    let mut digests = Vec::new();
    for scenario in [
        Scenario::oracle(PolicyMode::Cold),
        Scenario::online(PolicyMode::Warm).with_feedback(),
    ] {
        let sim = FleetSim::new(&cluster, FleetParams::new(42));
        let mut cache = PolicyCache::new(4);
        let out = sim.run(&jobs, &mut PhaseAware::default(), &mut cache, &scenario);
        digests.push(fingerprint(&out));
    }
    assert_eq!(
        digests,
        [0xe12c_4fad_b74e_37ee, 0x66ee_eddf_bf7f_7328],
        "fleet_sim-shaped no-chaos runs drifted from the golden bits"
    );
}

/// `fleet_churn` shape: online + feedback + preemption with churn
/// waves (two boards die, one comes back), redispatch accounting on.
#[test]
fn golden_fleet_churn_shape() {
    let cluster = ClusterSpec::heterogeneous(10);
    let jobs = ArrivalProcess::Poisson {
        rate_jobs_per_s: 6000.0,
    }
    .generate(150, &pool(), InputSize::Test, (2.0, 6.0), 7);
    let horizon = jobs.last().unwrap().arrival_s;
    let churn = vec![
        ChurnEvent {
            time_s: 0.3 * horizon,
            board: 0,
            up: false,
        },
        ChurnEvent {
            time_s: 0.35 * horizon,
            board: 5,
            up: false,
        },
        ChurnEvent {
            time_s: 0.7 * horizon,
            board: 0,
            up: true,
        },
    ];
    let scenario = Scenario::online(PolicyMode::Warm)
        .with_feedback()
        .with_migration_cost(1e-5)
        .with_preemption(horizon / 20.0, 1e-5, 2)
        .with_churn(churn);
    let sim = FleetSim::new(&cluster, FleetParams::new(7));
    let mut cache = PolicyCache::new(4);
    let out = sim.run(&jobs, &mut LeastLoaded, &mut cache, &scenario);
    assert_eq!(
        fingerprint(&out),
        0xa234_f6dd_e4ef_df03,
        "fleet_churn-shaped no-chaos run drifted from the golden bits"
    );
}

/// `fleet_million` shape: replay backend, bursty arrivals over a wider
/// fleet.
#[test]
fn golden_fleet_million_shape() {
    let cluster = ClusterSpec::heterogeneous(40);
    let jobs = ArrivalProcess::Bursty {
        rate_jobs_per_s: 50_000.0,
        burst: 16,
        spread_s: 1e-4,
    }
    .generate(300, &pool(), InputSize::Test, (3.0, 8.0), 13);
    let scenario = Scenario::online(PolicyMode::Warm).with_feedback();
    let mut params = FleetParams::new(13);
    params.backend = BackendKind::Replay;
    let sim = FleetSim::new(&cluster, params);
    let mut cache = PolicyCache::new(4);
    let out = sim.run(&jobs, &mut LeastLoaded, &mut cache, &scenario);
    assert_eq!(
        fingerprint(&out),
        0x4561_9a90_8856_156e,
        "fleet_million-shaped no-chaos run drifted from the golden bits"
    );
}

/// The energy-optimising dispatcher under churn + feedback on the
/// replay backend, run with the flight recorder off and fully on.
/// EnergyAware picks through a reusable scratch two-pass argmin; this
/// golden freezes that decision sequence — both runs must reproduce
/// the same digest.
#[test]
fn golden_energy_aware_shape() {
    let cluster = ClusterSpec::heterogeneous(9);
    let jobs = ArrivalProcess::Poisson {
        rate_jobs_per_s: 5000.0,
    }
    .generate(200, &pool(), InputSize::Test, (2.0, 7.0), 31);
    let horizon = jobs.last().unwrap().arrival_s;
    let churn = vec![
        ChurnEvent {
            time_s: 0.4 * horizon,
            board: 2,
            up: false,
        },
        ChurnEvent {
            time_s: 0.8 * horizon,
            board: 2,
            up: true,
        },
    ];
    let scenario = Scenario::online(PolicyMode::Warm)
        .with_feedback()
        .with_migration_cost(1e-5)
        .with_churn(churn);

    const GOLDEN: u64 = 0xa3f3_7e31_4473_ecde;
    for traced in [false, true] {
        let mut params = FleetParams::new(31);
        params.backend = BackendKind::Replay;
        let sim = FleetSim::new(&cluster, params);
        let mut cache = PolicyCache::new(8);
        let out = if traced {
            let mut recorder = FlightRecorder::new(TraceLevel::Full);
            sim.run_traced(
                &jobs,
                &mut EnergyAware,
                &mut cache,
                &scenario,
                &mut recorder,
            )
        } else {
            sim.run(&jobs, &mut EnergyAware, &mut cache, &scenario)
        };
        assert_eq!(
            fingerprint(&out),
            GOLDEN,
            "energy-aware run drifted from the golden bits (traced {traced}): got {:#018x}",
            fingerprint(&out)
        );
    }
}

/// The adversarial composite: churn + chaos (outage, composed
/// throttles, blackout, misprofile) + preemption + feedback on the
/// replay backend, run with the flight recorder off and fully on. Both
/// runs must produce the same frozen digest — telemetry is an
/// observation knob, never semantics.
#[test]
fn golden_chaos_storm_shape() {
    let cluster = ClusterSpec::heterogeneous(12);
    let jobs = ArrivalProcess::Poisson {
        rate_jobs_per_s: 8000.0,
    }
    .generate(250, &pool(), InputSize::Test, (2.0, 6.0), 23);
    let horizon = jobs.last().unwrap().arrival_s;
    let chaos = ChaosSchedule::new()
        .rack_outage(vec![0, 1], 0.30 * horizon, 0.50 * horizon)
        .throttle(3, 3.0, 0.20 * horizon, 0.70 * horizon)
        .throttle(3, 2.0, 0.40 * horizon, 0.60 * horizon)
        .blackout(vec![4], 0.35 * horizon, 0.55 * horizon)
        .misprofile(None, 0.25, 0.30 * horizon, 0.80 * horizon);
    let churn = vec![
        ChurnEvent {
            time_s: 0.25 * horizon,
            board: 6,
            up: false,
        },
        ChurnEvent {
            time_s: 0.75 * horizon,
            board: 6,
            up: true,
        },
    ];
    let scenario = Scenario::online(PolicyMode::Warm)
        .with_feedback()
        .with_migration_cost(1e-5)
        .with_preemption(horizon / 16.0, 1e-5, 2)
        .with_churn(churn)
        .with_chaos(chaos);

    const GOLDEN: u64 = 0x67dc_76f5_6dd0_5eb0;
    for traced in [false, true] {
        let mut params = FleetParams::new(23);
        params.backend = BackendKind::Replay;
        let sim = FleetSim::new(&cluster, params);
        let mut cache = PolicyCache::new(8);
        let out = if traced {
            let mut recorder = FlightRecorder::new(TraceLevel::Full);
            sim.run_traced(
                &jobs,
                &mut PhaseAware::default(),
                &mut cache,
                &scenario,
                &mut recorder,
            )
        } else {
            sim.run(&jobs, &mut PhaseAware::default(), &mut cache, &scenario)
        };
        assert_eq!(
            fingerprint(&out),
            GOLDEN,
            "chaos-storm run drifted from the golden bits (traced {traced}): got {:#018x}",
            fingerprint(&out)
        );
    }
}

/// The flight recorder's output, frozen: an FNV-1a digest of the
/// Chrome-trace JSON, every per-tick [`WindowSample`] (floats through
/// `to_bits`) and the run's [`trace_counts`], at [`TraceLevel::Full`] over a
/// small churn + chaos + feedback + preemption run. The trace carries
/// the completion order itself (one instant per completion, in fold
/// order) and the advance spans, so a change to how completions are
/// popped or folded that moves a single byte of the trace fails here.
///
/// [`WindowSample`]: astro_fleet::WindowSample
#[test]
fn golden_full_trace_bytes() {
    let cluster = ClusterSpec::heterogeneous(6);
    let jobs = ArrivalProcess::Poisson {
        rate_jobs_per_s: 25_000.0,
    }
    .generate(120, &pool(), InputSize::Test, (2.0, 6.0), 5);
    let horizon = jobs.last().unwrap().arrival_s;
    let chaos = ChaosSchedule::new()
        .throttle(2, 2.5, 0.20 * horizon, 0.60 * horizon)
        .blackout(vec![3], 0.30 * horizon, 0.50 * horizon)
        .misprofile(None, 0.5, 0.40 * horizon, 0.70 * horizon);
    let churn = vec![
        ChurnEvent {
            time_s: 0.25 * horizon,
            board: 5,
            up: false,
        },
        ChurnEvent {
            time_s: 0.65 * horizon,
            board: 5,
            up: true,
        },
    ];
    let scenario = Scenario::online(PolicyMode::Warm)
        .with_feedback()
        .with_migration_cost(1e-5)
        .with_preemption(horizon / 12.0, 1e-5, 2)
        .with_churn(churn)
        .with_chaos(chaos);
    let mut params = FleetParams::new(5);
    params.backend = BackendKind::Replay;
    let sim = FleetSim::new(&cluster, params);
    let mut cache = PolicyCache::new(8);
    let mut recorder = FlightRecorder::new(TraceLevel::Full);
    let out = sim.run_traced(
        &jobs,
        &mut LeastLoaded,
        &mut cache,
        &scenario,
        &mut recorder,
    );

    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(recorder.render_chrome_trace().as_bytes());
    for w in recorder.windows() {
        for x in [
            w.t_s.to_bits(),
            w.completions,
            w.p50_s.to_bits(),
            w.p95_s.to_bits(),
            w.p99_s.to_bits(),
            w.slo_miss_rate.to_bits(),
            w.mean_util.to_bits(),
            w.queue_depth,
            w.backlog_s.to_bits(),
            w.boards_up as u64,
            w.boards_placeable as u64,
            w.throttled as u64,
            w.blacked_out as u64,
            w.feedback_mean_abs_rel_err.to_bits(),
            w.feedback_samples,
            w.feedback_mean_correction.to_bits(),
        ] {
            eat(&x.to_le_bytes());
        }
    }
    for (name, n) in trace_counts(&out, &recorder, scenario.preemption) {
        eat(name.as_bytes());
        eat(&n.to_le_bytes());
    }
    let digest = h;
    assert!(recorder.timestamps_monotone());
    assert!(recorder.advance_windows() > 0);
    // The fixture must exercise what it claims to pin.
    assert!(out.kernel.migrations > 0 && out.kernel.redistributions > 0);
    assert!(out.metrics.feedback.samples > 0);
    assert_eq!(
        digest, 0x735a_ad1e_5ee5_60eb,
        "Full-level trace drifted from the golden bytes: got {digest:#018x}"
    );
}

/// The traced run's event counts as `(name, count)` pairs, in name
/// order and without zero counts: the kernel's [`KernelStats`] plus
/// the recorder's advance-window count. Every monitor tick runs one
/// preempt scan when preemption is on.
///
/// [`KernelStats`]: astro_fleet::KernelStats
fn trace_counts(
    out: &FleetOutcome,
    recorder: &FlightRecorder,
    preemption: bool,
) -> Vec<(&'static str, u64)> {
    let k = &out.kernel;
    [
        ("barrier_merges", recorder.advance_windows()),
        ("board_downs", k.board_downs),
        ("board_ups", k.board_ups),
        ("chaos_events", k.chaos_events),
        ("dispatches", k.dispatches()),
        ("drops", k.dropped),
        ("preempt_scans", if preemption { k.ticks } else { 0 }),
        ("ticks", k.ticks),
    ]
    .into_iter()
    .filter(|&(_, n)| n > 0)
    .collect()
}

/// Checkpoint format v3, frozen byte for byte: an FNV-1a digest of the
/// `checkpoint()` images taken every few steps of a resident Warm +
/// feedback + preemption + churn + chaos run on the replay backend
/// (bounded cache, so evictions and retired versions are in the
/// image; retention on, so outcomes are too), then of the trained
/// cache's own encoding. Any change to what the kernel stores or the
/// order it encodes it in fails here.
#[test]
fn golden_checkpoint_bytes() {
    let cluster = ClusterSpec::heterogeneous(6);
    let horizon = 120.0 / 20_000.0;
    let chaos = ChaosSchedule::new()
        .rack_outage(vec![0], 0.30 * horizon, 0.45 * horizon)
        .throttle(2, 2.5, 0.20 * horizon, 0.60 * horizon)
        .blackout(vec![3], 0.30 * horizon, 0.50 * horizon)
        .misprofile(None, 0.5, 0.40 * horizon, 0.70 * horizon);
    let churn = vec![
        ChurnEvent {
            time_s: 0.25 * horizon,
            board: 5,
            up: false,
        },
        ChurnEvent {
            time_s: 0.65 * horizon,
            board: 5,
            up: true,
        },
    ];
    let scenario = Scenario::online(PolicyMode::Warm)
        .with_feedback()
        .with_migration_cost(1e-5)
        .with_preemption(horizon / 12.0, 1e-5, 2)
        .with_churn(churn)
        .with_chaos(chaos);
    let mut params = FleetParams::new(17);
    params.backend = BackendKind::Replay;
    let sim = FleetSim::new(&cluster, params);
    let mut cursor = GenCursor::new(
        ArrivalProcess::Poisson {
            rate_jobs_per_s: 20_000.0,
        },
        120,
        &pool(),
        InputSize::Test,
        (2.0, 6.0),
        17,
        &[],
    );
    let mut cache = PolicyCache::with_capacity(3, 4);
    let mut dispatcher = PhaseAware::default();
    let mut recorder = FlightRecorder::off();

    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    let mut images = 0;
    let out = {
        let mut k = sim.resident(
            &mut cursor,
            &mut dispatcher,
            &mut cache,
            &scenario,
            &mut recorder,
            true,
        );
        let mut n = 0u64;
        while k.step() {
            n += 1;
            if n.is_multiple_of(16) {
                eat(&k.checkpoint());
                images += 1;
            }
        }
        k.finish()
    };
    eat(&cache.encoded());
    let digest = h;
    // The fixture must exercise what it claims to pin.
    assert!(images >= 8);
    assert!(out.kernel.migrations > 0 && out.kernel.redistributions > 0);
    assert!(out.cache.stale_refreshes > 0 && out.cache.evictions > 0);
    assert!(out.guard_bypasses > 0 && out.metrics.feedback.samples > 0);
    assert_eq!(
        digest, 0x179c_c1ce_9f58_03a7,
        "checkpoint bytes drifted from the golden: got {digest:#018x}"
    );
}
