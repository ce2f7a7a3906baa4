//! Streaming aggregation vs retained metrics: the resident kernel with
//! retention off must report the *same run* as the batch path — exact
//! on every counter (jobs, SLO misses, drops, kernel/chaos/cache
//! accounting, makespan), within one digest bucket on every estimated
//! percentile (`exact <= estimate <= exact * DIGEST_GROWTH`), and
//! bit-exact on the sliding-window percentiles (the window holds raw
//! latencies, not estimates — its nearest-rank percentiles over the
//! last `STREAM_WINDOW` completions must reproduce the retained
//! outcomes' tail exactly, including after the ring wraps).

use astro_fleet::{
    percentile, ArrivalProcess, BackendKind, ChaosSchedule, ChurnEvent, ClusterSpec, Dispatcher,
    EnergyAware, FleetOutcome, FleetParams, FleetSim, FlightRecorder, GenCursor, JobOutcome,
    LeastLoaded, PhaseAware, PolicyCache, PolicyMode, Scenario, DIGEST_GROWTH, STREAM_WINDOW,
};
use astro_workloads::{InputSize, Workload};

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

struct Fixture {
    cluster: ClusterSpec,
    scenario: Scenario,
    process: ArrivalProcess,
    n_jobs: usize,
    seed: u64,
}

impl Fixture {
    fn params(&self) -> FleetParams {
        let mut p = FleetParams::new(self.seed);
        p.backend = BackendKind::Replay;
        p
    }

    /// The batch path: materialised jobs, retained outcomes.
    fn run_retained(&self, dpick: u8) -> FleetOutcome {
        let jobs =
            self.process
                .generate(self.n_jobs, &pool(), InputSize::Test, (4.0, 8.0), self.seed);
        let sim = FleetSim::new(&self.cluster, self.params());
        let mut cache = PolicyCache::new(8);
        sim.run(&jobs, &mut *dispatcher(dpick), &mut cache, &self.scenario)
    }

    /// The resident path: the same seeded stream pulled through a
    /// cursor, outcomes folded into streaming aggregates and dropped.
    fn run_streamed(&self, dpick: u8) -> FleetOutcome {
        let sim = FleetSim::new(&self.cluster, self.params());
        let mut cursor = GenCursor::new(
            self.process,
            self.n_jobs,
            &pool(),
            InputSize::Test,
            (4.0, 8.0),
            self.seed,
            &[],
        );
        let mut d = dispatcher(dpick);
        let mut cache = PolicyCache::new(8);
        let mut telemetry = FlightRecorder::off();
        let mut k = sim.resident(
            &mut cursor,
            &mut *d,
            &mut cache,
            &self.scenario,
            &mut telemetry,
            false,
        );
        k.run();
        k.finish()
    }
}

/// `exact <= estimate <= exact * DIGEST_GROWTH` — the digest's
/// one-bucket contract, with an ulp slop on both edges.
fn assert_within_one_bucket(est: f64, exact: f64, what: &str) {
    assert!(
        est >= exact * (1.0 - 1e-12) && est <= exact * DIGEST_GROWTH * (1.0 + 1e-12),
        "{what}: digest estimate {est} not within one bucket of exact {exact}"
    );
}

/// The retained outcomes replayed through the streaming fold order —
/// (finish time, id), the order completions pop in — to reconstruct what
/// the sliding window must contain.
fn tail_latencies(outcomes: &[JobOutcome]) -> Vec<f64> {
    let mut ordered: Vec<&JobOutcome> = outcomes.iter().collect();
    ordered.sort_by(|a, b| a.finish_s.total_cmp(&b.finish_s).then(a.id.cmp(&b.id)));
    let skip = ordered.len().saturating_sub(STREAM_WINDOW);
    let mut tail: Vec<f64> = ordered[skip..].iter().map(|o| o.latency_s()).collect();
    tail.sort_by(f64::total_cmp);
    tail
}

fn check(retained: &FleetOutcome, streamed: &FleetOutcome, label: &str) {
    // The simulation itself must be identical — retention is pure
    // observation. Everything but the metrics representation compares
    // exactly.
    assert_eq!(
        format!("{:?}", retained.kernel),
        format!("{:?}", streamed.kernel),
        "{label}: kernel accounting diverged"
    );
    assert_eq!(
        format!("{:?}", retained.chaos),
        format!("{:?}", streamed.chaos),
        "{label}: chaos accounting diverged"
    );
    assert_eq!(
        format!("{:?}", retained.cache),
        format!("{:?}", streamed.cache),
        "{label}: cache accounting diverged"
    );
    assert_eq!(
        format!("{:?}", retained.dropped),
        format!("{:?}", streamed.dropped),
        "{label}: drop records diverged"
    );
    assert!(
        streamed.outcomes.is_empty(),
        "{label}: streaming retained outcomes"
    );
    // One completion sink: both runs fold the same completions in the
    // same (finish time, id) order, so their summaries agree bit for bit
    // (the Debug rendering of an f64 round-trips its bits).
    assert_eq!(
        format!("{:?}", retained.stream),
        format!("{:?}", streamed.stream),
        "{label}: retained and streamed stream summaries diverged"
    );

    // Counters and max-folds: exact.
    let r = &retained.metrics;
    let s = &streamed.metrics;
    assert_eq!(r.jobs, s.jobs, "{label}: job count");
    assert_eq!(r.slo_misses, s.slo_misses, "{label}: SLO misses");
    assert_eq!(
        r.makespan_s.to_bits(),
        s.makespan_s.to_bits(),
        "{label}: makespan"
    );
    assert_eq!(
        r.throughput_jps.to_bits(),
        s.throughput_jps.to_bits(),
        "{label}: throughput"
    );
    assert_eq!(r.board_util.len(), s.board_util.len());

    // Sums folded in a different order: equal to relative ulp noise.
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-300);
    assert!(
        close(r.mean_latency_s, s.mean_latency_s),
        "{label}: mean latency {} vs {}",
        r.mean_latency_s,
        s.mean_latency_s
    );
    assert!(
        close(r.total_energy_j, s.total_energy_j),
        "{label}: total energy {} vs {}",
        r.total_energy_j,
        s.total_energy_j
    );
    for (b, (&ru, &su)) in r.board_util.iter().zip(&s.board_util).enumerate() {
        assert!(close(ru, su), "{label}: board {b} util {ru} vs {su}");
    }

    // Percentiles: the streamed values are digest estimates — within
    // one geometric bucket of the retained exact nearest-rank values.
    assert_within_one_bucket(s.p50_s, r.p50_s, label);
    assert_within_one_bucket(s.p95_s, r.p95_s, label);
    assert_within_one_bucket(s.p99_s, r.p99_s, label);
    assert_within_one_bucket(s.p99_slo_ratio, r.p99_slo_ratio, label);

    // The stream summary: digest estimates within one bucket, window
    // percentiles bit-exact against the retained outcomes' tail in
    // fold order.
    let sum = &streamed.stream;
    assert_eq!(
        sum.jobs as usize,
        retained.outcomes.len(),
        "{label}: folded"
    );
    assert_within_one_bucket(sum.digest_p50_s, r.p50_s, label);
    assert_within_one_bucket(sum.digest_p95_s, r.p95_s, label);
    assert_within_one_bucket(sum.digest_p99_s, r.p99_s, label);
    let tail = tail_latencies(&retained.outcomes);
    assert_eq!(sum.window_len, tail.len(), "{label}: window length");
    for (q, got) in [
        (50.0, sum.window_p50_s),
        (95.0, sum.window_p95_s),
        (99.0, sum.window_p99_s),
    ] {
        assert_eq!(
            got.to_bits(),
            percentile(&tail, q).to_bits(),
            "{label}: window p{q} must be bit-exact (raw latencies, not estimates)"
        );
    }
}

/// Every dispatcher, with churn + throttle +
/// misprofile + blackout + preemption + feedback all active: the
/// streamed run reports the retained run.
#[test]
fn streamed_metrics_match_retained_within_one_bucket() {
    let n_jobs = 400;
    let rate = 30_000.0;
    let horizon = n_jobs as f64 / rate;
    let f = Fixture {
        cluster: ClusterSpec::heterogeneous(6),
        scenario: Scenario::online(PolicyMode::Cold)
            .with_migration_cost(1e-6)
            .with_preemption(0.25 * horizon, 1e-6, 2)
            .with_feedback()
            .with_churn(vec![
                ChurnEvent {
                    time_s: 0.3 * horizon,
                    board: 1,
                    up: false,
                },
                ChurnEvent {
                    time_s: 0.7 * horizon,
                    board: 1,
                    up: true,
                },
            ])
            .with_chaos(
                ChaosSchedule::new()
                    .throttle(0, 2.0, 0.2 * horizon, 0.8 * horizon)
                    .misprofile(None, 0.4, 0.1 * horizon, 0.9 * horizon)
                    .blackout(vec![2], 0.4 * horizon, 0.6 * horizon),
            ),
        process: ArrivalProcess::Bursty {
            rate_jobs_per_s: rate,
            burst: 16,
            spread_s: 1e-6,
        },
        n_jobs,
        seed: 11,
    };
    for dpick in 0..3u8 {
        let retained = f.run_retained(dpick);
        let streamed = f.run_streamed(dpick);
        check(&retained, &streamed, &format!("dispatcher {dpick}"));
    }
}

/// More completions than `STREAM_WINDOW`: the ring wraps, and the
/// window percentiles must describe exactly the *last* `STREAM_WINDOW`
/// completions in fold order — not the whole run.
#[test]
fn sliding_window_wraps_to_the_latest_completions() {
    const { assert!(STREAM_WINDOW < 6_000, "fixture must overflow the window") };
    let f = Fixture {
        cluster: ClusterSpec::heterogeneous(8),
        scenario: Scenario::online(PolicyMode::Cold).with_migration_cost(1e-6),
        process: ArrivalProcess::Poisson {
            rate_jobs_per_s: 200_000.0,
        },
        n_jobs: 6_000,
        seed: 29,
    };
    let retained = f.run_retained(0);
    let streamed = f.run_streamed(0);
    assert!(
        retained.outcomes.len() > STREAM_WINDOW,
        "fixture degenerated: only {} completions",
        retained.outcomes.len()
    );
    check(&retained, &streamed, "window wrap");
    let sum = &streamed.stream;
    assert_eq!(sum.window_len, STREAM_WINDOW);
}
