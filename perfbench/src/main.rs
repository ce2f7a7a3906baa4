//! Fleet benchmark: runs one workload of the Astro fleet kernel through
//! the public `astro_fleet` API (`FleetSim::resident` →
//! `ResidentKernel::step` / `finish` / `checkpoint` / `restore`), checks
//! its outputs, and prints one JSON result line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every invocation runs a fixed number of untraced legs (set-up, then a
//! steady phase up to `finish`), one traced leg, and the correctness
//! checks. `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones. README.md documents the workloads and metrics.

mod fingerprint;
mod probe;
mod workloads;

use astro_core::replay::ReplayExecutor;
use astro_fleet::{
    Dispatcher, FleetMetrics, FleetOutcome, FleetSim, FlightRecorder, PhaseAware, PhaseProfile,
    PolicyCache, SliceCursor, TraceLevel,
};
use probe::{median, peak_rss_mib, percentile, schedstat, Spans, TimedDispatcher};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use workloads::{Bench, NAMES};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Timing windows per leg's stream: the steady phase is timed in windows
/// of `jobs / WINDOWS` control steps. Every leg of a run replays the
/// same steps, so window `i` is the same work in every leg.
const WINDOWS: u64 = 1_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} value {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad(&"must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(bench) = Bench::new(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?}; one of {NAMES:?}",
            args.workload
        );
        std::process::exit(2);
    };
    // The kernel enforces its own invariants, `arrivals == completions +
    // dropped` among them, by panicking. A panic is a failed check: the
    // run still ends with a result line, with every arrival of a leg
    // counted as failed.
    let r = catch_unwind(AssertUnwindSafe(|| run(&bench, &args))).unwrap_or_else(|_| Report {
        metrics: Vec::new(),
        failures: vec!["the kernel panicked (message above)".into()],
        attempted: bench.jobs as u64,
        failed: bench.jobs as u64,
        host: "{\"host\": null}".into(),
    });
    for f in &r.failures {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }
    for (name, value, unit) in &r.metrics {
        eprintln!("  {name:<34} {value:>16.4} {unit}");
    }
    println!("{}", r.host);
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failures.is_empty(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
    if !r.failures.is_empty() {
        std::process::exit(1);
    }
}

/// What one leg measured: set-up, then the steady phase up to `finish`.
struct Leg {
    setup_s: f64,
    /// Host seconds of replay calibration, inside set-up.
    calibrate_s: f64,
    /// Host seconds of the training run, inside set-up.
    train_s: f64,
    /// Simulated seconds of Q-learning in the training run.
    train_sim_s: f64,
    steady_s: f64,
    /// Completions inside the steady phase.
    steady_jobs: u64,
    /// Control steps inside the steady phase.
    steady_steps: u64,
    /// Host seconds of each timing window of the steady phase; the last
    /// window ends at `finish`.
    windows: Vec<f64>,
    /// Steady-phase `(on-CPU, runqueue-wait)` ns of this thread.
    sched_ns: (u64, u64),
    out: FleetOutcome,
    replay: Option<Arc<ReplayExecutor>>,
    /// The policy cache as set-up's training run left it.
    trained: PolicyCache,
}

/// What the traced leg's probes saw.
struct Probes {
    /// Start of the steady phase, ns from the probes' origin.
    steady_from_ns: u64,
    steps: Spans,
    picks: Spans,
    checkpoints: Spans,
    /// The first checkpoint taken at or past mid-stream.
    image: Option<Vec<u8>>,
    /// The recorder's wall profile over the whole kernel run.
    phase: PhaseProfile,
}

/// A simulator for `b`, sharing a warmed replay backend when given one.
fn make_sim<'c>(b: &'c Bench, replay: &Option<Arc<ReplayExecutor>>) -> FleetSim<'c> {
    match replay {
        Some(r) => FleetSim::with_replay(&b.cluster, b.params.clone(), r.clone()),
        None => FleetSim::new(&b.cluster, b.params.clone()),
    }
}

/// One leg over a fresh simulator (so set-up includes replay
/// calibration). `traced` turns on the flight recorder and every probe.
fn leg(b: &Bench, traced: bool) -> (Leg, Option<Probes>) {
    let origin = Instant::now();
    let mut cursor = b.cursor();
    let mut cache = PolicyCache::new(b.staleness);
    let mut plain = PhaseAware::default();
    let mut timed = traced.then(|| TimedDispatcher::new(PhaseAware::default(), origin));
    let mut rec = if traced {
        FlightRecorder::new(TraceLevel::Ticks)
    } else {
        FlightRecorder::off()
    };
    let mut steps = Spans::default();
    let mut checkpoints = Spans::default();

    let t0 = Instant::now();
    let sim = FleetSim::new(&b.cluster, b.params.clone());
    let calibrate_s = calibrate(b, &sim);
    let t_train = Instant::now();
    let train_sim_s = train(b, &sim, &mut cache);
    let train_s = t_train.elapsed().as_secs_f64();
    let trained = cache.clone();
    let dispatcher: &mut dyn Dispatcher = match timed.as_mut() {
        Some(t) => t,
        None => &mut plain,
    };
    let mut k = sim.resident(
        &mut *cursor,
        dispatcher,
        &mut cache,
        &b.scenario,
        &mut rec,
        b.retain,
    );
    while k.position() < b.warmup_jobs && k.step() {}
    let setup_s = t0.elapsed().as_secs_f64();

    let completions_before = k.completions();
    let sched0 = schedstat();
    let t1 = Instant::now();
    let steady_from_ns = t1.duration_since(origin).as_nanos() as u64;
    let mut image = None;
    let mut n = 0u64;
    let window_steps = (b.jobs as u64 / WINDOWS).max(1);
    let mut windows = Vec::new();
    let mut window_start = t1;
    loop {
        let more = if traced {
            steps.time(origin, || k.step())
        } else {
            k.step()
        };
        if !more {
            break;
        }
        n += 1;
        if n.is_multiple_of(window_steps) {
            let now = Instant::now();
            windows.push(now.duration_since(window_start).as_secs_f64());
            window_start = now;
        }
        // Mid-stream on a traced leg: the image the restore check resumes.
        let keep = traced && image.is_none() && k.position() >= b.jobs / 2;
        // Workloads without in-loop checkpoints take just that one, to
        // price the codec.
        let due = match b.checkpoint_every {
            0 => keep,
            every => n.is_multiple_of(every),
        };
        if due {
            let bytes = if traced {
                checkpoints.time(origin, || k.checkpoint())
            } else {
                k.checkpoint()
            };
            if keep {
                image = Some(bytes);
            } else {
                black_box(bytes);
            }
        }
    }
    let out = k.finish();
    let end = Instant::now();
    windows.push(end.duration_since(window_start).as_secs_f64());
    let steady_s = end.duration_since(t1).as_secs_f64();
    let sched1 = schedstat();

    let probes = timed.map(|t| Probes {
        steady_from_ns,
        steps,
        picks: t.picks,
        checkpoints,
        image,
        phase: rec.wall(),
    });
    let leg = Leg {
        setup_s,
        calibrate_s,
        train_s,
        train_sim_s,
        steady_s,
        steady_jobs: out.kernel.completions - completions_before,
        steady_steps: n,
        windows,
        sched_ns: (sched1.0 - sched0.0, sched1.1 - sched0.1),
        out,
        replay: sim.replay_handle(),
        trained,
    };
    (leg, probes)
}

/// Calibrate every (pool workload, architecture) pair on the replay
/// backend up front, as the kernel would on construction. Returns the
/// host seconds it took (next to nothing without a replay backend).
fn calibrate(b: &Bench, sim: &FleetSim) -> f64 {
    let t0 = Instant::now();
    if let Some(replay) = sim.replay_handle() {
        let modules: Vec<_> = b
            .pool
            .iter()
            .map(|w| (w.name, (w.build)(b.params.size)))
            .collect();
        for key in b.cluster.arch_keys() {
            let board = b.cluster.representative_board(key);
            for (name, module) in &modules {
                replay.calibrate(name, module, board);
            }
        }
    }
    t0.elapsed().as_secs_f64()
}

/// Train `cache` by running the workload's fixed training stream to
/// completion, so cold Q-learning happens in set-up. Returns the
/// simulated seconds the training took.
fn train(b: &Bench, sim: &FleetSim, cache: &mut PolicyCache) -> f64 {
    let mut cursor = SliceCursor::new(&b.train_jobs);
    let mut dispatcher = PhaseAware::default();
    let mut rec = FlightRecorder::off();
    let mut k = sim.resident(
        &mut cursor,
        &mut dispatcher,
        cache,
        &b.train_scenario,
        &mut rec,
        false,
    );
    k.run();
    k.finish().train_time_s
}

/// The workload's stream run to completion on a fresh kernel over a
/// warmed simulator, untimed, optionally resumed from a checkpoint.
/// Returns the outcome and the host seconds `restore` took.
fn replay_run(
    b: &Bench,
    replay: &Option<Arc<ReplayExecutor>>,
    mut cache: PolicyCache,
    retain: bool,
    image: Option<&[u8]>,
) -> Result<(FleetOutcome, f64), String> {
    let sim = make_sim(b, replay);
    let mut cursor = b.cursor();
    let mut dispatcher = PhaseAware::default();
    let mut rec = FlightRecorder::off();
    let mut k = sim.resident(
        &mut *cursor,
        &mut dispatcher,
        &mut cache,
        &b.scenario,
        &mut rec,
        retain,
    );
    let mut restore_s = 0.0;
    if let Some(bytes) = image {
        let t0 = Instant::now();
        k.restore(bytes)
            .map_err(|e| format!("restore failed: {e:?}"))?;
        restore_s = t0.elapsed().as_secs_f64();
    }
    k.run();
    Ok((k.finish(), restore_s))
}

/// The recorder's wall profile over the warm-up prefix alone, from a
/// traced kernel dropped at the end of warm-up: subtracting it from the
/// traced leg's profile leaves the steady phase.
fn warmup_phase(
    b: &Bench,
    replay: &Option<Arc<ReplayExecutor>>,
    mut cache: PolicyCache,
) -> PhaseProfile {
    let sim = make_sim(b, replay);
    let mut cursor = b.cursor();
    let mut dispatcher = PhaseAware::default();
    let mut rec = FlightRecorder::new(TraceLevel::Ticks);
    {
        let mut k = sim.resident(
            &mut *cursor,
            &mut dispatcher,
            &mut cache,
            &b.scenario,
            &mut rec,
            b.retain,
        );
        while k.position() < b.warmup_jobs && k.step() {}
    }
    rec.wall()
}

/// Nanoseconds per job of a standalone pass over a fresh cursor.
fn cursor_pull_ns(b: &Bench) -> f64 {
    let mut cursor = b.cursor();
    let t0 = Instant::now();
    let mut n = 0u64;
    while let Some(job) = cursor.next_job() {
        black_box(job);
        n += 1;
    }
    t0.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// One invocation's result.
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    /// The host record line.
    host: String,
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

fn run(b: &Bench, args: &Args) -> Report {
    let mut failures = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };

    // Timed legs, untraced. Their number depends on --seconds and the
    // workload only, never on how fast the host runs them.
    let mut legs: Vec<Leg> = Vec::new();
    // The first leg's full fingerprint, per-job outcomes included.
    let mut fp = 0;
    // Peak RSS after the first leg. Later legs repeat the same work, and
    // only the allocator's reuse of freed memory moves their peak.
    let mut peak_rss = 0.0;
    for _ in 0..b.legs(args.seconds) {
        let (mut l, _) = leg(b, false);
        eprintln!(
            "leg {}: set-up {:.3} s, steady {:.3} s, {:.0} jobs/s",
            legs.len(),
            l.setup_s,
            l.steady_s,
            l.steady_jobs as f64 / l.steady_s
        );
        // Every leg keeps the same footprint: per-job outcomes live on in
        // `fp` only, and the first leg's replay backend and trained cache
        // serve the checks below.
        if legs.is_empty() {
            peak_rss = peak_rss_mib();
            fp = fingerprint::full(&l.out);
        } else {
            l.replay = None;
            l.trained = PolicyCache::new(0);
        }
        l.out.outcomes = Vec::new();
        legs.push(l);
    }
    let first = &legs[0];
    let fp_aggregate = fingerprint::full(&first.out);
    let replay = first.replay.clone();
    let attempted = legs.iter().map(|l| l.out.kernel.arrivals).sum();
    for (i, l) in legs.iter().enumerate() {
        check(
            fingerprint::full(&l.out) == fp_aggregate,
            format!("leg {i}: same seed, different outcome"),
        );
    }

    // The traced leg: same outcome, plus the probes.
    let (tleg, probes) = leg(b, true);
    let probes = probes.expect("a traced leg has probes");
    check(
        fingerprint::full(&tleg.out) == fp,
        "traced outcome differs from the untraced one".into(),
    );

    // Checkpoint at mid-stream → fresh kernel → restore → finish must
    // equal the uninterrupted run.
    let mut restore_ms = 0.0;
    match probes.image.as_deref() {
        None => check(false, "no mid-stream checkpoint was taken".into()),
        Some(image) => match replay_run(b, &replay, first.trained.clone(), b.retain, Some(image)) {
            Ok((resumed, restore_s)) => {
                restore_ms = restore_s * 1e3;
                check(
                    fingerprint::full(&resumed) == fp,
                    "resumed run differs from the uninterrupted one".into(),
                );
            }
            Err(e) => check(false, e),
        },
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let steady_wall_ns: f64 = legs.iter().map(|l| l.steady_s * 1e9).sum();
    let on_cpu_ns: u64 = legs.iter().map(|l| l.sched_ns.0).sum();
    let wait_ns: u64 = legs.iter().map(|l| l.sched_ns.1).sum();
    let host = format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"legs\": {}, \"steady_wall_ns\": {steady_wall_ns:.0}, \
         \"steady_on_cpu_ns\": {on_cpu_ns}, \"steady_runqueue_wait_ns\": {wait_ns}}}}}",
        legs.len()
    );

    // Steady wall: each window's fastest repetition across the run's
    // legs. The legs repeat identical work, and interference from the
    // host only ever slows a window down, so the fastest repetition is
    // the window's cost with that noise filtered out. The leg count is
    // fixed, so the estimate does not drift with how many legs fit.
    let n_windows = first.windows.len();
    check(
        legs.iter().all(|l| l.windows.len() == n_windows),
        "legs of one seed stepped a different number of times".into(),
    );
    let steady_wall_s: f64 = (0..n_windows)
        .map(|i| {
            legs.iter()
                .filter_map(|l| l.windows.get(i))
                .fold(f64::INFINITY, |a, &w| a.min(w))
        })
        .sum();
    let jobs_per_s = first.steady_jobs as f64 / steady_wall_s;
    let leg_jobs_per_s = median(
        &legs
            .iter()
            .map(|l| l.steady_jobs as f64 / l.steady_s)
            .collect::<Vec<_>>(),
    );
    eprintln!("median leg: {leg_jobs_per_s:.0} jobs/s");

    let metrics = if !args.trace {
        // Simulated metrics come from retained outcomes, whose
        // percentiles are exact (streamed ones are digest estimates).
        let exact: FleetMetrics = if b.retain {
            first.out.metrics.clone()
        } else {
            match replay_run(b, &replay, first.trained.clone(), true, None) {
                Ok((retained, _)) => {
                    check(
                        fingerprint::core(&retained) == fingerprint::core(&first.out),
                        "retaining outcomes changed the simulation".into(),
                    );
                    retained.metrics
                }
                Err(e) => {
                    check(false, e);
                    first.out.metrics.clone()
                }
            }
        };
        let k = &first.out.kernel;
        let arrivals = k.arrivals as f64;
        vec![
            ("jobs_per_s", jobs_per_s, "1/s"),
            (
                "setup_s",
                median(&legs.iter().map(|l| l.setup_s).collect::<Vec<_>>()),
                "s",
            ),
            ("peak_rss_mib", peak_rss, "MiB"),
            ("sim_p99_ms", exact.p99_s * 1e3, "ms"),
            ("sim_p99_slo_ratio", exact.p99_slo_ratio, "ratio"),
            (
                "sim_slo_miss_pct",
                pct((exact.slo_misses as u64 + k.dropped) as f64, arrivals),
                "%",
            ),
            (
                "sim_energy_mj_per_job",
                exact.total_energy_j * 1e3 / exact.jobs.max(1) as f64,
                "mJ",
            ),
            ("served_pct", pct(k.completions as f64, arrivals), "%"),
        ]
    } else {
        let warm = warmup_phase(b, &replay, first.trained.clone());
        let out = &tleg.out;
        let k = &out.kernel;
        let arrivals = k.arrivals.max(1) as f64;
        let jobs = tleg.steady_jobs.max(1) as f64;
        let steady_from = probes.steady_from_ns;
        let steps = probes.steps.sorted_since(steady_from);
        let picks = probes.picks.sorted_since(steady_from);
        let advance_s = probes.phase.shard_advance_s - warm.shard_advance_s;
        let merge_s = probes.phase.barrier_merge_s - warm.barrier_merge_s;
        let step_ns = probes.steps.total_since(steady_from) as f64;
        let pick_ns = probes.picks.total_since(steady_from) as f64;
        let control_other_ns = step_ns - (advance_s + merge_s) * 1e9 - pick_ns;
        let saves: Vec<f64> = probes
            .checkpoints
            .0
            .iter()
            .map(|s| s.1 as f64 / 1e6)
            .collect();
        let image_bytes = probes.image.as_ref().map_or(0, |i| i.len());
        let traced_jps = tleg.steady_jobs as f64 / tleg.steady_s;
        let fb = &out.metrics.feedback;
        // Cache counters of the measured stream alone: the cache arrives
        // from set-up's training run with counts of its own.
        let setup = &tleg.trained.stats;
        let lookups = out.cache.lookups - setup.lookups;

        let spans_path = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
            .join("perfbench")
            .join(format!("spans-{}.tsv", b.name));
        if let Err(e) = probe::write_spans(
            &spans_path,
            &[
                ("step", &probes.steps),
                ("pick", &probes.picks),
                ("checkpoint", &probes.checkpoints),
            ],
        ) {
            eprintln!("perfbench: could not write {}: {e}", spans_path.display());
        }

        vec![
            ("kernel.step_ns_p50", percentile(&steps, 50.0), "ns"),
            ("kernel.step_ns_p99", percentile(&steps, 99.0), "ns"),
            (
                "kernel.steps_per_job",
                tleg.steady_steps as f64 / jobs,
                "count",
            ),
            ("kernel.events_per_job", k.events as f64 / arrivals, "count"),
            (
                "kernel.control_other_ns_per_job",
                control_other_ns / jobs,
                "ns",
            ),
            ("dispatch.pick_ns_p50", percentile(&picks, 50.0), "ns"),
            ("dispatch.pick_ns_p99", percentile(&picks, 99.0), "ns"),
            ("dispatch.picks_per_job", picks.len() as f64 / jobs, "count"),
            ("shard.advance_ns_per_job", advance_s * 1e9 / jobs, "ns"),
            ("shard.merge_ns_per_job", merge_s * 1e9 / jobs, "ns"),
            (
                "shard.advances_per_job",
                k.advances as f64 / arrivals,
                "count",
            ),
            (
                "shard.messages_per_job",
                k.messages as f64 / arrivals,
                "count",
            ),
            ("arrival.pull_ns", cursor_pull_ns(b), "ns"),
            ("checkpoint.save_ms", median(&saves), "ms"),
            ("checkpoint.restore_ms", restore_ms, "ms"),
            (
                "checkpoint.bytes_per_board",
                image_bytes as f64 / b.cluster.len() as f64,
                "B",
            ),
            ("replay.calibrate_s", tleg.calibrate_s, "s"),
            ("replay.calibrations", out.calibrations as f64, "count"),
            ("exec.machine_run_us", b.machine_run_s * 1e6, "us"),
            (
                "cache.hit_pct",
                pct((out.cache.hits - setup.hits) as f64, lookups as f64),
                "%",
            ),
            (
                "cache.misses",
                (out.cache.misses - setup.misses) as f64,
                "count",
            ),
            ("cache.setup_misses", setup.misses as f64, "count"),
            (
                "cache.stale_refreshes",
                (out.cache.stale_refreshes - setup.stale_refreshes) as f64,
                "count",
            ),
            (
                "policy.guard_bypass_pct",
                pct(out.guard_bypasses as f64, arrivals),
                "%",
            ),
            ("policy.train_s", tleg.train_s, "s"),
            (
                "policy.train_sim_s",
                tleg.train_sim_s + out.train_time_s,
                "sim_s",
            ),
            ("feedback.mispredict_pct", 100.0 * fb.mispredict_rate(), "%"),
            (
                "feedback.mean_abs_rel_err_pct",
                100.0 * fb.mean_abs_rel_err(),
                "%",
            ),
            ("kernel.migrations", k.migrations as f64, "count"),
            ("kernel.redistributions", k.redistributions as f64, "count"),
            ("kernel.drops_no_board", k.dropped_no_board as f64, "count"),
            (
                "kernel.drops_migration_cap",
                k.dropped_migration_cap as f64,
                "count",
            ),
            (
                "telemetry.overhead_pct",
                pct(leg_jobs_per_s - traced_jps, leg_jobs_per_s),
                "%",
            ),
            (
                "host.runqueue_wait_pct",
                pct(wait_ns as f64, steady_wall_ns),
                "%",
            ),
        ]
    };
    for (name, value, _) in &metrics {
        check(value.is_finite(), format!("{name} is not finite"));
    }
    Report {
        metrics,
        failures,
        attempted,
        failed: 0,
        host,
    }
}
