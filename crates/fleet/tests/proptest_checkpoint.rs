//! Checkpoint/restore equivalence through the public API: randomised
//! churn + chaos schedules, a checkpoint taken at an arbitrary control
//! step and resumed in a fresh kernel — the drained outcome must be
//! byte-identical to the uninterrupted run, execution-plane counters
//! included, and taking the checkpoint must not perturb the run it was
//! taken from.
//! Corrupted, truncated and wrong-version images must be rejected
//! cleanly, leaving the kernel able to restore the good image and
//! drain.
//!
//! The section-level wire-format tests (every encoder round-trips,
//! every decoder validates) live in `src/checkpoint.rs`; the
//! kernel-assembly smoke tests live in `src/kernel.rs`. This suite is
//! the adversarial end-to-end layer over both.

use astro_fleet::{
    ArrivalProcess, ChaosSchedule, CheckpointError, ChurnEvent, ClusterSpec, Dispatcher,
    EnergyAware, FleetOutcome, FleetParams, FleetSim, FlightRecorder, GenCursor, LeastLoaded,
    PhaseAware, PolicyCache, PolicyMode, Scenario,
};
use astro_workloads::{InputSize, Workload};
use proptest::prelude::*;

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

/// Everything the determinism contract pins across a checkpoint:
/// retained outcomes (bitwise), drops, metrics, streaming aggregates,
/// kernel counters (execution-plane `messages` and `advances`
/// included), chaos/cache/feedback accounting.
fn fingerprint(out: &FleetOutcome) -> String {
    let mut per_job = String::new();
    for o in &out.outcomes {
        per_job.push_str(&format!(
            "{}:{}:{}:{}:{};",
            o.id,
            o.board,
            o.start_s.to_bits(),
            o.finish_s.to_bits(),
            o.energy_j.to_bits(),
        ));
    }
    format!(
        "{per_job}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{}",
        out.metrics,
        out.kernel,
        out.chaos,
        out.stream,
        out.cache,
        out.dropped,
        out.guard_bypasses,
        out.train_time_s.to_bits(),
        out.train_energy_j.to_bits(),
    )
}

/// One fixture drawn by the proptest driver: the generator config and
/// scenario are rebuilt identically for every run within a case.
struct Fixture {
    cluster: ClusterSpec,
    scenario: Scenario,
    n_jobs: usize,
    rate: f64,
    seed: u64,
    retain: bool,
}

impl Fixture {
    fn cursor(&self) -> GenCursor {
        GenCursor::new(
            ArrivalProcess::Poisson {
                rate_jobs_per_s: self.rate,
            },
            self.n_jobs,
            &pool(),
            InputSize::Test,
            (4.0, 8.0),
            self.seed,
            &[],
        )
    }

    fn params(&self) -> FleetParams {
        let mut p = FleetParams::new(self.seed);
        p.backend = astro_fleet::BackendKind::Replay;
        p
    }

    /// Run uninterrupted, optionally checkpointing after
    /// `ckpt_at` control steps. Returns the image (if taken) and the
    /// drained outcome of this very kernel — which must not have been
    /// perturbed by the checkpoint.
    fn run(&self, dpick: u8, ckpt_at: Option<usize>) -> (Option<Vec<u8>>, String) {
        let sim = FleetSim::new(&self.cluster, self.params());
        let mut cursor = self.cursor();
        let mut d = dispatcher(dpick);
        let mut cache = PolicyCache::new(8);
        let mut telemetry = FlightRecorder::off();
        let mut k = sim.resident(
            &mut cursor,
            &mut *d,
            &mut cache,
            &self.scenario,
            &mut telemetry,
            self.retain,
        );
        let bytes = ckpt_at.map(|steps| {
            for _ in 0..steps {
                assert!(k.step(), "checkpoint step target within the run");
            }
            k.checkpoint()
        });
        k.run();
        (bytes, fingerprint(&k.finish()))
    }

    /// Restore `bytes` into a fresh kernel and drain it.
    fn resume(&self, dpick: u8, bytes: &[u8]) -> String {
        let sim = FleetSim::new(&self.cluster, self.params());
        let mut cursor = self.cursor();
        let mut d = dispatcher(dpick);
        let mut cache = PolicyCache::new(8);
        let mut telemetry = FlightRecorder::off();
        let mut k = sim.resident(
            &mut cursor,
            &mut *d,
            &mut cache,
            &self.scenario,
            &mut telemetry,
            self.retain,
        );
        k.restore(bytes).expect("restore a valid checkpoint");
        k.run();
        fingerprint(&k.finish())
    }
}

#[allow(clippy::too_many_arguments)]
fn fixture(
    n_jobs: usize,
    n_boards: usize,
    rate: f64,
    policy_bit: u8,
    feedback_bit: u8,
    preempt_bit: u8,
    chaos_bits: u8,
    churn_bit: u8,
    retain_bit: u8,
    seed: u64,
) -> Fixture {
    // The cursor replays the same seeded stream, so the materialised
    // twin is only used to scale churn/chaos windows to the run.
    let jobs = ArrivalProcess::Poisson {
        rate_jobs_per_s: rate,
    }
    .generate(n_jobs, &pool(), InputSize::Test, (4.0, 8.0), seed);
    let horizon = jobs.last().unwrap().arrival_s.max(1e-6);
    let policy = if policy_bit == 1 {
        PolicyMode::Warm
    } else {
        PolicyMode::Cold
    };
    let mut scenario = Scenario::online(policy).with_migration_cost(1e-6);
    if feedback_bit == 1 {
        scenario = scenario.with_feedback();
    }
    if preempt_bit == 1 {
        scenario = scenario.with_preemption(0.3 / rate * n_boards as f64, 1e-6, 2);
    }
    if churn_bit == 1 {
        scenario = scenario.with_churn(vec![
            ChurnEvent {
                time_s: 0.2 * horizon,
                board: 1,
                up: false,
            },
            ChurnEvent {
                time_s: 0.6 * horizon,
                board: 1,
                up: true,
            },
        ]);
    }
    if chaos_bits != 0 {
        let mut chaos = ChaosSchedule::new();
        if chaos_bits & 1 != 0 {
            chaos = chaos.throttle(0, 2.5, 0.15 * horizon, 0.85 * horizon);
        }
        if chaos_bits & 2 != 0 {
            chaos = chaos.misprofile(None, 0.3, 0.25 * horizon, 0.75 * horizon);
        }
        if chaos_bits & 4 != 0 {
            chaos = chaos.blackout(vec![2 % n_boards], 0.3 * horizon, 0.7 * horizon);
        }
        scenario = scenario.with_chaos(chaos);
    }
    Fixture {
        cluster: ClusterSpec::heterogeneous(n_boards),
        scenario,
        n_jobs,
        rate,
        seed,
        retain: retain_bit == 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Checkpoint at an arbitrary control step and resume in a fresh
    /// kernel: the drained outcome equals the uninterrupted run's bit
    /// for bit, and the checkpointed run itself is unperturbed.
    #[test]
    fn checkpoint_resume_matches_uninterrupted(
        n_jobs in 30usize..70,
        n_boards in 4usize..10,
        rate in 3_000.0f64..60_000.0,
        ckpt_frac in 0.05f64..0.95,
        policy_bit in 0u8..2,
        feedback_bit in 0u8..2,
        preempt_bit in 0u8..2,
        chaos_bits in 0u8..8,
        churn_bit in 0u8..2,
        retain_bit in 0u8..2,
        dispatcher_pick in 0u8..3,
        seed in 0u64..400,
    ) {
        let f = fixture(
            n_jobs, n_boards, rate, policy_bit, feedback_bit, preempt_bit,
            chaos_bits, churn_bit, retain_bit, seed,
        );
        // Arrivals alone contribute `n_jobs` control events, so this
        // target always lands strictly mid-run.
        let ckpt_at = 1 + (ckpt_frac * (n_jobs / 2) as f64) as usize;

        let (_, reference) = f.run(dispatcher_pick, None);
        let (bytes, undisturbed) = f.run(dispatcher_pick, Some(ckpt_at));
        prop_assert_eq!(
            &reference,
            &undisturbed,
            "taking a checkpoint perturbed the run (seed {})",
            seed
        );
        let resumed = f.resume(dispatcher_pick, &bytes.unwrap());
        prop_assert_eq!(
            &reference,
            &resumed,
            "restore diverged from the uninterrupted run (seed {})",
            seed
        );
    }

    /// Adversarial images: any byte flip, any truncation, a re-sealed
    /// wrong version and a config-mismatched checkpoint are all
    /// rejected without touching the kernel — the good image still
    /// restores afterwards and the run drains with balanced accounting.
    #[test]
    fn malformed_checkpoints_are_rejected_cleanly(
        flip_at_frac in 0.0f64..1.0,
        flip_mask in 1u8..255,
        cut_frac in 0.0f64..1.0,
        seed in 0u64..400,
    ) {
        let f = fixture(40, 5, 20_000.0, 0, 1, 0, 3, 1, 0, seed);
        let sim = FleetSim::new(&f.cluster, f.params());
        let mut cursor = f.cursor();
        let mut d = dispatcher(2);
        let mut cache = PolicyCache::new(8);
        let mut telemetry = FlightRecorder::off();
        let mut k = sim.resident(
            &mut cursor,
            &mut *d,
            &mut cache,
            &f.scenario,
            &mut telemetry,
            f.retain,
        );
        for _ in 0..15 {
            prop_assert!(k.step());
        }
        let bytes = k.checkpoint();

        // A single flipped byte anywhere fails the integrity checksum
        // (or, in the trailing checksum itself, the comparison).
        let at = ((flip_at_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        let mut flipped = bytes.clone();
        flipped[at] ^= flip_mask;
        prop_assert!(
            k.restore(&flipped).is_err(),
            "flip of byte {} (mask {:#x}) must be rejected",
            at,
            flip_mask
        );

        // Truncation anywhere is rejected.
        let cut = ((cut_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        prop_assert!(
            k.restore(&bytes[..cut]).is_err(),
            "truncation to {} bytes must be rejected",
            cut
        );

        // A wrong format version, re-sealed so the checksum passes,
        // fails with the specific version error. The seal is the wire
        // contract: FNV-1a over the payload, appended little-endian.
        let reseal = |payload: &[u8]| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in payload {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            let mut out = payload.to_vec();
            out.extend_from_slice(&h.to_le_bytes());
            out
        };
        let mut version = bytes[..bytes.len() - 8].to_vec();
        version[4..8].copy_from_slice(&0xdead_u32.to_le_bytes());
        prop_assert!(matches!(
            k.restore(&reseal(&version)),
            Err(CheckpointError::BadVersion { found: 0xdead, .. })
        ));

        // A checkpoint from a different configuration is refused.
        let g = fixture(40, 5, 20_000.0, 0, 0, 0, 3, 1, 0, seed);
        let other = {
            let sim2 = FleetSim::new(&g.cluster, g.params());
            let mut c2 = g.cursor();
            let mut d2 = dispatcher(2);
            let mut cache2 = PolicyCache::new(8);
            let mut t2 = FlightRecorder::off();
            let mut k2 = sim2.resident(
                &mut c2, &mut *d2, &mut cache2, &g.scenario, &mut t2, g.retain,
            );
            k2.step();
            k2.checkpoint()
        };
        prop_assert!(matches!(
            k.restore(&other),
            Err(CheckpointError::ConfigMismatch { .. })
        ));

        // Every rejection left the kernel intact: the good image still
        // restores, and the run drains with balanced accounting.
        k.restore(&bytes).expect("good image restores after rejections");
        k.run();
        let out = k.finish();
        prop_assert_eq!(
            out.kernel.arrivals,
            out.kernel.completions + out.kernel.dropped
        );
    }
}
