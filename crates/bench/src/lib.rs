//! # astro-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see `src/bin/`), plus the
//! shared machinery: the CLI grammar every binary speaks ([`cli`]),
//! statistics ([`stats`]), table rendering ([`table`]),
//! Pareto/best-configuration analysis ([`pareto`]), the Table 1
//! taxonomy ([`taxonomy`]) and a parallel sample runner ([`runner`]).
//!
//! Every binary prints the rows/series the corresponding figure plots.
//! Absolute values are simulator units; EXPERIMENTS.md records the
//! paper-vs-measured comparison for each.

pub mod cli;
pub mod figs;
pub mod pareto;
pub mod runner;
pub mod stats;
pub mod table;
pub mod taxonomy;

pub use cli::Cli;

use astro_exec::machine::MachineParams;
use astro_exec::time::SimTime;

/// The `--perf-gate` verdict the fleet figures share: prints one line
/// comparing `measured` (labelled `what`) with `baseline` and its floor
/// `baseline * (1 - tolerance)`. Advisory unless `enforce`; enforced,
/// a measurement below the floor fails the run.
pub fn perf_gate(what: &str, measured: f64, baseline: f64, tolerance: f64, enforce: bool) {
    let floor = baseline * (1.0 - tolerance);
    let pass = measured >= floor;
    println!(
        "perf gate: {what} {measured:.0} vs baseline {baseline:.0} ({:+.1}%; floor {floor:.0}) — {}",
        (measured / baseline - 1.0) * 100.0,
        match (enforce, pass) {
            (false, _) => "advisory (pass --perf-gate to enforce)",
            (true, true) => "PASS",
            (true, false) => "FAIL",
        }
    );
    assert!(
        !enforce || pass,
        "perf gate: {what} {measured:.0} is more than {:.0}% below the baseline {baseline:.0}",
        tolerance * 100.0
    );
}

/// Engine parameters used by the experiment binaries: the 500 ms
/// checkpoint of §3.2.1 scaled to the workloads' millisecond-scale
/// runtimes (see EXPERIMENTS.md, "time scaling").
pub fn experiment_params() -> MachineParams {
    MachineParams {
        checkpoint_interval: SimTime::from_micros(400.0),
        balance_interval: SimTime::from_micros(100.0),
        timeslice: SimTime::from_micros(400.0),
        min_config_dwell: SimTime::from_micros(800.0),
        ..MachineParams::default()
    }
}

/// [`experiment_params`] with a global seed offset folded in — the
/// engine-side half of the `--seed` plumbing.
pub fn experiment_params_seeded(seed: u64) -> MachineParams {
    let mut p = experiment_params();
    p.seed = p.seed.wrapping_add(seed);
    p
}

#[cfg(test)]
mod tests {
    use super::perf_gate;

    #[test]
    fn perf_gate_passes_above_the_floor_and_only_advises_unenforced() {
        perf_gate("jobs/s", 66.0, 100.0, 0.35, true);
        perf_gate("jobs/s", 1.0, 100.0, 0.35, false);
    }

    #[test]
    #[should_panic(expected = "jobs/s 64 is more than 35% below the baseline 100")]
    fn enforced_perf_gate_fails_below_the_floor() {
        perf_gate("jobs/s", 64.0, 100.0, 0.35, true);
    }
}
