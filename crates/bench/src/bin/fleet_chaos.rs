//! Fleet chaos: correlated rack outages, overlapping thermal
//! throttles, a dispatch blackout, misprofiled estimates and
//! flash-crowd/diurnal traffic, all against the same seeded stream —
//! the adversarial regime the adaptive stack must degrade gracefully
//! in (the verdict line asserts it). `--jobs <n>`, `--boards <n>`,
//! `--seed <u64>`, `--quick` (10k jobs, 20 boards — the CI smoke
//! configuration), `--size` (defaults to `test`) and
//! `--backend {machine,replay}` (default `replay`). `--perf-gate`
//! turns the printed wall-throughput comparison against the PR 8
//! baseline into a hard assertion (CI passes it at `--quick`, the
//! configuration the baseline was recorded under). Count flags
//! reject 0 up front.
fn main() {
    let cli = astro_bench::Cli::parse();
    cli.reject_tracing("fleet_chaos");
    let (jobs, boards) = cli.pick((10_000, 20), (100_000, 50));
    astro_bench::figs::fleet_chaos::run(
        cli.size_or(astro_workloads::InputSize::Test),
        cli.count_flag("--jobs", jobs),
        cli.count_flag("--boards", boards),
        cli.seed(),
        cli.backend_or(astro_exec::executor::BackendKind::Replay),
        cli.has("--perf-gate"),
    );
}
