//! Fleet scaling: per-job cost of the execution backends (machine vs
//! calibrated trace replay) plus a 1k → 100k job sweep of the headline
//! scenario pair in both dispatch modes. `--jobs <n>` caps the sweep
//! (default 100000), `--boards <n>` (default 50), `--seed <u64>`, `--quick` (10k jobs, 20 boards — the CI
//! smoke configuration), and `--backend {machine,replay}` (default
//! `replay`; `machine` makes the sweep cycle-accurate, which is only
//! tractable at the low end). Count flags reject 0 up front.
fn main() {
    let cli = astro_bench::Cli::parse();
    cli.reject_tracing("fleet_scale");
    let (jobs, boards) = cli.pick((10_000, 20), (100_000, 50));
    astro_bench::figs::fleet_scale::run(
        cli.size_or(astro_workloads::InputSize::Test),
        cli.count_flag("--jobs", jobs),
        cli.count_flag("--boards", boards),
        cli.seed(),
        cli.backend_or(astro_exec::executor::BackendKind::Replay),
    );
}
