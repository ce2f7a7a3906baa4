//! Fleet churn: online dispatch, preemptive redispatch and mid-run
//! board churn through the event kernel, with an observed-service
//! feedback row on top of the headline scenario.
//! `--jobs <n>`, `--boards <n>`, `--seed <u64>`, `--quick` (10k jobs, 20 boards — the CI smoke
//! configuration), `--size` (defaults to `test`) and
//! `--backend {machine,replay}` (default `replay` — a 100k-job churn
//! run is only tractable on calibrated trace composition). Count
//! flags reject 0 up front.
fn main() {
    let cli = astro_bench::Cli::parse();
    cli.reject_tracing("fleet_churn");
    let (jobs, boards) = cli.pick((10_000, 20), (100_000, 50));
    astro_bench::figs::fleet_churn::run(
        cli.size_or(astro_workloads::InputSize::Test),
        cli.count_flag("--jobs", jobs),
        cli.count_flag("--boards", boards),
        cli.seed(),
        cli.backend_or(astro_exec::executor::BackendKind::Replay),
    );
}
