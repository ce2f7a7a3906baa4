//! Fleet trace: the flight-recorder figure — the fleet_churn-shaped
//! scenario (churn + preemption + feedback + chaos windows) run with
//! tracing on, emitting Chrome-trace/Perfetto JSON and a per-window
//! timeline of the streaming aggregates, then verifying that tracing
//! is outcome-invariant and the streamed percentiles match the
//! post-hoc metrics. `--trace <path>` (default
//! `<tmp>/fleet_trace.json`), `--trace-level {off,ticks,spans,full}`
//! (default `full`), `--jobs <n>`, `--boards <n>`, `--seed <u64>`, `--quick` (2k jobs, 10 boards — the CI
//! smoke configuration), `--size` (defaults to `test`) and
//! `--backend {machine,replay}` (default `replay`). Count flags reject
//! 0 up front.
fn main() {
    let cli = astro_bench::Cli::parse();
    let (jobs, boards) = cli.pick((2_000, 10), (10_000, 20));
    let trace_path = cli
        .trace_path()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("fleet_trace.json"));
    astro_bench::figs::fleet_trace::run(
        cli.size_or(astro_workloads::InputSize::Test),
        cli.count_flag("--jobs", jobs),
        cli.count_flag("--boards", boards),
        cli.seed(),
        cli.backend_or(astro_exec::executor::BackendKind::Replay),
        cli.trace_level().unwrap_or(astro_fleet::TraceLevel::Full),
        &trace_path,
    );
}
