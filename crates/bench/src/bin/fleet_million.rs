//! Fleet million: the kernel's scale ceiling — 1M jobs over 500
//! boards by default, timed with telemetry off and priced again with
//! the flight recorder on.
//! `--jobs <n>`, `--boards <n>`, `--seed <u64>`, `--quick` (50k jobs,
//! 100 boards — the CI smoke configuration), `--gate` (200k jobs, 2000
//! boards — the CI mid leg that makes the indexed dispatch path earn
//! its keep at a board count where a linear pick would dominate; under
//! a minute), `--jumbo` (10M jobs, 5000 boards — the post-hot-path
//! scale ceiling; a few minutes of wall clock), `--size` (defaults to
//! `test`) and `--backend {machine,replay}` (default `replay` — a
//! million cycle-accurate jobs is not a figure, it is a heat source).
//! `--trace-level {off,ticks,spans,full}` (default `ticks`) sets the
//! flight-recorder depth of the telemetry-overhead leg; `--perf-gate`
//! turns the printed baseline comparison into a hard assertion (CI
//! passes it at `--quick` and `--gate`, the configurations the
//! baselines were recorded under). This binary measures overhead
//! rather than emitting a trace file — use `fleet_trace` for
//! `--trace <path>`. Count flags reject 0 up front.
fn main() {
    let cli = astro_bench::Cli::parse();
    assert!(
        cli.trace_path().is_none(),
        "fleet_million does not support --trace; it measures telemetry overhead \
         (--trace-level) — use fleet_trace to emit a trace file"
    );
    let (jobs, boards) = if cli.has("--jumbo") {
        assert!(!cli.quick(), "--quick and --jumbo are mutually exclusive");
        assert!(
            !cli.has("--gate"),
            "--gate and --jumbo are mutually exclusive"
        );
        (10_000_000, 5_000)
    } else if cli.has("--gate") {
        assert!(!cli.quick(), "--quick and --gate are mutually exclusive");
        (200_000, 2_000)
    } else {
        cli.pick((50_000, 100), (1_000_000, 500))
    };
    astro_bench::figs::fleet_million::run(
        cli.size_or(astro_workloads::InputSize::Test),
        cli.count_flag("--jobs", jobs),
        cli.count_flag("--boards", boards),
        cli.seed(),
        cli.backend_or(astro_exec::executor::BackendKind::Replay),
        cli.trace_level().unwrap_or(astro_fleet::TraceLevel::Ticks),
        cli.has("--perf-gate"),
    );
}
