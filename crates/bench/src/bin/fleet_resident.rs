//! Fleet resident: the streaming kernel at horizons the batch design
//! cannot reach — 100M jobs over 5000 boards by default, pulled
//! through an arrival cursor with retention off (O(boards) memory,
//! asserted via `VmHWM`), a mid-run checkpoint priced and asserted
//! O(boards), and a long-horizon simulated-days diurnal+chaos leg.
//! At CI scale a full checkpoint → kill → resume cycle is asserted
//! bit-identical to the uninterrupted run.
//! `--jobs <n>`, `--boards <n>`, `--days <n>` (simulated days for the
//! long-horizon leg; default 3), `--seed <u64>`, `--quick` (50k jobs,
//! 100 boards — the CI smoke configuration, which includes the resume
//! cycle), `--size` (defaults to `test`) and `--backend
//! {machine,replay}` (default `replay`). `--perf-gate` turns the
//! printed PR 10 baseline comparison into a hard assertion (CI passes
//! it at `--quick`, the configuration the baseline was recorded
//! under). Count flags reject 0 up front.
fn main() {
    let cli = astro_bench::Cli::parse();
    cli.reject_tracing("fleet_resident");
    let (jobs, boards) = cli.pick((50_000, 100), (100_000_000, 5_000));
    astro_bench::figs::fleet_resident::run(
        cli.size_or(astro_workloads::InputSize::Test),
        cli.count_flag("--jobs", jobs),
        cli.count_flag("--boards", boards),
        cli.seed(),
        cli.backend_or(astro_exec::executor::BackendKind::Replay),
        cli.count_flag("--days", 3),
        cli.has("--perf-gate"),
    );
}
