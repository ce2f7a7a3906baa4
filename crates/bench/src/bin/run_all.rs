//! Runs every experiment in sequence (use `--quick --size test` for a
//! fast smoke pass; defaults regenerate everything at simsmall scale).
//! `--seed <u64>` re-runs the whole suite in a different, equally
//! deterministic random universe.
fn main() {
    let cli = astro_bench::Cli::parse();
    let size = cli.size();
    let seed = cli.seed();

    astro_bench::figs::table1::run();
    println!();
    astro_bench::figs::fig06::run(size);
    println!();
    astro_bench::figs::fig11::run(size);
    println!();
    astro_bench::figs::fig03::run(size, seed);
    println!();
    astro_bench::figs::fig01::run(size, cli.pick(1, 5), seed);
    println!();
    astro_bench::figs::fig04::run(size, cli.pick(1, 3), seed);
    println!();
    astro_bench::figs::fig09::run(size, cli.pick(20, 80), seed);
    println!();
    astro_bench::figs::fig10::run(size, cli.pick(3, 8), cli.pick(3, 5), seed);
    println!();
    astro_bench::figs::ablation_convergence::run(size, cli.pick(24, 60), seed);
    println!();
    astro_bench::figs::ablation_gamma::run(size, cli.pick(20, 50), seed);
    println!();
    astro_bench::figs::ablation_interval::run(size, seed);
    println!();
    astro_bench::figs::ablation_agent::run(size, cli.pick(20, 60), seed);
    println!();
    // The fleet experiments always run at `test` scale: they measure
    // queueing and placement over a thousand jobs, not per-job input
    // scale (the `fleet_sim`/`fleet_churn` binaries take
    // `--jobs`/`--boards`/`--size` overrides).
    let (fjobs, fboards) = cli.pick((240, 16), (1200, 20));
    astro_bench::figs::fleet::run(astro_workloads::InputSize::Test, fjobs, fboards, seed);
    println!();
    // Churn + preemption through the event kernel, on the replay
    // backend so the batch stays fast.
    let (cjobs, cboards) = cli.pick((2_000, 10), (10_000, 20));
    astro_bench::figs::fleet_churn::run(
        astro_workloads::InputSize::Test,
        cjobs,
        cboards,
        seed,
        astro_exec::executor::BackendKind::Replay,
    );
    println!();
    // The flight recorder over the same churn shape plus chaos
    // windows: emits the Perfetto timeline and verifies tracing is
    // outcome-invariant (fingerprints identical on vs off).
    astro_bench::figs::fleet_trace::run(
        astro_workloads::InputSize::Test,
        cjobs,
        cboards,
        seed,
        astro_exec::executor::BackendKind::Replay,
        astro_fleet::TraceLevel::Full,
        &std::env::temp_dir().join("fleet_trace.json"),
    );
}
