//! One CLI parser for every figure binary.
//!
//! Each `src/bin/` wrapper used to collect `std::env::args()` and call
//! free parsing helpers by hand; the copies drifted (some binaries
//! defaulted `--size` differently, some forgot the trailing-flag
//! check). [`Cli`] centralises the grammar — `--size`, `--seed`,
//! `--quick`, `--backend`, and unsigned `--<name> <n>` flags — with the
//! same semantics everywhere:
//!
//! * `--seed <u64>` (default 0): a global offset folded into every
//!   engine and learner seed. 0 reproduces the repository's published
//!   outputs exactly; any other value re-runs the same experiment in a
//!   fresh but equally deterministic random universe.
//! * `--size test|simsmall|simmedium|simlarge`: workload input class.
//! * `--quick`: reduced samples/episodes for smoke runs.
//! * `--backend machine|replay`: execution backend (see
//!   `astro-exec`'s `Executor`).
//! * a flag given without a value is an error, never silently the
//!   default — the flags exist for reproducibility.

use astro_exec::executor::BackendKind;
use astro_fleet::TraceLevel;
use astro_workloads::InputSize;

/// Parsed command line of a figure binary.
#[derive(Clone, Debug)]
pub struct Cli {
    args: Vec<String>,
}

impl Cli {
    /// Parse the process's arguments.
    pub fn parse() -> Self {
        Cli::from_args(std::env::args().collect())
    }

    /// Parse an explicit argument vector (tests).
    pub fn from_args(args: Vec<String>) -> Self {
        Cli { args }
    }

    /// Reject a trailing `flag` with no value.
    fn require_value(&self, flag: &str) {
        assert!(
            self.args.last().map(String::as_str) != Some(flag),
            "{flag} requires a value"
        );
    }

    /// The value following `flag`, if present.
    fn value_of(&self, flag: &str) -> Option<&str> {
        self.require_value(flag);
        self.args
            .windows(2)
            .find(|w| w[0] == flag)
            .map(|w| w[1].as_str())
    }

    /// `--size` (defaulting to simsmall — the published figure scale).
    pub fn size(&self) -> InputSize {
        self.size_or(InputSize::SimSmall)
    }

    /// `--size` with an explicit default (fleet binaries default to
    /// `test`: fleet runs are about queueing and placement, not
    /// per-job input scale).
    pub fn size_or(&self, default: InputSize) -> InputSize {
        match self.value_of("--size") {
            None => default,
            Some("test") => InputSize::Test,
            Some("simsmall") => InputSize::SimSmall,
            Some("simmedium") => InputSize::SimMedium,
            Some("simlarge") => InputSize::SimLarge,
            Some(other) => panic!("unknown size {other}"),
        }
    }

    /// `--seed <u64>` (default 0 — the published random universe).
    pub fn seed(&self) -> u64 {
        self.value_of("--seed")
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--seed takes an unsigned integer, got {v:?}"))
            })
            .unwrap_or(0)
    }

    /// Is `--quick` present (reduced samples/episodes for smoke runs)?
    pub fn quick(&self) -> bool {
        self.has("--quick")
    }

    /// Is a boolean `--<name>` flag present (e.g. `--perf-gate`)?
    pub fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    /// `quick` in `--quick` mode, else `full` — the per-binary
    /// sample/episode chooser.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        if self.quick() {
            quick
        } else {
            full
        }
    }

    /// `--backend {machine,replay}` with an explicit default.
    pub fn backend_or(&self, default: BackendKind) -> BackendKind {
        match self.value_of("--backend") {
            None => default,
            Some(v) => BackendKind::parse(v)
                .unwrap_or_else(|| panic!("--backend takes machine|replay, got {v:?}")),
        }
    }

    /// An unsigned-integer `--<name> <n>` flag (e.g. `--jobs`,
    /// `--boards`), defaulting when absent.
    pub fn flag(&self, name: &str, default: usize) -> usize {
        self.value_of(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("{name} takes an unsigned integer, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// A *count* flag: like [`Cli::flag`] but rejects `0` with a clear
    /// error at parse time. Use for flags where zero would only blow
    /// up later and further from the user's mistake — `--jobs 0` has
    /// no stream to simulate, `--boards 0` no fleet, `--days 0` no
    /// horizon to span.
    pub fn count_flag(&self, name: &str, default: usize) -> usize {
        let n = self.flag(name, default);
        assert!(n >= 1, "{name} must be at least 1, got 0");
        n
    }

    /// `--trace <path>`: where to write the Chrome-trace JSON, `None`
    /// when the flag is absent.
    pub fn trace_path(&self) -> Option<&str> {
        self.value_of("--trace")
    }

    /// `--trace-level {off,ticks,spans,full}`: flight-recorder depth,
    /// `None` when the flag is absent (binaries choose their default).
    pub fn trace_level(&self) -> Option<TraceLevel> {
        self.value_of("--trace-level").map(|v| {
            TraceLevel::parse(v)
                .unwrap_or_else(|| panic!("--trace-level takes off|ticks|spans|full, got {v:?}"))
        })
    }

    /// Reject `--trace`/`--trace-level` outright. Binaries that don't
    /// thread a flight recorder call this so the flags fail loud
    /// instead of being silently ignored — a trace the user asked for
    /// and never got is worse than an error.
    pub fn reject_tracing(&self, binary: &str) {
        assert!(
            self.trace_path().is_none() && self.trace_level().is_none(),
            "{binary} does not support --trace/--trace-level; use fleet_trace \
             (or fleet_million, which accepts --trace-level for overhead measurement)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::from_args(
            std::iter::once("bin")
                .chain(args.iter().copied())
                .map(String::from)
                .collect(),
        )
    }

    #[test]
    fn defaults() {
        let c = cli(&[]);
        assert_eq!(c.seed(), 0);
        assert!(!c.quick());
        assert_eq!(c.size(), InputSize::SimSmall);
        assert_eq!(c.size_or(InputSize::Test), InputSize::Test);
        assert_eq!(c.backend_or(BackendKind::Replay), BackendKind::Replay);
        assert_eq!(c.flag("--jobs", 1200), 1200);
        assert_eq!(c.pick(1, 5), 5);
    }

    #[test]
    fn explicit_values_win() {
        let c = cli(&[
            "--quick",
            "--seed",
            "7",
            "--size",
            "test",
            "--backend",
            "replay",
            "--jobs",
            "42",
        ]);
        assert_eq!(c.seed(), 7);
        assert!(c.quick());
        assert_eq!(c.size(), InputSize::Test);
        assert_eq!(c.size_or(InputSize::SimLarge), InputSize::Test);
        assert_eq!(c.backend_or(BackendKind::Machine), BackendKind::Replay);
        assert_eq!(c.flag("--jobs", 1200), 42);
        assert_eq!(c.pick(1, 5), 1);
    }

    #[test]
    #[should_panic(expected = "--seed requires a value")]
    fn trailing_seed_is_an_error() {
        cli(&["--seed"]).seed();
    }

    #[test]
    #[should_panic(expected = "--jobs requires a value")]
    fn trailing_flag_is_an_error() {
        cli(&["--jobs"]).flag("--jobs", 1);
    }

    #[test]
    #[should_panic(expected = "--days must be at least 1")]
    fn zero_days_is_an_error() {
        cli(&["--days", "0"]).count_flag("--days", 3);
    }

    #[test]
    #[should_panic(expected = "--jobs must be at least 1")]
    fn zero_jobs_is_an_error() {
        cli(&["--jobs", "0"]).count_flag("--jobs", 1200);
    }

    #[test]
    fn count_flag_accepts_positive_values_and_defaults() {
        assert_eq!(cli(&["--boards", "3"]).count_flag("--boards", 50), 3);
        assert_eq!(cli(&[]).count_flag("--boards", 50), 50);
    }

    #[test]
    #[should_panic(expected = "unknown size")]
    fn bad_size_is_an_error() {
        cli(&["--size", "huge"]).size();
    }

    #[test]
    #[should_panic(expected = "--backend takes machine|replay")]
    fn bad_backend_is_an_error() {
        cli(&["--backend", "warp"]).backend_or(BackendKind::Machine);
    }

    #[test]
    fn trace_flags_parse() {
        let c = cli(&["--trace", "/tmp/trace.json", "--trace-level", "spans"]);
        assert_eq!(c.trace_path(), Some("/tmp/trace.json"));
        assert_eq!(c.trace_level(), Some(TraceLevel::Spans));
        let d = cli(&[]);
        assert_eq!(d.trace_path(), None);
        assert_eq!(d.trace_level(), None);
        d.reject_tracing("fleet_sim"); // absent flags pass the rejection
        for (v, l) in [
            ("off", TraceLevel::Off),
            ("ticks", TraceLevel::Ticks),
            ("full", TraceLevel::Full),
        ] {
            assert_eq!(cli(&["--trace-level", v]).trace_level(), Some(l));
        }
    }

    #[test]
    #[should_panic(expected = "--trace requires a value")]
    fn trailing_trace_is_an_error() {
        cli(&["--trace"]).trace_path();
    }

    #[test]
    #[should_panic(expected = "--trace-level requires a value")]
    fn trailing_trace_level_is_an_error() {
        cli(&["--trace-level"]).trace_level();
    }

    #[test]
    #[should_panic(expected = "--trace-level takes off|ticks|spans|full")]
    fn bad_trace_level_is_an_error() {
        cli(&["--trace-level", "verbose"]).trace_level();
    }

    #[test]
    #[should_panic(expected = "fleet_scale does not support --trace/--trace-level")]
    fn tracing_is_rejected_by_non_tracing_binaries() {
        cli(&["--trace", "/tmp/t.json"]).reject_tracing("fleet_scale");
    }
}
