//! Probes that time the kernel's layers from outside: spans kept in
//! memory, a [`Dispatcher`] wrapper, and host counters read from
//! `/proc`. Nothing here reaches inside `astro_fleet`.

use astro_fleet::{ClusterState, Dispatcher, JobEstimates, JobSpec};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans of one layer: `(start, duration)` in ns from a shared origin.
#[derive(Default)]
pub struct Spans(pub Vec<(u64, u64)>);

impl Spans {
    /// Time `f` and record it as one span.
    #[inline]
    pub fn time<T>(&mut self, origin: Instant, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let start = t0.duration_since(origin).as_nanos() as u64;
        self.0.push((start, t0.elapsed().as_nanos() as u64));
        out
    }

    /// Sum of durations of spans starting at or after `from_ns`, ns.
    pub fn total_since(&self, from_ns: u64) -> u64 {
        self.0.iter().filter(|s| s.0 >= from_ns).map(|s| s.1).sum()
    }

    /// Durations of spans starting at or after `from_ns`, sorted.
    pub fn sorted_since(&self, from_ns: u64) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .0
            .iter()
            .filter(|s| s.0 >= from_ns)
            .map(|s| s.1)
            .collect();
        d.sort_unstable();
        d
    }
}

/// Nearest-rank percentile of sorted values (0 when empty).
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Wraps a dispatcher: times every `pick` and delegates.
pub struct TimedDispatcher<D> {
    inner: D,
    origin: Instant,
    pub picks: Spans,
}

impl<D> TimedDispatcher<D> {
    pub fn new(inner: D, origin: Instant) -> Self {
        TimedDispatcher {
            inner,
            origin,
            picks: Spans::default(),
        }
    }
}

impl<D: Dispatcher> Dispatcher for TimedDispatcher<D> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pick(&mut self, state: &ClusterState, job: &JobSpec, est: &JobEstimates) -> usize {
        let inner = &mut self.inner;
        self.picks.time(self.origin, || inner.pick(state, job, est))
    }
}

/// This thread's scheduler counters: `(on-CPU ns, runqueue-wait ns)`
/// from `/proc/thread-self/schedstat`, or zeros where unavailable.
pub fn schedstat() -> (u64, u64) {
    let Ok(s) = std::fs::read_to_string("/proc/thread-self/schedstat") else {
        return (0, 0);
    };
    let mut it = s.split_whitespace().map(|v| v.parse::<u64>().unwrap_or(0));
    (it.next().unwrap_or(0), it.next().unwrap_or(0))
}

/// Peak resident-set size of this process, MiB (`VmHWM`), or 0 where
/// unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(s) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    s.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Most spans written per layer, so a trace file stays a few MiB.
const WRITE_CAP: usize = 100_000;

/// Write spans as `layer start_ns end_ns` lines (tab separated, ns from
/// the leg's origin). A pick span lies inside the step span that
/// caused it; the first [`WRITE_CAP`] spans of each layer are kept.
pub fn write_spans(path: &Path, layers: &[(&str, &Spans)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (name, spans) in layers {
        for &(start, dur) in spans.0.iter().take(WRITE_CAP) {
            writeln!(w, "{name}\t{start}\t{}", start + dur)?;
        }
    }
    w.flush()
}
