//! Deterministic, seed-driven arrival processes.
//!
//! Two regimes cover the evaluation space of datacenter co-scheduling
//! work (Octopus-Man's latency-critical streams, Hipster's mixed QoS
//! traffic): an open-loop Poisson process (independent tenants) and a
//! bursty regime that replays coordinated traffic spikes — a trace-like
//! pattern of Poisson burst starts, each releasing a volley of jobs.
//! Same seed ⇒ byte-identical stream.
//!
//! There is one generator, [`GenCursor`]: it draws a stream one job per
//! pull in O(1) memory, with traffic warps applied per pull. The
//! resident path pulls jobs through it, or through any other
//! [`ArrivalCursor`] — [`SliceCursor`] wraps a materialised slice, and
//! [`TraceCursor`] streams a line-delimited external trace file. The
//! batch path ([`ArrivalProcess::generate`]) drains a `GenCursor` into
//! a `Vec<JobSpec>`, so both paths see the same bits by construction.
//! Cursor positions are checkpointable ([`ArrivalCursor::save`]), which
//! is what lets the resident kernel resume mid-stream bit-identically.

use crate::chaos::{traffic_breakpoints, TrafficClause};
use crate::checkpoint::{CheckpointError, CursorState};
use crate::job::{taxon_of, JobClass, JobSpec, Taxon};
use astro_workloads::{InputSize, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};

/// How jobs arrive over time.
#[derive(Clone, Copy, Debug)]
pub enum ArrivalProcess {
    /// Open-loop Poisson: exponential inter-arrival times at `rate`
    /// jobs per second.
    Poisson {
        /// Mean arrival rate, jobs per second.
        rate_jobs_per_s: f64,
    },
    /// Bursty replay: burst starts form a Poisson process of rate
    /// `rate / burst`, and each burst releases `burst` jobs spread
    /// uniformly over `spread_s` seconds. The long-run rate matches the
    /// Poisson regime; the short-run pressure does not.
    Bursty {
        /// Long-run mean arrival rate, jobs per second.
        rate_jobs_per_s: f64,
        /// Jobs per burst.
        burst: usize,
        /// Width of one burst, seconds.
        spread_s: f64,
    },
}

impl ArrivalProcess {
    /// Label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
        }
    }

    /// Generate `n` jobs drawn uniformly from `pool`, with arrival times
    /// from this process and SLO tightness uniform in `slo_tightness`.
    /// Everything is a pure function of `seed`.
    ///
    /// # Panics
    ///
    /// The tightness range must be positive and finite: every job's SLO
    /// is `tightness × best-cold-wall`, and a non-positive SLO would
    /// otherwise flow through the metrics layer as a ratio of 0.0 —
    /// silently sorting as the *best* p99 latency/SLO ratio in the
    /// fleet. Rejected here, at stream construction, in the same spirit
    /// as the kernel's churn/chaos schedule validation. The rate must be
    /// positive and finite, and a bursty process needs a non-zero burst.
    pub fn generate(
        &self,
        n: usize,
        pool: &[Workload],
        size: InputSize,
        slo_tightness: (f64, f64),
        seed: u64,
    ) -> Vec<JobSpec> {
        self.generate_shaped(n, pool, size, slo_tightness, seed, &[])
    }

    /// [`generate`](Self::generate), then warp arrival times through a
    /// set of chaos [`TrafficClause`]s (flash crowds, diurnal swell).
    ///
    /// The warp is an inverse-CDF redistribution over the piecewise-
    /// constant intensity the clauses describe: job count, stream order,
    /// per-job workload/SLO/seed draws and the horizon (last arrival)
    /// are all preserved — only *when* each job lands moves, with
    /// proportionally more of the stream concentrated where the
    /// intensity multiplier is high. With no clauses the stream is
    /// byte-identical to [`generate`](Self::generate)'s.
    ///
    /// The stream is a [`GenCursor`] drained `n` times, so the batch and
    /// resident paths share one generator.
    pub fn generate_shaped(
        &self,
        n: usize,
        pool: &[Workload],
        size: InputSize,
        slo_tightness: (f64, f64),
        seed: u64,
        traffic: &[TrafficClause],
    ) -> Vec<JobSpec> {
        let mut cursor = GenCursor::new(*self, n, pool, size, slo_tightness, seed, traffic);
        let mut jobs = Vec::with_capacity(n);
        jobs.extend(std::iter::from_fn(|| cursor.next_job()));
        jobs
    }
}

/// Exponential variate with the given rate, by inversion.
fn exponential(rng: &mut SmallRng, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln() / rate
}

/// Stream validation at cursor construction: a non-empty pool, a
/// positive finite ordered SLO tightness, a positive finite rate and a
/// non-zero burst.
fn validate_stream(process: ArrivalProcess, pool: &[Workload], slo_tightness: (f64, f64)) {
    assert!(!pool.is_empty(), "workload pool must not be empty");
    let (lo, hi) = slo_tightness;
    assert!(
        lo > 0.0 && lo.is_finite() && hi.is_finite() && hi >= lo,
        "invalid arrival stream: SLO tightness range ({lo}, {hi}) must be positive, \
         finite and ordered — a job with slo_s <= 0 can never meet its deadline and \
         would corrupt the SLO-ratio metrics"
    );
    let (rate, burst) = match process {
        ArrivalProcess::Poisson { rate_jobs_per_s } => (rate_jobs_per_s, 1),
        ArrivalProcess::Bursty {
            rate_jobs_per_s,
            burst,
            ..
        } => (rate_jobs_per_s, burst),
    };
    assert!(
        rate > 0.0 && rate.is_finite(),
        "invalid arrival stream: rate {rate} jobs/s must be positive and finite"
    );
    assert!(
        burst > 0,
        "invalid arrival stream: burst {burst} must be at least 1"
    );
}

/// A time a stream can hold: finite and non-negative (sign bit clear,
/// so IEEE bit order is numeric order).
fn is_time(t: f64) -> bool {
    t.is_finite() && t.is_sign_positive()
}

/// A pull-based job stream: the resident kernel's replacement for a
/// materialised `Vec<JobSpec>`. Implementations promise that the pull
/// sequence is **bitwise identical** to the batch sequence the same
/// configuration would have materialised (ids, arrival times, seeds,
/// SLO draws — everything), and that a [`save`](ArrivalCursor::save)d
/// position restored with [`load`](ArrivalCursor::load) resumes that
/// exact sequence.
pub trait ArrivalCursor {
    /// Pulls the next job, or `None` when the stream is exhausted.
    fn next_job(&mut self) -> Option<JobSpec>;

    /// Total jobs this stream delivers over its lifetime.
    fn total(&self) -> usize;

    /// Jobs already pulled.
    fn position(&self) -> usize;

    /// The distinct workloads the stream can emit, first-appearance
    /// order (the kernel compiles stock binaries and calibrates replay
    /// tiers for exactly these).
    fn workloads(&self) -> Vec<Workload>;

    /// Snapshots the stream position for a checkpoint.
    fn save(&self) -> CursorState;

    /// Restores a [`save`](ArrivalCursor::save)d position. Structurally
    /// impossible states (position past the end, oversized merge heap)
    /// are rejected with a [`CheckpointError`], never applied.
    fn load(&mut self, s: &CursorState) -> Result<(), CheckpointError>;
}

/// An [`ArrivalCursor`] over an already-materialised job slice — the
/// adapter that runs the batch entry points through the resident
/// kernel, so both paths share one loop.
pub struct SliceCursor<'a> {
    jobs: &'a [JobSpec],
    pos: usize,
}

impl<'a> SliceCursor<'a> {
    /// Wraps a materialised stream.
    pub fn new(jobs: &'a [JobSpec]) -> Self {
        SliceCursor { jobs, pos: 0 }
    }
}

impl ArrivalCursor for SliceCursor<'_> {
    fn next_job(&mut self) -> Option<JobSpec> {
        let j = self.jobs.get(self.pos).copied()?;
        self.pos += 1;
        Some(j)
    }

    fn total(&self) -> usize {
        self.jobs.len()
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn workloads(&self) -> Vec<Workload> {
        let mut out: Vec<Workload> = Vec::new();
        for j in self.jobs {
            if !out.iter().any(|w| w.name == j.workload.name) {
                out.push(j.workload);
            }
        }
        out
    }

    fn save(&self) -> CursorState {
        CursorState {
            pos: self.pos as u64,
            ..CursorState::default()
        }
    }

    fn load(&mut self, s: &CursorState) -> Result<(), CheckpointError> {
        if s.pos as usize > self.jobs.len() {
            return Err(CheckpointError::Corrupt("cursor position past stream end"));
        }
        self.pos = s.pos as usize;
        Ok(())
    }
}

/// The traffic warp: piecewise-constant intensity segments, their
/// cumulative weights, and the horizon (the unwarped stream's last
/// arrival) they stretch over.
struct WarpTable {
    /// `(start_fraction, multiplier)` segments over `[0, 1]`.
    segs: Vec<(f64, f64)>,
    /// `cum[j] = ∫₀^{segs[j].0} m`, then the total weight `∫₀¹ m`.
    cum: Vec<f64>,
    /// Last arrival of the unwarped stream.
    horizon: f64,
}

impl WarpTable {
    fn new(traffic: &[TrafficClause], horizon: f64) -> Self {
        let segs = traffic_breakpoints(traffic);
        let mut cum = vec![0.0];
        for (j, &(start, m)) in segs.iter().enumerate() {
            let end = segs.get(j + 1).map_or(1.0, |s| s.0);
            cum.push(cum[j] + m * (end - start));
        }
        WarpTable { segs, cum, horizon }
    }

    /// Maps a raw time through W⁻¹: the fraction of jobs a window
    /// [a, b] receives becomes (W(b) − W(a)) / W(1). Raw times arrive
    /// sorted and the map is monotone, so the segment pointer `seg`
    /// only moves right and the stream stays sorted.
    fn apply(&self, raw: f64, seg: &mut usize) -> f64 {
        let total = self.cum[self.segs.len()];
        let target = (raw / self.horizon).clamp(0.0, 1.0) * total;
        if target >= total {
            // The stream's last arrival defines the horizon; pin it
            // exactly rather than round-tripping through W⁻¹.
            return self.horizon;
        }
        while *seg + 1 < self.segs.len() && self.cum[*seg + 1] <= target {
            *seg += 1;
        }
        let q = self.segs[*seg].0 + (target - self.cum[*seg]) / self.segs[*seg].1;
        (q * self.horizon).min(self.horizon)
    }
}

/// The one arrival-time draw routine: a seeded process's `n` times,
/// emitted in sorted order. Poisson times are drawn sorted; bursty
/// times are merged through a min-heap bounded by the burst-base
/// frontier (no future burst can land before the most recent base, and
/// ties are value-equal, so emission order is the sorted order bit for
/// bit).
struct TimeStream {
    process: ArrivalProcess,
    n: usize,
    rng: SmallRng,
    /// Times drawn from `rng` so far.
    drawn: usize,
    /// Running burst base (bursty) / running time (poisson).
    frontier: f64,
    /// Drawn-but-not-emitted times (bursty), as non-negative IEEE bits
    /// (bit order == numeric order for non-negative floats).
    heap: BinaryHeap<Reverse<u64>>,
}

impl TimeStream {
    fn new(process: ArrivalProcess, n: usize, seed: u64) -> Self {
        TimeStream {
            process,
            n,
            rng: SmallRng::seed_from_u64(seed ^ 0xA1217_F1EE7),
            drawn: 0,
            frontier: 0.0,
            heap: BinaryHeap::new(),
        }
    }

    /// The next arrival time in sorted order (caller guarantees fewer
    /// than `n` emitted).
    fn next(&mut self) -> f64 {
        match self.process {
            ArrivalProcess::Poisson { rate_jobs_per_s } => {
                self.frontier += exponential(&mut self.rng, rate_jobs_per_s);
                self.drawn += 1;
                self.frontier
            }
            ArrivalProcess::Bursty {
                rate_jobs_per_s,
                burst,
                spread_s,
            } => {
                let burst_rate = rate_jobs_per_s / burst as f64;
                loop {
                    if let Some(&Reverse(min_bits)) = self.heap.peek() {
                        // Every not-yet-drawn job lands at or after the
                        // current burst base, so a pending time at or
                        // before the frontier is globally minimal (ties
                        // are value-equal and therefore order-insensitive).
                        if self.drawn >= self.n || f64::from_bits(min_bits) <= self.frontier {
                            self.heap.pop();
                            return f64::from_bits(min_bits);
                        }
                    }
                    debug_assert!(self.drawn < self.n, "heap empty with stream unfinished");
                    self.frontier += exponential(&mut self.rng, burst_rate);
                    for _ in 0..burst.min(self.n - self.drawn) {
                        let v = self.frontier + self.rng.gen_range(0.0..spread_s.max(1e-9));
                        self.heap.push(Reverse(v.to_bits()));
                        self.drawn += 1;
                    }
                }
            }
        }
    }
}

/// A streaming [`ArrivalCursor`] over a seeded generator, and the one
/// generator behind [`ArrivalProcess::generate_shaped`]: one job per
/// pull, in O(1) memory (O(burst) for the bursty regime's merge heap).
///
/// Two `TimeStream`s share one seed expansion. Construction pulls a
/// throwaway one through all `n` times: its last time is the horizon
/// the traffic warp needs, and its RNG is left exactly where the
/// per-job draws (workload, SLO) begin. A second, freshly seeded one
/// then re-draws the times lazily, one per pull.
pub struct GenCursor {
    pool: Vec<Workload>,
    taxa: Vec<Taxon>,
    slo_tightness: (f64, f64),
    seed: u64,
    /// Lazy arrival-time stream.
    times: TimeStream,
    /// Per-job draw stream, positioned after all time draws.
    rng_j: SmallRng,
    /// Jobs emitted so far (also the next job's id).
    pos: usize,
    /// Traffic warp, when clauses are active.
    warp: Option<WarpTable>,
    /// The warp's forward segment pointer.
    warp_seg: usize,
}

impl GenCursor {
    /// Builds the cursor for
    /// [`ArrivalProcess::generate_shaped`]`(n, pool, size, slo_tightness,
    /// seed, traffic)`. Pass no traffic clauses for the plain
    /// [`generate`](ArrivalProcess::generate) sequence.
    ///
    /// # Panics
    ///
    /// On an empty pool, an invalid SLO tightness range, a non-positive
    /// or non-finite rate, or a zero burst.
    pub fn new(
        process: ArrivalProcess,
        n: usize,
        pool: &[Workload],
        size: InputSize,
        slo_tightness: (f64, f64),
        seed: u64,
        traffic: &[TrafficClause],
    ) -> Self {
        validate_stream(process, pool, slo_tightness);
        // Classify each pool entry once (module construction is not free).
        let taxa: Vec<Taxon> = pool.iter().map(|w| taxon_of(&(w.build)(size))).collect();
        let mut ahead = TimeStream::new(process, n, seed);
        let mut horizon = 0.0;
        for _ in 0..n {
            horizon = ahead.next();
        }
        let warp = (!traffic.is_empty() && horizon > 0.0).then(|| WarpTable::new(traffic, horizon));
        GenCursor {
            pool: pool.to_vec(),
            taxa,
            slo_tightness,
            seed,
            times: TimeStream::new(process, n, seed),
            rng_j: ahead.rng,
            pos: 0,
            warp,
            warp_seg: 0,
        }
    }
}

impl ArrivalCursor for GenCursor {
    fn next_job(&mut self) -> Option<JobSpec> {
        if self.pos >= self.times.n {
            return None;
        }
        let raw = self.times.next();
        let arrival_s = match &self.warp {
            Some(w) => w.apply(raw, &mut self.warp_seg),
            None => raw,
        };
        let k = self.rng_j.gen_range(0..self.pool.len());
        let (lo, hi) = self.slo_tightness;
        let slo = if hi > lo {
            self.rng_j.gen_range(lo..hi)
        } else {
            lo
        };
        let i = self.pos;
        self.pos += 1;
        Some(JobSpec {
            id: i as u32,
            workload: self.pool[k],
            taxon: self.taxa[k],
            arrival_s,
            slo_tightness: slo,
            seed: self
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64),
        })
    }

    fn total(&self) -> usize {
        self.times.n
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn workloads(&self) -> Vec<Workload> {
        self.pool.clone()
    }

    fn save(&self) -> CursorState {
        let mut heap_bits: Vec<u64> = self.times.heap.iter().map(|r| r.0).collect();
        heap_bits.sort_unstable();
        CursorState {
            pos: self.pos as u64,
            rng_t: self.times.rng.state(),
            rng_j: self.rng_j.state(),
            heap_bits,
            frontier_bits: self.times.frontier.to_bits(),
            drawn: self.times.drawn as u64,
            warp_seg: self.warp_seg as u64,
        }
    }

    fn load(&mut self, s: &CursorState) -> Result<(), CheckpointError> {
        let n = self.times.n as u64;
        if s.pos > n || s.drawn > n || s.pos > s.drawn {
            return Err(CheckpointError::Corrupt("cursor position past stream end"));
        }
        if s.heap_bits.len() as u64 != s.drawn - s.pos {
            return Err(CheckpointError::Corrupt(
                "cursor merge heap inconsistent with position",
            ));
        }
        let frontier = f64::from_bits(s.frontier_bits);
        if !is_time(frontier) || !s.heap_bits.iter().all(|&b| is_time(f64::from_bits(b))) {
            return Err(CheckpointError::Corrupt(
                "cursor time negative or not finite",
            ));
        }
        // Without a warp the pointer never moves off 0.
        if s.warp_seg >= self.warp.as_ref().map_or(1, |w| w.segs.len() as u64) {
            return Err(CheckpointError::Corrupt(
                "warp segment pointer out of range",
            ));
        }
        self.pos = s.pos as usize;
        self.times.drawn = s.drawn as usize;
        self.times.rng = SmallRng::from_state(s.rng_t);
        self.times.frontier = frontier;
        self.times.heap = s.heap_bits.iter().map(|&b| Reverse(b)).collect();
        self.rng_j = SmallRng::from_state(s.rng_j);
        self.warp_seg = s.warp_seg as usize;
        Ok(())
    }
}

/// Writes a stream as a line-delimited external trace [`TraceCursor`]
/// can replay. One job per line, space-separated:
/// `workload arrival_bits_hex slo_bits_hex seed class_index signature`
/// — floats as raw IEEE bit patterns, so the round-trip is lossless to
/// the last bit. Job ids are implicit stream positions, exactly as
/// generated streams number them.
pub fn write_trace<W: Write>(mut w: W, jobs: &[JobSpec]) -> io::Result<()> {
    for j in jobs {
        let class_idx = JobClass::ALL
            .iter()
            .position(|c| *c == j.taxon.class)
            .expect("JobClass::ALL covers every class");
        writeln!(
            w,
            "{} {:016x} {:016x} {} {} {}",
            j.workload.name,
            j.arrival_s.to_bits(),
            j.slo_tightness.to_bits(),
            j.seed,
            class_idx,
            j.taxon.signature
        )?;
    }
    Ok(())
}

/// A streaming [`ArrivalCursor`] over a [`write_trace`]-format file:
/// one buffered line per pull, O(1) memory however long the trace is.
///
/// [`open`](TraceCursor::open) parses every line and rejects the file
/// with the offending line number if any job is malformed — a trace
/// file is an input artefact, and replaying a corrupt one
/// deterministically wrong would be worse than refusing it. Pulls reuse
/// the same parser; a file edited between `open` and a pull is the one
/// case a pull can still panic on.
pub struct TraceCursor {
    path: PathBuf,
    reader: io::BufReader<std::fs::File>,
    pos: usize,
    total: usize,
    pool: Vec<Workload>,
}

impl TraceCursor {
    /// Opens a trace file, parsing it once to validate every job, count
    /// them and collect the distinct workloads (the kernel needs both up
    /// front).
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`], naming the line, on a malformed
    /// field, an unknown workload, a class index out of range, a
    /// non-finite, negative or decreasing arrival, or a non-positive or
    /// non-finite SLO tightness.
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut total = 0usize;
        let mut pool: Vec<Workload> = Vec::new();
        let mut last_arrival = 0.0;
        for (ln, line) in io::BufReader::new(std::fs::File::open(path)?)
            .lines()
            .enumerate()
        {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let resolve = |name: &str| {
                if let Some(w) = pool.iter().find(|w| w.name == name) {
                    return Some(*w);
                }
                let w = astro_workloads::by_name(name)?;
                pool.push(w);
                Some(w)
            };
            let job = parse_line(&line, total, last_arrival, resolve).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("trace line {}: {e}", ln + 1),
                )
            })?;
            last_arrival = job.arrival_s;
            total += 1;
        }
        Ok(TraceCursor {
            path: path.to_path_buf(),
            reader: io::BufReader::new(std::fs::File::open(path)?),
            pos: 0,
            total,
            pool,
        })
    }

    /// Reads the next non-empty line, or `None` at end of file.
    fn next_line(&mut self) -> io::Result<Option<String>> {
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            if !line.trim().is_empty() {
                return Ok(Some(line));
            }
        }
    }
}

/// Parses one [`write_trace`] line as job `id`, arriving no earlier
/// than `not_before`, and resolves its workload name through `resolve`.
fn parse_line(
    line: &str,
    id: usize,
    not_before: f64,
    resolve: impl FnOnce(&str) -> Option<Workload>,
) -> Result<JobSpec, String> {
    let mut f = line.split_whitespace();
    let name = f.next().ok_or("missing workload")?;
    let mut int = |what: &str, radix: u32| {
        let field = f.next().ok_or(format!("missing {what}"))?;
        u64::from_str_radix(field, radix).map_err(|e| format!("bad {what}: {e}"))
    };
    let arrival_s = f64::from_bits(int("arrival bits", 16)?);
    let slo_tightness = f64::from_bits(int("slo bits", 16)?);
    let seed = int("seed", 10)?;
    let class_idx = int("class index", 10)?;
    let signature =
        u8::try_from(int("signature", 10)?).map_err(|e| format!("bad signature: {e}"))?;
    if let Some(extra) = f.next() {
        return Err(format!("unexpected trailing field {extra:?}"));
    }
    let class = *usize::try_from(class_idx)
        .ok()
        .and_then(|i| JobClass::ALL.get(i))
        .ok_or(format!("class index {class_idx} out of range"))?;
    if !is_time(arrival_s) || arrival_s < not_before {
        return Err(format!(
            "arrival {arrival_s} must be finite and ≥ {not_before}"
        ));
    }
    if !(slo_tightness > 0.0 && slo_tightness.is_finite()) {
        return Err(format!(
            "SLO tightness {slo_tightness} must be > 0 and finite"
        ));
    }
    let workload = resolve(name).ok_or(format!("unknown workload {name:?}"))?;
    Ok(JobSpec {
        id: id as u32,
        workload,
        taxon: Taxon { class, signature },
        arrival_s,
        slo_tightness,
        seed,
    })
}

impl ArrivalCursor for TraceCursor {
    fn next_job(&mut self) -> Option<JobSpec> {
        if self.pos >= self.total {
            return None;
        }
        let job = match self.next_line() {
            Ok(line) => parse_line(&line?, self.pos, 0.0, |name| {
                self.pool.iter().find(|w| w.name == name).copied()
            }),
            Err(e) => Err(format!("read failed: {e}")),
        }
        .unwrap_or_else(|e| panic!("trace job {}: {e} (file changed since open)", self.pos));
        self.pos += 1;
        Some(job)
    }

    fn total(&self) -> usize {
        self.total
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn workloads(&self) -> Vec<Workload> {
        self.pool.clone()
    }

    fn save(&self) -> CursorState {
        CursorState {
            pos: self.pos as u64,
            ..CursorState::default()
        }
    }

    fn load(&mut self, s: &CursorState) -> Result<(), CheckpointError> {
        if s.pos as usize > self.total {
            return Err(CheckpointError::Corrupt("cursor position past stream end"));
        }
        // Reopen and skip: the trace is the source of truth, and a
        // linear re-scan is exact however the file is buffered.
        let file = std::fs::File::open(&self.path)
            .map_err(|_| CheckpointError::Corrupt("trace file vanished before resume"))?;
        self.reader = io::BufReader::new(file);
        self.pos = 0;
        for _ in 0..s.pos {
            if !matches!(self.next_line(), Ok(Some(_))) {
                return Err(CheckpointError::Corrupt("trace file shrank before resume"));
            }
            self.pos += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Vec<Workload> {
        ["swaptions", "bfs"]
            .iter()
            .map(|n| astro_workloads::by_name(n).unwrap())
            .collect()
    }

    #[test]
    fn same_seed_same_stream() {
        let p = ArrivalProcess::Poisson {
            rate_jobs_per_s: 100.0,
        };
        let a = p.generate(50, &pool(), InputSize::Test, (3.0, 6.0), 7);
        let b = p.generate(50, &pool(), InputSize::Test, (3.0, 6.0), 7);
        assert_eq!(a.len(), 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival_s, y.arrival_s);
            assert_eq!(x.workload.name, y.workload.name);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.slo_tightness, y.slo_tightness);
        }
        let c = p.generate(50, &pool(), InputSize::Test, (3.0, 6.0), 8);
        assert!(a.iter().zip(&c).any(|(x, y)| x.arrival_s != y.arrival_s));
    }

    #[test]
    fn poisson_rate_is_roughly_honoured() {
        let p = ArrivalProcess::Poisson {
            rate_jobs_per_s: 200.0,
        };
        let jobs = p.generate(400, &pool(), InputSize::Test, (4.0, 4.0), 3);
        let span = jobs.last().unwrap().arrival_s;
        let rate = 400.0 / span;
        assert!((100.0..400.0).contains(&rate), "empirical rate {rate}");
        // Arrivals are sorted.
        assert!(jobs.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
    }

    #[test]
    fn bursty_clusters_arrivals() {
        let burst = 10;
        let p = ArrivalProcess::Bursty {
            rate_jobs_per_s: 100.0,
            burst,
            spread_s: 0.001,
        };
        let jobs = p.generate(200, &pool(), InputSize::Test, (4.0, 4.0), 11);
        assert_eq!(jobs.len(), 200);
        assert!(jobs.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        // Most consecutive gaps are tiny (within a burst); a few are big.
        let gaps: Vec<f64> = jobs
            .windows(2)
            .map(|w| w[1].arrival_s - w[0].arrival_s)
            .collect();
        let small = gaps.iter().filter(|&&g| g < 0.002).count();
        assert!(
            small > gaps.len() / 2,
            "expected clustered arrivals, {small}/{} small gaps",
            gaps.len()
        );
    }

    #[test]
    fn flash_crowd_concentrates_the_window() {
        let p = ArrivalProcess::Poisson {
            rate_jobs_per_s: 120.0,
        };
        let traffic = [TrafficClause::FlashCrowd {
            from_frac: 0.4,
            to_frac: 0.6,
            factor: 6.0,
        }];
        let jobs = p.generate_shaped(500, &pool(), InputSize::Test, (3.0, 6.0), 5, &traffic);
        let plain = p.generate(500, &pool(), InputSize::Test, (3.0, 6.0), 5);
        let horizon = plain.last().unwrap().arrival_s;
        assert_eq!(jobs.len(), 500);
        // Horizon, order and per-job draws survive the warp.
        assert_eq!(
            jobs.last().unwrap().arrival_s.to_bits(),
            horizon.to_bits(),
            "warp must preserve the horizon"
        );
        assert!(jobs.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        for (a, b) in plain.iter().zip(&jobs) {
            assert_eq!(a.workload.name, b.workload.name);
            assert_eq!(a.seed, b.seed);
        }
        // The 20% window should hold far more than 20% of the stream:
        // with factor 6 the expected share is 1.2 / (0.8 + 1.2) = 60%.
        let in_window = jobs
            .iter()
            .filter(|j| {
                let u = j.arrival_s / horizon;
                (0.4..0.6).contains(&u)
            })
            .count();
        assert!(
            in_window > 200,
            "flash window holds {in_window}/500 jobs, expected ~300"
        );
    }

    #[test]
    fn diurnal_preserves_count_horizon_and_order() {
        let p = ArrivalProcess::Bursty {
            rate_jobs_per_s: 150.0,
            burst: 8,
            spread_s: 0.01,
        };
        let traffic = [TrafficClause::Diurnal {
            cycles: 2.0,
            depth: 0.7,
            steps: 16,
        }];
        let jobs = p.generate_shaped(300, &pool(), InputSize::Test, (3.0, 6.0), 9, &traffic);
        let plain = p.generate(300, &pool(), InputSize::Test, (3.0, 6.0), 9);
        assert_eq!(jobs.len(), 300);
        assert!(jobs.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        assert!(jobs.iter().all(|j| j.arrival_s >= 0.0));
        assert_eq!(
            jobs.last().unwrap().arrival_s.to_bits(),
            plain.last().unwrap().arrival_s.to_bits()
        );
        // The swell actually moved something.
        assert!(plain
            .iter()
            .zip(&jobs)
            .any(|(a, b)| a.arrival_s.to_bits() != b.arrival_s.to_bits()));
    }

    #[test]
    #[should_panic(expected = "invalid arrival stream: SLO tightness range (0, 4)")]
    fn non_positive_slo_tightness_is_rejected() {
        let p = ArrivalProcess::Poisson {
            rate_jobs_per_s: 50.0,
        };
        // tightness 0 would generate jobs with slo_s == 0 — deadlines
        // that can never be met but used to score a perfect SLO ratio.
        p.generate(10, &pool(), InputSize::Test, (0.0, 4.0), 1);
    }

    #[test]
    #[should_panic(expected = "invalid arrival stream: SLO tightness range (3, inf)")]
    fn non_finite_slo_tightness_is_rejected() {
        let p = ArrivalProcess::Poisson {
            rate_jobs_per_s: 50.0,
        };
        p.generate(10, &pool(), InputSize::Test, (3.0, f64::INFINITY), 1);
    }

    #[test]
    #[should_panic(expected = "invalid arrival stream: rate 0 jobs/s must be positive and finite")]
    fn zero_rate_is_rejected() {
        let p = ArrivalProcess::Poisson {
            rate_jobs_per_s: 0.0,
        };
        p.generate(10, &pool(), InputSize::Test, (3.0, 5.0), 1);
    }

    #[test]
    #[should_panic(expected = "invalid arrival stream: burst 0 must be at least 1")]
    fn zero_burst_is_rejected() {
        let p = ArrivalProcess::Bursty {
            rate_jobs_per_s: 50.0,
            burst: 0,
            spread_s: 0.01,
        };
        p.generate(10, &pool(), InputSize::Test, (3.0, 5.0), 1);
    }

    #[test]
    fn ids_are_stream_positions() {
        let p = ArrivalProcess::Poisson {
            rate_jobs_per_s: 50.0,
        };
        let jobs = p.generate(20, &pool(), InputSize::Test, (3.0, 5.0), 1);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id as usize, i);
        }
    }

    fn assert_same_stream(batch: &[JobSpec], cursor: &mut dyn ArrivalCursor) {
        assert_eq!(cursor.total(), batch.len());
        for (i, want) in batch.iter().enumerate() {
            let got = cursor
                .next_job()
                .unwrap_or_else(|| panic!("cursor ended at {i}"));
            assert_eq!(got.id, want.id, "id at {i}");
            assert_eq!(got.workload.name, want.workload.name, "workload at {i}");
            assert_eq!(got.taxon, want.taxon, "taxon at {i}");
            assert_eq!(
                got.arrival_s.to_bits(),
                want.arrival_s.to_bits(),
                "arrival at {i}"
            );
            assert_eq!(
                got.slo_tightness.to_bits(),
                want.slo_tightness.to_bits(),
                "slo at {i}"
            );
            assert_eq!(got.seed, want.seed, "seed at {i}");
        }
        assert!(cursor.next_job().is_none(), "cursor overruns the stream");
    }

    #[test]
    fn gen_cursor_save_load_resumes_exactly() {
        let p = ArrivalProcess::Bursty {
            rate_jobs_per_s: 150.0,
            burst: 8,
            spread_s: 0.01,
        };
        let batch = p.generate(120, &pool(), InputSize::Test, (3.0, 6.0), 13);
        for cut in [0usize, 1, 37, 119, 120] {
            let mut cur = GenCursor::new(p, 120, &pool(), InputSize::Test, (3.0, 6.0), 13, &[]);
            for _ in 0..cut {
                cur.next_job().unwrap();
            }
            let saved = cur.save();
            let mut resumed = GenCursor::new(p, 120, &pool(), InputSize::Test, (3.0, 6.0), 13, &[]);
            resumed.load(&saved).unwrap();
            assert_same_stream(&batch[cut..], &mut SliceCursor::new(&batch[cut..]));
            for (i, want) in batch[cut..].iter().enumerate() {
                let got = resumed.next_job().unwrap();
                assert_eq!(got.arrival_s.to_bits(), want.arrival_s.to_bits(), "at {i}");
                assert_eq!(got.seed, want.seed);
                assert_eq!(got.id, want.id);
            }
            assert!(resumed.next_job().is_none());
        }
    }

    #[test]
    fn gen_cursor_rejects_impossible_positions() {
        let p = ArrivalProcess::Poisson {
            rate_jobs_per_s: 50.0,
        };
        let mut cur = GenCursor::new(p, 10, &pool(), InputSize::Test, (3.0, 5.0), 1, &[]);
        let mut s = cur.save();
        s.pos = 11;
        assert!(cur.load(&s).is_err());
        let mut s = cur.save();
        s.heap_bits.push(7);
        assert!(cur.load(&s).is_err());
    }

    #[test]
    fn trace_round_trips_losslessly() {
        let p = ArrivalProcess::Bursty {
            rate_jobs_per_s: 150.0,
            burst: 8,
            spread_s: 0.01,
        };
        let batch = p.generate(150, &pool(), InputSize::Test, (3.0, 6.0), 17);
        let dir = std::env::temp_dir().join(format!("astro_trace_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.trace");
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &batch).unwrap();
        std::fs::write(&path, &bytes).unwrap();

        let mut cur = TraceCursor::open(&path).unwrap();
        assert_same_stream(&batch, &mut cur);

        // save/load mid-stream.
        let mut cur = TraceCursor::open(&path).unwrap();
        for _ in 0..77 {
            cur.next_job().unwrap();
        }
        let saved = cur.save();
        let mut resumed = TraceCursor::open(&path).unwrap();
        resumed.load(&saved).unwrap();
        for want in &batch[77..] {
            let got = resumed.next_job().unwrap();
            assert_eq!(got.arrival_s.to_bits(), want.arrival_s.to_bits());
            assert_eq!(got.seed, want.seed);
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn slice_cursor_is_the_identity_adapter() {
        let p = ArrivalProcess::Poisson {
            rate_jobs_per_s: 50.0,
        };
        let batch = p.generate(20, &pool(), InputSize::Test, (3.0, 5.0), 1);
        let mut cur = SliceCursor::new(&batch);
        assert_eq!(cur.workloads().len(), 2);
        assert_same_stream(&batch, &mut cur);
    }
}
