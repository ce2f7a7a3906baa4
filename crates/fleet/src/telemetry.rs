//! Deterministic flight recorder for the fleet kernel: structured
//! event tracing, per-tick gauge samples, and wall-clock phase
//! profiling — zero-cost when off, byte-identical outcomes when on.
//! Also home of the log-bucketed streaming percentile digest the
//! kernel's completion sink is built on.
//!
//! The source paper's premise is scheduling driven by *observed*
//! runtime behaviour; until now the fleet's own observability was
//! post-hoc (metrics computed from a retained `Vec<JobOutcome>` after
//! the run). This module is the live substrate: the kernel calls a
//! small inventory of hooks on a [`FlightRecorder`] and every layer of
//! telemetry is derived from those calls alone.
//!
//! **Three layers, three clocks:**
//!
//! 1. *Structured event tracing* ([`TraceEvent`]) — spans for dispatch
//!    decisions, completion advance windows, barrier merges, preempt
//!    scans, churn and chaos window edges, emitted as
//!    Chrome-trace/Perfetto JSON by [`FlightRecorder::render_chrome_trace`].
//!    Timestamps are **sim time** (microseconds of virtual clock), so
//!    traces are byte-identical across machines.
//! 2. *Gauges over sim time* ([`WindowSample`]) — per-tick gauge
//!    samples (utilisation, queue depth, backlog, feedback error,
//!    blackout/throttle state, p50/p95/p99 and SLO-miss so far). The
//!    recorder owns no digests and no counters: the latency and SLO-miss
//!    gauges are read from the kernel's one completion sink (the
//!    streaming aggregate every run folds each completion into), and
//!    event counts are the kernel's own
//!    [`KernelStats`](crate::kernel::KernelStats), so nothing is counted
//!    or aggregated twice and no outcome is retained. The one count the
//!    kernel has no source for, advance windows that completed
//!    something, is [`FlightRecorder::advance_windows`].
//! 3. *Wall-clock phase profiling* ([`PhaseProfile`]) — control-plane
//!    vs completion-advance vs barrier-merge timers. These are **machine
//!    time**, machine-dependent by construction, and excluded from
//!    every golden; they exist to aim the hot-path work, not to be
//!    reproducible.
//!
//! **The determinism argument.** Every hook runs on the kernel's one
//! thread; hooks *read* kernel state and *write* only recorder state;
//! and completion-derived telemetry is taken as each completion pops,
//! in `(finish_s, id)` order, a key of the simulation alone. Pops
//! never go backwards and successive advance windows are disjoint and
//! increasing, so the completion event stream is globally monotone in
//! sim time. The kernel's simulation state never branches on the
//! recorder, so outcomes are bitwise identical with tracing on or off
//! (pinned by the `proptest_telemetry` suite). The off path costs one
//! branch per hook: every hook is `#[inline]` and returns immediately
//! unless its [`TraceLevel`] is enabled.

use crate::job::JobOutcome;
use std::fmt::Write as _;
use std::time::Instant;

/// How much the flight recorder captures. Levels are cumulative and
/// ordered: each level records everything the previous one does.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Record nothing; every hook is a single predicted-false branch.
    Off,
    /// A [`WindowSample`] per monitor tick and the advance-window
    /// count. No trace events.
    Ticks,
    /// Plus structured spans: completion advance windows, preempt scans,
    /// churn and chaos window edges, monitor-tick markers.
    Spans,
    /// Plus per-job events: a span per dispatch decision and an
    /// instant event per completion and drop. The high-volume layer.
    Full,
}

impl TraceLevel {
    /// Parse a `--trace-level` value. Accepts `off`, `ticks`, `spans`,
    /// `full`; anything else is `None`.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "ticks" => Some(TraceLevel::Ticks),
            "spans" => Some(TraceLevel::Spans),
            "full" => Some(TraceLevel::Full),
            _ => None,
        }
    }

    /// Stable label (the inverse of [`TraceLevel::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Ticks => "ticks",
            TraceLevel::Spans => "spans",
            TraceLevel::Full => "full",
        }
    }
}

/// Geometric growth factor between adjacent digest buckets: every
/// streamed quantile is within one factor of the exact nearest-rank
/// value (≤ 5% relative error) for samples inside the digest's range.
pub const DIGEST_GROWTH: f64 = 1.05;
/// Lower edge of the digest's first bucket, seconds. Samples at or
/// below it land in bucket 0.
pub const DIGEST_FLOOR: f64 = 1e-9;
/// Fixed bucket count. With [`DIGEST_GROWTH`] this spans
/// `1e-9 s .. ~3.6e4 s` — nanoseconds to ten sim-hours; samples above
/// the span clamp into the last bucket.
pub const DIGEST_BUCKETS: usize = 640;

/// A fixed-size, deterministic streaming quantile estimator: a
/// log-bucketed histogram with [`DIGEST_BUCKETS`] geometric buckets.
///
/// Adding a sample is O(1) and allocation-free; a quantile query walks
/// the bucket array. The estimate contract — tested against the exact
/// nearest-rank [`percentile`](crate::metrics::percentile) — is:
/// `exact <= estimate <= exact * DIGEST_GROWTH` for any sample set
/// within `[DIGEST_FLOOR, DIGEST_FLOOR * DIGEST_GROWTH^DIGEST_BUCKETS]`.
/// The histogram is a pure function of the *multiset* of samples, so
/// the stream order cannot change any answer.
#[derive(Clone)]
pub struct QuantileDigest {
    counts: Vec<u64>,
    total: u64,
}

impl QuantileDigest {
    /// An empty digest.
    pub fn new() -> Self {
        QuantileDigest {
            counts: vec![0; DIGEST_BUCKETS],
            total: 0,
        }
    }

    /// Bucket index of a sample: `floor(log(x / FLOOR) / log(GROWTH))`,
    /// clamped into the array. NaN and samples at or below the floor
    /// land in bucket 0, infinities in the last (they cannot occur from
    /// the kernel, but a digest must never panic on data).
    fn bucket(x: f64) -> usize {
        if x.is_nan() || x <= DIGEST_FLOOR {
            return 0;
        }
        let i = (x / DIGEST_FLOOR).ln() / DIGEST_GROWTH.ln();
        (i as usize).min(DIGEST_BUCKETS - 1)
    }

    /// Upper edge of bucket `i`, seconds — what quantile queries report.
    fn upper(i: usize) -> f64 {
        DIGEST_FLOOR * DIGEST_GROWTH.powi(i as i32 + 1)
    }

    /// Fold one sample in.
    pub fn add(&mut self, x: f64) {
        self.counts[Self::bucket(x)] += 1;
        self.total += 1;
    }

    /// Samples folded so far.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Serialise the digest sparsely (only occupied buckets) for a
    /// kernel checkpoint.
    pub(crate) fn encode(&self, enc: &mut crate::checkpoint::Enc) {
        let occupied = self.counts.iter().filter(|&&c| c > 0).count();
        enc.usize(occupied);
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                enc.u32(i as u32);
                enc.u64(c);
            }
        }
        enc.u64(self.total);
    }

    /// Decode a digest serialised by [`QuantileDigest::encode`],
    /// rejecting out-of-range bucket indices and count/total mismatches.
    pub(crate) fn decode(
        dec: &mut crate::checkpoint::Dec<'_>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        use crate::checkpoint::CheckpointError;
        let occupied = dec.count(12)?;
        let mut d = QuantileDigest::new();
        let mut sum = 0u64;
        for _ in 0..occupied {
            let i = dec.u32()? as usize;
            if i >= DIGEST_BUCKETS {
                return Err(CheckpointError::Corrupt("digest bucket index out of range"));
            }
            let c = dec.u64()?;
            d.counts[i] = c;
            sum = sum
                .checked_add(c)
                .ok_or(CheckpointError::Corrupt("digest counts overflow"))?;
        }
        d.total = dec.u64()?;
        if d.total != sum {
            return Err(CheckpointError::Corrupt(
                "digest total disagrees with bucket counts",
            ));
        }
        Ok(d)
    }

    /// Nearest-rank quantile estimate (`q` in 0..100): the upper edge
    /// of the bucket holding the rank-`ceil(q/100 · n)` sample. Returns
    /// `0.0` on an empty digest, matching
    /// [`percentile`](crate::metrics::percentile).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q / 100.0) * self.total as f64).ceil() as u64;
        let rank = rank.clamp(1, self.total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::upper(i);
            }
        }
        Self::upper(DIGEST_BUCKETS - 1)
    }
}

impl Default for QuantileDigest {
    fn default() -> Self {
        QuantileDigest::new()
    }
}

/// One recorded trace event, in sim-time microseconds. Events are
/// appended in emission order, which the kernel keeps non-decreasing
/// in `ts_us` — the monotonicity the `fleet_trace` verdict asserts.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Event name (span label).
    pub name: String,
    /// Chrome-trace category (`dispatch`, `shard`, `chaos`, …).
    pub cat: &'static str,
    /// Start timestamp, microseconds of *sim* time.
    pub ts_us: f64,
    /// Duration, microseconds of sim time (0 for instants).
    pub dur_us: f64,
    /// Rendered as a Chrome instant event (`ph:"i"`) instead of a
    /// complete span (`ph:"X"`).
    pub instant: bool,
    /// Track (Chrome `tid`): 0 = control plane, 1 = shard advances,
    /// 2 = completions.
    pub tid: u32,
    /// Pre-rendered JSON object interior for the event's `args` (empty
    /// = no args). Keys and values are already escaped.
    pub args: String,
}

/// Gauges sampled at one monitor tick — the sliding-window view of the
/// fleet over sim time, recorded without retaining any outcome.
#[derive(Clone, Debug)]
pub struct WindowSample {
    /// Tick timestamp, sim seconds.
    pub t_s: f64,
    /// Jobs completed so far (stream total, not per-window).
    pub completions: u64,
    /// Streamed median latency so far, seconds.
    pub p50_s: f64,
    /// Streamed p95 latency so far, seconds.
    pub p95_s: f64,
    /// Streamed p99 latency so far, seconds.
    pub p99_s: f64,
    /// SLO misses so far over completions so far (0 when none).
    pub slo_miss_rate: f64,
    /// Mean busy fraction across all boards at the tick.
    pub mean_util: f64,
    /// Dispatched-but-unstarted jobs summed over boards.
    pub queue_depth: u64,
    /// Live backlog estimate summed over boards, seconds.
    pub backlog_s: f64,
    /// Boards currently up.
    pub boards_up: u32,
    /// Boards accepting placements (up and not blacked out).
    pub boards_placeable: u32,
    /// Boards under at least one active throttle window.
    pub throttled: u32,
    /// Boards under at least one active dispatch blackout.
    pub blacked_out: u32,
    /// Feedback-layer mean |observed−predicted|/predicted so far
    /// (0 when the scenario runs without feedback).
    pub feedback_mean_abs_rel_err: f64,
    /// Feedback observations accepted so far.
    pub feedback_samples: u64,
    /// Mean EWMA correction over learned feedback cells (1.0 when none).
    pub feedback_mean_correction: f64,
}

/// Wall-clock phase accounting for one kernel run. Machine time, not
/// sim time: values depend on the host and are excluded from every
/// golden and fingerprint. All zero when the recorder is off.
///
/// Each completion is folded (index repair, streaming aggregate,
/// feedback, recorder hooks) as it pops, inside the advance, so
/// `shard_advance_s` includes the fold and `barrier_merge_s` is only
/// the window close. Their sum is the whole cost of the completion
/// plane, and the figure to compare across the two attributions.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseProfile {
    /// Total wall seconds inside the kernel loop.
    pub total_s: f64,
    /// Wall seconds inside the completion advance (the execution
    /// plane, [`crate::shard`]), folding each completion included.
    pub shard_advance_s: f64,
    /// Wall seconds closing advance windows at the barrier (the
    /// recorder's window span and window count).
    pub barrier_merge_s: f64,
}

impl PhaseProfile {
    /// Wall seconds in the sequential control plane — everything not
    /// attributed to completion advances or barrier merges.
    pub fn control_s(&self) -> f64 {
        (self.total_s - self.shard_advance_s - self.barrier_merge_s).max(0.0)
    }
}

/// The flight recorder: owns every telemetry layer and exposes the
/// hook inventory the kernel calls. Constructed per run; never shared
/// across runs. See the module docs for the determinism argument.
pub struct FlightRecorder {
    level: TraceLevel,
    events: Vec<TraceEvent>,
    windows: Vec<WindowSample>,
    wall: PhaseProfile,
    window: OpenWindow,
    advance_windows: u64,
}

/// The advance window being folded: completions so far, the last one's
/// finish time, and where its `advance` span sits in the event list.
#[derive(Default)]
struct OpenWindow {
    done: u64,
    last_finish_s: f64,
    span: Option<usize>,
}

impl FlightRecorder {
    /// A recorder at the given level.
    pub fn new(level: TraceLevel) -> Self {
        FlightRecorder {
            level,
            events: Vec::new(),
            windows: Vec::new(),
            wall: PhaseProfile::default(),
            window: OpenWindow::default(),
            advance_windows: 0,
        }
    }

    /// The disabled recorder [`FleetSim::run`](crate::sim::FleetSim::run)
    /// threads through untraced runs: every hook is one branch.
    pub fn off() -> Self {
        FlightRecorder::new(TraceLevel::Off)
    }

    /// The level this recorder captures at.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Is anything being recorded at all?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.level > TraceLevel::Off
    }

    /// Are per-tick window samples being recorded?
    #[inline]
    pub fn wants_ticks(&self) -> bool {
        self.level >= TraceLevel::Ticks
    }

    /// Are structured spans being recorded?
    #[inline]
    pub fn wants_spans(&self) -> bool {
        self.level >= TraceLevel::Spans
    }

    /// Are per-job dispatch/completion events being recorded?
    #[inline]
    pub fn wants_full(&self) -> bool {
        self.level >= TraceLevel::Full
    }

    // ---- hook inventory (called by the kernel, control plane only) ------

    /// Arrival handled: `job` was dispatched to `board` with the given
    /// (possibly feedback-corrected, possibly chaos-corrupted) service
    /// estimate. Emits a zero-width dispatch span at [`TraceLevel::Full`].
    #[inline]
    pub(crate) fn on_dispatch(
        &mut self,
        t_s: f64,
        id: u32,
        workload: &'static str,
        board: usize,
        est_service_s: f64,
    ) {
        if !self.wants_full() {
            return;
        }
        let args = format!(
            "\"job\":{id},\"board\":{board},\"est_service_us\":{:.3}",
            est_service_s * 1e6
        );
        self.events.push(TraceEvent {
            name: format!("dispatch {workload}#{id}"),
            cat: "dispatch",
            ts_us: t_s * 1e6,
            dur_us: 0.0,
            instant: false,
            tid: 0,
            args,
        });
    }

    /// A job was dropped instead of dispatched (`reason` is the stable
    /// [`DropReason`](crate::state::DropReason) label).
    #[inline]
    pub(crate) fn on_drop(&mut self, t_s: f64, id: u32, reason: &'static str) {
        if !self.wants_full() {
            return;
        }
        self.events.push(TraceEvent {
            name: format!("drop #{id} ({reason})"),
            cat: "drop",
            ts_us: t_s * 1e6,
            dur_us: 0.0,
            instant: true,
            tid: 0,
            args: format!("\"job\":{id}"),
        });
    }

    /// One completion folded as it popped. The first of an advance
    /// window pushes the window's `advance` span (filled in by
    /// [`FlightRecorder::on_window_close`]), so the span precedes its
    /// completions in the trace; at [`TraceLevel::Full`] each
    /// completion also emits an instant.
    #[inline]
    pub(crate) fn on_complete(&mut self, o: &JobOutcome) {
        if !self.enabled() {
            return;
        }
        if self.window.done == 0 && self.wants_spans() {
            self.window.span = Some(self.events.len());
            self.events.push(TraceEvent {
                name: "advance".to_string(),
                cat: "shard",
                ts_us: 0.0,
                dur_us: 0.0,
                instant: false,
                tid: 1,
                args: String::new(),
            });
        }
        self.window.done += 1;
        self.window.last_finish_s = o.finish_s;
        if self.wants_full() {
            self.events.push(TraceEvent {
                name: format!("complete {}#{}", o.workload, o.id),
                cat: "completion",
                ts_us: o.finish_s * 1e6,
                dur_us: 0.0,
                instant: true,
                tid: 2,
                args: format!(
                    "\"job\":{},\"board\":{},\"latency_us\":{:.3}",
                    o.id,
                    o.board,
                    o.latency_s() * 1e6
                ),
            });
        }
    }

    /// The advance window `[from_s, to_s)` closed (`to_s` is infinite
    /// on the final drain, and the window then ends at its last
    /// completion). A window that completed anything fills in its
    /// `advance` span and counts toward
    /// [`FlightRecorder::advance_windows`]; an empty window records
    /// nothing.
    #[inline]
    pub(crate) fn on_window_close(&mut self, from_s: f64, to_s: f64) {
        if !self.enabled() || self.window.done == 0 {
            return;
        }
        let end_s = if to_s.is_finite() {
            to_s
        } else {
            self.window.last_finish_s
        };
        if let Some(i) = self.window.span.take() {
            let span = &mut self.events[i];
            span.ts_us = from_s * 1e6;
            span.dur_us = (end_s - from_s).max(0.0) * 1e6;
            span.args = format!("\"completions\":{}", self.window.done);
        }
        self.window.done = 0;
        self.advance_windows += 1;
    }

    /// One preemption scan ran at `t_s` and migrated `migrated` jobs.
    #[inline]
    pub(crate) fn on_preempt_scan(&mut self, t_s: f64, migrated: u64) {
        if !self.wants_spans() {
            return;
        }
        self.events.push(TraceEvent {
            name: format!("preempt scan ({migrated} migrated)"),
            cat: "preempt",
            ts_us: t_s * 1e6,
            dur_us: 0.0,
            instant: false,
            tid: 0,
            args: format!("\"migrated\":{migrated}"),
        });
    }

    /// A churn edge: board `b` went down (`up == false`) or came back.
    #[inline]
    pub(crate) fn on_churn(&mut self, t_s: f64, b: usize, up: bool) {
        if !self.wants_spans() {
            return;
        }
        self.events.push(TraceEvent {
            name: format!("board {b} {}", if up { "up" } else { "down" }),
            cat: "churn",
            ts_us: t_s * 1e6,
            dur_us: 0.0,
            instant: true,
            tid: 0,
            args: String::new(),
        });
    }

    /// A chaos clause window edge (`what` is e.g. `"throttle start"`,
    /// `label` the clause's human label).
    #[inline]
    pub(crate) fn on_chaos(&mut self, t_s: f64, what: &str, label: &str, board: usize) {
        if !self.wants_spans() {
            return;
        }
        self.events.push(TraceEvent {
            name: format!("{what}: {label} (board {board})"),
            cat: "chaos",
            ts_us: t_s * 1e6,
            dur_us: 0.0,
            instant: true,
            tid: 0,
            args: String::new(),
        });
    }

    /// A monitor tick sampled the fleet's gauges. The kernel only
    /// builds `sample` when [`FlightRecorder::wants_ticks`] holds.
    pub(crate) fn on_tick(&mut self, sample: WindowSample) {
        debug_assert!(self.wants_ticks(), "on_tick at level {:?}", self.level);
        if self.wants_spans() {
            self.events.push(TraceEvent {
                name: "tick".to_string(),
                cat: "tick",
                ts_us: sample.t_s * 1e6,
                dur_us: 0.0,
                instant: true,
                tid: 0,
                args: format!(
                    "\"queue_depth\":{},\"backlog_us\":{:.3}",
                    sample.queue_depth,
                    sample.backlog_s * 1e6
                ),
            });
        }
        self.windows.push(sample);
    }

    // ---- wall-clock phase profiling (machine time) ----------------------

    /// Start a wall-clock stopwatch — `None` when the recorder is off,
    /// so the disabled path never reads the OS clock.
    #[inline]
    pub(crate) fn stopwatch(&self) -> Option<Instant> {
        if self.enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Charge a stopwatch to the shard-advance phase.
    #[inline]
    pub(crate) fn lap_advance(&mut self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.wall.shard_advance_s += t0.elapsed().as_secs_f64();
        }
    }

    /// Charge a stopwatch to the barrier-merge phase (the window
    /// close).
    #[inline]
    pub(crate) fn lap_merge(&mut self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.wall.barrier_merge_s += t0.elapsed().as_secs_f64();
        }
    }

    /// Charge a stopwatch to the whole kernel loop (control time is
    /// derived: total − advance − merge).
    #[inline]
    pub(crate) fn lap_total(&mut self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.wall.total_s += t0.elapsed().as_secs_f64();
        }
    }

    // ---- read side ------------------------------------------------------

    /// Every recorded trace event, emission order (non-decreasing sim
    /// timestamps).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Per-tick window samples, tick order.
    pub fn windows(&self) -> &[WindowSample] {
        &self.windows
    }

    /// Advance windows that completed at least one job — the one count
    /// the recorder owns, because [`KernelStats`](crate::kernel::KernelStats)
    /// counts every advance, empty or not. At [`TraceLevel::Spans`] and
    /// above it equals the number of `advance` spans. Zero when the
    /// recorder is off, and counted from zero on a resumed kernel.
    pub fn advance_windows(&self) -> u64 {
        self.advance_windows
    }

    /// Wall-clock phase accounting (machine-dependent; all zero when
    /// the recorder was off).
    pub fn wall(&self) -> PhaseProfile {
        self.wall
    }

    /// Are the recorded event timestamps non-decreasing? (They must
    /// be — the kernel emits in sim-time order; the `fleet_trace`
    /// verdict asserts this.)
    pub fn timestamps_monotone(&self) -> bool {
        self.events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us)
    }

    /// Render the recorded events as Chrome-trace JSON (the
    /// `traceEvents` array format Perfetto and `chrome://tracing`
    /// load directly). Sim-time microseconds; metadata events name the
    /// process and the three tracks.
    pub fn render_chrome_trace(&self) -> String {
        let mut s = String::with_capacity(self.events.len() * 112 + 512);
        s.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        s.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"fleet kernel (sim time)\"}}",
        );
        for (tid, name) in [
            (0, "control plane"),
            (1, "shard advances"),
            (2, "completions"),
        ] {
            let _ = write!(
                s,
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            );
        }
        for e in &self.events {
            let _ = write!(
                s,
                ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{:.3}",
                escape_json(&e.name),
                e.cat,
                if e.instant { "i" } else { "X" },
                e.ts_us
            );
            if e.instant {
                s.push_str(",\"s\":\"t\"");
            } else {
                let _ = write!(s, ",\"dur\":{:.3}", e.dur_us);
            }
            let _ = write!(s, ",\"pid\":0,\"tid\":{}", e.tid);
            if !e.args.is_empty() {
                let _ = write!(s, ",\"args\":{{{}}}", e.args);
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }

    /// Write the Chrome-trace JSON to `path`.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.render_chrome_trace())
    }
}

/// Escape a string for embedding inside a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---- minimal JSON well-formedness checker -------------------------------

/// Check that `s` is one well-formed JSON value (the whole input, no
/// trailing garbage). A minimal recursive-descent validator — no
/// deserialisation, no dependencies — used by the `fleet_trace` verdict
/// and the telemetry tests to prove emitted traces parse.
pub fn validate_json(s: &str) -> Result<(), String> {
    let mut p = JsonCheck {
        b: s.as_bytes(),
        i: 0,
    };
    p.ws();
    p.value(0)?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(())
}

struct JsonCheck<'a> {
    b: &'a [u8],
    i: usize,
}

impl JsonCheck<'_> {
    fn ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self, depth: usize) -> Result<(), String> {
        if depth > 128 {
            return Err("nesting too deep".to_string());
        }
        match self.b.get(self.i) {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => Err(format!("expected a value at byte {}", self.i)),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn object(&mut self, depth: usize) -> Result<(), String> {
        self.eat(b'{')?;
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.ws();
            self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            self.value(depth + 1)?;
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<(), String> {
        self.eat(b'[')?;
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.ws();
            self.value(depth + 1)?;
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.eat(b'"')?;
        while let Some(&c) = self.b.get(self.i) {
            match c {
                b'"' => {
                    self.i += 1;
                    return Ok(());
                }
                b'\\' => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.i += 1;
                        }
                        Some(b'u') => {
                            self.i += 1;
                            for _ in 0..4 {
                                match self.b.get(self.i) {
                                    Some(h) if h.is_ascii_hexdigit() => self.i += 1,
                                    _ => return Err(format!("bad \\u escape at byte {}", self.i)),
                                }
                            }
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                }
                c if c < 0x20 => {
                    return Err(format!("raw control char in string at byte {}", self.i))
                }
                _ => self.i += 1,
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<(), String> {
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        let digits_start = self.i;
        while matches!(self.b.get(self.i), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.i == digits_start {
            return Err(format!("expected digits at byte {}", self.i));
        }
        if self.b.get(self.i) == Some(&b'.') {
            self.i += 1;
            let frac_start = self.i;
            while matches!(self.b.get(self.i), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
            if self.i == frac_start {
                return Err(format!("expected fraction digits at byte {}", self.i));
            }
        }
        if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.b.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            let exp_start = self.i;
            while matches!(self.b.get(self.i), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
            if self.i == exp_start {
                return Err(format!("expected exponent digits at byte {}", self.i));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::percentile;

    #[test]
    fn trace_level_parse_round_trips() {
        for l in [
            TraceLevel::Off,
            TraceLevel::Ticks,
            TraceLevel::Spans,
            TraceLevel::Full,
        ] {
            assert_eq!(TraceLevel::parse(l.name()), Some(l));
        }
        assert_eq!(TraceLevel::parse("verbose"), None);
        assert!(TraceLevel::Off < TraceLevel::Ticks);
        assert!(TraceLevel::Spans < TraceLevel::Full);
    }

    #[test]
    fn digest_empty_and_single_sample_edges() {
        let d = QuantileDigest::new();
        assert_eq!(d.count(), 0);
        assert_eq!(d.quantile(50.0), 0.0, "empty digest matches percentile");
        assert_eq!(percentile(&[], 50.0), 0.0);

        let mut d = QuantileDigest::new();
        d.add(0.0125);
        assert_eq!(d.count(), 1);
        for q in [1.0, 50.0, 99.0] {
            let est = d.quantile(q);
            assert!(
                (0.0125..=0.0125 * DIGEST_GROWTH * (1.0 + 1e-12)).contains(&est),
                "single-sample q{q} estimate {est} outside one bucket of 0.0125"
            );
        }
    }

    /// The accuracy contract: streamed p50/p95/p99 within one log
    /// bucket of the exact nearest-rank percentile on the same data.
    #[test]
    fn digest_matches_percentile_within_one_bucket() {
        // Deterministic LCG samples spanning several decades — the
        // shape (heavy tail) a latency distribution actually has.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut samples = Vec::new();
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (x >> 11) as f64 / (1u64 << 53) as f64; // in [0,1)
            samples.push(1e-4 * (1.0 - u).powi(-2)); // Pareto-ish, 0.1ms+
        }
        let mut d = QuantileDigest::new();
        for &s in &samples {
            d.add(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [10.0, 50.0, 90.0, 95.0, 99.0, 99.9] {
            let exact = percentile(&sorted, q);
            let est = d.quantile(q);
            assert!(
                est >= exact * (1.0 - 1e-12) && est <= exact * DIGEST_GROWTH * (1.0 + 1e-12),
                "q{q}: estimate {est} not within one bucket of exact {exact}"
            );
        }
    }

    #[test]
    fn digest_is_order_independent() {
        let samples = [3e-3, 1e-4, 7.0, 2e-2, 1e-4, 0.5];
        let mut a = QuantileDigest::new();
        let mut b = QuantileDigest::new();
        for &s in &samples {
            a.add(s);
        }
        for &s in samples.iter().rev() {
            b.add(s);
        }
        for q in [25.0, 50.0, 75.0, 99.0] {
            assert_eq!(a.quantile(q), b.quantile(q));
        }
    }

    #[test]
    fn digest_clamps_hostile_samples_without_panicking() {
        let mut d = QuantileDigest::new();
        for s in [0.0, -1.0, f64::NAN, f64::NEG_INFINITY, 1e-30] {
            d.add(s);
        }
        d.add(f64::INFINITY);
        d.add(1e9); // beyond the last bucket
        assert_eq!(d.count(), 7);
        assert!(d.quantile(50.0).is_finite());
        assert!(d.quantile(100.0).is_finite());
    }

    #[test]
    fn recorder_off_records_nothing_and_reads_zero() {
        let mut r = FlightRecorder::off();
        assert!(!r.enabled() && !r.wants_ticks() && !r.wants_spans() && !r.wants_full());
        r.on_dispatch(1.0, 0, "w", 0, 0.5);
        r.on_drop(1.0, 1, "no-board-up");
        r.on_churn(2.0, 0, false);
        r.on_chaos(2.0, "throttle start", "clause", 0);
        r.on_preempt_scan(3.0, 2);
        r.on_complete(&done(0, 0, "w", 2.0, 0.5, 1.0));
        r.on_window_close(1.0, 3.0);
        assert!(r.stopwatch().is_none());
        r.lap_advance(None);
        assert!(r.events().is_empty());
        assert!(r.windows().is_empty());
        assert_eq!(r.advance_windows(), 0);
        assert_eq!(r.wall().total_s, 0.0);
        assert_eq!(r.wall().control_s(), 0.0);
    }

    /// A completed job finishing at `finish_s` after `latency_s` of
    /// end-to-end latency against an SLO of `slo_s`.
    fn done(
        id: u32,
        board: usize,
        workload: &'static str,
        finish_s: f64,
        latency_s: f64,
        slo_s: f64,
    ) -> JobOutcome {
        JobOutcome {
            id,
            workload,
            class: crate::job::JobClass::Mixed,
            board,
            arrival_s: finish_s - latency_s,
            start_s: finish_s - latency_s,
            finish_s,
            service_s: latency_s,
            energy_j: 0.0,
            slo_s,
            migrations: 0,
        }
    }

    /// Fold `done` as one advance window `[from_s, to_s)`, the way the
    /// kernel does: one hook per completion, then the window close.
    fn fold_window(r: &mut FlightRecorder, from_s: f64, to_s: f64, done: &[JobOutcome]) {
        for o in done {
            r.on_complete(o);
        }
        r.on_window_close(from_s, to_s);
    }

    #[test]
    fn levels_gate_the_event_volume() {
        let recs = [done(7, 1, "w", 2.0, 0.5, 1.0)];
        let mut ticks = FlightRecorder::new(TraceLevel::Ticks);
        fold_window(&mut ticks, 1.0, 3.0, &recs);
        ticks.on_dispatch(1.0, 7, "w", 1, 0.4);
        assert!(ticks.events().is_empty(), "ticks level emits no events");
        assert_eq!(ticks.advance_windows(), 1, "ticks level counts windows");

        let mut spans = FlightRecorder::new(TraceLevel::Spans);
        fold_window(&mut spans, 1.0, 3.0, &recs);
        spans.on_dispatch(1.0, 7, "w", 1, 0.4);
        assert_eq!(spans.events().len(), 1, "advance span only");

        let mut full = FlightRecorder::new(TraceLevel::Full);
        fold_window(&mut full, 1.0, 3.0, &recs);
        full.on_dispatch(3.0, 8, "w", 1, 0.4);
        assert_eq!(full.events().len(), 3, "advance + completion + dispatch");
        assert!(full.timestamps_monotone());
    }

    /// The `advance` span leads its window's completions, carries the
    /// window's count and extent (ending at the last completion on the
    /// final drain), and an empty window leaves no trace at all.
    #[test]
    fn window_span_leads_its_completions() {
        let mut r = FlightRecorder::new(TraceLevel::Full);
        r.on_window_close(0.0, 1.0);
        assert!(r.events().is_empty() && r.advance_windows() == 0);
        fold_window(
            &mut r,
            1.0,
            3.0,
            &[
                done(1, 0, "w", 1.5, 0.5, 1.0),
                done(2, 1, "w", 2.5, 0.5, 1.0),
            ],
        );
        fold_window(
            &mut r,
            3.0,
            f64::INFINITY,
            &[done(3, 0, "w", 4.0, 0.5, 1.0)],
        );
        let kinds: Vec<(&str, f64, f64)> = r
            .events()
            .iter()
            .map(|e| (e.cat, e.ts_us, e.dur_us))
            .collect();
        assert_eq!(
            kinds,
            [
                ("shard", 1e6, 2e6),
                ("completion", 1.5e6, 0.0),
                ("completion", 2.5e6, 0.0),
                ("shard", 3e6, 1e6),
                ("completion", 4e6, 0.0),
            ]
        );
        assert_eq!(r.events()[0].args, "\"completions\":2");
        assert_eq!(r.events()[3].args, "\"completions\":1");
        assert_eq!(r.advance_windows(), 2);
    }

    #[test]
    fn recorder_streams_slo_misses_and_renders_valid_json() {
        let mut r = FlightRecorder::new(TraceLevel::Full);
        // The tick gauges read the kernel's completion sink, fed the
        // same completions the recorder sees.
        let merge = [
            done(0, 0, "swap\"tions", 0.0, 0.5, 1.0), // exercises escaping
            done(1, 0, "swap\"tions", 1.0, 2.0, 1.0),
        ];
        let mut agg = crate::metrics::StreamAgg::default();
        for o in &merge {
            agg.add(o);
        }
        fold_window(&mut r, 0.0, 1.5, &merge);
        let [p50_s, p95_s, p99_s] = agg.latency_quantiles();
        r.on_tick(WindowSample {
            t_s: 2.0,
            completions: agg.jobs,
            p50_s,
            p95_s,
            p99_s,
            slo_miss_rate: agg.slo_miss_rate(),
            mean_util: 0.5,
            queue_depth: 3,
            backlog_s: 0.25,
            boards_up: 2,
            boards_placeable: 2,
            throttled: 0,
            blacked_out: 0,
            feedback_mean_abs_rel_err: 0.0,
            feedback_samples: 0,
            feedback_mean_correction: 1.0,
        });
        assert_eq!(r.windows().len(), 1);
        assert_eq!(r.windows()[0].completions, 2);
        assert!((r.windows()[0].slo_miss_rate - 0.5).abs() < 1e-12);
        assert_eq!(r.advance_windows(), 1);
        assert!(r.timestamps_monotone());
        let json = r.render_chrome_trace();
        validate_json(&json).expect("emitted trace must be well-formed JSON");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("swap\\\"tions"));
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-12.5e-3",
            "\"a\\u00e9\\n\"",
            "{\"a\":[1,2,{\"b\":true}],\"c\":null}",
            "  [ 1 , 2 ]  ",
        ] {
            assert!(validate_json(ok).is_ok(), "{ok} should validate");
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{'a':1}",
            "nulle",
            "1 2",
            "\"unterminated",
            "[1] trailing",
            "-",
            "1.",
            "1e",
            "\"bad\\q\"",
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
