//! Fleet-level metrics: throughput, latency percentiles vs SLO,
//! cluster-wide energy, per-board utilisation, and observed-service
//! mispredict accounting.

use crate::cache::CacheStats;
use crate::feedback::FeedbackStats;
use crate::job::JobOutcome;
use crate::state::DroppedJob;
use crate::telemetry::QuantileDigest;

/// Nearest-rank percentile of an ascending-sorted slice (`q` in 0..100).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(sorted.len(), q)]
}

/// Index of the nearest-rank `q`-th percentile among `len > 0` sorted
/// values.
fn nearest_rank(len: usize, q: f64) -> usize {
    let rank = ((q / 100.0) * len as f64).ceil() as usize;
    rank.clamp(1, len) - 1
}

/// Aggregated fleet statistics for one scenario.
#[derive(Clone, Debug)]
pub struct FleetMetrics {
    /// Jobs completed.
    pub jobs: usize,
    /// Last completion time, seconds.
    pub makespan_s: f64,
    /// Jobs per second of makespan.
    pub throughput_jps: f64,
    /// Mean end-to-end latency, seconds.
    pub mean_latency_s: f64,
    /// Median latency.
    pub p50_s: f64,
    /// 95th-percentile latency.
    pub p95_s: f64,
    /// 99th-percentile latency.
    pub p99_s: f64,
    /// Jobs that missed their SLO.
    pub slo_misses: usize,
    /// 99th percentile of per-job latency *as a fraction of its SLO* —
    /// the "p99 vs SLO" headline: `< 1` means even the tail meets its
    /// deadline, `2` means the p99 job blew its budget twice over.
    pub p99_slo_ratio: f64,
    /// Energy of all job runs plus any training charged, Joules.
    pub total_energy_j: f64,
    /// Per-board busy fraction of the makespan.
    pub board_util: Vec<f64>,
    /// Observed-service feedback accounting (all-zero when the
    /// scenario ran without the feedback layer): samples folded,
    /// rejected observations, mispredicts and mean prediction error.
    pub feedback: FeedbackStats,
}

impl FleetMetrics {
    /// Aggregate outcomes plus per-board busy seconds.
    /// `extra_energy_j` covers energy spent outside job runs (training).
    ///
    /// One pass folds makespan, SLO misses and the energy sum and
    /// gathers the latency and SLO-ratio vectors; the latencies are
    /// then sorted in place and the p99 ratio selected. Every field
    /// but the energy sum is independent of slice order. The energy
    /// sum is a left fold in slice order, so its bits depend on it:
    /// the kernel passes its outcomes in id order.
    pub fn from_outcomes(
        outcomes: &[JobOutcome],
        board_busy_s: impl IntoIterator<Item = f64>,
        extra_energy_j: f64,
    ) -> Self {
        let n = outcomes.len();
        let mut latencies = Vec::with_capacity(n);
        let mut slo_ratios = Vec::with_capacity(n);
        let mut makespan_s: f64 = 0.0;
        // `-0.0` is the start `Sum for f64` folds from, so the bits
        // match `.sum()` even for an all-`-0.0` slice.
        let mut energy_j = -0.0;
        let mut slo_misses = 0;
        for o in outcomes {
            makespan_s = makespan_s.max(o.finish_s);
            energy_j += o.energy_j;
            slo_misses += usize::from(!o.slo_met());
            latencies.push(o.latency_s());
            slo_ratios.push(slo_ratio(o));
        }
        // Values that tie under `total_cmp` share their bits, so the
        // unstable sort yields the stable sort's vector exactly.
        latencies.sort_unstable_by(f64::total_cmp);
        let p99_slo_ratio = if n == 0 {
            0.0
        } else {
            *slo_ratios
                .select_nth_unstable_by(nearest_rank(n, 99.0), f64::total_cmp)
                .1
        };
        FleetMetrics::assemble(
            n,
            makespan_s,
            latencies.iter().sum::<f64>(),
            energy_j + extra_energy_j,
            [50.0, 95.0, 99.0].map(|q| percentile(&latencies, q)),
            slo_misses,
            p99_slo_ratio,
            board_busy_s,
        )
    }

    /// The one place a [`FleetMetrics`] is built, for retained outcomes
    /// and the streaming aggregate alike.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        jobs: usize,
        makespan_s: f64,
        sum_latency_s: f64,
        total_energy_j: f64,
        [p50_s, p95_s, p99_s]: [f64; 3],
        slo_misses: usize,
        p99_slo_ratio: f64,
        board_busy_s: impl IntoIterator<Item = f64>,
    ) -> Self {
        FleetMetrics {
            jobs,
            makespan_s,
            throughput_jps: if makespan_s > 0.0 {
                jobs as f64 / makespan_s
            } else {
                0.0
            },
            mean_latency_s: if jobs == 0 {
                0.0
            } else {
                sum_latency_s / jobs as f64
            },
            p50_s,
            p95_s,
            p99_s,
            slo_misses,
            p99_slo_ratio,
            total_energy_j,
            feedback: FeedbackStats::default(),
            board_util: board_busy_s
                .into_iter()
                .map(|b| {
                    if makespan_s > 0.0 {
                        b / makespan_s
                    } else {
                        0.0
                    }
                })
                .collect(),
        }
    }

    /// SLO miss rate in [0, 1].
    pub fn slo_miss_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.slo_misses as f64 / self.jobs as f64
        }
    }

    /// Mean board utilisation.
    pub fn mean_util(&self) -> f64 {
        if self.board_util.is_empty() {
            0.0
        } else {
            self.board_util.iter().sum::<f64>() / self.board_util.len() as f64
        }
    }
}

/// Samples the sliding latency window holds: the resident kernel's
/// "recent tail" gauges (window p50/p95/p99) are nearest-rank
/// percentiles over the last this-many completions.
pub const STREAM_WINDOW: usize = 4096;

/// Latency as a fraction of the job's SLO. A non-positive SLO can never
/// be met, so it scores as the worst ratio (`INFINITY`): the retained
/// percentile ranks it last and the digest clamps it into its top
/// bucket.
fn slo_ratio(o: &JobOutcome) -> f64 {
    if o.slo_s > 0.0 {
        o.latency_s() / o.slo_s
    } else {
        f64::INFINITY
    }
}

/// The kernel's one completion sink: everything [`FleetMetrics`]
/// needs, folded one [`JobOutcome`] at a time in (finish time, id)
/// order as completions pop, in every run. A streaming run holds
/// only this O(1) state; a retained run keeps its outcome vector as
/// well, and the flight recorder's tick gauges read from here.
///
/// Counters and sums are exact (the fold order is pinned by the
/// simulation, so they survive a checkpoint restore bit-identically); percentiles come
/// from the fixed-size [`QuantileDigest`]s, within one digest bucket
/// of the retained-outcome nearest-rank values.
#[derive(Clone, Default)]
pub(crate) struct StreamAgg {
    /// Outcomes folded.
    pub jobs: u64,
    /// Sum of end-to-end latencies, seconds.
    pub sum_latency_s: f64,
    /// Sum of per-job energies, Joules.
    pub sum_energy_j: f64,
    /// Latest completion time seen, seconds.
    pub makespan_s: f64,
    /// Outcomes that missed their SLO.
    pub slo_misses: u64,
    /// Latency digest (p50/p95/p99 estimates).
    pub latency: QuantileDigest,
    /// Latency-to-SLO ratio digest (p99 vs SLO estimate).
    pub slo_ratio: QuantileDigest,
    /// Ring of the last [`STREAM_WINDOW`] latencies.
    pub window: Vec<f64>,
    /// Next ring slot to overwrite once the ring is full.
    pub window_next: usize,
}

impl StreamAgg {
    /// Fold one completed outcome in (callers feed outcomes in
    /// (finish time, id) order).
    pub fn add(&mut self, o: &JobOutcome) {
        let lat = o.latency_s();
        self.jobs += 1;
        self.sum_latency_s += lat;
        self.sum_energy_j += o.energy_j;
        self.makespan_s = self.makespan_s.max(o.finish_s);
        if !o.slo_met() {
            self.slo_misses += 1;
        }
        self.latency.add(lat);
        self.slo_ratio.add(slo_ratio(o));
        if self.window.len() < STREAM_WINDOW {
            self.window.push(lat);
        } else {
            self.window[self.window_next] = lat;
            self.window_next = (self.window_next + 1) % STREAM_WINDOW;
        }
    }

    /// Digest estimates of the whole-run latency p50, p95 and p99.
    pub fn latency_quantiles(&self) -> [f64; 3] {
        [50.0, 95.0, 99.0].map(|q| self.latency.quantile(q))
    }

    /// SLO misses over outcomes folded so far (0 when none).
    pub fn slo_miss_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.slo_misses as f64 / self.jobs as f64
        }
    }

    /// The aggregate as [`FleetMetrics`]: counters and sums exact,
    /// percentiles from the digests.
    pub fn metrics(
        &self,
        board_busy_s: impl IntoIterator<Item = f64>,
        extra_energy_j: f64,
    ) -> FleetMetrics {
        FleetMetrics::assemble(
            self.jobs as usize,
            self.makespan_s,
            self.sum_latency_s,
            self.sum_energy_j + extra_energy_j,
            self.latency_quantiles(),
            self.slo_misses as usize,
            self.slo_ratio.quantile(99.0),
            board_busy_s,
        )
    }

    /// Serialise the aggregate for a kernel checkpoint. The exhaustive
    /// destructuring makes a field added later but not encoded a
    /// compile error rather than a silent resume divergence.
    pub fn encode(&self, enc: &mut crate::checkpoint::Enc) {
        let StreamAgg {
            jobs,
            sum_latency_s,
            sum_energy_j,
            makespan_s,
            slo_misses,
            latency,
            slo_ratio,
            window,
            window_next,
        } = self;
        enc.u64(*jobs);
        enc.f64(*sum_latency_s);
        enc.f64(*sum_energy_j);
        enc.f64(*makespan_s);
        enc.u64(*slo_misses);
        latency.encode(enc);
        slo_ratio.encode(enc);
        enc.usize(window.len());
        for &lat in window {
            enc.f64(lat);
        }
        enc.usize(*window_next);
    }

    /// Decode an aggregate serialised by [`StreamAgg::encode`].
    pub fn decode(
        dec: &mut crate::checkpoint::Dec<'_>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        use crate::checkpoint::CheckpointError;
        // Struct-literal fields evaluate in source order: wire order.
        let mut agg = StreamAgg {
            jobs: dec.u64()?,
            sum_latency_s: dec.f64()?,
            sum_energy_j: dec.f64()?,
            makespan_s: dec.f64()?,
            slo_misses: dec.u64()?,
            latency: QuantileDigest::decode(dec)?,
            slo_ratio: QuantileDigest::decode(dec)?,
            window: Vec::new(),
            window_next: 0,
        };
        let n = dec.count(8)?;
        if n > STREAM_WINDOW {
            return Err(CheckpointError::Corrupt(
                "latency window longer than STREAM_WINDOW",
            ));
        }
        agg.window = (0..n).map(|_| dec.f64()).collect::<Result<_, _>>()?;
        agg.window_next = dec.usize()?;
        if agg.window_next >= STREAM_WINDOW {
            return Err(CheckpointError::Corrupt(
                "latency window cursor out of range",
            ));
        }
        Ok(agg)
    }

    /// The public summary carried in [`FleetOutcome::stream`].
    pub fn summary(&self) -> StreamSummary {
        let mut w = self.window.clone();
        w.sort_by(f64::total_cmp);
        let [digest_p50_s, digest_p95_s, digest_p99_s] = self.latency_quantiles();
        StreamSummary {
            jobs: self.jobs,
            window_len: w.len(),
            window_p50_s: percentile(&w, 50.0),
            window_p95_s: percentile(&w, 95.0),
            window_p99_s: percentile(&w, 99.0),
            digest_p50_s,
            digest_p95_s,
            digest_p99_s,
        }
    }
}

/// What the resident kernel's streaming aggregation reports beyond
/// [`FleetMetrics`]: the sliding-window ("recent tail") percentiles a
/// long-horizon run watches, plus the digest estimates they complement.
/// Every run reports one, retained or streamed: both fold the same
/// completions in the same order, so the two summaries are identical.
#[derive(Clone, Debug)]
pub struct StreamSummary {
    /// Outcomes folded into the streaming aggregate.
    pub jobs: u64,
    /// Completions currently in the sliding window (≤ [`STREAM_WINDOW`]).
    pub window_len: usize,
    /// Median latency over the window, seconds.
    pub window_p50_s: f64,
    /// 95th-percentile latency over the window, seconds.
    pub window_p95_s: f64,
    /// 99th-percentile latency over the window, seconds.
    pub window_p99_s: f64,
    /// Whole-run median latency from the digest, seconds.
    pub digest_p50_s: f64,
    /// Whole-run 95th-percentile latency from the digest, seconds.
    pub digest_p95_s: f64,
    /// Whole-run 99th-percentile latency from the digest, seconds.
    pub digest_p99_s: f64,
}

/// Everything one scenario produces.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// The aggregate metrics.
    pub metrics: FleetMetrics,
    /// Per-job records, in stream (id) order.
    pub outcomes: Vec<JobOutcome>,
    /// Policy-cache accounting at the end of the run.
    pub cache: CacheStats,
    /// Jobs whose cached schedule was rejected by the admission latency
    /// guard (they ran their stock binary instead).
    pub guard_bypasses: u64,
    /// Wall time spent in asynchronous (re)training, seconds (off the
    /// serving path, so not part of any job's latency).
    pub train_time_s: f64,
    /// Energy spent in (re)training, Joules (already in `metrics`).
    pub train_energy_j: f64,
    /// Label of the execution backend that served profile and job runs
    /// (`"machine"` or `"replay"`).
    pub backend: &'static str,
    /// Trace-calibration sweeps the replay backend performed (0 under
    /// the machine backend).
    pub calibrations: u64,
    /// Dispatch mode label (`"oracle"` or `"online"`).
    pub dispatch: &'static str,
    /// Jobs the kernel dropped instead of completing, ascending by
    /// stream id, each tagged with its
    /// [`DropReason`](crate::state::DropReason) (no board up vs
    /// redispatch cap). Dropped jobs have no [`JobOutcome`].
    pub dropped: Vec<DroppedJob>,
    /// Event-kernel accounting for the run (including the execution
    /// plane's messages and advances).
    pub kernel: crate::kernel::KernelStats,
    /// Per-chaos-clause accounting (empty when the scenario carries no
    /// [`ChaosSchedule`](crate::chaos::ChaosSchedule)).
    pub chaos: crate::chaos::ChaosStats,
    /// Summary of the kernel's streaming aggregate: sliding-window and
    /// whole-run digest percentiles (every run folds one, retained or
    /// not).
    pub stream: StreamSummary,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobClass;

    fn outcome(id: u32, arrival: f64, start: f64, finish: f64, energy: f64) -> JobOutcome {
        JobOutcome {
            id,
            workload: "w",
            class: JobClass::Mixed,
            board: 0,
            arrival_s: arrival,
            start_s: start,
            finish_s: finish,
            service_s: finish - start,
            energy_j: energy,
            slo_s: 1.5,
            migrations: 0,
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 95.0), 10.0);
        assert_eq!(percentile(&xs, 99.0), 10.0);
        assert_eq!(percentile(&xs, 10.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn aggregation_counts_and_energy() {
        let outs = vec![
            outcome(0, 0.0, 0.0, 1.0, 2.0), // latency 1.0, meets 1.5 SLO
            outcome(1, 0.5, 1.0, 2.5, 3.0), // latency 2.0, misses
        ];
        let m = FleetMetrics::from_outcomes(&outs, [1.0, 1.5], 0.5);
        assert_eq!(m.jobs, 2);
        assert_eq!(m.makespan_s, 2.5);
        assert_eq!(m.slo_misses, 1);
        assert!((m.slo_miss_rate() - 0.5).abs() < 1e-12);
        assert!((m.total_energy_j - 5.5).abs() < 1e-12);
        assert!((m.mean_latency_s - 1.5).abs() < 1e-12);
        assert!((m.board_util[0] - 0.4).abs() < 1e-12);
        assert!((m.mean_util() - 0.5).abs() < 1e-12);
        assert!((m.throughput_jps - 0.8).abs() < 1e-12);
        // p99 of {1.0/1.5, 2.0/1.5}: nearest-rank lands on the worst.
        assert!((m.p99_slo_ratio - 2.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn non_positive_slo_sorts_as_worst_ratio_not_best() {
        let mut bad = outcome(0, 0.0, 0.0, 1.0, 1.0);
        bad.slo_s = 0.0; // impossible deadline
        let good = outcome(1, 0.0, 0.0, 1.0, 1.0); // ratio 1.0/1.5
        let m = FleetMetrics::from_outcomes(&[bad, good], [1.0], 0.0);
        assert!(
            m.p99_slo_ratio.is_infinite(),
            "an impossible deadline must dominate the p99 ratio, got {}",
            m.p99_slo_ratio
        );
        // And it still counts as a miss in the rate.
        assert_eq!(m.slo_misses, 1);
    }
}
