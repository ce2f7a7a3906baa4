//! Observed-service feedback: closing the loop between what the
//! dispatchers *predict* a job will cost and what the kernel actually
//! *observed* it cost.
//!
//! The source paper's central argument is that placement quality
//! depends on observed rather than assumed behaviour. The fleet's
//! dispatchers, however, priced every decision off cold profiled
//! estimates — three calibration runs per (workload, architecture,
//! policy version), taken before the stream started, never corrected
//! again. After the kernel has watched thousands of completions it
//! knows better: per-seed service jitter, schedule drift after
//! refreshes, and systematic profile bias are all visible in the
//! completion stream.
//!
//! [`ServiceFeedback`] is the correction layer. Every `Completion`
//! event reports `(taxon, architecture, profiled estimate, observed
//! service)`; the layer maintains an exponentially weighted moving
//! average of the *observed/profiled ratio* per (taxon, architecture)
//! pair. Dispatch-time estimates are multiplied by the current ratio,
//! so the phase-aware and energy-aware dispatchers (and the preemptive
//! redispatch scan) consult what the fleet has actually seen. The
//! ratio is clamped to a sane band and every update is validated, so
//! the correction can never be negative, zero, NaN or infinite —
//! whatever garbage a backend reports.
//!
//! Updates are applied as completions pop, in `(finish_s, id)` order
//! (see [`crate::shard`]), so the learned state — and every placement
//! downstream of it — depends on the simulation alone.

use crate::job::Taxon;
use crate::lines::{ArchId, LineId, LineKeys};

/// Tightest correction the layer will ever apply (an observed service
/// 8x *shorter* than profiled saturates here).
pub const MIN_RATIO: f64 = 0.125;
/// Loosest correction the layer will ever apply (an observed service
/// 8x *longer* than profiled saturates here).
pub const MAX_RATIO: f64 = 8.0;
/// Relative error above which a completion counts as a mispredict.
pub const MISPREDICT_BAND: f64 = 0.25;

/// Accounting for the feedback layer, surfaced in
/// [`FleetMetrics`](crate::metrics::FleetMetrics).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FeedbackStats {
    /// Completions whose observation was accepted into the EWMA.
    pub samples: u64,
    /// Observations rejected by validation (non-finite or non-positive
    /// observed/profiled values).
    pub rejected: u64,
    /// Completions whose *corrected* prediction missed the observed
    /// service by more than [`MISPREDICT_BAND`] relative error.
    pub mispredicts: u64,
    /// Sum of relative errors of corrected predictions (numerator of
    /// [`FeedbackStats::mean_abs_rel_err`]).
    pub sum_abs_rel_err: f64,
}

impl FeedbackStats {
    /// Mean |observed - predicted| / predicted over accepted samples.
    pub fn mean_abs_rel_err(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum_abs_rel_err / self.samples as f64
        }
    }

    /// Fraction of accepted samples that were mispredicts.
    pub fn mispredict_rate(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.samples as f64
        }
    }
}

/// One (taxon, architecture) cell of the correction layer.
#[derive(Clone, Copy, Debug)]
struct Cell {
    /// EWMA of observed/profiled, clamped to `[MIN_RATIO, MAX_RATIO]`.
    ratio: f64,
    /// Observations folded into `ratio`.
    samples: u64,
}

/// Per-(taxon, architecture) EWMA correction of profiled service
/// estimates, learned online from completion events. See the module
/// docs for the protocol. Cells live in a dense table addressed by
/// `LineId`, like the policy cache's lines.
#[derive(Clone, Debug)]
pub struct ServiceFeedback {
    /// EWMA weight of the newest observation, in (0, 1].
    alpha: f64,
    keys: LineKeys,
    /// Learned cells, indexed by `LineId`.
    cells: Vec<Option<Cell>>,
    /// Learned cells in `cells`.
    learned: usize,
    /// Running accounting (copied into the run's metrics at exit).
    pub stats: FeedbackStats,
}

impl ServiceFeedback {
    /// The fleet default: new observations carry 10% weight — heavy
    /// enough to track refresh-induced drift within tens of
    /// completions, light enough that per-seed jitter averages out.
    pub const DEFAULT_ALPHA: f64 = 0.1;

    /// A fresh layer with the given EWMA weight. Panics unless
    /// `0 < alpha <= 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA weight must be in (0, 1], got {alpha}"
        );
        ServiceFeedback {
            alpha,
            keys: LineKeys::default(),
            cells: Vec::new(),
            learned: 0,
            stats: FeedbackStats::default(),
        }
    }

    /// Intern `arch`, so cells on it can be addressed by
    /// `LineId::new`.
    pub(crate) fn intern_arch(&mut self, arch: &'static str) -> ArchId {
        let a = self.keys.intern(arch);
        self.cells.resize(self.keys.lines(), None);
        a
    }

    /// The multiplicative correction for `(taxon, arch)`: the current
    /// observed/profiled EWMA, or `1.0` before any observation.
    /// Always finite and within `[MIN_RATIO, MAX_RATIO]`.
    pub fn correction(&self, taxon: Taxon, arch: &'static str) -> f64 {
        self.keys
            .line(taxon, arch)
            .map_or(1.0, |id| self.correction_at(id))
    }

    /// [`ServiceFeedback::correction`] by line id.
    #[inline]
    pub(crate) fn correction_at(&self, id: LineId) -> f64 {
        self.cells[id.at()].map_or(1.0, |c| c.ratio)
    }

    /// Fold one completion into the layer: `profiled_s` is the
    /// uncorrected profiled estimate the job was admitted with,
    /// `observed_s` the service time the kernel actually measured
    /// (excluding migration penalties). Invalid observations
    /// (non-finite or non-positive on either side) are rejected and
    /// counted, never folded.
    pub fn observe(&mut self, taxon: Taxon, arch: &'static str, profiled_s: f64, observed_s: f64) {
        let id = LineId::new(taxon, self.intern_arch(arch));
        self.observe_at(id, profiled_s, observed_s);
    }

    /// [`ServiceFeedback::observe`] by line id.
    pub(crate) fn observe_at(&mut self, id: LineId, profiled_s: f64, observed_s: f64) {
        if !(profiled_s.is_finite()
            && observed_s.is_finite()
            && profiled_s > 0.0
            && observed_s > 0.0)
        {
            self.stats.rejected += 1;
            return;
        }
        // Mispredict accounting runs against the *corrected* prediction
        // in force when the job completes — it measures how wrong the
        // dispatchers still are with feedback applied.
        let corrected = profiled_s * self.correction_at(id);
        let rel_err = (observed_s - corrected).abs() / corrected;
        self.stats.samples += 1;
        self.stats.sum_abs_rel_err += rel_err;
        if rel_err > MISPREDICT_BAND {
            self.stats.mispredicts += 1;
        }

        let obs_ratio = (observed_s / profiled_s).clamp(MIN_RATIO, MAX_RATIO);
        let cell = self.cells[id.at()].get_or_insert_with(|| {
            self.learned += 1;
            Cell {
                ratio: 1.0,
                samples: 0,
            }
        });
        cell.ratio =
            ((1.0 - self.alpha) * cell.ratio + self.alpha * obs_ratio).clamp(MIN_RATIO, MAX_RATIO);
        cell.samples += 1;
    }

    /// Distinct (taxon, architecture) cells learned so far.
    pub fn len(&self) -> usize {
        self.learned
    }

    /// Has the layer learned nothing yet?
    pub fn is_empty(&self) -> bool {
        self.learned == 0
    }

    /// Every learned cell with its key, in `(Taxon, architecture name)`
    /// order.
    fn learned_cells(&self) -> impl Iterator<Item = (Taxon, &'static str, &Cell)> {
        self.keys
            .ordered()
            .filter_map(|(id, taxon, arch)| Some((taxon, arch, self.cells[id.at()].as_ref()?)))
    }

    /// Mean EWMA correction ratio over the learned cells (1.0 when
    /// nothing has been learned) — the flight recorder samples this at
    /// monitor ticks as a convergence gauge: it drifts away from 1.0
    /// while the layer is absorbing a bias and settles once learned.
    pub fn mean_correction(&self) -> f64 {
        if self.is_empty() {
            return 1.0;
        }
        self.learned_cells().map(|(_, _, c)| c.ratio).sum::<f64>() / self.learned as f64
    }
}

impl ServiceFeedback {
    /// Serialise the layer for a kernel checkpoint: the EWMA weight,
    /// accounting, and every learned cell in `(Taxon, architecture
    /// name)` order.
    pub(crate) fn encode(&self, enc: &mut crate::checkpoint::Enc) {
        enc.f64(self.alpha);
        enc.u64(self.stats.samples);
        enc.u64(self.stats.rejected);
        enc.u64(self.stats.mispredicts);
        enc.f64(self.stats.sum_abs_rel_err);
        enc.usize(self.learned);
        for (taxon, arch, cell) in self.learned_cells() {
            crate::checkpoint::enc_taxon(enc, taxon);
            enc.str(arch);
            enc.f64(cell.ratio);
            enc.u64(cell.samples);
        }
    }

    /// Decode a layer serialised by [`ServiceFeedback::encode`].
    /// Architecture keys are re-interned against the resuming cluster's
    /// `arch_keys`.
    pub(crate) fn decode(
        dec: &mut crate::checkpoint::Dec<'_>,
        arch_keys: &[&'static str],
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        use crate::checkpoint::CheckpointError;
        let alpha = dec.f64()?;
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(CheckpointError::Corrupt(
                "feedback EWMA weight outside (0, 1]",
            ));
        }
        let stats = FeedbackStats {
            samples: dec.u64()?,
            rejected: dec.u64()?,
            mispredicts: dec.u64()?,
            sum_abs_rel_err: dec.f64()?,
        };
        let n = dec.count(8)?;
        let mut fb = ServiceFeedback::new(alpha);
        fb.stats = stats;
        for _ in 0..n {
            let taxon = crate::checkpoint::dec_taxon(dec)?;
            let arch = dec.str()?;
            let arch = crate::checkpoint::resolve_arch(arch_keys, &arch)?;
            let id = LineId::new(taxon, fb.intern_arch(arch));
            let ratio = dec.f64()?;
            if !(ratio.is_finite() && (MIN_RATIO..=MAX_RATIO).contains(&ratio)) {
                return Err(CheckpointError::Corrupt(
                    "feedback ratio outside clamp band",
                ));
            }
            let samples = dec.u64()?;
            if fb.cells[id.at()].replace(Cell { ratio, samples }).is_some() {
                return Err(CheckpointError::Corrupt("duplicate feedback cell"));
            }
            fb.learned += 1;
        }
        Ok(fb)
    }
}

impl Default for ServiceFeedback {
    fn default() -> Self {
        ServiceFeedback::new(Self::DEFAULT_ALPHA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobClass;

    fn taxon() -> Taxon {
        Taxon {
            class: JobClass::CpuHeavy,
            signature: 4,
        }
    }

    #[test]
    fn unseen_pairs_are_identity() {
        let fb = ServiceFeedback::default();
        assert_eq!(fb.correction(taxon(), "odroid-xu4"), 1.0);
        assert!(fb.is_empty());
    }

    #[test]
    fn converges_toward_injected_observed_times() {
        let mut fb = ServiceFeedback::new(0.2);
        // The backend consistently observes 1.5x the profiled estimate.
        for _ in 0..200 {
            fb.observe(taxon(), "odroid-xu4", 2.0, 3.0);
        }
        let c = fb.correction(taxon(), "odroid-xu4");
        assert!(
            (c - 1.5).abs() < 1e-6,
            "EWMA should converge to 1.5, got {c}"
        );
        // A corrected estimate now predicts the observed time.
        assert!((2.0 * c - 3.0).abs() < 1e-5);
        // Early samples mispredict, converged samples do not: the rate
        // must be well below 1.
        assert!(fb.stats.mispredict_rate() < 0.2, "{:?}", fb.stats);
        assert_eq!(fb.stats.samples, 200);
        assert_eq!(fb.stats.rejected, 0);
    }

    #[test]
    fn tracks_drift_between_regimes() {
        let mut fb = ServiceFeedback::new(0.2);
        for _ in 0..100 {
            fb.observe(taxon(), "rk3399", 1.0, 2.0);
        }
        assert!((fb.correction(taxon(), "rk3399") - 2.0).abs() < 1e-6);
        // The workload's schedule is refreshed; observed drops to 0.5x.
        for _ in 0..100 {
            fb.observe(taxon(), "rk3399", 1.0, 0.5);
        }
        assert!((fb.correction(taxon(), "rk3399") - 0.5).abs() < 1e-6);
    }

    #[test]
    fn cells_are_independent_per_arch_and_taxon() {
        let mut fb = ServiceFeedback::default();
        let other = Taxon {
            class: JobClass::MemIo,
            signature: 9,
        };
        fb.observe(taxon(), "odroid-xu4", 1.0, 2.0);
        assert_ne!(fb.correction(taxon(), "odroid-xu4"), 1.0);
        assert_eq!(fb.correction(taxon(), "rk3399"), 1.0);
        assert_eq!(fb.correction(other, "odroid-xu4"), 1.0);
        assert_eq!(fb.len(), 1);
    }

    #[test]
    fn never_produces_negative_nan_or_infinite_corrections() {
        let mut fb = ServiceFeedback::new(1.0);
        let hostile = [
            (0.0, 1.0),
            (1.0, 0.0),
            (-1.0, 1.0),
            (1.0, -1.0),
            (f64::NAN, 1.0),
            (1.0, f64::NAN),
            (f64::INFINITY, 1.0),
            (1.0, f64::INFINITY),
            (f64::NEG_INFINITY, f64::NAN),
        ];
        for (p, o) in hostile {
            fb.observe(taxon(), "odroid-xu4", p, o);
        }
        assert_eq!(fb.stats.rejected, hostile.len() as u64);
        assert_eq!(fb.stats.samples, 0);
        assert_eq!(fb.correction(taxon(), "odroid-xu4"), 1.0);

        // Valid but extreme observations saturate at the clamp band.
        fb.observe(taxon(), "odroid-xu4", 1.0, 1e12);
        let c = fb.correction(taxon(), "odroid-xu4");
        assert!(c.is_finite() && c > 0.0 && c <= MAX_RATIO);
        fb.observe(taxon(), "odroid-xu4", 1e12, 1e-12);
        fb.observe(taxon(), "odroid-xu4", 1e12, 1e-12);
        let c = fb.correction(taxon(), "odroid-xu4");
        assert!(c.is_finite() && c >= MIN_RATIO, "clamped low, got {c}");
    }

    #[test]
    #[should_panic(expected = "EWMA weight")]
    fn zero_alpha_is_rejected() {
        ServiceFeedback::new(0.0);
    }

    #[test]
    fn stats_summaries() {
        let mut fb = ServiceFeedback::new(0.5);
        fb.observe(taxon(), "odroid-xu4", 1.0, 1.0); // exact
        fb.observe(taxon(), "odroid-xu4", 1.0, 10.0); // wild mispredict
        assert_eq!(fb.stats.samples, 2);
        assert_eq!(fb.stats.mispredicts, 1);
        assert!(fb.stats.mean_abs_rel_err() > 0.0);
        assert!((fb.stats.mispredict_rate() - 0.5).abs() < 1e-12);
    }
}
