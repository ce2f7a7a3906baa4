//! Admission/dispatch: which board gets the next job.
//!
//! Dispatchers are invoked by the event kernel *at arrival time* with
//! the live [`ClusterState`] — per-board liveness, queue depth, backlog
//! estimate (oracle accumulator or online observation, per
//! [`DispatchMode`](crate::state::DispatchMode)), in-flight taxa and
//! utilisation — plus this job's per-architecture-class profiled
//! estimates ([`JobEstimates`]). They never see the future of the
//! arrival stream, and they must place the job on a board that is
//! currently *placeable* — up and not blacked out by an active chaos
//! clause (see
//! [`ClusterState::placeable`]).
//!
//! Every decision made here is observable after the fact: when a
//! [`FlightRecorder`](crate::telemetry::FlightRecorder) rides along at
//! [`TraceLevel::Full`](crate::telemetry::TraceLevel), the kernel
//! records each placement (job, workload, chosen board, corrected
//! service estimate) as a control-plane span — dispatchers themselves
//! stay telemetry-free, so a policy can never behave differently just
//! because someone is watching.

use crate::index::DispatchIndex;
use crate::job::JobSpec;
use crate::state::ClusterState;

/// Estimates for the job being placed, one slot per architecture class:
/// board `b`'s values sit at index [`ClusterState::arch_class`]`(b)`.
/// Values are profiled per architecture, so the kernel fills them in
/// O(architectures) per admission; when the scenario enables
/// observed-service feedback
/// ([`Scenario::with_feedback`](crate::kernel::Scenario::with_feedback)),
/// service estimates already carry the learned per-(taxon,
/// architecture) correction, so every dispatcher prices decisions off
/// what the fleet has actually observed.
#[derive(Clone, Debug)]
pub struct JobEstimates {
    /// Estimated service time of *this* job per class, seconds.
    pub service_s: Vec<f64>,
    /// Estimated energy of *this* job per class, Joules.
    pub energy_j: Vec<f64>,
    /// Per class: does the policy cache hold a fresh entry for this
    /// job's taxon on the class's architecture?
    pub warm: Vec<bool>,
}

impl JobEstimates {
    /// An all-zero scratch sized for `n_arch` architecture classes. The
    /// kernel allocates one per run and refills it in place per
    /// arrival, so estimating costs no allocation however many jobs
    /// stream through.
    pub fn zeroed(n_arch: usize) -> Self {
        JobEstimates {
            service_s: vec![0.0; n_arch],
            energy_j: vec![0.0; n_arch],
            warm: vec![false; n_arch],
        }
    }

    /// Estimated service time of this job on board `b`, seconds.
    #[inline]
    pub fn service_on(&self, state: &ClusterState, b: usize) -> f64 {
        self.service_s[state.arch_class(b)]
    }

    /// Does the policy cache hold a fresh entry for this job on board
    /// `b`'s architecture?
    #[inline]
    pub fn warm_on(&self, state: &ClusterState, b: usize) -> bool {
        self.warm[state.arch_class(b)]
    }

    /// Estimated completion time of this job on board `b` given the
    /// state's backlog estimate.
    #[inline]
    pub fn est_finish_s(&self, state: &ClusterState, b: usize) -> f64 {
        state.now_s + state.backlog_s(b) + self.service_on(state, b)
    }
}

/// Placement policy over whole boards.
pub trait Dispatcher {
    /// Name for reports.
    fn name(&self) -> &'static str;

    /// Board index for `job`. Must be `< state.len()` and name a board
    /// that is placeable (the kernel asserts both).
    fn pick(&mut self, state: &ClusterState, job: &JobSpec, est: &JobEstimates) -> usize;
}

/// Smallest-key board among the placeable ones. Panics when no board is
/// placeable — the kernel drops jobs before consulting a dispatcher in
/// that case.
#[cfg(any(test, feature = "pick_crosscheck"))]
fn argmin_placeable(state: &ClusterState, key: impl Fn(usize) -> (f64, f64)) -> usize {
    state
        .placeable_boards()
        .min_by(|&a, &b| key(a).partial_cmp(&key(b)).expect("keys are finite"))
        .expect("at least one board is placeable")
}

/// Classic least-loaded: the live board whose backlog drains first,
/// blind to architecture and job class (queue length is all real
/// front-ends see).
#[derive(Clone, Copy, Debug, Default)]
pub struct LeastLoaded;

impl LeastLoaded {
    /// The reference linear scan the indexed pick must match.
    #[cfg(any(test, feature = "pick_crosscheck"))]
    fn pick_scan(&self, state: &ClusterState) -> usize {
        argmin_placeable(state, |b| (state.backlog_s(b), state.dispatched(b) as f64))
    }

    /// Indexed pick: the scan's effective key is `(backlog, dispatched,
    /// board)`, so the argmin is among (a) the zero-class champion —
    /// the `(dispatched, board)`-least among boards whose backlog is
    /// exactly zero, (b) the head equal-backlog group of the ordered
    /// class (backlog order is busy-until order, so the least backlog
    /// is the least over the per-architecture heads, and each class's
    /// boards at that backlog are a prefix of its order because
    /// `x ↦ (x - now).max(0)` is monotone), and (c) every stale board,
    /// walked exactly. Candidates are then compared with the exact scan
    /// key.
    fn pick_indexed(&self, state: &ClusterState, idx: &DispatchIndex) -> usize {
        let mut best: Option<(f64, f64, usize)> = None;
        let consider = |best: &mut Option<(f64, f64, usize)>, b: usize| {
            let key = (state.backlog_s(b), state.dispatched(b) as f64, b);
            if best.map(|k| key < k).unwrap_or(true) {
                *best = Some(key);
            }
        };
        if let Some(b) = idx.zero_min() {
            consider(&mut best, b);
        }
        let na = state.n_arch();
        let bl0 = (0..na)
            .filter_map(|a| idx.ordered_min_busy(a))
            .map(|busy| state.backlog_at(busy))
            .fold(f64::INFINITY, f64::min);
        for a in 0..na {
            idx.walk_ordered(a, |busy, b| {
                let hit = state.backlog_at(busy) == bl0;
                if hit {
                    consider(&mut best, b);
                }
                hit
            });
        }
        for b in idx.stale_iter() {
            consider(&mut best, b);
        }
        best.expect("at least one board is placeable").2
    }
}

impl Dispatcher for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn pick(&mut self, state: &ClusterState, _job: &JobSpec, _est: &JobEstimates) -> usize {
        let b = self.pick_indexed(state, state.dispatch_index());
        #[cfg(feature = "pick_crosscheck")]
        assert_eq!(
            b,
            self.pick_scan(state),
            "least-loaded indexed pick diverged from the reference scan"
        );
        b
    }
}

/// Energy-aware: among live boards whose backlog is within one service
/// time of the emptiest, take the one with the lowest predicted energy
/// for this job. Trades a bounded amount of queueing for Joules.
#[derive(Clone, Copy, Debug, Default)]
pub struct EnergyAware;

impl EnergyAware {
    /// Indexed pick. The scan's key over the feasible set (boards
    /// within `min_backlog + service` of the fleet-minimum backlog) is
    /// `(energy, now + backlog + service, board)`; estimates are per
    /// architecture class, so within a class the energy
    /// term is constant and the finish term is monotone in backlog —
    /// each class's winner is in the head equal-finish group of its
    /// ordered heap (or its lowest-indexed zero-class board, which is
    /// always feasible since its backlog is zero). The fleet-minimum
    /// backlog itself is an order-independent `f64::min` fold, so it
    /// is reconstructed exactly from the class heads and a walk over
    /// every stale board. Every stale board is then a candidate too;
    /// candidates compare with the exact scan key.
    fn pick_indexed(&self, state: &ClusterState, est: &JobEstimates, idx: &DispatchIndex) -> usize {
        let mut min_backlog = if idx.has_zero() { 0.0 } else { f64::INFINITY };
        for a in 0..state.n_arch() {
            if let Some(busy) = idx.ordered_min_busy(a) {
                min_backlog = min_backlog.min(state.backlog_at(busy));
            }
        }
        for b in idx.stale_iter() {
            min_backlog = min_backlog.min(state.backlog_s(b));
        }
        let mut best: Option<(f64, f64, usize)> = None;
        let consider = |best: &mut Option<(f64, f64, usize)>, b: usize| {
            let a = state.arch_class(b);
            let bl = state.backlog_s(b);
            if bl <= min_backlog + est.service_s[a] {
                let key = (est.energy_j[a], state.now_s + bl + est.service_s[a], b);
                if best.map(|k| key < k).unwrap_or(true) {
                    *best = Some(key);
                }
            }
        };
        for a in 0..state.n_arch() {
            let svc = est.service_s[a];
            if let Some(b) = idx.zero_min_arch(a) {
                consider(&mut best, b);
            }
            if let Some(busy0) = idx.ordered_min_busy(a) {
                let bl0 = state.backlog_at(busy0);
                // Backlog is non-decreasing along the class order:
                // when the head is infeasible, so is every later board.
                if bl0 <= min_backlog + svc {
                    let f0 = state.now_s + bl0 + svc;
                    idx.walk_ordered(a, |busy, b| {
                        let hit = state.now_s + state.backlog_at(busy) + svc == f0;
                        if hit {
                            consider(&mut best, b);
                        }
                        hit
                    });
                }
            }
        }
        for b in idx.stale_iter() {
            consider(&mut best, b);
        }
        best.expect("some board is up").2
    }

    /// The reference linear scan the indexed pick must match: the
    /// fleet-minimum backlog, then the argmin over the feasible set.
    #[cfg(any(test, feature = "pick_crosscheck"))]
    fn pick_scan(&self, state: &ClusterState, est: &JobEstimates) -> usize {
        let min_backlog = state
            .placeable_boards()
            .map(|b| state.backlog_s(b))
            .fold(f64::INFINITY, f64::min);
        // Never empty: the minimum-backlog placeable board qualifies.
        // The key ends in `b`, so keys are unique and this argmin picks
        // the same board the old sort-free min-by did.
        let mut best: Option<(f64, f64, usize)> = None;
        for b in state.placeable_boards() {
            let bl = state.backlog_s(b);
            let svc = est.service_on(state, b);
            if bl <= min_backlog + svc {
                let key = (est.energy_j[state.arch_class(b)], state.now_s + bl + svc, b);
                if best.map(|k| key < k).unwrap_or(true) {
                    best = Some(key);
                }
            }
        }
        best.expect("some board is up").2
    }
}

impl Dispatcher for EnergyAware {
    fn name(&self) -> &'static str {
        "energy-aware"
    }

    fn pick(&mut self, state: &ClusterState, _job: &JobSpec, est: &JobEstimates) -> usize {
        let b = self.pick_indexed(state, est, state.dispatch_index());
        #[cfg(feature = "pick_crosscheck")]
        assert_eq!(
            b,
            self.pick_scan(state, est),
            "energy-aware indexed pick diverged from the reference scan"
        );
        b
    }
}

/// Phase-aware: estimated-finish-greedy (backlog + this job's profiled
/// service on each board, so workload↔architecture affinity is priced
/// in), with the job's class steering ties — CPU-heavy jobs break
/// towards big-rich boards, synchronisation/IO-dominated jobs towards
/// LITTLE-rich ones — and warm policy-cache lines preferred within a
/// tie. The class preference never buys real queueing: any board whose
/// estimated finish is more than 2% of a service time behind the global
/// best is out.
///
/// Holds a reusable per-architecture-class scratch so a pick allocates
/// nothing. Construct with [`PhaseAware::default`].
#[derive(Clone, Debug, Default)]
pub struct PhaseAware {
    /// Per-architecture-class `(finish, board)` champions from the
    /// indexed pick's first pass, reused by its tie pass.
    champ: Vec<Option<(f64, usize)>>,
}

impl PhaseAware {
    fn prefers_big(job: &JobSpec) -> Option<bool> {
        use crate::job::JobClass::*;
        match job.class() {
            CpuHeavy => Some(true),
            MemIo | Synchronised => Some(false),
            Mixed => None,
        }
    }

    /// Indexed pick. Pass 1's effective key is `(finish, board)`;
    /// estimates are per architecture class, so within a class
    /// the finish is monotone in backlog and the class champion is in
    /// the head equal-finish group of its ordered heap (or its
    /// lowest-indexed zero-class board — zero backlogs tie on finish).
    /// Pass 2's key `(mismatch, cold, finish, board)` is constant per
    /// class in its first two terms, so each class's tie-band winner
    /// is its pass-1 champion when that champion makes the band — no
    /// other class member can. Stale boards stay out of the champions:
    /// both passes walk every stale board exactly, pass 1 folding its
    /// `(finish, board)` into the global best and pass 2 testing it
    /// against the tie band with the full key. All comparisons use the
    /// exact scan expressions.
    fn pick_indexed(
        &mut self,
        state: &ClusterState,
        job: &JobSpec,
        est: &JobEstimates,
        idx: &DispatchIndex,
    ) -> usize {
        let na = state.n_arch();
        if self.champ.len() != na {
            self.champ.resize(na, None);
        }
        let mut overall: Option<(f64, usize)> = None;
        for a in 0..na {
            let mut c: Option<(f64, usize)> = None;
            let consider = |c: &mut Option<(f64, usize)>, b: usize| {
                let key = (est.est_finish_s(state, b), b);
                if c.map(|k| key < k).unwrap_or(true) {
                    *c = Some(key);
                }
            };
            if let Some(b) = idx.zero_min_arch(a) {
                consider(&mut c, b);
            }
            if let Some(busy0) = idx.ordered_min_busy(a) {
                let svc = est.service_s[a];
                let f0 = state.now_s + state.backlog_at(busy0) + svc;
                idx.walk_ordered(a, |busy, b| {
                    let hit = state.now_s + state.backlog_at(busy) + svc == f0;
                    if hit {
                        consider(&mut c, b);
                    }
                    hit
                });
            }
            self.champ[a] = c;
            if let Some(k) = c {
                if overall.map(|o| k < o).unwrap_or(true) {
                    overall = Some(k);
                }
            }
        }
        for b in idx.stale_iter() {
            let k = (est.est_finish_s(state, b), b);
            if overall.map(|o| k < o).unwrap_or(true) {
                overall = Some(k);
            }
        }
        let (best_finish, overall_b) = overall.expect("at least one board is placeable");
        let tie_band = 0.02 * est.service_on(state, overall_b);
        let thresh = best_finish + tie_band;
        let prefers_big = Self::prefers_big(job);
        let full_key = |b: usize, f: f64| {
            let mismatch = match prefers_big {
                Some(big) => (state.spec.big_rich(b) != big) as u8 as f64,
                None => 0.0,
            };
            (mismatch, !est.warm_on(state, b) as u8 as f64, f, b as f64)
        };
        let mut best: Option<((f64, f64, f64, f64), usize)> = None;
        for a in 0..na {
            if let Some((f, b)) = self.champ[a] {
                if f <= thresh {
                    let key = full_key(b, f);
                    if best.map(|(k, _)| key < k).unwrap_or(true) {
                        best = Some((key, b));
                    }
                }
            }
        }
        for b in idx.stale_iter() {
            let f = est.est_finish_s(state, b);
            if f <= thresh {
                let key = full_key(b, f);
                if best.map(|(k, _)| key < k).unwrap_or(true) {
                    best = Some((key, b));
                }
            }
        }
        best.expect("tie set contains the global best").1
    }

    /// The reference two-pass scan the indexed pick must match.
    #[cfg(any(test, feature = "pick_crosscheck"))]
    fn pick_scan(&self, state: &ClusterState, job: &JobSpec, est: &JobEstimates) -> usize {
        // Pass 1: the global best finish. Strict `<` keeps the
        // lowest-indexed board on equal finishes, matching the old
        // (finish, b) lexicographic argmin.
        let mut overall = usize::MAX;
        let mut best_finish = f64::INFINITY;
        for b in state.placeable_boards() {
            let f = est.est_finish_s(state, b);
            if f < best_finish {
                best_finish = f;
                overall = b;
            }
        }
        assert!(overall != usize::MAX, "at least one board is placeable");
        let tie_band = 0.02 * est.service_on(state, overall);
        let prefers_big = Self::prefers_big(job);
        // Pass 2: argmin over the tie band. The key ends in `b`, so
        // keys are unique and this matches the old min-by exactly.
        let mut best: Option<((f64, f64, f64, f64), usize)> = None;
        for b in state.placeable_boards() {
            let f = est.est_finish_s(state, b);
            if f <= best_finish + tie_band {
                let mismatch = match prefers_big {
                    Some(big) => (state.spec.big_rich(b) != big) as u8 as f64,
                    None => 0.0,
                };
                let key = (mismatch, !est.warm_on(state, b) as u8 as f64, f, b as f64);
                if best.map(|(k, _)| key < k).unwrap_or(true) {
                    best = Some((key, b));
                }
            }
        }
        best.expect("tie set contains the global best").1
    }
}

impl Dispatcher for PhaseAware {
    fn name(&self) -> &'static str {
        "phase-aware"
    }

    fn pick(&mut self, state: &ClusterState, job: &JobSpec, est: &JobEstimates) -> usize {
        let b = self.pick_indexed(state, job, est, state.dispatch_index());
        #[cfg(feature = "pick_crosscheck")]
        assert_eq!(
            b,
            self.pick_scan(state, job, est),
            "phase-aware indexed pick diverged from the reference scan"
        );
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::job::JobClass;
    use crate::state::DispatchMode;

    fn job(class: JobClass) -> JobSpec {
        JobSpec {
            id: 0,
            workload: astro_workloads::by_name("swaptions").unwrap(),
            taxon: crate::job::Taxon {
                class,
                signature: 2,
            },
            arrival_s: 10.0,
            slo_tightness: 4.0,
            seed: 1,
        }
    }

    /// A queued job for the index churn/flood sweeps.
    fn qj_for_churn(svc: f64) -> crate::state::QueuedJob {
        crate::state::QueuedJob {
            job: job(JobClass::CpuHeavy),
            slot: 0,
            slo_s: 100.0,
            schedule: None,
            sched_arch: "",
            est_service_s: svc,
            profiled_s: svc,
            penalty_s: 0.0,
            migrations: 0,
            redispatches: 0,
        }
    }

    /// An in-flight entry started at `now` for the index churn/flood
    /// sweeps (pass a past `now` for an already-lapsed estimate).
    fn ifl_for_churn(now: f64, svc: f64) -> crate::state::InFlight {
        crate::state::InFlight {
            id: 0,
            taxon: crate::job::Taxon {
                class: JobClass::CpuHeavy,
                signature: 2,
            },
            start_s: now,
            est_finish_s: now + svc,
            profiled_s: svc,
            raw_service_s: svc,
            outcome: crate::job::JobOutcome {
                id: 0,
                workload: "swaptions",
                class: JobClass::CpuHeavy,
                board: 0,
                arrival_s: 0.0,
                start_s: now,
                finish_s: now + svc,
                service_s: svc,
                energy_j: 1.0,
                slo_s: 100.0,
                migrations: 0,
            },
        }
    }

    struct Fixture {
        cluster: ClusterSpec,
        busy: Vec<f64>,
        dispatched: Vec<usize>,
        down: Vec<usize>,
        blackout: Vec<usize>,
        est: JobEstimates,
    }

    /// XU4, RK3399 and TK1 boards in a repeating seven-board layout,
    /// built from the public `boards` field. First appearance numbers
    /// the classes RK3399 (0), TK1 (1), XU4 (2) — neither board parity
    /// nor constructor order — so a board→class mix-up reads the wrong
    /// estimate slot. TK1 and XU4 are both big-rich.
    fn three_arch(n: usize) -> ClusterSpec {
        use astro_hw::boards::BoardSpec;
        let layout: [fn() -> BoardSpec; 7] = [
            BoardSpec::rk3399,
            BoardSpec::rk3399,
            BoardSpec::jetson_tk1,
            BoardSpec::odroid_xu4,
            BoardSpec::jetson_tk1,
            BoardSpec::odroid_xu4,
            BoardSpec::odroid_xu4,
        ];
        ClusterSpec {
            boards: (0..n).map(|b| layout[b % layout.len()]()).collect(),
        }
    }

    impl Fixture {
        // Board 0: XU4 (big-rich), board 1: RK3399 (LITTLE-rich), ...
        fn new(n: usize) -> Self {
            Self::with_cluster(ClusterSpec::heterogeneous(n))
        }

        /// Idle boards, unit estimates on every architecture class.
        fn with_cluster(cluster: ClusterSpec) -> Self {
            let n = cluster.len();
            let k = cluster.arch_keys().len();
            Fixture {
                cluster,
                busy: vec![0.0; n],
                dispatched: vec![0; n],
                down: Vec::new(),
                blackout: Vec::new(),
                est: JobEstimates {
                    service_s: vec![1.0; k],
                    energy_j: vec![1.0; k],
                    warm: vec![false; k],
                },
            }
        }

        fn state(&self) -> ClusterState<'_> {
            let mut st = ClusterState::new(&self.cluster, DispatchMode::Oracle);
            st.now_s = 10.0;
            for b in 0..self.cluster.len() {
                st.boards[b].oracle_busy_until_s = self.busy[b];
                st.boards[b].dispatched = self.dispatched[b];
            }
            for &b in &self.down {
                st.set_up(b, false);
            }
            for &b in &self.blackout {
                st.add_blackout(b);
            }
            st.rebuild_dispatch_index();
            st
        }
    }

    #[test]
    fn least_loaded_tracks_backlog_only() {
        let mut f = Fixture::new(4);
        f.busy = vec![20.0, 14.0, 11.0, 30.0];
        assert_eq!(
            LeastLoaded.pick(&f.state(), &job(JobClass::CpuHeavy), &f.est),
            2
        );
        // Past-empty boards tie at zero backlog; dispatch count breaks it.
        f.busy = vec![1.0, 2.0, 3.0, 4.0];
        f.dispatched = vec![5, 3, 9, 9];
        assert_eq!(
            LeastLoaded.pick(&f.state(), &job(JobClass::MemIo), &f.est),
            1
        );
    }

    #[test]
    fn down_boards_are_never_picked() {
        let mut f = Fixture::new(4);
        f.busy = vec![0.0, 50.0, 50.0, 50.0];
        f.down = vec![0]; // the obviously best board is down
        for d in [
            &mut LeastLoaded as &mut dyn Dispatcher,
            &mut EnergyAware,
            &mut PhaseAware::default(),
        ] {
            let pick = d.pick(&f.state(), &job(JobClass::CpuHeavy), &f.est);
            assert_ne!(pick, 0, "{} picked a down board", d.name());
        }
    }

    #[test]
    fn blacked_out_boards_are_never_picked() {
        let mut f = Fixture::new(4);
        f.busy = vec![0.0, 50.0, 50.0, 50.0];
        f.blackout = vec![0]; // best board is up but unplaceable
        for d in [
            &mut LeastLoaded as &mut dyn Dispatcher,
            &mut EnergyAware,
            &mut PhaseAware::default(),
        ] {
            let pick = d.pick(&f.state(), &job(JobClass::CpuHeavy), &f.est);
            assert_ne!(pick, 0, "{} picked a blacked-out board", d.name());
            assert!(f.state().placeable(pick));
        }
    }

    #[test]
    fn energy_aware_picks_cheapest_among_uncongested() {
        let mut f = Fixture::new(4);
        // XU4 boards (0, 2) cost 4 J, RK3399 boards (1, 3) 1.5 J.
        f.est.energy_j = vec![4.0, 1.5];
        assert_eq!(
            EnergyAware.pick(&f.state(), &job(JobClass::Mixed), &f.est),
            1
        );
        // Congest the cheap board far beyond a service time: excluded.
        f.busy[1] = 25.0;
        assert_eq!(
            EnergyAware.pick(&f.state(), &job(JobClass::Mixed), &f.est),
            3
        );
    }

    #[test]
    fn phase_aware_matches_class_to_cluster_shape() {
        let f = Fixture::new(4);
        assert!(f.cluster.big_rich(PhaseAware::default().pick(
            &f.state(),
            &job(JobClass::CpuHeavy),
            &f.est
        )));
        assert!(!f.cluster.big_rich(PhaseAware::default().pick(
            &f.state(),
            &job(JobClass::Synchronised),
            &f.est
        )));
        // Warm boards win ties within the preferred side: with two
        // big-rich architectures, the first XU4 (board 3) beats the
        // lower-indexed TK1 (board 2) once only XU4 is warm.
        let mut f = Fixture::with_cluster(three_arch(7));
        let cpu = job(JobClass::CpuHeavy);
        assert_eq!(PhaseAware::default().pick(&f.state(), &cpu, &f.est), 2);
        f.est.warm = vec![false, false, true];
        assert_eq!(PhaseAware::default().pick(&f.state(), &cpu, &f.est), 3);
    }

    #[test]
    fn phase_aware_spills_under_congestion() {
        let mut f = Fixture::new(4);
        // Both big-rich boards (0, 2) deeply backlogged.
        f.busy = vec![30.0, 10.0, 30.0, 10.0];
        let pick = PhaseAware::default().pick(&f.state(), &job(JobClass::CpuHeavy), &f.est);
        assert!(!f.cluster.big_rich(pick), "should spill to LITTLE-rich");
    }

    /// Per-class estimates expanded to one entry per board, each board's
    /// class found by position of its key in [`ClusterSpec::arch_keys`]
    /// — independently of the state's board→class map, so the reference
    /// oracles below catch a mix-up in that map.
    struct PerBoard {
        service_s: Vec<f64>,
        energy_j: Vec<f64>,
        warm: Vec<bool>,
    }

    impl PerBoard {
        fn new(spec: &ClusterSpec, est: &JobEstimates) -> Self {
            let keys = spec.arch_keys();
            let class: Vec<usize> = (0..spec.len())
                .map(|b| keys.iter().position(|&k| k == spec.arch_key(b)).unwrap())
                .collect();
            PerBoard {
                service_s: class.iter().map(|&a| est.service_s[a]).collect(),
                energy_j: class.iter().map(|&a| est.energy_j[a]).collect(),
                warm: class.iter().map(|&a| est.warm[a]).collect(),
            }
        }

        fn est_finish_s(&self, state: &ClusterState, b: usize) -> f64 {
            state.now_s + state.backlog_s(b) + self.service_s[b]
        }
    }

    /// The pre-scratch energy-aware pick, verbatim: collect the
    /// feasible set into a Vec, then min-by over it. Kept as the
    /// reference the allocation-free rewrite must match pick-for-pick.
    fn energy_aware_ref(state: &ClusterState, est: &PerBoard) -> usize {
        let min_backlog = state
            .placeable_boards()
            .map(|b| state.backlog_s(b))
            .fold(f64::INFINITY, f64::min);
        let feasible: Vec<usize> = state
            .placeable_boards()
            .filter(|&b| state.backlog_s(b) <= min_backlog + est.service_s[b])
            .collect();
        *feasible
            .iter()
            .min_by(|&&a, &&b| {
                (est.energy_j[a], est.est_finish_s(state, a), a)
                    .partial_cmp(&(est.energy_j[b], est.est_finish_s(state, b), b))
                    .expect("estimates are finite")
            })
            .expect("some board is up")
    }

    /// The pre-scratch phase-aware pick, verbatim: argmin over an
    /// iterator min-by, then a collected tie Vec.
    fn phase_aware_ref(state: &ClusterState, job: &JobSpec, est: &PerBoard) -> usize {
        let overall = argmin_placeable(state, |b| (est.est_finish_s(state, b), b as f64));
        let tie_band = 0.02 * est.service_s[overall];
        let best_finish = est.est_finish_s(state, overall);
        let ties: Vec<usize> = state
            .placeable_boards()
            .filter(|&b| est.est_finish_s(state, b) <= best_finish + tie_band)
            .collect();
        let prefers_big = PhaseAware::prefers_big(job);
        *ties
            .iter()
            .min_by(|&&a, &&b| {
                let mismatch = |c: usize| match prefers_big {
                    Some(big) => (state.spec.big_rich(c) != big) as u8 as f64,
                    None => 0.0,
                };
                let ka = (
                    mismatch(a),
                    !est.warm[a] as u8 as f64,
                    est.est_finish_s(state, a),
                    a as f64,
                );
                let kb = (
                    mismatch(b),
                    !est.warm[b] as u8 as f64,
                    est.est_finish_s(state, b),
                    b as f64,
                );
                ka.partial_cmp(&kb).expect("estimates are finite")
            })
            .expect("tie set contains the global best")
    }

    /// The allocation-free rewrites — the scan, and the indexed pick
    /// over the same state — must agree with the old collecting
    /// implementations on every pick, including engineered exact
    /// finish-time ties, where only the board-index tail of the key
    /// separates candidates. Sweeps seeded pseudo-random fixtures with
    /// clustered values so ties and tie-band edges actually occur, on
    /// two- and three-architecture layouts with random per-class
    /// estimates.
    #[test]
    fn scratch_dispatchers_match_reference_picks() {
        let mut lcg = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            // xorshift64*: deterministic, dependency-free.
            lcg ^= lcg >> 12;
            lcg ^= lcg << 25;
            lcg ^= lcg >> 27;
            lcg.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let mut checked = 0usize;
        for case in 0..400 {
            let n = 1 + (next() % 12) as usize;
            let mut f = Fixture::with_cluster(if case % 2 == 0 {
                ClusterSpec::heterogeneous(n)
            } else {
                three_arch(n)
            });
            for b in 0..n {
                // Quantised so distinct boards often collide exactly.
                f.busy[b] = (next() % 4) as f64 * 5.0;
                f.dispatched[b] = (next() % 3) as usize;
                if next() % 5 == 0 {
                    f.down.push(b);
                } else if next() % 5 == 0 {
                    f.blackout.push(b);
                }
            }
            for a in 0..f.est.service_s.len() {
                f.est.service_s[a] = 1.0 + (next() % 3) as f64;
                f.est.energy_j[a] = (next() % 4) as f64;
                f.est.warm[a] = next() % 2 == 0;
            }
            let st = f.state();
            if !st.any_placeable() {
                continue;
            }
            let per_board = PerBoard::new(&f.cluster, &f.est);
            let mut energy = EnergyAware;
            let mut phase = PhaseAware::default();
            for class in JobClass::ALL {
                let j = job(class);
                let energy_ref = energy_aware_ref(&st, &per_board);
                let phase_ref = phase_aware_ref(&st, &j, &per_board);
                for b in [energy.pick(&st, &j, &f.est), energy.pick_scan(&st, &f.est)] {
                    assert_eq!(
                        b, energy_ref,
                        "energy-aware diverged (case {case}, class {class:?})"
                    );
                }
                for b in [
                    phase.pick(&st, &j, &f.est),
                    phase.pick_scan(&st, &j, &f.est),
                ] {
                    assert_eq!(
                        b, phase_ref,
                        "phase-aware diverged (case {case}, class {class:?})"
                    );
                }
                checked += 1;
            }
        }
        assert!(checked > 1000, "sweep degenerated: only {checked} picks");
    }

    /// Online-mode mutation churn against the maintained index: a long
    /// seeded stream of enqueues, starts, completions, dispatch-count
    /// bumps, liveness/blackout flips and clock advances — after every
    /// step the indexed pick of each dispatcher must equal its
    /// reference scan, bit for bit. Values are quantised to multiples
    /// of 0.5 so exact busy-until ties, tie-band edges and clock
    /// advances that land exactly on filed in-flight estimates all
    /// occur, and boards are deliberately driven through every index
    /// class (Zero, Ordered, Stale — an enqueue with no in-flight job
    /// makes the busy-until clock-dependent).
    #[test]
    fn indexed_picks_match_scan_under_mutation_churn() {
        let qj = qj_for_churn;
        let ifl = ifl_for_churn;
        let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            lcg ^= lcg >> 12;
            lcg ^= lcg << 25;
            lcg ^= lcg >> 27;
            lcg.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let mut checked = 0usize;
        for mode in [DispatchMode::Online, DispatchMode::Oracle] {
            for case in 0..8 {
                let n = 2 + (next() % 9) as usize;
                let cluster = if case % 2 == 0 {
                    ClusterSpec::heterogeneous(n)
                } else {
                    three_arch(n)
                };
                let mut st = ClusterState::new(&cluster, mode);
                st.now_s = 10.0;
                st.rebuild_dispatch_index();
                let k = st.n_arch();
                let est = JobEstimates {
                    service_s: (0..k).map(|_| 1.0 + (next() % 3) as f64 * 0.5).collect(),
                    energy_j: (0..k).map(|_| 1.0 + (next() % 2) as f64).collect(),
                    warm: (0..k).map(|_| next() % 2 == 0).collect(),
                };
                let mut blk = vec![false; n];
                for _ in 0..250 {
                    let b = (next() % n as u64) as usize;
                    let svc = 0.5 + (next() % 4) as f64 * 0.5;
                    match next() % 8 {
                        0 => {
                            st.boards[b].enqueue(qj(svc));
                            st.refresh_dispatch_index(b);
                        }
                        1 => {
                            st.boards[b].pop_next();
                            st.refresh_dispatch_index(b);
                        }
                        2 if st.boards[b].in_flight.is_none() => {
                            st.boards[b].in_flight = Some(ifl(st.now_s, svc));
                            st.boards[b].dispatched += 1;
                            st.refresh_dispatch_index(b);
                        }
                        3 => {
                            // Completion: next queued job starts, as the
                            // completion advance does.
                            st.boards[b].in_flight = None;
                            if let Some(q) = st.boards[b].pop_next() {
                                let s = q.est_total_s();
                                st.boards[b].in_flight = Some(ifl(st.now_s, s));
                            }
                            st.refresh_dispatch_index(b);
                        }
                        4 => {
                            st.boards[b].dispatched += 1;
                            st.refresh_dispatch_index(b);
                        }
                        5 => {
                            let up = st.up(b);
                            st.set_up(b, !up);
                        }
                        6 => {
                            if blk[b] {
                                st.remove_blackout(b);
                            } else {
                                st.add_blackout(b);
                            }
                            blk[b] = !blk[b];
                        }
                        _ => {
                            if mode == DispatchMode::Oracle {
                                st.boards[b].oracle_busy_until_s =
                                    st.boards[b].oracle_busy_until_s.max(st.now_s) + svc;
                                st.refresh_dispatch_index(b);
                            }
                            // Advances by multiples of 0.5 land exactly
                            // on filed busy-until / in-flight values.
                            let dt = (next() % 4) as f64 * 0.5;
                            st.advance_now(st.now_s + dt);
                        }
                    }
                    assert_eq!(
                        st.dispatch_index().filed(),
                        st.placeable_boards().count(),
                        "index filing out of sync with placeability ({mode:?}, case {case})"
                    );
                    if !st.any_placeable() {
                        continue;
                    }
                    let j = job(JobClass::ALL[(next() % JobClass::ALL.len() as u64) as usize]);
                    assert_eq!(
                        LeastLoaded.pick(&st, &j, &est),
                        LeastLoaded.pick_scan(&st),
                        "least-loaded diverged ({mode:?}, case {case})"
                    );
                    let mut energy = EnergyAware;
                    assert_eq!(
                        energy.pick(&st, &j, &est),
                        energy.pick_scan(&st, &est),
                        "energy-aware diverged ({mode:?}, case {case})"
                    );
                    let mut phase = PhaseAware::default();
                    assert_eq!(
                        phase.pick(&st, &j, &est),
                        phase.pick_scan(&st, &j, &est),
                        "phase-aware diverged ({mode:?}, case {case})"
                    );
                    checked += 3;
                }
            }
        }
        assert!(
            checked > 3000,
            "churn sweep degenerated: only {checked} picks"
        );
    }

    /// Floods the Stale class — the regime a systematic-underestimation
    /// chaos clause creates (every in-flight estimate lapsed with work
    /// still queued), here to a peak of more than 32 of 48 boards —
    /// then churns queues, dispatch counts, liveness and the clock
    /// while checking every indexed pick, whose stale walk then covers
    /// most of the fleet, against its reference scan, bit for bit.
    #[test]
    fn indexed_picks_match_scan_with_flooded_stale_class() {
        let mut lcg = 0x6c62_272e_07bb_0142u64;
        let mut next = move || {
            lcg ^= lcg >> 12;
            lcg ^= lcg << 25;
            lcg ^= lcg >> 27;
            lcg.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let n = 48;
        let cluster = ClusterSpec::heterogeneous(n);
        let mut st = ClusterState::new(&cluster, DispatchMode::Online);
        st.now_s = 10.0;
        st.rebuild_dispatch_index();
        let lapsed = |now: f64, next: &mut dyn FnMut() -> u64| {
            // An in-flight whose estimate already lapsed: the board
            // files Stale.
            let svc = 0.5 + (next() % 4) as f64 * 0.5;
            let mut f = ifl_for_churn(now - 2.0 * svc, svc);
            debug_assert!(f.est_finish_s < now);
            f.id = 1;
            f
        };
        // Seed: every board gets queued work; two thirds also carry a
        // lapsed in-flight, the rest sit idle with a queue — the whole
        // fleet starts Stale.
        for b in 0..n {
            for _ in 0..1 + next() % 3 {
                st.boards[b].enqueue(qj_for_churn(0.5 + (next() % 4) as f64 * 0.5));
            }
            if b % 3 != 0 {
                st.boards[b].in_flight = Some(lapsed(st.now_s, &mut next));
            }
            st.boards[b].dispatched = (next() % 4) as usize;
            st.refresh_dispatch_index(b);
        }
        let est = JobEstimates {
            service_s: vec![1.5, 1.5],
            energy_j: vec![1.0, 2.0],
            warm: vec![true, false],
        };
        let mut max_stale = 0usize;
        let mut checked = 0usize;
        for step in 0..800 {
            let b = (next() % n as u64) as usize;
            match next() % 6 {
                0 => {
                    st.boards[b].enqueue(qj_for_churn(0.5 + (next() % 4) as f64 * 0.5));
                    st.refresh_dispatch_index(b);
                }
                1 => {
                    st.boards[b].pop_next();
                    st.refresh_dispatch_index(b);
                }
                2 => {
                    st.boards[b].in_flight = Some(lapsed(st.now_s, &mut next));
                    st.boards[b].dispatched += 1;
                    st.refresh_dispatch_index(b);
                }
                3 => {
                    let up = st.up(b);
                    st.set_up(b, !up);
                }
                4 => {
                    // Quantised advances land exactly on filed values.
                    let dt = (next() % 3) as f64 * 0.5;
                    st.advance_now(st.now_s + dt);
                }
                _ => {
                    st.boards[b].dispatched += 1;
                    st.refresh_dispatch_index(b);
                }
            }
            max_stale = max_stale.max(st.dispatch_index().stale_len());
            if !st.any_placeable() {
                continue;
            }
            let j = job(JobClass::ALL[(next() % JobClass::ALL.len() as u64) as usize]);
            assert_eq!(
                LeastLoaded.pick(&st, &j, &est),
                LeastLoaded.pick_scan(&st),
                "least-loaded diverged (step {step})"
            );
            let mut energy = EnergyAware;
            assert_eq!(
                energy.pick(&st, &j, &est),
                energy.pick_scan(&st, &est),
                "energy-aware diverged (step {step})"
            );
            let mut phase = PhaseAware::default();
            assert_eq!(
                phase.pick(&st, &j, &est),
                phase.pick_scan(&st, &j, &est),
                "phase-aware diverged (step {step})"
            );
            checked += 3;
        }
        assert!(
            max_stale > 32,
            "stale flood degenerated: peak {max_stale} boards"
        );
        assert!(checked > 2000, "flood sweep degenerated: {checked} picks");
    }

    #[test]
    fn picks_are_always_in_range_and_up() {
        let mut f = Fixture::new(5);
        f.down = vec![1, 3];
        for class in JobClass::ALL {
            for d in [
                &mut LeastLoaded as &mut dyn Dispatcher,
                &mut EnergyAware,
                &mut PhaseAware::default(),
            ] {
                let pick = d.pick(&f.state(), &job(class), &f.est);
                assert!(pick < 5);
                assert!(f.state().up(pick));
            }
        }
    }
}
