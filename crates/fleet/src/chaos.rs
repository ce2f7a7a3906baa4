//! The seeded chaos scenario engine: composable adversarial clauses
//! compiled into the kernel's control-plane event stream.
//!
//! PR 4/5 gave the kernel independent board churn; real big.LITTLE
//! fleets fail in *correlated*, *degraded* and *bursty* ways. A
//! [`ChaosSchedule`] is a declarative list of clauses:
//!
//! * [`ChaosClause::RackOutage`] — a group of boards goes down and
//!   comes back *together* (compiled to the existing
//!   [`EventKind::BoardDown`]/[`EventKind::BoardUp`] churn events, so
//!   every churn code path — redistribution, redispatch caps, drop
//!   accounting — applies unchanged);
//! * [`ChaosClause::Throttle`] — thermal throttling: a board's service
//!   times stretch by a factor for a window. The board stays up and
//!   keeps executing; only its speed changes, via the per-board
//!   slowdown multiplier in [`BoardState`](crate::state::BoardState)
//!   that the execution plane applies to every executor answer;
//! * [`ChaosClause::Blackout`] — a dispatch blackout: the board is
//!   visible and keeps draining its queue, but the dispatcher may not
//!   place new work on it for the window;
//! * [`ChaosClause::Misprofile`] — profile-table corruption: admission
//!   estimates for a job class are multiplied by a factor for a
//!   window. Nothing in the cluster changes — only what the scheduler
//!   *believes* — which is exactly the error the observed-service EWMA
//!   ([`crate::feedback`]) exists to repair;
//!
//! plus arrival-modulation clauses ([`TrafficClause::FlashCrowd`],
//! [`TrafficClause::Diurnal`]) layered over the base Poisson/bursty
//! generators by [`ArrivalProcess::generate_shaped`](crate::arrival::ArrivalProcess::generate_shaped).
//!
//! **Determinism.** A schedule is plain data; compilation is a pure
//! function; the kernel lays the compiled events onto its control
//! timeline in clause order, after churn, and stable-sorts it by time,
//! so ties at shared timestamps resolve churn < chaos (clause order) <
//! arrival < monitor tick — pinned. Throttle and blackout state
//! changes happen *only* at control events, so board speed is constant
//! between any two control timestamps and a completion advance (see
//! [`crate::shard`]) never sees it move. See DESIGN.md "Chaos engine".

use crate::job::JobClass;
use crate::kernel::EventKind;

/// Ceiling on the composed per-board slowdown: overlapping throttle
/// windows compose multiplicatively and clamp here, so a pathological
/// stack of clauses cannot push a board's speed to effectively zero
/// (which would stall the virtual clock against open jobs).
pub const MAX_SLOWDOWN: f64 = 64.0;

/// One adversarial clause of a [`ChaosSchedule`]. All windows are
/// half-open `[from_s, to_s)` in virtual seconds.
#[derive(Clone, Debug, PartialEq)]
pub enum ChaosClause {
    /// Correlated rack outage: every board in `boards` goes down at
    /// `from_s` and returns at `to_s`, together.
    RackOutage {
        /// The rack: board indices that fail together.
        boards: Vec<usize>,
        /// Outage start, seconds.
        from_s: f64,
        /// Outage end (boards return), seconds.
        to_s: f64,
    },
    /// Thermal throttling: `board`'s service times are multiplied by
    /// `factor` (≥ 1) for jobs *started* inside the window. The board
    /// stays up; dispatch-time estimates do not see the factor — only
    /// queue growth and the feedback layer reveal it.
    Throttle {
        /// The throttled board.
        board: usize,
        /// Service-time stretch factor, ≥ 1.
        factor: f64,
        /// Window start, seconds.
        from_s: f64,
        /// Window end, seconds.
        to_s: f64,
    },
    /// Dispatch blackout: every board in `boards` is visible and keeps
    /// executing its queue, but the dispatcher may not place new work
    /// on it inside the window. A blackout covering the whole fleet
    /// drops arrivals through the existing
    /// [`DropReason::NoBoardUp`](crate::state::DropReason) path — no
    /// new silent-drop reason.
    Blackout {
        /// Boards the dispatcher must avoid.
        boards: Vec<usize>,
        /// Window start, seconds.
        from_s: f64,
        /// Window end, seconds.
        to_s: f64,
    },
    /// Mis-profiled taxa: admission-time profiled estimates for jobs
    /// of `class` (`None` = every class) are multiplied by `factor`
    /// inside the window. True service is untouched, so the
    /// observed/profiled ratio the feedback EWMA learns is `1/factor`
    /// — feedback-corrected estimates converge back to reality.
    Misprofile {
        /// Which job class is mis-profiled (`None` = all).
        class: Option<JobClass>,
        /// Estimate corruption factor, > 0 (< 1 = optimistic lies).
        factor: f64,
        /// Window start, seconds.
        from_s: f64,
        /// Window end, seconds.
        to_s: f64,
    },
}

impl ChaosClause {
    /// Stable kind label for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            ChaosClause::RackOutage { .. } => "rack-outage",
            ChaosClause::Throttle { .. } => "throttle",
            ChaosClause::Blackout { .. } => "blackout",
            ChaosClause::Misprofile { .. } => "misprofile",
        }
    }

    /// One-line display label for per-clause accounting.
    pub fn label(&self) -> String {
        match self {
            ChaosClause::RackOutage {
                boards,
                from_s,
                to_s,
            } => {
                format!("rack-outage x{} [{from_s:.3}s,{to_s:.3}s)", boards.len())
            }
            ChaosClause::Throttle {
                board,
                factor,
                from_s,
                to_s,
            } => {
                format!("throttle b{board} x{factor:.2} [{from_s:.3}s,{to_s:.3}s)")
            }
            ChaosClause::Blackout {
                boards,
                from_s,
                to_s,
            } => {
                format!("blackout x{} [{from_s:.3}s,{to_s:.3}s)", boards.len())
            }
            ChaosClause::Misprofile {
                class,
                factor,
                from_s,
                to_s,
            } => {
                let c = class.map(|c| c.key()).unwrap_or("all");
                format!("misprofile {c} x{factor:.2} [{from_s:.3}s,{to_s:.3}s)")
            }
        }
    }
}

/// One arrival-modulation clause, in *fractions of the base stream's
/// horizon* so the same schedule composes with any rate or job count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TrafficClause {
    /// Flash crowd: arrival intensity is multiplied by `factor` over
    /// `[from_frac, to_frac)` of the horizon. The total job count and
    /// horizon are preserved; arrival *mass* moves into the window.
    FlashCrowd {
        /// Window start as a fraction of the horizon, in `[0, 1)`.
        from_frac: f64,
        /// Window end as a fraction of the horizon, in `(0, 1]`.
        to_frac: f64,
        /// Intensity multiplier, > 0.
        factor: f64,
    },
    /// Diurnal modulation: intensity `1 + depth·sin(2π·cycles·u)`
    /// over horizon fraction `u`, discretised into `steps`
    /// equal-width buckets per cycle (piecewise-constant, so the
    /// warp stays closed-form and exactly order-preserving).
    Diurnal {
        /// Full sine cycles across the horizon, > 0.
        cycles: f64,
        /// Modulation depth in `[0, 1)`.
        depth: f64,
        /// Constant-intensity buckets per cycle, ≥ 2.
        steps: usize,
    },
}

/// A composable, seed-deterministic adversarial scenario: state/speed
/// clauses (compiled into control-plane events by the kernel) plus
/// traffic clauses (applied by
/// [`ArrivalProcess::generate_shaped`](crate::arrival::ArrivalProcess::generate_shaped)).
/// Attach to a run with
/// [`Scenario::with_chaos`](crate::kernel::Scenario::with_chaos).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosSchedule {
    /// State/speed/estimate clauses, in pinned (tie-break) order.
    pub clauses: Vec<ChaosClause>,
    /// Arrival-modulation clauses.
    pub traffic: Vec<TrafficClause>,
}

impl ChaosSchedule {
    /// An empty schedule (no chaos — the kernel's fast path).
    pub fn new() -> Self {
        ChaosSchedule::default()
    }

    /// Add a correlated rack outage.
    pub fn rack_outage(mut self, boards: Vec<usize>, from_s: f64, to_s: f64) -> Self {
        self.clauses.push(ChaosClause::RackOutage {
            boards,
            from_s,
            to_s,
        });
        self
    }

    /// Add a thermal-throttle window on one board.
    pub fn throttle(mut self, board: usize, factor: f64, from_s: f64, to_s: f64) -> Self {
        self.clauses.push(ChaosClause::Throttle {
            board,
            factor,
            from_s,
            to_s,
        });
        self
    }

    /// Add a dispatch blackout over a group of boards.
    pub fn blackout(mut self, boards: Vec<usize>, from_s: f64, to_s: f64) -> Self {
        self.clauses.push(ChaosClause::Blackout {
            boards,
            from_s,
            to_s,
        });
        self
    }

    /// Add an estimate-corruption window for a job class (`None` =
    /// every class).
    pub fn misprofile(
        mut self,
        class: Option<JobClass>,
        factor: f64,
        from_s: f64,
        to_s: f64,
    ) -> Self {
        self.clauses.push(ChaosClause::Misprofile {
            class,
            factor,
            from_s,
            to_s,
        });
        self
    }

    /// Add a flash-crowd arrival window (fractions of the horizon).
    pub fn flash_crowd(mut self, from_frac: f64, to_frac: f64, factor: f64) -> Self {
        self.traffic.push(TrafficClause::FlashCrowd {
            from_frac,
            to_frac,
            factor,
        });
        self
    }

    /// Add diurnal arrival modulation.
    pub fn diurnal(mut self, cycles: f64, depth: f64, steps: usize) -> Self {
        self.traffic.push(TrafficClause::Diurnal {
            cycles,
            depth,
            steps,
        });
        self
    }

    /// Panic on malformed clauses: out-of-range boards, empty racks,
    /// inverted or non-finite windows, throttle factors < 1,
    /// non-positive misprofile factors, traffic fractions outside
    /// `[0, 1]`. Called by the kernel before compiling; callable
    /// directly for early failure.
    pub fn validate(&self, n_boards: usize) {
        let window = |kind: &str, from_s: f64, to_s: f64| {
            assert!(
                from_s.is_finite() && to_s.is_finite() && from_s >= 0.0 && to_s > from_s,
                "chaos {kind} clause has a malformed window [{from_s}, {to_s})"
            );
        };
        let in_range = |kind: &str, b: usize| {
            assert!(
                b < n_boards,
                "chaos {kind} clause names board {b} of {n_boards}"
            );
        };
        for c in &self.clauses {
            match c {
                ChaosClause::RackOutage {
                    boards,
                    from_s,
                    to_s,
                } => {
                    window("rack-outage", *from_s, *to_s);
                    assert!(
                        !boards.is_empty(),
                        "chaos rack-outage clause has an empty rack"
                    );
                    for &b in boards {
                        in_range("rack-outage", b);
                    }
                }
                ChaosClause::Throttle {
                    board,
                    factor,
                    from_s,
                    to_s,
                } => {
                    window("throttle", *from_s, *to_s);
                    in_range("throttle", *board);
                    assert!(
                        factor.is_finite() && *factor >= 1.0,
                        "chaos throttle factor must be finite and >= 1, got {factor}"
                    );
                }
                ChaosClause::Blackout {
                    boards,
                    from_s,
                    to_s,
                } => {
                    window("blackout", *from_s, *to_s);
                    assert!(
                        !boards.is_empty(),
                        "chaos blackout clause has an empty board set"
                    );
                    for &b in boards {
                        in_range("blackout", b);
                    }
                }
                ChaosClause::Misprofile {
                    factor,
                    from_s,
                    to_s,
                    ..
                } => {
                    window("misprofile", *from_s, *to_s);
                    assert!(
                        factor.is_finite() && *factor > 0.0,
                        "chaos misprofile factor must be finite and positive, got {factor}"
                    );
                }
            }
        }
        for t in &self.traffic {
            match *t {
                TrafficClause::FlashCrowd {
                    from_frac,
                    to_frac,
                    factor,
                } => {
                    assert!(
                        (0.0..1.0).contains(&from_frac)
                            && to_frac > from_frac
                            && to_frac <= 1.0
                            && factor.is_finite()
                            && factor > 0.0,
                        "malformed flash-crowd clause [{from_frac}, {to_frac}) x{factor}"
                    );
                }
                TrafficClause::Diurnal {
                    cycles,
                    depth,
                    steps,
                } => {
                    assert!(
                        cycles.is_finite()
                            && cycles > 0.0
                            && (0.0..1.0).contains(&depth)
                            && steps >= 2,
                        "malformed diurnal clause: cycles {cycles}, depth {depth}, steps {steps}"
                    );
                }
            }
        }
    }

    /// Compile the kernel-side clauses: per-clause throttle factors,
    /// misprofile windows, the control events (in pinned clause order)
    /// and zeroed per-clause accounting. Validates first.
    pub(crate) fn compile(&self, n_boards: usize) -> CompiledChaos {
        self.validate(n_boards);
        let mut compiled = CompiledChaos {
            factors: vec![1.0; self.clauses.len()],
            misprofiles: Vec::new(),
            events: Vec::new(),
            stats: ChaosStats {
                clauses: self
                    .clauses
                    .iter()
                    .map(|c| ClauseStats {
                        label: c.label(),
                        events: 0,
                        affected_jobs: 0,
                    })
                    .collect(),
                throttled_starts: 0,
                max_slowdown: 1.0,
                misprofiled: 0,
                blackout_drops: 0,
            },
        };
        for (i, c) in self.clauses.iter().enumerate() {
            let clause = i as u32;
            match c {
                ChaosClause::RackOutage {
                    boards,
                    from_s,
                    to_s,
                } => {
                    for &b in boards {
                        compiled
                            .events
                            .push((*from_s, EventKind::BoardDown(b as u32)));
                    }
                    for &b in boards {
                        compiled.events.push((*to_s, EventKind::BoardUp(b as u32)));
                    }
                    // Down/up events are churn events; account them to
                    // the clause at compile time (the kernel cannot
                    // tell them apart from scenario churn, by design).
                    compiled.stats.clauses[i].events = 2 * boards.len() as u64;
                }
                ChaosClause::Throttle {
                    board,
                    factor,
                    from_s,
                    to_s,
                } => {
                    compiled.factors[i] = *factor;
                    let board = *board as u32;
                    compiled
                        .events
                        .push((*from_s, EventKind::ThrottleStart { board, clause }));
                    compiled
                        .events
                        .push((*to_s, EventKind::ThrottleEnd { board, clause }));
                }
                ChaosClause::Blackout {
                    boards,
                    from_s,
                    to_s,
                } => {
                    for &b in boards {
                        compiled.events.push((
                            *from_s,
                            EventKind::BlackoutStart {
                                board: b as u32,
                                clause,
                            },
                        ));
                    }
                    for &b in boards {
                        compiled.events.push((
                            *to_s,
                            EventKind::BlackoutEnd {
                                board: b as u32,
                                clause,
                            },
                        ));
                    }
                }
                ChaosClause::Misprofile {
                    class,
                    factor,
                    from_s,
                    to_s,
                } => {
                    compiled.misprofiles.push(MisprofileWindow {
                        clause,
                        class: *class,
                        factor: *factor,
                        from_s: *from_s,
                        to_s: *to_s,
                    });
                }
            }
        }
        compiled
    }

    /// Clause `i`, in schedule order (the index compiled events carry
    /// and [`ChaosStats::clauses`] follows): the `fleet_chaos` report
    /// prints each clause through it, and the chaos property tests
    /// count rack-outage boards with it.
    pub fn clause(&self, i: usize) -> &ChaosClause {
        &self.clauses[i]
    }
}

/// One compiled misprofile window.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MisprofileWindow {
    /// Clause index, for per-clause accounting.
    pub clause: u32,
    /// Class filter (`None` = all classes).
    pub class: Option<JobClass>,
    /// Estimate multiplier.
    pub factor: f64,
    /// Window start, seconds.
    pub from_s: f64,
    /// Window end (exclusive), seconds.
    pub to_s: f64,
}

/// A [`ChaosSchedule`] lowered to what the kernel consumes: control
/// events in clause order, per-clause throttle factors (so
/// [`EventKind`] stays `Copy` — events carry a clause index, not a
/// float), misprofile windows and zeroed accounting.
pub(crate) struct CompiledChaos {
    /// Per-clause throttle factor (1.0 for non-throttle clauses).
    pub factors: Vec<f64>,
    /// Estimate-corruption windows.
    pub misprofiles: Vec<MisprofileWindow>,
    /// Control events in clause order, unsorted: the kernel appends
    /// them after churn and stable-sorts the whole timeline by time,
    /// so this order is the tie-break at shared timestamps.
    pub events: Vec<(f64, EventKind)>,
    /// Zeroed accounting with per-clause labels filled in.
    pub stats: ChaosStats,
}

impl CompiledChaos {
    /// Composed misprofile factor for `class` at time `t` (1.0 outside
    /// every window). When `stats` is given, matching windows charge
    /// their clause's `affected_jobs` and the global `misprofiled`
    /// counter — pass it on admission paths (arrival, churn
    /// redispatch), not on prediction-only lookups.
    pub fn misprofile_factor(
        &self,
        class: JobClass,
        t: f64,
        mut stats: Option<&mut ChaosStats>,
    ) -> f64 {
        let mut f = 1.0;
        for w in &self.misprofiles {
            if t >= w.from_s && t < w.to_s && w.class.is_none_or(|c| c == class) {
                f *= w.factor;
                if let Some(stats) = stats.as_deref_mut() {
                    stats.clauses[w.clause as usize].affected_jobs += 1;
                }
            }
        }
        if f != 1.0 {
            if let Some(stats) = stats {
                stats.misprofiled += 1;
            }
        }
        f
    }
}

/// Per-clause accounting line.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClauseStats {
    /// Display label (see [`ChaosClause::label`]).
    pub label: String,
    /// Control events this clause contributed (outage downs/ups,
    /// throttle/blackout window edges; misprofile clauses contribute
    /// none — they are admission-time lookups).
    pub events: u64,
    /// Jobs whose admission estimates this clause corrupted
    /// (misprofile clauses only).
    pub affected_jobs: u64,
}

/// Chaos accounting for one kernel run, reported on
/// [`FleetOutcome`](crate::metrics::FleetOutcome). All-default when
/// the scenario carries no chaos.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosStats {
    /// Per-clause lines, schedule order.
    pub clauses: Vec<ClauseStats>,
    /// Job starts that ran with a composed slowdown > 1.
    pub throttled_starts: u64,
    /// Largest composed slowdown any board reached (1.0 = never
    /// throttled; 0.0 only in the all-default no-chaos value).
    pub max_slowdown: f64,
    /// Admissions (arrivals + churn redispatches) whose estimates were
    /// corrupted by a misprofile window.
    pub misprofiled: u64,
    /// Arrivals/orphans dropped as
    /// [`DropReason::NoBoardUp`](crate::state::DropReason) while at
    /// least one board was *up* but every up board was blacked out.
    pub blackout_drops: u64,
}

/// Piecewise-constant intensity multiplier over the horizon fraction
/// `[0, 1]`, as `(segment_start, multiplier)` pairs covering the whole
/// range (last segment ends at 1). The product of every clause's
/// contribution, with diurnal sines evaluated at each *bucket's own*
/// midpoint so merging boundaries never changes a bucket's value.
pub(crate) fn traffic_breakpoints(clauses: &[TrafficClause]) -> Vec<(f64, f64)> {
    let mut bounds = vec![0.0f64, 1.0];
    for t in clauses {
        match *t {
            TrafficClause::FlashCrowd {
                from_frac, to_frac, ..
            } => {
                bounds.push(from_frac);
                bounds.push(to_frac);
            }
            TrafficClause::Diurnal { cycles, steps, .. } => {
                let n = (cycles * steps as f64).ceil() as usize;
                let w = 1.0 / (cycles * steps as f64);
                for k in 1..=n {
                    let u = (k as f64 * w).min(1.0);
                    bounds.push(u);
                }
            }
        }
    }
    bounds.sort_by(f64::total_cmp);
    bounds.dedup();
    let mut segs = Vec::with_capacity(bounds.len());
    for pair in bounds.windows(2) {
        let (lo, hi) = (pair[0], pair[1]);
        if hi <= lo {
            continue;
        }
        let mid = 0.5 * (lo + hi);
        let mut m = 1.0;
        for t in clauses {
            match *t {
                TrafficClause::FlashCrowd {
                    from_frac,
                    to_frac,
                    factor,
                } => {
                    if mid >= from_frac && mid < to_frac {
                        m *= factor;
                    }
                }
                TrafficClause::Diurnal {
                    cycles,
                    depth,
                    steps,
                } => {
                    // Quantise to the diurnal bucket the segment falls
                    // in and evaluate at the bucket midpoint.
                    let w = 1.0 / (cycles * steps as f64);
                    let bucket = (mid / w).floor();
                    let u = (bucket + 0.5) * w;
                    m *= 1.0 + depth * (std::f64::consts::TAU * cycles * u).sin();
                }
            }
        }
        segs.push((lo, m));
    }
    segs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose_in_clause_order() {
        let s = ChaosSchedule::new()
            .rack_outage(vec![0, 2], 1.0, 2.0)
            .throttle(1, 3.0, 0.5, 2.5)
            .blackout(vec![3], 1.5, 1.75)
            .misprofile(Some(JobClass::CpuHeavy), 0.25, 0.0, 3.0)
            .flash_crowd(0.4, 0.6, 3.0)
            .diurnal(2.0, 0.5, 8);
        assert_eq!(s.clauses.len(), 4);
        assert_eq!(s.traffic.len(), 2);
        assert_eq!(s.clause(1).kind(), "throttle");
        s.validate(4);
        let c = s.compile(4);
        // 2 downs + 2 ups + throttle start/end + blackout start/end.
        assert_eq!(c.events.len(), 8);
        assert_eq!(c.factors, vec![1.0, 3.0, 1.0, 1.0]);
        assert_eq!(c.misprofiles.len(), 1);
        assert_eq!(c.stats.clauses.len(), 4);
        assert_eq!(c.stats.clauses[0].events, 4, "outage events pre-accounted");
        assert_eq!(c.stats.max_slowdown, 1.0);
    }

    #[test]
    #[should_panic(expected = "names board 7")]
    fn validate_rejects_out_of_range_boards() {
        ChaosSchedule::new().throttle(7, 2.0, 0.0, 1.0).validate(4);
    }

    #[test]
    #[should_panic(expected = "malformed window")]
    fn validate_rejects_inverted_windows() {
        ChaosSchedule::new().blackout(vec![0], 2.0, 1.0).validate(4);
    }

    #[test]
    #[should_panic(expected = "throttle factor must be finite and >= 1")]
    fn validate_rejects_speedup_throttles() {
        ChaosSchedule::new().throttle(0, 0.5, 0.0, 1.0).validate(4);
    }

    #[test]
    #[should_panic(expected = "malformed flash-crowd")]
    fn validate_rejects_out_of_range_traffic() {
        ChaosSchedule::new().flash_crowd(0.8, 1.2, 2.0).validate(4);
    }

    #[test]
    fn misprofile_factor_windows_and_classes() {
        let s = ChaosSchedule::new()
            .misprofile(Some(JobClass::CpuHeavy), 0.5, 1.0, 2.0)
            .misprofile(None, 2.0, 1.5, 3.0);
        let c = s.compile(1);
        let mut stats = c.stats.clone();
        // Outside every window.
        assert_eq!(c.misprofile_factor(JobClass::CpuHeavy, 0.5, None), 1.0);
        // Class-filtered window only.
        assert_eq!(c.misprofile_factor(JobClass::CpuHeavy, 1.2, None), 0.5);
        assert_eq!(c.misprofile_factor(JobClass::MemIo, 1.2, None), 1.0);
        // Overlap composes multiplicatively; accounting charges both
        // clauses and one admission.
        let f = c.misprofile_factor(JobClass::CpuHeavy, 1.7, Some(&mut stats));
        assert!((f - 1.0).abs() < 1e-12, "0.5 * 2.0 composes to 1.0: {f}");
        assert_eq!(stats.clauses[0].affected_jobs, 1);
        assert_eq!(stats.clauses[1].affected_jobs, 1);
        // 0.5 * 2.0 == 1.0 exactly, so the global counter is *not*
        // charged — the composed estimate is uncorrupted.
        assert_eq!(stats.misprofiled, 0);
        // Window end is exclusive.
        assert_eq!(c.misprofile_factor(JobClass::Mixed, 3.0, None), 1.0);
    }

    #[test]
    fn traffic_breakpoints_cover_unit_interval() {
        let segs = traffic_breakpoints(&[
            TrafficClause::FlashCrowd {
                from_frac: 0.4,
                to_frac: 0.6,
                factor: 3.0,
            },
            TrafficClause::Diurnal {
                cycles: 2.0,
                depth: 0.5,
                steps: 4,
            },
        ]);
        assert_eq!(segs[0].0, 0.0);
        assert!(segs.windows(2).all(|w| w[0].0 < w[1].0), "sorted, distinct");
        assert!(segs.iter().all(|&(_, m)| m > 0.0), "multipliers positive");
        // The flash-crowd window multiplies whatever the diurnal says.
        let at = |u: f64| {
            segs.iter()
                .rev()
                .find(|&&(lo, _)| lo <= u)
                .map(|&(_, m)| m)
                .unwrap()
        };
        assert!(at(0.5) > at(0.2) * 1.5, "flash window is denser");
        let empty = traffic_breakpoints(&[]);
        assert_eq!(empty, vec![(0.0, 1.0)]);
    }
}
