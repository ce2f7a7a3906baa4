//! Reference-model tests: each oracle is the implementation a leaner
//! one replaced, kept verbatim in behaviour.
//!
//! The dense line tables behind [`PolicyCache`] and [`ServiceFeedback`]
//! run against the ordered `BTreeMap<(Taxon, &str), _>` implementation
//! they replaced. Random op streams drive both side by side over every
//! taxon the public type can hold (signatures past the base-3 range
//! included) and over architecture names that include one text at two
//! addresses; every decision, read, stat and encoded byte must agree
//! after every op. Eviction ties come from a clock started just short
//! of saturation, where every stamp is equal and the key order alone
//! picks the victim.
//!
//! The arrival streams ([`arrival`] below) run against the eager
//! generator `GenCursor` replaced: draw every time, sort, then warp.
//!
//! The retained run's finish ([`finish`] below) runs against the sorts
//! it replaced: a stable sort of the records by id, then metrics over
//! two stable-sorted vectors.

use crate::cache::{CacheDecision, CacheStats, PolicyCache};
use crate::checkpoint::{enc_schedule, enc_snapshot, enc_taxon, Enc};
use crate::feedback::{FeedbackStats, ServiceFeedback, MAX_RATIO, MIN_RATIO, MISPREDICT_BAND};
use crate::job::{JobClass, Taxon};
use astro_core::schedule::StaticSchedule;
use astro_rl::qlearn::PolicySnapshot;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The oracle cache's line.
#[derive(Clone, Debug)]
struct OracleEntry {
    schedule: StaticSchedule,
    snapshot: PolicySnapshot,
    version: u32,
    uses: u32,
    last_use: u64,
}

/// The ordered-map policy cache the dense tables replaced.
struct OracleCache {
    entries: BTreeMap<(Taxon, &'static str), OracleEntry>,
    retired_versions: BTreeMap<(Taxon, &'static str), u32>,
    staleness_limit: u32,
    capacity: usize,
    clock: u64,
    stats: CacheStats,
}

impl OracleCache {
    fn with_capacity(staleness_limit: u32, capacity: usize) -> Self {
        OracleCache {
            entries: BTreeMap::new(),
            retired_versions: BTreeMap::new(),
            staleness_limit,
            capacity,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock = self.clock.saturating_add(1);
        self.clock
    }

    fn lookup(&mut self, taxon: Taxon, arch: &'static str) -> CacheDecision {
        self.stats.lookups = self.stats.lookups.saturating_add(1);
        let stamp = self.tick();
        match self.entries.get_mut(&(taxon, arch)) {
            Some(e) if self.staleness_limit > 0 && e.uses >= self.staleness_limit => {
                e.last_use = stamp;
                self.stats.stale_refreshes = self.stats.stale_refreshes.saturating_add(1);
                CacheDecision::Stale(e.snapshot.clone())
            }
            Some(e) => {
                e.uses = e.uses.saturating_add(1);
                e.last_use = stamp;
                self.stats.hits = self.stats.hits.saturating_add(1);
                CacheDecision::Hit(e.schedule, e.version)
            }
            None => {
                self.stats.misses = self.stats.misses.saturating_add(1);
                CacheDecision::Miss
            }
        }
    }

    fn evict_lru(&mut self) {
        let victim = self
            .entries
            .iter()
            .min_by_key(|(key, e)| (e.last_use, *key))
            .map(|(key, _)| *key);
        if let Some(key) = victim {
            let e = self.entries.remove(&key).expect("victim exists");
            let retired = self.retired_versions.entry(key).or_insert(0);
            *retired = (*retired).max(e.version);
            self.stats.evictions = self.stats.evictions.saturating_add(1);
        }
    }

    fn next_version(&self, key: &(Taxon, &'static str)) -> u32 {
        let retired = self.retired_versions.get(key).map(|&v| v.saturating_add(1));
        let resident = self.entries.get(key).map(|e| e.version.saturating_add(1));
        retired.into_iter().chain(resident).max().unwrap_or(0)
    }

    fn insert(
        &mut self,
        taxon: Taxon,
        arch: &'static str,
        schedule: StaticSchedule,
        snapshot: PolicySnapshot,
    ) {
        let key = (taxon, arch);
        if self.capacity > 0
            && !self.entries.contains_key(&key)
            && self.entries.len() >= self.capacity
        {
            self.evict_lru();
        }
        let version = self.next_version(&key);
        let stamp = self.tick();
        self.entries.insert(
            key,
            OracleEntry {
                schedule,
                snapshot,
                version,
                uses: 1,
                last_use: stamp,
            },
        );
    }

    fn refresh(
        &mut self,
        taxon: Taxon,
        arch: &'static str,
        schedule: StaticSchedule,
        snapshot: PolicySnapshot,
    ) {
        let stamp = self.tick();
        match self.entries.get_mut(&(taxon, arch)) {
            Some(e) => {
                e.schedule = schedule;
                e.snapshot = snapshot;
                e.version = e.version.saturating_add(1);
                e.uses = 1;
                e.last_use = stamp;
            }
            None => {
                self.stats.evicted_refreshes = self.stats.evicted_refreshes.saturating_add(1);
                self.insert(taxon, arch, schedule, snapshot);
            }
        }
    }

    fn warm_peek(&self, taxon: Taxon, arch: &'static str) -> Option<&OracleEntry> {
        self.entries
            .get(&(taxon, arch))
            .filter(|e| self.staleness_limit == 0 || e.uses < self.staleness_limit)
    }

    fn peek(&self, taxon: Taxon, arch: &'static str) -> Option<&OracleEntry> {
        self.entries.get(&(taxon, arch))
    }

    fn encoded(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.u32(self.staleness_limit);
        enc.usize(self.capacity);
        enc.u64(self.clock);
        enc.u64(self.stats.lookups);
        enc.u64(self.stats.hits);
        enc.u64(self.stats.misses);
        enc.u64(self.stats.stale_refreshes);
        enc.u64(self.stats.evictions);
        enc.u64(self.stats.evicted_refreshes);
        enc.usize(self.entries.len());
        for (&(taxon, arch), e) in &self.entries {
            enc_taxon(&mut enc, taxon);
            enc.str(arch);
            enc_schedule(&mut enc, &e.schedule);
            enc_snapshot(&mut enc, &e.snapshot);
            enc.u32(e.version);
            enc.u32(e.uses);
            enc.u64(e.last_use);
        }
        enc.usize(self.retired_versions.len());
        for (&(taxon, arch), &v) in &self.retired_versions {
            enc_taxon(&mut enc, taxon);
            enc.str(arch);
            enc.u32(v);
        }
        enc.finish()
    }
}

/// The oracle feedback layer's cell.
#[derive(Clone, Copy, Debug)]
struct OracleCell {
    ratio: f64,
    samples: u64,
}

/// The ordered-map feedback layer the dense tables replaced.
struct OracleFeedback {
    alpha: f64,
    cells: BTreeMap<(Taxon, &'static str), OracleCell>,
    stats: FeedbackStats,
}

impl OracleFeedback {
    fn correction(&self, taxon: Taxon, arch: &'static str) -> f64 {
        self.cells.get(&(taxon, arch)).map_or(1.0, |c| c.ratio)
    }

    fn observe(&mut self, taxon: Taxon, arch: &'static str, profiled_s: f64, observed_s: f64) {
        if !(profiled_s.is_finite()
            && observed_s.is_finite()
            && profiled_s > 0.0
            && observed_s > 0.0)
        {
            self.stats.rejected += 1;
            return;
        }
        let corrected = profiled_s * self.correction(taxon, arch);
        let rel_err = (observed_s - corrected).abs() / corrected;
        self.stats.samples += 1;
        self.stats.sum_abs_rel_err += rel_err;
        if rel_err > MISPREDICT_BAND {
            self.stats.mispredicts += 1;
        }
        let obs_ratio = (observed_s / profiled_s).clamp(MIN_RATIO, MAX_RATIO);
        let cell = self.cells.entry((taxon, arch)).or_insert(OracleCell {
            ratio: 1.0,
            samples: 0,
        });
        cell.ratio =
            ((1.0 - self.alpha) * cell.ratio + self.alpha * obs_ratio).clamp(MIN_RATIO, MAX_RATIO);
        cell.samples += 1;
    }

    fn mean_correction(&self) -> f64 {
        if self.cells.is_empty() {
            return 1.0;
        }
        self.cells.values().map(|c| c.ratio).sum::<f64>() / self.cells.len() as f64
    }

    fn encoded(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.f64(self.alpha);
        enc.u64(self.stats.samples);
        enc.u64(self.stats.rejected);
        enc.u64(self.stats.mispredicts);
        enc.f64(self.stats.sum_abs_rel_err);
        enc.usize(self.cells.len());
        for (&(taxon, arch), cell) in &self.cells {
            enc_taxon(&mut enc, taxon);
            enc.str(arch);
            enc.f64(cell.ratio);
            enc.u64(cell.samples);
        }
        enc.finish()
    }
}

/// The layer's checkpoint section, as the kernel embeds it.
fn encoded(fb: &ServiceFeedback) -> Vec<u8> {
    let mut enc = Enc::new();
    fb.encode(&mut enc);
    enc.finish()
}

/// Every taxon the public type can hold, by index: class-major,
/// signature `0..=255`.
fn taxon(i: usize) -> Taxon {
    Taxon {
        class: JobClass::ALL[(i / 256) % JobClass::ALL.len()],
        signature: (i % 256) as u8,
    }
}

/// Architecture names: three texts, one of them again at a second
/// address (equal strings are one key).
fn arches() -> [&'static str; 4] {
    let again: &'static str = Box::leak(String::from("odroid-xu4").into_boxed_str());
    ["odroid-xu4", "rk3399", "a53-only", again]
}

fn schedule(c: usize) -> StaticSchedule {
    StaticSchedule {
        config_for_phase: [c % 24, (c / 3) % 24, 1, c % 7],
    }
}

fn snapshot(c: usize) -> PolicySnapshot {
    PolicySnapshot {
        state_dim: 2,
        num_actions: 2,
        params: vec![c as f64 * 0.5; 1 + c % 4],
    }
}

/// The entry fields a caller can read, for comparing reads.
type Seen = Option<(StaticSchedule, Vec<u64>, u32, u32)>;

fn seen(e: Option<&crate::cache::PolicyEntry>) -> Seen {
    e.map(|e| {
        let params = e.snapshot.params.iter().map(|p| p.to_bits()).collect();
        (e.schedule, params, e.version, e.uses)
    })
}

fn seen_oracle(e: Option<&OracleEntry>) -> Seen {
    e.map(|e| {
        let params = e.snapshot.params.iter().map(|p| p.to_bits()).collect();
        (e.schedule, params, e.version, e.uses)
    })
}

/// Observed/profiled values, hostile ones included.
const SERVICE_S: [f64; 9] = [1.0, 2.5, 0.3, 1e-9, 7e6, 0.0, -1.0, f64::NAN, f64::INFINITY];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every public cache op, against the ordered-map oracle.
    #[test]
    fn policy_cache_matches_the_ordered_map_oracle(
        palette in prop::collection::vec(0usize..1024, 1..7),
        ops in prop::collection::vec((0usize..6, 0usize..16, 0usize..4), 1..160),
        staleness in 0u32..4,
        capacity in 0usize..5,
        near_saturation in 0usize..2,
    ) {
        let names = arches();
        let mut cache = PolicyCache::with_capacity(staleness, capacity);
        let mut oracle = OracleCache::with_capacity(staleness, capacity);
        if near_saturation == 1 {
            // A few ticks from saturation: later stamps all equal
            // `u64::MAX`, so evictions tie and key order decides.
            cache.fast_forward_clock(u64::MAX - 24);
            oracle.clock = u64::MAX - 24;
        }
        for (step, &(op, t, a)) in ops.iter().enumerate() {
            let (taxon, arch) = (taxon(palette[t % palette.len()]), names[a]);
            match op {
                0 => {
                    let got = format!("{:?}", cache.lookup(taxon, arch));
                    let want = format!("{:?}", oracle.lookup(taxon, arch));
                    prop_assert_eq!(got, want, "lookup at step {}", step);
                }
                1 => {
                    cache.insert(taxon, arch, schedule(step), snapshot(step));
                    oracle.insert(taxon, arch, schedule(step), snapshot(step));
                }
                2 => {
                    cache.refresh(taxon, arch, schedule(step), snapshot(step));
                    oracle.refresh(taxon, arch, schedule(step), snapshot(step));
                }
                3 => prop_assert_eq!(
                    seen(cache.warm_peek(taxon, arch)),
                    seen_oracle(oracle.warm_peek(taxon, arch))
                ),
                4 => prop_assert_eq!(
                    seen(cache.peek(taxon, arch)),
                    seen_oracle(oracle.peek(taxon, arch))
                ),
                _ => prop_assert_eq!(
                    cache.is_warm(taxon, arch),
                    oracle.warm_peek(taxon, arch).is_some()
                ),
            }
            prop_assert_eq!(cache.stats, oracle.stats);
            prop_assert_eq!(cache.len(), oracle.entries.len());
            prop_assert_eq!(cache.is_empty(), oracle.entries.is_empty());
            prop_assert_eq!(cache.encoded(), oracle.encoded(), "encoding at step {}", step);
        }
    }

    /// Every public feedback op, against the ordered-map oracle.
    #[test]
    fn service_feedback_matches_the_ordered_map_oracle(
        palette in prop::collection::vec(0usize..1024, 1..7),
        ops in prop::collection::vec(((0usize..3, 0usize..16, 0usize..4), (0usize..9, 0usize..9)), 1..160),
        alpha_pct in 1usize..101,
    ) {
        let names = arches();
        let alpha = alpha_pct as f64 / 100.0;
        let mut fb = ServiceFeedback::new(alpha);
        let mut oracle = OracleFeedback {
            alpha,
            cells: BTreeMap::new(),
            stats: FeedbackStats::default(),
        };
        for &((op, t, a), (p, o)) in &ops {
            let (taxon, arch) = (taxon(palette[t % palette.len()]), names[a]);
            match op {
                0 | 1 => {
                    fb.observe(taxon, arch, SERVICE_S[p], SERVICE_S[o]);
                    oracle.observe(taxon, arch, SERVICE_S[p], SERVICE_S[o]);
                }
                _ => prop_assert_eq!(
                    fb.correction(taxon, arch).to_bits(),
                    oracle.correction(taxon, arch).to_bits()
                ),
            }
            prop_assert_eq!(fb.stats.samples, oracle.stats.samples);
            prop_assert_eq!(fb.stats.rejected, oracle.stats.rejected);
            prop_assert_eq!(fb.stats.mispredicts, oracle.stats.mispredicts);
            prop_assert_eq!(
                fb.stats.sum_abs_rel_err.to_bits(),
                oracle.stats.sum_abs_rel_err.to_bits()
            );
            prop_assert_eq!(fb.len(), oracle.cells.len());
            prop_assert_eq!(fb.mean_correction().to_bits(), oracle.mean_correction().to_bits());
            prop_assert_eq!(encoded(&fb), oracle.encoded());
        }
    }
}

/// The eager arrival generator against the one lazy one: every job a
/// [`GenCursor`] pulls, and every job
/// [`generate_shaped`](ArrivalProcess::generate_shaped) materialises,
/// must match the oracle bit for bit.
mod arrival {
    use crate::arrival::{ArrivalCursor, ArrivalProcess, GenCursor};
    use crate::chaos::{traffic_breakpoints, ChaosSchedule, TrafficClause};
    use crate::job::{taxon_of, JobSpec, Taxon};
    use astro_workloads::{InputSize, Workload};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Exponential variate with the given rate, by inversion.
    fn exponential(rng: &mut SmallRng, rate: f64) -> f64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        -(1.0 - u).ln() / rate
    }

    /// Every arrival time in draw order, unsorted.
    fn arrival_times(process: ArrivalProcess, n: usize, rng: &mut SmallRng) -> Vec<f64> {
        let mut times = Vec::with_capacity(n);
        match process {
            ArrivalProcess::Poisson { rate_jobs_per_s } => {
                let mut t = 0.0;
                for _ in 0..n {
                    t += exponential(rng, rate_jobs_per_s);
                    times.push(t);
                }
            }
            ArrivalProcess::Bursty {
                rate_jobs_per_s,
                burst,
                spread_s,
            } => {
                let burst_rate = rate_jobs_per_s / burst as f64;
                let mut t = 0.0;
                while times.len() < n {
                    t += exponential(rng, burst_rate);
                    for _ in 0..burst.min(n - times.len()) {
                        times.push(t + rng.gen_range(0.0..spread_s.max(1e-9)));
                    }
                }
            }
        }
        times
    }

    /// The eager stream: draw all times, sort them, draw each job's
    /// workload and SLO in sorted order, then move every time through
    /// W⁻¹ of the clauses' cumulative-weight table.
    fn oracle_stream(
        process: ArrivalProcess,
        n: usize,
        pool: &[Workload],
        slo_tightness: (f64, f64),
        seed: u64,
        traffic: &[TrafficClause],
    ) -> Vec<JobSpec> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA1217_F1EE7);
        let taxa: Vec<Taxon> = pool
            .iter()
            .map(|w| taxon_of(&(w.build)(InputSize::Test)))
            .collect();
        let mut arrivals = arrival_times(process, n, &mut rng);
        arrivals.sort_by(f64::total_cmp);
        let mut jobs: Vec<JobSpec> = arrivals
            .into_iter()
            .enumerate()
            .map(|(i, arrival_s)| {
                let k = rng.gen_range(0..pool.len());
                let (lo, hi) = slo_tightness;
                let slo = if hi > lo { rng.gen_range(lo..hi) } else { lo };
                JobSpec {
                    id: i as u32,
                    workload: pool[k],
                    taxon: taxa[k],
                    arrival_s,
                    slo_tightness: slo,
                    seed: seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(i as u64),
                }
            })
            .collect();
        let Some(horizon) = jobs.last().map(|j| j.arrival_s) else {
            return jobs;
        };
        if traffic.is_empty() || horizon <= 0.0 {
            return jobs;
        }
        let segs = traffic_breakpoints(traffic);
        let mut cum = Vec::with_capacity(segs.len() + 1);
        cum.push(0.0);
        for j in 0..segs.len() {
            let end = if j + 1 < segs.len() {
                segs[j + 1].0
            } else {
                1.0
            };
            cum.push(cum[j] + segs[j].1 * (end - segs[j].0));
        }
        let total = *cum.last().unwrap();
        let mut j = 0;
        for job in &mut jobs {
            let target = (job.arrival_s / horizon).clamp(0.0, 1.0) * total;
            if target >= total {
                job.arrival_s = horizon;
                continue;
            }
            while j + 1 < segs.len() && cum[j + 1] <= target {
                j += 1;
            }
            let q = segs[j].0 + (target - cum[j]) / segs[j].1;
            job.arrival_s = (q * horizon).min(horizon);
        }
        jobs
    }

    fn pool() -> Vec<Workload> {
        ["swaptions", "bfs"]
            .iter()
            .map(|n| astro_workloads::by_name(n).unwrap())
            .collect()
    }

    /// Everything a job carries, bit-exact (floats as raw bits).
    fn job_fp(j: &JobSpec) -> (u32, &'static str, Taxon, u64, u64, u64) {
        (
            j.id,
            j.workload.name,
            j.taxon,
            j.arrival_s.to_bits(),
            j.slo_tightness.to_bits(),
            j.seed,
        )
    }

    /// Asserts that the cursor and the batch path both emit the oracle
    /// stream for this configuration.
    fn assert_matches_oracle(
        p: ArrivalProcess,
        n: usize,
        slo: (f64, f64),
        seed: u64,
        traffic: &[TrafficClause],
    ) {
        let want: Vec<_> = oracle_stream(p, n, &pool(), slo, seed, traffic)
            .iter()
            .map(job_fp)
            .collect();
        let batch: Vec<_> = p
            .generate_shaped(n, &pool(), InputSize::Test, slo, seed, traffic)
            .iter()
            .map(job_fp)
            .collect();
        assert_eq!(batch, want, "generate_shaped diverged from the oracle");
        let mut cursor = GenCursor::new(p, n, &pool(), InputSize::Test, slo, seed, traffic);
        let pulled: Vec<_> = std::iter::from_fn(|| cursor.next_job())
            .map(|j| job_fp(&j))
            .collect();
        assert_eq!(pulled, want, "GenCursor diverged from the oracle");
        if traffic.is_empty() {
            let plain: Vec<_> = p
                .generate(n, &pool(), InputSize::Test, slo, seed)
                .iter()
                .map(job_fp)
                .collect();
            assert_eq!(plain, want, "generate diverged from the oracle");
        }
    }

    /// Fixed Poisson and bursty streams, warped and not, plus the empty
    /// stream.
    #[test]
    fn fixed_streams_match_the_eager_oracle() {
        let poisson = ArrivalProcess::Poisson {
            rate_jobs_per_s: 120.0,
        };
        let bursty = ArrivalProcess::Bursty {
            rate_jobs_per_s: 150.0,
            burst: 8,
            spread_s: 0.01,
        };
        let both = ChaosSchedule::new()
            .flash_crowd(0.4, 0.6, 6.0)
            .diurnal(2.0, 0.7, 16);
        assert_matches_oracle(poisson, 80, (3.0, 6.0), 5, &[]);
        for p in [poisson, bursty] {
            assert_matches_oracle(p, 200, (3.0, 6.0), 41, &[]);
            assert_matches_oracle(p, 0, (3.0, 6.0), 41, &both.traffic);
        }
        assert_matches_oracle(bursty, 300, (3.0, 6.0), 9, &both.traffic);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The generator × warp grid of `tests/proptest_cursor.rs`.
        #[test]
        fn streams_match_the_eager_oracle_for_every_generator_and_warp(
            kind in 0u8..2,
            n in 1usize..160,
            rate in 1_000.0f64..500_000.0,
            burst in 1usize..64,
            spread_grid in 0u8..4,
            warp_bits in 0u8..4,
            from_grid in 0u32..80,
            len_grid in 1u32..21,
            seed in 0u64..1_000,
        ) {
            let p = if kind == 0 {
                ArrivalProcess::Poisson {
                    rate_jobs_per_s: rate,
                }
            } else {
                ArrivalProcess::Bursty {
                    rate_jobs_per_s: rate,
                    burst,
                    // Down to 1 ns: bursts collapse onto near-identical
                    // timestamps, where the merge heap's ties must
                    // match the sort exactly.
                    spread_s: [1e-9, 1e-6, 1e-3, 0.1][spread_grid as usize],
                }
            };
            let mut chaos = ChaosSchedule::new();
            if warp_bits & 1 != 0 {
                let from = from_grid as f64 / 100.0;
                let to = (from_grid + len_grid) as f64 / 100.0;
                chaos = chaos.flash_crowd(from, to.min(1.0), 8.0);
            }
            if warp_bits & 2 != 0 {
                chaos = chaos.diurnal(2.5, 0.8, 6);
            }
            assert_matches_oracle(p, n, (3.0, 8.0), seed, &chaos.traffic);
        }
    }
}

/// The key permutation and the fused metrics pass against the sorts
/// they replaced: every record in the same slot and every
/// [`FleetMetrics`](crate::metrics::FleetMetrics) field with the same
/// bits.
mod finish {
    use crate::job::{JobClass, JobOutcome};
    use crate::kernel::order_by_id;
    use crate::metrics::{percentile, FleetMetrics};
    use proptest::prelude::*;

    /// `from_outcomes` as it was: three passes and two stable sorts.
    fn oracle_metrics(
        outcomes: &[JobOutcome],
        board_busy_s: impl IntoIterator<Item = f64>,
        extra_energy_j: f64,
    ) -> FleetMetrics {
        let slo_ratio = |o: &JobOutcome| {
            if o.slo_s > 0.0 {
                o.latency_s() / o.slo_s
            } else {
                f64::INFINITY
            }
        };
        let makespan_s = outcomes.iter().map(|o| o.finish_s).fold(0.0, f64::max);
        let mut latencies: Vec<f64> = outcomes.iter().map(|o| o.latency_s()).collect();
        latencies.sort_by(f64::total_cmp);
        let mut slo_ratios: Vec<f64> = outcomes.iter().map(slo_ratio).collect();
        slo_ratios.sort_by(f64::total_cmp);
        FleetMetrics::assemble(
            outcomes.len(),
            makespan_s,
            latencies.iter().sum::<f64>(),
            outcomes.iter().map(|o| o.energy_j).sum::<f64>() + extra_energy_j,
            [50.0, 95.0, 99.0].map(|q| percentile(&latencies, q)),
            outcomes.iter().filter(|o| !o.slo_met()).count(),
            percentile(&slo_ratios, 99.0),
            board_busy_s,
        )
    }

    /// Every field, floats as raw bits. The exhaustive destructuring
    /// makes a field added later a compile error here.
    fn metric_bits(m: &FleetMetrics) -> Vec<u64> {
        let FleetMetrics {
            jobs,
            makespan_s,
            throughput_jps,
            mean_latency_s,
            p50_s,
            p95_s,
            p99_s,
            slo_misses,
            p99_slo_ratio,
            total_energy_j,
            board_util,
            feedback,
        } = m;
        let mut bits = vec![*jobs as u64, *slo_misses as u64];
        bits.extend(
            [
                makespan_s,
                throughput_jps,
                mean_latency_s,
                p50_s,
                p95_s,
                p99_s,
                p99_slo_ratio,
                total_energy_j,
                &feedback.sum_abs_rel_err,
            ]
            .map(|x| x.to_bits()),
        );
        bits.extend([feedback.samples, feedback.rejected, feedback.mispredicts]);
        bits.extend(board_util.iter().map(|u| u.to_bits()));
        bits
    }

    /// Everything a record carries, floats as raw bits.
    fn record_bits(o: &JobOutcome) -> (u32, &'static str, JobClass, usize, u32, [u64; 7]) {
        (
            o.id,
            o.workload,
            o.class,
            o.board,
            o.migrations,
            [
                o.arrival_s,
                o.start_s,
                o.finish_s,
                o.service_s,
                o.energy_j,
                o.slo_s,
                o.latency_s(),
            ]
            .map(f64::to_bits),
        )
    }

    /// Few arrivals and latencies, so equal codes give latencies with
    /// equal bits (ties), `-0.0` included; the inexact ones make the
    /// latency sum depend on the order it is taken in.
    const ARRIVALS: [f64; 3] = [0.0, 0.25, 1.5];
    const LATENCIES: [f64; 7] = [0.0, 0.1, 0.5, 1.0, 1.0, 3.3, 1e-9];
    /// Positive SLOs; 1.0 and 0.5 tie ratios across latencies.
    const SLOS: [f64; 5] = [1.5, 1.0, 0.5, 2.0, 0.75];
    /// Values whose sum depends on the order it is taken in, `-0.0`
    /// and subnormals.
    const ENERGIES: [f64; 7] = [0.1, 0.7, 1e16, 1e-17, -0.0, 5e-324, f64::MIN_POSITIVE / 4.0];

    /// Raw draws for `len` records: (draw, latency, SLO, energy codes).
    fn records(len: std::ops::Range<usize>) -> BoxedStrategy<Vec<(u32, u8, u8, u8)>> {
        prop::collection::vec((0u32..1 << 20, 0u8..7, 0u8..5, 0u8..7), len)
    }

    /// Builds outcomes from raw draws. `id_mode` picks the id shape:
    /// 0 heavy duplicates, 1 sparse gappy ids, 2 a shuffled dense
    /// range, 3 ids at the top of the `u32` range. One record in about
    /// `impossible` gets a zero or negative SLO, which scores an
    /// `INFINITY` ratio (none when 0); rare ones leave the p99 ratio
    /// finite, so its rank is checked too.
    fn outcomes(id_mode: u8, impossible: u32, raw: &[(u32, u8, u8, u8)]) -> Vec<JobOutcome> {
        let mut shuffled: Vec<usize> = (0..raw.len()).collect();
        shuffled.sort_by_key(|&i| raw[i].0);
        raw.iter()
            .enumerate()
            .map(|(i, &(draw, lat, slo, energy))| {
                let id = match id_mode {
                    0 => draw % 4,
                    1 => draw,
                    2 => shuffled[i] as u32,
                    _ => u32::MAX - draw % 6,
                };
                let arrival_s = ARRIVALS[draw as usize % ARRIVALS.len()];
                let latency = LATENCIES[lat as usize % LATENCIES.len()];
                // A zero latency at zero arrival finishes at -0.0.
                let finish_s = if latency == 0.0 && arrival_s == 0.0 && draw % 2 == 0 {
                    -0.0
                } else {
                    arrival_s + latency
                };
                JobOutcome {
                    id,
                    workload: ["w0", "w1"][draw as usize % 2],
                    class: JobClass::Mixed,
                    board: draw as usize % 3,
                    arrival_s,
                    start_s: arrival_s,
                    finish_s,
                    service_s: latency,
                    energy_j: ENERGIES[energy as usize % ENERGIES.len()],
                    slo_s: if impossible > 0 && draw % impossible == 0 {
                        [0.0, -1.0][(draw / impossible) as usize % 2]
                    } else {
                        SLOS[slo as usize % SLOS.len()]
                    },
                    // The generation index: duplicate ids stay told apart.
                    migrations: i as u32,
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn finish_matches_the_sorting_oracle(
            id_mode in 0u8..4,
            impossible in 0u32..40,
            raw in prop_oneof![records(0..3), records(0..80), records(100..400)],
            busy in prop::collection::vec(0.0f64..10.0, 0..4),
            extra in 0u8..3,
        ) {
            let extra_energy_j = [0.0, -0.0, 0.5][extra as usize];
            let kept = outcomes(id_mode, impossible, &raw);

            let mut want = kept.clone();
            want.sort_by_key(|o| o.id);
            let mut got = kept.clone();
            order_by_id(&mut got);
            prop_assert_eq!(
                got.iter().map(record_bits).collect::<Vec<_>>(),
                want.iter().map(record_bits).collect::<Vec<_>>()
            );

            // In id order, as the kernel passes them, and in generation
            // order: the energy sum's bits follow the slice order, the
            // rest ignore it.
            for slice in [&want, &kept] {
                prop_assert_eq!(
                    metric_bits(&FleetMetrics::from_outcomes(
                        slice,
                        busy.iter().copied(),
                        extra_energy_j
                    )),
                    metric_bits(&oracle_metrics(slice, busy.iter().copied(), extra_energy_j))
                );
            }
        }
    }
}
