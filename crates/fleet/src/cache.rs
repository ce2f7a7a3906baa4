//! The shared policy cache: "compile once, schedule everywhere" at
//! fleet scale.
//!
//! Astro's learned static schedule maps *program phases* to hardware
//! configurations, so it is workload-agnostic within a taxonomy class:
//! a policy trained on one CPU-heavy tenant transfers to every other
//! CPU-heavy tenant on the same board architecture. The cache stores,
//! per `(taxon, architecture)`, the synthesised schedule plus the
//! Q-network snapshot it came from; hits skip training entirely, and
//! entries past the staleness limit are refreshed by a short
//! warm-started retraining (see [`astro_core::pipeline::AstroPipeline::train_warm`]).
//!
//! A bounded cache (`capacity > 0`) evicts least-recently-used lines.
//! Because (re)training is *asynchronous* — the artefact lands after the
//! triggering lookup — a refresh can arrive for a line that eviction
//! already removed. That case is handled, not panicked on: the artefact
//! is reinstalled as a fresh line whose version number *continues* from
//! the evicted line's (saturating, never wrapping back to 0), so
//! version-keyed consumer state (compiled static binaries, profiles)
//! can never alias a stale schedule. The eviction traffic is returned in
//! [`CacheStats`].

use crate::job::Taxon;
use crate::lines::{ArchId, LineId, LineKeys};
use astro_core::schedule::StaticSchedule;
use astro_rl::qlearn::PolicySnapshot;

/// Hit/miss/staleness/eviction accounting. All counters saturate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups served. Invariant:
    /// `lookups == hits + misses + stale_refreshes`.
    pub lookups: u64,
    /// Lookups answered by a fresh entry (no training).
    pub hits: u64,
    /// Lookups with no entry (full training).
    pub misses: u64,
    /// Lookups whose entry had aged past the staleness limit and was
    /// refreshed by a warm-started retraining.
    pub stale_refreshes: u64,
    /// Entries evicted to keep the cache within its capacity.
    pub evictions: u64,
    /// Refreshes that landed on an already-evicted line (the
    /// asynchronous retraining outlived it) and were reinstalled as
    /// fresh inserts.
    pub evicted_refreshes: u64,
}

impl CacheStats {
    /// Fraction of lookups that needed no full training.
    pub fn warm_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.stale_refreshes;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.stale_refreshes) as f64 / total as f64
        }
    }
}

/// One cached policy.
#[derive(Clone, Debug)]
pub struct PolicyEntry {
    /// The schedule final codegen imprints (indices in the entry's
    /// architecture's configuration space).
    pub schedule: StaticSchedule,
    /// The Q-network that produced it, for warm-started refreshes.
    pub snapshot: PolicySnapshot,
    /// Bumped (saturating) on every refresh; lets consumers invalidate
    /// derived state (compiled static binaries, profiles). Never reused
    /// across an evict/reinstall cycle of the same key.
    pub version: u32,
    /// Lookups served since the last (re)training.
    pub uses: u32,
    /// LRU stamp: the cache clock at the last touch.
    last_use: u64,
}

/// What a lookup tells the caller to do.
#[derive(Clone, Debug)]
pub enum CacheDecision {
    /// Use this schedule as-is.
    Hit(StaticSchedule, u32),
    /// Entry exists but aged out: retrain warm-started from this
    /// snapshot, then call [`PolicyCache::refresh`].
    Stale(PolicySnapshot),
    /// Nothing cached: train cold, then call [`PolicyCache::insert`].
    Miss,
}

/// The fleet-wide policy cache.
///
/// Lines live in dense tables addressed by a line id computed from the
/// taxon and an interned architecture (the crate's `lines` module).
/// The keyed methods intern the architecture and compute the id; the
/// kernel interns its architectures once and addresses lines by id
/// directly. Encoding and LRU tie-breaks walk the lines in
/// `(Taxon, architecture name)` order.
#[derive(Clone, Debug)]
pub struct PolicyCache {
    keys: LineKeys,
    /// Live lines, indexed by `LineId`. Boxed, so an empty slot of the
    /// dense table costs a pointer, not an entry.
    entries: Vec<Option<Box<PolicyEntry>>>,
    /// Live lines in `entries`.
    live: usize,
    /// Last version of lines that were evicted, so a reinstall
    /// continues the numbering instead of restarting at 0.
    retired_versions: Vec<Option<u32>>,
    /// Uses after which an entry must be refreshed before being served
    /// again. `0` disables staleness (entries never expire).
    pub staleness_limit: u32,
    /// Maximum number of lines. `0` = unbounded.
    pub capacity: usize,
    /// Monotone LRU clock (saturating).
    clock: u64,
    /// Accounting.
    pub stats: CacheStats,
}

impl PolicyCache {
    /// An unbounded cache with the given staleness limit.
    pub fn new(staleness_limit: u32) -> Self {
        Self::with_capacity(staleness_limit, 0)
    }

    /// A cache holding at most `capacity` lines (`0` = unbounded),
    /// evicting least-recently-used lines on overflow.
    pub fn with_capacity(staleness_limit: u32, capacity: usize) -> Self {
        PolicyCache {
            keys: LineKeys::default(),
            entries: Vec::new(),
            live: 0,
            retired_versions: Vec::new(),
            staleness_limit,
            capacity,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Intern `arch`, so lines on it can be addressed by
    /// `LineId::new`.
    pub(crate) fn intern_arch(&mut self, arch: &'static str) -> ArchId {
        let a = self.keys.intern(arch);
        self.entries.resize_with(self.keys.lines(), || None);
        self.retired_versions.resize(self.keys.lines(), None);
        a
    }

    fn line(&mut self, taxon: Taxon, arch: &'static str) -> LineId {
        LineId::new(taxon, self.intern_arch(arch))
    }

    fn tick(&mut self) -> u64 {
        self.clock = self.clock.saturating_add(1);
        self.clock
    }

    /// Start the LRU clock at `clock`, so a test can reach saturation.
    #[cfg(test)]
    pub(crate) fn fast_forward_clock(&mut self, clock: u64) {
        self.clock = clock;
    }

    /// Look `(taxon, arch)` up, updating accounting. A `Hit` also counts
    /// a use against the staleness limit.
    pub fn lookup(&mut self, taxon: Taxon, arch: &'static str) -> CacheDecision {
        let id = self.line(taxon, arch);
        self.lookup_line(id)
    }

    /// [`PolicyCache::lookup`] by line id.
    pub(crate) fn lookup_line(&mut self, id: LineId) -> CacheDecision {
        self.stats.lookups = self.stats.lookups.saturating_add(1);
        let stamp = self.tick();
        match &mut self.entries[id.at()] {
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

    /// Evict the least-recently-used line (ties broken by key order) to
    /// make room. Remembers its version for a possible reinstall.
    fn evict_lru(&mut self) {
        let mut victim: Option<(u64, LineId)> = None;
        for (id, _, _) in self.keys.ordered() {
            if let Some(e) = &self.entries[id.at()] {
                if victim.is_none_or(|(stamp, _)| e.last_use < stamp) {
                    victim = Some((e.last_use, id));
                }
            }
        }
        if let Some((_, id)) = victim {
            let e = self.entries[id.at()].take().expect("victim exists");
            self.live -= 1;
            let retired = self.retired_versions[id.at()].get_or_insert(0);
            *retired = (*retired).max(e.version);
            self.stats.evictions = self.stats.evictions.saturating_add(1);
        }
    }

    /// Version a (re)installed line should carry: one past the highest
    /// version this key has ever shipped — whether that version is
    /// retired (evicted) or still resident (an `insert` replacing a
    /// live line) — saturating at `u32::MAX` rather than wrapping. A
    /// reused version would alias consumers' version-keyed derived
    /// state.
    fn next_version(&self, id: LineId) -> u32 {
        let retired = self.retired_versions[id.at()].map(|v| v.saturating_add(1));
        let resident = self.entries[id.at()]
            .as_ref()
            .map(|e| e.version.saturating_add(1));
        retired.into_iter().chain(resident).max().unwrap_or(0)
    }

    /// Install a freshly trained policy after a `Miss`.
    pub fn insert(
        &mut self,
        taxon: Taxon,
        arch: &'static str,
        schedule: StaticSchedule,
        snapshot: PolicySnapshot,
    ) {
        let id = self.line(taxon, arch);
        self.insert_line(id, schedule, snapshot);
    }

    /// [`PolicyCache::insert`] by line id.
    pub(crate) fn insert_line(
        &mut self,
        id: LineId,
        schedule: StaticSchedule,
        snapshot: PolicySnapshot,
    ) {
        if self.capacity > 0 && self.entries[id.at()].is_none() && self.live >= self.capacity {
            self.evict_lru();
        }
        let version = self.next_version(id);
        let stamp = self.tick();
        let old = self.entries[id.at()].replace(Box::new(PolicyEntry {
            schedule,
            snapshot,
            version,
            uses: 1,
            last_use: stamp,
        }));
        if old.is_none() {
            self.live += 1;
        }
    }

    /// Replace a stale entry after a warm retraining; bumps the version
    /// (saturating). If the line was evicted while the asynchronous
    /// retraining ran, the artefact is reinstalled as a fresh line whose
    /// version continues from the evicted one, and the event is counted
    /// in [`CacheStats::evicted_refreshes`].
    pub fn refresh(
        &mut self,
        taxon: Taxon,
        arch: &'static str,
        schedule: StaticSchedule,
        snapshot: PolicySnapshot,
    ) {
        let id = self.line(taxon, arch);
        self.refresh_line(id, schedule, snapshot);
    }

    /// [`PolicyCache::refresh`] by line id.
    pub(crate) fn refresh_line(
        &mut self,
        id: LineId,
        schedule: StaticSchedule,
        snapshot: PolicySnapshot,
    ) {
        let stamp = self.tick();
        match &mut self.entries[id.at()] {
            Some(e) => {
                e.schedule = schedule;
                e.snapshot = snapshot;
                e.version = e.version.saturating_add(1);
                e.uses = 1;
                e.last_use = stamp;
            }
            None => {
                self.stats.evicted_refreshes = self.stats.evicted_refreshes.saturating_add(1);
                self.insert_line(id, schedule, snapshot);
            }
        }
    }

    /// Is a fresh (non-stale) policy available for `(taxon, arch)`?
    /// Read-only: no accounting.
    pub fn is_warm(&self, taxon: Taxon, arch: &'static str) -> bool {
        self.warm_peek(taxon, arch).is_some()
    }

    /// Fresh-entry read: `Some` exactly when [`PolicyCache::is_warm`],
    /// with the entry itself. Read-only: no accounting.
    pub fn warm_peek(&self, taxon: Taxon, arch: &'static str) -> Option<&PolicyEntry> {
        self.warm_line(self.keys.line(taxon, arch)?)
    }

    /// [`PolicyCache::warm_peek`] by line id.
    pub(crate) fn warm_line(&self, id: LineId) -> Option<&PolicyEntry> {
        self.entries[id.at()]
            .as_deref()
            .filter(|e| self.staleness_limit == 0 || e.uses < self.staleness_limit)
    }

    /// Read an entry without accounting or staleness handling (service
    /// estimation, reporting).
    pub fn peek(&self, taxon: Taxon, arch: &'static str) -> Option<&PolicyEntry> {
        self.entries[self.keys.line(taxon, arch)?.at()].as_deref()
    }

    /// Serialise the full cache for a kernel checkpoint: configuration,
    /// clock, accounting, live lines (with LRU stamps) and retired
    /// version watermarks, each in `(Taxon, architecture name)` order.
    pub(crate) fn encode(&self, enc: &mut crate::checkpoint::Enc) {
        enc.u32(self.staleness_limit);
        enc.usize(self.capacity);
        enc.u64(self.clock);
        enc.u64(self.stats.lookups);
        enc.u64(self.stats.hits);
        enc.u64(self.stats.misses);
        enc.u64(self.stats.stale_refreshes);
        enc.u64(self.stats.evictions);
        enc.u64(self.stats.evicted_refreshes);
        enc.usize(self.live);
        for (id, taxon, arch) in self.keys.ordered() {
            if let Some(e) = &self.entries[id.at()] {
                crate::checkpoint::enc_taxon(enc, taxon);
                enc.str(arch);
                crate::checkpoint::enc_schedule(enc, &e.schedule);
                crate::checkpoint::enc_snapshot(enc, &e.snapshot);
                enc.u32(e.version);
                enc.u32(e.uses);
                enc.u64(e.last_use);
            }
        }
        enc.usize(self.retired_versions.iter().flatten().count());
        for (id, taxon, arch) in self.keys.ordered() {
            if let Some(v) = self.retired_versions[id.at()] {
                crate::checkpoint::enc_taxon(enc, taxon);
                enc.str(arch);
                enc.u32(v);
            }
        }
    }

    /// This cache's checkpoint section as standalone bytes: exactly what
    /// [`ResidentKernel::checkpoint`](crate::ResidentKernel::checkpoint)
    /// embeds for it.
    pub fn encoded(&self) -> Vec<u8> {
        let mut enc = crate::checkpoint::Enc::new();
        self.encode(&mut enc);
        enc.finish()
    }

    /// Decode a cache serialised by [`PolicyCache::encode`].
    pub(crate) fn decode(
        dec: &mut crate::checkpoint::Dec<'_>,
        arch_keys: &[&'static str],
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        use crate::checkpoint::CheckpointError;
        let staleness_limit = dec.u32()?;
        let capacity = dec.usize()?;
        let mut cache = PolicyCache::with_capacity(staleness_limit, capacity);
        cache.clock = dec.u64()?;
        cache.stats = CacheStats {
            lookups: dec.u64()?,
            hits: dec.u64()?,
            misses: dec.u64()?,
            stale_refreshes: dec.u64()?,
            evictions: dec.u64()?,
            evicted_refreshes: dec.u64()?,
        };
        let n = dec.count(8)?;
        for _ in 0..n {
            let taxon = crate::checkpoint::dec_taxon(dec)?;
            let arch = dec.str()?;
            let id = cache.line(taxon, crate::checkpoint::resolve_arch(arch_keys, &arch)?);
            let entry = Box::new(PolicyEntry {
                schedule: crate::checkpoint::dec_schedule(dec)?,
                snapshot: crate::checkpoint::dec_snapshot(dec)?,
                version: dec.u32()?,
                uses: dec.u32()?,
                last_use: dec.u64()?,
            });
            if cache.entries[id.at()].replace(entry).is_some() {
                return Err(CheckpointError::Corrupt("duplicate cache line"));
            }
            cache.live += 1;
        }
        if capacity > 0 && cache.live > capacity {
            return Err(CheckpointError::Corrupt("cache lines exceed capacity"));
        }
        let n = dec.count(8)?;
        for _ in 0..n {
            let taxon = crate::checkpoint::dec_taxon(dec)?;
            let arch = dec.str()?;
            let id = cache.line(taxon, crate::checkpoint::resolve_arch(arch_keys, &arch)?);
            if cache.retired_versions[id.at()]
                .replace(dec.u32()?)
                .is_some()
            {
                return Err(CheckpointError::Corrupt("duplicate retired version"));
            }
        }
        Ok(cache)
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobClass;
    use astro_compiler::ProgramPhase;

    fn taxon(class: JobClass) -> Taxon {
        Taxon {
            class,
            signature: 2,
        }
    }

    fn sig_taxon(signature: u8) -> Taxon {
        Taxon {
            class: JobClass::Mixed,
            signature,
        }
    }

    fn schedule(c: usize) -> StaticSchedule {
        StaticSchedule {
            config_for_phase: [c; ProgramPhase::COUNT],
        }
    }

    fn snapshot() -> PolicySnapshot {
        PolicySnapshot {
            state_dim: 2,
            num_actions: 2,
            params: vec![0.0; 10],
        }
    }

    #[test]
    fn miss_insert_hit_cycle() {
        let mut c = PolicyCache::new(0);
        assert!(matches!(
            c.lookup(taxon(JobClass::CpuHeavy), "XU4"),
            CacheDecision::Miss
        ));
        c.insert(taxon(JobClass::CpuHeavy), "XU4", schedule(3), snapshot());
        match c.lookup(taxon(JobClass::CpuHeavy), "XU4") {
            CacheDecision::Hit(s, v) => {
                assert_eq!(s, schedule(3));
                assert_eq!(v, 0);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        // Other classes and other architectures are separate keys.
        assert!(matches!(
            c.lookup(taxon(JobClass::MemIo), "XU4"),
            CacheDecision::Miss
        ));
        assert!(matches!(
            c.lookup(taxon(JobClass::CpuHeavy), "RK"),
            CacheDecision::Miss
        ));
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 3);
        assert_eq!(c.stats.lookups, 4);
        assert_eq!(c.stats.evictions, 0);
    }

    #[test]
    fn staleness_forces_refresh_and_bumps_version() {
        let mut c = PolicyCache::new(3);
        c.lookup(taxon(JobClass::Mixed), "XU4"); // miss
        c.insert(taxon(JobClass::Mixed), "XU4", schedule(1), snapshot());
        // insert counted one use; two more hits reach the limit.
        for _ in 0..2 {
            assert!(matches!(
                c.lookup(taxon(JobClass::Mixed), "XU4"),
                CacheDecision::Hit(..)
            ));
        }
        assert!(!c.is_warm(taxon(JobClass::Mixed), "XU4"));
        match c.lookup(taxon(JobClass::Mixed), "XU4") {
            CacheDecision::Stale(snap) => assert_eq!(snap.params.len(), 10),
            other => panic!("expected stale, got {other:?}"),
        }
        c.refresh(taxon(JobClass::Mixed), "XU4", schedule(2), snapshot());
        match c.lookup(taxon(JobClass::Mixed), "XU4") {
            CacheDecision::Hit(s, v) => {
                assert_eq!(s, schedule(2));
                assert_eq!(v, 1);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(c.stats.stale_refreshes, 1);
        assert!((c.stats.warm_rate() - 4.0 / 5.0).abs() < 1e-12);
        assert_eq!(
            c.stats.lookups,
            c.stats.hits + c.stats.misses + c.stats.stale_refreshes
        );
    }

    #[test]
    fn zero_limit_never_goes_stale() {
        let mut c = PolicyCache::new(0);
        c.lookup(taxon(JobClass::CpuHeavy), "XU4");
        c.insert(taxon(JobClass::CpuHeavy), "XU4", schedule(0), snapshot());
        for _ in 0..100 {
            assert!(matches!(
                c.lookup(taxon(JobClass::CpuHeavy), "XU4"),
                CacheDecision::Hit(..)
            ));
        }
        assert!(c.is_warm(taxon(JobClass::CpuHeavy), "XU4"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn capacity_evicts_lru_and_counts_it() {
        let mut c = PolicyCache::with_capacity(0, 2);
        c.insert(sig_taxon(0), "XU4", schedule(0), snapshot());
        c.insert(sig_taxon(1), "XU4", schedule(1), snapshot());
        // Touch line 0 so line 1 is the LRU victim.
        assert!(matches!(
            c.lookup(sig_taxon(0), "XU4"),
            CacheDecision::Hit(..)
        ));
        c.insert(sig_taxon(2), "XU4", schedule(2), snapshot());
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats.evictions, 1);
        assert!(c.peek(sig_taxon(1), "XU4").is_none(), "LRU line evicted");
        assert!(c.peek(sig_taxon(0), "XU4").is_some());
        assert!(c.peek(sig_taxon(2), "XU4").is_some());
    }

    #[test]
    fn refresh_after_eviction_reinstalls_and_continues_versions() {
        let mut c = PolicyCache::with_capacity(2, 1);
        c.insert(sig_taxon(0), "XU4", schedule(0), snapshot());
        c.lookup(sig_taxon(0), "XU4"); // second use → stale next time
        match c.lookup(sig_taxon(0), "XU4") {
            CacheDecision::Stale(_) => {}
            other => panic!("expected stale, got {other:?}"),
        }
        // While the warm retraining runs asynchronously, capacity
        // pressure replaces the line.
        c.insert(sig_taxon(1), "XU4", schedule(1), snapshot());
        assert_eq!(c.stats.evictions, 1);
        assert!(c.peek(sig_taxon(0), "XU4").is_none());
        // The refresh lands on the evicted line: reinstalled, version
        // continues past the retired line's 0 (no restart, no wrap).
        c.refresh(sig_taxon(0), "XU4", schedule(3), snapshot());
        assert_eq!(c.stats.evicted_refreshes, 1);
        assert_eq!(
            c.stats.evictions, 2,
            "the reinstall itself evicted the other line"
        );
        let e = c.peek(sig_taxon(0), "XU4").expect("reinstalled");
        assert_eq!(e.version, 1, "version continues, never reused");
        assert_eq!(e.schedule, schedule(3));
    }

    #[test]
    fn insert_on_resident_key_never_reuses_a_version() {
        let mut c = PolicyCache::new(0);
        c.insert(sig_taxon(0), "XU4", schedule(0), snapshot());
        for _ in 0..5 {
            c.refresh(sig_taxon(0), "XU4", schedule(1), snapshot());
        }
        assert_eq!(c.peek(sig_taxon(0), "XU4").unwrap().version, 5);
        // A fresh install over the live line must move past it, not
        // restart at 0 (version 0 still keys consumers' derived state).
        c.insert(sig_taxon(0), "XU4", schedule(2), snapshot());
        assert_eq!(c.peek(sig_taxon(0), "XU4").unwrap().version, 6);
    }

    #[test]
    fn version_saturates_instead_of_wrapping() {
        let mut c = PolicyCache::new(0);
        c.insert(sig_taxon(0), "XU4", schedule(0), snapshot());
        // Force the version counter to the top, then refresh twice: it
        // must pin at u32::MAX, not wrap to 0 (version 0 still keys live
        // consumer state from the original install).
        let id = c.line(sig_taxon(0), "XU4");
        c.entries[id.at()].as_mut().unwrap().version = u32::MAX - 1;
        c.refresh(sig_taxon(0), "XU4", schedule(1), snapshot());
        assert_eq!(c.peek(sig_taxon(0), "XU4").unwrap().version, u32::MAX);
        c.refresh(sig_taxon(0), "XU4", schedule(2), snapshot());
        assert_eq!(c.peek(sig_taxon(0), "XU4").unwrap().version, u32::MAX);
    }
}
