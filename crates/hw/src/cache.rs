//! Set-associative cache hierarchy with true LRU replacement.
//!
//! Layout mirrors the Exynos 5422: a private L1 data cache per core and
//! one shared L2 per cluster. The execution engine feeds each simulated
//! memory instruction's address here; the outcome (L1 / L2 / DRAM)
//! determines the instruction's latency and feeds the `CMA`/`CMI`
//! performance counters of §3.1.2.

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
}

impl CacheParams {
    /// 32 KiB, 4-way, 64-B lines — an L1D.
    pub const L1_32K: CacheParams = CacheParams {
        size_bytes: 32 * 1024,
        line_bytes: 64,
        ways: 4,
    };
    /// 2 MiB, 16-way — the big cluster's L2.
    pub const L2_2M: CacheParams = CacheParams {
        size_bytes: 2 * 1024 * 1024,
        line_bytes: 64,
        ways: 16,
    };
    /// 512 KiB, 8-way — the LITTLE cluster's L2.
    pub const L2_512K: CacheParams = CacheParams {
        size_bytes: 512 * 1024,
        line_bytes: 64,
        ways: 8,
    };

    /// Number of sets.
    pub fn num_sets(self) -> u64 {
        self.size_bytes / (self.line_bytes * self.ways as u64)
    }
}

/// Where an access was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Hit in the private L1.
    L1,
    /// Missed L1, hit the cluster L2.
    L2,
    /// Missed both; went to DRAM.
    Dram,
}

/// Hit/miss statistics of one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio (0 if never accessed).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// One set-associative cache with true-LRU replacement.
///
/// Ways fill in index order, so each set keeps a fill count instead of
/// marking invalid ways: only its first `fill` ways are ever read, the
/// tag and stamp arrays start as plain zeroed allocations, and `flush`
/// resets the counts alone. A full set evicts its first way with the
/// oldest stamp.
///
/// Which lines are resident, and so every hit or miss, is exactly that
/// of a cache that marks every way invalid and fills the oldest-stamped
/// way first: invalid ways always carry older stamps than valid ones.
#[derive(Clone, Debug)]
struct Cache {
    params: CacheParams,
    set_mask: u64,
    line_shift: u32,
    /// `set_mask.count_ones()`: shift from line number to tag.
    tag_shift: u32,
    /// `tags[set * ways + way]`, valid for `way < fill[set]`.
    tags: Vec<u64>,
    /// Monotone LRU timestamps, parallel to `tags`.
    stamps: Vec<u64>,
    /// Valid ways per set, filled in index order.
    fill: Vec<u32>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    fn new(params: CacheParams) -> Self {
        let sets = params.num_sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(params.line_bytes.is_power_of_two());
        let n = (sets * params.ways as u64) as usize;
        Cache {
            params,
            set_mask: sets - 1,
            line_shift: params.line_bytes.trailing_zeros(),
            tag_shift: (sets - 1).count_ones(),
            tags: vec![0; n],
            stamps: vec![0; n],
            fill: vec![0; sets as usize],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Look `addr` up; on miss, fill (evicting LRU). Returns hit?.
    #[inline]
    fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let line = addr >> self.line_shift;
        let tag = line >> self.tag_shift;
        let ways = self.params.ways as usize;
        let set = (line & self.set_mask) as usize;
        let base = set * ways;
        let fill = self.fill[set] as usize;
        let tags = &mut self.tags[base..base + ways];
        let stamps = &mut self.stamps[base..base + ways];

        let victim = if fill < ways {
            if let Some(w) = tags[..fill].iter().position(|&t| t == tag) {
                stamps[w] = self.clock;
                return true;
            }
            self.fill[set] += 1;
            fill
        } else {
            // Full set: look the tag up and track the first oldest way
            // in one pass.
            let (mut victim, mut oldest) = (0, u64::MAX);
            for w in 0..ways {
                if tags[w] == tag {
                    stamps[w] = self.clock;
                    return true;
                }
                if stamps[w] < oldest {
                    (victim, oldest) = (w, stamps[w]);
                }
            }
            victim
        };
        self.stats.misses += 1;
        tags[victim] = tag;
        stamps[victim] = self.clock;
        false
    }

    fn flush(&mut self) {
        self.fill.fill(0);
    }
}

/// The two-level hierarchy of one cluster-attached core: a private L1
/// backed by a (conceptually shared) L2.
///
/// Sharing note: the execution engine keeps one `CacheHierarchy` per
/// *core* and one L2 per *cluster* would require interior mutability
/// across cores; since the simulator is single-threaded and cores run
/// interleaved, the engine instead instantiates the L2 per core with the
/// cluster's geometry and divides its capacity by the number of active
/// sharers — a standard analytic approximation of destructive sharing
/// that keeps the model deterministic.
#[derive(Clone, Debug)]
pub struct CacheHierarchy {
    l1: Cache,
    l2: Cache,
}

impl CacheHierarchy {
    /// Build a hierarchy from L1/L2 geometries.
    pub fn new(l1: CacheParams, l2: CacheParams) -> Self {
        CacheHierarchy {
            l1: Cache::new(l1),
            l2: Cache::new(l2),
        }
    }

    /// L2 geometry scaled down for `sharers` cores contending on it.
    pub fn with_l2_sharers(l1: CacheParams, l2: CacheParams, sharers: u32) -> Self {
        let sharers = sharers.max(1);
        // Keep ways/line fixed; shrink capacity to the next power-of-two
        // sets count.
        let mut size = l2.size_bytes / sharers as u64;
        let min = l2.line_bytes * l2.ways as u64; // one set minimum
        if size < min {
            size = min;
        }
        let sets = (size / (l2.line_bytes * l2.ways as u64)).next_power_of_two();
        let scaled = CacheParams {
            size_bytes: sets * l2.line_bytes * l2.ways as u64,
            ..l2
        };
        CacheHierarchy::new(l1, scaled)
    }

    /// Access `addr`, updating both levels (look-through on L1 miss).
    #[inline]
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        if self.l1.access(addr) {
            AccessOutcome::L1
        } else if self.l2.access(addr) {
            AccessOutcome::L2
        } else {
            AccessOutcome::Dram
        }
    }

    /// L1 statistics.
    pub fn l1_stats(&self) -> CacheStats {
        self.l1.stats
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats
    }

    /// Invalidate all lines (e.g. after a thread migration between
    /// clusters, whose cost the engine models explicitly).
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_sets() {
        assert_eq!(CacheParams::L1_32K.num_sets(), 128);
        assert_eq!(CacheParams::L2_2M.num_sets(), 2048);
    }

    #[test]
    fn repeated_access_hits_l1() {
        let mut h = CacheHierarchy::new(CacheParams::L1_32K, CacheParams::L2_512K);
        assert_eq!(h.access(0x1000), AccessOutcome::Dram, "cold miss");
        assert_eq!(h.access(0x1000), AccessOutcome::L1);
        assert_eq!(h.access(0x1008), AccessOutcome::L1, "same line");
        assert_eq!(h.l1_stats().accesses, 3);
        assert_eq!(h.l1_stats().misses, 1);
    }

    #[test]
    fn working_set_bigger_than_l1_falls_to_l2() {
        let mut h = CacheHierarchy::new(CacheParams::L1_32K, CacheParams::L2_512K);
        // Touch 64 KiB twice: second sweep must hit L2, not L1 (LRU has
        // evicted the early lines from the 32 KiB L1 by wraparound).
        let lines = (64 * 1024) / 64;
        for i in 0..lines {
            h.access(i * 64);
        }
        let mut l2_hits = 0;
        for i in 0..lines {
            if h.access(i * 64) == AccessOutcome::L2 {
                l2_hits += 1;
            }
        }
        assert_eq!(l2_hits, lines, "second sweep entirely from L2");
    }

    #[test]
    fn lru_keeps_hot_line() {
        // Fill one set (4 ways), keep touching way-0's line, then insert a
        // 5th line: the evicted one must not be the hot line.
        let p = CacheParams::L1_32K; // 128 sets → set stride 64*128 = 8192
        let mut h = CacheHierarchy::new(p, CacheParams::L2_2M);
        let stride = 64 * 128;
        for w in 0..4u64 {
            h.access(w * stride); // all map to set 0
        }
        h.access(0); // make line 0 most-recently-used
        h.access(4 * stride); // evicts LRU (line at 1*stride)
        assert_eq!(h.access(0), AccessOutcome::L1, "hot line survived");
        assert_ne!(h.access(stride), AccessOutcome::L1, "cold line evicted");
    }

    #[test]
    fn flush_invalidates() {
        let mut h = CacheHierarchy::new(CacheParams::L1_32K, CacheParams::L2_512K);
        h.access(0x40);
        h.flush();
        assert_eq!(h.access(0x40), AccessOutcome::Dram);
    }

    #[test]
    fn l2_sharing_shrinks_capacity() {
        let solo = CacheHierarchy::with_l2_sharers(CacheParams::L1_32K, CacheParams::L2_2M, 1);
        let shared = CacheHierarchy::with_l2_sharers(CacheParams::L1_32K, CacheParams::L2_2M, 4);
        assert!(shared.l2.params.size_bytes < solo.l2.params.size_bytes);
        assert_eq!(shared.l2.params.size_bytes, 512 * 1024);
    }

    #[test]
    fn miss_ratio_zero_when_unused() {
        let h = CacheHierarchy::new(CacheParams::L1_32K, CacheParams::L2_512K);
        assert_eq!(h.l1_stats().miss_ratio(), 0.0);
    }
}
