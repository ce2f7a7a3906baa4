//! The cache hierarchy against a reference model: an eager-invalidate
//! true-LRU cache that initialises every tag to "invalid", resets every
//! tag on `flush`, and picks its victim in one scan over all ways (the
//! first way with the oldest stamp). Over random geometries, L2 sharer
//! counts, address streams and interleaved flushes, every access must
//! be satisfied at the same level and both levels' statistics must
//! agree.

use astro_hw::cache::{AccessOutcome, CacheHierarchy, CacheParams, CacheStats};
use proptest::prelude::*;

/// The reference set-associative cache.
struct OracleCache {
    ways: usize,
    set_mask: u64,
    line_shift: u32,
    /// `u64::MAX` = invalid.
    tags: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    stats: CacheStats,
}

impl OracleCache {
    fn new(p: CacheParams) -> Self {
        let sets = p.num_sets();
        let n = (sets * p.ways as u64) as usize;
        OracleCache {
            ways: p.ways as usize,
            set_mask: sets - 1,
            line_shift: p.line_bytes.trailing_zeros(),
            tags: vec![u64::MAX; n],
            stamps: vec![0; n],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        let base = set * self.ways;
        let mut victim = base;
        let mut oldest = u64::MAX;
        for i in base..base + self.ways {
            if self.tags[i] == tag {
                self.stamps[i] = self.clock;
                return true;
            }
            if self.stamps[i] < oldest {
                oldest = self.stamps[i];
                victim = i;
            }
        }
        self.stats.misses += 1;
        self.tags[victim] = tag;
        self.stamps[victim] = self.clock;
        false
    }

    fn flush(&mut self) {
        self.tags.fill(u64::MAX);
    }
}

struct OracleHierarchy {
    l1: OracleCache,
    l2: OracleCache,
}

impl OracleHierarchy {
    /// Mirrors `CacheHierarchy::with_l2_sharers`' geometry scaling.
    fn with_l2_sharers(l1: CacheParams, l2: CacheParams, sharers: u32) -> Self {
        let set_bytes = l2.line_bytes * l2.ways as u64;
        let size = (l2.size_bytes / sharers.max(1) as u64).max(set_bytes);
        let sets = (size / set_bytes).next_power_of_two();
        OracleHierarchy {
            l1: OracleCache::new(l1),
            l2: OracleCache::new(CacheParams {
                size_bytes: sets * set_bytes,
                ..l2
            }),
        }
    }

    fn access(&mut self, addr: u64) -> AccessOutcome {
        if self.l1.access(addr) {
            AccessOutcome::L1
        } else if self.l2.access(addr) {
            AccessOutcome::L2
        } else {
            AccessOutcome::Dram
        }
    }

    fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
    }
}

/// A power-of-two geometry: `2^line_log` -byte lines, `ways` ways and
/// `2^sets_log` sets.
fn params(line_log: u32, ways: u32, sets_log: u32) -> CacheParams {
    let line_bytes = 1u64 << line_log;
    CacheParams {
        size_bytes: line_bytes * ways as u64 * (1u64 << sets_log),
        line_bytes,
        ways,
    }
}

/// One step of a trace: an access, or (`None`) a flush of both levels.
fn op() -> BoxedStrategy<Option<u64>> {
    prop_oneof![
        // A small footprint, so sets fill, hit and evict.
        (0u64..4096).prop_map(|a| Some(a * 8)),
        // A wide footprint with high tag bits set.
        (0u64..1 << 40).prop_map(Some),
        (0u64..4).prop_map(|k| Some(u64::MAX - k * 64)),
        (0u64..60).prop_map(|k| if k == 0 { None } else { Some(k << 12) }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn hierarchy_matches_eager_invalidate_oracle(
        l1 in (3u32..8, 1u32..9, 0u32..6),
        l2 in (3u32..8, 1u32..17, 0u32..9),
        sharers in 0u32..9,
        trace in prop::collection::vec(op(), 0..1500),
    ) {
        let (l1p, l2p) = (params(l1.0, l1.1, l1.2), params(l2.0, l2.1, l2.2));
        let mut live = CacheHierarchy::with_l2_sharers(l1p, l2p, sharers);
        let mut oracle = OracleHierarchy::with_l2_sharers(l1p, l2p, sharers);
        for (i, step) in trace.iter().enumerate() {
            match *step {
                Some(addr) => prop_assert_eq!(
                    live.access(addr),
                    oracle.access(addr),
                    "access {} to {:#x}",
                    i,
                    addr
                ),
                None => {
                    live.flush();
                    oracle.flush();
                }
            }
        }
        prop_assert_eq!(live.l1_stats(), oracle.l1.stats);
        prop_assert_eq!(live.l2_stats(), oracle.l2.stats);
    }

    #[test]
    fn board_geometries_match_oracle_over_strided_sweeps(
        l2_big in 0u32..2,
        sharers in 1u32..5,
        stride_log in 3u32..16,
        lines in 1u64..12_000,
        flush_at in 0u64..24_000,
    ) {
        let l2 = if l2_big == 1 { CacheParams::L2_2M } else { CacheParams::L2_512K };
        let mut live = CacheHierarchy::with_l2_sharers(CacheParams::L1_32K, l2, sharers);
        let mut oracle = OracleHierarchy::with_l2_sharers(CacheParams::L1_32K, l2, sharers);
        let stride = 1u64 << stride_log;
        for i in 0..2 * lines {
            if i == flush_at {
                live.flush();
                oracle.flush();
            }
            let addr = (i % lines) * stride;
            prop_assert_eq!(live.access(addr), oracle.access(addr), "access {}", i);
        }
        prop_assert_eq!(live.l1_stats(), oracle.l1.stats);
        prop_assert_eq!(live.l2_stats(), oracle.l2.stats);
    }
}
