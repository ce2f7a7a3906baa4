//! Bitwise fingerprints of a run's outcome, for the determinism checks.

use astro_fleet::FleetOutcome;

/// FNV-1a fold of one 64-bit word.
fn fold(h: &mut u64, x: u64) {
    for byte in x.to_le_bytes() {
        *h ^= byte as u64;
        *h = h.wrapping_mul(0x1000_0000_01b3);
    }
}

/// Outcome facts that do not depend on whether outcomes were retained or
/// streamed: event accounting, cache, guard, training, drops, and the
/// exact completion counters.
pub fn core(out: &FleetOutcome) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let k = &out.kernel;
    for x in [
        k.events,
        k.arrivals,
        k.completions,
        k.dropped,
        k.dropped_no_board,
        k.dropped_migration_cap,
        k.migrations,
        k.redistributions,
        k.ticks,
        k.board_downs,
        k.board_ups,
        k.chaos_events,
        out.metrics.jobs as u64,
        out.metrics.makespan_s.to_bits(),
        out.metrics.slo_misses as u64,
        out.cache.lookups,
        out.cache.hits,
        out.cache.misses,
        out.cache.stale_refreshes,
        out.cache.evictions,
        out.guard_bypasses,
        out.train_time_s.to_bits(),
        out.train_energy_j.to_bits(),
    ] {
        fold(&mut h, x);
    }
    for d in &out.dropped {
        fold(&mut h, d.id as u64);
        fold(&mut h, d.reason as u64);
    }
    h
}

/// Every outcome fact a run reports: the core facts plus the aggregate
/// metrics, feedback and chaos accounting, stream summary and any
/// retained per-job outcomes, bit for bit. Execution-plane counters
/// (advances, messages) are left out: they describe how the kernel
/// computed the outcome, not the outcome.
pub fn full(out: &FleetOutcome) -> u64 {
    let mut h = core(out);
    let m = &out.metrics;
    for x in [
        m.mean_latency_s,
        m.p50_s,
        m.p95_s,
        m.p99_s,
        m.p99_slo_ratio,
        m.total_energy_j,
        m.feedback.sum_abs_rel_err,
    ] {
        fold(&mut h, x.to_bits());
    }
    fold(&mut h, m.feedback.samples);
    fold(&mut h, m.feedback.mispredicts);
    for u in &m.board_util {
        fold(&mut h, u.to_bits());
    }
    for byte in format!("{:?}{:?}", out.chaos, out.stream).bytes() {
        fold(&mut h, byte as u64);
    }
    for o in &out.outcomes {
        for x in [
            o.id as u64,
            o.board as u64,
            o.start_s.to_bits(),
            o.finish_s.to_bits(),
            o.energy_j.to_bits(),
            o.migrations as u64,
        ] {
            fold(&mut h, x);
        }
    }
    h
}
