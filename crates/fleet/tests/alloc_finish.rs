//! Memory gate for a retained run's finish: putting the outcomes in id
//! order and computing their exact metrics must not copy the records.
//! `finish()` may raise the peak of live heap bytes by at most
//! [`MAX_BYTES_PER_OUTCOME`] per retained outcome; a stable sort of the
//! 96-byte records alone needs 48 to 96. The byte count is
//! deterministic for a seed, so the verdict is the same on any host.
//!
//! The counters are process-wide, so this binary holds exactly one
//! `#[test]` and nothing runs beside it.

use astro_fleet::{
    ArrivalProcess, BackendKind, ClusterSpec, FleetParams, FleetSim, FlightRecorder, GenCursor,
    LeastLoaded, PolicyCache, PolicyMode, Scenario,
};
use astro_workloads::{InputSize, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, tracking live bytes and their peak.
struct Tracking;

/// Bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has held since it was last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so each upholds the `GlobalAlloc` contract exactly as `System` does;
// the counters touch no memory the allocator hands out.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// Jobs in the retained stream.
const JOBS: usize = 24_000;
/// Peak live bytes `finish()` may add per retained outcome.
const MAX_BYTES_PER_OUTCOME: usize = 24;

fn pool() -> Vec<Workload> {
    ["swaptions", "bfs", "streamcluster"]
        .iter()
        .map(|n| astro_workloads::by_name(n).unwrap())
        .collect()
}

#[test]
fn finish_does_not_copy_the_retained_outcomes() {
    let cluster = ClusterSpec::heterogeneous(16);
    let mut params = FleetParams::new(3);
    params.backend = BackendKind::Replay;
    let sim = FleetSim::new(&cluster, params);
    let mut cursor = GenCursor::new(
        ArrivalProcess::Poisson {
            rate_jobs_per_s: 400.0,
        },
        JOBS,
        &pool(),
        InputSize::Test,
        (4.0, 8.0),
        3,
        &[],
    );
    let mut cache = PolicyCache::new(u32::MAX);
    let scenario = Scenario::online(PolicyMode::Cold);
    let mut telemetry = FlightRecorder::off();
    let mut dispatcher = LeastLoaded;
    let mut k = sim.resident(
        &mut cursor,
        &mut dispatcher,
        &mut cache,
        &scenario,
        &mut telemetry,
        true,
    );
    k.run();

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = k.finish();
    let added = PEAK.load(Ordering::Relaxed) - before;

    let n = out.outcomes.len();
    assert!(n >= 20_000, "fixture retains {n} outcomes");
    assert!(
        out.outcomes.windows(2).all(|w| w[0].id <= w[1].id),
        "outcomes come out in id order"
    );
    assert!(
        added <= MAX_BYTES_PER_OUTCOME * n,
        "finish() raised peak live bytes by {added} B over {n} outcomes \
         ({:.1} B each, limit {MAX_BYTES_PER_OUTCOME})",
        added as f64 / n as f64
    );
}
