//! Parallel experiment driver: fans independent simulations out across
//! OS threads with `std::thread::scope`.
//!
//! The simulator itself is single-threaded by design (determinism);
//! parallelism lives here, across configurations/samples/boards — which
//! is also where the wall-clock time goes when regenerating Figure 1's
//! 24-configuration sweeps or a fleet simulation's board fan-out.
//!
//! Work is split into one contiguous chunk per worker, each writing its
//! own disjoint slice of the result vector — no shared index, no result
//! lock, no per-item synchronisation at all. For the experiment
//! workloads (items of comparable cost) static chunking matches dynamic
//! work-stealing while dropping the per-item mutex traffic the previous
//! implementation paid; `benches/micro.rs` keeps the comparison honest
//! against a per-item-locking reference. The trade-off: a fan-out over
//! *few items of very uneven cost* can leave workers idle behind an
//! unlucky chunk — callers in that regime (fig10's seven benchmarks)
//! get one item per worker anyway whenever `threads ≥ n`.

/// Run `job(i)` for `i ∈ 0..n` across up to `threads` workers and
/// return the results in index order.
///
/// `job` must be `Sync` because multiple workers call it concurrently
/// (each call gets a distinct index). Results are identical whatever
/// the worker count.
pub fn parallel_map<T, F>(n: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(threads > 0, "parallel_map needs at least one worker");
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let workers = threads.min(n.max(1));
    let chunk = n.div_ceil(workers).max(1);

    std::thread::scope(|s| {
        for (w, slots) in results.chunks_mut(chunk).enumerate() {
            let job = &job;
            s.spawn(move || {
                let base = w * chunk;
                for (off, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(job(base + off));
                }
            });
        }
    });

    results
        .into_iter()
        .map(|r| r.expect("every index produced"))
        .collect()
}

/// Default worker count: physical parallelism minus one, at least one.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1).max(1))
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_in_index_order() {
        let out = parallel_map(32, 4, |i| i * i);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_works() {
        let out = parallel_map(5, 1, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn zero_jobs_ok() {
        let out: Vec<usize> = parallel_map(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_jobs_ok() {
        let out = parallel_map(2, 16, |i| i);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn uneven_chunks_cover_every_index() {
        // 7 items over 3 workers → chunks of 3/3/1.
        let out = parallel_map(7, 3, |i| i);
        assert_eq!(out, (0..7).collect::<Vec<_>>());
        // 10 items over 4 workers → 3/3/3/1.
        let out = parallel_map(10, 4, |i| i + 100);
        assert_eq!(out, (100..110).collect::<Vec<_>>());
    }

    #[test]
    fn every_index_called_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = parallel_map(129, 8, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 129);
        assert_eq!(out.len(), 129);
        assert!(out.iter().enumerate().all(|(i, &x)| i == x));
    }
}
