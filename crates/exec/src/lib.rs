//! Deterministic parallel execution layer.
//!
//! Every fan-out point in the workspace — per-cuisine analytics, per-model
//! evaluation, per-replicate ensembles — shares the same requirements:
//!
//! 1. **Stable output order.** Result `i` corresponds to input `i`
//!    regardless of which worker computed it or when it finished.
//! 2. **Thread-count independence.** Work units receive no state derived
//!    from worker identity; any randomness is seeded from the *logical*
//!    index. Consequently `threads: Some(1)` and `threads: Some(32)`
//!    produce byte-identical artifacts.
//! 3. **No runtime dependency.** Plain `std::thread::scope` with contiguous
//!    chunked distribution; no work-stealing pool, no global executor, and
//!    no `unsafe` outside the audited `poll(2)` shim in [`readiness`].
//!
//! The `threads` knob follows the convention of
//! `cuisine_evolution::EnsembleConfig`: `None` means "use available
//! parallelism", `Some(0)` and `Some(1)` both mean sequential, and
//! anything larger is clamped to the number of jobs.
//!
//! Work is split into `threads` contiguous chunks of near-equal size
//! (`base` or `base + 1` jobs). This is the right shape for this
//! workspace's workloads — 25 cuisines of broadly similar cost, or `R`
//! replicates of identical cost — and keeps the slot-based write-back
//! simple and `unsafe`-free: each worker owns a disjoint `&mut [Option<T>]`
//! obtained via `split_at_mut`.

#![deny(unsafe_code)]

pub mod faults;
pub mod flight;
pub mod lockorder;
pub mod pool;
// The workspace's one foreign call; `cuisine-lint` rule U1 keeps every
// other file free of `unsafe`.
#[allow(unsafe_code)]
pub mod readiness;

pub use faults::{panic_message, FaultAction, FaultCount, FaultPlan, Faults, FAULT_POINTS};
pub use flight::Flight;
pub use lockorder::{OrderedGuard, OrderedMutex};
pub use pool::{PoolFull, WorkerPool};
pub use readiness::{PollFd, Waker};

/// Spawn a long-lived, named *service* thread.
///
/// Almost all parallelism in the workspace is task-shaped and must go
/// through [`par_map_range`]/[`WorkerPool`] so thread count stays
/// value-neutral and panics are contained per task. A few threads are not
/// task-shaped: a listener accept loop, a connection shard's event loop —
/// they live for the whole server and own I/O state rather than compute a
/// value. This is the single sanctioned way to create one (the `X1` lint
/// rule bans raw `std::thread` use outside `cuisine-exec`), which keeps
/// every thread in the workspace discoverable from this crate.
///
/// The caller owns the returned handle and is responsible for arranging
/// shutdown (a stop flag, a closed channel) and joining it.
pub fn spawn_service<F>(name: &str, f: F) -> std::io::Result<std::thread::JoinHandle<()>>
where
    F: FnOnce() + Send + 'static,
{
    std::thread::Builder::new().name(name.to_string()).spawn(f)
}

/// Resolve a `threads: Option<usize>` knob against a job count.
///
/// * `None` → `std::thread::available_parallelism()` (falling back to 1),
/// * `Some(n)` → `n`,
/// * the result is always clamped to `[1, max(jobs, 1)]`, so `Some(0)`
///   degrades to sequential and requesting more threads than jobs never
///   spawns idle workers.
pub fn resolve_threads(threads: Option<usize>, jobs: usize) -> usize {
    threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .clamp(1, jobs.max(1))
}

/// Split `n` jobs into `threads` contiguous `(start, len)` chunks whose
/// lengths differ by at most one. Chunks are returned in index order and
/// cover `0..n` exactly.
pub fn chunk_ranges(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let threads = threads.clamp(1, n.max(1));
    let base = n / threads;
    let extra = n % threads;
    let mut out = Vec::with_capacity(threads);
    let mut start = 0;
    for t in 0..threads {
        let len = base + usize::from(t < extra);
        out.push((start, len));
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

/// Apply `f(index)` for every index in `0..n`, fanning out across at most
/// `threads` scoped workers, and return the results in index order.
///
/// `f` must depend only on the index (and captured shared state), never on
/// worker identity — that is what makes the output independent of the
/// thread count. The closure runs on the calling thread when the resolved
/// thread count is 1, so sequential runs pay no spawn overhead.
pub fn par_map_range<U, F>(n: usize, threads: Option<usize>, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let threads = resolve_threads(threads, n);
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }

    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    let mut chunks: Vec<(usize, &mut [Option<U>])> = Vec::with_capacity(threads);
    {
        let mut rest: &mut [Option<U>] = &mut out;
        for (start, len) in chunk_ranges(n, threads) {
            let (head, tail) = rest.split_at_mut(len);
            chunks.push((start, head));
            rest = tail;
        }
    }

    std::thread::scope(|scope| {
        for (start, slots) in chunks {
            let f = &f;
            scope.spawn(move || {
                for (offset, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(f(start + offset));
                }
            });
        }
    });

    out.into_iter()
        .map(|slot| slot.expect("every job slot filled"))
        .collect()
}

/// Map `f(index, &item)` over a slice with stable output order, fanning out
/// across at most `threads` scoped workers.
///
/// This is the shared backbone behind per-cuisine analytics fan-out and
/// per-model evaluation. See [`par_map_range`] for the determinism
/// contract.
pub fn par_map_indexed<T, U, F>(items: &[T], threads: Option<usize>, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_range(items.len(), threads, |i| f(i, &items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_exactly() {
        for n in 0..40 {
            for threads in 1..10 {
                let chunks = chunk_ranges(n, threads);
                let total: usize = chunks.iter().map(|&(_, len)| len).sum();
                assert_eq!(total, n, "n={n} threads={threads}");
                let mut expect = 0;
                for &(start, len) in &chunks {
                    assert_eq!(start, expect);
                    expect += len;
                }
                // Near-equal: lengths differ by at most one.
                let lens: Vec<usize> = chunks.iter().map(|&(_, l)| l).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1, "n={n} threads={threads}: {lens:?}");
            }
        }
    }

    #[test]
    fn resolve_threads_clamps() {
        assert_eq!(resolve_threads(Some(0), 10), 1);
        assert_eq!(resolve_threads(Some(1), 10), 1);
        assert_eq!(resolve_threads(Some(4), 10), 4);
        assert_eq!(resolve_threads(Some(64), 10), 10);
        assert_eq!(resolve_threads(Some(64), 0), 1);
        assert!(resolve_threads(None, 8) >= 1);
        assert!(resolve_threads(None, 8) <= 8);
    }

    #[test]
    fn map_range_preserves_order() {
        for threads in [None, Some(0), Some(1), Some(2), Some(3), Some(8), Some(100)] {
            let got = par_map_range(23, threads, |i| i * i);
            let want: Vec<usize> = (0..23).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads:?}");
        }
    }

    #[test]
    fn map_indexed_matches_sequential() {
        let items: Vec<String> = (0..17).map(|i| format!("item-{i}")).collect();
        let seq = par_map_indexed(&items, Some(1), |i, s| format!("{i}:{s}"));
        for threads in [2, 5, 16] {
            let par = par_map_indexed(&items, Some(threads), |i, s| format!("{i}:{s}"));
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map_indexed(&empty, Some(8), |_, x| *x).is_empty());
        assert_eq!(par_map_range(0, None, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_range(1, Some(8), |i| i + 41), vec![41]);
    }

    #[test]
    fn workers_actually_run_in_parallel_when_asked() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        // Two jobs, two threads, a barrier both must reach: only passes if
        // the jobs genuinely overlap in time.
        let barrier = Barrier::new(2);
        let ran = AtomicUsize::new(0);
        let out = par_map_range(2, Some(2), |i| {
            barrier.wait();
            ran.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(out, vec![0, 1]);
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    }
}
