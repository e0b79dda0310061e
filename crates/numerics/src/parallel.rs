//! Deterministic thread-pool fan-out for embarrassingly parallel workloads.
//!
//! Monte-Carlo sampling, β-sweeps and benchmark grids all evaluate an
//! independent function at each index of a known-size domain. [`par_map`]
//! runs such a function across a scoped worker pool and returns results in
//! index order, so output is **bit-identical to a serial loop at any thread
//! count** — parallelism changes only wall-clock time, never values. This is
//! what lets Monte-Carlo yield curves from different machines (or thread
//! counts) be compared point-by-point.
//!
//! Workers pull indices from a shared atomic counter (work stealing in its
//! simplest form), so uneven per-item cost — e.g. Newton solves that hit the
//! gmin ladder on hard samples — balances automatically.
//!
//! The worker count defaults to available parallelism, clamped by the
//! `RAYON_NUM_THREADS` environment variable (the de-facto convention for
//! Rust numeric code; honoring it means job schedulers that already set it
//! keep working).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads [`par_map`] uses when `threads` is `None`:
/// available parallelism, clamped by `RAYON_NUM_THREADS` when set to a
/// positive integer.
pub fn default_threads() -> usize {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    match std::env::var("RAYON_NUM_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n.min(64),
            _ => available,
        },
        Err(_) => available,
    }
}

/// Maps `f` over `0..n` on a scoped worker pool, returning results in index
/// order.
///
/// `threads` picks the worker count; `None` means [`default_threads`]. With
/// one worker (or `n <= 1`) the map degenerates to a plain serial loop, and
/// because `f` receives only the item index — never worker identity or
/// completion order — the output `Vec` is identical across all thread
/// counts.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
///
/// # Examples
///
/// ```
/// use tfet_numerics::parallel::par_map;
///
/// let squares = par_map(5, Some(2), |i| (i * i) as f64);
/// assert_eq!(squares, vec![0.0, 1.0, 4.0, 9.0, 16.0]);
/// ```
pub fn par_map<T, F>(n: usize, threads: Option<usize>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_with(n, threads, || (), |(), i| f(i))
}

/// [`par_map`] with per-worker scratch state: each worker calls `init`
/// once, then threads `&mut state` through every item it pulls.
///
/// The state is a *cache*, not an input: `f(state, i)` must return the same
/// value whatever state it receives, because which worker (and therefore
/// which state instance, warmed by which prior items) evaluates an item
/// depends on scheduling. Compiled-experiment reuse is the canonical use —
/// a worker compiles a circuit once and rebinds parameters per item, which
/// changes wall-clock only, never values. Under that contract the output is
/// bit-identical to a serial loop at any thread count, like [`par_map`].
///
/// # Panics
///
/// Propagates a panic from `init` or `f` (the scope joins all workers
/// first).
pub fn par_map_with<S, T, I, F>(n: usize, threads: Option<usize>, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = threads.unwrap_or_else(default_threads).max(1).min(n.max(1));
    if workers <= 1 || n <= 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let value = f(&mut state, i);
                    slots.lock().unwrap()[i] = Some(value);
                }
            });
        }
    });
    slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|slot| slot.expect("worker pool left an index uncomputed"))
        .collect()
}

/// Fallible [`par_map_with`]: per-worker scratch state, with either every
/// success in index order or the error from the **lowest failing index** —
/// evaluated fully before the scan, so the reported error is
/// scheduling-independent.
///
/// # Errors
///
/// Returns the `Err` produced at the smallest index for which `f` failed.
pub fn par_try_map_with<S, T, E, I, F>(
    n: usize,
    threads: Option<usize>,
    init: I,
    f: F,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> Result<T, E> + Sync,
{
    let mut out = Vec::with_capacity(n);
    for result in par_map_with(n, threads, init, f) {
        out.push(result?);
    }
    Ok(out)
}

/// Fallible [`par_map`]: maps `f` over `0..n` and returns either every
/// success in index order or the error from the **lowest failing index**.
///
/// All items are evaluated before the scan, so the reported error does not
/// depend on scheduling — like [`par_map`], the result is identical at any
/// thread count.
///
/// # Errors
///
/// Returns the `Err` produced at the smallest index for which `f` failed.
pub fn par_try_map<T, E, F>(n: usize, threads: Option<usize>, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let mut out = Vec::with_capacity(n);
    for result in par_map(n, threads, f) {
        out.push(result?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order() {
        let out = par_map(100, Some(4), |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_values() {
        let f = |i: usize| {
            // A value that would differ if worker identity leaked in.
            let x = (i as f64).sin() * 1e3;
            x - x.floor()
        };
        let serial: Vec<f64> = (0..64).map(f).collect();
        for threads in [1, 2, 3, 8, 17] {
            assert_eq!(par_map(64, Some(threads), f), serial, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_single_domains_work() {
        assert_eq!(par_map(0, Some(4), |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, Some(4), |i| i + 7), vec![7]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        assert_eq!(par_map(3, Some(16), |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn try_map_reports_lowest_failing_index() {
        let result: Result<Vec<usize>, String> = par_try_map(50, Some(4), |i| {
            if i % 7 == 5 {
                Err(format!("bad {i}"))
            } else {
                Ok(i)
            }
        });
        assert_eq!(result, Err("bad 5".to_string()));
    }

    #[test]
    fn try_map_collects_successes() {
        let result: Result<Vec<usize>, String> = par_try_map(10, Some(2), Ok);
        assert_eq!(result, Ok((0..10).collect()));
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn map_with_state_matches_stateless_at_any_thread_count() {
        // State used purely as a cache (call counter) must not leak into
        // the values.
        let f = |calls: &mut usize, i: usize| {
            *calls += 1;
            (i * i) as f64
        };
        let serial: Vec<f64> = (0..40).map(|i| (i * i) as f64).collect();
        for threads in [1, 2, 5] {
            assert_eq!(par_map_with(40, Some(threads), || 0usize, f), serial);
        }
    }

    #[test]
    fn try_map_with_reports_lowest_failing_index() {
        let result: Result<Vec<usize>, String> = par_try_map_with(
            50,
            Some(4),
            || (),
            |(), i| {
                if i % 9 == 4 {
                    Err(format!("bad {i}"))
                } else {
                    Ok(i)
                }
            },
        );
        assert_eq!(result, Err("bad 4".to_string()));
    }

    #[test]
    fn init_runs_once_per_worker_serially() {
        use std::sync::atomic::AtomicUsize;
        let inits = AtomicUsize::new(0);
        let out = par_map_with(
            10,
            Some(1),
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, i| i,
        );
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(inits.load(Ordering::Relaxed), 1, "serial path: one init");
    }
}
