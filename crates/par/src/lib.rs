//! Deterministic fork-join helpers for the parallel CH build.
//!
//! Hierarchy construction evaluates many independent vertices
//! concurrently and then applies the results sequentially, so the only
//! primitive it needs is an indexed map: run `f(0..n)` on a small worker
//! pool and return the results **in index order**, independent of which
//! worker computed what. Work is handed out through a shared atomic
//! counter (dynamic stealing — long items don't serialize behind a static
//! split), and each worker tags results with their index so the merge is
//! a plain sort-free scatter.
//!
//! Built on `std::thread::scope` only: no unsafe code, no extra
//! dependencies, and a `workers <= 1` call degrades to a plain inline
//! loop with zero thread overhead.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f(i)` for `i in 0..n` on up to `workers` threads and returns the
/// results in index order.
pub fn par_map<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut units = vec![(); workers.max(1)];
    par_map_with(&mut units, n, |i, _| f(i))
}

/// Like [`par_map`], but each worker threads its own mutable state through
/// every item it processes (e.g. a per-worker routing scratch buffer).
/// `states` sizes the pool: `states.len()` workers, one state each.
///
/// Which state processes which item is scheduling-dependent; callers must
/// only rely on the *merged* effect over all states (e.g. additive
/// counters), never on per-state contents.
///
/// # Panics
///
/// Panics if `states` is empty, or if any `f` call panicked (the panic
/// surfaces on the calling thread once the pool has been joined).
pub fn par_map_with<S, T, F>(states: &mut [S], n: usize, f: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(usize, &mut S) -> T + Sync,
{
    assert!(!states.is_empty(), "par_map_with needs at least one worker state");
    if states.len() == 1 || n <= 1 {
        let state = &mut states[0];
        return (0..n).map(|i| f(i, &mut *state)).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let tagged: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|state| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i, &mut *state)));
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker item panicked")).collect()
    });
    for (i, v) in tagged.into_iter().flatten() {
        slots[i] = Some(v);
    }
    slots.into_iter().map(|s| s.expect("every index produced")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_index_order() {
        for workers in [1, 2, 4, 8] {
            let out = par_map(workers, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(par_map(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(4, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn worker_states_cover_all_items_exactly_once() {
        let mut counters = vec![0u64; 3];
        let out = par_map_with(&mut counters, 50, |i, c| {
            *c += 1;
            i
        });
        assert_eq!(out, (0..50).collect::<Vec<_>>());
        assert_eq!(counters.iter().sum::<u64>(), 50);
    }

    #[test]
    fn all_threads_observe_shared_reads() {
        let total = AtomicU64::new(0);
        let data: Vec<u64> = (0..1000).collect();
        let out = par_map(4, 1000, |i| {
            total.fetch_add(data[i], Ordering::Relaxed);
            data[i] * 2
        });
        assert_eq!(total.load(Ordering::Relaxed), 1000 * 999 / 2);
        assert_eq!(out[999], 1998);
    }

    #[test]
    #[should_panic(expected = "at least one worker state")]
    fn empty_pool_panics() {
        let mut states: Vec<()> = Vec::new();
        let _ = par_map_with(&mut states, 3, |i, _| i);
    }

    #[test]
    #[should_panic(expected = "worker item panicked")]
    fn a_panicking_item_surfaces_on_the_caller() {
        let mut states = vec![(); 2];
        par_map_with(&mut states, 8, |i, _| {
            if i == 3 {
                panic!("boom");
            }
            i
        });
    }
}
