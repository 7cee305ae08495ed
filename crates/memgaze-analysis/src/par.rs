//! Parallel per-sample analysis helpers.
//!
//! Sampled traces decompose naturally by sample; the per-sample work
//! (reuse analysis, diagnostics) is embarrassingly parallel. These
//! helpers shard work across `std::thread::scope` workers pulling
//! fixed-size chunks from an atomic work queue, so a handful of
//! expensive samples (e.g. one giant window among many small ones)
//! cannot stall a whole thread's equal share. Output order stays
//! deterministic: chunks are reassembled by their input offset.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Below this many items the threading overhead dominates; map inline.
const SEQ_CUTOFF: usize = 32;

/// Work-stealing granule: small enough that a skewed item distribution
/// load-balances, large enough that queue traffic stays negligible.
const CHUNK: usize = 16;

/// Chunk length for `items.len()` elements across `threads` workers:
/// the fixed granule, shrunk when the input is small so every worker
/// still gets work.
fn chunk_len(len: usize, threads: usize) -> usize {
    CHUNK.min(len.div_ceil(threads)).max(1)
}

/// Parallel map preserving input order. Falls back to a sequential map
/// for small inputs where threading overhead dominates.
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_with(items, threads, || (), |_, item| f(item))
}

/// [`par_map`] with per-worker scratch state: each worker calls `init`
/// once and hands the state to every `f` call it makes, so scratch
/// arrays (dense-id sets, `last` arrays) are allocated once per
/// worker rather than once per item. `f` must not let the state change
/// its result.
pub fn par_map_with<T, S, U, F>(
    items: &[T],
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: F,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&mut S, &T) -> U + Sync,
{
    let threads = threads.max(1);
    if threads == 1 || items.len() <= SEQ_CUTOFF {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let n = items.len();
    let chunk = chunk_len(n, threads);
    let num_chunks = n.div_ceil(chunk);
    let next = AtomicUsize::new(0);
    let parts: Mutex<Vec<(usize, Vec<U>)>> = Mutex::new(Vec::with_capacity(num_chunks));

    let obs = memgaze_obs::enabled();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(num_chunks) {
            let (next, parts, init, f) = (&next, &parts, &init, &f);
            scope.spawn(move || {
                let mut state = init();
                let mut claimed = 0u64;
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let start = idx * chunk;
                    if start >= n {
                        break;
                    }
                    if obs {
                        claimed += 1;
                        record_queue_depth(num_chunks, idx);
                    }
                    let end = (start + chunk).min(n);
                    let vals: Vec<U> = items[start..end]
                        .iter()
                        .map(|item| f(&mut state, item))
                        .collect();
                    parts.lock().unwrap().push((start, vals));
                }
                if obs {
                    record_worker_claims(claimed);
                }
            });
        }
    });

    let mut parts = parts.into_inner().unwrap();
    parts.sort_unstable_by_key(|&(start, _)| start);
    debug_assert_eq!(parts.iter().map(|p| p.1.len()).sum::<usize>(), n);
    parts.into_iter().flat_map(|(_, vals)| vals).collect()
}

/// Parallel map-fold: map each item and fold the results into one
/// accumulator per worker, merging the *few* per-worker accumulators at
/// the end. Avoids materializing a `Vec` when only the merged result is
/// needed (e.g. a trace-wide `BlockReuse`).
///
/// `merge` must be associative and commutative — which worker folds
/// which chunk is scheduling-dependent.
pub fn par_fold<T, A, F, M>(
    items: &[T],
    threads: usize,
    init: impl Fn() -> A + Sync,
    fold: F,
    merge: M,
) -> A
where
    T: Sync,
    A: Send,
    F: Fn(&mut A, &T) + Sync,
    M: Fn(A, A) -> A,
{
    let threads = threads.max(1);
    if threads == 1 || items.len() <= SEQ_CUTOFF {
        let mut acc = init();
        for item in items {
            fold(&mut acc, item);
        }
        return acc;
    }
    let n = items.len();
    let chunk = chunk_len(n, threads);
    let num_chunks = n.div_ceil(chunk);
    let next = AtomicUsize::new(0);
    let accs: Mutex<Vec<A>> = Mutex::new(Vec::with_capacity(threads));

    let obs = memgaze_obs::enabled();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(num_chunks) {
            let (next, accs, init, fold) = (&next, &accs, &init, &fold);
            scope.spawn(move || {
                let mut acc = init();
                let mut claimed = 0u64;
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let start = idx * chunk;
                    if start >= n {
                        break;
                    }
                    if obs {
                        claimed += 1;
                        record_queue_depth(num_chunks, idx);
                    }
                    let end = (start + chunk).min(n);
                    for item in &items[start..end] {
                        fold(&mut acc, item);
                    }
                }
                if obs {
                    record_worker_claims(claimed);
                }
                accs.lock().unwrap().push(acc);
            });
        }
    });

    accs.into_inner().unwrap().into_iter().fold(init(), merge)
}

/// Record the work queue's remaining depth at claim time. `idx` is the
/// claim ticket; anything past the last chunk means the queue was
/// already drained.
#[cold]
fn record_queue_depth(num_chunks: usize, idx: usize) {
    let remaining = num_chunks.saturating_sub(idx + 1) as u64;
    memgaze_obs::histogram!("par.queue_depth").record(remaining);
    memgaze_obs::counter!("par.chunks_claimed").add(1);
}

/// Record one worker's total claims. Every claim past the first means
/// this worker came back for more instead of idling — the work-stealing
/// signal ISSUE tracking cares about.
#[cold]
fn record_worker_claims(claimed: u64) {
    if claimed > 1 {
        memgaze_obs::counter!("par.steals").add(claimed - 1);
    }
}

/// Default analysis parallelism: available cores capped at 8 (the
/// per-sample work is memory-bound; more threads just thrash the
/// cache). `MEMGAZE_THREADS` overrides the probe — useful to pin
/// benchmarks or force sequential runs — and is clamped to ≥ 1.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("MEMGAZE_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, 4, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_fallback_matches() {
        let items: Vec<u64> = (0..10).collect();
        assert_eq!(
            par_map(&items, 8, |&x| x + 1),
            par_map(&items, 1, |&x| x + 1)
        );
    }

    #[test]
    fn empty_input() {
        let items: Vec<u64> = vec![];
        assert!(par_map(&items, 4, |&x| x).is_empty());
    }

    #[test]
    fn uneven_chunks() {
        let items: Vec<usize> = (0..101).collect();
        let out = par_map(&items, 3, |&x| x);
        assert_eq!(out.len(), 101);
        assert_eq!(out[100], 100);
    }

    #[test]
    fn skewed_work_is_balanced() {
        // One huge item among many tiny ones must not serialize: with
        // CHUNK-granular stealing every worker keeps claiming the small
        // items while one chews the giant.
        let mut items = vec![10u64; 4000];
        items[7] = 3_000_000;
        let busy_sum = |&n: &u64| -> u64 { (0..n).fold(0, |a, x| a ^ x.wrapping_mul(31)) };
        let out = par_map(&items, 4, busy_sum);
        let seq: Vec<u64> = items.iter().map(busy_sum).collect();
        assert_eq!(out, seq);
    }

    #[test]
    fn fold_matches_sequential() {
        let items: Vec<u64> = (1..=5000).collect();
        let total = par_fold(&items, 4, || 0u64, |acc, &x| *acc += x, |a, b| a + b);
        assert_eq!(total, 5000 * 5001 / 2);
        let seq = par_fold(&items, 1, || 0u64, |acc, &x| *acc += x, |a, b| a + b);
        assert_eq!(total, seq);
    }

    #[test]
    fn threads_default_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn env_override_clamps() {
        // Serialize env mutation against other tests reading it.
        std::env::set_var("MEMGAZE_THREADS", "0");
        assert_eq!(default_threads(), 1);
        std::env::set_var("MEMGAZE_THREADS", "3");
        assert_eq!(default_threads(), 3);
        std::env::remove_var("MEMGAZE_THREADS");
        assert!(default_threads() >= 1);
    }
}
