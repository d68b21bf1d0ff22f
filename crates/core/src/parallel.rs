//! Std-only order-preserving parallel map.
//!
//! Profiling and detection run on the caller's thread; this helper remains
//! for callers outside the inference path (the bench harness's per-input
//! baselines) that want a one-off fan-out.  The workspace builds without
//! crates.io access, so instead of `rayon` it uses [`std::thread::scope`].
//! Inputs are split into one contiguous chunk per available core; order is
//! preserved, so `par_map(xs, f)[i] == f(&xs[i])` exactly.

use std::thread;

/// Maps `f` over `items` in parallel, preserving order.
///
/// Spawns at most [`ptolemy_nn::available_parallelism`] scoped threads
/// (falling back to a serial map for empty or single-element inputs) — the
/// *cached* core count: the raw `std::thread::available_parallelism` lookup
/// re-reads cgroup state on Linux (~10µs per call), so the whole workspace
/// shares one cached read.  Panics in `f` propagate to the caller.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = ptolemy_nn::available_parallelism().min(items.len());
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let chunk_len = items.len().div_ceil(threads);
    let mut chunks: Vec<Vec<U>> = Vec::with_capacity(threads);
    thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Vec<U>>()))
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(mapped) => chunks.push(mapped),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    chunks.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_covers_all_items() {
        let items: Vec<usize> = (0..1000).collect();
        let doubled = par_map(&items, |x| x * 2);
        assert_eq!(doubled.len(), items.len());
        for (i, v) in doubled.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn handles_empty_and_single_inputs() {
        assert!(par_map(&[] as &[usize], |x| *x).is_empty());
        assert_eq!(par_map(&[7usize], |x| x + 1), vec![8]);
    }

    #[test]
    fn cached_parallelism_is_stable_across_threads() {
        // The cached count must agree with the live std lookup (the cache can
        // only go stale if the cgroup quota changes mid-process, which the
        // dedup deliberately trades away) and stay identical from every
        // thread that reads it concurrently.
        let cores = ptolemy_nn::available_parallelism();
        let live = thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(cores, live);
        let seen = par_map(&[(); 64], |()| ptolemy_nn::available_parallelism());
        assert!(seen.iter().all(|c| *c == cores));
    }

    #[test]
    fn matches_serial_map_exactly() {
        let items: Vec<f32> = (0..257).map(|i| i as f32 * 0.37).collect();
        let serial: Vec<f32> = items.iter().map(|x| x.sin() * x.cos()).collect();
        let parallel = par_map(&items, |x| x.sin() * x.cos());
        assert_eq!(serial, parallel);
    }
}
