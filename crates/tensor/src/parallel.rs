//! Shared scoped-thread helpers: the cached core count and the row-chunk
//! partitioner behind the row-parallel GEMM kernels.
//!
//! Layers and extraction run on their caller's thread; the only library
//! caller that fans out is [`crate::Tensor::matmul`], and only for large
//! standalone products (see `gemm::parallel_worthwhile`).
//! `ptolemy_nn::available_parallelism` re-exports the accessor.

use std::num::NonZeroUsize;
use std::sync::OnceLock;
use std::thread;

/// Cached [`std::thread::available_parallelism`] (clamped to at least 1).
///
/// The std lookup re-reads cgroup state on Linux — microseconds per call, far
/// too slow to query per GEMM or per layer on hot paths.  Every crate that
/// fans work out over scoped threads shares this single cached read.
pub fn available_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        // lint:allow(direct-available-parallelism): the cached accessor itself primes the cache
        thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Runs `f` over contiguous row chunks of `out` (a row-major `[rows, row_len]`
/// buffer), fanning the chunks out over scoped threads.
///
/// `f(first_row, chunk)` fills rows `first_row ..` of its chunk.  Each row is
/// computed by exactly one invocation, so per-element arithmetic is identical
/// to a serial pass — threading partitions the output, never a reduction.
/// Falls back to one serial call when only one core is available (or the work
/// is a single row).
///
/// Generic over the element type so the f32 kernels (`&mut [f32]`) and the
/// int8 GEMM's i32 accumulator buffers (`&mut [i32]`) share one partitioner.
pub fn par_row_chunks<T, F>(out: &mut [T], rows: usize, row_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    debug_assert_eq!(out.len(), rows * row_len);
    let threads = available_parallelism().min(rows);
    if threads <= 1 || row_len == 0 {
        f(0, out);
        return;
    }
    let chunk_rows = rows.div_ceil(threads);
    thread::scope(|scope| {
        let f = &f;
        for (i, chunk) in out.chunks_mut(chunk_rows * row_len).enumerate() {
            scope.spawn(move || f(i * chunk_rows, chunk));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_is_at_least_one_and_stable() {
        let first = available_parallelism();
        assert!(first >= 1);
        assert_eq!(first, available_parallelism());
    }

    #[test]
    fn par_row_chunks_covers_every_row_once() {
        let rows = 11;
        let row_len = 3;
        let mut out = vec![0.0f32; rows * row_len];
        par_row_chunks(&mut out, rows, row_len, |first_row, chunk| {
            for (local, row) in chunk.chunks_mut(row_len).enumerate() {
                for v in row.iter_mut() {
                    *v += (first_row + local) as f32;
                }
            }
        });
        for (i, row) in out.chunks(row_len).enumerate() {
            assert!(row.iter().all(|v| *v == i as f32));
        }
    }

    #[test]
    fn zero_row_len_is_a_single_serial_call() {
        let mut out: Vec<f32> = Vec::new();
        // Serial fallback passes the whole (empty) buffer exactly once.
        par_row_chunks(&mut out, 0, 0, |first, chunk| {
            assert_eq!(first, 0);
            assert!(chunk.is_empty());
        });
    }
}
