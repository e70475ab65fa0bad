//! Shared chunked data-parallel utilities (crossbeam scoped threads).
//!
//! Every multi-core code path in the workspace routes through these
//! primitives — the quantization engine's value kernels
//! ([`crate::engine::QuantEngine`]), the row-parallel GEMMs
//! ([`crate::gemm`], [`crate::fgemm`]), and the design-space sweep's
//! Monte-Carlo evaluation — so the partitioning policy (contiguous spans,
//! order-preserving, no work stealing) lives in exactly one place.
//!
//! Every primitive is *deterministic*: work is split into contiguous,
//! caller-aligned spans and every output lands in its input's slot, so the
//! result is bit-identical to a serial run regardless of thread count or
//! scheduling.

/// Number of worker threads to use when the caller asks for "all of them":
/// the machine's available parallelism, or 4 if that cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Splits `data` into at most `threads` contiguous spans whose lengths are
/// multiples of `align` (except the last, which takes the remainder) and
/// runs `f` on each span, in parallel: the first span on the calling
/// thread, every other span on its own scoped thread.
///
/// With `threads <= 1`, or when the data is too small to split, `f` runs
/// once on the whole slice on the calling thread — no threads are spawned.
/// Alignment is what makes parallel quantization bit-identical to serial:
/// spans never split a quantization block.
///
/// # Panics
///
/// Panics if `align` is zero or if a worker panics.
///
/// # Examples
///
/// ```
/// # use mx_core::parallel::for_each_span_mut;
/// let mut xs: Vec<u32> = (0..100).collect();
/// for_each_span_mut(&mut xs, 8, 4, |span| {
///     for x in span.iter_mut() {
///         *x *= 2;
///     }
/// });
/// assert!(xs.iter().enumerate().all(|(i, &x)| x == 2 * i as u32));
/// ```
pub fn for_each_span_mut<T, F>(data: &mut [T], align: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(&mut [T]) + Sync,
{
    for_each_span_at(data, align, threads, |_, span| f(span));
}

/// [`for_each_span_mut`] whose `f` also receives the index in `data` of
/// its span's first element — for kernels that read inputs at the same
/// offset as the output span they write.
///
/// # Panics
///
/// Panics if `align` is zero or if a worker panics.
pub(crate) fn for_each_span_at<T, F>(data: &mut [T], align: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(align > 0, "span alignment must be nonzero");
    let units = data.len().div_ceil(align);
    let workers = threads.min(units).max(1);
    if workers <= 1 {
        if !data.is_empty() {
            f(0, data);
        }
        return;
    }
    let span = units.div_ceil(workers) * align;
    let (first, rest) = data.split_at_mut(span.min(data.len()));
    crossbeam::thread::scope(|s| {
        let f = &f;
        for (i, chunk) in rest.chunks_mut(span).enumerate() {
            s.spawn(move |_| f((i + 1) * span, chunk));
        }
        f(0, first);
    })
    .expect("parallel span worker panicked");
}

/// Order-preserving parallel map: returns `f(item)` for every item of
/// `items`, computed on up to `threads` worker threads.
///
/// With `threads <= 1` (or a single item) the map runs on the calling
/// thread. Items are split into contiguous chunks, one per worker, so
/// results are deterministic and land in input order.
///
/// # Panics
///
/// Panics if a worker panics.
///
/// # Examples
///
/// ```
/// # use mx_core::parallel::map;
/// let squares = map(&[1, 2, 3, 4], 2, |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn map<I, O, F>(items: &[I], threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let workers = threads.min(items.len()).max(1);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let mut results: Vec<Option<O>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    crossbeam::thread::scope(|s| {
        for (slots, chunk_items) in results.chunks_mut(chunk).zip(items.chunks(chunk)) {
            let f = &f;
            s.spawn(move |_| {
                for (slot, item) in slots.iter_mut().zip(chunk_items.iter()) {
                    *slot = Some(f(item));
                }
            });
        }
    })
    .expect("parallel map worker panicked");
    results
        .into_iter()
        .map(|r| r.expect("all slots filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_cover_all_elements_once() {
        for threads in [1, 2, 3, 8, 64] {
            for len in [0usize, 1, 7, 16, 17, 100] {
                let mut xs = vec![0u32; len];
                for_each_span_mut(&mut xs, 4, threads, |span| {
                    for x in span.iter_mut() {
                        *x += 1;
                    }
                });
                assert!(xs.iter().all(|&x| x == 1), "threads={threads} len={len}");
            }
        }
    }

    #[test]
    fn spans_are_aligned() {
        // With align 8 over 20 elements and 2 workers, the split must fall
        // on a multiple of 8 (16), never mid-unit.
        let mut xs = vec![0usize; 20];
        for_each_span_mut(&mut xs, 8, 2, |span| {
            let len = span.len();
            for x in span.iter_mut() {
                *x = len;
            }
        });
        assert_eq!(xs[0], 16);
        assert_eq!(xs[19], 4);
    }

    #[test]
    fn span_offsets_locate_every_span() {
        for threads in [2, 3, 7] {
            for len in [1usize, 5, 12, 33] {
                let mut xs = vec![usize::MAX; len];
                for_each_span_at(&mut xs, 3, threads, |at, span| {
                    for (i, x) in span.iter_mut().enumerate() {
                        *x = at + i;
                    }
                });
                assert!(
                    xs.iter().enumerate().all(|(i, &x)| x == i),
                    "threads={threads} len={len}"
                );
            }
        }
    }

    #[test]
    fn map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 5, 16] {
            let out = map(&items, threads, |&x| x * 3);
            assert!(
                out.iter().enumerate().all(|(i, &v)| v == i * 3),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn map_on_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(map(&empty, 8, |&x| x).is_empty());
        assert_eq!(map(&[5], 8, |&x| x + 1), vec![6]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
