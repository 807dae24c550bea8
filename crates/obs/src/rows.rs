//! Thread-owned counter rows: the workspace's one per-operation counter.
//!
//! Counting must not cost more than the operation it counts, so there is no
//! shared line on the hot path: a [`Rows<N>`] is a table of `N`-column
//! rows, one cache-padded row per [thread slot](crate::slot), and a row is
//! written only by the thread holding its slot — a plain load and store, no
//! locked instruction. Threads without a row of their own (slot index past
//! the last row, no slot at all) share the overflow row and `fetch_add`
//! into it, so the totals stay exact for any number of threads.
//!
//! Two tables exist: one per `pmem` pool (`Rows<8>`, the pool's
//! persistence statistics) and the process-global one whose columns are
//! the named counters of [`crate::metrics`]. The type is compiled whatever
//! the `instrument` feature says, because a pool's fence count is part of
//! every build's results.

use crate::slot;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Rows owned by a thread slot. Slots are handed out lowest-first, so only
/// a process with more than this many threads counting at once sends any of
/// them to the overflow row.
pub const OWNED_ROWS: usize = 64;

/// Pads and aligns to 128 bytes so neighbouring values never share a cache
/// line (nor a prefetched pair of lines): the workspace's one per-thread
/// slot wrapper. Same idea as crossbeam's `CachePadded`, local so obs
/// stays dependency-free.
#[repr(align(128))]
pub struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    /// Pads and aligns `value`.
    pub const fn new(value: T) -> CachePadded<T> {
        CachePadded(value)
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// One thread's counters, one per column.
struct Row<const N: usize>([AtomicU64; N]);

impl<const N: usize> Row<N> {
    const fn new() -> Row<N> {
        Row([const { AtomicU64::new(0) }; N])
    }
}

/// A table of `N` monotonic counters, sharded into thread-owned rows. See
/// the [module docs](self).
///
/// [`totals`](Self::totals) sums the rows and is therefore exact only at
/// quiescence (no thread inside [`add`](Self::add)); while writers run it is
/// a lower bound that misses at most the additions in flight.
/// [`reset`](Self::reset) never writes a row — a thread may be in the
/// middle of updating its own — it records the current sums as a baseline
/// that later totals subtract.
pub struct Rows<const N: usize> {
    rows: [CachePadded<Row<N>>; OWNED_ROWS],
    overflow: CachePadded<Row<N>>,
    /// The sums at the last [`Rows::reset`].
    baseline: Row<N>,
}

impl<const N: usize> Rows<N> {
    /// A zeroed table, usable in statics. It is `OWNED_ROWS + 2` rows wide:
    /// box it where that should not sit inline.
    pub const fn new() -> Rows<N> {
        Rows {
            rows: [const { CachePadded::new(Row::new()) }; OWNED_ROWS],
            overflow: CachePadded::new(Row::new()),
            baseline: Row::new(),
        }
    }

    /// Adds `n` to `column` on behalf of the calling thread.
    ///
    /// # Panics
    /// If `column >= N`.
    #[inline]
    pub fn add(&self, column: usize, n: u64) {
        match self.rows.get(slot::cached_index()) {
            Some(row) => {
                // Single writer (the slot's holder), so no read-modify-write
                // instruction is needed; the atomics only make the
                // concurrent reads in `sums` well defined.
                let cell = &row.0 .0[column];
                cell.store(cell.load(Relaxed).wrapping_add(n), Relaxed);
            }
            None => self.add_slow(column, n),
        }
    }

    /// First count of a thread (no slot leased yet), or a thread with no
    /// row of its own.
    #[cold]
    fn add_slow(&self, column: usize, n: u64) {
        let row = slot::thread_slot().and_then(|index| self.rows.get(index));
        // A freshly leased row is found by `add` itself from now on.
        row.unwrap_or(&self.overflow).0 .0[column].fetch_add(n, Relaxed);
    }

    /// Sums every row, the overflow row included.
    fn sums(&self) -> [u64; N] {
        let mut sum = [0u64; N];
        for row in self.rows.iter().chain([&self.overflow]) {
            for (total, cell) in sum.iter_mut().zip(&row.0 .0) {
                *total = total.wrapping_add(cell.load(Relaxed));
            }
        }
        sum
    }

    /// Every column's count since the last [`reset`](Self::reset).
    pub fn totals(&self) -> [u64; N] {
        let mut totals = self.sums();
        // Every counter only grows and the baseline is an earlier sum of
        // the same counters, so the difference cannot go negative.
        for (total, base) in totals.iter_mut().zip(&self.baseline.0) {
            *total = total.wrapping_sub(base.load(Relaxed));
        }
        totals
    }

    /// Restarts every column from zero, without writing a row.
    pub fn reset(&self) {
        for (base, sum) in self.baseline.0.iter().zip(self.sums()) {
            base.store(sum, Relaxed);
        }
    }

    /// What the overflow row alone holds for `column`: how much was counted
    /// by threads without a row of their own. For tests of the fallback.
    pub fn overflow(&self, column: usize) -> u64 {
        self.overflow.0 .0[column].load(Relaxed)
    }
}

impl<const N: usize> Default for Rows<N> {
    fn default() -> Rows<N> {
        Rows::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::burst_lock;

    #[test]
    fn alignment_is_at_least_128() {
        assert!(std::mem::align_of::<CachePadded<u64>>() >= 128);
        assert_eq!(*CachePadded::new(7u64), 7);
    }

    #[test]
    fn reset_restarts_every_column_from_zero() {
        let rows = Rows::<3>::new();
        rows.add(0, 3);
        rows.add(2, 1);
        assert_eq!(rows.totals(), [3, 0, 1]);
        rows.reset();
        assert_eq!(rows.totals(), [0; 3]);
    }

    /// Holds more threads alive at once than there are owned rows, so some
    /// of them must count into the overflow row; the totals stay exact.
    #[test]
    fn threads_past_the_last_row_share_the_overflow_row_exactly() {
        const THREADS: usize = OWNED_ROWS + 8;
        const OPS: u64 = 2_000;
        let _alone = burst_lock();
        let rows = Rows::<3>::new();
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    // Lease a slot, then wait until every thread holds one:
                    // THREADS distinct slots cannot fit OWNED_ROWS rows.
                    rows.add(0, 1);
                    barrier.wait();
                    for _ in 0..OPS {
                        rows.add(1, 1);
                        rows.add(2, 2);
                    }
                });
            }
        });
        let threads = THREADS as u64;
        assert_eq!(rows.totals(), [threads, threads * OPS, threads * OPS * 2]);
        let overflowed = rows.overflow(1);
        assert!(
            overflowed >= 8 * OPS && overflowed.is_multiple_of(OPS),
            "at least 8 whole threads had no row of their own, got {overflowed}"
        );
    }

    /// `reset` records a baseline instead of zeroing rows, so resetting
    /// while writers run loses none of their counts.
    #[test]
    fn reset_under_traffic_never_writes_a_row() {
        const THREADS: usize = 4;
        const OPS: u64 = 200_000;
        let rows = Rows::<1>::new();
        let start = std::sync::Barrier::new(THREADS + 1);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..OPS {
                        rows.add(0, 1);
                    }
                });
            }
            start.wait();
            for _ in 0..200 {
                rows.reset();
                let [seen] = rows.totals();
                assert!(seen <= THREADS as u64 * OPS, "never over-counts");
            }
        });
        // Had any reset stored into a row, that row's holder would have
        // lost increments and the raw sum would fall short.
        assert_eq!(rows.sums(), [THREADS as u64 * OPS]);
        // At quiescence a reset draws the line exactly.
        rows.reset();
        assert_eq!(rows.totals(), [0]);
        rows.add(0, 3);
        assert_eq!(rows.totals(), [3]);
    }

    /// A table touched from a thread-local destructor may find the slot
    /// lease already destroyed: it must count (into the overflow row), not
    /// panic. Both registration orders are run; whichever the platform
    /// destroys lease-first exercises the fallback.
    #[test]
    fn a_thread_past_its_slot_lease_falls_back_to_the_overflow_row() {
        use std::cell::RefCell;

        struct CountOnDrop(&'static Rows<1>);
        impl Drop for CountOnDrop {
            fn drop(&mut self) {
                for _ in 0..10 {
                    self.0.add(0, 1);
                }
            }
        }
        thread_local! {
            static PROBE: RefCell<Option<CountOnDrop>> = const { RefCell::new(None) };
        }

        // A burst test holding every owned row would push this thread's
        // lease past the rows too, and both orders would overflow.
        let _alone = burst_lock();
        let mut overflowed = Vec::new();
        for lease_first in [true, false] {
            let rows: &'static Rows<1> = Box::leak(Box::default());
            std::thread::spawn(move || {
                if lease_first {
                    rows.add(0, 1);
                }
                PROBE.with(|probe| *probe.borrow_mut() = Some(CountOnDrop(rows)));
                if !lease_first {
                    rows.add(0, 1);
                }
            })
            .join()
            .expect("the destructor must not panic");
            assert_eq!(rows.totals(), [11], "no count was lost");
            overflowed.push(rows.overflow(0));
        }
        assert!(
            overflowed.contains(&10),
            "one order destroys the lease before the probe: {overflowed:?}"
        );
    }
}
