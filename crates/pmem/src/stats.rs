//! Persistence-event statistics.
//!
//! The paper argues about two per-operation quantities: the number of
//! blocking persist operations (fences) and the number of accesses to
//! previously flushed content. The pool counts both — plus flushes,
//! non-temporal stores and plain accesses — so that experiment E7/E8
//! (see DESIGN.md) can verify the analytic claims directly:
//! one fence per update operation for the four new queues, and zero
//! post-flush accesses for OptUnlinkedQ and OptLinkedQ.

use crate::layout::MAX_THREADS;
use crate::slot;
use crossbeam_utils::CachePadded;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The events a pool counts; the discriminant is the counter's index in a
/// [`Row`].
#[derive(Clone, Copy)]
pub(crate) enum Counter {
    Flushes,
    Fences,
    NtStores,
    PostFlushAccesses,
    Loads,
    Stores,
    CasOps,
    ImplicitEvictions,
}

const COUNTERS: usize = 8;

/// One cache line of counters, indexed by [`Counter`].
#[derive(Default)]
struct Row([AtomicU64; COUNTERS]);

/// Rows owned by a thread slot. Slots are handed out lowest-first and
/// recycled, so only a process with more than this many threads alive in
/// pools at once sends any of them to the overflow row.
const OWNED_ROWS: usize = MAX_THREADS;

/// A pool's event counters — the same type behind the simulated and the
/// external arm of [`crate::PmemPool`].
///
/// Counting must not cost more than the access it counts, so there is no
/// shared line on the hot path: the counters are rows, one per
/// [thread slot](crate::slot), and a row is written only by the thread
/// holding its slot — a plain load and store, no locked instruction.
/// Threads without a row of their own (slot index past the last row, no
/// slot at all) share the overflow row and `fetch_add` into it, so the
/// totals stay exact for any number of threads.
///
/// [`snapshot`](Self::snapshot) sums the rows and is therefore exact only
/// at quiescence (no thread inside a pool operation); while operations run
/// it is a lower bound that misses at most the operations in flight.
/// [`reset`](Self::reset) never writes a row — a thread may be in the
/// middle of updating its own — it records the current totals as a
/// baseline that later snapshots subtract.
pub(crate) struct Stats(Box<Table>);

/// Boxed so that a pool stays a few words wide; allocated once per pool.
struct Table {
    rows: [CachePadded<Row>; OWNED_ROWS],
    overflow: CachePadded<Row>,
    /// The totals at the last [`Stats::reset`].
    baseline: Row,
}

impl Default for Stats {
    fn default() -> Self {
        Stats(Box::new(Table {
            rows: std::array::from_fn(|_| CachePadded::default()),
            overflow: CachePadded::default(),
            baseline: Row::default(),
        }))
    }
}

impl Stats {
    /// Adds `n` to `counter` on behalf of the calling thread.
    #[inline]
    pub(crate) fn add(&self, counter: Counter, n: u64) {
        match self.0.rows.get(slot::cached_index()) {
            Some(row) => {
                // Single writer (the slot's holder), so no read-modify-write
                // instruction is needed; the atomics only make the
                // concurrent reads in `totals` well defined.
                let cell = &row.0[counter as usize];
                cell.store(cell.load(Relaxed).wrapping_add(n), Relaxed);
            }
            None => self.add_slow(counter, n),
        }
    }

    /// First pool access of a thread (no slot leased yet), or a thread with
    /// no row of its own.
    #[cold]
    fn add_slow(&self, counter: Counter, n: u64) {
        let row = slot::thread_slot().and_then(|s| self.0.rows.get(s.index));
        match row {
            // Freshly leased: from now on `add` finds the row itself.
            Some(row) => row.0[counter as usize].fetch_add(n, Relaxed),
            None => self.0.overflow.0[counter as usize].fetch_add(n, Relaxed),
        };
    }

    /// Sums every row, the overflow row included.
    fn totals(&self) -> [u64; COUNTERS] {
        let mut sum = [0u64; COUNTERS];
        for row in self.0.rows.iter().chain([&self.0.overflow]) {
            for (total, cell) in sum.iter_mut().zip(&row.0) {
                *total = total.wrapping_add(cell.load(Relaxed));
            }
        }
        sum
    }

    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let totals = self.totals();
        // Every counter only grows and the baseline is an earlier sum of
        // the same counters, so the difference cannot go negative.
        let since = |c: Counter| {
            totals[c as usize].wrapping_sub(self.0.baseline.0[c as usize].load(Relaxed))
        };
        StatsSnapshot {
            flushes: since(Counter::Flushes),
            fences: since(Counter::Fences),
            nt_stores: since(Counter::NtStores),
            post_flush_accesses: since(Counter::PostFlushAccesses),
            loads: since(Counter::Loads),
            stores: since(Counter::Stores),
            cas_ops: since(Counter::CasOps),
            implicit_evictions: since(Counter::ImplicitEvictions),
        }
    }

    pub(crate) fn reset(&self) {
        for (base, total) in self.0.baseline.0.iter().zip(self.totals()) {
            base.store(total, Relaxed);
        }
    }

    /// What the overflow row alone holds for `counter`.
    #[cfg(test)]
    pub(crate) fn overflow(&self, counter: Counter) -> u64 {
        self.0.overflow.0[counter as usize].load(Relaxed)
    }
}

/// A point-in-time copy of the pool's persistence counters.
///
/// Snapshots can be subtracted to obtain the events attributable to a region
/// of an experiment: `let delta = pool.stats() - before;`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Asynchronous cache-line flushes issued (CLWB/CLFLUSHOPT).
    pub flushes: u64,
    /// Blocking store fences issued (SFENCE).
    pub fences: u64,
    /// Non-temporal stores issued (`movnti`).
    pub nt_stores: u64,
    /// Loads/stores/CASes that touched a cache line previously invalidated by
    /// an explicit flush — the quantity the second amendment drives to zero.
    pub post_flush_accesses: u64,
    /// Plain persistent-memory loads.
    pub loads: u64,
    /// Plain persistent-memory stores.
    pub stores: u64,
    /// Compare-and-swap operations on persistent memory.
    pub cas_ops: u64,
    /// Cache lines persisted by the simulated implicit-eviction adversary.
    pub implicit_evictions: u64,
}

impl StatsSnapshot {
    /// Blocking persist operations (the quantity lower-bounded by Cohen et
    /// al.): one per fence.
    pub fn blocking_persists(&self) -> u64 {
        self.fences
    }

    /// Divides every counter by `ops`, yielding per-operation averages.
    pub fn per_op(&self, ops: u64) -> PerOpStats {
        let d = |v: u64| v as f64 / ops.max(1) as f64;
        PerOpStats {
            flushes: d(self.flushes),
            fences: d(self.fences),
            nt_stores: d(self.nt_stores),
            post_flush_accesses: d(self.post_flush_accesses),
        }
    }
}

impl Sub for StatsSnapshot {
    type Output = StatsSnapshot;
    fn sub(self, rhs: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            flushes: self.flushes - rhs.flushes,
            fences: self.fences - rhs.fences,
            nt_stores: self.nt_stores - rhs.nt_stores,
            post_flush_accesses: self.post_flush_accesses - rhs.post_flush_accesses,
            loads: self.loads - rhs.loads,
            stores: self.stores - rhs.stores,
            cas_ops: self.cas_ops - rhs.cas_ops,
            implicit_evictions: self.implicit_evictions - rhs.implicit_evictions,
        }
    }
}

impl Add for StatsSnapshot {
    type Output = StatsSnapshot;
    fn add(self, rhs: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            flushes: self.flushes + rhs.flushes,
            fences: self.fences + rhs.fences,
            nt_stores: self.nt_stores + rhs.nt_stores,
            post_flush_accesses: self.post_flush_accesses + rhs.post_flush_accesses,
            loads: self.loads + rhs.loads,
            stores: self.stores + rhs.stores,
            cas_ops: self.cas_ops + rhs.cas_ops,
            implicit_evictions: self.implicit_evictions + rhs.implicit_evictions,
        }
    }
}

impl AddAssign for StatsSnapshot {
    fn add_assign(&mut self, rhs: StatsSnapshot) {
        *self = *self + rhs;
    }
}

/// Sums the counters of many pools — e.g. one snapshot per shard of a
/// sharded queue — into the aggregate the bench layer attributes costs from.
impl Sum for StatsSnapshot {
    fn sum<I: Iterator<Item = StatsSnapshot>>(iter: I) -> StatsSnapshot {
        iter.fold(StatsSnapshot::default(), |acc, s| acc + s)
    }
}

impl<'a> Sum<&'a StatsSnapshot> for StatsSnapshot {
    fn sum<I: Iterator<Item = &'a StatsSnapshot>>(iter: I) -> StatsSnapshot {
        iter.copied().sum()
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "flushes={} fences={} nt_stores={} post_flush_accesses={} loads={} stores={} cas={} evictions={}",
            self.flushes,
            self.fences,
            self.nt_stores,
            self.post_flush_accesses,
            self.loads,
            self.stores,
            self.cas_ops,
            self.implicit_evictions
        )
    }
}

/// Per-operation averages of the persistence events that matter for the
/// paper's analysis (experiments E7/E8).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PerOpStats {
    /// Average flushes per operation.
    pub flushes: f64,
    /// Average blocking fences per operation.
    pub fences: f64,
    /// Average non-temporal stores per operation.
    pub nt_stores: f64,
    /// Average post-flush accesses per operation.
    pub post_flush_accesses: f64,
}

impl fmt::Display for PerOpStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fences/op={:.3} flushes/op={:.3} nt_stores/op={:.3} post_flush_accesses/op={:.3}",
            self.fences, self.flushes, self.nt_stores, self.post_flush_accesses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_subtraction() {
        let a = StatsSnapshot {
            flushes: 10,
            fences: 5,
            nt_stores: 2,
            post_flush_accesses: 7,
            loads: 100,
            stores: 50,
            cas_ops: 20,
            implicit_evictions: 1,
        };
        let b = StatsSnapshot {
            flushes: 4,
            fences: 2,
            nt_stores: 1,
            post_flush_accesses: 3,
            loads: 40,
            stores: 20,
            cas_ops: 10,
            implicit_evictions: 0,
        };
        let d = a - b;
        assert_eq!(d.flushes, 6);
        assert_eq!(d.fences, 3);
        assert_eq!(d.post_flush_accesses, 4);
        assert_eq!(d.blocking_persists(), 3);
    }

    #[test]
    fn snapshot_addition_and_sum() {
        let a = StatsSnapshot {
            flushes: 10,
            fences: 5,
            nt_stores: 2,
            post_flush_accesses: 7,
            loads: 100,
            stores: 50,
            cas_ops: 20,
            implicit_evictions: 1,
        };
        let b = StatsSnapshot {
            flushes: 4,
            fences: 2,
            nt_stores: 1,
            post_flush_accesses: 3,
            loads: 40,
            stores: 20,
            cas_ops: 10,
            implicit_evictions: 0,
        };
        let s = a + b;
        assert_eq!(s.flushes, 14);
        assert_eq!(s.fences, 7);
        assert_eq!(s.nt_stores, 3);
        assert_eq!(s.post_flush_accesses, 10);
        assert_eq!(s.loads, 140);
        assert_eq!(s.stores, 70);
        assert_eq!(s.cas_ops, 30);
        assert_eq!(s.implicit_evictions, 1);
        // Add/Sub are inverses.
        assert_eq!(s - b, a);

        let mut acc = StatsSnapshot::default();
        acc += a;
        acc += b;
        assert_eq!(acc, s);

        // Sum over owned and borrowed iterators (per-shard aggregation).
        let shards = [a, b, a];
        assert_eq!(shards.iter().sum::<StatsSnapshot>(), a + b + a);
        assert_eq!(shards.into_iter().sum::<StatsSnapshot>(), a + b + a);
        assert_eq!(
            std::iter::empty::<StatsSnapshot>().sum::<StatsSnapshot>(),
            StatsSnapshot::default()
        );
    }

    #[test]
    fn per_op_averages() {
        let s = StatsSnapshot {
            fences: 100,
            flushes: 200,
            ..Default::default()
        };
        let p = s.per_op(100);
        assert!((p.fences - 1.0).abs() < 1e-9);
        assert!((p.flushes - 2.0).abs() < 1e-9);
        // Guard against division by zero.
        let _ = s.per_op(0);
    }

    #[test]
    fn stats_reset_clears_counters() {
        let s = Stats::default();
        s.add(Counter::Flushes, 3);
        s.add(Counter::Fences, 1);
        assert_eq!(s.snapshot().flushes, 3);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    /// Holds more threads alive at once than there are owned rows, so some
    /// of them must count into the overflow row; the totals stay exact.
    #[test]
    fn threads_past_the_last_row_share_the_overflow_row_exactly() {
        const THREADS: usize = OWNED_ROWS + 8;
        const OPS: u64 = 2_000;
        let stats = Stats::default();
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    // Lease a slot, then wait until every thread holds one:
                    // THREADS distinct slots cannot fit OWNED_ROWS rows.
                    stats.add(Counter::Fences, 1);
                    barrier.wait();
                    for _ in 0..OPS {
                        stats.add(Counter::Loads, 1);
                        stats.add(Counter::Stores, 2);
                    }
                });
            }
        });
        let snap = stats.snapshot();
        assert_eq!(snap.fences, THREADS as u64);
        assert_eq!(snap.loads, THREADS as u64 * OPS);
        assert_eq!(snap.stores, THREADS as u64 * OPS * 2);
        let overflowed = stats.overflow(Counter::Loads);
        assert!(
            overflowed >= 8 * OPS && overflowed % OPS == 0,
            "at least 8 whole threads had no row of their own, got {overflowed}"
        );
    }

    /// `reset` records a baseline instead of zeroing rows, so resetting
    /// while writers run loses none of their counts.
    #[test]
    fn reset_under_traffic_never_writes_a_row() {
        const THREADS: usize = 4;
        const OPS: u64 = 200_000;
        let stats = Stats::default();
        let start = std::sync::Barrier::new(THREADS + 1);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..OPS {
                        stats.add(Counter::CasOps, 1);
                    }
                });
            }
            start.wait();
            for _ in 0..200 {
                stats.reset();
                let seen = stats.snapshot().cas_ops;
                assert!(seen <= THREADS as u64 * OPS, "never over-counts");
            }
        });
        // Had any reset stored into a row, that row's holder would have
        // lost increments and the raw total would fall short.
        assert_eq!(
            stats.totals()[Counter::CasOps as usize],
            THREADS as u64 * OPS
        );
        // At quiescence a reset draws the line exactly.
        stats.reset();
        assert_eq!(stats.snapshot(), StatsSnapshot::default());
        stats.add(Counter::CasOps, 3);
        assert_eq!(stats.snapshot().cas_ops, 3);
    }

    #[test]
    fn display_formats() {
        let s = StatsSnapshot::default();
        assert!(format!("{s}").contains("fences=0"));
        assert!(format!("{}", s.per_op(1)).contains("fences/op"));
    }
}
