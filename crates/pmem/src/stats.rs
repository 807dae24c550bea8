//! Persistence-event statistics.
//!
//! The paper argues about two per-operation quantities: the number of
//! blocking persist operations (fences) and the number of accesses to
//! previously flushed content. The pool counts both — plus flushes,
//! non-temporal stores and plain accesses — so that experiment E7/E8
//! (the `harness counts` verb) can verify the analytic claims directly:
//! one fence per update operation for the four new queues, and zero
//! post-flush accesses for OptUnlinkedQ and OptLinkedQ.

use obs::rows::Rows;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// The events a pool counts; the discriminant is the counter's column in
/// the pool's [`Rows`].
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

/// A pool's event counters — the same type behind the simulated and the
/// external arm of [`crate::PmemPool`]: one [`obs::rows`] table per pool,
/// a cache line of counters per thread, so counting costs an unlocked add.
///
/// [`snapshot`](Self::snapshot) is therefore exact only at quiescence (no
/// thread inside a pool operation); while operations run it is a lower
/// bound that misses at most the operations in flight, and
/// [`reset`](Self::reset) draws its line the same way.
///
/// Boxed so that a pool stays a few words wide; allocated once per pool.
#[derive(Default)]
pub(crate) struct Stats(pub(crate) Box<Rows<8>>);

impl Stats {
    /// Adds `n` to `counter` on behalf of the calling thread.
    #[inline]
    pub(crate) fn add(&self, counter: Counter, n: u64) {
        self.0.add(counter as usize, n);
    }

    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let since = self.0.totals();
        StatsSnapshot {
            flushes: since[Counter::Flushes as usize],
            fences: since[Counter::Fences as usize],
            nt_stores: since[Counter::NtStores as usize],
            post_flush_accesses: since[Counter::PostFlushAccesses as usize],
            loads: since[Counter::Loads as usize],
            stores: since[Counter::Stores as usize],
            cas_ops: since[Counter::CasOps as usize],
            implicit_evictions: since[Counter::ImplicitEvictions as usize],
        }
    }

    pub(crate) fn reset(&self) {
        self.0.reset();
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

    #[test]
    fn display_formats() {
        let s = StatsSnapshot::default();
        assert!(format!("{s}").contains("fences=0"));
        assert!(format!("{}", s.per_op(1)).contains("fences/op"));
    }
}
