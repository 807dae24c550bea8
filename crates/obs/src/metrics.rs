//! Lock-free metrics: thread-owned counter columns, log₂ histograms, a
//! process-global name-keyed registry, and mergeable snapshots.
//!
//! Instruments are declared where they are used, as statics:
//!
//! ```
//! use obs::metrics::LazyCounter;
//! static GRANTS: LazyCounter = LazyCounter::new("lease.grant");
//! GRANTS.incr();
//! ```
//!
//! The first touch registers the instrument in the process-global registry;
//! two statics with the same name resolve to the *same* underlying counter,
//! so layers that share a concept (e.g. `core.enqueue` incremented by every
//! queue implementation) aggregate without coordination. [`snapshot`] folds
//! the registry into a [`MetricsSnapshot`], which merges with `Add` and
//! diffs with `Sub` exactly like `pmem::StatsSnapshot` — take one before
//! and one after a phase, subtract, and you have the phase's metrics.
//!
//! A named counter is a column of one process-global
//! [`Rows`](crate::rows::Rows) table: an increment is a plain load and
//! store in the calling thread's own row, next to the other counters that
//! thread touches, and a read sums the column over the rows. Like every
//! row table, the totals are exact at quiescence and a lower bound while
//! writers run.
//!
//! Everything here is gated on the default-on `instrument` feature: with it
//! off, `incr`/`record`/`start_timer` are empty inline functions (no atomic
//! touched, no `Instant::now`), and [`snapshot`] returns an empty snapshot.

#[cfg(feature = "instrument")]
use crate::locked;
use crate::rows::CachePadded;
use std::collections::BTreeMap;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(feature = "instrument")]
use std::sync::{atomic::AtomicUsize, Mutex, OnceLock};

/// The most distinct counter names a process may register (29 exist
/// today). A column costs 8 bytes in every thread's row whether or not it
/// is used, so this is a constant, not an option; one name too many panics
/// at the registration that exceeds it.
pub const CAP: usize = 64;

/// Buckets per histogram: bucket 0 holds zeros, bucket *i* ≥ 1 holds values
/// in `[2^(i-1), 2^i)`, and the last bucket is unbounded above.
pub const BUCKETS: usize = 64;

/// The table whose columns are the named counters, in registration order.
#[cfg(feature = "instrument")]
static NAMED: crate::rows::Rows<CAP> = crate::rows::Rows::new();

// ---------------------------------------------------------------------------
// Raw instruments
// ---------------------------------------------------------------------------

/// A log₂-bucketed histogram of `u64` samples (typically nanoseconds).
///
/// `record` is two relaxed `fetch_add`s (bucket + sum) on shared lines;
/// unlike a counter column the buckets are not per thread — nothing on an
/// operation path records a histogram (msync, growth and recovery spans
/// only), and a row of 64 buckets per thread per instrument would be half a
/// kilobyte each.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: CachePadded<AtomicU64>,
}

impl Histogram {
    /// A zeroed histogram, usable in statics.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// The bucket index for `v`: 0 for 0, else `64 − leading_zeros(v)`,
    /// clamped so `v ≥ 2^62` lands in the last (unbounded) bucket.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    /// The inclusive upper bound of bucket `i`, or `None` for the last
    /// (unbounded) bucket.
    pub fn bucket_bound(i: usize) -> Option<u64> {
        match i {
            0 => Some(0),
            _ if i < BUCKETS - 1 => Some((1u64 << i) - 1),
            _ => None,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        #[cfg(feature = "instrument")]
        {
            self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
        }
        #[cfg(not(feature = "instrument"))]
        let _ = v;
    }

    /// A point-in-time copy of the buckets and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

// ---------------------------------------------------------------------------
// Named (registered) instruments
// ---------------------------------------------------------------------------

#[cfg(feature = "instrument")]
#[derive(Default)]
struct Registry {
    /// Counter name → its column of [`NAMED`].
    counters: Mutex<BTreeMap<&'static str, usize>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
}

#[cfg(feature = "instrument")]
fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

#[cfg(feature = "instrument")]
impl Registry {
    fn counter(&self, name: &'static str) -> usize {
        let mut map = locked(&self.counters);
        let next = map.len();
        *map.entry(name).or_insert_with(|| {
            assert!(
                next < CAP,
                "counter {name:?} is one name past obs::metrics::CAP = {CAP}"
            );
            next
        })
    }

    fn histogram(&self, name: &'static str) -> &'static Histogram {
        locked(&self.histograms)
            .entry(name)
            .or_insert_with(|| Box::leak(Box::default()))
    }
}

/// A named counter that registers itself in the process-global registry on
/// first use. Declare as a `static` next to the code it instruments; two
/// statics with the same name share one column.
pub struct LazyCounter {
    name: &'static str,
    /// The name's column, or a value `>= CAP` until first use.
    #[cfg(feature = "instrument")]
    column: AtomicUsize,
}

impl LazyCounter {
    /// A not-yet-registered counter named `name` (dotted lowercase by
    /// convention, e.g. `"store.growth"`).
    pub const fn new(name: &'static str) -> LazyCounter {
        LazyCounter {
            name,
            #[cfg(feature = "instrument")]
            column: AtomicUsize::new(usize::MAX),
        }
    }

    /// The instrument's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The column is the only thing a resolution publishes (the table is a
    /// static), so relaxed loads and stores of it are enough.
    #[cfg(feature = "instrument")]
    #[cold]
    fn resolve(&self) -> usize {
        let column = registry().counter(self.name);
        self.column.store(column, Ordering::Relaxed);
        column
    }

    /// Adds `n`: one unlocked add in the calling thread's row.
    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(feature = "instrument")]
        {
            let mut column = self.column.load(Ordering::Relaxed);
            if column >= CAP {
                column = self.resolve();
            }
            NAMED.add(column, n);
        }
        #[cfg(not(feature = "instrument"))]
        let _ = n;
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current total (0 when instrumentation is disabled).
    pub fn value(&self) -> u64 {
        #[cfg(feature = "instrument")]
        {
            NAMED.totals()[self.resolve()]
        }
        #[cfg(not(feature = "instrument"))]
        0
    }
}

/// A named histogram that registers itself on first use; see
/// [`LazyCounter`] for the registration contract.
pub struct LazyHistogram {
    name: &'static str,
    #[cfg(feature = "instrument")]
    cell: OnceLock<&'static Histogram>,
}

impl LazyHistogram {
    /// A not-yet-registered histogram named `name`. Latency instruments end
    /// in `_ns` by convention (`"store.msync_ns"`).
    pub const fn new(name: &'static str) -> LazyHistogram {
        LazyHistogram {
            name,
            #[cfg(feature = "instrument")]
            cell: OnceLock::new(),
        }
    }

    /// The instrument's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    #[cfg(feature = "instrument")]
    #[inline]
    fn resolve(&self) -> &'static Histogram {
        self.cell.get_or_init(|| registry().histogram(self.name))
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        #[cfg(feature = "instrument")]
        self.resolve().record(v);
        #[cfg(not(feature = "instrument"))]
        let _ = v;
    }

    /// Starts a timer whose drop records the elapsed nanoseconds here.
    /// When instrumentation is disabled the timer is a zero-sized no-op —
    /// `Instant::now` is never called.
    #[inline]
    pub fn start_timer(&self) -> Timer<'_> {
        Timer {
            #[cfg(feature = "instrument")]
            hist: self.resolve(),
            #[cfg(feature = "instrument")]
            start: std::time::Instant::now(),
            #[cfg(not(feature = "instrument"))]
            _marker: std::marker::PhantomData,
        }
    }
}

/// Records elapsed wall time into a histogram on drop; see
/// [`LazyHistogram::start_timer`].
pub struct Timer<'a> {
    #[cfg(feature = "instrument")]
    hist: &'a Histogram,
    #[cfg(feature = "instrument")]
    start: std::time::Instant,
    #[cfg(not(feature = "instrument"))]
    _marker: std::marker::PhantomData<&'a ()>,
}

#[cfg(feature = "instrument")]
impl Drop for Timer<'_> {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_nanos() as u64);
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A point-in-time copy of every registered instrument. Empty when the
/// `instrument` feature is off.
pub fn snapshot() -> MetricsSnapshot {
    #[cfg(feature = "instrument")]
    {
        let reg = registry();
        let totals = NAMED.totals();
        let counters = locked(&reg.counters)
            .iter()
            .map(|(&name, &column)| (name.to_string(), totals[column]))
            .collect();
        let histograms = locked(&reg.histograms)
            .iter()
            .map(|(&name, h)| (name.to_string(), h.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
    #[cfg(not(feature = "instrument"))]
    MetricsSnapshot::default()
}

/// A point-in-time copy of one histogram's buckets and sum. Merges with
/// `Add`, diffs with `Sub` (bucketwise, saturating).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket counts, [`BUCKETS`] long (empty only in `Default`).
    pub buckets: Vec<u64>,
    /// Sum of all recorded samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean sample, or 0 with no samples.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// An upper bound on the `q`-quantile (0 < q ≤ 1): the inclusive upper
    /// bound of the first bucket at which the cumulative count reaches
    /// `q × count`. Within-bucket position is unknown, so the estimate is
    /// exact only up to the log₂ bucket width. Returns 0 with no samples;
    /// `u64::MAX` if the quantile lands in the unbounded last bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Histogram::bucket_bound(i).unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    fn widen(&mut self) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; BUCKETS];
        }
    }
}

impl Add for HistogramSnapshot {
    type Output = HistogramSnapshot;
    fn add(mut self, rhs: HistogramSnapshot) -> HistogramSnapshot {
        self.widen();
        for (i, &c) in rhs.buckets.iter().enumerate() {
            self.buckets[i] += c;
        }
        self.sum += rhs.sum;
        self
    }
}

impl Sub for HistogramSnapshot {
    type Output = HistogramSnapshot;
    fn sub(mut self, rhs: HistogramSnapshot) -> HistogramSnapshot {
        self.widen();
        for (i, &c) in rhs.buckets.iter().enumerate() {
            self.buckets[i] = self.buckets[i].saturating_sub(c);
        }
        self.sum = self.sum.saturating_sub(rhs.sum);
        self
    }
}

/// Every registered instrument at one point in time. `Sub` an earlier
/// snapshot from a later one for a phase delta; `Add`/`Sum` merge
/// snapshots from different processes (e.g. parent + crashed child).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter totals by instrument name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by instrument name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// True when no instrument has been registered (always true with the
    /// `instrument` feature off).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// A counter's value, 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

impl Add for MetricsSnapshot {
    type Output = MetricsSnapshot;
    fn add(mut self, rhs: MetricsSnapshot) -> MetricsSnapshot {
        self += rhs;
        self
    }
}

impl AddAssign for MetricsSnapshot {
    fn add_assign(&mut self, rhs: MetricsSnapshot) {
        for (name, v) in rhs.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, h) in rhs.histograms {
            let slot = self.histograms.entry(name).or_default();
            *slot = std::mem::take(slot) + h;
        }
    }
}

impl Sub for MetricsSnapshot {
    type Output = MetricsSnapshot;
    fn sub(mut self, rhs: MetricsSnapshot) -> MetricsSnapshot {
        for (name, v) in rhs.counters {
            let slot = self.counters.entry(name).or_insert(0);
            *slot = slot.saturating_sub(v);
        }
        for (name, h) in rhs.histograms {
            let slot = self.histograms.entry(name).or_default();
            *slot = std::mem::take(slot) - h;
        }
        self
    }
}

impl Sum for MetricsSnapshot {
    fn sum<I: Iterator<Item = MetricsSnapshot>>(iter: I) -> MetricsSnapshot {
        iter.fold(MetricsSnapshot::default(), Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_tile_the_axis() {
        assert_eq!(Histogram::bucket_bound(0), Some(0));
        assert_eq!(Histogram::bucket_bound(1), Some(1));
        assert_eq!(Histogram::bucket_bound(10), Some(1023));
        assert_eq!(Histogram::bucket_bound(BUCKETS - 1), None);
        // Every value's bucket bound is >= the value (when bounded).
        for v in [0u64, 1, 2, 7, 100, 65_535, 1 << 40] {
            let b = Histogram::bucket_bound(Histogram::bucket_index(v)).unwrap();
            assert!(b >= v, "bound {b} < value {v}");
        }
    }

    /// A named counter is exact at quiescence, with fewer live threads than
    /// there are rows and with more (the surplus shares the overflow row).
    #[cfg(feature = "instrument")]
    #[test]
    fn counter_sums_across_threads() {
        static C: LazyCounter = LazyCounter::new("test.metrics.threads");
        const OPS: u64 = 10_000;
        let _alone = crate::slot::burst_lock();
        for threads in [8, crate::rows::OWNED_ROWS + 8] {
            let before = C.value();
            let all_alive = std::sync::Barrier::new(threads);
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        C.incr();
                        all_alive.wait();
                        for _ in 1..OPS {
                            C.incr();
                        }
                    });
                }
            });
            assert_eq!(C.value(), before + threads as u64 * OPS);
        }
    }

    #[cfg(feature = "instrument")]
    #[test]
    fn same_name_statics_share_one_counter() {
        static A: LazyCounter = LazyCounter::new("test.metrics.shared");
        static B: LazyCounter = LazyCounter::new("test.metrics.shared");
        static OTHER: LazyCounter = LazyCounter::new("test.metrics.other");
        let before = A.value();
        let other_before = OTHER.value();
        A.add(3);
        B.add(4);
        OTHER.add(5);
        assert_eq!(A.value(), before + 7);
        assert_eq!(B.value(), before + 7);
        assert_eq!(
            OTHER.value(),
            other_before + 5,
            "a third name, another column"
        );
        let snap = snapshot();
        assert_eq!(snap.counter("test.metrics.shared"), before + 7);
        assert_eq!(snap.counter("test.metrics.other"), other_before + 5);
    }

    #[cfg(feature = "instrument")]
    #[test]
    #[should_panic(expected = "one name past obs::metrics::CAP")]
    fn a_name_past_the_column_cap_fails_at_registration() {
        let registry = Registry::default();
        for i in 0..=CAP {
            let name: &'static str = Box::leak(format!("test.metrics.cap.{i}").into_boxed_str());
            assert_eq!(registry.counter(name), i);
        }
    }

    /// While writers run a snapshot is a lower bound: it never passes the
    /// final total, and since every cell only grows it never goes back.
    #[cfg(feature = "instrument")]
    #[test]
    fn a_snapshot_under_traffic_is_a_rising_lower_bound() {
        static C: LazyCounter = LazyCounter::new("test.metrics.traffic");
        const THREADS: u64 = 4;
        const OPS: u64 = 200_000;
        let before = C.value();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| (0..OPS).for_each(|_| C.incr()));
            }
            let mut last = before;
            for _ in 0..200 {
                let seen = snapshot().counter("test.metrics.traffic");
                assert!(seen >= last, "{seen} after {last}");
                assert!(seen <= before + THREADS * OPS, "never over-counts");
                last = seen;
            }
        });
        assert_eq!(C.value(), before + THREADS * OPS);
    }

    /// With the feature off a named counter compiles to nothing, while the
    /// row table under it (a pool's statistics) still counts.
    #[cfg(not(feature = "instrument"))]
    #[test]
    fn without_the_feature_named_counters_are_inert_and_rows_still_count() {
        static C: LazyCounter = LazyCounter::new("test.metrics.inert");
        C.incr();
        C.add(100);
        assert_eq!(C.value(), 0);
        assert_eq!(C.name(), "test.metrics.inert");
        assert!(snapshot().is_empty());
        let rows = crate::rows::Rows::<2>::new();
        rows.add(1, 3);
        assert_eq!(rows.totals(), [0, 3]);
    }

    #[cfg(feature = "instrument")]
    #[test]
    fn timer_records_into_histogram() {
        static H: LazyHistogram = LazyHistogram::new("test.metrics.timer_ns");
        let before = snapshot()
            .histograms
            .get("test.metrics.timer_ns")
            .map(|h| h.count())
            .unwrap_or(0);
        {
            let _t = H.start_timer();
            std::hint::black_box(());
        }
        let after = snapshot().histograms["test.metrics.timer_ns"].count();
        assert_eq!(after, before + 1);
    }

    #[test]
    fn histogram_snapshot_quantiles() {
        let h = Histogram::new();
        for v in [1u64, 1, 1, 100, 100, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        if cfg!(feature = "instrument") {
            assert_eq!(s.count(), 6);
            assert_eq!(s.sum, 1_000_203);
            // p50 falls in the bucket of 1; p99 in the bucket of 1_000_000.
            assert_eq!(s.quantile(0.5), 1);
            assert!(s.quantile(0.99) >= 1_000_000);
            assert_eq!(s.mean(), 1_000_203 / 6);
        } else {
            assert_eq!(s.count(), 0);
        }
    }

    #[test]
    fn snapshot_add_sub_roundtrip() {
        let mut a = MetricsSnapshot::default();
        a.counters.insert("x".into(), 10);
        let mut hb = HistogramSnapshot {
            buckets: vec![0; BUCKETS],
            sum: 30,
        };
        hb.buckets[3] = 2;
        a.histograms.insert("h".into(), hb);

        let mut b = MetricsSnapshot::default();
        b.counters.insert("x".into(), 4);
        b.counters.insert("y".into(), 1);

        let merged = a.clone() + b.clone();
        assert_eq!(merged.counter("x"), 14);
        assert_eq!(merged.counter("y"), 1);
        assert_eq!(merged.histograms["h"].count(), 2);

        let diff = merged - b;
        assert_eq!(diff.counter("x"), a.counter("x"));
        assert_eq!(diff.counter("y"), 0);
        assert_eq!(diff.histograms["h"], a.histograms["h"]);
    }

    #[test]
    fn snapshot_sum_folds() {
        let mut a = MetricsSnapshot::default();
        a.counters.insert("x".into(), 1);
        let mut b = MetricsSnapshot::default();
        b.counters.insert("x".into(), 2);
        let total: MetricsSnapshot = [a, b].into_iter().sum();
        assert_eq!(total.counter("x"), 3);
    }
}
