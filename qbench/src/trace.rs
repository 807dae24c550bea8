//! Tracing from outside: spans at the `lease`, `shard`, `core` and `store`
//! boundaries, recorded by wrappers of the benchmark's own.
//!
//! The traced run assembles the deployment by hand with [`CoreWrap`] around
//! the queue algorithm under the shards, [`ShardWrap`] around the sharded
//! queue under the lease layer, and [`TimedBackend`] around the file pool
//! under `PmemPool`; the load generator opens a span around every `lease`
//! call itself. The gated run contains none of this.
//!
//! Every call is counted. One operation in `period` (64, or every one where
//! the mean call is ≥ 10 µs) is also *recorded*: the operation opens a root
//! span (`produce` or `consume`, carrying the message number), every
//! wrapper below it opens a child, and the closed spans go to a
//! preallocated per-thread buffer that is written out when the workload
//! ends. A layer's self time is its spans' duration minus the part their
//! children cover; both sums are kept per span name as spans close, so the
//! ledger does not depend on the buffer's capacity.
//!
//! The two clock reads of a span cost about as much as the cheapest layer
//! they measure, so the cost is taken out: a span's own reads inflate its
//! duration by `inner`, and each child inflates its parent's self time by
//! `pair - inner`. [`calibrate`] prices a span in a hot loop; inside a
//! workload, where the recording code runs once in 64 operations and finds
//! its instructions evicted, a span costs about twice that. So the ledger
//! is calibrated in place ([`Ledger::calibrate_in_place`]): the recorded
//! operations' root spans last longer than the phase timing says an
//! operation takes, and that excess, spread evenly over the spans that
//! caused it, is the price of one span.

use durable_queues::{DurableQueue, KeyedQueue, QueueConfig, RecoverableQueue};
use pmem::{FenceHint, MapRef, PmemPool, PoolBackend, StatsSnapshot};
use std::cell::RefCell;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Span names, in ledger order. Roots first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// Root of a produce operation (one `enqueue`).
    Produce = 0,
    /// Root of a consume operation (one `dequeue` and its `ack`/`nack`).
    Consume,
    /// `LeasedQueue`/`GroupedQueue` `enqueue`.
    LeaseEnqueue,
    /// `LeasedQueue`/`ConsumerGroup` `dequeue`.
    LeaseDequeue,
    /// `ack`.
    LeaseAck,
    /// `nack`.
    LeaseNack,
    /// `ShardedQueue` enqueue, as seen by the lease layer.
    ShardEnqueue,
    /// `ShardedQueue` dequeue.
    ShardDequeue,
    /// The queue algorithm's enqueue, as seen by the shard layer.
    CoreEnqueue,
    /// The queue algorithm's dequeue.
    CoreDequeue,
    /// `PoolBackend::flush` on the file pool.
    StoreFlush,
    /// `PoolBackend::sfence` on the file pool.
    StoreSfence,
}

/// Number of span names.
pub const NAMES: usize = 12;

/// The names as written to the span file, indexed by `Name as usize`.
const NAME_STRS: [&str; NAMES] = [
    "produce",
    "consume",
    "lease.enqueue",
    "lease.dequeue",
    "lease.ack",
    "lease.nack",
    "shard.enqueue",
    "shard.dequeue",
    "core.enqueue",
    "core.dequeue",
    "store.flush",
    "store.sfence",
];

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What was measured.
    pub name: u8,
    /// Index of the parent span in the same thread's buffer; `u32::MAX`
    /// for a root.
    pub parent: u32,
    /// Nanoseconds since the process's trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the process's trace epoch.
    pub end_ns: u64,
    /// Message number the operation was about.
    pub msg: u64,
}

/// Spans one thread keeps for the span file.
const SPAN_CAPACITY: usize = 1 << 16;
/// Root-span durations one thread keeps for the tail percentiles.
const SAMPLE_CAPACITY: usize = 1 << 20;

#[derive(Clone, Copy, Default)]
struct Open {
    name: u8,
    start_ns: u64,
    children_ns: u64,
    children: u32,
    /// Slot reserved in the span buffer, or `u32::MAX`.
    slot: u32,
}

/// Everything one thread recorded.
pub struct ThreadTrace {
    period: u64,
    sampling: bool,
    msg: u64,
    depth: usize,
    open: [Open; 8],
    spans: Vec<Span>,
    /// Calls per name, recorded or not.
    pub calls: [u64; NAMES],
    /// Spans closed per name.
    pub timed: [u64; NAMES],
    /// Summed duration of closed spans per name.
    pub total_ns: [u64; NAMES],
    /// Summed duration of their direct children.
    pub children_ns: [u64; NAMES],
    /// Number of their direct children.
    pub children: [u64; NAMES],
    /// Durations of recorded `produce` roots, in µs.
    pub produce_us: Vec<f32>,
    /// Durations of recorded `consume` roots, in µs.
    pub consume_us: Vec<f32>,
}

impl ThreadTrace {
    fn new() -> Self {
        ThreadTrace {
            period: 64,
            sampling: false,
            msg: 0,
            depth: 0,
            open: [Open::default(); 8],
            spans: Vec::new(),
            calls: [0; NAMES],
            timed: [0; NAMES],
            total_ns: [0; NAMES],
            children_ns: [0; NAMES],
            children: [0; NAMES],
            produce_us: Vec::new(),
            consume_us: Vec::new(),
        }
    }
}

thread_local! {
    static TRACE: RefCell<ThreadTrace> = RefCell::new(ThreadTrace::new());
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[inline]
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Prepares the calling thread to record: one operation in `period`,
/// buffers preallocated so that no recording allocates.
pub fn arm(period: u64) {
    epoch();
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        *t = ThreadTrace::new();
        t.period = period.max(1);
        t.spans.reserve_exact(SPAN_CAPACITY);
        t.produce_us.reserve_exact(SAMPLE_CAPACITY);
        t.consume_us.reserve_exact(SAMPLE_CAPACITY);
    });
}

/// Takes what the calling thread recorded, leaving it unarmed.
pub fn take() -> ThreadTrace {
    TRACE.with(|t| std::mem::replace(&mut *t.borrow_mut(), ThreadTrace::new()))
}

/// Forgets what the calling thread recorded so far but stays armed: the
/// warm-up rounds are not part of the ledger.
pub fn reset() {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let period = t.period;
        let mut fresh = ThreadTrace::new();
        fresh.period = period;
        fresh.spans = std::mem::take(&mut t.spans);
        fresh.spans.clear();
        fresh.produce_us = std::mem::take(&mut t.produce_us);
        fresh.produce_us.clear();
        fresh.consume_us = std::mem::take(&mut t.consume_us);
        fresh.consume_us.clear();
        *t = fresh;
    });
}

fn push(t: &mut ThreadTrace, name: Name) {
    let slot = if t.spans.len() < SPAN_CAPACITY {
        t.spans.push(Span {
            name: name as u8,
            parent: t.depth.checked_sub(1).map_or(u32::MAX, |d| t.open[d].slot),
            start_ns: 0,
            end_ns: 0,
            msg: t.msg,
        });
        (t.spans.len() - 1) as u32
    } else {
        u32::MAX
    };
    let d = t.depth;
    t.depth += 1;
    t.open[d] = Open {
        name: name as u8,
        start_ns: now_ns(),
        children_ns: 0,
        children: 0,
        slot,
    };
}

fn pop(t: &mut ThreadTrace) -> u64 {
    let end_ns = now_ns();
    t.depth -= 1;
    let o = t.open[t.depth];
    let dur = end_ns - o.start_ns;
    let n = o.name as usize;
    t.timed[n] += 1;
    t.total_ns[n] += dur;
    t.children_ns[n] += o.children_ns;
    t.children[n] += o.children as u64;
    if let Some(d) = t.depth.checked_sub(1) {
        t.open[d].children_ns += dur;
        t.open[d].children += 1;
    }
    if let Some(s) = t.spans.get_mut(o.slot as usize) {
        s.start_ns = o.start_ns;
        s.end_ns = end_ns;
    }
    dur
}

/// Opens the root span of an operation on message `msg`. Returns whether
/// this operation is one of those recorded.
#[inline]
pub fn op_begin(name: Name, msg: u64) -> bool {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let n = name as usize;
        t.calls[n] += 1;
        if t.calls[n] % t.period != 0 {
            return false;
        }
        t.sampling = true;
        t.msg = msg;
        push(&mut t, name);
        true
    })
}

/// Closes the root span opened by [`op_begin`], if it was recorded.
#[inline]
pub fn op_end(recorded: bool) {
    if !recorded {
        return;
    }
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let root = t.open[0].name;
        let dur = pop(&mut t);
        t.sampling = false;
        let samples = if root == Name::Produce as u8 {
            &mut t.produce_us
        } else {
            &mut t.consume_us
        };
        if samples.len() < SAMPLE_CAPACITY {
            samples.push(dur as f32 / 1000.0);
        }
    });
}

/// Runs `f` inside a child span called `name`: counted always, timed when
/// the enclosing operation is recorded — or on every call with `always`,
/// for calls long enough that two clock reads vanish in them.
#[inline]
pub fn span<R>(name: Name, always: bool, f: impl FnOnce() -> R) -> R {
    let timed = TRACE.with(|t| {
        let mut t = t.borrow_mut();
        t.calls[name as usize] += 1;
        if t.sampling {
            push(&mut t, name);
            1
        } else if always {
            2
        } else {
            0
        }
    });
    match timed {
        0 => f(),
        1 => {
            let r = f();
            TRACE.with(|t| pop(&mut t.borrow_mut()));
            r
        }
        _ => {
            let start = now_ns();
            let r = f();
            let dur = now_ns() - start;
            TRACE.with(|t| {
                let mut t = t.borrow_mut();
                t.timed[name as usize] += 1;
                t.total_ns[name as usize] += dur;
            });
            r
        }
    }
}

/// What the clock reads of a span cost on this machine.
#[derive(Clone, Copy, Debug, Default)]
pub struct Calibration {
    /// Whole cost of an empty span, seen from outside, in ns.
    pub pair_ns: f64,
    /// The part of it an empty span measures as its own duration, in ns.
    pub inner_ns: f64,
}

/// Measures [`Calibration`] with empty spans on the calling thread, which
/// must not be recording anything else.
pub fn calibrate() -> Calibration {
    const N: u64 = 100_000;
    arm(1);
    let mut best = Calibration {
        pair_ns: f64::MAX,
        inner_ns: f64::MAX,
    };
    for _ in 0..5 {
        reset();
        let recorded = op_begin(Name::Produce, 0);
        let start = now_ns();
        for _ in 0..N {
            span(Name::CoreEnqueue, false, || std::hint::black_box(()));
        }
        let outside = (now_ns() - start) as f64 / N as f64;
        op_end(recorded);
        let t = take();
        arm(1);
        let inner = t.total_ns[Name::CoreEnqueue as usize] as f64 / N as f64;
        best.pair_ns = best.pair_ns.min(outside);
        best.inner_ns = best.inner_ns.min(inner);
    }
    take();
    best
}

/// The ledger of a traced pass: every thread's records merged.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Calls per name.
    pub calls: [u64; NAMES],
    /// Spans closed per name.
    pub timed: [u64; NAMES],
    total_ns: [u64; NAMES],
    children_ns: [u64; NAMES],
    children: [u64; NAMES],
    /// Durations of recorded produce operations, µs.
    pub produce_us: Vec<f64>,
    /// Durations of recorded consume operations, µs.
    pub consume_us: Vec<f64>,
    /// Spans kept for the file, per thread.
    pub spans: Vec<Vec<Span>>,
    cal: Calibration,
}

impl Ledger {
    /// Merges the threads' records.
    pub fn merge(threads: Vec<ThreadTrace>, cal: Calibration) -> Ledger {
        let mut l = Ledger {
            cal,
            ..Ledger::default()
        };
        for t in threads {
            for n in 0..NAMES {
                l.calls[n] += t.calls[n];
                l.timed[n] += t.timed[n];
                l.total_ns[n] += t.total_ns[n];
                l.children_ns[n] += t.children_ns[n];
                l.children[n] += t.children[n];
            }
            l.produce_us.extend(t.produce_us.iter().map(|&v| v as f64));
            l.consume_us.extend(t.consume_us.iter().map(|&v| v as f64));
            l.spans.push(t.spans);
        }
        l
    }

    /// Re-prices a span from the workload itself. `produce_ns` and
    /// `consume_ns` are what one produce and one consume operation take
    /// according to the phase timing (which two clock reads per phase do
    /// not disturb); whatever the recorded root spans last beyond that was
    /// spent recording, by as many spans as were recorded. The share of a
    /// span's cost that falls inside its own duration is kept from the
    /// hot-loop calibration.
    pub fn calibrate_in_place(&mut self, produce_ns: f64, consume_ns: f64) {
        let (p, c) = (Name::Produce as usize, Name::Consume as usize);
        let spans: u64 = self.timed.iter().sum();
        if spans == 0 || self.cal.pair_ns <= 0.0 {
            return;
        }
        let recorded = (self.total_ns[p] + self.total_ns[c]) as f64;
        let expected = self.timed[p] as f64 * produce_ns + self.timed[c] as f64 * consume_ns;
        // Never below the hot-loop price: a span cannot cost less in place.
        let pair = ((recorded - expected) / spans as f64).max(self.cal.pair_ns);
        self.cal = Calibration {
            pair_ns: pair,
            inner_ns: pair * self.cal.inner_ns / self.cal.pair_ns,
        };
    }

    /// The price of a span in force.
    pub fn calibration(&self) -> Calibration {
        self.cal
    }

    /// Mean self time of one `name` span in ns, clock cost taken out; 0
    /// when none was timed.
    pub fn self_ns(&self, name: Name) -> f64 {
        let n = name as usize;
        if self.timed[n] == 0 {
            return 0.0;
        }
        let raw = self.total_ns[n].saturating_sub(self.children_ns[n]) as f64;
        let clock = self.children[n] as f64 * (self.cal.pair_ns - self.cal.inner_ns)
            + self.timed[n] as f64 * self.cal.inner_ns;
        (raw - clock).max(0.0) / self.timed[n] as f64
    }

    /// Mean duration of one `name` span in ns, its own clock read taken
    /// out (its children's are not: use [`self_ns`](Self::self_ns) to
    /// add layers up).
    pub fn mean_ns(&self, name: Name) -> f64 {
        let n = name as usize;
        if self.timed[n] == 0 {
            return 0.0;
        }
        (self.total_ns[n] as f64 / self.timed[n] as f64 - self.cal.inner_ns).max(0.0)
    }

    /// Writes the kept spans as one JSON document.
    pub fn write_spans(&self, path: &std::path::Path, workload: &str) -> std::io::Result<usize> {
        use std::io::Write;
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"clock\":\"ns since trace epoch\",\
             \"span_pair_ns\":{:.1},\"span_inner_ns\":{:.1},\"threads\":[",
            self.cal.pair_ns, self.cal.inner_ns
        )?;
        let mut written = 0;
        for (tid, spans) in self.spans.iter().enumerate() {
            if tid > 0 {
                write!(out, ",")?;
            }
            write!(out, "{{\"thread\":{tid},\"spans\":[")?;
            for (i, s) in spans.iter().enumerate() {
                if i > 0 {
                    write!(out, ",")?;
                }
                let name = NAME_STRS[s.name as usize];
                write!(
                    out,
                    "\n{{\"id\":{i},\"name\":\"{name}\",\"start\":{},\"end\":{},\"parent\":{},\"msg\":{}}}",
                    s.start_ns,
                    s.end_ns,
                    if s.parent == u32::MAX {
                        "null".to_string()
                    } else {
                        s.parent.to_string()
                    },
                    s.msg
                )?;
                written += 1;
            }
            write!(out, "]}}")?;
        }
        writeln!(out, "]}}")?;
        out.flush()?;
        Ok(written)
    }
}

// ---------------------------------------------------------------------------
// Long, rare spans (recovery, file creation) go to one process-wide list:
// they run on the orchestrator's worker threads, whose thread-local
// buffers nobody collects.
// ---------------------------------------------------------------------------

/// A rare span: `(name, seconds)`.
pub type Event = (&'static str, f64);

fn events() -> &'static Mutex<Vec<Event>> {
    static EVENTS: OnceLock<Mutex<Vec<Event>>> = OnceLock::new();
    EVENTS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Times `f` as a rare span called `name`.
pub fn event<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    let secs = start.elapsed().as_secs_f64();
    events().lock().unwrap().push((name, secs));
    r
}

/// Takes every rare span recorded so far.
pub fn take_events() -> Vec<Event> {
    std::mem::take(&mut *events().lock().unwrap())
}

// ---------------------------------------------------------------------------
// The wrappers
// ---------------------------------------------------------------------------

/// The `core` boundary: wraps the queue algorithm under the shards.
pub struct CoreWrap<Q>(Q);

impl<Q: RecoverableQueue> DurableQueue for CoreWrap<Q> {
    #[inline]
    fn enqueue(&self, tid: usize, item: u64) {
        span(Name::CoreEnqueue, false, || self.0.enqueue(tid, item))
    }
    #[inline]
    fn dequeue(&self, tid: usize) -> Option<u64> {
        span(Name::CoreDequeue, false, || self.0.dequeue(tid))
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn pool(&self) -> &Arc<PmemPool> {
        self.0.pool()
    }
    fn config(&self) -> QueueConfig {
        self.0.config()
    }
    fn is_durable(&self) -> bool {
        self.0.is_durable()
    }
    fn stats(&self) -> StatsSnapshot {
        self.0.stats()
    }
    fn reset_stats(&self) {
        self.0.reset_stats()
    }
}

impl<Q: RecoverableQueue> RecoverableQueue for CoreWrap<Q> {
    fn create(pool: Arc<PmemPool>, config: QueueConfig) -> Self {
        CoreWrap(Q::create(pool, config))
    }
    fn recover(pool: Arc<PmemPool>, config: QueueConfig) -> Self {
        CoreWrap(event("core.recover", || Q::recover(pool, config)))
    }
}

/// The `shard` boundary: wraps the sharded queue under the lease layer.
pub struct ShardWrap<S>(pub S);

impl<S: KeyedQueue> DurableQueue for ShardWrap<S> {
    #[inline]
    fn enqueue(&self, tid: usize, item: u64) {
        span(Name::ShardEnqueue, false, || self.0.enqueue(tid, item))
    }
    #[inline]
    fn dequeue(&self, tid: usize) -> Option<u64> {
        span(Name::ShardDequeue, false, || self.0.dequeue(tid))
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn pool(&self) -> &Arc<PmemPool> {
        self.0.pool()
    }
    fn config(&self) -> QueueConfig {
        self.0.config()
    }
    fn is_durable(&self) -> bool {
        self.0.is_durable()
    }
    fn stats(&self) -> StatsSnapshot {
        self.0.stats()
    }
    fn reset_stats(&self) {
        self.0.reset_stats()
    }
}

impl<S: KeyedQueue> KeyedQueue for ShardWrap<S> {
    #[inline]
    fn enqueue_keyed(&self, tid: usize, key: u64, item: u64) {
        span(Name::ShardEnqueue, false, || {
            self.0.enqueue_keyed(tid, key, item)
        })
    }
}

/// The `store` boundary: a [`PoolBackend`] decorator that times `flush`
/// and `sfence` and forwards everything else untouched (`PmemPool` counts
/// word operations itself).
pub struct TimedBackend<B> {
    inner: B,
    /// Time every fence, recorded operation or not: set under the
    /// power-fail tier, where a fence is an `msync`.
    always_time_fences: bool,
}

impl<B: PoolBackend> TimedBackend<B> {
    /// Wraps `inner`.
    pub fn new(inner: B, always_time_fences: bool) -> Self {
        TimedBackend {
            inner,
            always_time_fences,
        }
    }
}

impl<B: PoolBackend> PoolBackend for TimedBackend<B> {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
    #[inline]
    fn load_u64(&self, off: u32) -> u64 {
        self.inner.load_u64(off)
    }
    #[inline]
    fn store_u64(&self, off: u32, val: u64) {
        self.inner.store_u64(off, val)
    }
    #[inline]
    fn cas_u64(&self, off: u32, current: u64, new: u64) -> Result<u64, u64> {
        self.inner.cas_u64(off, current, new)
    }
    #[inline]
    fn fetch_add_u64(&self, off: u32, val: u64) -> u64 {
        self.inner.fetch_add_u64(off, val)
    }
    #[inline]
    fn swap_u64(&self, off: u32, val: u64) -> u64 {
        self.inner.swap_u64(off, val)
    }
    #[inline]
    fn flush(&self, tid: usize, off: u32) {
        span(Name::StoreFlush, false, || self.inner.flush(tid, off))
    }
    fn flush_range(&self, tid: usize, off: u32, len: u32) {
        self.inner.flush_range(tid, off, len)
    }
    #[inline]
    fn sfence(&self, tid: usize) {
        span(Name::StoreSfence, self.always_time_fences, || {
            self.inner.sfence(tid)
        })
    }
    #[inline]
    fn nt_store_u64(&self, tid: usize, off: u32, val: u64) {
        self.inner.nt_store_u64(tid, off, val)
    }
    fn persist_now(&self, off: u32) {
        self.inner.persist_now(off)
    }
    fn mark_line_cached(&self, off: u32) {
        self.inner.mark_line_cached(off)
    }
    fn zero_range(&self, off: u32, len: u32) {
        self.inner.zero_range(off, len)
    }
    fn watermark(&self) -> u32 {
        self.inner.watermark()
    }
    fn cas_watermark(&self, current: u32, new: u32) -> Result<u32, u32> {
        self.inner.cas_watermark(current, new)
    }
    fn try_grow(&self, min_len: usize) -> bool {
        self.inner.try_grow(min_len)
    }
    fn growth_epoch(&self) -> u32 {
        self.inner.growth_epoch()
    }
    fn fence_hint(&self) -> FenceHint {
        self.inner.fence_hint()
    }
    fn map_ref(&self) -> Option<MapRef<'_>> {
        self.inner.map_ref()
    }
    fn root_u64(&self, slot: usize) -> u64 {
        self.inner.root_u64(slot)
    }
    fn set_root_u64(&self, slot: usize, val: u64) {
        self.inner.set_root_u64(slot, val)
    }
    fn persistent_u64_at(&self, off: u32) -> u64 {
        self.inner.persistent_u64_at(off)
    }
    fn sync(&self) {
        self.inner.sync()
    }
    fn mark_clean(&self, clean: bool) {
        self.inner.mark_clean(clean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_a_span_minus_what_its_children_cover() {
        arm(1);
        for msg in 0..200 {
            let rec = op_begin(Name::Produce, msg);
            assert!(rec);
            span(Name::LeaseEnqueue, false, || {
                busy(20_000);
                span(Name::ShardEnqueue, false, || busy(50_000));
            });
            op_end(rec);
        }
        let l = Ledger::merge(vec![take()], Calibration::default());
        assert_eq!(l.calls[Name::LeaseEnqueue as usize], 200);
        assert_eq!(l.timed[Name::ShardEnqueue as usize], 200);
        let lease = l.self_ns(Name::LeaseEnqueue);
        let shard = l.self_ns(Name::ShardEnqueue);
        // Lower bounds only: the busy loops can be preempted, never cut
        // short. The parent must not be charged for its child's 50 us.
        assert!(lease >= 18_000.0 && shard >= 48_000.0, "{lease} {shard}");
        assert!(
            l.mean_ns(Name::LeaseEnqueue) >= lease + shard - 1.0,
            "a span covers itself and its child"
        );
        assert_eq!(l.produce_us.len(), 200);
        // The kept spans form trees: every child names a parent that
        // contains it and shares its message number.
        let spans = &l.spans[0];
        assert_eq!(spans.len(), 600);
        for s in spans.iter().filter(|s| s.parent != u32::MAX) {
            let p = spans[s.parent as usize];
            assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
            assert_eq!(p.msg, s.msg);
        }
    }

    #[test]
    fn only_one_operation_in_period_is_recorded_but_all_are_counted() {
        arm(64);
        for msg in 0..640 {
            let rec = op_begin(Name::Consume, msg);
            span(Name::LeaseDequeue, false, || ());
            op_end(rec);
        }
        let t = take();
        assert_eq!(t.calls[Name::LeaseDequeue as usize], 640);
        assert_eq!(t.timed[Name::LeaseDequeue as usize], 10);
        assert_eq!(t.consume_us.len(), 10);
    }

    #[test]
    fn always_timed_spans_are_timed_outside_recorded_operations() {
        arm(1_000_000);
        for _ in 0..10 {
            span(Name::StoreSfence, true, || busy(5_000));
        }
        let l = Ledger::merge(vec![take()], Calibration::default());
        assert_eq!(l.timed[Name::StoreSfence as usize], 10);
        assert!(l.mean_ns(Name::StoreSfence) >= 5_000.0);
    }

    #[test]
    fn calibration_finds_a_plausible_clock_cost() {
        let c = calibrate();
        assert!(c.pair_ns > 0.0 && c.pair_ns < 5_000.0, "{c:?}");
        assert!(c.inner_ns > 0.0 && c.inner_ns <= c.pair_ns, "{c:?}");
    }
}
