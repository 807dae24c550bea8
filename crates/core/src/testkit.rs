//! Reusable correctness checks, generic over the queue algorithm.
//!
//! Every queue module instantiates the same battery of checks: sequential
//! FIFO semantics, equivalence to a `VecDeque` model, concurrent
//! no-loss/no-duplication, per-producer FIFO order, crash recovery of
//! completed operations, and durable linearizability under crashes that land
//! in the middle of concurrent operations (with and without the
//! implicit-eviction adversary). The module is `pub` so the workspace's
//! integration tests and the harness checker reuse the same machinery.

pub mod subprocess;

use crate::api::{DurableQueue, QueueConfig, RecoverableQueue};
use pmem::layout::CACHE_LINE;
use pmem::{PmemPool, PoolConfig, StatsSnapshot};
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// A tiny deterministic RNG (SplitMix64) so the test kit needs no external
/// crates and failures are reproducible from the seed.
pub struct TestRng(u64);

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        TestRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    /// Next pseudo-random 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    /// Uniform value in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

/// Creates a fresh queue of type `Q` on a fresh small zero-latency pool.
pub fn fresh<Q: RecoverableQueue>() -> (Q, Arc<PmemPool>) {
    fresh_with::<Q>(
        PoolConfig::test_with_size(8 << 20),
        QueueConfig::small_test(),
    )
}

/// Creates a fresh queue with explicit pool and queue configurations.
pub fn fresh_with<Q: RecoverableQueue>(
    pool_cfg: PoolConfig,
    q_cfg: QueueConfig,
) -> (Q, Arc<PmemPool>) {
    let pool = Arc::new(PmemPool::new(pool_cfg));
    let q = Q::create(Arc::clone(&pool), q_cfg);
    (q, pool)
}

/// Encodes a value that identifies its producer and sequence number, so the
/// concurrent checks can verify per-producer FIFO order.
pub fn encode(producer: usize, seq: u64) -> u64 {
    ((producer as u64) << 40) | (seq + 1)
}

/// Decodes a value produced by [`encode`] into `(producer, seq)`.
pub fn decode(value: u64) -> (usize, u64) {
    ((value >> 40) as usize, (value & 0xFF_FFFF_FFFF) - 1)
}

// ---------------------------------------------------------------------------
// Layout
// ---------------------------------------------------------------------------

/// A struct field's name and the cache lines it occupies, first to last.
pub type FieldLines = (&'static str, RangeInclusive<usize>);

/// The cache lines `field` occupies, named `name`.
pub fn field_lines<T>(name: &'static str, field: &T) -> FieldLines {
    let start = field as *const T as usize;
    let end = start + std::mem::size_of::<T>().max(1) - 1;
    (name, start / CACHE_LINE..=end / CACHE_LINE)
}

/// The layout rule of [`crate::root`] applied to a queue's volatile struct:
/// each `hot` field (a word the threads write on every operation) shares
/// no cache line with another hot field or with any `cold` (read-mostly)
/// one.
pub fn check_own_cache_lines(hot: &[FieldLines], cold: &[FieldLines]) {
    for (i, (name, lines)) in hot.iter().enumerate() {
        for (other, other_lines) in hot[i + 1..].iter().chain(cold) {
            assert!(
                lines.end() < other_lines.start() || other_lines.end() < lines.start(),
                "{name} (lines {lines:?}) shares a cache line with {other} (lines {other_lines:?})"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Sequential semantics
// ---------------------------------------------------------------------------

/// Basic single-threaded FIFO behaviour: order, emptiness, refill.
pub fn check_sequential_fifo<Q: RecoverableQueue>() {
    let (q, pool) = fresh::<Q>();
    let tag = pool.root_u64(crate::root::TAG_ROOT_SLOT).to_le_bytes();
    assert_eq!(tag, Q::TAG, "create records the tag");
    assert_eq!(q.dequeue(0), None, "fresh queue must be empty");
    for i in 1..=100u64 {
        q.enqueue(0, i);
    }
    for i in 1..=100u64 {
        assert_eq!(q.dequeue(0), Some(i), "FIFO order violated at {i}");
    }
    assert_eq!(q.dequeue(0), None);
    // The queue must remain usable after being emptied.
    q.enqueue(0, 7);
    q.enqueue(0, 8);
    assert_eq!(q.dequeue(0), Some(7));
    assert_eq!(q.dequeue(0), Some(8));
    assert_eq!(q.dequeue(0), None);
}

/// Random single-threaded interleaving of enqueues and dequeues compared to
/// a `VecDeque` model.
pub fn check_against_model<Q: RecoverableQueue>(seed: u64) {
    let (q, _pool) = fresh::<Q>();
    let mut model: VecDeque<u64> = VecDeque::new();
    let mut rng = TestRng::new(seed);
    let mut next_value = 1u64;
    for _ in 0..3000 {
        if rng.below(100) < 55 {
            q.enqueue(0, next_value);
            model.push_back(next_value);
            next_value += 1;
        } else {
            assert_eq!(q.dequeue(0), model.pop_front(), "model divergence");
        }
    }
    while let Some(expect) = model.pop_front() {
        assert_eq!(q.dequeue(0), Some(expect));
    }
    assert_eq!(q.dequeue(0), None);
}

// ---------------------------------------------------------------------------
// Concurrent semantics
// ---------------------------------------------------------------------------

/// Half the threads enqueue, half dequeue; afterwards the union of everything
/// dequeued plus everything left in the queue must equal exactly what was
/// enqueued (no loss, no duplication).
pub fn check_concurrent_integrity<Q: RecoverableQueue + 'static>(
    threads: usize,
    ops_per_thread: usize,
) {
    assert!(threads >= 2);
    let (q, _pool) = fresh_with::<Q>(
        PoolConfig::test_with_size(32 << 20),
        QueueConfig::small_test().with_threads(threads),
    );
    let q = Arc::new(q);
    let producers = threads / 2;
    let consumers = threads - producers;
    let barrier = Arc::new(Barrier::new(threads));
    let done = Arc::new(AtomicBool::new(false));
    let consumed = Arc::new(Mutex::new(Vec::<u64>::new()));
    let mut handles = Vec::new();

    for p in 0..producers {
        let q = Arc::clone(&q);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            for seq in 0..ops_per_thread as u64 {
                q.enqueue(p, encode(p, seq));
            }
        }));
    }
    for c in 0..consumers {
        let tid = producers + c;
        let q = Arc::clone(&q);
        let barrier = Arc::clone(&barrier);
        let done = Arc::clone(&done);
        let consumed = Arc::clone(&consumed);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let mut local = Vec::new();
            loop {
                match q.dequeue(tid) {
                    Some(v) => local.push(v),
                    None => {
                        if done.load(Ordering::Acquire) && q.dequeue(tid).is_none() {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            }
            consumed.lock().unwrap().extend(local);
        }));
    }
    // Wait for the producers (the first `producers` handles) to finish.
    for h in handles.drain(..producers) {
        h.join().unwrap();
    }
    done.store(true, Ordering::Release);
    for h in handles {
        h.join().unwrap();
    }

    let consumed = consumed.lock().unwrap();
    let expected: HashSet<u64> = (0..producers)
        .flat_map(|p| (0..ops_per_thread as u64).map(move |s| encode(p, s)))
        .collect();
    let got: HashSet<u64> = consumed.iter().copied().collect();
    assert_eq!(consumed.len(), got.len(), "a value was dequeued twice");
    assert_eq!(got, expected, "lost or invented values");
}

/// Producers and consumers run concurrently; each consumer's stream must see
/// every producer's values in increasing sequence order (a necessary
/// condition of FIFO linearizability).
pub fn check_concurrent_fifo_per_producer<Q: RecoverableQueue + 'static>(
    producers: usize,
    consumers: usize,
    items_per_producer: usize,
) {
    let threads = producers + consumers;
    let (q, _pool) = fresh_with::<Q>(
        PoolConfig::test_with_size(32 << 20),
        QueueConfig::small_test().with_threads(threads),
    );
    let q = Arc::new(q);
    let barrier = Arc::new(Barrier::new(threads));
    let done = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for p in 0..producers {
        let q = Arc::clone(&q);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            for seq in 0..items_per_producer as u64 {
                q.enqueue(p, encode(p, seq));
            }
            Vec::new()
        }));
    }
    for c in 0..consumers {
        let tid = producers + c;
        let q = Arc::clone(&q);
        let barrier = Arc::clone(&barrier);
        let done = Arc::clone(&done);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let mut local = Vec::new();
            loop {
                match q.dequeue(tid) {
                    Some(v) => local.push(v),
                    None => {
                        if done.load(Ordering::Acquire) && q.dequeue(tid).is_none() {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            }
            local
        }));
    }
    let mut streams = Vec::new();
    for (i, h) in handles.into_iter().enumerate() {
        let out = h.join().unwrap();
        if i >= producers {
            streams.push(out);
        }
        if i + 1 == producers {
            // All producers have finished: let the consumers drain and stop.
            done.store(true, Ordering::Release);
        }
    }
    for stream in streams {
        let mut last_seq: HashMap<usize, u64> = HashMap::new();
        for v in stream {
            let (p, seq) = decode(v);
            if let Some(&prev) = last_seq.get(&p) {
                assert!(
                    seq > prev,
                    "per-producer FIFO order violated: {seq} after {prev}"
                );
            }
            last_seq.insert(p, seq);
        }
    }
}

// ---------------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------------

/// Drains a queue completely (single-threaded), returning its content in
/// order.
pub fn drain<Q: DurableQueue + ?Sized>(q: &Q, tid: usize) -> Vec<u64> {
    let mut out = Vec::new();
    while let Some(v) = q.dequeue(tid) {
        out.push(v);
    }
    out
}

/// Every completed operation must survive a crash: enqueue `n`, dequeue `k`,
/// crash, recover — the recovered queue must hold exactly items `k+1..=n` in
/// order.
pub fn check_recovery_preserves_completed_ops<Q: RecoverableQueue>(n: u64, k: u64) {
    assert!(k <= n);
    let (q, pool) = fresh::<Q>();
    for i in 1..=n {
        q.enqueue(0, i);
    }
    for i in 1..=k {
        assert_eq!(q.dequeue(0), Some(i));
    }
    let recovered_pool = Arc::new(pool.simulate_crash());
    let recovered = Q::recover(Arc::clone(&recovered_pool), QueueConfig::small_test());
    let rest = drain(&recovered, 0);
    assert_eq!(
        rest,
        (k + 1..=n).collect::<Vec<_>>(),
        "completed operations lost or reordered"
    );
    // The recovered queue must remain fully operational.
    recovered.enqueue(1, 4242);
    assert_eq!(recovered.dequeue(1), Some(4242));
    assert_eq!(recovered.dequeue(1), None);
}

/// A queue that was completely emptied before the crash must recover empty.
pub fn check_recovery_of_emptied_queue<Q: RecoverableQueue>() {
    let (q, pool) = fresh::<Q>();
    for i in 0..50u64 {
        q.enqueue(0, i + 1);
    }
    for _ in 0..50 {
        assert!(q.dequeue(0).is_some());
    }
    assert_eq!(q.dequeue(0), None);
    let recovered_pool = Arc::new(pool.simulate_crash());
    let recovered = Q::recover(Arc::clone(&recovered_pool), QueueConfig::small_test());
    assert_eq!(
        recovered.dequeue(0),
        None,
        "emptied queue resurrected stale items"
    );
    recovered.enqueue(0, 99);
    assert_eq!(recovered.dequeue(0), Some(99));
}

/// A volatile queue recovers empty regardless of its pre-crash content.
pub fn check_volatile_recovery_is_empty<Q: RecoverableQueue>() {
    let (q, pool) = fresh::<Q>();
    for i in 1..=20u64 {
        q.enqueue(0, i);
    }
    let recovered_pool = Arc::new(pool.simulate_crash());
    let recovered = Q::recover(recovered_pool, QueueConfig::small_test());
    assert_eq!(recovered.dequeue(0), None);
}

/// Several crash/recover cycles with completed operations in between; the
/// queue must always equal the sequential model.
pub fn check_repeated_crashes<Q: RecoverableQueue>(rounds: usize, ops_per_round: u64) {
    let mut pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(16 << 20)));
    let mut q = Q::create(Arc::clone(&pool), QueueConfig::small_test());
    let mut model: VecDeque<u64> = VecDeque::new();
    let mut rng = TestRng::new(0xC0FFEE);
    let mut next = 1u64;
    for round in 0..rounds {
        for _ in 0..ops_per_round {
            if rng.below(100) < 60 {
                q.enqueue(0, next);
                model.push_back(next);
                next += 1;
            } else {
                assert_eq!(
                    q.dequeue(0),
                    model.pop_front(),
                    "divergence in round {round}"
                );
            }
        }
        pool = Arc::new(pool.simulate_crash());
        q = Q::recover(Arc::clone(&pool), QueueConfig::small_test());
    }
    let rest = drain(&q, 0);
    assert_eq!(rest, model.iter().copied().collect::<Vec<_>>());
}

/// Outcome log of one worker thread in the concurrent crash tests.
#[derive(Default)]
struct WorkerLog {
    /// Operations that definitely completed before the crash snapshot.
    definite_enqueues: Vec<u64>,
    definite_dequeues: Vec<u64>,
    /// Operations that completed after (or concurrently with) the snapshot.
    maybe_enqueues: Vec<u64>,
    maybe_dequeues: Vec<u64>,
}

/// Runs `threads` workers performing random operations, takes a crash
/// snapshot somewhere in the middle, recovers a queue from it and checks
/// durable linearizability conditions (see the assertions at the end).
pub fn check_crash_during_concurrent_ops<Q: RecoverableQueue + 'static>(
    threads: usize,
    ops_per_thread: usize,
    seed: u64,
) {
    run_concurrent_crash_check::<Q>(threads, ops_per_thread, seed, 0.0);
}

/// Same as [`check_crash_during_concurrent_ops`] but with the
/// implicit-eviction adversary enabled both during the run and at the crash,
/// exploring NVRAM states beyond what the algorithm explicitly persisted.
pub fn check_crash_with_evictions<Q: RecoverableQueue + 'static>(
    threads: usize,
    ops_per_thread: usize,
    seed: u64,
) {
    run_concurrent_crash_check::<Q>(threads, ops_per_thread, seed, 0.02);
}

fn run_concurrent_crash_check<Q: RecoverableQueue + 'static>(
    threads: usize,
    ops_per_thread: usize,
    seed: u64,
    eviction_probability: f64,
) {
    let pool_cfg = PoolConfig::test_with_size(32 << 20).with_evictions(eviction_probability, seed);
    let pool = Arc::new(PmemPool::new(pool_cfg));
    let q = Arc::new(Q::create(
        Arc::clone(&pool),
        QueueConfig::small_test().with_threads(threads),
    ));
    let barrier = Arc::new(Barrier::new(threads + 1));
    let crashed = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for tid in 0..threads {
        let q = Arc::clone(&q);
        let barrier = Arc::clone(&barrier);
        let crashed = Arc::clone(&crashed);
        handles.push(std::thread::spawn(move || {
            let mut log = WorkerLog::default();
            let mut rng = TestRng::new(seed ^ (tid as u64) << 17);
            barrier.wait();
            for seq in 0..ops_per_thread as u64 {
                if rng.below(100) < 60 {
                    let v = encode(tid, seq);
                    q.enqueue(tid, v);
                    if crashed.load(Ordering::SeqCst) {
                        log.maybe_enqueues.push(v);
                    } else {
                        log.definite_enqueues.push(v);
                    }
                } else {
                    let r = q.dequeue(tid);
                    if let Some(v) = r {
                        if crashed.load(Ordering::SeqCst) {
                            log.maybe_dequeues.push(v);
                        } else {
                            log.definite_dequeues.push(v);
                        }
                    }
                }
            }
            log
        }));
    }
    barrier.wait();
    // Let the workers make some progress, then take the crash snapshot while
    // they are still running.
    std::thread::sleep(std::time::Duration::from_millis(10));
    crashed.store(true, Ordering::SeqCst);
    let recovered_pool = Arc::new(if eviction_probability > 0.0 {
        pool.simulate_crash_with_evictions(0.3, seed ^ 0xABCD)
    } else {
        pool.simulate_crash()
    });

    let mut logs = Vec::new();
    for h in handles {
        logs.push(h.join().unwrap());
    }

    let recovered = Q::recover(
        Arc::clone(&recovered_pool),
        QueueConfig::small_test().with_threads(threads),
    );
    let recovered_items = drain(&recovered, 0);

    // --- Durable-linearizability checks -----------------------------------
    let definite_enqueued: HashSet<u64> = logs
        .iter()
        .flat_map(|l| l.definite_enqueues.iter().copied())
        .collect();
    let all_enqueued: HashSet<u64> = logs
        .iter()
        .flat_map(|l| {
            l.definite_enqueues
                .iter()
                .chain(l.maybe_enqueues.iter())
                .copied()
        })
        .collect();
    let definite_dequeued: HashSet<u64> = logs
        .iter()
        .flat_map(|l| l.definite_dequeues.iter().copied())
        .collect();
    let all_dequeued: HashSet<u64> = logs
        .iter()
        .flat_map(|l| {
            l.definite_dequeues
                .iter()
                .chain(l.maybe_dequeues.iter())
                .copied()
        })
        .collect();

    // 1. No invented values, no duplicates in the recovered queue.
    let recovered_set: HashSet<u64> = recovered_items.iter().copied().collect();
    assert_eq!(
        recovered_set.len(),
        recovered_items.len(),
        "recovered queue contains a duplicate"
    );
    for v in &recovered_items {
        assert!(
            all_enqueued.contains(v),
            "recovered value {v:#x} was never enqueued"
        );
    }

    // 2. A value returned by a dequeue that completed before the crash must
    //    not reappear after recovery.
    for v in &recovered_items {
        assert!(
            !definite_dequeued.contains(v),
            "value {v:#x} dequeued before the crash reappeared after recovery"
        );
    }

    // 3. Every value whose enqueue completed before the crash and that was
    //    not taken by ANY dequeue must be present after recovery (completed
    //    operations survive).
    for v in definite_enqueued.iter() {
        if !all_dequeued.contains(v) {
            assert!(
                recovered_set.contains(v),
                "value {v:#x} from a completed enqueue vanished across the crash"
            );
        }
    }

    // 4. Per-producer FIFO order within the recovered queue.
    let mut last_seq: HashMap<usize, u64> = HashMap::new();
    for v in &recovered_items {
        let (p, seq) = decode(*v);
        if let Some(&prev) = last_seq.get(&p) {
            assert!(
                seq > prev,
                "recovered queue violates producer {p}'s FIFO order"
            );
        }
        last_seq.insert(p, seq);
    }

    // 5. The recovered queue must remain fully operational.
    recovered.enqueue(0, encode(63, 0));
    assert!(drain(&recovered, 0).contains(&encode(63, 0)));
}

// ---------------------------------------------------------------------------
// Persistence-operation accounting (experiments E7/E8)
// ---------------------------------------------------------------------------

/// Per-operation persistence costs measured over a single-threaded run.
pub struct PersistCounts {
    /// Averages over the enqueue-only phase.
    pub enqueue: pmem::stats::PerOpStats,
    /// Averages over the dequeue-only phase.
    pub dequeue: pmem::stats::PerOpStats,
    /// Averages over both phases combined.
    pub total: pmem::stats::PerOpStats,
}

/// Measures flushes/fences/nt-stores/post-flush-accesses per operation for
/// queue `Q`, excluding allocator warm-up (areas are carved and recycled
/// before measurement starts, as in the paper's steady-state runs).
pub fn persist_counts<Q: RecoverableQueue>(ops: u64) -> PersistCounts {
    // A large designated area so that the measured phases never carve a new
    // one: area carving legitimately flushes the whole area, but that is an
    // allocator cost the paper's per-operation analysis amortises away.
    let cfg = QueueConfig {
        max_threads: 8,
        area_size: 2 << 20,
    };
    let (q, _pool) = fresh_with::<Q>(PoolConfig::test_with_size(32 << 20), cfg);
    persist_counts_on(&q, ops)
}

/// The measurement recipe of [`persist_counts`] on an already-built queue:
/// warm-up (enqueue + dequeue `ops` items), then an enqueue phase and a
/// dequeue phase over the queue's aggregated counters. Taking
/// [`DurableQueue::stats`] rather than a pool makes the recipe apply to
/// multi-pool compositions (the `shard` crate's sharded counts table)
/// unchanged.
pub fn persist_counts_on<Q: DurableQueue + ?Sized>(q: &Q, ops: u64) -> PersistCounts {
    // Warm-up: carve areas and populate free lists so the measured phases
    // exercise only the algorithm itself.
    for i in 0..ops {
        q.enqueue(0, i + 1);
    }
    for _ in 0..ops {
        q.dequeue(0);
    }
    q.reset_stats();
    let base = q.stats();
    for i in 0..ops {
        q.enqueue(0, i + 1);
    }
    let after_enq = q.stats();
    for _ in 0..ops {
        assert!(q.dequeue(0).is_some());
    }
    let after_deq = q.stats();
    let enq: StatsSnapshot = after_enq - base;
    let deq: StatsSnapshot = after_deq - after_enq;
    let total: StatsSnapshot = after_deq - base;
    PersistCounts {
        enqueue: enq.per_op(ops),
        dequeue: deq.per_op(ops),
        total: total.per_op(2 * ops),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for p in [0usize, 1, 7, 63] {
            for s in [0u64, 1, 1000, 1 << 30] {
                assert_eq!(decode(encode(p, s)), (p, s));
            }
        }
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::new(42);
        let mut b = TestRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = TestRng::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
