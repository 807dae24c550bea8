//! `paper-pairs`: the paper's Figure 2 "enqueue–dequeue pairs on a queue of
//! 10", on the simulated pool with Optane-like latencies.
//!
//! Two threads. A measured *slice* is a pairs phase — both threads do
//! `pairs` enqueue–dequeue pairs each, racing — followed by bursts in
//! which the threads take turns: each enqueues `burst` items while the
//! other waits, then each dequeues `burst`. The bursts time the enqueue
//! and the dequeue apart from each other and from the other thread
//! (two threads dequeuing at once fight over one word, and how that fight
//! goes moved `consume_us` by 13 % between runs). `msgs_per_s` is pairs
//! per second of the pairs phase alone. Crash cycles fill the queue to
//! `depth`, crash it with `simulate_crash`, and time `recover` until the
//! first dequeue — not `simulate_crash` itself, which is the simulator
//! copying its two images into freshly mapped memory: four fifths of the
//! interval and all of its noise, and none of it the queue's. The last
//! crash runs the eviction adversary and the drain is checked item by
//! item. Nothing of `store`, `shard` or `lease` is on the path.

use crate::fit::{PoolLoad, LIMBO_SLACK};
use crate::stats;
use crate::trace::{self, CoreWrap, Name, ThreadTrace};
use durable_queues::testkit::{decode, encode};
use durable_queues::{DurableQueue, QueueConfig, RecoverableQueue};
use pmem::{PmemPool, PoolConfig, StatsSnapshot};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Items in the queue before the first pair.
const PREFILL: u64 = 10;
/// Producer id of the prefilled items (the two threads are 0 and 1).
const PREFILL_PRODUCER: usize = 2;
/// Load threads.
pub const THREADS: usize = 2;

/// The shape of the workload.
#[derive(Clone, Copy, Debug)]
pub struct PairsWorkload {
    /// Pairs per thread per slice.
    pub pairs: u64,
    /// Items per thread in each burst.
    pub burst: u64,
    /// Measured slices.
    pub slices: u64,
    /// Discarded warm-up slices.
    pub warmup: u64,
    /// Crash cycles measured (one more runs first and is discarded).
    pub cycles: u64,
    /// Standing queue depth at each crash.
    pub depth: u64,
    /// Items dequeued and enqueued again between crashes.
    pub held: u64,
    /// Designated-area size.
    pub area_size: u32,
    /// One operation in this many is recorded when traced.
    pub trace_period: u64,
}

impl PairsWorkload {
    /// The benchmark's shape: 12M pairs in 120 slices.
    pub fn full() -> Self {
        PairsWorkload {
            pairs: 50_000,
            burst: 10_000,
            slices: 120,
            warmup: 6,
            cycles: 10,
            depth: 65_536,
            held: 1024,
            area_size: 128 << 10,
            trace_period: 64,
        }
    }

    /// Cut down to run in a blink.
    pub fn smoke(mut self) -> Self {
        self.pairs = 600;
        self.burst = 50;
        self.slices = 2;
        self.cycles = 2;
        self.depth = 40;
        self.held = 5;
        self.area_size = 64 << 10;
        self
    }

    /// Scales the measured slices (never below eight) by `factor`.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.slices = ((self.slices as f64 * factor).round() as u64).max(8);
        self
    }

    fn queue_config(&self) -> QueueConfig {
        QueueConfig {
            max_threads: THREADS,
            area_size: self.area_size,
        }
    }

    /// The simulated pool's size from the fit arithmetic, or the refusal.
    pub fn pool_bytes(&self) -> Result<usize, String> {
        let load = PoolLoad {
            peak: (THREADS as u64 * self.burst).max(self.depth) + PREFILL + LIMBO_SLACK,
            backlog: self.depth,
            threads: THREADS,
            area_size: self.area_size,
            // Every measured cycle, the discarded one, and the final crash
            // under the eviction adversary.
            reopens: self.cycles as u32 + 2,
        };
        let size = load.pool_bytes();
        load.check("paper-pairs: simulated pool", size)?;
        Ok(size as usize)
    }
}

/// Times of one measured slice.
#[derive(Clone, Copy, Debug, Default)]
pub struct SliceTimes {
    /// The pairs phase (both threads at once).
    pub pairs_s: f64,
    /// The produce bursts (one thread after the other), summed.
    pub produce_s: f64,
    /// The consume bursts (one thread after the other), summed.
    pub consume_s: f64,
}

/// Everything one pass measured.
#[derive(Default)]
pub struct Pass {
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// The measured slices.
    pub slices: Vec<SliceTimes>,
    /// Pairs per slice, both threads.
    pub slice_pairs: u64,
    /// Burst items per slice, both threads.
    pub slice_burst: u64,
    /// `recover` → first dequeue, per measured cycle.
    pub recover_s: Vec<f64>,
    /// `Q::recover` alone, per measured cycle.
    pub core_recover_s: Vec<f64>,
    /// Watermark growth across each measured crash.
    pub reopen_pool_bytes: Vec<u64>,
    /// Persistence counters over the measured slices.
    pub pmem: StatsSnapshot,
    /// Watermark growth inside the measured slices.
    pub steady_pool_bytes: u64,
    /// Items produced over the whole run.
    pub produced: u64,
    /// Watermark of the last pool.
    pub space_bytes: u64,
    /// Operations attempted and failed, and the first failure.
    pub verdict: (u64, u64, Option<String>),
    /// What the load threads recorded (traced passes).
    pub traces: Vec<ThreadTrace>,
}

impl Pass {
    /// Enqueue–dequeue pairs completed in the measured slices, bursts
    /// included.
    pub fn measured_msgs(&self) -> u64 {
        (self.slice_pairs + self.slice_burst) * self.slices.len() as u64
    }
}

/// Counts and the first failure, shared by the threads.
#[derive(Default)]
struct Verdict {
    attempted: AtomicU64,
    failed: AtomicU64,
    first: std::sync::Mutex<Option<String>>,
}

impl Verdict {
    #[cold]
    fn fail(&self, what: String) {
        self.failed.fetch_add(1, Relaxed);
        let mut first = self.first.lock().unwrap();
        if first.is_none() {
            *first = Some(what);
        }
    }
}

/// What one consumer has seen of each producer: sequence numbers must
/// only go up.
struct Seen([u64; 3]);

impl Seen {
    #[inline]
    fn check(&mut self, got: Option<u64>, tid: usize, verdict: &Verdict) {
        let Some(value) = got else {
            verdict.fail(format!(
                "thread {tid}: dequeue returned None on a non-empty queue"
            ));
            return;
        };
        let (producer, seq) = decode(value);
        if producer > PREFILL_PRODUCER {
            verdict.fail(format!("thread {tid}: dequeued {value:#x}, never enqueued"));
        } else if seq < self.0[producer] {
            verdict.fail(format!(
                "thread {tid}: producer {producer}'s item {seq} after item {}",
                self.0[producer] - 1
            ));
        } else {
            self.0[producer] = seq + 1;
        }
    }
}

/// One thread's share of a slice. `next` is the thread's next sequence
/// number.
struct Lane<'a, Q> {
    q: &'a Q,
    tid: usize,
    next: u64,
    seen: Seen,
    verdict: &'a Verdict,
}

impl<Q: DurableQueue> Lane<'_, Q> {
    #[inline]
    fn enqueue<const TRACED: bool>(&mut self) {
        let rec = TRACED && trace::op_begin(Name::Produce, self.next);
        self.q.enqueue(self.tid, encode(self.tid, self.next));
        if TRACED {
            trace::op_end(rec);
        }
        self.next += 1;
    }

    #[inline]
    fn dequeue<const TRACED: bool>(&mut self) {
        let rec = TRACED && trace::op_begin(Name::Consume, self.next);
        let got = self.q.dequeue(self.tid);
        if TRACED {
            trace::op_end(rec);
        }
        self.seen.check(got, self.tid, self.verdict);
    }

    fn pairs<const TRACED: bool>(&mut self, n: u64) {
        for _ in 0..n {
            self.enqueue::<TRACED>();
            self.dequeue::<TRACED>();
        }
        self.verdict.attempted.fetch_add(2 * n, Relaxed);
    }

    fn produce<const TRACED: bool>(&mut self, n: u64) {
        for _ in 0..n {
            self.enqueue::<TRACED>();
        }
        self.verdict.attempted.fetch_add(n, Relaxed);
    }

    fn consume<const TRACED: bool>(&mut self, n: u64) {
        for _ in 0..n {
            self.dequeue::<TRACED>();
        }
        self.verdict.attempted.fetch_add(n, Relaxed);
    }
}

/// Creates the pool and the queue and prefills it.
fn set_up<Q: RecoverableQueue>(wl: &PairsWorkload, size: usize) -> (Q, f64) {
    let begun = Instant::now();
    let pool = Arc::new(PmemPool::new(PoolConfig::bench(size)));
    let q = Q::create(pool, wl.queue_config());
    for seq in 0..PREFILL {
        q.enqueue(0, encode(PREFILL_PRODUCER, seq));
    }
    (q, begun.elapsed().as_secs_f64())
}

/// Runs the warm-up and measured slices on two threads; thread 0 is the
/// caller and times the phases between barriers.
fn run_slices<Q: DurableQueue, const TRACED: bool>(
    q: &Q,
    wl: &PairsWorkload,
    verdict: &Verdict,
    pass: &mut Pass,
) -> [u64; THREADS] {
    let gate = Barrier::new(THREADS);
    let total = wl.warmup + wl.slices;
    let mut next = [0u64; THREADS];
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            if TRACED {
                trace::arm(wl.trace_period);
            }
            let mut lane = Lane {
                q,
                tid: 1,
                next: 0,
                seen: Seen([0; 3]),
                verdict,
            };
            for slice in 0..total {
                if TRACED && slice == wl.warmup {
                    trace::reset();
                }
                gate.wait();
                lane.pairs::<TRACED>(wl.pairs);
                gate.wait();
                // Thread 0's produce turn, then ours; likewise to consume.
                gate.wait();
                lane.produce::<TRACED>(wl.burst);
                gate.wait();
                gate.wait();
                lane.consume::<TRACED>(wl.burst);
                gate.wait();
            }
            (lane.next, TRACED.then(trace::take))
        });

        if TRACED {
            trace::arm(wl.trace_period);
        }
        let mut lane = Lane {
            q,
            tid: 0,
            next: 0,
            seen: Seen([0; 3]),
            verdict,
        };
        let mut before = (StatsSnapshot::default(), 0);
        for slice in 0..total {
            if slice == wl.warmup {
                before = (q.stats(), q.pool().watermark());
                if TRACED {
                    trace::reset();
                }
            }
            gate.wait();
            let t0 = Instant::now();
            lane.pairs::<TRACED>(wl.pairs);
            gate.wait();
            let t1 = Instant::now();
            lane.produce::<TRACED>(wl.burst);
            gate.wait();
            // Thread 1's produce turn.
            gate.wait();
            let t2 = Instant::now();
            lane.consume::<TRACED>(wl.burst);
            gate.wait();
            // Thread 1's consume turn.
            gate.wait();
            let t3 = Instant::now();
            if slice >= wl.warmup {
                pass.slices.push(SliceTimes {
                    pairs_s: (t1 - t0).as_secs_f64(),
                    produce_s: (t2 - t1).as_secs_f64(),
                    consume_s: (t3 - t2).as_secs_f64(),
                });
            }
        }
        pass.pmem = q.stats() - before.0;
        pass.steady_pool_bytes = (q.pool().watermark() - before.1) as u64;
        if TRACED {
            pass.traces.push(trace::take());
        }
        let (worker_next, worker_trace) = worker.join().expect("load thread panicked");
        pass.traces.extend(worker_trace);
        next = [lane.next, worker_next];
    });
    next
}

/// Drains `q` on thread 0 and checks that what comes out is exactly
/// `expected`, in order.
fn drain_and_check<Q: DurableQueue>(q: &Q, expected: &[u64], what: &str, verdict: &Verdict) {
    verdict
        .attempted
        .fetch_add(expected.len() as u64 + 1, Relaxed);
    for (i, &want) in expected.iter().enumerate() {
        let got = q.dequeue(0);
        if got != Some(want) {
            verdict.fail(format!(
                "{what}: item {i} of {} came back as {got:x?}, expected {want:#x}",
                expected.len()
            ));
            return;
        }
    }
    if let Some(extra) = q.dequeue(0) {
        verdict.fail(format!("{what}: drained, yet dequeued {extra:#x}"));
    }
}

/// Runs one pass on queue algorithm `Q` (wrapped in [`CoreWrap`] and
/// recorded when `TRACED`).
fn run_on<Q: RecoverableQueue, const TRACED: bool>(
    wl: &PairsWorkload,
    seed: u64,
) -> Result<Pass, String> {
    let size = wl.pool_bytes()?;
    let verdict = Verdict::default();
    let mut pass = Pass {
        slice_pairs: wl.pairs * THREADS as u64,
        slice_burst: wl.burst * THREADS as u64,
        ..Pass::default()
    };

    let mut q: Option<Q> = None;
    for _ in 0..crate::filewl::SETUPS {
        drop(q.take());
        let (fresh, secs) = set_up::<Q>(wl, size);
        pass.setup_s.push(secs);
        q = Some(fresh);
    }
    let mut q = q.expect("at least one set-up");
    if TRACED {
        trace::take_events();
    }

    let next = run_slices::<Q, TRACED>(&q, wl, &verdict, &mut pass);
    pass.produced = PREFILL + next.iter().sum::<u64>();

    // The slices leave exactly the prefill's worth of items behind, the
    // youngest ones; get rid of them so that crash cycles start empty.
    let mut leftover = 0;
    while q.dequeue(0).is_some() {
        leftover += 1;
    }
    verdict.attempted.fetch_add(1, Relaxed);
    if leftover != PREFILL {
        verdict.fail(format!(
            "{leftover} item(s) left after the slices, expected {PREFILL}: \
             enqueues and dequeues do not balance"
        ));
    }

    // Crash cycles on a standing queue of `depth`: crash, recover and time
    // to the first dequeue, then take `held` items off and put as many on.
    // The first cycle is discarded; the last one crashes under the eviction
    // adversary, and the queue is drained and checked at the end.
    let mut seq = next[0];
    let mut expected: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
    let mut refill = |q: &Q, n: u64, expected: &mut std::collections::VecDeque<u64>| {
        for _ in 0..n {
            let item = encode(0, seq);
            seq += 1;
            q.enqueue(0, item);
            expected.push_back(item);
        }
        n
    };
    let filled = refill(&q, wl.depth, &mut expected);
    verdict.attempted.fetch_add(filled, Relaxed);
    pass.produced += filled;
    for cycle in 0..=wl.cycles + 1 {
        let before = q.pool().watermark();
        let last = cycle == wl.cycles + 1;
        let crashed = Arc::new(if last {
            q.pool().simulate_crash_with_evictions(0.25, seed)
        } else {
            q.pool().simulate_crash()
        });
        let begun = Instant::now();
        let recovered = Q::recover(crashed, wl.queue_config());
        let core_recover_s = begun.elapsed().as_secs_f64();
        let first = recovered.dequeue(0);
        let recover_s = begun.elapsed().as_secs_f64();
        if (1..=wl.cycles).contains(&cycle) {
            pass.recover_s.push(recover_s);
            pass.core_recover_s.push(core_recover_s);
            pass.reopen_pool_bytes
                .push((recovered.pool().watermark() - before) as u64);
        }
        q = recovered;
        verdict.attempted.fetch_add(2 * wl.held, Relaxed);
        let mut got = first;
        for i in 0..wl.held {
            let want = expected.pop_front();
            if got != want {
                verdict.fail(format!(
                    "cycle {cycle}: dequeue {i} after recovery gave {got:x?}, expected {want:x?}"
                ));
                break;
            }
            if i + 1 < wl.held {
                got = q.dequeue(0);
            }
        }
        pass.produced += refill(&q, wl.held, &mut expected);
    }
    drain_and_check(&q, expected.make_contiguous(), "final drain", &verdict);

    pass.space_bytes = q.pool().watermark() as u64;
    pass.verdict = (
        verdict.attempted.load(Relaxed),
        verdict.failed.load(Relaxed),
        verdict.first.lock().unwrap().clone(),
    );
    Ok(pass)
}

/// The gated pass: `OptUnlinkedQueue`, nothing of the benchmark's in it.
pub fn run_plain(wl: &PairsWorkload, seed: u64) -> Result<Pass, String> {
    let pass = run_on::<durable_queues::OptUnlinkedQueue, false>(wl, seed)?;
    campaign();
    Ok(pass)
}

/// The traced pass: the same under [`CoreWrap`], one operation in
/// `trace_period` recorded.
pub fn run_traced(wl: &PairsWorkload, seed: u64) -> Result<Pass, String> {
    run_on::<CoreWrap<durable_queues::OptUnlinkedQueue>, true>(wl, seed)
}

/// Pairs per second of the same pairs phase on `DurableMsQueue`, the
/// paper's baseline (traced runs only; a fifth of the slices' pairs).
pub fn msq_pairs_per_s(wl: &PairsWorkload, seed: u64) -> Result<f64, String> {
    let short = PairsWorkload {
        pairs: (wl.pairs / 5).max(100),
        burst: wl.burst.min(1000),
        slices: 8.min(wl.slices),
        cycles: 0,
        ..*wl
    };
    let pass = run_on::<durable_queues::DurableMsQueue, false>(&short, seed)?;
    if pass.verdict.1 > 0 {
        return Err(format!(
            "DurableMsQueue baseline failed its checks: {}",
            pass.verdict.2.unwrap_or_default()
        ));
    }
    let rates: Vec<f64> = pass
        .slices
        .iter()
        .map(|s| pass.slice_pairs as f64 / s.pairs_s)
        .collect();
    Ok(stats::median(&rates))
}

/// The repository's own durable-linearizability campaign on the same
/// algorithm (`harness::checker`): concurrent operations, a crash in the
/// middle with and without the eviction adversary, recovery validated. It
/// panics on a violation, which fails the run.
fn campaign() {
    harness::checker::check_algorithm(
        harness::Algorithm::OptUnlinked,
        &harness::checker::CrashCheckConfig {
            threads: THREADS,
            ops_per_thread: 200,
            rounds: 1,
            seed: 0xC4A5,
        },
    );
}
