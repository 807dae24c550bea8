//! The persistent-memory pool front: one offset-addressed API over a
//! pluggable backend.
//!
//! A [`PmemPool`] is what every queue algorithm, the allocator and the
//! harness hold (`Arc<PmemPool>`). Internally it fronts one of two backends:
//!
//! * the **simulated** backend ([`PmemPool::new`]): the in-DRAM working- vs.
//!   persistent-image model with latency simulation, the eviction adversary
//!   and crash simulation — see the crate-private `sim` module for the
//!   model's docs. This arm is statically dispatched so the paper-facing
//!   measurements are unchanged by the abstraction.
//! * an **external** backend ([`PmemPool::from_backend`]) implementing
//!   [`PoolBackend`] — e.g. the `store` crate's memory-mapped, file-backed
//!   pool whose contents survive a real process restart. Word accesses
//!   (load/store/CAS/RMW) on a backend whose mapping can never move are
//!   served inline from that mapping — no virtual call; everything else,
//!   and every access on an elastic backend, is one virtual call.
//!
//! Either way a word access costs the atomic instruction, a bounds check
//! and one unlocked add to the calling thread's own statistics row (see
//! [`PmemPool::stats`]).
//!
//! The persistence contract is identical for both: a store is durable once
//! the containing cache line has been covered by [`PmemPool::flush`] (or the
//! value by [`PmemPool::nt_store_u64`]) followed by [`PmemPool::sfence`] on
//! the issuing thread.

use crate::backend::{MapRef, PoolBackend, ROOT_SLOTS};
use crate::ext::ExtPool;
use crate::latency::LatencyModel;
use crate::layout::{self, CACHE_LINE};
use crate::sim::SimPool;
use crate::stats::{Counter, StatsSnapshot};
use std::fmt;

/// Configuration of a simulated pool (see [`PmemPool::new`]).
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Pool size in bytes. Rounded up to a whole number of cache lines.
    pub size: usize,
    /// Latency charged for persistence events.
    pub latency: LatencyModel,
    /// Probability, per store/CAS, that the touched cache line is implicitly
    /// written back to the persistent image (a simulated cache eviction).
    /// `0.0` disables the adversary; crash tests sweep this.
    pub eviction_probability: f64,
    /// Seed for the implicit-eviction pseudo-random stream.
    pub eviction_seed: u64,
}

impl PoolConfig {
    /// A small, zero-latency pool for unit and property tests.
    pub fn small_test() -> Self {
        PoolConfig {
            size: 1 << 20,
            latency: LatencyModel::ZERO,
            eviction_probability: 0.0,
            eviction_seed: 0x5EED,
        }
    }

    /// A zero-latency pool of the given size.
    pub fn test_with_size(size: usize) -> Self {
        PoolConfig {
            size,
            ..Self::small_test()
        }
    }

    /// A pool configured for benchmarking: Optane-like latencies.
    pub fn bench(size: usize) -> Self {
        PoolConfig {
            size,
            latency: LatencyModel::optane_like(),
            eviction_probability: 0.0,
            eviction_seed: 0x5EED,
        }
    }

    /// Overrides the implicit-eviction probability.
    pub fn with_evictions(mut self, probability: f64, seed: u64) -> Self {
        self.eviction_probability = probability;
        self.eviction_seed = seed;
        self
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self::small_test()
    }
}

/// Why a raw allocation could not be satisfied. Returned by
/// [`PmemPool::try_alloc_raw`]; [`PmemPool::alloc_raw`] panics with the same
/// details in the message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolExhausted {
    /// Bytes the caller asked for.
    pub requested: u32,
    /// Alignment the caller asked for.
    pub align: u32,
    /// Watermark observed when the allocation failed (bytes already
    /// reserved, from the start of the pool).
    pub watermark: u32,
    /// Total pool capacity in bytes.
    pub capacity: usize,
}

impl fmt::Display for PoolExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pmem pool exhausted: requested {} bytes (align {}) with watermark at {} of {} \
             capacity ({} bytes free)",
            self.requested,
            self.align,
            self.watermark,
            self.capacity,
            (self.capacity as u64).saturating_sub(self.watermark as u64),
        )
    }
}

impl std::error::Error for PoolExhausted {}

/// The backend a pool fronts. The sim arm is a concrete type so the
/// simulated hot path stays statically dispatched. Boxed because the sim
/// state (per-thread pending slots) is ~1.4 KiB — one indirection at
/// construction, none on the access paths (the box is matched once).
/// Each arm owns the pool's counters: the sim counts inside its
/// access/latency model, the external arm around the backend.
enum PoolImpl {
    Sim(Box<SimPool>),
    Ext(ExtPool),
}

/// The persistent-memory pool. See the [module docs](self).
pub struct PmemPool {
    inner: PoolImpl,
    config: PoolConfig,
}

impl PmemPool {
    /// Creates a fresh, zeroed **simulated** pool.
    pub fn new(config: PoolConfig) -> Self {
        let sim = SimPool::new(config);
        let config = PoolConfig {
            size: sim.len(),
            ..config
        };
        PmemPool {
            inner: PoolImpl::Sim(Box::new(sim)),
            config,
        }
    }

    /// Wraps an external [`PoolBackend`] (e.g. a file-backed pool from the
    /// `store` crate). The synthesized [`PoolConfig`] reports the backend's
    /// size with zero simulated latency — external backends pay their real
    /// hardware costs instead.
    ///
    /// The backend's [`map_ref`](PoolBackend::map_ref) is consulted once,
    /// here: if it hands out a view (a mapping whose base never moves),
    /// word accesses are served inline from that mapping for the pool's
    /// lifetime instead of through the backend.
    pub fn from_backend(backend: Box<dyn PoolBackend>) -> Self {
        let config = PoolConfig {
            size: backend.len(),
            latency: LatencyModel::ZERO,
            eviction_probability: 0.0,
            eviction_seed: 0,
        };
        PmemPool {
            inner: PoolImpl::Ext(ExtPool::new(backend)),
            config,
        }
    }

    /// Pool size in bytes.
    pub fn len(&self) -> usize {
        match &self.inner {
            PoolImpl::Sim(s) => s.len(),
            PoolImpl::Ext(e) => e.backend.len(),
        }
    }

    /// Returns `true` if the pool has zero capacity (never the case).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configuration this pool was created with (synthesized for
    /// external backends).
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Short identifier of the backend kind: `"sim"` for simulated pools,
    /// the backend's own name (e.g. `"file"`) otherwise.
    pub fn backend_kind(&self) -> &'static str {
        match &self.inner {
            PoolImpl::Sim(_) => "sim",
            PoolImpl::Ext(e) => e.backend.kind(),
        }
    }

    /// `true` if this pool runs on the simulated backend.
    pub fn is_sim(&self) -> bool {
        matches!(self.inner, PoolImpl::Sim(_))
    }

    /// Number of capacity growths durably committed over the pool's
    /// lifetime — `0` for the (always fixed-size) simulated backend and for
    /// external backends that never grew. See
    /// [`PoolBackend::growth_epoch`].
    pub fn growth_epoch(&self) -> u32 {
        match &self.inner {
            PoolImpl::Sim(_) => 0,
            PoolImpl::Ext(e) => e.backend.growth_epoch(),
        }
    }

    /// A direct-pointer view of the pool space, or `None` when the
    /// backend has no stable linear mapping to expose.
    ///
    /// The simulated backend always refuses — letting callers bypass its
    /// per-access persistence accounting would silently falsify the
    /// paper-facing figures. The file backend returns a view whose base
    /// never moves, not even when the pool grows; see [`MapRef`] for the
    /// lifetime rules.
    ///
    /// ```
    /// use pmem::{PmemPool, PoolConfig};
    ///
    /// let sim = PmemPool::new(PoolConfig::small_test());
    /// assert!(sim.map_ref().is_none(), "sim pools never expose raw memory");
    /// ```
    pub fn map_ref(&self) -> Option<MapRef<'_>> {
        match &self.inner {
            PoolImpl::Sim(_) => None,
            PoolImpl::Ext(e) => e.backend.map_ref(),
        }
    }

    // ------------------------------------------------------------------
    // Loads / stores / CAS
    // ------------------------------------------------------------------

    /// Loads a 64-bit value from persistent memory (acquire ordering).
    #[inline]
    pub fn load_u64(&self, off: u32) -> u64 {
        match &self.inner {
            PoolImpl::Sim(s) => s.load_u64(off),
            PoolImpl::Ext(e) => e.load_u64(off),
        }
    }

    /// Stores a 64-bit value to persistent memory (release ordering). The
    /// store survives a crash only once the containing line is flushed and
    /// fenced (or, on the simulated backend, implicitly evicted).
    #[inline]
    pub fn store_u64(&self, off: u32, val: u64) {
        match &self.inner {
            PoolImpl::Sim(s) => s.store_u64(off, val),
            PoolImpl::Ext(e) => e.store_u64(off, val),
        }
    }

    /// Compare-and-swap on a 64-bit persistent word. Returns `Ok(current)` on
    /// success and `Err(actual)` on failure, like
    /// [`std::sync::atomic::AtomicU64::compare_exchange`].
    #[inline]
    pub fn cas_u64(&self, off: u32, current: u64, new: u64) -> Result<u64, u64> {
        match &self.inner {
            PoolImpl::Sim(s) => s.cas_u64(off, current, new),
            PoolImpl::Ext(e) => e.cas_u64(off, current, new),
        }
    }

    /// Atomic fetch-and-add on a 64-bit persistent word.
    #[inline]
    pub fn fetch_add_u64(&self, off: u32, val: u64) -> u64 {
        match &self.inner {
            PoolImpl::Sim(s) => s.fetch_add_u64(off, val),
            PoolImpl::Ext(e) => e.fetch_add_u64(off, val),
        }
    }

    /// Atomic swap on a 64-bit persistent word.
    #[inline]
    pub fn swap_u64(&self, off: u32, val: u64) -> u64 {
        match &self.inner {
            PoolImpl::Sim(s) => s.swap_u64(off, val),
            PoolImpl::Ext(e) => e.swap_u64(off, val),
        }
    }

    // ------------------------------------------------------------------
    // Persistence primitives
    // ------------------------------------------------------------------

    /// Issues an asynchronous flush (CLWB/CLFLUSHOPT) of the cache line
    /// containing `off`, on behalf of thread `tid`.
    ///
    /// The flushed content is durable once `tid` next executes
    /// [`sfence`](Self::sfence).
    #[inline]
    pub fn flush(&self, tid: usize, off: u32) {
        match &self.inner {
            PoolImpl::Sim(s) => s.flush(tid, off),
            PoolImpl::Ext(e) => {
                e.stats.add(Counter::Flushes, 1);
                e.backend.flush(tid, off)
            }
        }
    }

    /// Issues asynchronous flushes for every cache line overlapping
    /// `[off, off + len)`.
    pub fn flush_range(&self, tid: usize, off: u32, len: u32) {
        if len == 0 {
            return;
        }
        let first = layout::line_of(off);
        let last = layout::line_of(off + len - 1);
        for line in first..=last {
            self.flush(tid, line * CACHE_LINE as u32);
        }
    }

    /// Store fence (SFENCE): blocks until every flush and non-temporal store
    /// previously issued by thread `tid` is durable.
    pub fn sfence(&self, tid: usize) {
        match &self.inner {
            PoolImpl::Sim(s) => s.sfence(tid),
            PoolImpl::Ext(e) => {
                e.stats.add(Counter::Fences, 1);
                e.backend.sfence(tid)
            }
        }
    }

    /// Non-temporal 64-bit store (`movnti`): durable at `tid`'s next fence,
    /// without fetching or invalidating the containing cache line.
    #[inline]
    pub fn nt_store_u64(&self, tid: usize, off: u32, val: u64) {
        match &self.inner {
            PoolImpl::Sim(s) => s.nt_store_u64(tid, off, val),
            PoolImpl::Ext(e) => {
                e.stats.add(Counter::NtStores, 1);
                e.backend.nt_store_u64(tid, off, val)
            }
        }
    }

    /// Immediately persists the line containing `off`, bypassing the
    /// asynchronous-flush bookkeeping. Used by recovery code (which runs
    /// single-threaded before normal operation resumes) and by tests.
    pub fn persist_now(&self, off: u32) {
        match &self.inner {
            PoolImpl::Sim(s) => s.persist_now(off),
            PoolImpl::Ext(e) => {
                e.stats.add(Counter::Flushes, 1);
                e.backend.persist_now(off)
            }
        }
    }

    /// Clears the flushed/invalidated marker of the cache line containing
    /// `off` without charging a post-flush access.
    ///
    /// This models bringing a line into the cache as part of (re)allocating
    /// the object that lives on it: the paper's "access to flushed content"
    /// metric captures an algorithm re-reading data *it* persisted (head
    /// indices, node fields of live nodes), not the allocator handing the
    /// same slot to a fresh, unrelated object. The `ssmem` allocator calls
    /// this for every slot it returns so that all queue algorithms are
    /// accounted identically. External backends have no invalidation
    /// bookkeeping and ignore it.
    pub fn mark_line_cached(&self, off: u32) {
        match &self.inner {
            PoolImpl::Sim(s) => s.mark_line_cached(off),
            PoolImpl::Ext(e) => e.backend.mark_line_cached(off),
        }
    }

    /// Zeroes `[off, off + len)` with plain stores: the first step of
    /// [`alloc_zeroed`](Self::alloc_zeroed) on a pool that does not vouch for
    /// its fresh space, the one way to get durably zeroed space.
    pub(crate) fn zero_range(&self, off: u32, len: u32) {
        match &self.inner {
            PoolImpl::Sim(s) => s.zero_range(off, len),
            PoolImpl::Ext(e) => {
                e.stats.add(Counter::Stores, (len / 8) as u64);
                e.backend.zero_range(off, len)
            }
        }
    }

    /// Full durability barrier: everything written so far reaches stable
    /// storage. A no-op for the simulated backend; `msync` + `fsync` for a
    /// file backend. Recovery-facing code calls it at checkpoints.
    pub fn sync(&self) {
        if let PoolImpl::Ext(e) = &self.inner {
            e.backend.sync();
        }
    }

    /// Records a clean/dirty marker in the backend's durable metadata, if it
    /// has any (see [`PoolBackend::mark_clean`]).
    pub fn mark_clean(&self, clean: bool) {
        if let PoolImpl::Ext(e) = &self.inner {
            e.backend.mark_clean(clean);
        }
    }

    // ------------------------------------------------------------------
    // Raw space management
    // ------------------------------------------------------------------

    /// Reserves `len` bytes of pool space aligned to `align` and returns its
    /// byte offset; panics with watermark/requested/capacity details if the
    /// pool is exhausted. This is a bump allocator; higher-level,
    /// crash-recoverable allocation (designated areas, free lists) is built
    /// on top of it by the `ssmem` crate, which records every reservation in
    /// its persistent directory. File-backed pools persist the watermark in
    /// the pool-file header, so a reopened pool continues where it left off.
    pub fn alloc_raw(&self, len: u32, align: u32) -> u32 {
        self.try_alloc_raw(len, align).unwrap_or_else(|e| {
            panic!("{e}");
        })
    }

    /// Like [`alloc_raw`](Self::alloc_raw), but reports pool exhaustion as a
    /// [`PoolExhausted`] error instead of panicking, so callers that can
    /// degrade (spill, shed load, grow elsewhere) get the diagnostics
    /// without unwinding.
    ///
    /// On an **external** backend that supports growth (e.g. a `store` file
    /// pool configured with a growth step), exhaustion first asks the
    /// backend to [`try_grow`](PoolBackend::try_grow) and retries, so an
    /// elastic pool only surfaces `PoolExhausted` once it truly cannot be
    /// extended any further. The **simulated** backend never grows: the
    /// paper-facing measurements run on a fixed, statically-dispatched pool.
    pub fn try_alloc_raw(&self, len: u32, align: u32) -> Result<u32, PoolExhausted> {
        assert!(align.is_power_of_two() && align >= 8);
        let exhausted = |watermark: u32| PoolExhausted {
            requested: len,
            align,
            watermark,
            capacity: self.len(),
        };
        let mut cur = self.watermark();
        loop {
            let start = layout::align_up(cur, align);
            let end = match start.checked_add(len) {
                Some(end) => end,
                None => return Err(exhausted(cur)),
            };
            if end as usize > self.len() {
                match &self.inner {
                    // try_grow(true) guarantees len() >= end afterwards, so
                    // the retry makes progress; false means the backend is
                    // fixed-size or at its ceiling, and the error stands.
                    PoolImpl::Ext(e) if e.backend.try_grow(end as usize) => continue,
                    _ => return Err(exhausted(cur)),
                }
            }
            match self.cas_watermark(cur, end) {
                Ok(_) => return Ok(start),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Reserves `len` bytes like [`alloc_raw`](Self::alloc_raw) and returns
    /// space that reads zero now and after any crash — what a recovery that
    /// treats "never written" as zero needs of a fresh area.
    ///
    /// Fresh pool space is usually durable zero already: the simulated
    /// backend never writes above its watermark and a simulated crash
    /// carries zeros there, and a file pool created in this session has a
    /// hole for a tail, made durable by its creation (see
    /// [`PoolBackend::vouches_zero_tail`]). Then this is plain `alloc_raw`.
    /// Otherwise — a reopened file pool, where an earlier session's bytes
    /// may have reached stable storage ahead of the watermark covering
    /// them — it zeroes the range, flushes every line of it and fences
    /// once on behalf of `tid`.
    pub fn alloc_zeroed(&self, tid: usize, len: u32, align: u32) -> u32 {
        let off = self.alloc_raw(len, align);
        let vouched = match &self.inner {
            PoolImpl::Sim(_) => true,
            PoolImpl::Ext(e) => e.backend.vouches_zero_tail(),
        };
        if !vouched {
            self.zero_range(off, len);
            self.flush_range(tid, off, len);
            self.sfence(tid);
        }
        off
    }

    #[inline]
    fn cas_watermark(&self, current: u32, new: u32) -> Result<u32, u32> {
        match &self.inner {
            PoolImpl::Sim(s) => s.cas_watermark(current, new),
            PoolImpl::Ext(e) => e.backend.cas_watermark(current, new),
        }
    }

    /// Current watermark (first never-reserved byte offset).
    pub fn watermark(&self) -> u32 {
        match &self.inner {
            PoolImpl::Sim(s) => s.watermark(),
            PoolImpl::Ext(e) => e.backend.watermark(),
        }
    }

    /// Moves the watermark forward to at least `off`. Used by recovery to
    /// make sure re-created volatile bookkeeping does not hand out space that
    /// pre-crash data already occupies.
    pub fn set_watermark(&self, off: u32) {
        let mut cur = self.watermark();
        while cur < off {
            match self.cas_watermark(cur, off) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    // ------------------------------------------------------------------
    // Root slots
    // ------------------------------------------------------------------

    /// Reads durable root slot `slot` (`< `[`ROOT_SLOTS`]). Root slots are
    /// named 64-bit words a reopened pool can read before anything else has
    /// been recovered; they live outside the offset-addressed space.
    pub fn root_u64(&self, slot: usize) -> u64 {
        assert!(slot < ROOT_SLOTS, "root slot {slot} out of range");
        match &self.inner {
            PoolImpl::Sim(s) => s.root_u64(slot),
            PoolImpl::Ext(e) => e.backend.root_u64(slot),
        }
    }

    /// Durably writes root slot `slot` (persisted before returning).
    pub fn set_root_u64(&self, slot: usize, val: u64) {
        assert!(slot < ROOT_SLOTS, "root slot {slot} out of range");
        match &self.inner {
            PoolImpl::Sim(s) => s.set_root_u64(slot, val),
            PoolImpl::Ext(e) => e.backend.set_root_u64(slot, val),
        }
    }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    /// A snapshot of the persistence counters since the last
    /// [`reset_stats`](Self::reset_stats).
    ///
    /// **Exact at quiescence** — when no thread is inside a pool operation,
    /// e.g. after joining the workers, which is how every experiment in the
    /// workspace reads it. Each thread counts into a row only it writes, so
    /// counting costs no locked instruction; the snapshot sums the rows, and
    /// taken while operations are running it may miss the ones in flight
    /// (it never over-counts and never goes backwards).
    pub fn stats(&self) -> StatsSnapshot {
        match &self.inner {
            PoolImpl::Sim(s) => s.stats(),
            PoolImpl::Ext(e) => e.stats.snapshot(),
        }
    }

    /// Resets all persistence counters to zero, by recording the current
    /// totals as the baseline that [`stats`](Self::stats) subtracts. No
    /// thread's row is written, so a reset is safe while other threads are
    /// operating on the pool and loses none of their counts — but, like
    /// `stats`, it draws the line exactly only at quiescence.
    pub fn reset_stats(&self) {
        match &self.inner {
            PoolImpl::Sim(s) => s.reset_stats(),
            PoolImpl::Ext(e) => e.stats.reset(),
        }
    }

    // ------------------------------------------------------------------
    // Crash simulation (simulated backend only)
    // ------------------------------------------------------------------

    /// Reads a 64-bit value directly from the persistent image (what a crash
    /// right now would preserve). Intended for tests and debugging. On
    /// external backends this is the current value: their stores go straight
    /// to the (OS-cached) backing storage.
    pub fn persistent_u64_at(&self, off: u32) -> u64 {
        match &self.inner {
            PoolImpl::Sim(s) => s.persistent_u64_at(off),
            PoolImpl::Ext(e) => e.backend.persistent_u64_at(off),
        }
    }

    /// Simulates a full-system crash followed by a restart: returns a new
    /// pool whose contents are exactly the persistent image of this one.
    ///
    /// The original pool is left untouched, so a test can crash the same
    /// execution repeatedly (e.g. at different adversary settings).
    ///
    /// # Panics
    /// On external (e.g. file-backed) backends, which are crashed for real —
    /// kill the process and reopen the pool file instead.
    pub fn simulate_crash(&self) -> PmemPool {
        self.simulate_crash_with_evictions(0.0, 0)
    }

    /// Simulates a crash in which, additionally, each cache line has
    /// independently been written back by an implicit eviction with the given
    /// probability before the power failed. This explores legal NVRAM states
    /// *beyond* what the algorithm explicitly persisted, which is exactly
    /// what a recovery procedure must tolerate.
    ///
    /// # Panics
    /// On external backends; see [`simulate_crash`](Self::simulate_crash).
    pub fn simulate_crash_with_evictions(&self, probability: f64, seed: u64) -> PmemPool {
        match &self.inner {
            PoolImpl::Sim(s) => {
                let sim = s.simulate_crash_with_evictions(probability, seed);
                PmemPool {
                    inner: PoolImpl::Sim(Box::new(sim)),
                    config: self.config,
                }
            }
            PoolImpl::Ext(e) => panic!(
                "simulate_crash is only available on the simulated backend; the '{}' backend \
                 is crashed for real (kill the process, then reopen the pool file)",
                e.backend.kind()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{HEAP_START, MAX_THREADS};

    fn pool() -> PmemPool {
        PmemPool::new(PoolConfig::small_test())
    }

    #[test]
    fn fresh_pool_is_zeroed() {
        let p = pool();
        assert_eq!(p.load_u64(HEAP_START), 0);
        assert_eq!(p.persistent_u64_at(HEAP_START), 0);
    }

    #[test]
    fn alloc_raw_respects_alignment_and_watermark() {
        let p = pool();
        let a = p.alloc_raw(24, 8);
        let b = p.alloc_raw(64, 64);
        let c = p.alloc_raw(8, 8);
        assert!(a >= HEAP_START);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 24);
        assert!(c >= b + 64);
        assert!(p.watermark() >= c + 8);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn alloc_raw_panics_when_exhausted() {
        let p = PmemPool::new(PoolConfig::test_with_size(1 << 12));
        // The pool is padded to a minimum size; allocate more than it holds.
        for _ in 0..1024 {
            p.alloc_raw(4096, 64);
        }
    }

    #[test]
    fn alloc_raw_panic_message_carries_diagnostics() {
        let p = PmemPool::new(PoolConfig::test_with_size(1 << 12));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
            p.alloc_raw(4096, 64);
        }))
        .expect_err("must exhaust");
        let msg = err.downcast_ref::<String>().expect("string panic payload");
        assert!(msg.contains("exhausted"), "{msg}");
        assert!(msg.contains("requested 4096 bytes"), "{msg}");
        assert!(msg.contains("watermark"), "{msg}");
        assert!(msg.contains("capacity"), "{msg}");
    }

    #[test]
    fn try_alloc_raw_reports_exhaustion_without_unwinding() {
        let p = PmemPool::new(PoolConfig::test_with_size(1 << 20));
        let cap = p.len();
        let mut allocated = 0u32;
        let err = loop {
            match p.try_alloc_raw(4096, 64) {
                Ok(_) => allocated += 1,
                Err(e) => break e,
            }
        };
        assert!(allocated >= 1, "a fresh pool satisfies at least one page");
        assert_eq!(err.requested, 4096);
        assert_eq!(err.align, 64);
        assert_eq!(err.capacity, cap);
        assert!(err.watermark as usize <= cap);
        assert!((err.watermark as usize) + 4096 > cap, "truly out of space");
        // The pool keeps working for smaller requests that still fit.
        let free = cap - err.watermark as usize;
        if free >= 72 {
            assert!(p.try_alloc_raw(8, 8).is_ok());
        }
        // The error formats with every diagnostic.
        let rendered = err.to_string();
        assert!(rendered.contains("watermark"), "{rendered}");
        assert!(rendered.contains("free"), "{rendered}");
    }

    #[test]
    fn try_alloc_raw_handles_offset_overflow() {
        let p = pool();
        let err = p.try_alloc_raw(u32::MAX, 8).expect_err("cannot fit");
        assert_eq!(err.requested, u32::MAX);
    }

    #[test]
    fn store_then_load_roundtrip() {
        let p = pool();
        let off = p.alloc_raw(64, 64);
        p.store_u64(off, 0xABCD);
        assert_eq!(p.load_u64(off), 0xABCD);
    }

    #[test]
    fn unflushed_store_does_not_survive_a_crash() {
        let p = pool();
        let off = p.alloc_raw(64, 64);
        p.store_u64(off, 7);
        let r = p.simulate_crash();
        assert_eq!(r.load_u64(off), 0);
    }

    #[test]
    fn flush_without_fence_does_not_persist_when_deferred() {
        let p = pool();
        let off = p.alloc_raw(64, 64);
        p.store_u64(off, 7);
        p.flush(0, off);
        assert_eq!(p.persistent_u64_at(off), 0);
        let r = p.simulate_crash();
        assert_eq!(r.load_u64(off), 0);
    }

    #[test]
    fn flush_plus_fence_persists() {
        let p = pool();
        let off = p.alloc_raw(64, 64);
        p.store_u64(off, 7);
        p.flush(0, off);
        p.sfence(0);
        assert_eq!(p.persistent_u64_at(off), 7);
        let r = p.simulate_crash();
        assert_eq!(r.load_u64(off), 7);
    }

    #[test]
    fn fence_only_persists_own_threads_flushes() {
        let p = pool();
        let a = p.alloc_raw(64, 64);
        let b = p.alloc_raw(64, 64);
        p.store_u64(a, 1);
        p.store_u64(b, 2);
        p.flush(0, a);
        p.flush(1, b);
        p.sfence(0);
        assert_eq!(p.persistent_u64_at(a), 1);
        assert_eq!(p.persistent_u64_at(b), 0);
        p.sfence(1);
        assert_eq!(p.persistent_u64_at(b), 2);
    }

    #[test]
    fn whole_line_is_persisted_prefix_semantics() {
        // Two fields on the same line, written in order; flushing via the
        // first field's address persists both (Assumption 1).
        let p = pool();
        let off = p.alloc_raw(64, 64);
        p.store_u64(off, 1);
        p.store_u64(off + 8, 2);
        p.flush(0, off);
        p.sfence(0);
        let r = p.simulate_crash();
        assert_eq!(r.load_u64(off), 1);
        assert_eq!(r.load_u64(off + 8), 2);
    }

    #[test]
    fn flush_captures_content_at_fence_time() {
        let p = pool();
        let off = p.alloc_raw(64, 64);
        p.store_u64(off, 1);
        p.flush(0, off);
        p.store_u64(off, 2); // store between flush issue and fence
        p.sfence(0);
        // Either 1 or 2 would be legal on hardware; the simulator persists
        // the content at fence time.
        assert_eq!(p.persistent_u64_at(off), 2);
    }

    #[test]
    fn nt_store_persists_after_fence_without_invalidation() {
        let p = pool();
        let off = p.alloc_raw(64, 64);
        p.nt_store_u64(0, off, 42);
        assert_eq!(p.load_u64(off), 42);
        assert_eq!(p.persistent_u64_at(off), 0);
        p.sfence(0);
        assert_eq!(p.persistent_u64_at(off), 42);
        // No post-flush access was charged by any of this.
        assert_eq!(p.stats().post_flush_accesses, 0);
    }

    #[test]
    fn post_flush_access_is_counted_once_until_next_flush() {
        let p = pool();
        let off = p.alloc_raw(64, 64);
        p.store_u64(off, 5);
        p.flush(0, off);
        p.sfence(0);
        assert_eq!(p.stats().post_flush_accesses, 0);
        let _ = p.load_u64(off); // first access after the flush: counted
        let _ = p.load_u64(off); // line is cached again: not counted
        assert_eq!(p.stats().post_flush_accesses, 1);
        p.flush(0, off);
        p.store_u64(off, 6); // store after flush: counted too
        assert_eq!(p.stats().post_flush_accesses, 2);
    }

    #[test]
    fn accesses_to_other_lines_are_not_penalised() {
        let p = pool();
        let a = p.alloc_raw(64, 64);
        let b = p.alloc_raw(64, 64);
        p.store_u64(a, 1);
        p.flush(0, a);
        p.sfence(0);
        let _ = p.load_u64(b);
        assert_eq!(p.stats().post_flush_accesses, 0);
    }

    #[test]
    fn stats_count_all_event_kinds() {
        let p = pool();
        let off = p.alloc_raw(64, 64);
        p.store_u64(off, 1);
        let _ = p.load_u64(off);
        let _ = p.cas_u64(off, 1, 2);
        let _ = p.fetch_add_u64(off, 1);
        p.flush(0, off);
        p.sfence(0);
        p.nt_store_u64(0, off + 8, 3);
        let s = p.stats();
        assert_eq!(s.stores, 1);
        assert_eq!(s.loads, 1);
        assert_eq!(s.cas_ops, 2);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.fences, 1);
        assert_eq!(s.nt_stores, 1);
        p.reset_stats();
        assert_eq!(p.stats(), StatsSnapshot::default());
    }

    #[test]
    fn cas_success_and_failure() {
        let p = pool();
        let off = p.alloc_raw(64, 64);
        p.store_u64(off, 10);
        assert_eq!(p.cas_u64(off, 10, 11), Ok(10));
        assert_eq!(p.cas_u64(off, 10, 12), Err(11));
        assert_eq!(p.load_u64(off), 11);
    }

    #[test]
    fn swap_and_fetch_add() {
        let p = pool();
        let off = p.alloc_raw(64, 64);
        assert_eq!(p.fetch_add_u64(off, 5), 0);
        assert_eq!(p.swap_u64(off, 100), 5);
        assert_eq!(p.load_u64(off), 100);
    }

    #[test]
    fn implicit_evictions_persist_unflushed_data() {
        let cfg = PoolConfig::small_test().with_evictions(1.0, 1234);
        let p = PmemPool::new(cfg);
        let off = p.alloc_raw(64, 64);
        p.store_u64(off, 77);
        // With probability 1 every store's line is evicted, so the value is
        // already persistent without any flush.
        assert_eq!(p.persistent_u64_at(off), 77);
        assert!(p.stats().implicit_evictions >= 1);
    }

    #[test]
    fn crash_with_evictions_can_expose_working_content() {
        let p = pool();
        let off = p.alloc_raw(64, 64);
        p.store_u64(off, 31);
        let r_all = p.simulate_crash_with_evictions(1.0, 99);
        assert_eq!(r_all.load_u64(off), 31);
        let r_none = p.simulate_crash_with_evictions(0.0, 99);
        assert_eq!(r_none.load_u64(off), 0);
    }

    #[test]
    fn crash_preserves_watermark_and_config() {
        let p = pool();
        let off = p.alloc_raw(640, 64);
        let r = p.simulate_crash();
        assert!(r.watermark() >= off + 640);
        assert_eq!(r.config().size, p.config().size);
    }

    #[test]
    fn zero_range_clears_working_image() {
        let p = pool();
        let off = p.alloc_raw(128, 64);
        p.store_u64(off, 1);
        p.store_u64(off + 120, 2);
        p.zero_range(off, 128);
        assert_eq!(p.load_u64(off), 0);
        assert_eq!(p.load_u64(off + 120), 0);
    }

    /// The simulated backend's vouching rule: nothing writes above the
    /// watermark, not even under the eviction adversary, and a crash (with
    /// or without evictions) carries the watermark and zeros above it. So
    /// `alloc_zeroed` costs no store, flush or fence, before or after a
    /// crash, and what it returns reads zero in both images.
    #[test]
    fn a_simulated_pool_vouches_for_its_tail_across_traffic_and_crashes() {
        let p = PmemPool::new(PoolConfig::small_test().with_evictions(1.0, 7));
        let mut live = Vec::new();
        for round in 0..3u64 {
            let before = p.stats();
            let off = p.alloc_zeroed(0, 4096, 64);
            assert_eq!(p.stats(), before, "vouched space costs nothing");
            for i in 0..512 {
                assert_eq!(p.load_u64(off + i * 8), 0);
                assert_eq!(p.persistent_u64_at(off + i * 8), 0);
                p.store_u64(off + i * 8, round * 1000 + i as u64 + 1);
            }
            p.flush_range(0, off, 4096);
            p.sfence(0);
            live.push(off);
        }
        for crashed in [p.simulate_crash(), p.simulate_crash_with_evictions(1.0, 3)] {
            let w = crashed.watermark();
            assert!(live.iter().all(|&off| off + 4096 <= w));
            for off in (w..crashed.len() as u32).step_by(8) {
                assert_eq!(crashed.load_u64(off), 0, "working image above {w}");
                assert_eq!(crashed.persistent_u64_at(off), 0, "persistent above {w}");
            }
            let before = crashed.stats();
            let fresh = crashed.alloc_zeroed(1, 4096, 64);
            assert!(fresh >= w);
            assert_eq!(crashed.stats(), before);
        }
    }

    #[test]
    fn flush_range_covers_every_line() {
        let p = pool();
        let off = p.alloc_raw(256, 64);
        for i in 0..32 {
            p.store_u64(off + i * 8, i as u64 + 1);
        }
        p.flush_range(0, off, 256);
        p.sfence(0);
        let r = p.simulate_crash();
        for i in 0..32 {
            assert_eq!(r.load_u64(off + i * 8), i as u64 + 1);
        }
    }

    #[test]
    fn persist_now_is_immediate() {
        let p = pool();
        let off = p.alloc_raw(64, 64);
        p.store_u64(off, 8);
        p.persist_now(off);
        assert_eq!(p.persistent_u64_at(off), 8);
    }

    #[test]
    fn watermark_never_moves_backwards() {
        let p = pool();
        let w = p.watermark();
        p.set_watermark(w.saturating_sub(100));
        assert_eq!(p.watermark(), w);
        p.set_watermark(w + 4096);
        assert_eq!(p.watermark(), w + 4096);
    }

    #[test]
    fn root_slots_survive_a_simulated_crash() {
        let p = pool();
        assert_eq!(p.root_u64(0), 0);
        p.set_root_u64(0, 0xDEAD);
        p.set_root_u64(7, 42);
        assert_eq!(p.root_u64(0), 0xDEAD);
        let r = p.simulate_crash();
        assert_eq!(r.root_u64(0), 0xDEAD);
        assert_eq!(r.root_u64(7), 42);
        assert_eq!(r.root_u64(3), 0);
    }

    #[test]
    #[should_panic(expected = "root slot")]
    fn out_of_range_root_slot_is_rejected() {
        pool().root_u64(ROOT_SLOTS);
    }

    #[test]
    fn sim_backend_identifies_itself_and_ignores_sync() {
        let p = pool();
        assert_eq!(p.backend_kind(), "sim");
        assert!(p.is_sim());
        p.sync(); // no-op on sim
        p.mark_clean(true); // no-op on sim
    }

    /// A minimal heap-backed external backend, exercising the `Ext` arm of
    /// every dispatch path (the real file backend lives in `crates/store`).
    struct HeapBackend {
        words: Box<[std::sync::atomic::AtomicU64]>,
        watermark: std::sync::atomic::AtomicU32,
        roots: [std::sync::atomic::AtomicU64; ROOT_SLOTS],
        /// Published pool size: `words` is the reservation and this much
        /// of it is the pool, as an elastic file pool's size is to its
        /// mapping. `try_grow` raises it up to the reservation.
        len: std::sync::atomic::AtomicUsize,
        /// Hand out a view, like a file pool.
        direct: bool,
        /// Word operations that reached the backend's own methods.
        word_calls: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    impl HeapBackend {
        fn new(size: usize) -> Self {
            HeapBackend {
                words: (0..size / 8)
                    .map(|_| std::sync::atomic::AtomicU64::new(0))
                    .collect(),
                watermark: std::sync::atomic::AtomicU32::new(HEAP_START),
                roots: Default::default(),
                len: std::sync::atomic::AtomicUsize::new(size / 8 * 8),
                direct: false,
                word_calls: Default::default(),
            }
        }

        fn word(&self, off: u32) -> &std::sync::atomic::AtomicU64 {
            self.word_calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            &self.words[off as usize / 8]
        }
    }

    impl PoolBackend for HeapBackend {
        fn kind(&self) -> &'static str {
            "heap-test"
        }
        fn len(&self) -> usize {
            self.len.load(std::sync::atomic::Ordering::Acquire)
        }
        fn load_u64(&self, off: u32) -> u64 {
            self.word(off).load(std::sync::atomic::Ordering::Acquire)
        }
        fn store_u64(&self, off: u32, val: u64) {
            self.word(off)
                .store(val, std::sync::atomic::Ordering::Release)
        }
        fn cas_u64(&self, off: u32, current: u64, new: u64) -> Result<u64, u64> {
            self.word(off).compare_exchange(
                current,
                new,
                std::sync::atomic::Ordering::AcqRel,
                std::sync::atomic::Ordering::Acquire,
            )
        }
        fn fetch_add_u64(&self, off: u32, val: u64) -> u64 {
            self.word(off)
                .fetch_add(val, std::sync::atomic::Ordering::AcqRel)
        }
        fn swap_u64(&self, off: u32, val: u64) -> u64 {
            self.word(off)
                .swap(val, std::sync::atomic::Ordering::AcqRel)
        }
        fn flush(&self, _tid: usize, _off: u32) {}
        fn sfence(&self, _tid: usize) {}
        fn nt_store_u64(&self, _tid: usize, off: u32, val: u64) {
            self.store_u64(off, val)
        }
        fn persist_now(&self, _off: u32) {}
        fn zero_range(&self, off: u32, len: u32) {
            for i in 0..len / 8 {
                self.store_u64(off + i * 8, 0);
            }
        }
        fn watermark(&self) -> u32 {
            self.watermark.load(std::sync::atomic::Ordering::Acquire)
        }
        fn cas_watermark(&self, current: u32, new: u32) -> Result<u32, u32> {
            self.watermark.compare_exchange(
                current,
                new,
                std::sync::atomic::Ordering::AcqRel,
                std::sync::atomic::Ordering::Acquire,
            )
        }
        fn root_u64(&self, slot: usize) -> u64 {
            self.roots[slot].load(std::sync::atomic::Ordering::Acquire)
        }
        fn set_root_u64(&self, slot: usize, val: u64) {
            self.roots[slot].store(val, std::sync::atomic::Ordering::Release)
        }
        fn try_grow(&self, min_len: usize) -> bool {
            let fits = min_len <= self.words.len() * 8;
            if fits {
                self.len
                    .fetch_max(min_len, std::sync::atomic::Ordering::AcqRel);
            }
            fits
        }
        fn map_ref(&self) -> Option<MapRef<'_>> {
            // SAFETY: the boxed words live, unmoved, as long as `self`.
            self.direct
                .then(|| unsafe { MapRef::new(self.words.as_ptr() as *mut u8, self.len()) })
        }
    }

    fn ext_pool() -> PmemPool {
        PmemPool::from_backend(Box::new(HeapBackend::new(1 << 20)))
    }

    /// A heap pool whose backend offers its view, so word operations take
    /// the inline path.
    fn direct_backend() -> HeapBackend {
        HeapBackend {
            direct: true,
            ..HeapBackend::new(1 << 20)
        }
    }

    fn direct_ext_pool() -> PmemPool {
        PmemPool::from_backend(Box::new(direct_backend()))
    }

    fn ext_arm(p: &PmemPool) -> &ExtPool {
        match &p.inner {
            PoolImpl::Ext(e) => e,
            PoolImpl::Sim(_) => panic!("not an external pool"),
        }
    }

    #[test]
    fn an_unpinned_view_takes_word_operations_off_the_backend() {
        let backend = direct_backend();
        let word_calls = std::sync::Arc::clone(&backend.word_calls);
        let p = PmemPool::from_backend(Box::new(backend));
        let off = p.alloc_raw(64, 64);
        p.store_u64(off, 5);
        assert_eq!(p.load_u64(off), 5);
        assert_eq!(p.cas_u64(off, 5, 6), Ok(5));
        assert_eq!(p.cas_u64(off, 5, 7), Err(6));
        assert_eq!(p.fetch_add_u64(off, 1), 6);
        assert_eq!(p.swap_u64(off, 9), 7);
        // None of that reached the backend's word methods, yet the backend
        // sees the same memory.
        assert_eq!(word_calls.load(std::sync::atomic::Ordering::Relaxed), 0);
        assert_eq!(p.persistent_u64_at(off), 9);
        let s = p.stats();
        assert_eq!((s.loads, s.stores, s.cas_ops), (1, 1, 4));
        // Everything that is not a word operation still dispatches.
        p.zero_range(off, 64);
        p.flush(0, off);
        p.sfence(0);
        assert_eq!(p.load_u64(off), 0);
    }

    /// A backend that does not vouch for its tail (the default) gets its
    /// fresh space zeroed, every line flushed and one fence.
    #[test]
    fn alloc_zeroed_zeroes_and_persists_an_unvouched_tail() {
        let backend = HeapBackend::new(1 << 20);
        let tail = backend.watermark();
        for i in 0..64 {
            backend.store_u64(tail + i * 8, 0xDEAD);
        }
        let p = PmemPool::from_backend(Box::new(backend));
        let before = p.stats();
        let off = p.alloc_zeroed(3, 512, 64);
        let cost = p.stats() - before;
        assert_eq!(off, tail);
        assert_eq!((cost.stores, cost.flushes, cost.fences), (64, 8, 1));
        assert!((0..64).all(|i| p.load_u64(off + i * 8) == 0));
    }

    /// A backend that grows after handing out its view: words past the
    /// view's length are still served inline once the backend's `len`
    /// covers them, and an offset past even that still panics.
    #[test]
    fn the_inline_path_follows_a_backend_that_grows() {
        let backend = direct_backend();
        backend
            .len
            .store(64 << 10, std::sync::atomic::Ordering::Relaxed);
        let word_calls = std::sync::Arc::clone(&backend.word_calls);
        let p = PmemPool::from_backend(Box::new(backend));
        let off = loop {
            let off = p.alloc_raw(4096, 64);
            if off >= 64 << 10 {
                break off;
            }
        };
        assert!(p.len() > 64 << 10, "the allocation grew the backend");
        p.store_u64(off, 3);
        assert_eq!(p.cas_u64(off, 3, 4), Ok(3));
        assert_eq!(p.load_u64(off), 4);
        assert_eq!(word_calls.load(std::sync::atomic::Ordering::Relaxed), 0);
        let len = p.len() as u32;
        let past = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.load_u64(len)));
        assert!(past.is_err(), "an offset past the grown pool must panic");
    }

    #[test]
    #[should_panic(expected = "pool access out of bounds")]
    fn the_inline_path_checks_bounds() {
        let p = direct_ext_pool();
        p.load_u64(1 << 20);
    }

    #[test]
    #[should_panic(expected = "pool access out of bounds or unaligned")]
    fn the_inline_path_checks_alignment() {
        let p = direct_ext_pool();
        p.store_u64(HEAP_START + 4, 1);
    }

    /// Waves of threads, each wave holding more threads alive at once than
    /// a pool has owned statistics rows, run a fixed mix of operations;
    /// after the joins the counters equal the arithmetic.
    fn assert_counts_are_exact_under_thread_churn(p: PmemPool) {
        const WAVES: u64 = 3;
        const THREADS: u64 = MAX_THREADS as u64 + 8;
        const ROUNDS: u64 = 300;
        let base = p.alloc_raw(THREADS as u32 * 64, 64);
        p.reset_stats();
        for _ in 0..WAVES {
            let barrier = std::sync::Barrier::new(THREADS as usize);
            std::thread::scope(|scope| {
                for t in 0..THREADS as u32 {
                    let (p, barrier) = (&p, &barrier);
                    scope.spawn(move || {
                        let off = base + t * 64;
                        p.store_u64(off, 0);
                        // Every thread of the wave now holds a slot.
                        barrier.wait();
                        for i in 0..ROUNDS {
                            let v = p.load_u64(off);
                            p.store_u64(off, v + 1);
                            let _ = p.cas_u64(off, v + 1, i);
                            p.fetch_add_u64(off + 8, 1);
                            p.swap_u64(off + 16, i);
                            // The persist API is per tid, and tids are a
                            // scarcer resource than threads.
                            if (t as usize) < MAX_THREADS {
                                p.nt_store_u64(t as usize, off + 24, i);
                                p.flush(t as usize, off);
                                p.sfence(t as usize);
                            }
                        }
                    });
                }
            });
        }
        let n = WAVES * THREADS;
        let s = p.stats();
        assert_eq!(s.loads, n * ROUNDS);
        assert_eq!(s.stores, n * (ROUNDS + 1));
        assert_eq!(s.cas_ops, n * ROUNDS * 3);
        let persisting = WAVES * MAX_THREADS as u64 * ROUNDS;
        assert_eq!(
            (s.nt_stores, s.flushes, s.fences),
            (persisting, persisting, persisting)
        );
        p.reset_stats();
        assert_eq!(p.stats(), StatsSnapshot::default());
        let _ = p.load_u64(base);
        assert_eq!(p.stats().loads, 1, "counting resumes from the reset");
    }

    #[test]
    fn counts_are_exact_under_thread_churn_on_the_sim() {
        assert_counts_are_exact_under_thread_churn(pool());
    }

    #[test]
    fn counts_are_exact_under_thread_churn_on_an_external_backend() {
        assert_counts_are_exact_under_thread_churn(ext_pool());
        assert_counts_are_exact_under_thread_churn(direct_ext_pool());
    }

    /// A pool touched from a thread-local destructor may find the slot
    /// lease already destroyed: it must count (into the overflow row), not
    /// panic. Both registration orders are run; whichever the platform
    /// destroys lease-first exercises the fallback.
    #[test]
    fn a_thread_past_its_slot_lease_falls_back_to_the_overflow_row() {
        use std::cell::RefCell;
        use std::sync::Arc;

        struct TouchOnDrop(Arc<PmemPool>, u32);
        impl Drop for TouchOnDrop {
            fn drop(&mut self) {
                for _ in 0..10 {
                    let _ = self.0.load_u64(self.1);
                }
            }
        }
        thread_local! {
            static PROBE: RefCell<Option<TouchOnDrop>> = const { RefCell::new(None) };
        }

        let mut overflowed = Vec::new();
        for lease_first in [true, false] {
            let p = Arc::new(ext_pool());
            let off = p.alloc_raw(64, 64);
            let worker = Arc::clone(&p);
            std::thread::spawn(move || {
                if lease_first {
                    let _ = worker.load_u64(off);
                }
                PROBE.with(|probe| {
                    *probe.borrow_mut() = Some(TouchOnDrop(Arc::clone(&worker), off))
                });
                if !lease_first {
                    let _ = worker.load_u64(off);
                }
            })
            .join()
            .expect("the destructor must not panic");
            assert_eq!(p.stats().loads, 11, "no access went uncounted");
            overflowed.push(ext_arm(&p).stats.0.overflow(Counter::Loads as usize));
        }
        assert!(
            overflowed.contains(&10),
            "one order destroys the lease before the probe: {overflowed:?}"
        );
    }

    #[test]
    fn external_backend_dispatches_and_counts() {
        let p = ext_pool();
        assert_eq!(p.backend_kind(), "heap-test");
        assert!(!p.is_sim());
        let off = p.alloc_raw(64, 64);
        p.store_u64(off, 5);
        assert_eq!(p.load_u64(off), 5);
        assert_eq!(p.cas_u64(off, 5, 6), Ok(5));
        assert_eq!(p.fetch_add_u64(off, 1), 6);
        assert_eq!(p.swap_u64(off, 9), 7);
        p.flush(0, off);
        p.sfence(0);
        p.nt_store_u64(0, off + 8, 3);
        p.zero_range(off, 64);
        p.persist_now(off);
        p.mark_line_cached(off);
        let s = p.stats();
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 9); // 1 store_u64 + 8 words of zero_range
        assert_eq!(s.cas_ops, 3);
        assert_eq!(s.fences, 1);
        assert_eq!(s.flushes, 2); // flush + persist_now
        assert_eq!(s.nt_stores, 1);
        p.reset_stats();
        assert_eq!(p.stats(), StatsSnapshot::default());
        // Root slots and watermark delegate too.
        p.set_root_u64(1, 11);
        assert_eq!(p.root_u64(1), 11);
        assert!(p.watermark() >= HEAP_START + 64);
    }

    #[test]
    fn external_backend_alloc_exhaustion_reports_details() {
        let p = ext_pool();
        let err = p.try_alloc_raw(u32::MAX, 8).expect_err("cannot fit");
        assert_eq!(err.capacity, 1 << 20);
    }

    #[test]
    #[should_panic(expected = "simulate_crash is only available")]
    fn external_backend_rejects_simulated_crash() {
        let _ = ext_pool().simulate_crash();
    }
}
