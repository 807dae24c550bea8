//! The simulated persistent-memory backend.
//!
//! A [`SimPool`] owns two images of the same address range:
//!
//! * the **working image** — what loads, stores and CASes observe. It plays
//!   the role of "the cache hierarchy plus whatever has already been written
//!   back": the most recent value of every location.
//! * the **persistent image** — what would survive a full-system crash. Only
//!   explicit persistence (flush + fence, or a non-temporal store + fence)
//!   and simulated implicit cache evictions copy data from the working image
//!   into the persistent image.
//!
//! All persistence is tracked at cache-line (64-byte) granularity, and a line
//! is always copied as a whole snapshot of its current working content. This
//! realises Assumption 1 of the paper: the persistent content of a line is a
//! prefix of the stores performed to it (here: always the full prefix up to
//! the copy), never a torn or reordered mixture.
//!
//! Flushes model the CLWB/CLFLUSHOPT behaviour the paper measured on Cascade
//! Lake: issuing a flush *invalidates* the line, so the next access to it
//! counts as a [post-flush access](crate::StatsSnapshot::post_flush_accesses)
//! and pays the configured NVRAM read latency.
//!
//! A thread's charges accrue where they are issued and are paid in as few
//! spins as the model allows: a flush or a non-temporal store adds its
//! delay to the thread's debt, and the thread's next fence spins once for
//! that debt plus its own delay. A post-flush access pays at the access.
//! So each fence carries one spin's overshoot (at most one turn of
//! [`spin_delay`]'s loop), not each event. The checks every access makes —
//! is the line flushed, is the eviction adversary on — stay inline, and
//! what runs when one fires is out of line.
//!
//! What the simulator itself costs stays outside that model. Both images
//! and the per-line state bytes are private anonymous mappings
//! ([`obs::sys::MmapRegion::anonymous`]) that the kernel zeroes page by page
//! on first touch, so creating a pool writes nothing and a run pays for the
//! pages it touches, not for the pool's size. A simulated crash copies
//! every line of both images into a fresh pool, with one eviction draw per
//! line, so a recovered pool is fully resident by design.
//!
//! This module is the "sim" arm of [`crate::PmemPool`]; the public API and
//! its documentation live there.

use crate::backend::ROOT_SLOTS;
use crate::latency::spin_delay;
use crate::layout::{self, CACHE_LINE, MAX_THREADS};
use crate::pool::PoolConfig;
use crate::stats::{Counter, Stats, StatsSnapshot};
use obs::rows::CachePadded;
use obs::sys::MmapRegion;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

/// Line state: present in the cache (normal access cost).
const LINE_CACHED: u8 = 0;
/// Line state: explicitly flushed, hence invalidated; the next access pays
/// the NVRAM read latency.
const LINE_FLUSHED: u8 = 1;

/// Maps one of a pool's zeroed arrays: an image, or the line states (zero
/// is [`LINE_CACHED`]). The kernel zeroes each page when it is first
/// touched, so a pool costs the memory a run touches, not its size.
fn zeroed(len: usize) -> MmapRegion {
    MmapRegion::anonymous(len)
        .unwrap_or_else(|e| panic!("pmem: cannot map a {len}-byte simulated image: {e}"))
}

/// Per-thread record of persistence work that has been issued but not yet
/// ordered by a fence: lines with outstanding asynchronous flushes, the
/// (offset, value) pairs of outstanding non-temporal stores, and the delay
/// they charged, which the fence pays.
#[derive(Default)]
struct PendingPersists {
    flushed_lines: Vec<u32>,
    nt_writes: Vec<(u32, u64)>,
    owed_ns: u32,
}

/// Interior-mutability wrapper for the per-thread pending-persist slots.
///
/// Only the thread that owns thread id `tid` may call
/// `flush`/`sfence`/`nt_store_u64` with that `tid`; this single-owner
/// discipline (identical to how the paper's per-thread arrays are used) is
/// what makes the unsynchronised interior access sound.
struct PendingCell(UnsafeCell<PendingPersists>);

// SAFETY: each slot is only accessed by the single thread that owns the
// corresponding tid (documented contract of the persist API).
unsafe impl Sync for PendingCell {}

/// The simulated persistent-memory backend. See the [module docs](self).
pub(crate) struct SimPool {
    working: MmapRegion,
    persistent: MmapRegion,
    /// One state byte per cache line.
    line_states: MmapRegion,
    pending: Box<[CachePadded<PendingCell>]>,
    /// Durable root slots: working value and the value a crash preserves.
    roots_working: [AtomicU64; ROOT_SLOTS],
    roots_persistent: [AtomicU64; ROOT_SLOTS],
    size: usize,
    watermark: AtomicU32,
    stats: Stats,
    config: PoolConfig,
    eviction_threshold: u64,
    rng: AtomicU64,
}

impl SimPool {
    /// Creates a fresh, zeroed simulated pool.
    pub(crate) fn new(config: PoolConfig) -> Self {
        assert!(
            config.size <= u32::MAX as usize,
            "pool size must be addressable by a 32-bit PRef"
        );
        let min = layout::HEAP_START as usize + CACHE_LINE;
        let size = layout::align_up(config.size.max(min) as u32, CACHE_LINE as u32) as usize;
        let pending = (0..MAX_THREADS)
            .map(|_| CachePadded::new(PendingCell(UnsafeCell::new(PendingPersists::default()))))
            .collect();
        let eviction_threshold = probability_to_threshold(config.eviction_probability);
        SimPool {
            working: zeroed(size),
            persistent: zeroed(size),
            line_states: zeroed(size / CACHE_LINE),
            pending,
            roots_working: Default::default(),
            roots_persistent: Default::default(),
            size,
            watermark: AtomicU32::new(layout::HEAP_START),
            stats: Stats::default(),
            config,
            eviction_threshold,
            rng: AtomicU64::new(config.eviction_seed | 1),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.size
    }

    // ------------------------------------------------------------------
    // Address translation
    // ------------------------------------------------------------------

    #[inline]
    fn check_bounds(&self, off: u32, bytes: u32) {
        debug_assert!(
            off as usize + bytes as usize <= self.size,
            "pmem access out of bounds"
        );
        debug_assert_eq!(off % bytes, 0, "unaligned pmem access");
        debug_assert_eq!(
            (off as usize) / CACHE_LINE,
            (off as usize + bytes as usize - 1) / CACHE_LINE,
            "pmem access crosses a cache line"
        );
    }

    #[inline]
    fn working_u64(&self, off: u32) -> &AtomicU64 {
        self.check_bounds(off, 8);
        // SAFETY: in bounds, 8-byte aligned (the mapping is page-aligned),
        // and the mapping lives as long as `self`; it is only accessed
        // through atomics.
        unsafe { &*(self.working.as_ptr().add(off as usize) as *const AtomicU64) }
    }

    #[inline]
    fn persistent_u64(&self, off: u32) -> &AtomicU64 {
        self.check_bounds(off, 8);
        // SAFETY: as above.
        unsafe { &*(self.persistent.as_ptr().add(off as usize) as *const AtomicU64) }
    }

    #[inline]
    fn line_state(&self, off: u32) -> &AtomicU8 {
        let line = layout::line_of(off) as usize;
        assert!(line < self.line_states.len(), "pmem access out of bounds");
        // SAFETY: `line` is in bounds (checked above), and a byte needs no
        // alignment; the mapping lives as long as `self` and is only
        // accessed through atomics.
        unsafe { &*(self.line_states.as_ptr().add(line) as *const AtomicU8) }
    }

    // ------------------------------------------------------------------
    // Instrumented access (the "did we touch a flushed line?" check)
    // ------------------------------------------------------------------

    /// Applies the post-flush-access accounting and penalty to the cache line
    /// containing `off`, then (re)marks it as cached.
    #[inline]
    fn touch(&self, off: u32) {
        let state = self.line_state(off);
        if state.load(Ordering::Relaxed) == LINE_FLUSHED {
            self.touch_flushed(state);
        }
    }

    /// The rare half of [`SimPool::touch`], out of line so that the check
    /// inlined into every access does not carry the spin's frame.
    #[cold]
    #[inline(never)]
    fn touch_flushed(&self, state: &AtomicU8) {
        state.store(LINE_CACHED, Ordering::Relaxed);
        self.stats.add(Counter::PostFlushAccesses, 1);
        spin_delay(self.config.latency.nvram_read_ns);
    }

    /// Possibly persists the line containing `off`, simulating an implicit
    /// cache eviction, when the adversary is enabled.
    #[inline]
    fn maybe_evict(&self, off: u32) {
        if self.eviction_threshold != 0 {
            self.draw_eviction(off);
        }
    }

    /// The adversary's draw for [`SimPool::maybe_evict`], out of line: only
    /// crash tests enable it.
    #[cold]
    #[inline(never)]
    fn draw_eviction(&self, off: u32) {
        if self.next_rand() < self.eviction_threshold {
            self.persist_line(layout::line_of(off));
            self.stats.add(Counter::ImplicitEvictions, 1);
        }
    }

    #[inline]
    fn next_rand(&self) -> u64 {
        // SplitMix64 over a Weyl sequence; statistical quality is more than
        // enough for an eviction adversary and it is wait-free.
        let mut z = self
            .rng
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    // ------------------------------------------------------------------
    // Loads / stores / CAS on the working image
    // ------------------------------------------------------------------

    #[inline]
    pub(crate) fn load_u64(&self, off: u32) -> u64 {
        self.touch(off);
        self.stats.add(Counter::Loads, 1);
        self.working_u64(off).load(Ordering::Acquire)
    }

    #[inline]
    pub(crate) fn store_u64(&self, off: u32, val: u64) {
        self.touch(off);
        self.stats.add(Counter::Stores, 1);
        self.working_u64(off).store(val, Ordering::Release);
        self.maybe_evict(off);
    }

    #[inline]
    pub(crate) fn cas_u64(&self, off: u32, current: u64, new: u64) -> Result<u64, u64> {
        self.touch(off);
        self.stats.add(Counter::CasOps, 1);
        let r = self.working_u64(off).compare_exchange(
            current,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        if r.is_ok() {
            self.maybe_evict(off);
        }
        r
    }

    #[inline]
    pub(crate) fn fetch_add_u64(&self, off: u32, val: u64) -> u64 {
        self.touch(off);
        self.stats.add(Counter::CasOps, 1);
        let r = self.working_u64(off).fetch_add(val, Ordering::AcqRel);
        self.maybe_evict(off);
        r
    }

    #[inline]
    pub(crate) fn swap_u64(&self, off: u32, val: u64) -> u64 {
        self.touch(off);
        self.stats.add(Counter::CasOps, 1);
        let r = self.working_u64(off).swap(val, Ordering::AcqRel);
        self.maybe_evict(off);
        r
    }

    // ------------------------------------------------------------------
    // Persistence primitives
    // ------------------------------------------------------------------

    fn with_pending<R>(&self, tid: usize, f: impl FnOnce(&mut PendingPersists) -> R) -> R {
        assert!(tid < MAX_THREADS, "tid {tid} exceeds MAX_THREADS");
        // SAFETY: by the documented contract, only the owner of `tid` calls
        // the persist API with this tid, so there is no concurrent access.
        // The mutable borrow is confined to this call so it cannot be held
        // across another persist-API call for the same tid.
        f(unsafe { &mut *self.pending[tid].0.get() })
    }

    /// Copies the current working content of `line` into the persistent
    /// image. Whole-line, so Assumption 1 holds by construction.
    fn persist_line(&self, line: u32) {
        let base = line * CACHE_LINE as u32;
        for i in 0..(CACHE_LINE as u32 / 8) {
            let off = base + i * 8;
            let v = self.working_u64(off).load(Ordering::Acquire);
            self.persistent_u64(off).store(v, Ordering::Release);
        }
    }

    /// Charges `tid` a flush: paid at its next fence.
    #[inline]
    pub(crate) fn flush(&self, tid: usize, off: u32) {
        let line = layout::line_of(off);
        self.line_state(off).store(LINE_FLUSHED, Ordering::Relaxed);
        self.stats.add(Counter::Flushes, 1);
        let ns = self.config.latency.flush_ns;
        self.with_pending(tid, |pending| {
            pending.flushed_lines.push(line);
            pending.owed_ns = pending.owed_ns.saturating_add(ns);
        });
    }

    /// Persists what `tid` issued since its last fence and pays, in one
    /// spin, the fence's delay and what those flushes and non-temporal
    /// stores charged.
    pub(crate) fn sfence(&self, tid: usize) {
        self.stats.add(Counter::Fences, 1);
        // Drained in place: the lists keep their capacity for the next
        // epoch's flushes instead of being freed and reallocated per fence.
        let owed = self.with_pending(tid, |pending| {
            for line in pending.flushed_lines.drain(..) {
                self.persist_line(line);
            }
            for (off, val) in pending.nt_writes.drain(..) {
                self.persistent_u64(off).store(val, Ordering::Release);
            }
            std::mem::take(&mut pending.owed_ns)
        });
        spin_delay(owed.saturating_add(self.config.latency.fence_ns));
    }

    /// Charges `tid` a non-temporal store: paid at its next fence.
    #[inline]
    pub(crate) fn nt_store_u64(&self, tid: usize, off: u32, val: u64) {
        self.stats.add(Counter::NtStores, 1);
        self.working_u64(off).store(val, Ordering::Release);
        let ns = self.config.latency.nt_store_ns;
        self.with_pending(tid, |pending| {
            pending.nt_writes.push((off, val));
            pending.owed_ns = pending.owed_ns.saturating_add(ns);
        });
    }

    /// What `tid`'s flushes and non-temporal stores since its last fence
    /// charged, not yet paid.
    #[cfg(test)]
    fn owed_ns(&self, tid: usize) -> u32 {
        self.with_pending(tid, |pending| pending.owed_ns)
    }

    pub(crate) fn persist_now(&self, off: u32) {
        self.stats.add(Counter::Flushes, 1);
        self.line_state(off).store(LINE_FLUSHED, Ordering::Relaxed);
        self.persist_line(layout::line_of(off));
    }

    /// Stores only on a change of state, like [`SimPool::touch`]: a store
    /// to a line's state byte on every allocation would pull that byte's
    /// cache line away from the threads reading their neighbouring nodes'
    /// states.
    pub(crate) fn mark_line_cached(&self, off: u32) {
        let state = self.line_state(off);
        if state.load(Ordering::Relaxed) != LINE_CACHED {
            state.store(LINE_CACHED, Ordering::Relaxed);
        }
    }

    pub(crate) fn zero_range(&self, off: u32, len: u32) {
        assert_eq!(off % 8, 0);
        assert_eq!(len % 8, 0);
        assert!(off as usize + len as usize <= self.size);
        for i in 0..(len / 8) {
            let o = off + i * 8;
            self.working_u64(o).store(0, Ordering::Release);
        }
        self.stats.add(Counter::Stores, (len / 8) as u64);
    }

    // ------------------------------------------------------------------
    // Watermark and root slots
    // ------------------------------------------------------------------

    pub(crate) fn watermark(&self) -> u32 {
        self.watermark.load(Ordering::Acquire)
    }

    pub(crate) fn cas_watermark(&self, current: u32, new: u32) -> Result<u32, u32> {
        self.watermark
            .compare_exchange_weak(current, new, Ordering::AcqRel, Ordering::Acquire)
    }

    pub(crate) fn root_u64(&self, slot: usize) -> u64 {
        self.roots_working[slot].load(Ordering::Acquire)
    }

    /// Root-slot writes persist immediately (they are rare, recovery-facing
    /// metadata, not hot-path queue state).
    pub(crate) fn set_root_u64(&self, slot: usize, val: u64) {
        self.roots_working[slot].store(val, Ordering::Release);
        self.roots_persistent[slot].store(val, Ordering::Release);
    }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    pub(crate) fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    pub(crate) fn reset_stats(&self) {
        self.stats.reset();
    }

    // ------------------------------------------------------------------
    // Crash simulation
    // ------------------------------------------------------------------

    pub(crate) fn persistent_u64_at(&self, off: u32) -> u64 {
        self.persistent_u64(off).load(Ordering::Acquire)
    }

    pub(crate) fn simulate_crash_with_evictions(&self, probability: f64, seed: u64) -> SimPool {
        let recovered = SimPool::new(self.config);
        // Loop: cas_watermark is a weak CAS and may fail spuriously even on
        // this freshly created, uncontended pool.
        let w = self.watermark();
        let mut cur = layout::HEAP_START;
        while cur < w {
            match recovered.cas_watermark(cur, w) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        let threshold = probability_to_threshold(probability);
        let mut rng_state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            rng_state = rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = rng_state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let lines = self.size / CACHE_LINE;
        for line in 0..lines as u32 {
            let evicted = threshold != 0 && next() < threshold;
            let base = line * CACHE_LINE as u32;
            for i in 0..(CACHE_LINE as u32 / 8) {
                let off = base + i * 8;
                let src = if evicted {
                    // The line was written back at crash time: its working
                    // content survives.
                    self.working_u64(off).load(Ordering::Acquire)
                } else {
                    self.persistent_u64(off).load(Ordering::Acquire)
                };
                recovered.working_u64(off).store(src, Ordering::Release);
                recovered.persistent_u64(off).store(src, Ordering::Release);
            }
        }
        for slot in 0..ROOT_SLOTS {
            let v = self.roots_persistent[slot].load(Ordering::Acquire);
            recovered.set_root_u64(slot, v);
        }
        recovered
    }
}

pub(crate) fn probability_to_threshold(probability: f64) -> u64 {
    if probability <= 0.0 {
        0
    } else if probability >= 1.0 {
        u64::MAX
    } else {
        (probability * u64::MAX as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LatencyModel;

    /// A flush and a non-temporal store are paid at their own thread's
    /// next fence, and that fence pays nothing another thread owes.
    #[test]
    fn flushes_and_nt_stores_are_owed_to_their_threads_next_fence() {
        let model = LatencyModel::optane_like();
        let pool = SimPool::new(PoolConfig {
            latency: model,
            ..PoolConfig::small_test()
        });
        let (a, b) = (layout::HEAP_START, layout::HEAP_START + CACHE_LINE as u32);
        pool.flush(0, a);
        pool.nt_store_u64(0, b, 7);
        assert_eq!(pool.owed_ns(0), model.flush_ns + model.nt_store_ns);
        assert_eq!(pool.owed_ns(1), 0, "tid 0's charges are not tid 1's");
        pool.flush(1, b);
        assert_eq!(pool.owed_ns(1), model.flush_ns);
        pool.sfence(0);
        assert_eq!(pool.owed_ns(0), 0, "the fence pays what its thread owed");
        assert_eq!(pool.owed_ns(1), model.flush_ns, "and nothing of another's");
        pool.sfence(1);
        assert_eq!(pool.owed_ns(1), 0);
        pool.sfence(1);
        assert_eq!(
            pool.owed_ns(1),
            0,
            "a fence with nothing pending owes nothing"
        );
    }
}
