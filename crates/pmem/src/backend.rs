//! The pluggable pool-backend abstraction.
//!
//! [`crate::PmemPool`] fronts one of two kinds of storage:
//!
//! * the **simulated** backend (the default, [`crate::PoolConfig`]-driven):
//!   two in-DRAM images with explicit crash simulation, latency modelling and
//!   post-flush-access accounting — the substrate the paper's figures are
//!   regenerated on, and
//! * an **external** backend implementing [`PoolBackend`] — most importantly
//!   the `store` crate's memory-mapped, file-backed pool, whose contents
//!   survive a real process restart.
//!
//! The trait is the complete offset-addressed contract the queue algorithms
//! rely on: 64-bit atomic loads/stores/CAS/RMW, the flush → fence persistence
//! discipline (with per-thread fence scoping), non-temporal stores, watermark
//! management for raw allocation, and a handful of root slots a restart can
//! bootstrap from. Offsets are 32-bit byte offsets into the pool, exactly as
//! with the simulated pool; offset `0` is reserved as the null reference.
//!
//! Hot-path dispatch: the simulated backend is a dedicated enum arm inside
//! `PmemPool` (static dispatch, so the paper-facing benchmarks are
//! unaffected). An external backend pays one virtual call per operation
//! for flushes, fences and everything rarer — noise next to a real `CLWB`
//! or `msync` — but **not** per word access when it can avoid it: the queue
//! algorithms touch ~16 words per message, and a virtual call costs several
//! times the cached load or CAS the paper's model charges for each. A
//! backend whose mapping never moves says so by returning a view from
//! [`PoolBackend::map_ref`]; `PmemPool` then serves load/store/CAS/RMW
//! inline from that mapping (see `map_ref`'s docs for the contract).

use std::sync::atomic::AtomicU64;

/// Number of 64-bit root slots every backend provides.
///
/// Root slots are durable named words *outside* the offset-addressed pool
/// space; a process that reopens a pool can read them before anything else
/// has been recovered (e.g. to find a manifest, an epoch, or a format hint).
/// The queue algorithms themselves use the fixed
/// [`crate::layout::QUEUE_ROOT`] block instead.
pub const ROOT_SLOTS: usize = 8;

/// Carries no information: every backend has one fence discipline. Kept,
/// with [`PoolBackend::fence_hint`], only so a decorator backend that
/// forwards that method still builds.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FenceHint;

/// A direct-pointer view of a backend's mapped pool space.
///
/// The queue hot path goes through [`PoolBackend`]'s per-word operations;
/// `MapRef` is the capability for callers that want to amortize even that
/// (bulk scans, checksumming, recovery walks, and `PmemPool`'s own inline
/// word path): raw pointer arithmetic with zero per-access
/// synchronization.
///
/// # Lifetime rules
///
/// * The base is fixed for the backend's lifetime, `[0, len())` of the
///   backend is mapped, and the backend's [`len`](PoolBackend::len) never
///   shrinks. So a view stays valid for as long as the backend is
///   borrowed, and taking, holding or dropping one constrains nothing.
/// * Offsets are pool offsets: `addr(0)` is pool offset 0, the backend's
///   header (if any) is not addressable through a `MapRef`.
/// * [`len`](Self::len) is the pool size when the view was taken. A
///   concurrent growth may make `PoolBackend::len` larger while this view
///   is live; offsets handed out by such an allocation may exceed this
///   view's bounds, and this view's accessors panic on them. Take a fresh
///   view to address the grown space.
/// * A `MapRef` is `!Send`/`!Sync` (it carries a raw pointer); keep it on
///   the thread that created it.
pub struct MapRef<'p> {
    base: *mut u8,
    len: usize,
    _backend: std::marker::PhantomData<&'p ()>,
}

impl<'p> MapRef<'p> {
    /// Builds a view over `len` bytes of pool space starting at `base`.
    ///
    /// # Safety
    ///
    /// `base` must be valid for reads and writes of `len` bytes for the
    /// whole lifetime `'p`.
    pub unsafe fn new(base: *mut u8, len: usize) -> Self {
        MapRef {
            base,
            len,
            _backend: std::marker::PhantomData,
        }
    }

    /// Pool bytes addressable through this view (the pool size when it
    /// was taken).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the view is empty (never, for real pools).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The mapped address of pool offset `off`, validated for an access
    /// of `len` bytes: panics unless the whole span `[off, off + len)`
    /// lies inside the view (`len` must be non-zero). Asserting only the
    /// first byte would let a multi-byte access starting near the tail
    /// run past the view. Dereferencing is `unsafe` and subject
    /// to the pool's usual contract (concurrently-written words must be
    /// accessed atomically — see [`atomic_u64`](Self::atomic_u64)).
    #[inline]
    pub fn addr(&self, off: u32, len: usize) -> *mut u8 {
        assert!(
            len > 0
                && (off as usize)
                    .checked_add(len)
                    .is_some_and(|end| end <= self.len),
            "MapRef access span out of bounds"
        );
        // SAFETY: the whole span is in bounds of the view.
        unsafe { self.base.add(off as usize) }
    }

    /// The word at pool offset `off` as an atomic, for lock-free access in
    /// place. Panics if `off` is out of bounds or unaligned.
    #[inline]
    pub fn atomic_u64(&self, off: u32) -> &AtomicU64 {
        assert!(
            off as usize + 8 <= self.len && off.is_multiple_of(8),
            "MapRef word out of bounds or unaligned"
        );
        // SAFETY: in bounds, 8-byte aligned (mappings are page aligned),
        // and AtomicU64 accesses are always valid on mapped pool words.
        unsafe { &*(self.base.add(off as usize) as *const AtomicU64) }
    }
}

/// The operations a persistent pool backend must provide.
///
/// All atomic operations carry the same ordering contract as the simulated
/// pool: loads are `Acquire`, stores `Release`, RMW ops `AcqRel`. The
/// persistence contract is: data reaches stable storage once it has been
/// covered by [`flush`](Self::flush) (or [`nt_store_u64`](Self::nt_store_u64))
/// followed by [`sfence`](Self::sfence) *on the issuing thread*.
///
/// The `tid`-taking methods follow the pool-wide single-owner discipline:
/// only the thread owning logical id `tid` may pass it.
pub trait PoolBackend: Send + Sync {
    /// Short identifier of the backend kind (`"file"`, `"sim"`, ...).
    fn kind(&self) -> &'static str;

    /// Pool size in bytes (the addressable offset space).
    fn len(&self) -> usize;

    /// Returns `true` if the pool has zero capacity.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// 64-bit atomic load (acquire).
    fn load_u64(&self, off: u32) -> u64;

    /// 64-bit atomic store (release). Durable only after flush + fence.
    fn store_u64(&self, off: u32, val: u64);

    /// 64-bit compare-and-swap; `Ok(previous)` on success, `Err(actual)` on
    /// failure.
    fn cas_u64(&self, off: u32, current: u64, new: u64) -> Result<u64, u64>;

    /// 64-bit atomic fetch-add; returns the previous value.
    fn fetch_add_u64(&self, off: u32, val: u64) -> u64;

    /// 64-bit atomic swap; returns the previous value.
    fn swap_u64(&self, off: u32, val: u64) -> u64;

    /// Issues an asynchronous flush of the cache line containing `off` on
    /// behalf of thread `tid` (CLWB/CLFLUSHOPT).
    fn flush(&self, tid: usize, off: u32);

    /// Flushes every cache line overlapping `[off, off + len)`.
    fn flush_range(&self, tid: usize, off: u32, len: u32) {
        if len == 0 {
            return;
        }
        let line = crate::layout::CACHE_LINE as u32;
        let first = crate::layout::line_of(off);
        let last = crate::layout::line_of(off + len - 1);
        for l in first..=last {
            self.flush(tid, l * line);
        }
    }

    /// Store fence: blocks until every flush and non-temporal store
    /// previously issued by thread `tid` is durable.
    fn sfence(&self, tid: usize);

    /// Non-temporal 64-bit store on behalf of thread `tid`: durable at the
    /// next fence without invalidating the containing cache line.
    fn nt_store_u64(&self, tid: usize, off: u32, val: u64);

    /// Immediately persists the line containing `off` (recovery/test path;
    /// no per-thread bookkeeping).
    fn persist_now(&self, off: u32);

    /// Clears any flushed/invalidated marker of the line containing `off`
    /// without charging a post-flush access. Meaningful for the simulated
    /// backend's accounting; real backends may ignore it.
    fn mark_line_cached(&self, off: u32) {
        let _ = off;
    }

    /// Zeroes `[off, off + len)` with plain stores (callers flush + fence if
    /// they need the zeroes durable).
    fn zero_range(&self, off: u32, len: u32);

    /// Whether the backend vouches for its never-allocated tail: every byte
    /// at or above the [`watermark`](Self::watermark) reads zero now and
    /// after any crash, so [`crate::PmemPool::alloc_zeroed`] may hand it out
    /// without zeroing, flushing or fencing it.
    ///
    /// The default declines. A backend may vouch only if nothing ever
    /// writes above its watermark and a crash cannot surface bytes there —
    /// in particular not bytes a previous session wrote into space whose
    /// watermark never reached stable storage.
    fn vouches_zero_tail(&self) -> bool {
        false
    }

    /// Current allocation watermark (first never-reserved byte offset).
    /// Backends with durable storage persist the watermark so a reopened
    /// pool never re-hands-out space that pre-crash data occupies.
    fn watermark(&self) -> u32;

    /// Compare-and-swap on the watermark; `Ok(previous)` on success,
    /// `Err(actual)` on failure. The allocation loop in
    /// [`crate::PmemPool::try_alloc_raw`] is built on this.
    fn cas_watermark(&self, current: u32, new: u32) -> Result<u32, u32>;

    /// Attempts to extend the pool so [`len`](Self::len) is at least
    /// `min_len` bytes, returning whether it is afterwards. The allocation
    /// loop calls this before giving up on an exhausted pool; a `true`
    /// return means "retry", not "this exact request was reserved" — the
    /// caller re-runs its watermark CAS against the larger pool.
    ///
    /// The default declines: backends are fixed-size unless they opt in
    /// (the `store` crate's file pool grows by `ftruncate` under a mapping
    /// reserved up front, when configured with a growth step). A growth
    /// must leave the base of any [`map_ref`](Self::map_ref) view where it
    /// is. Implementations must be safe to call
    /// concurrently with every other pool operation and must only return
    /// `true` once the new capacity is crash-durably committed, so no
    /// allocation above the old ceiling can outlive a crash that forgets
    /// the growth.
    fn try_grow(&self, min_len: usize) -> bool {
        let _ = min_len;
        false
    }

    /// Number of capacity growths durably committed over the pool's
    /// lifetime (`0` for fixed-size backends).
    fn growth_epoch(&self) -> u32 {
        0
    }

    /// Returns the empty [`FenceHint`]; see there.
    #[doc(hidden)]
    fn fence_hint(&self) -> FenceHint {
        FenceHint
    }

    /// Hands out a direct-pointer view of the pool space, or `None` for
    /// backends with no stable linear mapping to expose (the simulated
    /// backend keeps its persistence accounting honest by refusing).
    ///
    /// Returning a view is a promise, for the backend's whole lifetime:
    /// the base never moves, `[0, len())` is always mapped, and
    /// [`len`](Self::len) never shrinks (see [`MapRef`]).
    /// [`crate::PmemPool`] relies on it: it asks once at construction and
    /// performs every later `load_u64`/`store_u64`/`cas_u64`/
    /// `fetch_add_u64`/`swap_u64` directly on that mapping (bounds-checked
    /// against the view's length, re-reading [`len`](Self::len) before it
    /// refuses an offset; same orderings) without calling the backend's
    /// own word methods. A backend that must observe every word access —
    /// the simulator's accounting, a fault injector — returns `None`.
    fn map_ref(&self) -> Option<MapRef<'_>> {
        None
    }

    /// Reads durable root slot `slot` (`< ROOT_SLOTS`).
    fn root_u64(&self, slot: usize) -> u64;

    /// Durably writes root slot `slot` (persisted before returning).
    fn set_root_u64(&self, slot: usize, val: u64);

    /// Reads the value of `off` that would survive a crash right now. For
    /// backends without a separate persistent image this is the current
    /// value.
    fn persistent_u64_at(&self, off: u32) -> u64 {
        self.load_u64(off)
    }

    /// Full durability barrier: everything written so far reaches stable
    /// storage (e.g. `msync` + `fsync` for a file backend). A no-op for
    /// backends whose fences are already globally durable.
    fn sync(&self) {}

    /// Records a clean/dirty marker in the backend's durable metadata, if it
    /// has any. `PmemPool` marks the pool dirty while open and clean on an
    /// orderly close; a reopened pool can report whether the previous
    /// session shut down cleanly.
    fn mark_clean(&self, clean: bool) {
        let _ = clean;
    }
}
