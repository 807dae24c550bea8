//! The external arm of [`crate::PmemPool`]: a boxed [`PoolBackend`], the
//! pool's event counters, and — when the backend exposes its mapping — an
//! inlined word path that skips the backend altogether.
//!
//! The queue algorithms issue ~16 word accesses per message, and the
//! paper's cost model prices each at one cached load, store or CAS. A
//! virtual call per word is several times that. So the arm asks the
//! backend for its [`map_ref`](PoolBackend::map_ref) once, at construction.
//! A view promises a base that never moves and a length that never
//! shrinks (every `store` file pool, fixed or elastic), so the arm keeps
//! the base and the view's length and serves
//! `load/store/cas/fetch_add/swap` from them directly — a bounds check, the
//! counter and the atomic instruction. An offset past the view's length
//! takes a cold path that checks it against the largest size the pool has
//! been seen to grow to, re-reading [`len`](PoolBackend::len) once before
//! it refuses: an elastic pool may have grown since. A backend that
//! returns no view gets every word through its own methods. The choice is
//! read from the backend, not configured.

use crate::backend::PoolBackend;
use crate::stats::{Counter, Stats};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Base and known lengths of a mapping whose base stays put for the
/// backend's lifetime.
struct DirectMap {
    base: *mut u8,
    /// The view's length: what the hot path checks, immutable, so the
    /// compiler keeps it in a register across a loop of word accesses.
    len: usize,
    /// The largest [`len`](PoolBackend::len) an access past `len` has
    /// found; read only on the cold path.
    grown: AtomicUsize,
}

// SAFETY: `base` points into plain shared memory, only ever accessed
// through atomics (`ExtPool::word`), that outlives the `DirectMap` (see
// `ExtPool::new`); `len` is immutable and `grown` atomic.
unsafe impl Send for DirectMap {}
// SAFETY: as above.
unsafe impl Sync for DirectMap {}

pub(crate) struct ExtPool {
    /// The backend's mapping, when it exposes one; see `new`.
    direct: Option<DirectMap>,
    pub(crate) backend: Box<dyn PoolBackend>,
    pub(crate) stats: Stats,
}

impl ExtPool {
    pub(crate) fn new(backend: Box<dyn PoolBackend>) -> ExtPool {
        let direct = backend
            .map_ref()
            .filter(|view| !view.is_empty())
            .map(|view| DirectMap {
                base: view.addr(0, view.len()),
                len: view.len(),
                grown: AtomicUsize::new(view.len()),
            });
        // A view's base is valid for as long as the backend could be
        // borrowed, up to the backend's current `len()` (the `MapRef`
        // contract) — and the box is owned by this struct and never
        // replaced, so the pointer taken above is valid whenever `&self`
        // exists.
        ExtPool {
            direct,
            backend,
            stats: Stats::default(),
        }
    }

    /// The word at pool offset `off` of `map`. Memory safety rests on the
    /// bounds check, so it is an `assert!`: release builds keep it.
    #[inline]
    fn word<'a>(&self, map: &'a DirectMap, off: u32) -> &'a AtomicU64 {
        if !off.is_multiple_of(8) || off as usize + 8 > map.len {
            self.past_the_view(map, off);
        }
        // SAFETY: in bounds of the mapped pool and 8-byte aligned (the
        // base is page aligned); pool words are only accessed atomically.
        unsafe { &*(map.base.add(off as usize) as *const AtomicU64) }
    }

    /// The cold half of [`word`](Self::word): the pool may have grown
    /// since the view was taken, so an offset past it is checked against
    /// the largest size seen so far, then against a fresh `len()`, before
    /// it is refused.
    #[cold]
    #[inline(never)]
    fn past_the_view(&self, map: &DirectMap, off: u32) {
        let end = off as usize + 8;
        // Acquire here and AcqRel below carry the backend's publication of
        // `len` (after the file was extended) to every thread that reads
        // the raised value.
        if off.is_multiple_of(8) && end <= map.grown.load(Ordering::Acquire) {
            return;
        }
        let len = self.backend.len();
        assert!(
            off.is_multiple_of(8) && end <= len,
            "pool access out of bounds or unaligned (offset {off}, pool size {len})"
        );
        map.grown.fetch_max(len, Ordering::AcqRel);
    }

    #[inline]
    pub(crate) fn load_u64(&self, off: u32) -> u64 {
        self.stats.add(Counter::Loads, 1);
        match &self.direct {
            Some(map) => self.word(map, off).load(Ordering::Acquire),
            None => self.backend.load_u64(off),
        }
    }

    #[inline]
    pub(crate) fn store_u64(&self, off: u32, val: u64) {
        self.stats.add(Counter::Stores, 1);
        match &self.direct {
            Some(map) => self.word(map, off).store(val, Ordering::Release),
            None => self.backend.store_u64(off, val),
        }
    }

    #[inline]
    pub(crate) fn cas_u64(&self, off: u32, current: u64, new: u64) -> Result<u64, u64> {
        self.stats.add(Counter::CasOps, 1);
        match &self.direct {
            Some(map) => self.word(map, off).compare_exchange(
                current,
                new,
                Ordering::AcqRel,
                Ordering::Acquire,
            ),
            None => self.backend.cas_u64(off, current, new),
        }
    }

    #[inline]
    pub(crate) fn fetch_add_u64(&self, off: u32, val: u64) -> u64 {
        self.stats.add(Counter::CasOps, 1);
        match &self.direct {
            Some(map) => self.word(map, off).fetch_add(val, Ordering::AcqRel),
            None => self.backend.fetch_add_u64(off, val),
        }
    }

    #[inline]
    pub(crate) fn swap_u64(&self, off: u32, val: u64) -> u64 {
        self.stats.add(Counter::CasOps, 1);
        match &self.direct {
            Some(map) => self.word(map, off).swap(val, Ordering::AcqRel),
            None => self.backend.swap_u64(off, val),
        }
    }
}
