//! The external arm of [`crate::PmemPool`]: a boxed [`PoolBackend`], the
//! pool's event counters, and — when the backend's mapping can never move —
//! an inlined word path that skips the backend altogether.
//!
//! The queue algorithms issue ~16 word accesses per message, and the
//! paper's cost model prices each at one cached load, store or CAS. A
//! virtual call per word is several times that. So the arm asks the
//! backend for its [`map_ref`](PoolBackend::map_ref) once, at construction:
//! an **unpinned** view means the mapping is immutable for the backend's
//! lifetime (a fixed-size `store` file pool), and the arm keeps its base and
//! length and serves `load/store/cas/fetch_add/swap` from them directly —
//! a bounds check, the counter and the atomic instruction. A **pinned** view
//! means the mapping can be replaced (an elastic pool); it is dropped at
//! once and every word goes through the backend, which re-resolves the
//! current mapping per access. The choice is read from the backend, not
//! configured.

use crate::backend::PoolBackend;
use crate::stats::{Counter, Stats};
use std::sync::atomic::{AtomicU64, Ordering};

/// Base and length of a mapping that stays put for the backend's lifetime.
struct DirectMap {
    base: *mut u8,
    len: usize,
}

// SAFETY: the mapping is plain shared memory, only ever accessed through
// atomics (`DirectMap::word`), and outlives the `DirectMap` (see
// `ExtPool::new`).
unsafe impl Send for DirectMap {}
// SAFETY: as above.
unsafe impl Sync for DirectMap {}

impl DirectMap {
    /// The word at pool offset `off`. Memory safety rests on this check, so
    /// it is an `assert!`: release builds keep it.
    #[inline]
    fn word(&self, off: u32) -> &AtomicU64 {
        assert!(
            off.is_multiple_of(8) && off as usize + 8 <= self.len,
            "pool access out of bounds or unaligned (offset {off}, pool size {})",
            self.len
        );
        // SAFETY: in bounds of the mapping and 8-byte aligned (the base is
        // page aligned); pool words are only accessed atomically.
        unsafe { &*(self.base.add(off as usize) as *const AtomicU64) }
    }
}

pub(crate) struct ExtPool {
    /// The backend's mapping, when it is immutable; see `new`.
    direct: Option<DirectMap>,
    pub(crate) backend: Box<dyn PoolBackend>,
    pub(crate) stats: Stats,
}

impl ExtPool {
    pub(crate) fn new(backend: Box<dyn PoolBackend>) -> ExtPool {
        let direct = backend
            .map_ref()
            .filter(|view| !view.is_pinned() && !view.is_empty())
            .map(|view| DirectMap {
                base: view.addr(0, view.len()),
                len: view.len(),
            });
        // An unpinned view is valid for as long as the backend could be
        // borrowed (the `MapRef::new` contract), i.e. until the box is
        // dropped — and the box is owned by this struct and never replaced,
        // so the pointer taken above is valid whenever `&self` exists.
        ExtPool {
            direct,
            backend,
            stats: Stats::default(),
        }
    }

    #[inline]
    pub(crate) fn load_u64(&self, off: u32) -> u64 {
        self.stats.add(Counter::Loads, 1);
        match &self.direct {
            Some(map) => map.word(off).load(Ordering::Acquire),
            None => self.backend.load_u64(off),
        }
    }

    #[inline]
    pub(crate) fn store_u64(&self, off: u32, val: u64) {
        self.stats.add(Counter::Stores, 1);
        match &self.direct {
            Some(map) => map.word(off).store(val, Ordering::Release),
            None => self.backend.store_u64(off, val),
        }
    }

    #[inline]
    pub(crate) fn cas_u64(&self, off: u32, current: u64, new: u64) -> Result<u64, u64> {
        self.stats.add(Counter::CasOps, 1);
        match &self.direct {
            Some(map) => {
                map.word(off)
                    .compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
            }
            None => self.backend.cas_u64(off, current, new),
        }
    }

    #[inline]
    pub(crate) fn fetch_add_u64(&self, off: u32, val: u64) -> u64 {
        self.stats.add(Counter::CasOps, 1);
        match &self.direct {
            Some(map) => map.word(off).fetch_add(val, Ordering::AcqRel),
            None => self.backend.fetch_add_u64(off, val),
        }
    }

    #[inline]
    pub(crate) fn swap_u64(&self, off: u32, val: u64) -> u64 {
        self.stats.add(Counter::CasOps, 1);
        match &self.direct {
            Some(map) => map.word(off).swap(val, Ordering::AcqRel),
            None => self.backend.swap_u64(off, val),
        }
    }
}
