//! The process-wide thread → slot lease.
//!
//! Two things in the workspace want "a small index that belongs to the
//! calling thread alone": a pool's per-thread [statistics rows](crate::stats)
//! and the `store` file pool's mapping hazard slots. Both use this one
//! lease. A thread acquires its slot the first time it asks and keeps it
//! until it exits; exited threads' slots are recycled through a free list,
//! so a long-lived process that churns threads never runs out. The same
//! index is valid on every pool (each pool has its own arrays), which keeps
//! the lease a single thread-local.
//!
//! Exclusivity is the whole contract: between a thread's first
//! [`thread_slot`] call and its exit, no other thread is handed the same
//! index. Hand-over between successive holders goes through the free-list
//! mutex, which orders the old holder's last access before the new
//! holder's first. That is what lets a slot's holder update per-slot state
//! with plain loads and stores.
//!
//! A thread can end up with no slot: when more than [`THREAD_SLOTS`]
//! threads hold one at the same time, or when the lease's thread-local has
//! already been destroyed (a pool touched from another thread-local's
//! destructor during thread exit). [`thread_slot`] then returns `None` and
//! the caller falls back to whatever shared path it has.

use crate::layout::MAX_THREADS;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Number of leasable slots. More than the pool's [`MAX_THREADS`] worker
/// tids because any thread (not just workers with a tid) may touch a pool.
pub const THREAD_SLOTS: usize = 4 * MAX_THREADS;

/// A thread's leased slot. See the [module docs](self).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadSlot {
    /// The slot index, `< `[`THREAD_SLOTS`], exclusive to the calling
    /// thread until it exits.
    pub index: usize,
    /// A process-unique id of this acquisition. A recycled index comes back
    /// with a new tenure, which is how per-slot state left behind by a dead
    /// holder is told from the current holder's own.
    pub tenure: u64,
}

/// `CACHED` index before the thread first asks for a slot.
const UNLEASED: usize = usize::MAX;
/// `CACHED` index once the thread is known to have no slot.
const NO_SLOT: usize = usize::MAX - 1;

static NEXT: AtomicUsize = AtomicUsize::new(0);
static TENURE: AtomicU64 = AtomicU64::new(1);
static FREE: Mutex<Vec<usize>> = Mutex::new(Vec::new());

fn free_list() -> MutexGuard<'static, Vec<usize>> {
    // A push or pop leaves the list valid at every step, so a poisoned
    // lock (a holder cannot panic, but be safe) is simply recovered.
    FREE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Owns the slot for the thread's lifetime; its destructor recycles it.
struct Lease(Option<usize>);

impl Lease {
    fn acquire() -> Lease {
        let recycled = free_list().pop();
        let index = recycled.or_else(|| {
            NEXT.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < THREAD_SLOTS).then_some(n + 1)
            })
            .ok()
        });
        CACHED.set(match index {
            Some(index) => (index, TENURE.fetch_add(1, Ordering::Relaxed)),
            None => (NO_SLOT, 0),
        });
        Lease(index)
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        // Stop this thread using the slot before anyone else can get it:
        // destructors of other thread-locals may still touch pools.
        CACHED.set((NO_SLOT, 0));
        if let Some(index) = self.0 {
            free_list().push(index);
        }
    }
}

thread_local! {
    /// `(index, tenure)` of this thread's slot, or a sentinel index. Has no
    /// destructor and a constant initialiser, so reading it is one
    /// thread-pointer-relative load and it stays readable while the
    /// thread's other thread-locals are being destroyed.
    static CACHED: Cell<(usize, u64)> = const { Cell::new((UNLEASED, 0)) };
    static LEASE: Lease = Lease::acquire();
}

/// The calling thread's slot, acquired on first use; `None` when the thread
/// has none (see the [module docs](self)).
#[inline]
pub fn thread_slot() -> Option<ThreadSlot> {
    let (index, tenure) = CACHED.get();
    if index < THREAD_SLOTS {
        Some(ThreadSlot { index, tenure })
    } else if index == UNLEASED {
        acquire()
    } else {
        None
    }
}

#[cold]
fn acquire() -> Option<ThreadSlot> {
    // The initialiser fills CACHED. An error means the lease was destroyed
    // before it was ever used: thread exit is under way, so no slot.
    if LEASE.try_with(|_| ()).is_err() {
        CACHED.set((NO_SLOT, 0));
    }
    let (index, tenure) = CACHED.get();
    (index < THREAD_SLOTS).then_some(ThreadSlot { index, tenure })
}

/// The cached slot index, or a value `>= THREAD_SLOTS` when there is none
/// *or none yet*: the one-load fast path for [`crate::stats`], which sends
/// every out-of-range value through [`thread_slot`].
#[inline]
pub(crate) fn cached_index() -> usize {
    CACHED.get().0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::{Arc, Barrier};

    #[test]
    fn a_thread_keeps_one_slot_and_live_threads_never_share() {
        const THREADS: usize = 8;
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let first = thread_slot().expect("slots are not exhausted");
                    assert_eq!(thread_slot(), Some(first), "stable within a thread");
                    assert_eq!(cached_index(), first.index);
                    // Hold the slot until every thread has taken one.
                    barrier.wait();
                    first
                })
            })
            .collect();
        let slots: Vec<ThreadSlot> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let indices: HashSet<usize> = slots.iter().map(|s| s.index).collect();
        let tenures: HashSet<u64> = slots.iter().map(|s| s.tenure).collect();
        assert_eq!(indices.len(), THREADS, "live threads never share a slot");
        assert_eq!(
            tenures.len(),
            THREADS,
            "every acquisition has its own tenure"
        );
    }

    #[test]
    fn churned_threads_recycle_slots_instead_of_exhausting_them() {
        // Far more sequential threads than there are slots: each exit
        // returns its index to the free list.
        for _ in 0..2 * THREAD_SLOTS {
            let slot = std::thread::spawn(thread_slot).join().unwrap();
            assert!(slot.is_some_and(|s| s.index < THREAD_SLOTS));
        }
    }
}
