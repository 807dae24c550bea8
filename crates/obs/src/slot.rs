//! The process-wide thread → slot lease.
//!
//! The per-thread [counter rows](crate::rows) behind every named counter
//! and every pool's statistics want "a small index that belongs to the
//! calling thread alone", and all of them use this one lease. A thread
//! acquires its slot the first time it asks and keeps it until it exits;
//! an exited thread's slot goes back to the free set, and the lowest free
//! index is always the next one handed out, so a long-lived process that
//! churns threads never runs out and never drifts towards high indices. The
//! same index is valid on every table (each has its own arrays), which
//! keeps the lease a single thread-local.
//!
//! Exclusivity is the whole contract: between a thread's first
//! [`thread_slot`] call and its exit, no other thread is handed the same
//! index. Hand-over between successive holders goes through the free-set
//! mutex, which orders the old holder's last access before the new
//! holder's first. That is what lets a slot's holder update per-slot state
//! with plain loads and stores.
//!
//! A thread can end up with no slot: when more than [`THREAD_SLOTS`]
//! threads hold one at the same time, or when the lease's thread-local has
//! already been destroyed (a counter touched from another thread-local's
//! destructor during thread exit). [`thread_slot`] then returns `None` and
//! the caller falls back to whatever shared path it has.

use crate::locked;
use std::cell::Cell;
use std::sync::Mutex;

/// Number of leasable slots: four times `pmem::MAX_THREADS`, because any
/// thread (not just a pool's workers with a tid) may count.
pub const THREAD_SLOTS: usize = 256;

/// `CACHED` index before the thread first asks for a slot.
const UNLEASED: usize = usize::MAX;
/// `CACHED` index once the thread is known to have no slot.
const NO_SLOT: usize = usize::MAX - 1;

/// Bit `i` of the set is 1 while slot `i` is leased.
static LEASED: Mutex<[u64; THREAD_SLOTS / 64]> = Mutex::new([0; THREAD_SLOTS / 64]);

/// Owns the slot for the thread's lifetime; its destructor recycles it.
struct Lease(Option<usize>);

impl Lease {
    fn acquire() -> Lease {
        // Lowest free index first: the low indices are the ones with a
        // counter row of their own (`rows::OWNED_ROWS`).
        let index = locked(&LEASED)
            .iter_mut()
            .enumerate()
            .find_map(|(w, word)| {
                let bit = (!*word).trailing_zeros() as usize;
                (bit < 64).then(|| {
                    *word |= 1 << bit;
                    w * 64 + bit
                })
            });
        CACHED.set(index.unwrap_or(NO_SLOT));
        Lease(index)
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        // Stop this thread using the slot before anyone else can get it:
        // destructors of other thread-locals may still count.
        CACHED.set(NO_SLOT);
        if let Some(index) = self.0 {
            locked(&LEASED)[index / 64] &= !(1 << (index % 64));
        }
    }
}

thread_local! {
    /// This thread's slot index, or a sentinel. Has no destructor and a
    /// constant initialiser, so reading it is one thread-pointer-relative
    /// load and it stays readable while the thread's other thread-locals
    /// are being destroyed.
    static CACHED: Cell<usize> = const { Cell::new(UNLEASED) };
    static LEASE: Lease = Lease::acquire();
}

/// The calling thread's slot index (`< `[`THREAD_SLOTS`], exclusive to
/// the thread until it exits), acquired on first use; `None` when the
/// thread has none (see the [module docs](self)).
#[inline]
pub fn thread_slot() -> Option<usize> {
    let index = CACHED.get();
    if index < THREAD_SLOTS {
        Some(index)
    } else if index == UNLEASED {
        acquire()
    } else {
        None
    }
}

#[cold]
fn acquire() -> Option<usize> {
    // The initialiser fills CACHED. An error means the lease was destroyed
    // before it was ever used: thread exit is under way, so no slot.
    if LEASE.try_with(|_| ()).is_err() {
        CACHED.set(NO_SLOT);
    }
    let index = CACHED.get();
    (index < THREAD_SLOTS).then_some(index)
}

/// The cached slot index, or a value `>= THREAD_SLOTS` when there is none
/// *or none yet*: the one-load fast path for [`crate::rows`], which sends
/// every out-of-range value through [`thread_slot`].
#[inline]
pub(crate) fn cached_index() -> usize {
    CACHED.get()
}

/// Serialises the tests of this crate that hold more threads alive at once
/// than there are owned rows: two such bursts side by side would push every
/// later lease past the rows whatever the hand-out order.
#[cfg(test)]
pub(crate) fn burst_lock() -> std::sync::MutexGuard<'static, ()> {
    static BURST: Mutex<()> = Mutex::new(());
    locked(&BURST)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::{mpsc, Arc, Barrier};

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
                    assert_eq!(cached_index(), first);
                    // Hold the slot until every thread has taken one.
                    barrier.wait();
                    first
                })
            })
            .collect();
        let indices: HashSet<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(indices.len(), THREADS, "live threads never share a slot");
    }

    #[test]
    fn churned_threads_recycle_slots_instead_of_exhausting_them() {
        // Far more sequential threads than there are slots: each exit
        // returns its index to the free set.
        for _ in 0..2 * THREAD_SLOTS {
            let slot = std::thread::spawn(thread_slot).join().unwrap();
            assert!(slot.is_some_and(|index| index < THREAD_SLOTS));
        }
    }

    /// A burst of threads must not strand the threads that come after it on
    /// high indices: 72 threads hold a slot at once and exit in ascending
    /// index order, so a last-in-first-out free list would hand the next
    /// threads 71, 70, 69, 68 while the low indices sit free.
    #[test]
    fn the_lowest_free_slot_is_handed_out_first() {
        const BURST: usize = crate::rows::OWNED_ROWS + 8;
        let _alone = burst_lock();
        let (report, leased) = mpsc::channel();
        let mut threads: Vec<_> = (0..BURST)
            .map(|_| {
                let report = report.clone();
                let (release, released) = mpsc::channel::<()>();
                let handle = std::thread::spawn(move || {
                    let slot = thread_slot().expect("slots are not exhausted");
                    report.send(slot).unwrap();
                    released.recv().unwrap();
                });
                (leased.recv().unwrap(), release, handle)
            })
            .collect();
        threads.sort_by_key(|(index, ..)| *index);
        assert!(threads[BURST - 1].0 >= BURST - 1, "all were alive at once");
        for (_, release, handle) in threads {
            release.send(()).unwrap();
            handle.join().unwrap();
        }
        for _ in 0..4 {
            let slot = std::thread::spawn(thread_slot).join().unwrap().unwrap();
            assert!(
                slot < crate::rows::OWNED_ROWS,
                "slot {slot} has no row of its own while lower ones are free"
            );
        }
    }
}
