//! Epoch-based reclamation.
//!
//! A minimal, allocation-free implementation of the classic three-epoch
//! scheme: threads announce the global epoch when they begin an operation
//! ("pin") and clear the announcement when they finish ("unpin"); a retired
//! object may be reused once the global epoch has advanced by two past the
//! epoch in which it was retired, because by then every operation that could
//! have observed it has completed.
//!
//! The manager is shared by the persistent allocator ([`crate::Ssmem`]) and
//! by the volatile-node allocator of the Opt queues, so that a single
//! pin/unpin per queue operation protects both kinds of nodes.

use obs::rows::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// See the [module documentation](self).
pub struct EpochManager {
    global: CachePadded<AtomicU64>,
    /// Per-thread announcement: `0` when not pinned, otherwise
    /// `(epoch << 1) | 1`.
    slots: Box<[CachePadded<AtomicU64>]>,
}

impl EpochManager {
    /// Creates a manager for up to `max_threads` threads.
    pub fn new(max_threads: usize) -> Self {
        EpochManager {
            global: CachePadded::new(AtomicU64::new(2)),
            slots: (0..max_threads)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// The number of thread slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The current global epoch.
    #[inline]
    pub fn current(&self) -> u64 {
        self.global.load(Ordering::Acquire)
    }

    /// Announces that thread `tid` is starting an operation that may hold
    /// references to shared nodes.
    #[inline]
    pub fn pin(&self, tid: usize) {
        loop {
            let e = self.global.load(Ordering::SeqCst);
            self.slots[tid].store((e << 1) | 1, Ordering::SeqCst);
            // Re-check: if the global epoch moved between the load and the
            // announcement, re-announce so we are never registered in an
            // epoch older than the one we actually observed shared state in.
            if self.global.load(Ordering::SeqCst) == e {
                return;
            }
        }
    }

    /// Announces that thread `tid` finished its operation and holds no more
    /// references to shared nodes.
    #[inline]
    pub fn unpin(&self, tid: usize) {
        self.slots[tid].store(0, Ordering::Release);
    }

    /// Returns `true` if thread `tid` is currently pinned.
    pub fn is_pinned(&self, tid: usize) -> bool {
        self.slots[tid].load(Ordering::Acquire) & 1 == 1
    }

    /// Attempts to advance the global epoch. The epoch advances only if every
    /// pinned thread has announced the current epoch; returns the (possibly
    /// new) global epoch.
    pub fn try_advance(&self) -> u64 {
        let e = self.global.load(Ordering::SeqCst);
        for slot in self.slots.iter() {
            let s = slot.load(Ordering::SeqCst);
            if s & 1 == 1 && (s >> 1) != e {
                return e;
            }
        }
        let _ = self
            .global
            .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst);
        self.global.load(Ordering::SeqCst)
    }

    /// Returns `true` if an object retired in `retire_epoch` may be reused:
    /// the global epoch has advanced at least two epochs past it.
    #[inline]
    pub fn is_safe_to_reuse(&self, retire_epoch: u64) -> bool {
        self.current() >= retire_epoch + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn pin_unpin_toggles_state() {
        let e = EpochManager::new(4);
        assert!(!e.is_pinned(0));
        e.pin(0);
        assert!(e.is_pinned(0));
        e.unpin(0);
        assert!(!e.is_pinned(0));
    }

    #[test]
    fn epoch_advances_when_no_thread_is_pinned() {
        let e = EpochManager::new(4);
        let start = e.current();
        e.try_advance();
        e.try_advance();
        assert_eq!(e.current(), start + 2);
    }

    #[test]
    fn pinned_thread_in_old_epoch_blocks_advancement() {
        let e = EpochManager::new(4);
        e.pin(1); // announces current epoch
        let start = e.current();
        // Thread 1 is pinned in `start`, so the epoch can advance at most
        // once before being blocked by its stale announcement.
        e.try_advance();
        let after_one = e.current();
        e.try_advance();
        e.try_advance();
        assert!(e.current() <= start + 1);
        assert_eq!(e.current(), after_one);
        e.unpin(1);
        e.try_advance();
        e.try_advance();
        assert!(e.current() >= start + 2);
    }

    #[test]
    fn reuse_requires_two_epochs() {
        let e = EpochManager::new(2);
        let retire_epoch = e.current();
        assert!(!e.is_safe_to_reuse(retire_epoch));
        e.try_advance();
        assert!(!e.is_safe_to_reuse(retire_epoch));
        e.try_advance();
        assert!(e.is_safe_to_reuse(retire_epoch));
    }

    #[test]
    fn concurrent_pin_unpin_and_advance() {
        let e = Arc::new(EpochManager::new(8));
        let mut handles = Vec::new();
        for tid in 0..4 {
            let e = Arc::clone(&e);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    e.pin(tid);
                    std::hint::black_box(e.current());
                    e.unpin(tid);
                    e.try_advance();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // All threads unpinned: the epoch must be able to advance.
        let before = e.current();
        e.try_advance();
        assert!(e.current() >= before);
    }
}
