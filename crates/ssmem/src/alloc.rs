//! The per-thread durable allocator.

use crate::dir::{self, AreaInfo};
use crate::epoch::EpochManager;
use obs::rows::CachePadded;
use pmem::{PRef, PmemPool};
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

/// Configuration of a [`Ssmem`] allocator.
#[derive(Clone, Copy, Debug)]
pub struct SsmemConfig {
    /// Size of every object in bytes. Must be a non-zero multiple of the
    /// cache-line size so that no two objects share a cache line (required by
    /// Assumption 1 and by the false-sharing discipline of the paper).
    pub obj_size: u32,
    /// Size of a designated area in bytes.
    pub area_size: u32,
    /// Maximum number of threads.
    pub max_threads: usize,
}

impl SsmemConfig {
    /// 64-byte objects, 256 KiB areas — suitable for tests.
    pub fn small(max_threads: usize) -> Self {
        SsmemConfig {
            obj_size: 64,
            area_size: 256 * 1024,
            max_threads,
        }
    }

    /// 64-byte objects, 4 MiB areas — suitable for benchmarks.
    pub fn bench(max_threads: usize) -> Self {
        SsmemConfig {
            obj_size: 64,
            area_size: 4 * 1024 * 1024,
            max_threads,
        }
    }

    fn objects_per_area(&self) -> u32 {
        self.area_size / self.obj_size
    }
}

/// Per-thread allocator state. Only the owning thread touches it (same
/// single-owner discipline as the paper's per-thread allocators).
struct PerThread {
    bump: u32,
    area_end: u32,
    free: Vec<PRef>,
    limbo: VecDeque<(u64, PRef)>,
    retires_since_advance: u32,
    /// Per thread, the slots borrowed from its spare list and not yet given
    /// back.
    owed: Box<[usize]>,
}

impl PerThread {
    fn new(max_threads: usize) -> Self {
        PerThread {
            bump: 0,
            area_end: 0,
            free: Vec::new(),
            limbo: VecDeque::new(),
            retires_since_advance: 0,
            owed: vec![0; max_threads].into_boxed_slice(),
        }
    }
}

struct PerThreadCell(UnsafeCell<PerThread>);

// SAFETY: each cell is only accessed by the thread owning the corresponding
// tid (documented contract of every method taking `tid`).
unsafe impl Sync for PerThreadCell {}

/// The durable epoch-based allocator. See the [crate documentation](crate).
///
/// One `Ssmem` instance manages the object heap of one pool (it owns the
/// pool's persistent area directory).
pub struct Ssmem {
    pool: Arc<PmemPool>,
    config: SsmemConfig,
    epoch: Arc<EpochManager>,
    per_thread: Box<[CachePadded<PerThreadCell>]>,
    next_dir_slot: AtomicU32,
    /// Per thread, the slots it set aside: the oldest end of its free list,
    /// once that grew past `2 * LOCAL_FREE`. An empty free list takes its
    /// own back; another thread's only while borrowing (`STALLED_LIMBO`).
    spare: Box<[CachePadded<Mutex<Vec<PRef>>>]>,
    /// The length of all spare lists together, changed under their locks,
    /// so that a free list bumping through a fresh area takes no lock.
    spared: AtomicUsize,
    /// When `false`, the allocator manages *volatile* objects: areas are not
    /// zero-persisted and not published in the persistent directory, so the
    /// recovery procedures never scan them. Used for the `Volatile` halves of
    /// the split nodes of OptUnlinkedQ/OptLinkedQ.
    durable: bool,
}

/// How many retires between attempts to advance the global epoch.
const ADVANCE_PERIOD: u32 = 64;

/// Slots a thread keeps on its own free list. Past twice this many, the
/// oldest go to its spare list, and an empty free list takes up to this
/// many back.
const LOCAL_FREE: usize = 256;

/// Retired slots a thread holds that the epoch does not yet let it reuse,
/// past which it moves the epoch on or borrows another thread's spare
/// slots before it carves.
///
/// Without a stall a thread holds a few epochs' worth of retires, a few
/// hundred at most. A thread preempted inside an operation holds the epoch
/// back for as long as it is off the processor, and no retired slot comes
/// back to the threads still running: in a few milliseconds one of them
/// retires thousands. Its own slots spent, it would carve areas that nobody
/// needs once the stalled thread resumes; it borrows that thread's spare
/// slots instead and gives as many back to that thread's spare list once
/// its own come back. The one-thread and stall-free paths never get here,
/// so they carve exactly what per-thread free lists carve.
const STALLED_LIMBO: usize = 4 * LOCAL_FREE;

impl Ssmem {
    /// Creates a fresh allocator on a fresh pool.
    pub fn new(pool: Arc<PmemPool>, config: SsmemConfig) -> Self {
        Self::build(pool, config, 0, true)
    }

    /// Creates an allocator for **volatile** objects that merely live inside
    /// the pool's address space: its areas are not recorded in the persistent
    /// directory and are not zero-persisted, so they are invisible to
    /// recovery. It shares the given epoch manager so that one pin/unpin per
    /// operation protects persistent and volatile nodes alike.
    pub fn new_volatile(
        pool: Arc<PmemPool>,
        config: SsmemConfig,
        epoch: Arc<EpochManager>,
    ) -> Self {
        let mut s = Self::build(pool, config, 0, false);
        s.epoch = epoch;
        s
    }

    /// Re-creates the allocator after a crash: re-reads the persistent area
    /// directory so that already-carved areas are known and never re-carved.
    /// Free lists start empty; the data structure's recovery procedure
    /// returns dead object slots with [`free_immediate`](Self::free_immediate).
    pub fn recover(pool: Arc<PmemPool>, config: SsmemConfig) -> Self {
        let entries = dir::read_all(&pool);
        let next_slot = entries.iter().map(|(s, _)| s + 1).max().unwrap_or(0);
        let max_end = entries
            .iter()
            .map(|(_, a)| a.offset + a.len())
            .max()
            .unwrap_or(0);
        pool.set_watermark(max_end);
        Self::build(pool, config, next_slot, true)
    }

    fn build(pool: Arc<PmemPool>, config: SsmemConfig, next_slot: u32, durable: bool) -> Self {
        assert!(
            config.obj_size > 0 && config.obj_size.is_multiple_of(64),
            "obj_size must be a multiple of 64"
        );
        assert!(
            config.area_size >= config.obj_size,
            "area_size must hold at least one object"
        );
        assert!(config.max_threads <= pmem::MAX_THREADS);
        let per_thread = (0..config.max_threads)
            .map(|_| {
                CachePadded::new(PerThreadCell(UnsafeCell::new(PerThread::new(
                    config.max_threads,
                ))))
            })
            .collect();
        Ssmem {
            pool,
            config,
            epoch: Arc::new(EpochManager::new(config.max_threads)),
            per_thread,
            next_dir_slot: AtomicU32::new(next_slot),
            spare: (0..config.max_threads)
                .map(|_| CachePadded::new(Mutex::new(Vec::new())))
                .collect(),
            spared: AtomicUsize::new(0),
            durable,
        }
    }

    /// The underlying pool.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// The allocator configuration.
    pub fn config(&self) -> &SsmemConfig {
        &self.config
    }

    /// The epoch manager, shared so that volatile-node allocators (used by
    /// the Opt queues) can participate in the same reclamation epochs.
    pub fn epoch(&self) -> &Arc<EpochManager> {
        &self.epoch
    }

    /// Announces the start of an operation by thread `tid` (protects every
    /// node the operation may read from being reused).
    pub fn pin(&self, tid: usize) {
        self.epoch.pin(tid);
    }

    /// Announces the end of an operation by thread `tid`.
    pub fn unpin(&self, tid: usize) {
        self.epoch.unpin(tid);
    }

    fn with_per_thread<R>(&self, tid: usize, f: impl FnOnce(&mut PerThread) -> R) -> R {
        // SAFETY: single-owner contract — only the thread owning `tid` calls
        // allocator methods with this tid. The mutable borrow is confined to
        // this call, so it cannot alias another borrow for the same tid.
        f(unsafe { &mut *self.per_thread[tid].0.get() })
    }

    /// Allocates one object slot for thread `tid`.
    ///
    /// Slots taken from a freshly carved area are persistently zeroed: the
    /// area comes from [`PmemPool::alloc_zeroed`] before its directory entry
    /// is published, so it reads zero now and after any crash — for free
    /// where the pool vouches for its never-allocated space (a simulated
    /// pool, a file pool created in this session), zeroed, flushed and
    /// fenced once where it does not (a reopened file pool). Slots recycled
    /// from the free list keep whatever content their previous user left; the queues rely on their own discipline
    /// (piggybacked flag clearing, head-index comparison) for those, exactly
    /// as in the paper.
    pub fn alloc(&self, tid: usize) -> PRef {
        let obj = self.with_per_thread(tid, |inner| {
            self.collect(tid, inner);
            if let Some(p) = inner.free.pop() {
                return p;
            }
            let exhausted =
                inner.bump + self.config.obj_size > inner.area_end || inner.area_end == 0;
            // Before the pool grows, the spare list is read under its lock
            // even if `spared` read zero a moment ago.
            if exhausted || self.spared.load(Ordering::Acquire) != 0 {
                if let Some(p) = self.take_spare(tid, inner) {
                    return p;
                }
            }
            if exhausted {
                if inner.limbo.len() >= STALLED_LIMBO {
                    if let Some(p) = self.unstall(tid, inner) {
                        return p;
                    }
                }
                self.new_area(tid, inner);
            }
            let off = inner.bump;
            inner.bump += self.config.obj_size;
            PRef::from_offset(off)
        });
        // A slot handed to a new object starts its life "in cache": its
        // previous life's flush must not be billed to the new object's first
        // access (see `PmemPool::mark_line_cached`).
        let mut line_off = obj.offset();
        while line_off < obj.offset() + self.config.obj_size {
            self.pool.mark_line_cached(line_off);
            line_off += 64;
        }
        obj
    }

    /// Retires an object: it will be reused only after every thread has
    /// passed through a quiescent state (two epoch advancements).
    pub fn retire(&self, tid: usize, obj: PRef) {
        debug_assert!(!obj.is_null());
        let should_advance = self.with_per_thread(tid, |inner| {
            inner.limbo.push_back((self.epoch.current(), obj));
            inner.retires_since_advance += 1;
            if inner.retires_since_advance >= ADVANCE_PERIOD {
                inner.retires_since_advance = 0;
                true
            } else {
                false
            }
        });
        if should_advance {
            self.epoch.try_advance();
        }
    }

    /// Returns an object directly to thread `tid`'s free list, bypassing the
    /// epoch scheme. Only safe when no other thread can hold a reference —
    /// i.e. during single-threaded recovery, which is its only caller.
    pub fn free_immediate(&self, tid: usize, obj: PRef) {
        debug_assert!(!obj.is_null());
        self.with_per_thread(tid, |inner| inner.free.push(obj));
    }

    /// Number of objects waiting in thread `tid`'s limbo list (retired but
    /// not yet safe to reuse). Exposed for tests.
    pub fn limbo_len(&self, tid: usize) -> usize {
        self.with_per_thread(tid, |inner| inner.limbo.len())
    }

    /// Moves limbo objects whose retirement epoch is old enough to the free
    /// list, and sets aside the oldest end of a list that grew past
    /// `2 * LOCAL_FREE`.
    fn collect(&self, tid: usize, inner: &mut PerThread) {
        while let Some(&(epoch, obj)) = inner.limbo.front() {
            if self.epoch.is_safe_to_reuse(epoch) {
                inner.free.push(obj);
                inner.limbo.pop_front();
            } else {
                break;
            }
        }
        if inner.free.len() > 2 * LOCAL_FREE {
            self.set_aside(tid, inner);
        }
    }

    /// Moves all but `LOCAL_FREE` of `tid`'s free list, the oldest end, to
    /// the spare lists: what it owes to the threads it borrowed from, the
    /// rest to its own.
    #[cold]
    #[inline(never)]
    fn set_aside(&self, tid: usize, inner: &mut PerThread) {
        let mut excess = inner.free.len() - LOCAL_FREE;
        for owner in 0..inner.owed.len() {
            let owed = inner.owed[owner].min(excess);
            if owed == 0 {
                continue;
            }
            // Never wait on another thread's lock: what cannot be given
            // back now is given back at the next set-aside.
            let Some(mut spare) = try_locked(&self.spare[owner]) else {
                continue;
            };
            spare.extend(inner.free.drain(..owed));
            self.spared.fetch_add(owed, Ordering::Release);
            inner.owed[owner] -= owed;
            excess -= owed;
        }
        let mut spare = obs::locked(&self.spare[tid]);
        spare.extend(inner.free.drain(..excess));
        self.spared.fetch_add(excess, Ordering::Release);
    }

    /// Refills `tid`'s empty free list with up to `LOCAL_FREE` of the slots
    /// it set aside last, and pops one. A spare list below its thread's
    /// free list reads as one stack, so a thread is handed its slots in
    /// exactly the order one unbounded free list would hand them out.
    #[inline(never)]
    fn take_spare(&self, tid: usize, inner: &mut PerThread) -> Option<PRef> {
        let mut spare = obs::locked(&self.spare[tid]);
        let keep = spare.len().saturating_sub(LOCAL_FREE);
        inner.free.extend(spare.drain(keep..));
        self.spared.fetch_sub(inner.free.len(), Ordering::Release);
        drop(spare);
        inner.free.pop()
    }

    /// Refills `tid`'s empty free list while it holds `STALLED_LIMBO`
    /// retired slots, and pops one. First the epoch is moved on: the thread
    /// that held it back may be done, and a thread that only allocates
    /// never moves it itself. Failing that, up to `LOCAL_FREE` of another
    /// thread's spare slots are borrowed, leaving that thread `2 *
    /// LOCAL_FREE` to go on with when it resumes; the next call tries the
    /// epoch again.
    #[cold]
    #[inline(never)]
    fn unstall(&self, tid: usize, inner: &mut PerThread) -> Option<PRef> {
        self.epoch.try_advance();
        self.epoch.try_advance();
        self.collect(tid, inner);
        if let Some(p) = inner.free.pop() {
            return Some(p);
        }
        let n = self.spare.len();
        for owner in (1..n).map(|i| (tid + i) % n) {
            let Some(mut spare) = try_locked(&self.spare[owner]) else {
                continue;
            };
            let take = spare.len().saturating_sub(2 * LOCAL_FREE).min(LOCAL_FREE);
            if take == 0 {
                continue;
            }
            let keep = spare.len() - take;
            inner.free.extend(spare.drain(keep..));
            self.spared.fetch_sub(take, Ordering::Release);
            inner.owed[owner] += take;
            break;
        }
        inner.free.pop()
    }

    /// Slots thread `tid` set aside. Exposed for tests.
    pub fn spare_len(&self, tid: usize) -> usize {
        obs::locked(&self.spare[tid]).len()
    }

    /// Carves a new designated area out of the pool for thread `tid` and
    /// publishes it in the persistent directory. A durable area comes from
    /// [`PmemPool::alloc_zeroed`], so it is durable zero before its entry
    /// is; on a pool that vouches for its fresh space that costs nothing,
    /// and the entry's own flush and fence are the whole price.
    fn new_area(&self, tid: usize, inner: &mut PerThread) {
        let num_objects = self.config.objects_per_area();
        let len = num_objects * self.config.obj_size;
        let offset = if self.durable {
            let offset = self.pool.alloc_zeroed(tid, len, 64);
            let slot = self.next_dir_slot.fetch_add(1, Ordering::AcqRel);
            let area = AreaInfo {
                offset,
                obj_size: self.config.obj_size,
                num_objects,
                owner_tid: tid as u32,
            };
            dir::publish_entry(&self.pool, tid, slot, &area);
            offset
        } else {
            self.pool.alloc_raw(len, 64)
        };
        inner.bump = offset;
        inner.area_end = offset + len;
    }

    /// All designated areas recorded in the persistent directory.
    pub fn areas(&self) -> Vec<AreaInfo> {
        dir::read_all(&self.pool)
            .into_iter()
            .map(|(_, a)| a)
            .collect()
    }

    /// Calls `f` for every object slot in every designated area (used by the
    /// recovery procedures to classify slots as live or dead).
    pub fn for_each_object(&self, mut f: impl FnMut(PRef)) {
        for area in self.areas() {
            for obj in area.objects() {
                f(obj);
            }
        }
    }
}

/// `mutex`'s guard if nobody holds it, through poisoning like
/// [`obs::locked`].
fn try_locked<T>(mutex: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match mutex.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PoolConfig;
    use std::collections::HashSet;

    fn setup() -> (Arc<PmemPool>, Ssmem) {
        let pool = Arc::new(PmemPool::new(PoolConfig::small_test()));
        let cfg = SsmemConfig {
            obj_size: 64,
            area_size: 1024, // 16 objects per area: forces multi-area paths
            max_threads: 4,
        };
        let ssmem = Ssmem::new(Arc::clone(&pool), cfg);
        (pool, ssmem)
    }

    #[test]
    fn alloc_returns_distinct_aligned_slots() {
        let (_pool, ssmem) = setup();
        let mut seen = HashSet::new();
        for _ in 0..100 {
            let p = ssmem.alloc(0);
            assert!(!p.is_null());
            assert_eq!(p.offset() % 64, 0);
            assert!(seen.insert(p));
        }
    }

    #[test]
    fn exhausting_an_area_carves_a_new_one() {
        let (_pool, ssmem) = setup();
        for _ in 0..40 {
            ssmem.alloc(0);
        }
        assert!(ssmem.areas().len() >= 2);
    }

    #[test]
    fn distinct_threads_get_distinct_slots() {
        let (_pool, ssmem) = setup();
        let a: Vec<_> = (0..20).map(|_| ssmem.alloc(0)).collect();
        let b: Vec<_> = (0..20).map(|_| ssmem.alloc(1)).collect();
        let all: HashSet<_> = a.iter().chain(b.iter()).collect();
        assert_eq!(all.len(), 40);
    }

    #[test]
    fn fresh_slots_are_persistently_zero() {
        let (pool, ssmem) = setup();
        let p = ssmem.alloc(0);
        for i in 0..8 {
            assert_eq!(pool.load_u64(p.offset() + i * 8), 0);
            assert_eq!(pool.persistent_u64_at(p.offset() + i * 8), 0);
        }
    }

    #[test]
    fn free_immediate_recycles_before_new_slots() {
        let (_pool, ssmem) = setup();
        let p = ssmem.alloc(0);
        ssmem.free_immediate(0, p);
        assert_eq!(ssmem.alloc(0), p);
    }

    #[test]
    fn retired_slot_is_not_reused_while_a_thread_is_pinned_in_an_old_epoch() {
        let (_pool, ssmem) = setup();
        ssmem.pin(1); // thread 1 sits in the current epoch forever
        let p = ssmem.alloc(0);
        ssmem.retire(0, p);
        for _ in 0..10 {
            ssmem.epoch().try_advance();
            let q = ssmem.alloc(0);
            assert_ne!(q, p, "retired slot reused while a stale reader exists");
        }
        assert!(ssmem.limbo_len(0) >= 1);
    }

    #[test]
    fn retired_slot_is_reused_after_epochs_advance() {
        let (_pool, ssmem) = setup();
        let p = ssmem.alloc(0);
        ssmem.retire(0, p);
        ssmem.epoch().try_advance();
        ssmem.epoch().try_advance();
        let allocated: Vec<_> = (0..64).map(|_| ssmem.alloc(0)).collect();
        assert!(allocated.contains(&p), "retired slot never reused");
    }

    /// 64-byte objects in 64 KiB areas: 1 024 slots per area, enough for
    /// free lists past `2 * LOCAL_FREE` without running out of directory.
    fn setup_wide() -> (Arc<PmemPool>, Ssmem) {
        let pool = Arc::new(PmemPool::new(PoolConfig::small_test()));
        let cfg = SsmemConfig {
            obj_size: 64,
            area_size: 64 << 10,
            max_threads: 2,
        };
        let ssmem = Ssmem::new(Arc::clone(&pool), cfg);
        (pool, ssmem)
    }

    /// Allocates and retires `n` slots on `tid` and advances the epoch past
    /// them; returns them in retirement order.
    fn retire_fresh(ssmem: &Ssmem, tid: usize, n: usize) -> Vec<PRef> {
        let slots: Vec<_> = (0..n).map(|_| ssmem.alloc(tid)).collect();
        for &p in &slots {
            ssmem.retire(tid, p);
        }
        ssmem.epoch().try_advance();
        ssmem.epoch().try_advance();
        slots
    }

    #[test]
    fn one_thread_gets_its_slots_back_in_free_list_order_through_the_spare_list() {
        let (_pool, ssmem) = setup_wide();
        let retired = retire_fresh(&ssmem, 0, 4 * LOCAL_FREE);
        let again: Vec<_> = (0..retired.len()).map(|_| ssmem.alloc(0)).collect();
        assert_eq!(ssmem.spare_len(0), 0, "every set-aside slot came back");
        let lifo: Vec<_> = retired.iter().rev().copied().collect();
        assert_eq!(again, lifo, "the last slot retired is the first reused");
    }

    /// Thread 1 retires `4 * LOCAL_FREE` slots and, at its next allocation,
    /// sets aside all but `LOCAL_FREE` of them. Returns them.
    fn thread_1_sets_aside(ssmem: &Ssmem) -> HashSet<PRef> {
        let retired = retire_fresh(ssmem, 1, 4 * LOCAL_FREE).into_iter().collect();
        ssmem.alloc(1);
        assert_eq!(ssmem.spare_len(1), 3 * LOCAL_FREE);
        retired
    }

    #[test]
    fn without_a_stall_a_thread_carves_rather_than_borrow() {
        let (_pool, ssmem) = setup_wide();
        thread_1_sets_aside(&ssmem);
        let areas = ssmem.areas().len();
        let per_area = ssmem.config().objects_per_area() as usize;
        for _ in 0..=per_area {
            ssmem.alloc(0);
        }
        assert_eq!(ssmem.areas().len(), areas + 2);
        assert_eq!(
            ssmem.spare_len(1),
            3 * LOCAL_FREE,
            "thread 1's spares untouched"
        );
    }

    #[test]
    fn a_thread_that_only_allocates_moves_the_epoch_on_before_it_borrows() {
        let (_pool, ssmem) = setup_wide();
        thread_1_sets_aside(&ssmem);
        let per_area = ssmem.config().objects_per_area() as usize;
        // Thread 1 stalls while thread 0 retires a whole area's worth, then
        // finishes its operation; thread 0 goes on allocating only.
        ssmem.pin(1);
        for _ in 0..per_area {
            let p = ssmem.alloc(0);
            ssmem.retire(0, p);
        }
        assert!(ssmem.limbo_len(0) >= STALLED_LIMBO);
        ssmem.unpin(1);
        let areas = ssmem.areas().len();
        ssmem.alloc(0);
        assert_eq!(ssmem.areas().len(), areas, "its own slots came back");
        assert_eq!(ssmem.spare_len(1), 3 * LOCAL_FREE, "nothing borrowed");
    }

    #[test]
    fn a_thread_borrows_a_stalled_threads_spare_slots_and_gives_them_back() {
        let (_pool, ssmem) = setup_wide();
        let theirs = thread_1_sets_aside(&ssmem);
        ssmem.pin(1); // thread 1 stalls inside an operation
        let areas = ssmem.areas().len();
        let per_area = ssmem.config().objects_per_area() as usize;
        // Thread 0 bumps through one area of its own; every slot it retires
        // stays in limbo behind thread 1's pin, so then it borrows all but
        // the `2 * LOCAL_FREE` thread 1 keeps to resume with.
        let mut borrowed = 0;
        for _ in 0..per_area + LOCAL_FREE {
            let p = ssmem.alloc(0);
            borrowed += theirs.contains(&p) as usize;
            ssmem.retire(0, p);
        }
        assert_eq!(
            ssmem.areas().len(),
            areas + 1,
            "one area, then borrowed slots"
        );
        assert_eq!(borrowed, LOCAL_FREE);
        assert_eq!(ssmem.spare_len(1), 2 * LOCAL_FREE);
        ssmem.alloc(0);
        assert_eq!(ssmem.areas().len(), areas + 2, "nothing more to borrow");
        // Thread 1 resumes: thread 0's slots come back, and it gives back
        // what it borrowed.
        ssmem.unpin(1);
        ssmem.epoch().try_advance();
        ssmem.epoch().try_advance();
        ssmem.alloc(0);
        assert_eq!(ssmem.spare_len(1), 3 * LOCAL_FREE);
    }

    #[test]
    fn areas_survive_a_crash_and_recovery_does_not_recarve_them() {
        let (pool, ssmem) = setup();
        for _ in 0..40 {
            ssmem.alloc(0);
        }
        let areas_before = ssmem.areas();
        let recovered_pool = Arc::new(pool.simulate_crash());
        let recovered = Ssmem::recover(Arc::clone(&recovered_pool), *ssmem.config());
        assert_eq!(recovered.areas(), areas_before);
        // New allocations must not overlap any pre-crash area.
        let pre_crash_ranges: Vec<_> = areas_before
            .iter()
            .map(|a| (a.offset, a.offset + a.len()))
            .collect();
        for _ in 0..40 {
            let p = recovered.alloc(0);
            let in_old_area = pre_crash_ranges
                .iter()
                .any(|&(s, e)| p.offset() >= s && p.offset() < e);
            assert!(
                !in_old_area,
                "recovered allocator handed out a slot from an old area without free_immediate"
            );
        }
    }

    #[test]
    fn for_each_object_enumerates_every_slot() {
        let (_pool, ssmem) = setup();
        for _ in 0..20 {
            ssmem.alloc(0);
        }
        let mut count = 0;
        ssmem.for_each_object(|p| {
            assert!(!p.is_null());
            count += 1;
        });
        let expected: u32 = ssmem.areas().iter().map(|a| a.num_objects).sum();
        assert_eq!(count, expected);
        assert!(count >= 20);
    }

    #[test]
    fn concurrent_allocation_yields_unique_slots() {
        let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(4 << 20)));
        let cfg = SsmemConfig {
            obj_size: 64,
            area_size: 4096,
            max_threads: 4,
        };
        let ssmem = Arc::new(Ssmem::new(pool, cfg));
        let mut handles = Vec::new();
        for tid in 0..4 {
            let s = Arc::clone(&ssmem);
            handles.push(std::thread::spawn(move || {
                (0..500).map(|_| s.alloc(tid)).collect::<Vec<_>>()
            }));
        }
        let mut all = HashSet::new();
        for h in handles {
            for p in h.join().unwrap() {
                assert!(all.insert(p), "slot handed out twice");
            }
        }
        assert_eq!(all.len(), 2000);
    }

    /// Carves thread `tid`'s next area and returns its persistence cost as
    /// (flushes, fences), after checking that every word of it reads zero
    /// in both images.
    fn carve(pool: &PmemPool, ssmem: &Ssmem, tid: usize) -> (u64, u64) {
        let before = pool.stats();
        let first = ssmem.alloc(tid).offset();
        let cost = pool.stats() - before;
        for off in (first..first + ssmem.config().area_size).step_by(8) {
            assert_eq!(pool.load_u64(off), 0, "working word at {off}");
            assert_eq!(pool.persistent_u64_at(off), 0, "persistent word at {off}");
        }
        (cost.flushes, cost.fences)
    }

    /// A simulated pool vouches for its fresh space, before a crash and
    /// after one: carving an area costs the directory entry's one flush
    /// and one fence, and the area reads zero.
    #[test]
    fn carving_on_a_fresh_or_recovered_simulated_pool_costs_one_flush_and_one_fence() {
        let (pool, ssmem) = setup();
        assert_eq!(carve(&pool, &ssmem, 0), (1, 1));
        // Dirty 40 slots over three areas under the eviction adversary,
        // half of them persisted explicitly, then crash with every line
        // evicted.
        let pool = Arc::new(PmemPool::new(
            PoolConfig::small_test().with_evictions(1.0, 11),
        ));
        let ssmem = Ssmem::new(Arc::clone(&pool), *ssmem.config());
        for i in 0..40u64 {
            let obj = ssmem.alloc(0).offset();
            pool.store_u64(obj, i + 1);
            if i % 2 == 0 {
                pool.flush(0, obj);
                pool.sfence(0);
            }
        }
        let crashed = Arc::new(pool.simulate_crash_with_evictions(1.0, 5));
        let recovered = Ssmem::recover(Arc::clone(&crashed), *ssmem.config());
        assert_eq!(carve(&crashed, &recovered, 1), (1, 1));
        assert_eq!(carve(&crashed, &recovered, 0), (1, 1));
    }
}

#[cfg(test)]
mod volatile_tests {
    use super::*;
    use pmem::PoolConfig;

    #[test]
    fn volatile_allocator_publishes_no_areas_and_shares_epochs() {
        let pool = Arc::new(PmemPool::new(PoolConfig::small_test()));
        let cfg = SsmemConfig {
            obj_size: 64,
            area_size: 1024,
            max_threads: 2,
        };
        let durable = Ssmem::new(Arc::clone(&pool), cfg);
        let volatile = Ssmem::new_volatile(Arc::clone(&pool), cfg, Arc::clone(durable.epoch()));
        for _ in 0..40 {
            let v = volatile.alloc(0);
            assert!(!v.is_null());
        }
        // Only the durable allocator's areas appear in the directory.
        assert!(volatile.areas().is_empty());
        let _ = durable.alloc(0);
        assert_eq!(durable.areas().len(), 1);
        // The two allocators share one epoch manager.
        assert!(Arc::ptr_eq(durable.epoch(), volatile.epoch()));
    }
}
