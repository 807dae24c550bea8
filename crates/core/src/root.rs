//! Fixed locations of the queue's persistent roots inside the pool.
//!
//! A recovery procedure starts from nothing but the pool, so the global
//! persistent state of the queue — or offsets leading to it — lives at fixed
//! offsets inside the pool's queue-root block
//! ([`pmem::layout::QUEUE_ROOT`]). Head and tail live on separate cache
//! lines, as in the paper's implementation, to avoid false sharing.
//!
//! The rule covers the volatile heads and tails too. OptUnlinkedQ,
//! OptLinkedQ and the volatile MSQ keep theirs in the queue struct, not in
//! the pool, and wrap each in [`obs::rows::CachePadded`]. Otherwise a
//! dequeuer's head CAS would invalidate the enqueuer's tail, and the
//! opt-to-DurableMSQ ratio would charge that false sharing to one side.
//! Each of the three has a `head_and_tail_sit_on_their_own_cache_lines`
//! test.

use crate::RecoverableQueue;
use pmem::layout::{CACHE_LINE, QUEUE_ROOT};
use pmem::{PmemPool, MAX_THREADS};

/// Pool root slot holding the [`RecoverableQueue::TAG`] of the algorithm
/// that created the pool, little-endian; `0` in an untagged pool, such as
/// one written before tags existed. (Slot 7 is lease's ack cursor.)
pub const TAG_ROOT_SLOT: usize = 6;

/// Records `Q`'s tag in a fresh pool: the first thing every
/// [`RecoverableQueue::create`] in the workspace does.
pub fn record_tag<Q: RecoverableQueue>(pool: &PmemPool) {
    pool.set_root_u64(TAG_ROOT_SLOT, u64::from_le_bytes(Q::TAG));
}

/// Checks the tag a pool recorded at creation (root slot
/// [`TAG_ROOT_SLOT`]) against `Q`'s. An untagged pool, or a `Q` without a
/// tag, passes; a mismatch is described naming both algorithms.
pub fn check_tag<Q: RecoverableQueue>(recorded: u64) -> Result<(), String> {
    let expected = u64::from_le_bytes(Q::TAG);
    if recorded == 0 || expected == 0 || recorded == expected {
        return Ok(());
    }
    let name = |tag: u64| String::from_utf8_lossy(&tag.to_le_bytes()).replace('\0', "");
    Err(format!(
        "the pool was created by {}, not {} (algorithm tag in root slot {TAG_ROOT_SLOT})",
        name(recorded),
        name(expected)
    ))
}

/// Offset of the queue head word (one cache line).
pub const ROOT_HEAD: u32 = QUEUE_ROOT;

/// Offset of the queue tail word (one cache line).
pub const ROOT_TAIL: u32 = QUEUE_ROOT + CACHE_LINE as u32;

/// Offset of the metadata line.
pub const ROOT_META: u32 = QUEUE_ROOT + 2 * CACHE_LINE as u32;

/// Metadata word: pool offset of the per-thread persistent local-data array.
pub const META_LOCALDATA: u32 = ROOT_META;

/// Metadata word: stride in bytes of one thread's local-data record.
pub const META_LOCALDATA_STRIDE: u32 = ROOT_META + 8;

/// Allocates (from pool raw space) and durably publishes a per-thread
/// persistent local-data array of `stride` bytes per thread, recording its
/// offset and stride in the root metadata line. Returns the array's offset.
///
/// The array comes from [`PmemPool::alloc_zeroed`], so recovery can rely on
/// never-written records reading as zero: free on a pool that vouches for
/// its never-allocated space (simulated, or a file pool created in this
/// session), zeroed, flushed and fenced on one that does not (a reopened
/// file pool).
pub fn create_local_data(pool: &PmemPool, stride: u32) -> u32 {
    assert_eq!(stride % CACHE_LINE as u32, 0);
    let len = stride * MAX_THREADS as u32;
    let off = pool.alloc_zeroed(0, len, CACHE_LINE as u32);
    pool.store_u64(META_LOCALDATA, off as u64);
    pool.store_u64(META_LOCALDATA_STRIDE, stride as u64);
    pool.flush(0, ROOT_META);
    pool.sfence(0);
    off
}

/// Reads back the local-data array location published by
/// [`create_local_data`]. Returns `(offset, stride)`.
pub fn read_local_data(pool: &PmemPool) -> (u32, u32) {
    (
        pool.load_u64(META_LOCALDATA) as u32,
        pool.load_u64(META_LOCALDATA_STRIDE) as u32,
    )
}

/// Offset of thread `tid`'s record within the local-data array at
/// `(base, stride)`.
#[inline]
pub fn local_data_slot(base: u32, stride: u32, tid: usize) -> u32 {
    base + stride * tid as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{PmemPool, PoolConfig};

    #[test]
    fn root_lines_are_distinct() {
        assert_ne!(ROOT_HEAD / 64, ROOT_TAIL / 64);
        assert_ne!(ROOT_TAIL / 64, ROOT_META / 64);
    }

    #[test]
    fn a_tag_check_passes_untagged_pools_and_names_both_algorithms() {
        use crate::{DurableMsQueue, OptUnlinkedQueue};
        let own = u64::from_le_bytes(OptUnlinkedQueue::TAG);
        assert_eq!(check_tag::<OptUnlinkedQueue>(own), Ok(()));
        assert_eq!(check_tag::<OptUnlinkedQueue>(0), Ok(()), "untagged");
        let err = check_tag::<DurableMsQueue>(own).unwrap_err();
        assert!(err.contains("OptUnlQ") && err.contains("DurMSQ"), "{err}");
    }

    #[test]
    fn local_data_roundtrip_survives_crash() {
        let pool = PmemPool::new(PoolConfig::small_test());
        let off = create_local_data(&pool, 128);
        let recovered = pool.simulate_crash();
        let (r_off, r_stride) = read_local_data(&recovered);
        assert_eq!(r_off, off);
        assert_eq!(r_stride, 128);
        // Zeroed content is durable.
        assert_eq!(recovered.load_u64(local_data_slot(r_off, r_stride, 5)), 0);
        assert_eq!(local_data_slot(r_off, r_stride, 2), off + 256);
    }
}
