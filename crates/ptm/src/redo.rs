//! A redo-log persistent transactional memory.
//!
//! This is the substitution substrate for the paper's PTM baselines (see
//! docs/ARCHITECTURE.md's crate table): `OneFileQ` and `RedoOptQ` in the paper wrap a sequential
//! queue in the OneFile wait-free PTM and the RedoOpt universal construction
//! respectively. Re-implementing those systems in full is out of scope for a
//! queue reproduction; what the comparison needs is their *cost model* — a
//! transaction must make its write set durable in a redo log before applying
//! it, which adds logging flushes, fences and post-flush accesses to every
//! queue operation. This module provides exactly that, with two flush
//! policies:
//!
//! * [`FlushPolicy::EagerPerWord`] (`OneFileLite`): every log entry is
//!   flushed and fenced as it is written, modelling eager per-store
//!   persistence.
//! * [`FlushPolicy::BatchedCommit`] (`RedoOptLite`): log entries are flushed
//!   together and a single fence precedes the commit record, modelling the
//!   optimised redo designs.
//!
//! Transactions are serialised by a global lock, which departs from
//! OneFile's wait-freedom; the paper's observation that PTM-wrapped queues
//! trail the ad-hoc durable queues is about per-operation persistence
//! overhead, which this engine reproduces faithfully.
//!
//! ## Commit protocol
//!
//! 1. The transaction buffers its writes (redo semantics: reads consult the
//!    write set first).
//! 2. Commit writes the (offset, value) pairs to the persistent log region
//!    and persists them (policy-dependent).
//! 3. The log *status word* is set to the number of entries and persisted —
//!    this is the commit point.
//! 4. The writes are applied in place, persisted, and the status word is
//!    cleared and persisted.
//!
//! Recovery replays a committed log (status word non-zero) or discards an
//! uncommitted one, then clears it.

use pmem::layout::QUEUE_ROOT;
use pmem::PmemPool;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// How the redo log is persisted at commit time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Flush + fence after every log entry (`OneFileLite`).
    EagerPerWord,
    /// Flush all entries, then one fence before the commit record
    /// (`RedoOptLite`).
    BatchedCommit,
}

/// Root-block offsets owned by the PTM engine (they do not collide with the
/// head/tail/meta lines used by the ad-hoc queues, but a pool hosts either a
/// PTM queue or an ad-hoc queue, never both).
const ROOT_LOG_STATUS: u32 = QUEUE_ROOT + 6 * 64;
const ROOT_LOG_AREA: u32 = QUEUE_ROOT + 7 * 64;

/// Maximum number of (offset, value) entries a single transaction may write.
pub const MAX_TX_WRITES: usize = 64;

/// The redo-log PTM engine. See the [module docs](self).
pub struct Ptm {
    pool: Arc<PmemPool>,
    policy: FlushPolicy,
    /// Global writer lock serialising transactions.
    lock: Mutex<()>,
    /// Pool offset of the log entry area.
    log_area: u32,
}

impl Ptm {
    /// Creates a fresh engine on a fresh pool, allocating and publishing its
    /// persistent log area.
    pub fn new(pool: Arc<PmemPool>, policy: FlushPolicy) -> Self {
        let log_area = pool.alloc_zeroed(0, (MAX_TX_WRITES as u32) * 16, 64);
        pool.store_u64(ROOT_LOG_STATUS, 0);
        pool.store_u64(ROOT_LOG_AREA, log_area as u64);
        pool.flush(0, ROOT_LOG_STATUS);
        pool.flush(0, ROOT_LOG_AREA);
        pool.sfence(0);
        Ptm {
            pool,
            policy,
            lock: Mutex::new(()),
            log_area,
        }
    }

    /// Re-creates the engine after a crash: replays a committed log, discards
    /// an uncommitted one.
    pub fn recover(pool: Arc<PmemPool>, policy: FlushPolicy) -> Self {
        let log_area = pool.load_u64(ROOT_LOG_AREA) as u32;
        let committed = pool.load_u64(ROOT_LOG_STATUS);
        if committed > 0 {
            for i in 0..committed.min(MAX_TX_WRITES as u64) as u32 {
                let off = pool.load_u64(log_area + i * 16) as u32;
                let val = pool.load_u64(log_area + i * 16 + 8);
                pool.store_u64(off, val);
                pool.flush(0, off);
            }
            pool.store_u64(ROOT_LOG_STATUS, 0);
            pool.flush(0, ROOT_LOG_STATUS);
            pool.sfence(0);
        }
        Ptm {
            pool,
            policy,
            lock: Mutex::new(()),
            log_area,
        }
    }

    /// The underlying pool.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// The flush policy in force.
    pub fn policy(&self) -> FlushPolicy {
        self.policy
    }

    /// Runs `body` as a durable transaction on behalf of thread `tid` and
    /// returns its result. The transaction's writes become durable atomically
    /// (all or nothing with respect to crashes).
    pub fn run<R>(&self, tid: usize, body: impl FnOnce(&mut Tx<'_>) -> R) -> R {
        let _guard = obs::locked(&self.lock);
        let mut tx = Tx {
            pool: &self.pool,
            writes: Vec::new(),
            index: HashMap::new(),
        };
        let result = body(&mut tx);
        self.commit(tid, &tx.writes);
        result
    }

    fn commit(&self, tid: usize, writes: &[(u32, u64)]) {
        if writes.is_empty() {
            return;
        }
        assert!(
            writes.len() <= MAX_TX_WRITES,
            "transaction write set too large"
        );
        let p = &self.pool;
        // 1. Persist the redo log.
        for (i, &(off, val)) in writes.iter().enumerate() {
            let e = self.log_area + (i as u32) * 16;
            p.store_u64(e, off as u64);
            p.store_u64(e + 8, val);
            if self.policy == FlushPolicy::EagerPerWord {
                p.flush(tid, e);
                p.sfence(tid);
            }
        }
        if self.policy == FlushPolicy::BatchedCommit {
            p.flush_range(tid, self.log_area, (writes.len() as u32) * 16);
            p.sfence(tid);
        }
        // 2. Commit point: persist the status word.
        p.store_u64(ROOT_LOG_STATUS, writes.len() as u64);
        p.flush(tid, ROOT_LOG_STATUS);
        p.sfence(tid);
        // 3. Apply in place and persist the home locations.
        for &(off, val) in writes {
            p.store_u64(off, val);
            p.flush(tid, off);
        }
        p.sfence(tid);
        // 4. Retire the log.
        p.store_u64(ROOT_LOG_STATUS, 0);
        p.flush(tid, ROOT_LOG_STATUS);
        p.sfence(tid);
    }
}

/// An in-flight transaction: a redo write set over the pool.
pub struct Tx<'a> {
    pool: &'a PmemPool,
    writes: Vec<(u32, u64)>,
    index: HashMap<u32, usize>,
}

impl Tx<'_> {
    /// Transactionally reads the 64-bit word at `off` (observing this
    /// transaction's own earlier writes).
    pub fn read(&self, off: u32) -> u64 {
        if let Some(&i) = self.index.get(&off) {
            self.writes[i].1
        } else {
            self.pool.load_u64(off)
        }
    }

    /// Transactionally writes `val` to the 64-bit word at `off`.
    pub fn write(&mut self, off: u32, val: u64) {
        if let Some(&i) = self.index.get(&off) {
            self.writes[i].1 = val;
        } else {
            self.index.insert(off, self.writes.len());
            self.writes.push((off, val));
        }
    }

    /// Number of distinct words written so far.
    pub fn write_set_len(&self) -> usize {
        self.writes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PoolConfig;

    fn setup(policy: FlushPolicy) -> (Arc<PmemPool>, Ptm, u32) {
        let pool = Arc::new(PmemPool::new(PoolConfig::small_test()));
        let data = pool.alloc_zeroed(0, 1024, 64);
        let ptm = Ptm::new(Arc::clone(&pool), policy);
        (pool, ptm, data)
    }

    #[test]
    fn committed_transaction_is_durable() {
        for policy in [FlushPolicy::EagerPerWord, FlushPolicy::BatchedCommit] {
            let (pool, ptm, data) = setup(policy);
            ptm.run(0, |tx| {
                tx.write(data, 11);
                tx.write(data + 8, 22);
            });
            assert_eq!(pool.load_u64(data), 11);
            let recovered = pool.simulate_crash();
            assert_eq!(recovered.load_u64(data), 11);
            assert_eq!(recovered.load_u64(data + 8), 22);
        }
    }

    #[test]
    fn reads_observe_own_writes_and_old_state() {
        let (_pool, ptm, data) = setup(FlushPolicy::BatchedCommit);
        ptm.run(0, |tx| {
            assert_eq!(tx.read(data), 0);
            tx.write(data, 5);
            assert_eq!(tx.read(data), 5);
            tx.write(data, 6);
            assert_eq!(tx.read(data), 6);
            assert_eq!(tx.write_set_len(), 1);
        });
        ptm.run(0, |tx| assert_eq!(tx.read(data), 6));
    }

    #[test]
    fn read_only_transaction_issues_no_persists() {
        let (pool, ptm, data) = setup(FlushPolicy::BatchedCommit);
        pool.reset_stats();
        let v = ptm.run(0, |tx| tx.read(data));
        assert_eq!(v, 0);
        assert_eq!(pool.stats().fences, 0);
        assert_eq!(pool.stats().flushes, 0);
    }

    #[test]
    fn committed_log_is_replayed_by_recovery() {
        // Simulate a crash after the commit record persisted but before the
        // home locations were written back, by building the log by hand.
        let (pool, ptm, data) = setup(FlushPolicy::BatchedCommit);
        let _ = &ptm;
        let log_area = pool.load_u64(ROOT_LOG_AREA) as u32;
        pool.store_u64(log_area, data as u64);
        pool.store_u64(log_area + 8, 77);
        pool.flush(0, log_area);
        pool.store_u64(ROOT_LOG_STATUS, 1);
        pool.flush(0, ROOT_LOG_STATUS);
        pool.sfence(0);
        let recovered_pool = Arc::new(pool.simulate_crash());
        assert_eq!(
            recovered_pool.load_u64(data),
            0,
            "home location must still be old"
        );
        let _recovered = Ptm::recover(Arc::clone(&recovered_pool), FlushPolicy::BatchedCommit);
        assert_eq!(
            recovered_pool.load_u64(data),
            77,
            "committed log was not replayed"
        );
        assert_eq!(recovered_pool.load_u64(ROOT_LOG_STATUS), 0);
    }

    #[test]
    fn uncommitted_log_is_discarded_by_recovery() {
        let (pool, ptm, data) = setup(FlushPolicy::BatchedCommit);
        let _ = &ptm;
        let log_area = pool.load_u64(ROOT_LOG_AREA) as u32;
        // Entries persisted but no commit record.
        pool.store_u64(log_area, data as u64);
        pool.store_u64(log_area + 8, 99);
        pool.flush(0, log_area);
        pool.sfence(0);
        let recovered_pool = Arc::new(pool.simulate_crash());
        let _recovered = Ptm::recover(Arc::clone(&recovered_pool), FlushPolicy::BatchedCommit);
        assert_eq!(
            recovered_pool.load_u64(data),
            0,
            "uncommitted log must not be replayed"
        );
    }

    #[test]
    fn eager_policy_fences_more_than_batched() {
        let mut fences = Vec::new();
        for policy in [FlushPolicy::EagerPerWord, FlushPolicy::BatchedCommit] {
            let (pool, ptm, data) = setup(policy);
            pool.reset_stats();
            ptm.run(0, |tx| {
                for i in 0..8u32 {
                    tx.write(data + i * 8, i as u64);
                }
            });
            fences.push(pool.stats().fences);
        }
        assert!(
            fences[0] > fences[1],
            "eager {} vs batched {}",
            fences[0],
            fences[1]
        );
    }
}
