//! Peek-lock consumption over any [`DurableQueue`].
//!
//! [`LeasedQueue`] wraps a base queue so that `dequeue` no longer destroys:
//! it returns a [`Lease`] while the item stays durably owned in the
//! [ack log](crate::log). Consumers [`ack`](LeasedQueue::ack) to retire,
//! [`nack`](LeasedQueue::nack) (or let the deadline pass) to redeliver with
//! an incremented delivery count, and items that exhaust their delivery
//! budget overflow to a dead-letter queue. The transitions themselves are
//! the crate's one settlement engine (see the [crate docs](crate)); this
//! module holds the public lease types and the single-cursor surface over
//! an [`AckLog`].

use crate::engine::{Consumer, Instruments, Settings};
use crate::log::AckLog;
use durable_queues::{DurableQueue, KeyedQueue};
use obs::LazyCounter;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use store::SyncPolicy;

static INSTRUMENTS: Instruments = Instruments {
    grant: LazyCounter::new("lease.grant"),
    ack: LazyCounter::new("lease.ack"),
    nack: LazyCounter::new("lease.nack"),
    expire: LazyCounter::new("lease.expire"),
    dead: LazyCounter::new("lease.dead"),
};

/// Configuration of a [`LeasedQueue`].
#[derive(Clone, Debug)]
pub struct LeaseConfig {
    /// Directory holding the ack log (`LEASES.log`) — for file-backed
    /// deployments, the same directory as the pool files.
    pub dir: PathBuf,
    /// How long a consumer may hold a lease before it expires and the item
    /// becomes redeliverable.
    pub lease_timeout: Duration,
    /// Maximum times an item may be delivered before it is dead-lettered
    /// (`0` = unlimited; requires a dead-letter queue when non-zero).
    pub max_deliveries: u32,
    /// Durability tier of the ack log (mirrors the pool files' policy).
    pub sync: SyncPolicy,
    /// Compact the ack log once it holds more than this many records *and*
    /// retired records dominate live ones 4:1 (`0` = never compact).
    pub compact_after: u64,
}

impl LeaseConfig {
    /// A configuration with the given log directory and the defaults:
    /// 30 s lease timeout, unlimited deliveries, process-crash durability,
    /// compaction after 4096 records.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        LeaseConfig {
            dir: dir.into(),
            lease_timeout: Duration::from_secs(30),
            max_deliveries: 0,
            sync: SyncPolicy::default(),
            compact_after: 4096,
        }
    }

    /// Overrides the lease timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.lease_timeout = timeout;
        self
    }

    /// Overrides the delivery budget (`0` = unlimited).
    pub fn with_max_deliveries(mut self, max: u32) -> Self {
        self.max_deliveries = max;
        self
    }

    /// Overrides the durability tier.
    pub fn with_sync(mut self, sync: SyncPolicy) -> Self {
        self.sync = sync;
        self
    }

    /// Overrides the compaction threshold (`0` = never compact).
    pub fn with_compact_after(mut self, records: u64) -> Self {
        self.compact_after = records;
        self
    }

    fn check_dlq(&self, dlq: &Option<Arc<dyn DurableQueue>>) -> io::Result<()> {
        if self.max_deliveries > 0 && dlq.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "max_deliveries > 0 requires a dead-letter queue (overflow \
                 would otherwise drop items)",
            ));
        }
        Ok(())
    }

    /// The single cursor's engine settings: the `lease.*` instruments and
    /// stripe 0 of the exactly-once cursor.
    fn settings(&self) -> Settings {
        Settings {
            lease_timeout: self.lease_timeout,
            max_deliveries: self.max_deliveries,
            instruments: &INSTRUMENTS,
            stripe: 0,
        }
    }
}

/// A granted lease: the peek-locked item plus everything a consumer needs
/// to ack, nack, or reason about redelivery.
#[derive(Clone, Copy, Debug)]
pub struct Lease {
    /// Unique, monotonically increasing lease id, starting at 1 (0 is
    /// reserved: the "no previous lease" sentinel in grant records and the
    /// "nothing acked" sentinel in the exactly-once cursor).
    pub id: u64,
    /// The item under lease.
    pub item: u64,
    /// Which delivery attempt this is (first delivery = 1).
    pub delivery_count: u32,
    /// When the lease expires and the item becomes redeliverable.
    pub deadline: Instant,
}

/// Why an ack/nack was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeaseError {
    /// The lease is not in flight: it was already acked or nacked, or it
    /// expired and the item has been (or is queued to be) redelivered.
    NotInFlight,
    /// The caller's thread id does not fit the exactly-once cursor
    /// (`tid >= MAX_THREADS`). Validated before the settlement transaction
    /// starts, so no consumer-side work runs and nothing is marked
    /// settling.
    ThreadOutOfRange {
        /// The offending thread id.
        tid: usize,
        /// The exclusive bound ([`pmem::MAX_THREADS`]).
        max: usize,
    },
    /// The consumer-group index does not fit the exactly-once cursor: the
    /// engine was created with fewer stripes than this deployment has
    /// groups (see
    /// [`ExactlyOnce::create`](crate::tx::ExactlyOnce::create)).
    GroupOutOfRange {
        /// The offending group index.
        group: usize,
        /// Stripes the engine actually has.
        groups: usize,
    },
}

impl std::fmt::Display for LeaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeaseError::NotInFlight => {
                write!(f, "lease is not in flight (already settled or expired)")
            }
            LeaseError::ThreadOutOfRange { tid, max } => {
                write!(
                    f,
                    "thread id {tid} does not fit the exactly-once cursor \
                     (MAX_THREADS = {max})"
                )
            }
            LeaseError::GroupOutOfRange { group, groups } => {
                write!(
                    f,
                    "consumer group {group} does not fit the exactly-once cursor \
                     (engine was created for {groups} group(s))"
                )
            }
        }
    }
}

impl std::error::Error for LeaseError {}

/// Where a nacked (or expired) item went.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Redelivery {
    /// The item awaits redelivery; the next lease will carry this count.
    Requeued {
        /// Delivery count the next grant will carry.
        next_delivery_count: u32,
    },
    /// The item exhausted its delivery budget and was durably moved to the
    /// dead-letter queue.
    DeadLettered,
}

/// Volatile counters since creation/recovery (not persisted; the ack log
/// is the durable record).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LeaseStats {
    /// Leases granted (fresh + redeliveries).
    pub granted: u64,
    /// Grants that were redeliveries (`delivery_count > 1`).
    pub redelivered: u64,
    /// Leases acked.
    pub acked: u64,
    /// Leases explicitly nacked.
    pub nacked: u64,
    /// Leases reaped after their deadline passed.
    pub expired: u64,
    /// Items moved to the dead-letter queue.
    pub dead_lettered: u64,
    /// Exactly-once acks that committed after their lease had already been
    /// reaped *and* regranted — the documented window in which the handoff
    /// degrades to at-least-once.
    pub late_acks: u64,
    /// Ack-log compactions performed.
    pub compactions: u64,
}

/// What [`LeasedQueue::recover`] reconstructed from the ack log — the
/// same counts [`open_leased_dir`](crate::open_leased_dir) reports through
/// [`shard::RecoveryReport::lease`].
pub use shard::LeaseRecovery as RecoveredLeases;

/// A peek-lock wrapper around any durable queue. See the
/// [module docs](self) and the crate docs.
///
/// All lease state transitions are serialised by one internal lock; the
/// base queue's own lock-free paths still run concurrently for enqueues
/// and for the destructive pop feeding fresh grants.
///
/// # Panics
///
/// Consume-path methods panic if an ack-log append or force fails at the
/// I/O level: a record of unknown durability would make every subsequent
/// lease transition unsound, so (like a message store losing its WAL
/// device) the process must restart and replay. Constructors return
/// `io::Result` instead, since nothing is in flight yet.
pub struct LeasedQueue<Q: DurableQueue> {
    base: Q,
    consumer: Consumer<AckLog>,
}

impl<Q: DurableQueue> LeasedQueue<Q> {
    /// Wraps `base` with a fresh ack log in `config.dir` (truncating any
    /// previous log — use [`recover`](Self::recover) to resume one).
    ///
    /// Fails with `InvalidInput` if `config.max_deliveries > 0` but no
    /// dead-letter queue was supplied: a finite budget with nowhere to
    /// overflow would silently drop items.
    pub fn create(
        base: Q,
        dlq: Option<Arc<dyn DurableQueue>>,
        config: LeaseConfig,
    ) -> io::Result<Self> {
        config.check_dlq(&dlq)?;
        let mut log = AckLog::create(&config.dir, config.sync)?;
        log.set_compact_after(config.compact_after);
        let consumer = Consumer::fresh(log, dlq, config.settings());
        Ok(LeasedQueue { base, consumer })
    }

    /// Wraps `base` around the ack log already in `config.dir`, replaying
    /// it so every lease without a terminal record becomes redeliverable:
    /// leases granted at the crash are requeued with `delivery_count + 1`,
    /// nacked-but-not-regranted items keep their recorded next count, and
    /// items whose next delivery would exceed the budget go straight to the
    /// dead-letter queue.
    ///
    /// `cursor` is the deployment's exactly-once ack engine, when it has
    /// one: leases whose ack transaction is known to have committed
    /// ([`ExactlyOnce::acked_ids_in`](crate::tx::ExactlyOnce::acked_ids_in)
    /// on stripe 0, queried with the replayed log's generation so entries
    /// stamped by an older or recreated log are ignored) are retired here
    /// with repair ack records instead of being redelivered. Pass `None`
    /// for plain at-least-once deployments.
    pub fn recover(
        base: Q,
        dlq: Option<Arc<dyn DurableQueue>>,
        config: LeaseConfig,
        cursor: Option<&crate::tx::ExactlyOnce>,
    ) -> io::Result<(Self, RecoveredLeases)> {
        config.check_dlq(&dlq)?;
        let (mut log, replay) = AckLog::replay(&config.dir, config.sync)?;
        log.set_compact_after(config.compact_after);
        let (consumer, recovered) = Consumer::recover(log, replay, dlq, config.settings(), cursor)?;
        Ok((LeasedQueue { base, consumer }, recovered))
    }

    // ------------------------------------------------------------------
    // Produce side (passthrough)
    // ------------------------------------------------------------------

    /// Appends `item` on the base queue.
    pub fn enqueue(&self, tid: usize, item: u64) {
        self.base.enqueue(tid, item);
    }

    // ------------------------------------------------------------------
    // Consume side
    // ------------------------------------------------------------------

    /// Grants a lease on the next item: redeliveries first (in lease-id
    /// order), then a fresh pop from the base queue. Returns `None` when
    /// neither has an item. Expired leases are reaped first, so a single
    /// consumer loop observes its own timeouts.
    ///
    /// The grant record is durable (fsync'd under the power-fail tier)
    /// before the lease is returned, so no item a consumer *observed* can
    /// be lost to a crash. The one unprotected window is inherent to a
    /// destructive base queue: a crash between the base pop and the grant
    /// append loses that single in-transit item — never one that any
    /// consumer has seen. Closing it would need a non-destructive base
    /// (peek support), which none of the paper's algorithms have.
    pub fn dequeue(&self, tid: usize) -> Option<Lease> {
        let now = Instant::now();
        if let Some(lease) = self.consumer.grant_pending(tid, now) {
            return Some(lease);
        }
        let item = self.base.dequeue(tid)?;
        Some(self.consumer.grant_fresh(now, item))
    }

    /// Durably retires `lease`: the item is consumed and will never be
    /// redelivered. Fails with [`LeaseError::NotInFlight`] if the lease
    /// already settled or expired.
    pub fn ack(&self, lease: &Lease) -> Result<(), LeaseError> {
        self.consumer.ack(lease)
    }

    /// Returns `lease` unprocessed: the item is requeued for redelivery
    /// with `delivery_count + 1`, or dead-lettered if that would exceed
    /// the budget. `tid` is the caller's thread id on the dead-letter
    /// queue.
    pub fn nack(&self, tid: usize, lease: &Lease) -> Result<Redelivery, LeaseError> {
        self.consumer.nack(tid, lease)
    }

    /// Reaps every lease whose deadline has passed, requeueing (or
    /// dead-lettering) the items exactly as [`nack`](Self::nack) would.
    /// Runs implicitly at the start of every [`dequeue`](Self::dequeue);
    /// call it directly to observe timeouts without consuming. Returns the
    /// number of leases reaped.
    pub fn reap_expired(&self, tid: usize) -> usize {
        self.consumer.reap_expired(tid)
    }

    /// Acks `lease` and applies the consumer's own writes in **one**
    /// redo-log transaction — the exactly-once handoff. `body` runs inside
    /// the transaction (use [`Tx::write`](ptm::Tx::write) for the
    /// consumer's state, e.g. its processed-offset root); the transaction
    /// additionally records `lease.id` in the per-thread exactly-once
    /// cursor, so its commit point settles the ack and the consumer's
    /// state atomically. After commit the sidecar ack record is appended;
    /// if a crash swallows that append, recovery reads the cursor and
    /// repairs it (see [`recover`](Self::recover)) — the item is **not**
    /// redelivered.
    ///
    /// Fails with [`LeaseError::ThreadOutOfRange`] — before anything runs,
    /// marks, or commits — if `tid` does not fit the cursor's
    /// `MAX_THREADS` stripe, instead of panicking mid-transaction.
    ///
    /// Fails with [`LeaseError::NotInFlight`] *before* running `body` if
    /// the lease already settled — including when another settlement
    /// (`ack`, `nack`, or a concurrent `ack_exactly_once`) already owns it:
    /// the lease is marked *settling* under the lock before the transaction
    /// starts, so at most one settlement body ever runs per lease and a
    /// racing caller's side effects are never applied twice. If the lease
    /// expires while the transaction runs, the committed work stands; when
    /// the item has not been regranted yet the ack still wins (the pending
    /// redelivery is cancelled), otherwise the handoff degrades to
    /// at-least-once for this item (counted in [`LeaseStats::late_acks`]).
    pub fn ack_exactly_once<R>(
        &self,
        tid: usize,
        lease: &Lease,
        eo: &crate::tx::ExactlyOnce,
        body: impl FnOnce(&mut ptm::Tx<'_>) -> R,
    ) -> Result<R, LeaseError> {
        self.consumer.ack_exactly_once(tid, lease, eo, body)
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The wrapped base queue.
    pub fn base(&self) -> &Q {
        &self.base
    }

    /// The dead-letter queue, if one is attached.
    pub fn dlq(&self) -> Option<&Arc<dyn DurableQueue>> {
        self.consumer.dlq()
    }

    /// Volatile counters since creation/recovery.
    pub fn stats(&self) -> LeaseStats {
        self.consumer.observe(|c, log| LeaseStats {
            granted: c.granted,
            redelivered: c.redelivered,
            acked: c.acked,
            nacked: c.nacked,
            expired: c.expired,
            dead_lettered: c.dead_lettered,
            late_acks: c.late_acks,
            compactions: log.compactions(),
        })
    }

    /// Leases currently in a consumer's hands.
    pub fn in_flight(&self) -> usize {
        self.consumer.in_flight()
    }

    /// Items awaiting redelivery (nacked/expired/recovered, not yet
    /// regranted).
    pub fn pending_redelivery(&self) -> usize {
        self.consumer.pending()
    }

    /// Records currently in the ack log (drops after compaction).
    pub fn log_records(&self) -> u64 {
        self.consumer.observe(|_, log| log.records())
    }

    /// The configured lease timeout.
    pub fn lease_timeout(&self) -> Duration {
        self.consumer.settings().lease_timeout
    }

    /// The configured delivery budget (`0` = unlimited).
    pub fn max_deliveries(&self) -> u32 {
        self.consumer.settings().max_deliveries
    }
}

impl<Q: KeyedQueue> LeasedQueue<Q> {
    /// Key-routed enqueue on the base queue (per-key FIFO when the base is
    /// a key-hash sharded queue).
    pub fn enqueue_keyed(&self, tid: usize, key: u64, item: u64) {
        self.base.enqueue_keyed(tid, key, item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{HEADER_LEN, LEASE_LOG_FILE, RECORD_LEN};
    use crate::tx::ExactlyOnce;
    use durable_queues::{OptUnlinkedQueue, QueueConfig, RecoverableQueue};
    use pmem::{PmemPool, PoolConfig};
    use std::fs::OpenOptions;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lease-queue-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fresh_base() -> OptUnlinkedQueue {
        let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(4 << 20)));
        OptUnlinkedQueue::create(pool, QueueConfig::small_test())
    }

    fn fresh_dlq() -> Arc<dyn DurableQueue> {
        Arc::new(fresh_base())
    }

    fn drain(q: &dyn DurableQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.dequeue(0)).collect()
    }

    #[test]
    fn ack_retires_nack_redelivers_with_bumped_count() {
        let dir = tmp("lifecycle");
        let q = LeasedQueue::create(fresh_base(), None, LeaseConfig::new(&dir)).unwrap();
        q.enqueue(0, 7);
        q.enqueue(0, 8);

        let a = q.dequeue(1).unwrap();
        assert_eq!((a.item, a.delivery_count), (7, 1));
        let b = q.dequeue(1).unwrap();
        assert_eq!((b.item, b.delivery_count), (8, 1));
        assert_eq!(q.in_flight(), 2);

        q.ack(&a).unwrap();
        assert_eq!(q.ack(&a), Err(LeaseError::NotInFlight));
        assert_eq!(
            q.nack(1, &b).unwrap(),
            Redelivery::Requeued {
                next_delivery_count: 2
            }
        );
        assert_eq!(q.pending_redelivery(), 1);

        let b2 = q.dequeue(1).unwrap();
        assert_eq!((b2.item, b2.delivery_count), (8, 2));
        assert!(b2.id > b.id);
        q.ack(&b2).unwrap();
        assert!(q.dequeue(1).is_none());
        let s = q.stats();
        assert_eq!((s.granted, s.redelivered, s.acked, s.nacked), (3, 1, 2, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn expiry_redelivers_and_budget_overflows_to_dlq() {
        let dir = tmp("expiry");
        let dlq = fresh_dlq();
        let q = LeasedQueue::create(
            fresh_base(),
            Some(Arc::clone(&dlq)),
            LeaseConfig::new(&dir)
                .with_timeout(Duration::from_millis(0))
                .with_max_deliveries(2),
        )
        .unwrap();
        q.enqueue(0, 42);

        // Timeout 0: the lease expires immediately, so the next dequeue
        // reaps and redelivers it.
        let l1 = q.dequeue(1).unwrap();
        assert_eq!(l1.delivery_count, 1);
        let l2 = q.dequeue(1).unwrap();
        assert_eq!((l2.item, l2.delivery_count), (42, 2));
        assert_eq!(q.ack(&l1), Err(LeaseError::NotInFlight));

        // Second expiry exceeds max_deliveries = 2 → dead-lettered.
        assert_eq!(q.reap_expired(1), 1);
        assert!(q.dequeue(1).is_none());
        assert_eq!(drain(dlq.as_ref()), vec![42]);
        let s = q.stats();
        assert_eq!((s.expired, s.dead_lettered), (2, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nack_past_budget_dead_letters() {
        let dir = tmp("nack-budget");
        let dlq = fresh_dlq();
        let q = LeasedQueue::create(
            fresh_base(),
            Some(Arc::clone(&dlq)),
            LeaseConfig::new(&dir).with_max_deliveries(1),
        )
        .unwrap();
        q.enqueue(0, 5);
        let l = q.dequeue(0).unwrap();
        assert_eq!(q.nack(0, &l).unwrap(), Redelivery::DeadLettered);
        assert!(q.dequeue(0).is_none());
        assert_eq!(drain(dlq.as_ref()), vec![5]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn finite_budget_without_dlq_is_refused() {
        let dir = tmp("no-dlq");
        let err = LeasedQueue::create(
            fresh_base(),
            None,
            LeaseConfig::new(&dir).with_max_deliveries(3),
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_redelivers_unacked_and_skips_acked() {
        let dir = tmp("recover");
        let cfg = LeaseConfig::new(&dir);
        {
            let q = LeasedQueue::create(fresh_base(), None, cfg.clone()).unwrap();
            for i in 1..=4u64 {
                q.enqueue(0, i * 10);
            }
            let l1 = q.dequeue(1).unwrap();
            let _l2 = q.dequeue(1).unwrap(); // unacked at "crash"
            let l3 = q.dequeue(1).unwrap();
            q.ack(&l1).unwrap();
            q.nack(1, &l3).unwrap(); // pending at "crash"
                                     // Drop without acking l2: simulates the consumer dying. The
                                     // base queue state is volatile here (sim pool), so recovery
                                     // rebuilds only from the log — exactly the lease layer's job.
        }
        let (q, rec) = LeasedQueue::recover(fresh_base(), None, cfg.clone(), None).unwrap();
        assert_eq!(rec.unacked, 1);
        assert_eq!(rec.redelivered, 2); // l2 (granted) + l3 (pending)
        assert_eq!(rec.dead_lettered, 0);
        assert_eq!(q.pending_redelivery(), 2);

        // Redelivery order is lease-id order; counts are bumped for the
        // crashed-in-flight lease and preserved for the pending one.
        let r1 = q.dequeue(0).unwrap();
        assert_eq!((r1.item, r1.delivery_count), (20, 2));
        let r2 = q.dequeue(0).unwrap();
        assert_eq!((r2.item, r2.delivery_count), (30, 2));
        assert!(q.dequeue(0).is_none(), "acked item must not resurrect");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_dead_letters_items_past_budget() {
        let dir = tmp("recover-dlq");
        let cfg = LeaseConfig::new(&dir).with_max_deliveries(1);
        {
            let q = LeasedQueue::create(fresh_base(), Some(fresh_dlq()), cfg.clone()).unwrap();
            q.enqueue(0, 99);
            let _l = q.dequeue(0).unwrap(); // dc = 1 = budget, crash while leased
        }
        let dlq = fresh_dlq();
        let (q, rec) =
            LeasedQueue::recover(fresh_base(), Some(Arc::clone(&dlq)), cfg, None).unwrap();
        assert_eq!(rec.dead_lettered, 1);
        assert_eq!(rec.redelivered, 0);
        assert!(q.dequeue(0).is_none());
        assert_eq!(drain(dlq.as_ref()), vec![99]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_keeps_live_leases_and_shrinks_the_log() {
        // Two traffic shapes around one lease held throughout: one thread
        // enqueueing and acking in turn, and a producer thread racing a
        // consumer that nacks every tenth item once and acks it on
        // redelivery, until every item is acked.
        for (tag, items, racing) in [("compact", 40u64, false), ("compact-racing", 2_000, true)] {
            let dir = tmp(tag);
            let cfg = LeaseConfig::new(&dir).with_compact_after(16);
            let q = LeasedQueue::create(fresh_base(), None, cfg.clone()).unwrap();
            let keeper_item = 1u64 << 40;
            q.enqueue(0, keeper_item);
            let keeper = q.dequeue(0).unwrap(); // stays in flight throughout
            let mut acked = Vec::new();
            let deadline = std::time::Instant::now() + Duration::from_secs(60);
            std::thread::scope(|scope| {
                let q = &q;
                if racing {
                    scope.spawn(move || (1..=items).for_each(|i| q.enqueue(0, i)));
                }
                for i in 1..=items {
                    if !racing {
                        q.enqueue(0, i);
                    }
                    let l = loop {
                        match q.dequeue(1) {
                            Some(l) if l.item % 10 == 0 && l.delivery_count == 1 && racing => {
                                q.nack(1, &l).unwrap();
                            }
                            Some(l) => break l,
                            None => {
                                let late = std::time::Instant::now() > deadline;
                                assert!(!late, "{tag}: {} of {items} acked", i - 1);
                                std::thread::yield_now();
                            }
                        }
                    };
                    q.ack(&l).unwrap();
                    acked.push(l.item);
                }
            });
            acked.sort_unstable();
            assert_eq!(
                acked,
                (1..=items).collect::<Vec<_>>(),
                "{tag}: lost or doubled"
            );
            let s = q.stats();
            let nacked = if racing { items / 10 } else { 0 };
            assert_eq!((s.acked, s.nacked, s.redelivered), (items, nacked, nacked));
            assert_eq!((s.dead_lettered, q.in_flight()), (0, 1));
            assert!(s.compactions >= 1, "{tag}: compaction never triggered");
            assert!(q.log_records() < 40, "{tag}: log did not shrink");
            drop(q);

            let (q, rec) = LeasedQueue::recover(fresh_base(), None, cfg, None).unwrap();
            assert_eq!(rec.redelivered, 1, "{tag}: live lease lost by compaction");
            let r = q.dequeue(0).unwrap();
            assert_eq!((r.item, r.delivery_count), (keeper_item, 2));
            assert!(r.id > keeper.id);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn first_ever_lease_nacked_and_regranted_does_not_resurrect() {
        // Regression: if lease ids started at 0, the regrant's
        // `prev_lease_id = 0` would read as "fresh grant" and the first
        // lease's PEND record would stay live forever, resurrecting the
        // item on every recovery.
        let dir = tmp("id-zero");
        let cfg = LeaseConfig::new(&dir);
        {
            let q = LeasedQueue::create(fresh_base(), None, cfg.clone()).unwrap();
            q.enqueue(0, 55);
            let first = q.dequeue(0).unwrap();
            assert!(first.id >= 1, "lease id 0 must never be granted");
            q.nack(0, &first).unwrap();
            let again = q.dequeue(0).unwrap();
            q.ack(&again).unwrap();
        }
        let (q, rec) = LeasedQueue::recover(fresh_base(), None, cfg, None).unwrap();
        assert_eq!(rec.redelivered, 0, "settled item resurrected");
        assert!(q.dequeue(0).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lease_ids_survive_compaction_that_retires_the_highest_ids() {
        // Regression: compaction snapshots only *live* leases, so when the
        // highest-numbered leases were all settled the rewritten log held
        // no witness of the id high-water mark; recovery then reused ids,
        // which a stale exactly-once cursor could silently repair-ack. The
        // mark now rides the compacted header.
        let dir = tmp("compact-ids");
        let cfg = LeaseConfig::new(&dir).with_compact_after(8);
        let max_id = {
            let q = LeasedQueue::create(fresh_base(), None, cfg.clone()).unwrap();
            let mut max_id = 0;
            for i in 1..=200u64 {
                q.enqueue(0, i);
                let l = q.dequeue(0).unwrap();
                max_id = l.id;
                q.ack(&l).unwrap();
                if q.stats().compactions >= 1 && q.log_records() == 0 {
                    break;
                }
            }
            assert_eq!(q.log_records(), 0, "never reached an empty compacted log");
            max_id
        };
        assert!(max_id > 1);
        let (q, rec) = LeasedQueue::recover(fresh_base(), None, cfg, None).unwrap();
        assert_eq!(rec.redelivered, 0);
        q.enqueue(0, 777);
        let l = q.dequeue(0).unwrap();
        assert!(
            l.id > max_id,
            "recovered grant reused lease id {} (high-water mark was {max_id})",
            l.id
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn settlement_is_exclusive_while_an_exactly_once_tx_runs() {
        // Regression: the liveness check and the transaction ran in
        // separate lock scopes, so a racing settlement could slip between
        // them and settle (or double-run side effects for) the same lease.
        // The settling mark now makes any concurrent settlement attempt
        // fail with NotInFlight before its body runs.
        let dir = tmp("settling");
        let q = LeasedQueue::create(fresh_base(), None, LeaseConfig::new(&dir)).unwrap();
        let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(4 << 20)));
        let eo = ExactlyOnce::create(Arc::clone(&pool), 1);
        q.enqueue(0, 11);
        let l = q.dequeue(0).unwrap();
        let word = pool.alloc_raw(8, 8);
        q.ack_exactly_once(0, &l, &eo, |tx| {
            // Mid-transaction, this call owns the lease's settlement.
            assert_eq!(q.ack(&l), Err(LeaseError::NotInFlight));
            assert_eq!(q.nack(0, &l), Err(LeaseError::NotInFlight));
            tx.write(word, 1);
        })
        .unwrap();
        let s = q.stats();
        assert_eq!((s.acked, s.nacked, s.late_acks), (1, 0, 0));
        assert!(q.dequeue(0).is_none(), "acked item redelivered");
        assert_eq!(
            q.ack_exactly_once(0, &l, &eo, |_| ()).unwrap_err(),
            LeaseError::NotInFlight
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_range_tid_is_a_descriptive_error_not_a_mid_tx_panic() {
        // Regression: the tid bound used to be an assert inside the
        // transaction (tx.rs), firing only after the caller's body had
        // already run — here the error comes back before anything does,
        // and the lease stays settleable.
        let dir = tmp("bad-tid");
        let q = LeasedQueue::create(fresh_base(), None, LeaseConfig::new(&dir)).unwrap();
        let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(4 << 20)));
        let eo = ExactlyOnce::create(Arc::clone(&pool), 1);
        q.enqueue(0, 3);
        let l = q.dequeue(0).unwrap();
        let mut body_ran = false;
        let err = q
            .ack_exactly_once(pmem::MAX_THREADS, &l, &eo, |_| body_ran = true)
            .unwrap_err();
        assert_eq!(
            err,
            LeaseError::ThreadOutOfRange {
                tid: pmem::MAX_THREADS,
                max: pmem::MAX_THREADS
            }
        );
        assert!(!body_ran, "consumer body ran despite the invalid tid");
        assert!(err.to_string().contains("MAX_THREADS"), "{err}");
        // The lease was never marked settling: a valid ack still works.
        q.ack(&l).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn committed_tx_ack_with_lost_sidecar_record_is_repaired() {
        let dir = tmp("tx-repair");
        let cfg = LeaseConfig::new(&dir);
        let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(4 << 20)));
        let eo = ExactlyOnce::create(Arc::clone(&pool), 1);
        let consumer_state = pool.alloc_raw(8, 8);
        {
            let q = LeasedQueue::create(fresh_base(), None, cfg.clone()).unwrap();
            q.enqueue(0, 9);
            let l = q.dequeue(0).unwrap();
            q.ack_exactly_once(0, &l, &eo, |tx| tx.write(consumer_state, 99))
                .unwrap();
        }
        // Simulate the documented crash window: the transaction committed
        // (cursor + consumer state durable) but the sidecar ACK append was
        // lost — chop it off, leaving only the GRANT.
        let path = dir.join(LEASE_LOG_FILE);
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(len, (HEADER_LEN + 2 * RECORD_LEN) as u64);
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - RECORD_LEN as u64).unwrap();
        drop(f);

        let (q, rec) = LeasedQueue::recover(fresh_base(), None, cfg, Some(&eo)).unwrap();
        assert_eq!(rec.tx_acked, 1, "committed ack not repaired");
        assert_eq!(rec.redelivered, 0, "item redelivered despite committed ack");
        assert!(q.dequeue(0).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_cursor_from_a_recreated_log_repairs_nothing() {
        // Regression: cursor entries carried no log identity, so pairing
        // an old consumer pool with a recreated ack log let a stale lease
        // id repair-ack an unrelated in-flight lease of the new log.
        let dir = tmp("stale-cursor");
        let cfg = LeaseConfig::new(&dir);
        let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(4 << 20)));
        let eo = ExactlyOnce::create(Arc::clone(&pool), 1);
        {
            let q = LeasedQueue::create(fresh_base(), None, cfg.clone()).unwrap();
            q.enqueue(0, 1);
            let l = q.dequeue(0).unwrap();
            assert_eq!(l.id, 1);
            q.ack_exactly_once(0, &l, &eo, |_| ()).unwrap();
        }
        // A recreated log: same directory, new generation, fresh id space.
        // The cursor still holds lease id 1 from the old generation.
        {
            let q = LeasedQueue::create(fresh_base(), None, cfg.clone()).unwrap();
            q.enqueue(0, 42);
            let l = q.dequeue(0).unwrap();
            assert_eq!(l.id, 1, "a fresh log restarts the id space");
            // Crash while leased: drop without acking.
        }
        let (q, rec) = LeasedQueue::recover(fresh_base(), None, cfg, Some(&eo)).unwrap();
        assert_eq!(rec.tx_acked, 0, "stale cursor repair-acked a foreign lease");
        assert_eq!(rec.redelivered, 1);
        let l = q.dequeue(0).unwrap();
        assert_eq!((l.item, l.delivery_count), (42, 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lease_ids_are_unique_and_monotonic_across_recovery() {
        let dir = tmp("ids");
        let cfg = LeaseConfig::new(&dir);
        let max_id = {
            let q = LeasedQueue::create(fresh_base(), None, cfg.clone()).unwrap();
            q.enqueue(0, 1);
            q.enqueue(0, 2);
            let a = q.dequeue(0).unwrap();
            let b = q.dequeue(0).unwrap();
            assert!(b.id > a.id);
            b.id
        };
        let (q, _) = LeasedQueue::recover(fresh_base(), None, cfg, None).unwrap();
        let r = q.dequeue(0).unwrap();
        assert!(r.id > max_id, "recovered grant reused a lease id");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
