//! Peek-lock consumption over any [`DurableQueue`].
//!
//! [`LeasedQueue`] wraps a base queue so that `dequeue` no longer destroys:
//! it returns a [`Lease`] while the item stays durably owned in the
//! [ack log](crate::log). Consumers [`ack`](LeasedQueue::ack) to retire,
//! [`nack`](LeasedQueue::nack) (or let the deadline pass) to redeliver with
//! an incremented delivery count, and items that exhaust their delivery
//! budget overflow to a dead-letter queue. See the crate docs for the state
//! machine and the crash-consistency argument.

use crate::log::{AckLog, Record, RecordKind};
use durable_queues::{DurableQueue, KeyedQueue};
use obs::flight::EventKind;
use obs::LazyCounter;
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use store::SyncPolicy;

// Settlement instruments, mirroring the volatile `LeaseStats` (which reset
// on recovery) with process-global monotonic counters the exporters read.
static GRANTS: LazyCounter = LazyCounter::new("lease.grant");
static ACKS: LazyCounter = LazyCounter::new("lease.ack");
static NACKS: LazyCounter = LazyCounter::new("lease.nack");
static EXPIRIES: LazyCounter = LazyCounter::new("lease.expire");
static DEAD: LazyCounter = LazyCounter::new("lease.dead");
static COMPACTIONS: LazyCounter = LazyCounter::new("lease.compaction");

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
    /// [`ExactlyOnce::create_for_groups`](crate::tx::ExactlyOnce::create_for_groups)).
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

/// What [`LeasedQueue::recover`] reconstructed from the ack log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveredLeases {
    /// Leases that were in a consumer's hands at the crash and are now
    /// queued for redelivery with an incremented delivery count.
    pub unacked: u64,
    /// Total items queued for redelivery (`unacked` + previously
    /// nacked/expired items that had not been regranted yet).
    pub redelivered: u64,
    /// Items dead-lettered *during recovery* because their next delivery
    /// would exceed the budget.
    pub dead_lettered: u64,
    /// Leases retired at recovery because the exactly-once cursor proved
    /// their ack transaction committed (the sidecar ack record was the only
    /// thing the crash swallowed).
    pub tx_acked: u64,
    /// Valid ack-log records replayed.
    pub log_records: u64,
}

struct InFlight {
    item: u64,
    delivery_count: u32,
    deadline: Instant,
}

struct PendingItem {
    /// The lease this redelivery supersedes (its `GRANT.prev` linkage).
    prev: u64,
    item: u64,
    /// Count the next grant will carry.
    delivery_count: u32,
}

struct LeaseState {
    log: AckLog,
    inflight: HashMap<u64, InFlight>,
    /// Expiry order with lazy deletion: an entry is live iff the lease is
    /// still in flight with exactly this deadline.
    deadlines: BinaryHeap<Reverse<(Instant, u64)>>,
    pending: VecDeque<PendingItem>,
    /// Leases whose exactly-once settlement transaction is running outside
    /// the lock: any other settlement attempt (ack, nack, or a second
    /// exactly-once ack) must see `NotInFlight` instead of racing it.
    /// Expiry reaping deliberately still applies — the documented late-ack
    /// window — so a wedged consumer transaction cannot strand the item.
    settling: HashSet<u64>,
    next_id: u64,
    stats: LeaseStats,
}

/// A peek-lock wrapper around any durable queue. See the
/// [module docs](self) and the crate docs.
///
/// All lease state transitions are serialised by one internal lock; the
/// base queue's own lock-free paths still run concurrently for enqueues
/// and for the destructive pop feeding fresh grants.
///
/// # Panics
///
/// Consume-path methods panic if an ack-log append fails at the I/O level:
/// a write of unknown durability would make every subsequent lease
/// transition unsound, so (like a message store losing its WAL device) the
/// process must restart and replay. Constructors return `io::Result`
/// instead, since nothing is in flight yet.
pub struct LeasedQueue<Q: DurableQueue> {
    base: Q,
    dlq: Option<Arc<dyn DurableQueue>>,
    lease_timeout: Duration,
    max_deliveries: u32,
    compact_after: u64,
    state: Mutex<LeaseState>,
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
        Self::check_dlq(&config, &dlq)?;
        let log = AckLog::create(&config.dir, config.sync)?;
        let state = LeaseState::fresh(log);
        Ok(Self::assemble(base, dlq, config, state))
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
    /// ([`ExactlyOnce::acked_ids`](crate::tx::ExactlyOnce::acked_ids),
    /// queried with the replayed log's generation so entries stamped by an
    /// older or recreated log are ignored) are retired here with repair ack
    /// records instead of being redelivered. Pass `None` for plain
    /// at-least-once deployments.
    pub fn recover(
        base: Q,
        dlq: Option<Arc<dyn DurableQueue>>,
        config: LeaseConfig,
        cursor: Option<&crate::tx::ExactlyOnce>,
    ) -> io::Result<(Self, RecoveredLeases)> {
        Self::check_dlq(&config, &dlq)?;
        let (mut log, replay) = AckLog::replay(&config.dir, config.sync)?;
        let tx_acked = cursor
            .map(|eo| eo.acked_ids(replay.generation))
            .unwrap_or_default();
        let mut pending = VecDeque::new();
        let mut recovered = RecoveredLeases {
            log_records: replay.records,
            ..RecoveredLeases::default()
        };

        let mut live = replay.live;
        for &id in &tx_acked {
            if live.remove(&id).is_some() {
                // The consumer's transaction committed; only the sidecar
                // ack record was lost to the crash. Repair it.
                log.append(&Record {
                    kind: RecordKind::Ack,
                    delivery_count: 0,
                    lease_id: id,
                    item: 0,
                    prev_lease_id: 0,
                })?;
                recovered.tx_acked += 1;
            }
        }

        // BTreeMap iteration = lease-id order = grant order, so recovered
        // redelivery preserves the original delivery order.
        for (id, lease) in live {
            let next = if lease.granted {
                recovered.unacked += 1;
                lease.delivery_count + 1
            } else {
                lease.delivery_count
            };
            if config.max_deliveries > 0 && next > config.max_deliveries {
                let dlq = dlq.as_ref().expect("checked by check_dlq");
                dlq.enqueue(0, lease.item);
                log.append(&Record {
                    kind: RecordKind::Dead,
                    delivery_count: 0,
                    lease_id: id,
                    item: 0,
                    prev_lease_id: 0,
                })?;
                recovered.dead_lettered += 1;
            } else {
                pending.push_back(PendingItem {
                    prev: id,
                    item: lease.item,
                    delivery_count: next,
                });
                recovered.redelivered += 1;
            }
        }
        let mut state = LeaseState::fresh(log);
        state.pending = pending;
        state.next_id = replay.next_lease_id.max(1);
        Ok((Self::assemble(base, dlq, config, state), recovered))
    }

    fn check_dlq(config: &LeaseConfig, dlq: &Option<Arc<dyn DurableQueue>>) -> io::Result<()> {
        if config.max_deliveries > 0 && dlq.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "max_deliveries > 0 requires a dead-letter queue (overflow \
                 would otherwise drop items)",
            ));
        }
        Ok(())
    }

    fn assemble(
        base: Q,
        dlq: Option<Arc<dyn DurableQueue>>,
        config: LeaseConfig,
        state: LeaseState,
    ) -> Self {
        LeasedQueue {
            base,
            dlq,
            lease_timeout: config.lease_timeout,
            max_deliveries: config.max_deliveries,
            compact_after: config.compact_after,
            state: Mutex::new(state),
        }
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
        let mut st = self.state.lock();
        self.reap_locked(&mut st, tid, now);
        if let Some(p) = st.pending.pop_front() {
            return Some(self.grant_locked(&mut st, now, p.item, p.delivery_count, p.prev));
        }
        drop(st);
        let item = self.base.dequeue(tid)?;
        let mut st = self.state.lock();
        Some(self.grant_locked(&mut st, now, item, 1, 0))
    }

    /// Durably retires `lease`: the item is consumed and will never be
    /// redelivered. Fails with [`LeaseError::NotInFlight`] if the lease
    /// already settled or expired.
    pub fn ack(&self, lease: &Lease) -> Result<(), LeaseError> {
        let mut st = self.state.lock();
        if st.settling.contains(&lease.id) || st.inflight.remove(&lease.id).is_none() {
            // Settling: an exactly-once transaction owns this lease's
            // settlement; racing it would double-settle.
            return Err(LeaseError::NotInFlight);
        }
        append_or_die(
            &mut st.log,
            &Record {
                kind: RecordKind::Ack,
                delivery_count: 0,
                lease_id: lease.id,
                item: 0,
                prev_lease_id: 0,
            },
        );
        st.stats.acked += 1;
        ACKS.incr();
        obs::flight::record(EventKind::LeaseAck, lease.id, 0);
        self.maybe_compact(&mut st);
        Ok(())
    }

    /// Returns `lease` unprocessed: the item is requeued for redelivery
    /// with `delivery_count + 1`, or dead-lettered if that would exceed
    /// the budget. `tid` is the caller's thread id on the dead-letter
    /// queue.
    pub fn nack(&self, tid: usize, lease: &Lease) -> Result<Redelivery, LeaseError> {
        let mut st = self.state.lock();
        if st.settling.contains(&lease.id) {
            return Err(LeaseError::NotInFlight);
        }
        let Some(f) = st.inflight.remove(&lease.id) else {
            return Err(LeaseError::NotInFlight);
        };
        st.stats.nacked += 1;
        NACKS.incr();
        let outcome = self.settle_returned(&mut st, tid, lease.id, f.item, f.delivery_count);
        if let Redelivery::Requeued {
            next_delivery_count,
        } = outcome
        {
            obs::flight::record(EventKind::LeaseNack, lease.id, next_delivery_count as u64);
        }
        Ok(outcome)
    }

    /// Reaps every lease whose deadline has passed, requeueing (or
    /// dead-lettering) the items exactly as [`nack`](Self::nack) would.
    /// Runs implicitly at the start of every [`dequeue`](Self::dequeue);
    /// call it directly to observe timeouts without consuming. Returns the
    /// number of leases reaped.
    pub fn reap_expired(&self, tid: usize) -> usize {
        let mut st = self.state.lock();
        self.reap_locked(&mut st, tid, Instant::now())
    }

    fn reap_locked(&self, st: &mut LeaseState, tid: usize, now: Instant) -> usize {
        let mut reaped = 0;
        while let Some(&Reverse((deadline, id))) = st.deadlines.peek() {
            // Lazy deletion: the heap entry is stale unless the lease is
            // still in flight with exactly this deadline. A stale top goes
            // whatever the clock says — otherwise, under a timeout that
            // outlives the run, every settled grant would stay in the heap.
            let live = st.inflight.get(&id).is_some_and(|f| f.deadline == deadline);
            if live && deadline > now {
                break;
            }
            st.deadlines.pop();
            if !live {
                continue;
            }
            let f = st.inflight.remove(&id).unwrap();
            st.stats.expired += 1;
            EXPIRIES.incr();
            let outcome = self.settle_returned(st, tid, id, f.item, f.delivery_count);
            if let Redelivery::Requeued {
                next_delivery_count,
            } = outcome
            {
                obs::flight::record(EventKind::LeaseExpire, id, next_delivery_count as u64);
            }
            reaped += 1;
        }
        reaped
    }

    /// An item came back (nack or expiry): requeue it for redelivery, or
    /// dead-letter it if the next delivery would exceed the budget.
    fn settle_returned(
        &self,
        st: &mut LeaseState,
        tid: usize,
        id: u64,
        item: u64,
        delivery_count: u32,
    ) -> Redelivery {
        if self.max_deliveries > 0 && delivery_count >= self.max_deliveries {
            // DLQ enqueue first, DEAD record second: a crash between the
            // two duplicates into the DLQ (at-least-once) instead of
            // losing the item.
            let dlq = self.dlq.as_ref().expect("checked at construction");
            dlq.enqueue(tid, item);
            append_or_die(
                &mut st.log,
                &Record {
                    kind: RecordKind::Dead,
                    delivery_count: 0,
                    lease_id: id,
                    item: 0,
                    prev_lease_id: 0,
                },
            );
            st.stats.dead_lettered += 1;
            DEAD.incr();
            obs::flight::record(EventKind::LeaseDead, id, item);
            self.maybe_compact(st);
            Redelivery::DeadLettered
        } else {
            let next = delivery_count + 1;
            append_or_die(
                &mut st.log,
                &Record {
                    kind: RecordKind::Pend,
                    delivery_count: next,
                    lease_id: id,
                    item,
                    prev_lease_id: 0,
                },
            );
            st.pending.push_back(PendingItem {
                prev: id,
                item,
                delivery_count: next,
            });
            Redelivery::Requeued {
                next_delivery_count: next,
            }
        }
    }

    fn grant_locked(
        &self,
        st: &mut LeaseState,
        now: Instant,
        item: u64,
        delivery_count: u32,
        prev: u64,
    ) -> Lease {
        let id = st.next_id;
        st.next_id += 1;
        append_or_die(
            &mut st.log,
            &Record {
                kind: RecordKind::Grant,
                delivery_count,
                lease_id: id,
                item,
                prev_lease_id: prev,
            },
        );
        let deadline = now + self.lease_timeout;
        st.inflight.insert(
            id,
            InFlight {
                item,
                delivery_count,
                deadline,
            },
        );
        st.deadlines.push(Reverse((deadline, id)));
        st.stats.granted += 1;
        GRANTS.incr();
        obs::flight::record(EventKind::LeaseGrant, id, item);
        if delivery_count > 1 {
            st.stats.redelivered += 1;
        }
        Lease {
            id,
            item,
            delivery_count,
            deadline,
        }
    }

    /// Compacts the ack log when retired records dominate the live set
    /// 4:1 past the configured floor — the "acked prefix dominates" test.
    fn maybe_compact(&self, st: &mut LeaseState) {
        if self.compact_after == 0 {
            return;
        }
        let live = (st.inflight.len() + st.pending.len()) as u64;
        if st.log.records() <= self.compact_after || st.log.records() <= live * 4 {
            return;
        }
        let snapshot: Vec<Record> = st
            .inflight
            .iter()
            .map(|(&id, f)| Record {
                kind: RecordKind::Grant,
                delivery_count: f.delivery_count,
                lease_id: id,
                item: f.item,
                prev_lease_id: 0,
            })
            .chain(st.pending.iter().map(|p| Record {
                kind: RecordKind::Pend,
                delivery_count: p.delivery_count,
                lease_id: p.prev,
                item: p.item,
                prev_lease_id: 0,
            }))
            .collect();
        // The snapshot only holds live leases, so the id high-water mark
        // rides the rewritten header — without it, settling the
        // highest-numbered leases and then crashing would reuse their ids.
        let next_id = st.next_id;
        let live_records = snapshot.len() as u64;
        if let Err(e) = st.log.compact(next_id, snapshot) {
            panic!("ack log compaction failed: {e}");
        }
        st.stats.compactions += 1;
        COMPACTIONS.incr();
        obs::flight::record(EventKind::LeaseCompaction, live_records, 0);
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
        self.dlq.as_ref()
    }

    /// Volatile counters since creation/recovery.
    pub fn stats(&self) -> LeaseStats {
        self.state.lock().stats
    }

    /// Leases currently in a consumer's hands.
    pub fn in_flight(&self) -> usize {
        self.state.lock().inflight.len()
    }

    /// Items awaiting redelivery (nacked/expired/recovered, not yet
    /// regranted).
    pub fn pending_redelivery(&self) -> usize {
        self.state.lock().pending.len()
    }

    /// Records currently in the ack log (drops after compaction).
    pub fn log_records(&self) -> u64 {
        self.state.lock().log.records()
    }

    /// The configured lease timeout.
    pub fn lease_timeout(&self) -> Duration {
        self.lease_timeout
    }

    /// The configured delivery budget (`0` = unlimited).
    pub fn max_deliveries(&self) -> u32 {
        self.max_deliveries
    }
}

impl<Q: KeyedQueue> LeasedQueue<Q> {
    /// Key-routed enqueue on the base queue (per-key FIFO when the base is
    /// a key-hash sharded queue).
    pub fn enqueue_keyed(&self, tid: usize, key: u64, item: u64) {
        self.base.enqueue_keyed(tid, key, item);
    }
}

impl LeaseState {
    fn fresh(log: AckLog) -> Self {
        LeaseState {
            log,
            inflight: HashMap::new(),
            deadlines: BinaryHeap::new(),
            pending: VecDeque::new(),
            settling: HashSet::new(),
            // Lease id 0 is reserved: it is the "no previous lease"
            // sentinel in GRANT records and the "nothing acked" sentinel
            // in the exactly-once cursor.
            next_id: 1,
            stats: LeaseStats::default(),
        }
    }
}

/// Removes a lease's *settling* mark on unwind; disarmed on the normal
/// path, where [`LeasedQueue::ack_exactly_once`] removes the mark itself
/// under the settlement lock.
struct SettlingMark<'a> {
    state: &'a Mutex<LeaseState>,
    id: u64,
    armed: bool,
}

impl Drop for SettlingMark<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.state.lock().settling.remove(&self.id);
        }
    }
}

fn append_or_die(log: &mut AckLog, rec: &Record) {
    if let Err(e) = log.append(rec) {
        panic!(
            "ack log append failed ({}): {e}; the log's durability is now \
             unknowable, restart and replay",
            log.path().display()
        );
    }
}

// ----------------------------------------------------------------------
// Exactly-once handoff
// ----------------------------------------------------------------------

impl<Q: DurableQueue> LeasedQueue<Q> {
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
        // Validate the cursor address before taking any lock or marking
        // anything settling: an invalid tid used to surface as an assert
        // *inside* the transaction, after the caller's body had run.
        if tid >= pmem::MAX_THREADS {
            return Err(LeaseError::ThreadOutOfRange {
                tid,
                max: pmem::MAX_THREADS,
            });
        }
        let generation = {
            let mut st = self.state.lock();
            let in_pending = st.pending.iter().any(|p| p.prev == lease.id);
            if st.settling.contains(&lease.id)
                || (!st.inflight.contains_key(&lease.id) && !in_pending)
            {
                return Err(LeaseError::NotInFlight);
            }
            st.settling.insert(lease.id);
            st.log.generation()
        };
        // The mark must come off even if `body` unwinds, or the lease could
        // never be settled again; on the normal path it is removed under
        // the same lock that settles, so no second settlement can slip in
        // between transaction commit and settlement.
        let mut mark = SettlingMark {
            state: &self.state,
            id: lease.id,
            armed: true,
        };
        let out = eo.run(0, tid, lease.id, generation, body);
        let mut st = self.state.lock();
        st.settling.remove(&lease.id);
        mark.armed = false;
        if st.inflight.remove(&lease.id).is_some() {
            st.stats.acked += 1;
        } else if let Some(pos) = st.pending.iter().position(|p| p.prev == lease.id) {
            // Expired mid-transaction but not yet regranted: the committed
            // ack wins, cancel the redelivery.
            st.pending.remove(pos);
            st.stats.acked += 1;
        } else {
            // Regranted to another consumer before our commit: that grant
            // retired this lease id, so there is nothing left to ack — the
            // item will be delivered again despite the committed work.
            st.stats.late_acks += 1;
            return Ok(out);
        }
        ACKS.incr();
        obs::flight::record(EventKind::LeaseAck, lease.id, 0);
        append_or_die(
            &mut st.log,
            &Record {
                kind: RecordKind::Ack,
                delivery_count: 0,
                lease_id: lease.id,
                item: 0,
                prev_lease_id: 0,
            },
        );
        self.maybe_compact(&mut st);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{HEADER_LEN, LEASE_LOG_FILE, RECORD_LEN};
    use crate::tx::ExactlyOnce;
    use durable_queues::{OptUnlinkedQueue, QueueConfig, RecoverableQueue};
    use pmem::{PmemPool, PoolConfig};
    use ptm::FlushPolicy;
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

    /// Regression: heap entries used to leave only once their deadline had
    /// passed, so under a timeout that outlives the run every grant left
    /// 24 bytes behind for good.
    #[test]
    fn settled_leases_do_not_pile_up_in_the_deadline_heap() {
        let dir = tmp("heap-bound");
        let config = LeaseConfig::new(&dir).with_timeout(Duration::from_secs(24 * 3600));
        let q = LeasedQueue::create(fresh_base(), None, config).unwrap();
        for i in 1..=100_000u64 {
            q.enqueue(0, i);
            let lease = q.dequeue(0).unwrap();
            q.ack(&lease).unwrap();
            let st = q.state.lock();
            assert!(
                st.deadlines.len() <= st.inflight.len() + 1,
                "cycle {i}: {} heap entries for {} leases in flight",
                st.deadlines.len(),
                st.inflight.len()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
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
        let dir = tmp("compact");
        let cfg = LeaseConfig::new(&dir).with_compact_after(16);
        let q = LeasedQueue::create(fresh_base(), None, cfg.clone()).unwrap();
        let keeper_item = 777u64;
        q.enqueue(0, keeper_item);
        let keeper = q.dequeue(0).unwrap(); // stays in flight throughout
        for i in 1..=40u64 {
            q.enqueue(0, i);
            let l = q.dequeue(0).unwrap();
            q.ack(&l).unwrap();
        }
        assert!(q.stats().compactions >= 1, "compaction never triggered");
        assert!(q.log_records() < 40, "log did not shrink");
        drop(q);

        let (q, rec) = LeasedQueue::recover(fresh_base(), None, cfg, None).unwrap();
        assert_eq!(rec.redelivered, 1, "live lease lost by compaction");
        let r = q.dequeue(0).unwrap();
        assert_eq!((r.item, r.delivery_count), (keeper_item, 2));
        assert!(r.id > keeper.id);
        std::fs::remove_dir_all(&dir).unwrap();
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
        let eo = ExactlyOnce::create(Arc::clone(&pool), FlushPolicy::BatchedCommit);
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
        let eo = ExactlyOnce::create(Arc::clone(&pool), FlushPolicy::BatchedCommit);
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
        let eo = ExactlyOnce::create(Arc::clone(&pool), FlushPolicy::BatchedCommit);
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
        let eo = ExactlyOnce::create(Arc::clone(&pool), FlushPolicy::BatchedCommit);
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
