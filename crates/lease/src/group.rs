//! Consumer groups: N independent cursors over one queue, competing
//! consumers within each.
//!
//! A [`GroupedQueue`] wraps a base queue so that *every* group sees every
//! item (publish/subscribe between groups) while consumers *within* a
//! group compete for items (work-sharing within a group) — the two
//! consumption shapes Gray's "Queues Are Databases" composes and every
//! production broker ships. Each group owns:
//!
//! * a **[`SegmentedLog`]** in `groups/<name>/` — the same 40-byte CRC'd
//!   records as the single-file ack log, but rotating segments replace
//!   whole-file compaction (see the [`segments`](crate::segments) docs),
//! * its **own cursor of the crate's settlement engine, behind its own
//!   lock** — competing consumers of group A never contend with group B's,
//! * its own dead-letter queue and delivery accounting.
//!
//! # Dispatch: the fan-out commit discipline
//!
//! The base queue consumes destructively, so an item popped for one group
//! would be lost to the rest on a crash. A consumer that finds its group's
//! pending set dry therefore pops under a dedicated dispatch lock and
//! records the item in **each** group's log, in stripe order, before
//! releasing it: a `PEND` — "this item awaits its first delivery" — in
//! every other group, and in its own group the `PEND` together with the
//! `GRANT` (`prev` = the pend's lease id) that hands it the lease, in one
//! lock hold, one 80-byte write and one force. It returns that lease
//! instead of going back to compete for it. Replay already treats `PEND`
//! as an upsert that may precede any grant, so the per-group delivery
//! cursor is implicit in the per-group log, and recovery needs no new
//! machinery.
//!
//! Every one of those forces runs outside the group's state lock (see the
//! engine's docs) and completes inside the dispatch lock, so a second item
//! is popped only once the first is durable everywhere. A crash
//! mid-fan-out thus loses the in-transit item only for the groups whose
//! `PEND` had not landed — the same ≤ 1 in-transit item window a
//! [`LeasedQueue`](crate::LeasedQueue) has between its pop and its
//! `GRANT`, now per group. A message over N groups costs 3N − 1 journal
//! forces: N − 1 `PEND`s, the dispatcher's `PEND` + `GRANT`, N − 1
//! `GRANT`s and N `ACK`s.
//!
//! Every other grant comes from the group's pending set, under that
//! group's lock only: the dispatch lock serialises base pops, not
//! settlement, so grant/ack throughput scales with groups instead of
//! flatlining on one mutex. If a racing nack or expiry put an older
//! delivery into the dispatcher's own pending set, it is granted that one
//! (its `PEND` and the older item's `GRANT` are then two writes under the
//! one force) and the popped item waits its turn.
//!
//! Lease ids are **per group** (each group's log is its own id space with
//! its own generation); the exactly-once cursor addresses stripes by
//! `(group, tid)` so the same consumer thread can ack in several groups
//! without clobbering its repair window.

use crate::engine::{Consumer, Instruments, Settings};
use crate::queue::{Lease, LeaseError, Redelivery};
use crate::segments::{SegmentedLog, DEFAULT_ROTATE_RECORDS};
use durable_queues::{DurableQueue, KeyedQueue};
use obs::flight::EventKind;
use obs::LazyCounter;
use std::collections::HashSet;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use store::SyncPolicy;

static DISPATCHES: LazyCounter = LazyCounter::new("lease.group.dispatch");
static INSTRUMENTS: Instruments = Instruments {
    grant: LazyCounter::new("lease.group.grant"),
    ack: LazyCounter::new("lease.group.ack"),
    nack: LazyCounter::new("lease.group.nack"),
    expire: LazyCounter::new("lease.group.expire"),
    dead: LazyCounter::new("lease.group.dead"),
};

/// Directory (inside a grouped deployment) holding one subdirectory per
/// consumer group.
pub const GROUPS_DIR: &str = "groups";

/// Configuration of a [`GroupedQueue`].
#[derive(Clone, Debug)]
pub struct GroupConfig {
    /// Deployment directory; each group's segments live in
    /// `dir/groups/<name>/`.
    pub dir: PathBuf,
    /// Group names, in stripe order (index = the exactly-once cursor
    /// stripe). Must be non-empty, unique, and path-safe.
    pub groups: Vec<String>,
    /// How long a consumer may hold a lease before it expires.
    pub lease_timeout: Duration,
    /// Delivery budget before dead-lettering, per group (`0` = unlimited;
    /// non-zero requires a dead-letter queue per group).
    pub max_deliveries: u32,
    /// Durability tier of the segment logs.
    pub sync: SyncPolicy,
    /// Records per segment before rotation (`0` = never rotate).
    pub rotate_records: u64,
}

impl GroupConfig {
    /// A configuration with the given deployment directory and group
    /// names, and the defaults: 30 s lease timeout, unlimited deliveries,
    /// process-crash durability, rotation every
    /// [`DEFAULT_ROTATE_RECORDS`] records.
    pub fn new(
        dir: impl Into<PathBuf>,
        groups: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        GroupConfig {
            dir: dir.into(),
            groups: groups.into_iter().map(Into::into).collect(),
            lease_timeout: Duration::from_secs(30),
            max_deliveries: 0,
            sync: SyncPolicy::default(),
            rotate_records: DEFAULT_ROTATE_RECORDS,
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

    /// Overrides the rotation threshold (`0` = never rotate).
    pub fn with_rotate_records(mut self, records: u64) -> Self {
        self.rotate_records = records;
        self
    }

    fn group_dir(&self, name: &str) -> PathBuf {
        self.dir.join(GROUPS_DIR).join(name)
    }

    /// Group `stripe`'s engine settings: the `lease.group.*` instruments
    /// and its own stripe of the exactly-once cursor.
    fn settings(&self, stripe: usize) -> Settings {
        Settings {
            lease_timeout: self.lease_timeout,
            max_deliveries: self.max_deliveries,
            instruments: &INSTRUMENTS,
            stripe,
        }
    }

    fn validate(&self, dlqs: &[Option<Arc<dyn DurableQueue>>]) -> io::Result<()> {
        if self.groups.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a grouped queue needs at least one consumer group",
            ));
        }
        let unique: HashSet<&str> = self.groups.iter().map(String::as_str).collect();
        if unique.len() != self.groups.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "consumer group names must be unique",
            ));
        }
        for name in &self.groups {
            if name.is_empty()
                || !name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
            {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "consumer group name {name:?} is not path-safe \
                         (use [A-Za-z0-9._-]+)"
                    ),
                ));
            }
        }
        if dlqs.len() != self.groups.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "expected one dead-letter slot per group ({} groups, {} slots)",
                    self.groups.len(),
                    dlqs.len()
                ),
            ));
        }
        if self.max_deliveries > 0 && dlqs.iter().any(Option::is_none) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "max_deliveries > 0 requires a dead-letter queue for every group \
                 (overflow would otherwise drop items)",
            ));
        }
        Ok(())
    }
}

/// Volatile per-group counters since creation/recovery (the segment logs
/// are the durable record).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Items fanned out into this group's pending set by dispatch.
    pub dispatched: u64,
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
    /// Items moved to this group's dead-letter queue.
    pub dead_lettered: u64,
    /// Exactly-once acks that committed after their lease had been reaped
    /// *and* regranted (the documented at-least-once degradation window).
    pub late_acks: u64,
    /// Segment rotations since creation/recovery.
    pub rotations: u64,
    /// Segments retired (unlinked) since creation/recovery.
    pub segments_retired: u64,
    /// Valid records across the group's surviving segments.
    pub log_records: u64,
    /// Segment files currently on disk.
    pub segments: u32,
}

/// What grouped recovery reconstructed for one group — the same counts
/// [`open_grouped_dir`](crate::open_grouped_dir) reports through
/// [`shard::RecoveryReport::groups`].
pub use shard::GroupRecovery as GroupRecovered;

struct GroupSlot {
    name: String,
    consumer: Consumer<SegmentedLog>,
}

/// A queue with consumer groups. See the [module docs](self).
///
/// # Panics
///
/// Consume-path methods panic if a segment-log append or force fails at
/// the I/O level: a record of unknown durability makes every subsequent
/// transition unsound, so the process must restart and replay.
pub struct GroupedQueue<Q: DurableQueue> {
    base: Q,
    /// Serialises destructive base pops so each popped item is fanned out
    /// to every group exactly once. Never held while a group lock is
    /// *entered by settlement paths* — only dispatch takes group locks
    /// under it, one at a time, in stripe order.
    dispatch: Mutex<()>,
    /// One per group, in stripe order; never empty.
    groups: Vec<GroupSlot>,
}

impl<Q: DurableQueue> GroupedQueue<Q> {
    /// Wraps `base` with a fresh segmented ack log per group (truncating
    /// any previous ones — use [`recover`](Self::recover) to resume).
    /// `dlqs` holds one dead-letter queue slot per group, in group order;
    /// every slot must be `Some` when `config.max_deliveries > 0`.
    pub fn create(
        base: Q,
        dlqs: Vec<Option<Arc<dyn DurableQueue>>>,
        config: GroupConfig,
    ) -> io::Result<Self> {
        config.validate(&dlqs)?;
        let mut groups = Vec::with_capacity(config.groups.len());
        for (stripe, (name, dlq)) in config.groups.iter().zip(dlqs).enumerate() {
            let log =
                SegmentedLog::create(&config.group_dir(name), config.sync, config.rotate_records)?;
            groups.push(GroupSlot {
                name: name.clone(),
                consumer: Consumer::fresh(log, dlq, config.settings(stripe)),
            });
        }
        Ok(GroupedQueue {
            base,
            dispatch: Mutex::new(()),
            groups,
        })
    }

    /// Reopens a grouped queue after a restart, replaying every group's
    /// segment directory independently: leases granted at the crash are
    /// requeued with `delivery_count + 1`, pending items keep their
    /// recorded next count, and items whose next delivery would exceed the
    /// budget go to the group's dead-letter queue.
    ///
    /// `cursor` is the deployment's exactly-once engine, when it has one
    /// (created with at least as many stripes as there are groups): each
    /// group's stripe is queried with *that group's* log generation, so
    /// committed-but-unrecorded acks are repaired per group and stale
    /// stripes repair nothing.
    pub fn recover(
        base: Q,
        dlqs: Vec<Option<Arc<dyn DurableQueue>>>,
        config: GroupConfig,
        cursor: Option<&crate::tx::ExactlyOnce>,
    ) -> io::Result<(Self, Vec<GroupRecovered>)> {
        config.validate(&dlqs)?;
        if let Some(eo) = cursor {
            if eo.groups() < config.groups.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "exactly-once cursor has {} stripe(s) but the deployment has {} \
                         group(s)",
                        eo.groups(),
                        config.groups.len()
                    ),
                ));
            }
        }
        let mut groups = Vec::with_capacity(config.groups.len());
        let mut reports = Vec::with_capacity(config.groups.len());
        for (stripe, (name, dlq)) in config.groups.iter().zip(dlqs).enumerate() {
            let (log, gr) =
                SegmentedLog::replay(&config.group_dir(name), config.sync, config.rotate_records)?;
            let (consumer, r) =
                Consumer::recover(log, gr.replay, dlq, config.settings(stripe), cursor)?;
            groups.push(GroupSlot {
                name: name.clone(),
                consumer,
            });
            reports.push(GroupRecovered {
                name: name.clone(),
                unacked: r.unacked,
                redelivered: r.redelivered,
                dead_lettered: r.dead_lettered,
                tx_acked: r.tx_acked,
                log_records: r.log_records,
                segments: gr.segments,
                retired_leftovers: gr.retired_leftovers,
            });
        }
        Ok((
            GroupedQueue {
                base,
                dispatch: Mutex::new(()),
                groups,
            },
            reports,
        ))
    }

    // ------------------------------------------------------------------
    // Produce side (passthrough)
    // ------------------------------------------------------------------

    /// Appends `item` on the base queue. Every group will see it.
    pub fn enqueue(&self, tid: usize, item: u64) {
        self.base.enqueue(tid, item);
    }

    // ------------------------------------------------------------------
    // Handles and introspection
    // ------------------------------------------------------------------

    /// A competing-consumer handle on the named group, or `None` if no
    /// such group exists. Handles are cheap to clone and share.
    pub fn group(self: &Arc<Self>, name: &str) -> Option<ConsumerGroup<Q>> {
        let group = self.groups.iter().position(|g| g.name == name)?;
        Some(ConsumerGroup {
            shared: Arc::clone(self),
            group,
        })
    }

    /// Handles on every group, in stripe order.
    pub fn handles(self: &Arc<Self>) -> Vec<ConsumerGroup<Q>> {
        (0..self.groups.len())
            .map(|group| ConsumerGroup {
                shared: Arc::clone(self),
                group,
            })
            .collect()
    }

    /// Group names, in stripe order.
    pub fn group_names(&self) -> Vec<&str> {
        self.groups.iter().map(|g| g.name.as_str()).collect()
    }

    /// The wrapped base queue.
    pub fn base(&self) -> &Q {
        &self.base
    }

    /// The named group's dead-letter queue, if one is attached.
    pub fn dlq(&self, name: &str) -> Option<&Arc<dyn DurableQueue>> {
        self.groups.iter().find(|g| g.name == name)?.consumer.dlq()
    }

    /// The configured lease timeout (one value for every group).
    pub fn lease_timeout(&self) -> Duration {
        self.groups[0].consumer.settings().lease_timeout
    }

    /// The configured delivery budget (`0` = unlimited; one value for
    /// every group).
    pub fn max_deliveries(&self) -> u32 {
        self.groups[0].consumer.settings().max_deliveries
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    fn dequeue_in(&self, group: usize, tid: usize) -> Option<Lease> {
        let consumer = &self.groups[group].consumer;
        let now = Instant::now();
        if let Some(lease) = consumer.grant_pending(tid, now) {
            return Some(lease);
        }
        // Pending is dry: pop one item from the base queue and durably fan
        // it out, one `PEND` per group in stripe order — with our own
        // group's `GRANT` riding its `PEND`, so the lease is ours without
        // competing for it.
        let dispatch = obs::locked(&self.dispatch);
        let Some(item) = self.base.dequeue(tid) else {
            drop(dispatch);
            // The base is empty, but a racing dispatcher may have fanned
            // out between our two lock scopes.
            return consumer.grant_pending(tid, now);
        };
        let mut lease = None;
        for (stripe, slot) in self.groups.iter().enumerate() {
            if stripe == group {
                lease = Some(slot.consumer.offer_and_grant(now, item));
            } else {
                slot.consumer.offer(item);
            }
        }
        DISPATCHES.incr();
        obs::flight::record(EventKind::LeaseDispatch, item, self.groups.len() as u64);
        lease
    }
}

impl<Q: KeyedQueue> GroupedQueue<Q> {
    /// Key-routed enqueue on the base queue (per-key FIFO when the base is
    /// a key-hash sharded queue).
    pub fn enqueue_keyed(&self, tid: usize, key: u64, item: u64) {
        self.base.enqueue_keyed(tid, key, item);
    }
}

/// A competing-consumer handle on one group of a [`GroupedQueue`]. Clones
/// share the group; pass one clone per consumer thread.
pub struct ConsumerGroup<Q: DurableQueue> {
    shared: Arc<GroupedQueue<Q>>,
    group: usize,
}

impl<Q: DurableQueue> Clone for ConsumerGroup<Q> {
    fn clone(&self) -> Self {
        ConsumerGroup {
            shared: Arc::clone(&self.shared),
            group: self.group,
        }
    }
}

impl<Q: DurableQueue> ConsumerGroup<Q> {
    fn consumer(&self) -> &Consumer<SegmentedLog> {
        &self.shared.groups[self.group].consumer
    }

    /// The group's name.
    pub fn name(&self) -> &str {
        &self.shared.groups[self.group].name
    }

    /// The group's stripe index (its exactly-once cursor stripe).
    pub fn index(&self) -> usize {
        self.group
    }

    /// The owning grouped queue.
    pub fn queue(&self) -> &Arc<GroupedQueue<Q>> {
        &self.shared
    }

    /// Grants a lease on this group's next item: redeliveries first, then
    /// the group's share of fresh dispatches from the base queue. Returns
    /// `None` when both the group's pending set and the base queue are
    /// empty. Competing consumers of the same group each see a disjoint
    /// subset of items; other groups' cursors are unaffected.
    pub fn dequeue(&self, tid: usize) -> Option<Lease> {
        self.shared.dequeue_in(self.group, tid)
    }

    /// Durably retires `lease` within this group. Other groups' copies of
    /// the item are untouched.
    pub fn ack(&self, lease: &Lease) -> Result<(), LeaseError> {
        self.consumer().ack(lease)
    }

    /// Returns `lease` unprocessed: requeued for redelivery within this
    /// group, or dead-lettered past the budget.
    pub fn nack(&self, tid: usize, lease: &Lease) -> Result<Redelivery, LeaseError> {
        self.consumer().nack(tid, lease)
    }

    /// Reaps this group's expired leases (also runs at the start of every
    /// [`dequeue`](Self::dequeue)). Returns the number reaped.
    pub fn reap_expired(&self, tid: usize) -> usize {
        self.consumer().reap_expired(tid)
    }

    /// Acks `lease` and the consumer's own writes in one redo-log
    /// transaction, on this group's `(group, tid)` cursor stripe — the
    /// grouped form of
    /// [`LeasedQueue::ack_exactly_once`](crate::LeasedQueue::ack_exactly_once),
    /// with the same settling discipline and late-ack window.
    ///
    /// Fails with [`LeaseError::ThreadOutOfRange`] /
    /// [`LeaseError::GroupOutOfRange`] — before anything runs — if the
    /// `(group, tid)` pair does not address a stripe of `eo`.
    pub fn ack_exactly_once<R>(
        &self,
        tid: usize,
        lease: &Lease,
        eo: &crate::tx::ExactlyOnce,
        body: impl FnOnce(&mut ptm::Tx<'_>) -> R,
    ) -> Result<R, LeaseError> {
        self.consumer().ack_exactly_once(tid, lease, eo, body)
    }

    /// Volatile counters since creation/recovery, segment accounting
    /// included.
    pub fn stats(&self) -> GroupStats {
        self.consumer().observe(|c, log| GroupStats {
            dispatched: c.offered,
            granted: c.granted,
            redelivered: c.redelivered,
            acked: c.acked,
            nacked: c.nacked,
            expired: c.expired,
            dead_lettered: c.dead_lettered,
            late_acks: c.late_acks,
            rotations: log.rotations(),
            segments_retired: log.retired(),
            log_records: log.records(),
            segments: log.segments(),
        })
    }

    /// Leases currently in this group's consumers' hands.
    pub fn in_flight(&self) -> usize {
        self.consumer().in_flight()
    }

    /// Items awaiting (re)delivery in this group.
    pub fn pending_redelivery(&self) -> usize {
        self.consumer().pending()
    }

    /// This group's dead-letter queue, if one is attached.
    pub fn dlq(&self) -> Option<&Arc<dyn DurableQueue>> {
        self.consumer().dlq()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::ExactlyOnce;
    use durable_queues::{OptUnlinkedQueue, QueueConfig, RecoverableQueue};
    use pmem::{PmemPool, PoolConfig};

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lease-group-{tag}-{}", std::process::id()));
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

    fn no_dlqs(n: usize) -> Vec<Option<Arc<dyn DurableQueue>>> {
        (0..n).map(|_| None).collect()
    }

    #[test]
    fn every_group_sees_every_item_once() {
        let dir = tmp("fanout");
        let q = Arc::new(
            GroupedQueue::create(
                fresh_base(),
                no_dlqs(2),
                GroupConfig::new(&dir, ["alpha", "beta"]),
            )
            .unwrap(),
        );
        for i in 1..=5u64 {
            q.enqueue(0, i);
        }
        let alpha = q.group("alpha").unwrap();
        let beta = q.group("beta").unwrap();
        assert!(q.group("gamma").is_none());

        let mut seen_a = Vec::new();
        while let Some(l) = alpha.dequeue(0) {
            seen_a.push(l.item);
            alpha.ack(&l).unwrap();
        }
        let mut seen_b = Vec::new();
        while let Some(l) = beta.dequeue(1) {
            seen_b.push(l.item);
            beta.ack(&l).unwrap();
        }
        assert_eq!(seen_a, vec![1, 2, 3, 4, 5]);
        assert_eq!(seen_b, vec![1, 2, 3, 4, 5]);
        assert_eq!(alpha.stats().dispatched, 5);
        assert_eq!(beta.stats().acked, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn consumers_within_a_group_compete_for_disjoint_items() {
        let dir = tmp("compete");
        let q = Arc::new(
            GroupedQueue::create(fresh_base(), no_dlqs(1), GroupConfig::new(&dir, ["only"]))
                .unwrap(),
        );
        for i in 1..=200u64 {
            q.enqueue(0, i);
        }
        let g = q.group("only").unwrap();
        let collected: Vec<Vec<u64>> = std::thread::scope(|s| {
            (0..4usize)
                .map(|c| {
                    let g = g.clone();
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some(l) = g.dequeue(c) {
                            mine.push(l.item);
                            g.ack(&l).unwrap();
                        }
                        mine
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let mut all: Vec<u64> = collected.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (1..=200).collect::<Vec<_>>(), "lost or doubled items");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn groups_settle_independently_nack_and_dlq() {
        let dir = tmp("dlq");
        let dlq_a = fresh_dlq();
        let dlq_b = fresh_dlq();
        let q = Arc::new(
            GroupedQueue::create(
                fresh_base(),
                vec![Some(Arc::clone(&dlq_a)), Some(Arc::clone(&dlq_b))],
                GroupConfig::new(&dir, ["a", "b"]).with_max_deliveries(2),
            )
            .unwrap(),
        );
        q.enqueue(0, 42);
        let a = q.group("a").unwrap();
        let b = q.group("b").unwrap();

        // Group a poisons the item past its budget; group b just acks it.
        let l1 = a.dequeue(0).unwrap();
        assert_eq!(
            a.nack(0, &l1).unwrap(),
            Redelivery::Requeued {
                next_delivery_count: 2
            }
        );
        let l2 = a.dequeue(0).unwrap();
        assert_eq!(l2.delivery_count, 2);
        assert_eq!(a.nack(0, &l2).unwrap(), Redelivery::DeadLettered);
        assert!(a.dequeue(0).is_none());

        let lb = b.dequeue(1).unwrap();
        assert_eq!((lb.item, lb.delivery_count), (42, 1));
        b.ack(&lb).unwrap();

        assert_eq!(drain(dlq_a.as_ref()), vec![42]);
        assert!(drain(dlq_b.as_ref()).is_empty(), "b's DLQ saw a's poison");
        assert_eq!(a.stats().dead_lettered, 1);
        assert_eq!(b.stats().acked, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_is_per_group_and_isolated() {
        let dir = tmp("recover");
        let cfg = GroupConfig::new(&dir, ["a", "b"]);
        {
            let q = Arc::new(GroupedQueue::create(fresh_base(), no_dlqs(2), cfg.clone()).unwrap());
            for i in 1..=3u64 {
                q.enqueue(0, i * 10);
            }
            let a = q.group("a").unwrap();
            let b = q.group("b").unwrap();
            // a acks 10, holds 20 and 30; b acks everything.
            let l = a.dequeue(0).unwrap();
            a.ack(&l).unwrap();
            let _h1 = a.dequeue(0).unwrap();
            let _h2 = a.dequeue(0).unwrap();
            while let Some(l) = b.dequeue(1) {
                b.ack(&l).unwrap();
            }
            // Crash: drop without settling a's two in-flight leases.
        }
        let (q, reports) = GroupedQueue::recover(fresh_base(), no_dlqs(2), cfg, None).unwrap();
        let q = Arc::new(q);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].name, "a");
        assert_eq!(reports[0].unacked, 2);
        assert_eq!(reports[0].redelivered, 2);
        assert_eq!(reports[1].name, "b");
        assert_eq!(reports[1].unacked, 0);
        assert_eq!(reports[1].redelivered, 0, "b's settled items resurrected");

        let a = q.group("a").unwrap();
        let b = q.group("b").unwrap();
        let r1 = a.dequeue(0).unwrap();
        assert_eq!((r1.item, r1.delivery_count), (20, 2));
        let r2 = a.dequeue(0).unwrap();
        assert_eq!((r2.item, r2.delivery_count), (30, 2));
        assert!(a.dequeue(0).is_none(), "a's acked item resurrected");
        assert!(b.dequeue(1).is_none(), "b saw items after acking all");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_under_traffic_survives_recovery() {
        let dir = tmp("rotation");
        let cfg = GroupConfig::new(&dir, ["g"]).with_rotate_records(8);
        let mut held_item = 0;
        {
            let q = Arc::new(GroupedQueue::create(fresh_base(), no_dlqs(1), cfg.clone()).unwrap());
            let g = q.group("g").unwrap();
            for i in 1..=50u64 {
                q.enqueue(0, i);
                let l = g.dequeue(0).unwrap();
                if i == 50 {
                    held_item = l.item;
                    break;
                }
                g.ack(&l).unwrap();
            }
            let s = g.stats();
            assert!(s.rotations >= 2, "rotation never triggered: {s:?}");
            assert!(s.segments_retired >= 1, "retirement never triggered: {s:?}");
            assert!(s.segments <= 3, "settled segments piled up: {s:?}");
        }
        let (q, reports) = GroupedQueue::recover(fresh_base(), no_dlqs(1), cfg, None).unwrap();
        let q = Arc::new(q);
        assert_eq!(reports[0].redelivered, 1);
        let g = q.group("g").unwrap();
        let r = g.dequeue(0).unwrap();
        assert_eq!((r.item, r.delivery_count), (held_item, 2));
        assert!(g.dequeue(0).is_none(), "settled item resurrected");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exactly_once_repairs_on_the_groups_own_stripe() {
        let dir = tmp("eo");
        let cfg = GroupConfig::new(&dir, ["a", "b"]);
        let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(4 << 20)));
        let eo = ExactlyOnce::create(Arc::clone(&pool), 2);
        let word = pool.alloc_raw(8, 8);
        {
            let q = Arc::new(GroupedQueue::create(fresh_base(), no_dlqs(2), cfg.clone()).unwrap());
            q.enqueue(0, 7);
            let a = q.group("a").unwrap();
            let b = q.group("b").unwrap();
            let la = a.dequeue(0).unwrap();
            a.ack_exactly_once(0, &la, &eo, |tx| tx.write(word, 1))
                .unwrap();
            let _lb = b.dequeue(0).unwrap(); // b crashes mid-flight
        }
        // Chop a's sidecar ACK to simulate the documented crash window:
        // the transaction committed, the segment append was lost.
        let a_dir = dir.join(GROUPS_DIR).join("a");
        let seg = a_dir.join("segment-0000.log");
        let len = std::fs::metadata(&seg).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - crate::log::RECORD_LEN as u64).unwrap();
        drop(f);

        let (q, reports) = GroupedQueue::recover(fresh_base(), no_dlqs(2), cfg, Some(&eo)).unwrap();
        let q = Arc::new(q);
        assert_eq!(reports[0].tx_acked, 1, "a's committed ack not repaired");
        assert_eq!(reports[0].redelivered, 0);
        assert_eq!(reports[1].tx_acked, 0, "a's stripe repaired b's lease");
        assert_eq!(reports[1].redelivered, 1, "b's in-flight lease lost");
        let b = q.group("b").unwrap();
        let r = b.dequeue(0).unwrap();
        assert_eq!((r.item, r.delivery_count), (7, 2));
        assert!(q.group("a").unwrap().dequeue(0).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cursor_bounds_are_validated_before_the_body_runs() {
        let dir = tmp("bounds");
        let q = Arc::new(
            GroupedQueue::create(fresh_base(), no_dlqs(2), GroupConfig::new(&dir, ["a", "b"]))
                .unwrap(),
        );
        // A one-stripe engine paired with a two-group deployment: group
        // b's handle must fail loudly instead of clobbering stripe 0.
        let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(4 << 20)));
        let eo = ExactlyOnce::create(Arc::clone(&pool), 1);
        q.enqueue(0, 1);
        let b = q.group("b").unwrap();
        let l = b.dequeue(0).unwrap();
        let mut ran = false;
        let err = b.ack_exactly_once(0, &l, &eo, |_| ran = true).unwrap_err();
        assert_eq!(
            err,
            LeaseError::GroupOutOfRange {
                group: 1,
                groups: 1
            }
        );
        let err = b
            .ack_exactly_once(pmem::MAX_THREADS + 3, &l, &eo, |_| ran = true)
            .unwrap_err();
        assert_eq!(
            err,
            LeaseError::ThreadOutOfRange {
                tid: pmem::MAX_THREADS + 3,
                max: pmem::MAX_THREADS
            }
        );
        assert!(!ran, "consumer body ran despite invalid cursor address");
        b.ack(&l).unwrap();
        // Recovery refuses the undersized engine up front, too.
        let err = GroupedQueue::recover(
            fresh_base(),
            no_dlqs(2),
            GroupConfig::new(&dir, ["a", "b"]),
            Some(&eo),
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_configs_are_refused() {
        let dir = tmp("bad-config");
        let err = GroupedQueue::create(
            fresh_base(),
            no_dlqs(0),
            GroupConfig::new(&dir, Vec::<String>::new()),
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err =
            GroupedQueue::create(fresh_base(), no_dlqs(2), GroupConfig::new(&dir, ["x", "x"]))
                .map(|_| ())
                .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err = GroupedQueue::create(
            fresh_base(),
            no_dlqs(1),
            GroupConfig::new(&dir, ["../evil"]),
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err = GroupedQueue::create(
            fresh_base(),
            no_dlqs(1),
            GroupConfig::new(&dir, ["a"]).with_max_deliveries(2),
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
