//! The lease state machine: one settlement engine behind both consume
//! surfaces.
//!
//! A [`Consumer`] is one delivery cursor over a stream of items — the
//! whole of a [`LeasedQueue`](crate::LeasedQueue), or one group of a
//! [`GroupedQueue`](crate::GroupedQueue). It owns the in-flight leases,
//! their deadline heap, the pending (re)delivery queue, the exactly-once
//! *settling* set, the lease-id counter and the volatile counters, all
//! behind one lock, and implements every transition of the crate-level
//! state machine exactly once: grant, ack, nack, expiry, dead-lettering,
//! the exactly-once ack, and recovery from a replayed log.
//!
//! Every transition is one [`Record`] appended to a [`Journal`] before the
//! transition is acted on. The journal hides the on-disk format — the
//! single-file [`AckLog`](crate::log::AckLog) with whole-file compaction,
//! or the rotating [`SegmentedLog`](crate::segments::SegmentedLog) — and
//! is the only thing that differs between the two surfaces besides the
//! [`Settings`] they pass in (instrument family, exactly-once cursor
//! stripe). The engine is monomorphised per journal and never asks which
//! surface owns it.
//!
//! # Append under the lock, force outside it
//!
//! Making a record durable is two steps. [`Journal::append`] only
//! `pwrite(2)`s, under the state lock, at the logical end its
//! [`JournalFile`] tracks, so the records of one journal are totally
//! ordered and the in-memory state always matches the bytes written.
//! Every transition then releases the lock, forces what it wrote through
//! a [`Force`] handle on that file (`fdatasync` under
//! `SyncPolicy::PowerFail`, nothing under `ProcessCrash`), and only then
//! returns: no lock is held across a force, and competing consumers'
//! forces overlap instead of queueing. A thread may act on a transition
//! whose force is still running — grant an item whose `PEND` another
//! thread is forcing — but whatever it appends lands later in the same
//! file, so its own force covers both. The orderings that cross files
//! (rotation, retirement, compaction) are the journal's to force, under
//! the lock, once per thousands of records.
//!
//! # Panics
//!
//! Consume-path methods panic if a journal append or force fails at the
//! I/O level: a record of unknown durability would make every subsequent
//! lease transition unsound, so (like a message store losing its WAL
//! device) the process must restart and replay: the panic is
//! `obs::sys::durable::durability_lost`'s, naming the file.
//! [`Consumer::recover`] returns `io::Result` instead, since nothing is in
//! flight yet.

use crate::file::{Force, JournalFile};
use crate::log::{Record, RecordKind, Replay};
use crate::queue::{Lease, LeaseError, Redelivery};
use crate::tx::ExactlyOnce;
use durable_queues::DurableQueue;
use obs::flight::EventKind;
use obs::sys::durable;
use obs::LazyCounter;
use shard::LeaseRecovery;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The durable record of lease transitions, as the engine sees it: an
/// append-only log with an identity. Single-writer — every call happens
/// under the owning [`Consumer`]'s lock.
pub(crate) trait Journal {
    /// Writes one record at the tail. It is durable once a force of the
    /// [`file`](Self::file) taken after this call has run.
    /// `next_lease_id` is the engine's id high-water mark, for journals
    /// that persist it on the append path.
    fn append(&mut self, rec: &Record, next_lease_id: u64) -> io::Result<()>;

    /// Two adjacent appends, each record with the id mark that held when
    /// it was made. A journal that can put both in one `write` does.
    fn append_pair(&mut self, first: (&Record, u64), second: (&Record, u64)) -> io::Result<()> {
        self.append(first.0, first.1)?;
        self.append(second.0, second.1)
    }

    /// The file appends go to: its force covers everything appended so
    /// far, and its path names the log in the failure panics.
    fn file(&self) -> &JournalFile;

    /// The log's identity, stamped into the exactly-once cursor so a stale
    /// cursor can never repair a recreated log's leases.
    fn generation(&self) -> u64;

    /// Maintenance after a terminal record (`ACK`/`DEAD`) — the moment the
    /// retired share of the log can have grown. `live` yields the
    /// `live_len` records that alone would reconstruct the current lease
    /// state. The default does nothing: right for a journal that reclaims
    /// space on its append path.
    fn after_terminal(
        &mut self,
        _next_lease_id: u64,
        _live_len: usize,
        _live: impl Iterator<Item = Record>,
    ) -> io::Result<()> {
        Ok(())
    }
}

/// The settlement instruments of one consume surface: process-global
/// monotonic counters mirroring the volatile [`Counters`] (which reset on
/// recovery) for the exporters.
pub(crate) struct Instruments {
    pub grant: LazyCounter,
    pub ack: LazyCounter,
    pub nack: LazyCounter,
    pub expire: LazyCounter,
    pub dead: LazyCounter,
}

/// What a surface fixes for its consumer(s) at construction.
#[derive(Clone, Copy)]
pub(crate) struct Settings {
    /// How long a lease may be held before it expires.
    pub lease_timeout: Duration,
    /// Deliveries before dead-lettering (`0` = unlimited; the surface has
    /// checked that a dead-letter queue exists when non-zero).
    pub max_deliveries: u32,
    /// The surface's instrument family.
    pub instruments: &'static Instruments,
    /// This consumer's stripe of the exactly-once cursor.
    pub stripe: usize,
}

/// Volatile counters since creation/recovery (the journal is the durable
/// record).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Counters {
    pub offered: u64,
    pub granted: u64,
    pub redelivered: u64,
    pub acked: u64,
    pub nacked: u64,
    pub expired: u64,
    pub dead_lettered: u64,
    pub late_acks: u64,
}

struct PendingItem {
    /// The lease this delivery supersedes (its `GRANT.prev` linkage): the
    /// nacked/expired lease, or an offered item's own `PEND` id.
    prev: u64,
    item: u64,
    /// Count the next grant will carry.
    delivery_count: u32,
}

struct State<J> {
    log: J,
    /// Every lease in a consumer's hands, as it was handed out.
    inflight: HashMap<u64, Lease>,
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
    /// Lease id 0 is reserved: it is the "no previous lease" sentinel in
    /// `GRANT` records and the "nothing acked" sentinel in the
    /// exactly-once cursor. Ids start at 1.
    next_id: u64,
    /// Whether a record was appended since a force was last handed out.
    unforced: bool,
    counters: Counters,
}

impl<J: Journal> State<J> {
    fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// `item` joins the pending queue under its appended `PEND`'s id.
    fn offered(&mut self, id: u64, item: u64) {
        self.pending.push_back(PendingItem {
            prev: id,
            item,
            delivery_count: 1,
        });
        self.counters.offered += 1;
    }

    fn append(&mut self, rec: &Record) {
        let appended = self.log.append(rec, self.next_id);
        self.appended(appended);
    }

    fn appended(&mut self, result: io::Result<()>) {
        if let Err(e) = result {
            durable::durability_lost(self.log.file().path(), "journal append", e);
        }
        self.unforced = true;
    }

    /// The force the caller owes once it has released the lock: of
    /// nothing, unless this lock hold appended.
    fn take_force(&mut self) -> Force {
        if std::mem::take(&mut self.unforced) {
            self.log.file().force()
        } else {
            Force::default()
        }
    }

    fn after_terminal(&mut self) {
        let live_len = self.inflight.len() + self.pending.len();
        let live = self
            .inflight
            .iter()
            .map(|(&id, f)| Record::grant(id, f.item, f.delivery_count, 0))
            .chain(
                self.pending
                    .iter()
                    .map(|p| Record::pend(p.prev, p.item, p.delivery_count)),
            );
        if let Err(e) = self.log.after_terminal(self.next_id, live_len, live) {
            durable::durability_lost(self.log.file().path(), "journal maintenance", e);
        }
    }
}

/// One delivery cursor: dead-letter queue + settings + the locked lease
/// state over journal `J`. See the [module docs](self).
pub(crate) struct Consumer<J> {
    dlq: Option<Arc<dyn DurableQueue>>,
    settings: Settings,
    state: Mutex<State<J>>,
}

impl<J: Journal> Consumer<J> {
    /// A consumer with nothing in flight over a freshly created journal.
    pub(crate) fn fresh(log: J, dlq: Option<Arc<dyn DurableQueue>>, settings: Settings) -> Self {
        Self::assemble(log, dlq, settings, VecDeque::new(), 1)
    }

    /// Rebuilds a consumer from its journal's replay: repair `ACK`s for
    /// leases `cursor`'s stripe proves committed under this generation,
    /// then every lease still without a terminal record is requeued (one
    /// delivery later if it was in a consumer's hands) or dead-lettered.
    /// [`LeasedQueue::recover`](crate::LeasedQueue::recover) documents the
    /// contract.
    pub(crate) fn recover(
        mut log: J,
        replay: Replay,
        dlq: Option<Arc<dyn DurableQueue>>,
        settings: Settings,
        cursor: Option<&ExactlyOnce>,
    ) -> io::Result<(Self, LeaseRecovery)> {
        let next_id = replay.next_lease_id.max(1);
        let mut report = LeaseRecovery {
            log_records: replay.records,
            ..LeaseRecovery::default()
        };
        let mut live = replay.live;
        let mut repaired = false;
        if let Some(eo) = cursor {
            for id in eo.acked_ids_in(settings.stripe, replay.generation) {
                if live.remove(&id).is_some() {
                    log.append(&Record::terminal(RecordKind::Ack, id), next_id)?;
                    repaired = true;
                    report.tx_acked += 1;
                }
            }
        }
        // BTreeMap iteration = lease-id order = grant order, so recovered
        // redelivery preserves the original delivery order.
        let mut pending = VecDeque::new();
        for (id, lease) in live {
            let next = if lease.granted {
                report.unacked += 1;
                lease.delivery_count + 1
            } else {
                lease.delivery_count
            };
            if settings.max_deliveries > 0 && next > settings.max_deliveries {
                let dlq = dlq
                    .as_ref()
                    .expect("a finite budget has a dead-letter queue");
                dlq.enqueue(0, lease.item);
                log.append(&Record::terminal(RecordKind::Dead, id), next_id)?;
                repaired = true;
                report.dead_lettered += 1;
            } else {
                pending.push_back(PendingItem {
                    prev: id,
                    item: lease.item,
                    delivery_count: next,
                });
                report.redelivered += 1;
            }
        }
        if repaired {
            log.file().force().run()?;
        }
        Ok((Self::assemble(log, dlq, settings, pending, next_id), report))
    }

    fn assemble(
        log: J,
        dlq: Option<Arc<dyn DurableQueue>>,
        settings: Settings,
        pending: VecDeque<PendingItem>,
        next_id: u64,
    ) -> Self {
        Consumer {
            dlq,
            settings,
            state: Mutex::new(State {
                log,
                inflight: HashMap::new(),
                deadlines: BinaryHeap::new(),
                pending,
                settling: HashSet::new(),
                next_id,
                unforced: false,
                counters: Counters::default(),
            }),
        }
    }

    /// Runs one transition under the state lock, then — the lock released —
    /// forces what it appended, and only then hands back its result.
    fn transition<R>(&self, apply: impl FnOnce(&mut State<J>) -> R) -> R {
        let (out, force) = {
            let mut st = obs::locked(&self.state);
            let out = apply(&mut st);
            (out, st.take_force())
        };
        if let (Err(e), Some(path)) = (force.run(), force.path()) {
            durable::durability_lost(path, "journal force", e);
        }
        out
    }

    /// Durably records that `item` awaits its first delivery here (`PEND`
    /// under a fresh id) — how a fan-out hands every consumer its own copy
    /// before any of them sees it.
    pub(crate) fn offer(&self, item: u64) {
        self.transition(|st| {
            let id = st.take_id();
            st.append(&Record::pend(id, item, 1));
            st.offered(id, item);
        })
    }

    /// [`offer`](Self::offer) and the grant that follows it, for the
    /// consumer that popped `item` itself: one lock hold and one force,
    /// and — when `item` is the delivery it gets, nothing older being
    /// owed — `PEND` and `GRANT` in one write. The caller has just seen
    /// [`grant_pending`](Self::grant_pending) come back empty at `now`.
    pub(crate) fn offer_and_grant(&self, now: Instant, item: u64) -> Lease {
        self.transition(|st| {
            let id = st.take_id();
            let pend = Record::pend(id, item, 1);
            if !st.pending.is_empty() {
                // A racing nack or expiry put an older delivery ahead.
                st.append(&pend);
                st.offered(id, item);
                let head = st.pending.pop_front().expect("checked non-empty");
                return self.grant(st, now, head);
            }
            let after_pend = st.next_id;
            let grant_id = st.take_id();
            let grant = Record::grant(grant_id, item, 1, id);
            let appended = st
                .log
                .append_pair((&pend, after_pend), (&grant, st.next_id));
            st.appended(appended);
            st.counters.offered += 1;
            let own = PendingItem {
                prev: id,
                item,
                delivery_count: 1,
            };
            self.granted(st, now, grant_id, own)
        })
    }

    /// Reaps expired leases, then grants the head of the pending queue, if
    /// any. The `GRANT` record is durable before the lease is returned.
    pub(crate) fn grant_pending(&self, tid: usize, now: Instant) -> Option<Lease> {
        self.transition(|st| {
            self.reap(st, tid, now);
            let p = st.pending.pop_front()?;
            Some(self.grant(st, now, p))
        })
    }

    /// Grants an item that came straight off a destructive pop: first
    /// delivery, no lease to supersede.
    pub(crate) fn grant_fresh(&self, now: Instant, item: u64) -> Lease {
        let fresh = PendingItem {
            prev: 0,
            item,
            delivery_count: 1,
        };
        self.transition(|st| self.grant(st, now, fresh))
    }

    fn grant(&self, st: &mut State<J>, now: Instant, p: PendingItem) -> Lease {
        let id = st.take_id();
        st.append(&Record::grant(id, p.item, p.delivery_count, p.prev));
        self.granted(st, now, id, p)
    }

    /// The in-memory half of a grant whose `GRANT` record is appended.
    fn granted(&self, st: &mut State<J>, now: Instant, id: u64, p: PendingItem) -> Lease {
        let lease = Lease {
            id,
            item: p.item,
            delivery_count: p.delivery_count,
            deadline: now + self.settings.lease_timeout,
        };
        st.inflight.insert(id, lease);
        st.deadlines.push(Reverse((lease.deadline, id)));
        st.counters.granted += 1;
        self.settings.instruments.grant.incr();
        obs::flight::record(EventKind::LeaseGrant, id, p.item);
        if p.delivery_count > 1 {
            st.counters.redelivered += 1;
        }
        lease
    }

    /// Durably retires `lease`, unless it already settled or expired — or
    /// an exactly-once transaction owns its settlement, which racing would
    /// double-settle.
    pub(crate) fn ack(&self, lease: &Lease) -> Result<(), LeaseError> {
        self.transition(|st| {
            if st.settling.contains(&lease.id) || st.inflight.remove(&lease.id).is_none() {
                return Err(LeaseError::NotInFlight);
            }
            self.retire(st, lease.id);
            Ok(())
        })
    }

    /// The `ACK` record, its accounting, and the journal's maintenance.
    fn retire(&self, st: &mut State<J>, id: u64) {
        st.append(&Record::terminal(RecordKind::Ack, id));
        st.counters.acked += 1;
        self.settings.instruments.ack.incr();
        obs::flight::record(EventKind::LeaseAck, id, 0);
        st.after_terminal();
    }

    /// Returns `lease` unprocessed; `tid` is the caller's thread id on
    /// the dead-letter queue.
    pub(crate) fn nack(&self, tid: usize, lease: &Lease) -> Result<Redelivery, LeaseError> {
        self.transition(|st| {
            if st.settling.contains(&lease.id) {
                return Err(LeaseError::NotInFlight);
            }
            let Some(f) = st.inflight.remove(&lease.id) else {
                return Err(LeaseError::NotInFlight);
            };
            st.counters.nacked += 1;
            self.settings.instruments.nack.incr();
            Ok(self.settle_returned(st, tid, f, EventKind::LeaseNack))
        })
    }

    /// Reaps every lease whose deadline has passed, exactly as
    /// [`nack`](Self::nack) would settle it. Returns the number reaped.
    pub(crate) fn reap_expired(&self, tid: usize) -> usize {
        self.transition(|st| self.reap(st, tid, Instant::now()))
    }

    fn reap(&self, st: &mut State<J>, tid: usize, now: Instant) -> usize {
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
            let f = st.inflight.remove(&id).expect("checked live above");
            st.counters.expired += 1;
            self.settings.instruments.expire.incr();
            self.settle_returned(st, tid, f, EventKind::LeaseExpire);
            reaped += 1;
        }
        reaped
    }

    /// An item came back (nack or expiry, flight-recorded as `returned`):
    /// requeue it for redelivery, or dead-letter it if the next delivery
    /// would exceed the budget.
    fn settle_returned(
        &self,
        st: &mut State<J>,
        tid: usize,
        f: Lease,
        returned: EventKind,
    ) -> Redelivery {
        let id = f.id;
        let budget = self.settings.max_deliveries;
        if budget > 0 && f.delivery_count >= budget {
            // DLQ enqueue first, DEAD record second: a crash between the
            // two duplicates into the DLQ (at-least-once) instead of
            // losing the item.
            let dlq = self
                .dlq
                .as_ref()
                .expect("a finite budget has a dead-letter queue");
            dlq.enqueue(tid, f.item);
            st.append(&Record::terminal(RecordKind::Dead, id));
            st.counters.dead_lettered += 1;
            self.settings.instruments.dead.incr();
            obs::flight::record(EventKind::LeaseDead, id, f.item);
            st.after_terminal();
            Redelivery::DeadLettered
        } else {
            let next = f.delivery_count + 1;
            st.append(&Record::pend(id, f.item, next));
            st.pending.push_back(PendingItem {
                prev: id,
                item: f.item,
                delivery_count: next,
            });
            obs::flight::record(returned, id, next as u64);
            Redelivery::Requeued {
                next_delivery_count: next,
            }
        }
    }

    /// Acks `lease` and applies the consumer's own writes in **one**
    /// redo-log transaction on this consumer's cursor stripe. See
    /// [`LeasedQueue::ack_exactly_once`](crate::LeasedQueue::ack_exactly_once)
    /// for the contract.
    pub(crate) fn ack_exactly_once<R>(
        &self,
        tid: usize,
        lease: &Lease,
        eo: &ExactlyOnce,
        body: impl FnOnce(&mut ptm::Tx<'_>) -> R,
    ) -> Result<R, LeaseError> {
        // Validate the cursor address before taking any lock or marking
        // anything settling: an invalid one used to surface as an assert
        // *inside* the transaction, after the caller's body had run.
        if tid >= pmem::MAX_THREADS {
            return Err(LeaseError::ThreadOutOfRange {
                tid,
                max: pmem::MAX_THREADS,
            });
        }
        if self.settings.stripe >= eo.groups() {
            return Err(LeaseError::GroupOutOfRange {
                group: self.settings.stripe,
                groups: eo.groups(),
            });
        }
        let generation = {
            let mut st = obs::locked(&self.state);
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
        let out = eo.run(self.settings.stripe, tid, lease.id, generation, body);
        self.transition(|st| {
            st.settling.remove(&lease.id);
            mark.armed = false;
            if st.inflight.remove(&lease.id).is_none() {
                let Some(pos) = st.pending.iter().position(|p| p.prev == lease.id) else {
                    // Regranted to another consumer before our commit: that
                    // grant retired this lease id, so there is nothing left
                    // to ack — the item will be delivered again despite the
                    // committed work.
                    st.counters.late_acks += 1;
                    return;
                };
                // Expired mid-transaction but not yet regranted: the
                // committed ack wins, cancel the redelivery.
                st.pending.remove(pos);
            }
            self.retire(st, lease.id);
        });
        Ok(out)
    }

    /// The dead-letter queue, if one is attached.
    pub(crate) fn dlq(&self) -> Option<&Arc<dyn DurableQueue>> {
        self.dlq.as_ref()
    }

    /// What the surface fixed at construction.
    pub(crate) fn settings(&self) -> &Settings {
        &self.settings
    }

    /// Leases currently in consumers' hands.
    pub(crate) fn in_flight(&self) -> usize {
        obs::locked(&self.state).inflight.len()
    }

    /// Items awaiting (re)delivery.
    pub(crate) fn pending(&self) -> usize {
        obs::locked(&self.state).pending.len()
    }

    /// Reads the counters and the journal's own accounting under one lock.
    pub(crate) fn observe<R>(&self, f: impl FnOnce(&Counters, &J) -> R) -> R {
        let st = obs::locked(&self.state);
        f(&st.counters, &st.log)
    }
}

/// Removes a lease's *settling* mark on unwind; disarmed on the normal
/// path, where [`Consumer::ack_exactly_once`] removes the mark itself
/// under the settlement lock.
struct SettlingMark<'a, J> {
    state: &'a Mutex<State<J>>,
    id: u64,
    armed: bool,
}

impl<J> Drop for SettlingMark<'_, J> {
    fn drop(&mut self) {
        if self.armed {
            obs::locked(self.state).settling.remove(&self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{AckLog, HEADER_LEN, LEASE_LOG_FILE, RECORD_LEN};
    use crate::segments::{SegmentedLog, SEGMENT_HEADER_LEN};
    use crate::{GroupConfig, GroupedQueue, LeaseConfig, LeasedQueue, GROUPS_DIR};
    use durable_queues::{OptUnlinkedQueue, QueueConfig, RecoverableQueue};
    use pmem::{PmemPool, PoolConfig};
    use std::path::PathBuf;
    use store::SyncPolicy;

    static TEST_INSTRUMENTS: Instruments = Instruments {
        grant: LazyCounter::new("lease.test.grant"),
        ack: LazyCounter::new("lease.test.ack"),
        nack: LazyCounter::new("lease.test.nack"),
        expire: LazyCounter::new("lease.test.expire"),
        dead: LazyCounter::new("lease.test.dead"),
    };

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lease-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fresh_base() -> OptUnlinkedQueue {
        let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(4 << 20)));
        OptUnlinkedQueue::create(pool, QueueConfig::small_test())
    }

    /// Regression: heap entries used to leave only once their deadline had
    /// passed, so under a timeout that outlives the run every grant left
    /// 24 bytes behind for good.
    fn settled_leases_do_not_pile_up_in_the_deadline_heap(log: impl Journal) {
        let settings = Settings {
            lease_timeout: Duration::from_secs(24 * 3600),
            max_deliveries: 0,
            instruments: &TEST_INSTRUMENTS,
            stripe: 0,
        };
        let consumer = Consumer::fresh(log, None, settings);
        for i in 1..=100_000u64 {
            consumer.offer(i);
            let lease = consumer.grant_pending(0, Instant::now()).unwrap();
            consumer.ack(&lease).unwrap();
            let st = obs::locked(&consumer.state);
            assert!(
                st.deadlines.len() <= st.inflight.len() + 1,
                "cycle {i}: {} heap entries for {} leases in flight",
                st.deadlines.len(),
                st.inflight.len()
            );
        }
    }

    #[test]
    fn settled_leases_do_not_pile_up_in_the_deadline_heap_over_an_ack_log() {
        let dir = tmp("heap-bound-log");
        let log = AckLog::create(&dir, SyncPolicy::default()).unwrap();
        settled_leases_do_not_pile_up_in_the_deadline_heap(log);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn settled_leases_do_not_pile_up_in_the_deadline_heap_over_segments() {
        let dir = tmp("heap-bound-segments");
        let log = SegmentedLog::create(&dir, SyncPolicy::default(), 4096).unwrap();
        settled_leases_do_not_pile_up_in_the_deadline_heap(log);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn records_of(path: PathBuf, header_len: usize) -> Vec<Record> {
        std::fs::read(path).unwrap()[header_len..]
            .chunks(RECORD_LEN)
            .map(|chunk| Record::decode(chunk).expect("a clean log"))
            .collect()
    }

    /// One scripted life: fresh grants, ack, nack + regrant, expiry,
    /// dead-letter past the budget of 2, an exactly-once ack, and one
    /// lease still in hand when the surface is dropped. The timeout is
    /// zero, so a lease expires at the next reap — the script never leaves
    /// one in flight across a `dequeue` it does not mean to lose it to.
    macro_rules! first_life {
        ($q:expr, $eo:expr) => {{
            let acked = $q.dequeue(0).unwrap();
            $q.ack(&acked).unwrap();
            let nacked = $q.dequeue(0).unwrap();
            $q.nack(0, &nacked).unwrap();
            let regranted = $q.dequeue(0).unwrap();
            assert_eq!((regranted.item, regranted.delivery_count), (20, 2));
            $q.ack(&regranted).unwrap();
            let _expires = $q.dequeue(0).unwrap();
            assert_eq!($q.reap_expired(0), 1);
            let poison = $q.dequeue(0).unwrap();
            assert_eq!($q.nack(0, &poison).unwrap(), Redelivery::DeadLettered);
            let handed_off = $q.dequeue(0).unwrap();
            $q.ack_exactly_once(0, &handed_off, $eo, |_| ()).unwrap();
            let held = $q.dequeue(0).unwrap();
            assert_eq!((held.item, held.delivery_count), (50, 1));
        }};
    }

    /// After recovery: the held lease comes back bumped and is acked.
    macro_rules! second_life {
        ($q:expr) => {{
            let back = $q.dequeue(0).unwrap();
            assert_eq!((back.item, back.delivery_count), (50, 2));
            $q.ack(&back).unwrap();
            assert!($q.dequeue(0).is_none());
        }};
    }

    /// The behaviour that lets the single-file log retire later: both
    /// surfaces journal the same transitions at the same moments, and the
    /// grouped one adds the dispatch `PEND` and nothing else.
    #[test]
    fn the_two_surfaces_differ_by_the_dispatch_pend_and_nothing_else() {
        let items = [10u64, 20, 30, 40, 50];
        let timeout = Duration::ZERO;
        let cursor = || {
            let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(4 << 20)));
            ExactlyOnce::create(pool, 1)
        };
        let dlq = || -> Option<Arc<dyn DurableQueue>> { Some(Arc::new(fresh_base())) };

        let leased_dir = tmp("surfaces-leased");
        let config = LeaseConfig::new(&leased_dir)
            .with_timeout(timeout)
            .with_max_deliveries(2)
            .with_compact_after(0);
        let eo = cursor();
        let q = LeasedQueue::create(fresh_base(), dlq(), config.clone()).unwrap();
        items.iter().for_each(|&item| q.enqueue(0, item));
        first_life!(q, &eo);
        drop(q);
        let (q, recovered) = LeasedQueue::recover(fresh_base(), dlq(), config, Some(&eo)).unwrap();
        assert_eq!((recovered.unacked, recovered.redelivered), (1, 1));
        second_life!(q);
        drop(q);
        let leased = records_of(leased_dir.join(LEASE_LOG_FILE), HEADER_LEN);

        let grouped_dir = tmp("surfaces-grouped");
        let config = GroupConfig::new(&grouped_dir, ["only"])
            .with_timeout(timeout)
            .with_max_deliveries(2)
            .with_rotate_records(0);
        let eo = cursor();
        let q = Arc::new(GroupedQueue::create(fresh_base(), vec![dlq()], config.clone()).unwrap());
        items.iter().for_each(|&item| q.enqueue(0, item));
        let group = q.group("only").unwrap();
        first_life!(group, &eo);
        drop((group, q));
        let (q, recovered) =
            GroupedQueue::recover(fresh_base(), vec![dlq()], config, Some(&eo)).unwrap();
        assert_eq!((recovered[0].unacked, recovered[0].redelivered), (1, 1));
        let group = Arc::new(q).group("only").unwrap();
        second_life!(group);
        drop(group);
        let segment = grouped_dir.join(GROUPS_DIR).join("only/segment-0000.log");
        let grouped = records_of(segment, SEGMENT_HEADER_LEN);

        // Strip the grouped stream down to what the leased one must equal:
        // a dispatch `PEND` is one whose id no `GRANT` carries; the grant
        // it feeds must be a first delivery of the same item, and becomes
        // a fresh (`prev = 0`) grant. Lease ids then compare by grant rank.
        let granted: Vec<u64> = grouped
            .iter()
            .filter(|r| r.kind == RecordKind::Grant)
            .map(|r| r.lease_id)
            .collect();
        let rank = |id: u64| granted.iter().position(|&g| g == id).unwrap() as u64 + 1;
        let mut dispatched: HashMap<u64, u64> = HashMap::new();
        let mut dispatches = 0;
        let mut stripped = Vec::new();
        for rec in &grouped {
            let mut rec = *rec;
            if rec.kind == RecordKind::Pend && !granted.contains(&rec.lease_id) {
                assert_eq!(rec.delivery_count, 1, "{rec:?}");
                dispatched.insert(rec.lease_id, rec.item);
                dispatches += 1;
                continue;
            }
            if let Some(item) = dispatched.remove(&rec.prev_lease_id) {
                assert_eq!(
                    (rec.kind, rec.item, rec.delivery_count),
                    (RecordKind::Grant, item, 1)
                );
                rec.prev_lease_id = 0;
            }
            rec.lease_id = rank(rec.lease_id);
            if rec.prev_lease_id != 0 {
                rec.prev_lease_id = rank(rec.prev_lease_id);
            }
            stripped.push(rec);
        }
        assert_eq!(dispatches, items.len(), "one dispatch PEND per fresh item");
        assert!(dispatched.is_empty(), "a dispatch PEND was never granted");
        assert_eq!(stripped, leased);
        // 5 fresh grants + 3 regrants, 4 acks, 2 requeues, 1 dead letter.
        assert_eq!(leased.len(), 15);

        std::fs::remove_dir_all(&leased_dir).unwrap();
        std::fs::remove_dir_all(&grouped_dir).unwrap();
    }
}
