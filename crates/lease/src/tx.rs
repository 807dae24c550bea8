//! Exactly-once handoff: ack + consumer state in one redo-log transaction.
//!
//! At-least-once delivery (the default) has one unavoidable duplicate
//! window: the consumer durably applies its work, crashes before acking,
//! and the item is redelivered. Closing it requires the ack and the
//! consumer's own state transition to share a single atomic commit point —
//! Gray's "queues are databases" argument. [`ExactlyOnce`] provides that
//! commit point on top of `crates/ptm`'s redo-log engine:
//!
//! 1. A per-`(group, thread)` **ack cursor** (a `(lease id, log
//!    generation)` pair of 64-bit words per slot, allocated on the
//!    consumer's pool and published through root slot
//!    [`CURSOR_ROOT_SLOT`]) records the last lease whose ack transaction
//!    committed on that thread, stamped with the
//!    [generation](crate::log) of the ack log it was acked under. The
//!    area holds one stripe of [`MAX_THREADS`] entries per consumer
//!    group; single-group deployments (plain
//!    [`LeasedQueue`](crate::LeasedQueue)) use stripe 0 and are laid out
//!    exactly as before groups existed.
//! 2. `ack_exactly_once` — on a
//!    [`LeasedQueue`](crate::LeasedQueue::ack_exactly_once) or a
//!    [`ConsumerGroup`](crate::ConsumerGroup::ack_exactly_once), the same
//!    engine code on a different stripe — runs the consumer's writes
//!    **and** the cursor pair update in one [`Ptm::run`] transaction. The
//!    persisted commit status word is the atomic point: either the
//!    consumer's state *and* the ack are durable, or neither is.
//! 3. The sidecar ack-log record is appended only after commit. If a crash
//!    swallows it, recovery reads the cursor
//!    ([`ExactlyOnce::acked_ids_in`]) and repairs the missing record
//!    instead of redelivering — see
//!    [`LeasedQueue::recover`](crate::LeasedQueue::recover). Only entries
//!    stamped with the *current* log's generation count: a cursor paired
//!    with a recreated or foreign ack log (whose lease-id space is
//!    unrelated) repairs nothing instead of retiring arbitrary leases.
//!    With groups, each group's log has its own generation, so a stripe
//!    can never repair another group's leases either.
//!
//! The cursor holds one word-pair per `(group, thread)`, so a thread has
//! at most one ack transaction per group in the repair window at a time —
//! which is exactly the execution model (`ack_exactly_once` appends the
//! sidecar record before returning).
//!
//! # Root-slot encoding
//!
//! Root slot 7 packs `(groups − 1) << 32 | offset`. A single-group engine
//! therefore stores the bare area offset — bit-identical to the pre-group
//! format — so pools written before consumer groups existed recover as
//! one-stripe engines, and single-group pools written by this build are
//! readable by older ones.
//!
//! The engine's root lines (6–7 of the queue root block) and the ad-hoc
//! queues' lines (0–2) do not collide, so one pool can host both the
//! consumer's durable state and this engine.

use pmem::{PmemPool, MAX_GROUPS, MAX_THREADS};
use ptm::{FlushPolicy, Ptm, Tx};
use std::sync::Arc;

/// Pool root slot publishing the ack-cursor area's offset and stripe count
/// (slots 0–6 are owned by the queue/engine conventions; see
/// `docs/FORMATS.md`).
pub const CURSOR_ROOT_SLOT: usize = 7;

/// Bytes per cursor entry: a `(lease id, log generation)` pair.
const CURSOR_ENTRY_LEN: usize = 16;

/// The exactly-once ack engine: a redo-log PTM plus the per-`(group,
/// thread)` ack cursor. See the [module docs](self).
pub struct ExactlyOnce {
    ptm: Ptm,
    /// Pool offset of the `groups × MAX_THREADS × (lease id, generation)`
    /// cursor area.
    cursor: u32,
    /// Stripes in the cursor area (consumer groups this engine can ack
    /// for). Always ≥ 1.
    groups: usize,
}

impl ExactlyOnce {
    /// Creates a fresh engine with one cursor stripe per consumer group
    /// (`1` for a plain [`LeasedQueue`](crate::LeasedQueue)): allocates the
    /// `groups × MAX_THREADS` entry area durable-zero
    /// ([`PmemPool::alloc_zeroed`]), publishes it (with the
    /// stripe count) in root slot [`CURSOR_ROOT_SLOT`], and starts a fresh
    /// batched-commit [`Ptm`].
    ///
    /// # Panics
    /// If `groups` is `0` or exceeds [`MAX_GROUPS`] — a sizing decision
    /// made once at deployment creation, so misconfiguration should fail
    /// loudly before anything is in flight.
    pub fn create(pool: Arc<PmemPool>, groups: usize) -> Self {
        assert!(
            (1..=MAX_GROUPS).contains(&groups),
            "exactly-once cursor needs 1..={MAX_GROUPS} groups, got {groups}"
        );
        let len = (groups * MAX_THREADS * CURSOR_ENTRY_LEN) as u32;
        let cursor = pool.alloc_zeroed(0, len, 64);
        pool.set_root_u64(
            CURSOR_ROOT_SLOT,
            ((groups as u64 - 1) << 32) | cursor as u64,
        );
        ExactlyOnce {
            ptm: Ptm::new(pool, FlushPolicy::BatchedCommit),
            cursor,
            groups,
        }
    }

    /// Re-creates the engine after a crash: [`Ptm::recover`] first (so a
    /// committed-but-unapplied ack transaction lands in the cursor before
    /// anyone reads it), then the cursor offset and stripe count from the
    /// root slot. Pools written before consumer groups existed carry a
    /// bare offset (zero high half) and recover as one-stripe engines.
    ///
    /// # Panics
    /// If the pool was never initialised with [`create`](Self::create)
    /// (root slot 7 is zero).
    pub fn recover(pool: Arc<PmemPool>) -> Self {
        let ptm = Ptm::recover(pool, FlushPolicy::BatchedCommit);
        let word = ptm.pool().root_u64(CURSOR_ROOT_SLOT);
        let cursor = word as u32;
        let groups = (word >> 32) as usize + 1;
        assert!(
            cursor != 0,
            "pool has no exactly-once cursor (root slot {CURSOR_ROOT_SLOT} is zero); \
             was it created with ExactlyOnce::create?"
        );
        ExactlyOnce {
            ptm,
            cursor,
            groups,
        }
    }

    /// Cursor stripes (consumer groups) this engine addresses.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Lease ids whose ack transaction committed *under the ack log with
    /// the given generation*, across every stripe. Entries stamped by an
    /// older or recreated log are ignored — their lease-id space is
    /// unrelated, and repairing by a stale id would silently consume
    /// someone else's in-flight item. Recovery itself asks one stripe at a
    /// time ([`acked_ids_in`](Self::acked_ids_in)).
    pub fn acked_ids(&self, generation: u64) -> Vec<u64> {
        (0..self.groups)
            .flat_map(|g| self.acked_ids_in(g, generation))
            .collect()
    }

    /// Lease ids whose ack transaction committed on stripe `group` under
    /// the generation — what recovery feeds the replayed log's generation
    /// to, so those leases are repaired instead of redelivered. Every log
    /// has its own generation, so even a wrong `group` here repairs
    /// nothing (the stamps cannot match), but the stripe filter keeps the
    /// scan exact.
    ///
    /// # Panics
    /// If `group` is not a stripe of this engine.
    pub fn acked_ids_in(&self, group: usize, generation: u64) -> Vec<u64> {
        assert!(
            group < self.groups,
            "cursor stripe {group} out of range (engine has {})",
            self.groups
        );
        let pool = self.ptm.pool();
        (0..MAX_THREADS)
            .map(|t| {
                let entry = self.entry_offset(group, t);
                (pool.load_u64(entry), pool.load_u64(entry + 8))
            })
            .filter(|&(id, gen)| id != 0 && gen == generation)
            .map(|(id, _)| id)
            .collect()
    }

    /// The underlying transaction engine (for consumer-side transactions
    /// that do not ack anything).
    pub fn ptm(&self) -> &Ptm {
        &self.ptm
    }

    fn entry_offset(&self, group: usize, tid: usize) -> u32 {
        self.cursor + ((group * MAX_THREADS + tid) * CURSOR_ENTRY_LEN) as u32
    }

    /// Runs `body` and the cursor update `cursor[group][tid] = (lease_id,
    /// generation)` as one transaction — the generation is the ack log's,
    /// so recovery can tell which log the ack belongs to. Called by the
    /// `ack_exactly_once` entry points, which validate `group` and `tid`
    /// *before* anything runs and surface violations as
    /// [`LeaseError`](crate::LeaseError) values instead of a
    /// mid-transaction panic; the asserts here are the engine's own
    /// backstop.
    pub(crate) fn run<R>(
        &self,
        group: usize,
        tid: usize,
        lease_id: u64,
        generation: u64,
        body: impl FnOnce(&mut Tx<'_>) -> R,
    ) -> R {
        assert!(tid < MAX_THREADS, "tid {tid} exceeds MAX_THREADS");
        assert!(
            group < self.groups,
            "cursor stripe {group} out of range (engine has {})",
            self.groups
        );
        let entry = self.entry_offset(group, tid);
        self.ptm.run(tid, |tx| {
            let out = body(tx);
            tx.write(entry, lease_id);
            tx.write(entry + 8, generation);
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PoolConfig;

    #[test]
    fn cursor_survives_crash_and_reports_committed_acks() {
        let generation = 7777u64;
        let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(4 << 20)));
        let eo = ExactlyOnce::create(Arc::clone(&pool), 1);
        assert!(eo.acked_ids(generation).is_empty());

        let consumer_state = pool.alloc_raw(8, 8);
        eo.run(0, 3, 41, generation, |tx| tx.write(consumer_state, 1000));
        assert_eq!(eo.acked_ids(generation), vec![41]);
        // A different log generation sees nothing: its lease-id space is
        // unrelated, so the committed ack must not repair anything there.
        assert!(eo.acked_ids(generation + 1).is_empty());

        // Crash: the committed transaction must survive into the cursor
        // and the consumer's own word, atomically.
        let crashed = Arc::new(pool.simulate_crash());
        let eo2 = ExactlyOnce::recover(Arc::clone(&crashed));
        assert_eq!(eo2.groups(), 1);
        assert_eq!(eo2.acked_ids(generation), vec![41]);
        assert!(eo2.acked_ids(generation + 1).is_empty());
        assert_eq!(crashed.load_u64(consumer_state), 1000);
    }

    #[test]
    fn group_stripes_are_independent_and_survive_recovery() {
        let gen_a = 111u64;
        let gen_b = 222u64;
        let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(4 << 20)));
        let eo = ExactlyOnce::create(Arc::clone(&pool), 3);
        assert_eq!(eo.groups(), 3);
        let word = pool.alloc_raw(8, 8);
        // The same tid acks different leases in different groups; the
        // stripes must not clobber each other.
        eo.run(0, 5, 10, gen_a, |tx| tx.write(word, 1));
        eo.run(1, 5, 20, gen_b, |tx| tx.write(word, 2));
        assert_eq!(eo.acked_ids_in(0, gen_a), vec![10]);
        assert!(eo.acked_ids_in(0, gen_b).is_empty());
        assert_eq!(eo.acked_ids_in(1, gen_b), vec![20]);
        assert!(eo.acked_ids_in(2, gen_a).is_empty());

        let crashed = Arc::new(pool.simulate_crash());
        let eo2 = ExactlyOnce::recover(crashed);
        assert_eq!(eo2.groups(), 3);
        assert_eq!(eo2.acked_ids_in(0, gen_a), vec![10]);
        assert_eq!(eo2.acked_ids_in(1, gen_b), vec![20]);
    }

    #[test]
    #[should_panic(expected = "no exactly-once cursor")]
    fn recover_refuses_an_uninitialised_pool() {
        let pool = Arc::new(PmemPool::new(PoolConfig::small_test()));
        // A Ptm exists but no cursor was ever published.
        drop(Ptm::new(Arc::clone(&pool), FlushPolicy::BatchedCommit));
        let crashed = Arc::new(pool.simulate_crash());
        let _ = ExactlyOnce::recover(crashed);
    }

    #[test]
    #[should_panic(expected = "1..=")]
    fn zero_groups_is_refused_at_creation() {
        let pool = Arc::new(PmemPool::new(PoolConfig::small_test()));
        let _ = ExactlyOnce::create(pool, 0);
    }
}
