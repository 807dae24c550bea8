//! The load's inputs and the model every delivery is checked against.
//!
//! Everything the stack is fed derives from `--seed`: item values, routing
//! keys and which items are nacked once. An item is its sequence number in
//! the high bits and seed-derived noise in the low bits, so the checker
//! needs no table of what was produced — it recomputes it.
//!
//! Per consumer group the model keeps one byte per item: how often it was
//! leased, whether a lease is outstanding, whether it was nacked, whether
//! it was acked. Checked on every call:
//!
//! * nothing is delivered that was not produced (sequence in range, noise
//!   bits match);
//! * `delivery_count` is one more than the leases granted for the item so
//!   far — so a nacked item comes back with 2, and a lease held across a
//!   reopen with its count bumped;
//! * nothing is delivered after its ack, or while another lease on it is
//!   outstanding;
//! * first deliveries of one producer's items leave each shard in the
//!   order they entered it, as seen by each consumer thread;
//! * `ack`/`nack` return `Ok`, and `dequeue` returns an item while the
//!   model holds one.
//!
//! At the end every produced item must be acked exactly once per group,
//! and the items chosen for a nack must have been leased exactly once more
//! than the others (plus once per reopen that caught them in flight).

use lease::Lease;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::Relaxed};

/// Low bits of an item that carry seed-derived noise.
const NOISE_BITS: u32 = 20;
const NOISE_MASK: u64 = (1 << NOISE_BITS) - 1;

/// Model byte: leases granted so far (low three bits).
const GRANTS: u8 = 0x07;
/// Model byte: the plan nacks this item once.
const PLANNED: u8 = 0x08;
/// Model byte: a lease is outstanding.
const LEASED: u8 = 0x10;
/// Model byte: the item was acked.
const ACKED: u8 = 0x20;
/// Model byte: the item was nacked by the load (once, by plan).
const NACKED: u8 = 0x40;
/// Model byte: a reopen caught a lease on the item in flight.
const CAUGHT: u8 = 0x80;

/// SplitMix64's output function: the one hash everything derives from.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed-derived inputs of a run.
#[derive(Clone, Copy, Debug)]
pub struct Inputs {
    seed: u64,
}

impl Inputs {
    /// Inputs for `seed`.
    pub fn new(seed: u64) -> Self {
        Inputs {
            seed: mix(seed ^ 0x71_62_65_6E_63_68),
        }
    }

    /// The value of item number `seq`.
    #[inline]
    pub fn item(&self, seq: u64) -> u64 {
        ((seq + 1) << NOISE_BITS) | (mix(self.seed ^ seq) & NOISE_MASK)
    }

    /// The routing key of item number `seq`.
    #[inline]
    pub fn key(&self, seq: u64) -> u64 {
        mix(self.seed.rotate_left(17) ^ seq)
    }

    /// The sequence number an item value claims, if it is one this run
    /// could have produced.
    #[inline]
    pub fn seq_of(&self, item: u64) -> Option<u64> {
        let seq = (item >> NOISE_BITS).checked_sub(1)?;
        (self.item(seq) == item).then_some(seq)
    }

    /// Exactly `len / 20` positions of a block of `len` items starting at
    /// `first`, chosen by the seed and `group`: the 5 % nacked once.
    pub fn nack_positions(&self, group: usize, first: u64, len: usize) -> Vec<u32> {
        let want = len / 20;
        let mut chosen = Vec::with_capacity(want);
        let mut taken = vec![false; len];
        let mut state = mix(self.seed ^ first.rotate_left(29) ^ (group as u64) << 56);
        while chosen.len() < want {
            state = mix(state);
            let pos = (state % len as u64) as usize;
            if !taken[pos] {
                taken[pos] = true;
                chosen.push(pos as u32);
            }
        }
        chosen
    }
}

/// Producers and shards the model can tell apart (four bits each).
const LANES: usize = 16;

/// One consumer thread's view of first-delivery order: the highest
/// sequence number seen per (group, shard, producer).
#[derive(Clone, Debug)]
pub struct FifoView {
    last: Vec<u64>,
}

impl FifoView {
    /// A view over `groups` groups with nothing seen.
    pub fn new(groups: usize) -> Self {
        FifoView {
            last: vec![0; groups * LANES * LANES],
        }
    }

    /// Forgets what was seen: after a reopen the order restarts from the
    /// recovered queue.
    pub fn reset(&mut self) {
        self.last.fill(0);
    }
}

/// The model of one deployment, shared by every load thread.
pub struct Model {
    inputs: Inputs,
    groups: usize,
    capacity: u64,
    /// `groups` x `capacity` model bytes.
    state: Vec<AtomicU8>,
    /// Shard each item was routed to (low four bits) and the thread that
    /// produced it (high four bits).
    lane_of: Vec<AtomicU8>,
    produced: AtomicU64,
    attempted: AtomicU64,
    failed: AtomicU64,
    first_failure: std::sync::Mutex<Option<String>>,
}

impl Model {
    /// A model for up to `capacity` items delivered to `groups` groups.
    pub fn new(inputs: Inputs, groups: usize, capacity: u64) -> Self {
        let bytes = |n: u64| (0..n).map(|_| AtomicU8::new(0)).collect::<Vec<_>>();
        Model {
            inputs,
            groups,
            capacity,
            state: bytes(groups as u64 * capacity),
            lane_of: bytes(capacity),
            produced: AtomicU64::new(0),
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            first_failure: std::sync::Mutex::new(None),
        }
    }

    /// The inputs the model recomputes items from.
    pub fn inputs(&self) -> &Inputs {
        &self.inputs
    }

    #[inline]
    fn slot(&self, group: usize, seq: u64) -> &AtomicU8 {
        &self.state[group * self.capacity as usize + seq as usize]
    }

    #[cold]
    fn fail(&self, what: impl FnOnce() -> String) {
        self.failed.fetch_add(1, Relaxed);
        let mut first = self.first_failure.lock().unwrap();
        if first.is_none() {
            *first = Some(what());
        }
    }

    /// Counts `n` operations as attempted.
    #[inline]
    pub fn attempt(&self, n: u64) {
        self.attempted.fetch_add(n, Relaxed);
    }

    /// Reserves the next `n` sequence numbers for one producer.
    pub fn reserve(&self, n: u64) -> u64 {
        let first = self.produced.fetch_add(n, Relaxed);
        assert!(
            first + n <= self.capacity,
            "model capacity {} exceeded",
            self.capacity
        );
        first
    }

    /// Records that thread `tid` put item `seq` into `shard`.
    #[inline]
    pub fn produced(&self, seq: u64, shard: usize, tid: usize) {
        debug_assert!(shard < LANES && tid < LANES);
        self.lane_of[seq as usize].store((tid << 4 | shard) as u8, Relaxed);
    }

    /// (max − min) ÷ mean of how many of items `first..first + n` went to
    /// each of `shards` shards: the depth skew after a fill onto an empty
    /// queue. (`ShardedQueue::depth_estimates` cannot say: recovery resets
    /// the estimates to zero whatever the shards hold.)
    pub fn routing_skew(&self, first: u64, n: u64, shards: usize) -> f64 {
        let mut counts = vec![0u64; shards];
        for seq in first..first + n {
            counts[(self.lane_of[seq as usize].load(Relaxed) & 0xF) as usize] += 1;
        }
        let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        (max - min) as f64 * shards as f64 / n.max(1) as f64
    }

    /// Items produced so far.
    pub fn produced_count(&self) -> u64 {
        self.produced.load(Relaxed)
    }

    /// Chooses the 5 % of items `first..first + len` that every group
    /// nacks once; returns how many that is per group.
    pub fn plan_nacks(&self, first: u64, len: u64) -> u64 {
        let mut per_group = 0;
        for group in 0..self.groups {
            let picks = self.inputs.nack_positions(group, first, len as usize);
            per_group = picks.len() as u64;
            for pos in picks {
                self.slot(group, first + pos as u64)
                    .fetch_or(PLANNED, Relaxed);
            }
        }
        per_group
    }

    /// Checks a lease handed out by `dequeue` in `group`; returns the
    /// item's sequence number when it is one the model knows, and whether
    /// the plan says to nack it now.
    #[inline]
    pub fn delivered(
        &self,
        group: usize,
        lease: &Lease,
        view: &mut FifoView,
    ) -> Option<(u64, bool)> {
        let Some(seq) = self
            .inputs
            .seq_of(lease.item)
            .filter(|&s| s < self.produced.load(Relaxed))
        else {
            self.fail(|| format!("group {group}: delivered {:#x}, never produced", lease.item));
            return None;
        };
        let slot = self.slot(group, seq);
        let s = slot.load(Relaxed);
        let grants = s & GRANTS;
        if s & ACKED != 0 {
            self.fail(|| format!("group {group}: item {seq} delivered again after its ack"));
        } else if s & LEASED != 0 {
            self.fail(|| format!("group {group}: item {seq} leased twice at once"));
        } else if lease.delivery_count != grants as u32 + 1 {
            self.fail(|| {
                format!(
                    "group {group}: item {seq} delivered with count {} after {grants} lease(s)",
                    lease.delivery_count
                )
            });
        }
        if grants == 0 {
            let lane = self.lane_of[seq as usize].load(Relaxed) as usize;
            let last = &mut view.last[group * LANES * LANES + lane];
            if seq < *last {
                let before = *last - 1;
                self.fail(|| {
                    format!(
                        "group {group}: shard {} delivered producer {}'s item {seq} after \
                         its item {before}",
                        lane & 0xF,
                        lane >> 4
                    )
                });
            }
            *last = seq + 1;
        }
        slot.store((s & !GRANTS) | (grants + 1).min(GRANTS) | LEASED, Relaxed);
        Some((seq, s & (PLANNED | NACKED) == PLANNED))
    }

    /// Checks the outcome of `ack` on item `seq`.
    #[inline]
    pub fn acked(&self, group: usize, seq: u64, ok: bool) {
        if !ok {
            self.fail(|| format!("group {group}: ack of item {seq} returned Err"));
            return;
        }
        let slot = self.slot(group, seq);
        let s = slot.load(Relaxed);
        slot.store((s & !LEASED) | ACKED, Relaxed);
    }

    /// Records that the lease on item `seq` is about to be nacked. Called
    /// before the `nack`: once that returns, another thread may already
    /// hold the redelivery.
    #[inline]
    pub fn nacking(&self, group: usize, seq: u64) {
        let slot = self.slot(group, seq);
        let s = slot.load(Relaxed);
        slot.store((s & !LEASED) | NACKED, Relaxed);
    }

    /// Checks the outcome of the `nack` announced by
    /// [`nacking`](Self::nacking).
    #[inline]
    pub fn nacked(&self, group: usize, seq: u64, ok: bool) {
        if !ok {
            self.fail(|| format!("group {group}: nack of item {seq} did not requeue"));
        }
    }

    /// A `dequeue` came back empty although the model still holds
    /// `missing` unacked items for `group`.
    pub fn starved(&self, group: usize, missing: u64) {
        self.fail(|| format!("group {group}: dequeue returned None with {missing} item(s) owed"));
    }

    /// A drained group handed out one more item.
    pub fn surplus(&self, group: usize, item: u64) {
        self.fail(|| format!("group {group}: drained, yet delivered {item:#x}"));
    }

    /// The process "crashed" holding a lease on `seq`: it must come back
    /// after the reopen with its count bumped.
    pub fn caught_in_flight(&self, group: usize, seq: u64) {
        let slot = self.slot(group, seq);
        let s = slot.load(Relaxed);
        slot.store((s & !LEASED) | CAUGHT, Relaxed);
    }

    /// End-of-run audit of items `range` in every group: acked exactly
    /// once, leased once, plus once if nacked, plus once if a reopen
    /// caught it. Counts one attempt per item per group.
    pub fn audit(&self, range: std::ops::Range<u64>) {
        for group in 0..self.groups {
            for seq in range.clone() {
                self.attempt(1);
                let s = self.slot(group, seq).load(Relaxed);
                let want = 1 + (s & NACKED != 0) as u8 + (s & CAUGHT != 0) as u8;
                if s & ACKED == 0 {
                    self.fail(|| format!("group {group}: item {seq} was lost (never acked)"));
                } else if s & LEASED != 0 || s & GRANTS != want {
                    self.fail(|| {
                        format!(
                            "group {group}: item {seq} leased {} time(s), expected {want}",
                            s & GRANTS
                        )
                    });
                }
            }
        }
    }

    /// Operations attempted and failed so far, and the first failure.
    pub fn verdict(&self) -> (u64, u64, Option<String>) {
        (
            self.attempted.load(Relaxed),
            self.failed.load(Relaxed),
            self.first_failure.lock().unwrap().clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn lease_of(item: u64, delivery_count: u32) -> Lease {
        Lease {
            id: 1,
            item,
            delivery_count,
            deadline: Instant::now(),
        }
    }

    #[test]
    fn items_round_trip_and_depend_on_the_seed() {
        let a = Inputs::new(7);
        let b = Inputs::new(8);
        for seq in [0u64, 1, 4095, 6_000_000] {
            assert_eq!(a.seq_of(a.item(seq)), Some(seq));
            assert_ne!(a.item(seq), b.item(seq));
            assert_eq!(b.seq_of(a.item(seq)), None, "foreign noise must not verify");
        }
        assert_eq!(a.seq_of(0), None);
    }

    #[test]
    fn exactly_five_percent_are_nacked_whatever_the_seed() {
        for seed in 0..20 {
            let inputs = Inputs::new(seed);
            let picks = inputs.nack_positions(1, 4096 * seed, 4096);
            assert_eq!(picks.len(), 204);
            let mut sorted = picks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 204, "positions are distinct");
            assert_ne!(
                picks,
                Inputs::new(seed + 100).nack_positions(1, 4096 * seed, 4096)
            );
        }
    }

    #[test]
    fn planned_nacks_are_asked_for_once() {
        let inputs = Inputs::new(3);
        let m = Model::new(inputs, 2, 100);
        m.reserve(100);
        assert_eq!(m.plan_nacks(0, 100), 5);
        let mut view = FifoView::new(2);
        let mut asked = 0;
        for seq in 0..100 {
            let (_, nack) = m
                .delivered(1, &lease_of(inputs.item(seq), 1), &mut view)
                .unwrap();
            if nack {
                asked += 1;
                m.nacking(1, seq);
                m.nacked(1, seq, true);
                let again = m.delivered(1, &lease_of(inputs.item(seq), 2), &mut view);
                assert_eq!(again, Some((seq, false)));
            }
            m.acked(1, seq, true);
        }
        assert_eq!(asked, 5);
        assert_eq!(m.verdict().1, 0);
    }

    #[test]
    fn a_clean_history_passes_and_each_kind_of_fault_is_caught() {
        let inputs = Inputs::new(1);
        let run = |faulty: &dyn Fn(&Model, &mut FifoView)| {
            let m = Model::new(inputs, 1, 8);
            let first = m.reserve(4);
            for seq in first..first + 4 {
                m.produced(seq, 0, 0);
            }
            let mut view = FifoView::new(1);
            faulty(&m, &mut view);
            m.verdict().1
        };
        let deliver = |m: &Model, v: &mut FifoView, seq: u64, count: u32| {
            m.delivered(0, &lease_of(inputs.item(seq), count), v)
                .map(|(seq, _)| seq)
        };
        // Clean: 0 acked, 1 nacked then acked, 2 caught by a reopen, 3 acked.
        assert_eq!(
            run(&|m, v| {
                let s = deliver(m, v, 0, 1).unwrap();
                m.acked(0, s, true);
                let s = deliver(m, v, 1, 1).unwrap();
                m.nacking(0, s);
                m.nacked(0, s, true);
                let s = deliver(m, v, 2, 1).unwrap();
                m.caught_in_flight(0, s);
                v.reset();
                let s = deliver(m, v, 2, 2).unwrap();
                m.acked(0, s, true);
                let s = deliver(m, v, 1, 2).unwrap();
                m.acked(0, s, true);
                let s = deliver(m, v, 3, 1).unwrap();
                m.acked(0, s, true);
                m.audit(0..4);
            }),
            0
        );
        // Never produced.
        assert_eq!(
            run(&|m, v| {
                deliver(m, v, 6, 1);
            }),
            1
        );
        assert_eq!(
            run(&|m, v| {
                m.delivered(0, &lease_of(inputs.item(0) ^ 1, 1), v);
            }),
            1
        );
        // Duplicate after ack.
        assert_eq!(
            run(&|m, v| {
                let s = deliver(m, v, 0, 1).unwrap();
                m.acked(0, s, true);
                deliver(m, v, 0, 2);
            }),
            1
        );
        // Wrong delivery count after a nack.
        assert_eq!(
            run(&|m, v| {
                let s = deliver(m, v, 0, 1).unwrap();
                m.nacking(0, s);
                m.nacked(0, s, true);
                deliver(m, v, 0, 1);
            }),
            1
        );
        // Out of per-shard order.
        assert_eq!(
            run(&|m, v| {
                deliver(m, v, 1, 1);
                deliver(m, v, 0, 1);
            }),
            1
        );
        // Err from ack, and a lost item at the audit.
        assert_eq!(
            run(&|m, v| {
                let s = deliver(m, v, 0, 1).unwrap();
                m.acked(0, s, false);
            }),
            1
        );
        assert_eq!(run(&|m, _| m.audit(0..1)), 1);
        assert_eq!(run(&|m, _| m.starved(0, 3)), 1);
    }
}
