//! Durable peek-lock consumption over any durable queue.
//!
//! The queues in `crates/core` consume destructively: `dequeue` removes
//! the item, and a consumer that crashes *after* the dequeue but *before*
//! finishing its work silently loses the message. Message brokers solve
//! this with **peek-lock** (leases): a dequeue hands the consumer a
//! time-limited lease while the broker keeps durable ownership of the item
//! until it is acknowledged. This crate layers that protocol on top of any
//! [`DurableQueue`](durable_queues::DurableQueue) — the ten paper
//! algorithms, the `shard` crate's partitioned composition, or anything
//! else implementing the trait.
//!
//! # State machine
//!
//! ```text
//!            enqueue                    dequeue (GRANT)
//!   producer ───────▶ ready (base queue) ───────▶ leased ──ack (ACK)──▶ consumed
//!                        ▲                          │
//!                        │ regrant (GRANT w/ prev)  │ nack / deadline expiry
//!                        │                          ▼
//!                        └──────── pending (PEND) ◀─┘
//!                                     │
//!                                     │ delivery_count would exceed budget
//!                                     ▼
//!                          dead-letter queue (DEAD)
//! ```
//!
//! Every transition is one CRC'd 40-byte record appended to a journal —
//! and, under the power-fail tier, forced before the operation returns —
//! *before* it is acted on,
//! so a restart replays the journal and every lease without a terminal
//! record becomes redeliverable with an incremented delivery count:
//! **at-least-once** delivery. Items that exhaust their delivery budget
//! overflow to a dead-letter queue, itself a durable queue in the same
//! directory.
//!
//! # One state machine, two journals
//!
//! The state machine is implemented once, in the crate-private `engine`
//! module: one delivery cursor (in-flight leases, deadline heap, pending
//! queue, lease-id counter) behind one lock, generic over the journal it
//! appends to. Two public surfaces sit on it and differ in nothing else:
//!
//! * [`LeasedQueue`] ([`queue`]) — a single cursor over the single-file
//!   [`AckLog`] (`LEASES.log`, [`log`] module), whose retired prefix is
//!   reclaimed by whole-file compaction. A fresh item is granted straight
//!   off the base queue's destructive pop.
//! * [`GroupedQueue`] ([`group`]) — **consumer groups**: every item is
//!   fanned out to N groups, each its own cursor behind its own lock over
//!   its own directory of rotating segments ([`SegmentedLog`],
//!   [`segments`] module: rotation plus retirement of fully-settled
//!   segments instead of stop-the-world compaction), while consumers
//!   *within* a group compete for disjoint subsets. A fresh item is first
//!   recorded as pending in every group, then granted from there.
//!
//! The [`tx`] module upgrades the ack side to **exactly-once handoff**:
//! `ack_exactly_once` (on either surface) runs the consumer's own state
//! transition and the ack in a single `crates/ptm` redo-log transaction,
//! whose commit point settles both atomically; recovery repairs acks whose
//! sidecar record was lost to the crash instead of redelivering. The
//! cursor stripes by `(group, tid)` — a [`LeasedQueue`] is stripe 0 — so
//! the same consumer thread can settle in several groups.
//!
//! [`dir`] packages the whole thing as one directory — sharded base
//! queue, dead-letter pool(s), ack log or per-group segment directories —
//! created and reopened as a unit, with lease-recovery counts reported
//! through [`shard::RecoveryReport::lease`] and
//! [`shard::RecoveryReport::groups`].

#![warn(missing_docs)]

pub mod dir;
mod engine;
mod file;
pub mod group;
pub mod log;
#[cfg(test)]
mod powerfail;
pub mod queue;
pub mod segments;
pub mod tx;

pub use dir::{
    create_grouped_dir, create_leased_dir, open_grouped_dir, open_leased_dir, GroupDirConfig,
    LeaseDirConfig, OpenedGroupedDir, DLQ_POOL_FILE,
};
pub use group::{ConsumerGroup, GroupConfig, GroupRecovered, GroupStats, GroupedQueue, GROUPS_DIR};
pub use log::{AckLog, Record, RecordKind, Replay, LEASE_LOG_FILE};
pub use queue::{
    Lease, LeaseConfig, LeaseError, LeaseStats, LeasedQueue, RecoveredLeases, Redelivery,
};
pub use segments::{
    GroupReplay, SegmentedLog, DEFAULT_ROTATE_RECORDS, GROUP_META_FILE, SEGMENT_HEADER_LEN,
};
pub use tx::{ExactlyOnce, CURSOR_ROOT_SLOT};
