//! # shard — horizontal scaling for the durable-queue family
//!
//! A single durable queue — even one meeting the one-persist-per-operation
//! lower bound — is serialized on one head/tail pair. This crate adds the
//! layer production queueing systems put on top: a [`ShardedQueue`] that
//! partitions traffic across `N` independent shards, each owning its own
//! [`pmem::PmemPool`] and inner queue, behind the same
//! [`durable_queues::DurableQueue`] interface. Because the composition is
//! generic over [`durable_queues::RecoverableQueue`], every algorithm in the
//! workspace (the paper's four amendment queues, the three baselines, and
//! both PTM baselines) scales the same way.
//!
//! Four parts:
//!
//! * [`RoutePolicy`] — how operations pick a shard: per-thread round-robin,
//!   key hashing (via the [`durable_queues::KeyedQueue`] extension trait,
//!   giving per-key FIFO order), or load-aware balancing on per-shard depth
//!   estimates.
//! * [`ShardedQueue`] — the composition itself, with aggregated
//!   [`pmem::StatsSnapshot`] accounting (the sum of every shard's persist
//!   counters) plus per-shard breakdowns for the bench layer.
//! * [`RecoveryOrchestrator`] — coherent crash fan-out over all shards and
//!   **parallel** recovery across a bounded thread pool, timed per shard
//!   ([`RecoveryReport`]) so restart latency and straggler shards are
//!   visible. For file-backed deployments,
//!   [`create_dir`](RecoveryOrchestrator::create_dir) /
//!   [`open_dir`](RecoveryOrchestrator::open_dir) persist and recover a
//!   whole directory of pool files under a CRC-checked [`ShardManifest`] —
//!   the manifest, not the caller, is the authority on shard count and
//!   routing policy.
//! * [`reshard`] — elastic shard counts:
//!   [`reshard_dir`](RecoveryOrchestrator::reshard_dir) splits or merges a
//!   directory from N to N′ shards behind a crash-safe two-phase manifest
//!   protocol (write-ahead [`ReshardIntent`], scratch-copy drain, atomic
//!   manifest commit); an interrupted reshard is rolled back or forward by
//!   [`resolve_reshard`] on the next `open_dir`.
//!
//! ```
//! use durable_queues::{DurableQueue, KeyedQueue, OptUnlinkedQueue};
//! use shard::{RecoveryOrchestrator, RoutePolicy, ShardConfig, ShardedQueue};
//!
//! let q = ShardedQueue::<OptUnlinkedQueue>::create(
//!     ShardConfig::small_test(4).with_policy(RoutePolicy::KeyHash),
//! );
//! q.enqueue_keyed(0, /*key*/ 17, 1);
//! q.enqueue_keyed(0, 17, 2); // same key: same shard, FIFO after the 1
//!
//! // Crash all four shards coherently, then recover them in parallel.
//! let orch = RecoveryOrchestrator::new(4);
//! let (recovered, report) = orch.crash_and_recover(&q);
//! assert_eq!(report.per_shard.len(), 4);
//! assert_eq!(recovered.dequeue(0), Some(1));
//! assert_eq!(recovered.dequeue(0), Some(2));
//! ```
//!
//! What sharding trades away: global FIFO order. Each shard remains durably
//! linearizable and per-key order survives under key-hash routing, which is
//! the contract real partitioned brokers (Kafka partitions, sharded AMQP
//! queues) offer.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod manifest;
pub mod recovery;
pub mod reshard;
pub mod route;
pub mod sharded;

pub use manifest::{ReshardIntent, ShardManifest, INTENT_FILE, MANIFEST_FILE, MANIFEST_VERSION};
pub use recovery::{
    check_dir_pools, check_pool, GroupRecovery, LeaseRecovery, PhaseSpan, RecoveryOrchestrator,
    RecoveryReport, ShardRecovery,
};
pub use reshard::{resolve_reshard, ReshardReport, ReshardResolution};
pub use route::RoutePolicy;
pub use sharded::{ShardConfig, ShardedQueue};
