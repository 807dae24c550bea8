//! One-directory leased deployments: sharded base queue, dead-letter
//! queue, and ack log side by side, created and reopened as a unit.
//!
//! Layout of a leased directory (everything the deployment owns lives in
//! one place, so backup/restore is a directory copy):
//!
//! ```text
//! deployment/
//!   SHARDS.manifest     # shard count + routing policy (shard crate)
//!   shard-00.pool …     # one pool file per shard
//!   dead-letter.pool    # the DLQ's own pool file
//!   LEASES.log          # the ack log (lease crate)
//!   groups/             # consumer-group deployments only
//!     <name>/
//!       GROUP.meta      # retirement watermark + generation
//!       segment-NNNN.log# rotating per-group ack-log segments
//!       dead-letter.pool# that group's own DLQ pool
//! ```
//!
//! Every pool of a directory, the dead-letter pools included, is created
//! under the shards' tier ([`FileConfig::sync`]), and every journal runs
//! under it too: a `GRANT` can only be as durable as the dequeue it
//! records.
//!
//! [`open_leased_dir`] recovers in dependency order — shards in parallel
//! via [`RecoveryOrchestrator`], then the DLQ pool, then the ack-log
//! replay, each under the tier its pool recorded at creation — and reports
//! the lease counts through
//! [`RecoveryReport::lease`], so one report covers the whole restart.
//! [`open_grouped_dir`] does the same for consumer-group deployments,
//! replaying every group's segment chain and reporting each one through
//! [`RecoveryReport::groups`].

use crate::group::{GroupConfig, GroupedQueue, GROUPS_DIR};
use crate::queue::{LeaseConfig, LeasedQueue};
use crate::segments::DEFAULT_ROTATE_RECORDS;
use durable_queues::{DurableQueue, QueueConfig, RecoverableQueue};
use shard::{RecoveryOrchestrator, RecoveryReport, ShardConfig, ShardManifest, ShardedQueue};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use store::{FileConfig, FilePool, SyncPolicy};

/// File name of the dead-letter queue's pool inside a leased directory.
pub const DLQ_POOL_FILE: &str = "dead-letter.pool";

/// Lease-layer options of a leased directory (the shard layer keeps its
/// own [`ShardConfig`]/[`FileConfig`]).
#[derive(Clone, Debug)]
pub struct LeaseDirConfig {
    /// How long a consumer may hold a lease.
    pub lease_timeout: Duration,
    /// Delivery budget before dead-lettering (`0` = unlimited; the DLQ
    /// file is created either way).
    pub max_deliveries: u32,
    /// Ignored: the DLQ pool and the ack log take the shards' tier
    /// ([`FileConfig::sync`]). Kept so that struct literals naming it still
    /// build.
    pub sync: SyncPolicy,
    /// Ack-log compaction floor (see [`LeaseConfig::compact_after`]).
    pub compact_after: u64,
    /// Size of the dead-letter queue's pool file in bytes.
    pub dlq_bytes: usize,
}

impl Default for LeaseDirConfig {
    fn default() -> Self {
        LeaseDirConfig {
            lease_timeout: Duration::from_secs(30),
            max_deliveries: 8,
            sync: SyncPolicy::default(),
            compact_after: 4096,
            dlq_bytes: 8 << 20,
        }
    }
}

impl LeaseDirConfig {
    fn lease_config(&self, dir: &Path, sync: SyncPolicy) -> LeaseConfig {
        LeaseConfig::new(dir)
            .with_timeout(self.lease_timeout)
            .with_max_deliveries(self.max_deliveries)
            .with_sync(sync)
            .with_compact_after(self.compact_after)
    }
}

/// Creates the dead-letter queues whose pools are `paths`, `bytes` each,
/// under the tier of the shards beside them (`file.sync`).
fn create_dlqs<Q: RecoverableQueue + 'static>(
    paths: &[PathBuf],
    queue: QueueConfig,
    file: FileConfig,
    bytes: usize,
) -> io::Result<Dlqs> {
    let file = FileConfig::with_size(bytes).with_sync(file.sync);
    paths
        .iter()
        .map(|path| {
            std::fs::create_dir_all(path.parent().expect("a pool file has a directory"))?;
            let dlq: Arc<dyn DurableQueue> =
                Arc::new(Q::create(FilePool::create(path, file)?.into_pool(), queue));
            Ok(Some(dlq))
        })
        .collect()
}

/// Reopens the dead-letter queues whose pools are `paths` once they and
/// the first shard pool of the directory `manifest` maps pass
/// [`shard::check_dir_pools`] together: one algorithm, and one tier, so a
/// dead-letter pool created under another tier than the shards' is an
/// `InvalidData` error naming it. Returns them with that tier, which the
/// journals beside them share.
fn open_dlqs<Q: RecoverableQueue + 'static>(
    dir: &Path,
    manifest: &ShardManifest,
    paths: &[PathBuf],
    queue: QueueConfig,
) -> io::Result<(Dlqs, SyncPolicy)> {
    let mut pools = manifest.pool_paths(dir);
    pools.truncate(1);
    pools.extend_from_slice(paths);
    let sync = shard::check_dir_pools::<Q>(&pools)?[0].sync;
    let dlqs = paths
        .iter()
        .map(|path| {
            let dlq: Arc<dyn DurableQueue> =
                Arc::new(Q::recover(FilePool::open(path)?.into_pool(), queue));
            Ok(Some(dlq))
        })
        .collect::<io::Result<_>>()?;
    Ok((dlqs, sync))
}

/// Creates a fresh leased deployment in `dir`: the sharded base queue
/// (via [`RecoveryOrchestrator::create_dir`]), a dead-letter queue of the
/// same algorithm on its own pool file, and a fresh ack log.
pub fn create_leased_dir<Q: RecoverableQueue + 'static>(
    orch: &RecoveryOrchestrator,
    dir: &Path,
    shard: ShardConfig,
    file: FileConfig,
    lease: &LeaseDirConfig,
) -> io::Result<LeasedQueue<ShardedQueue<Q>>> {
    let queue_config = shard.queue;
    let base = orch.create_dir::<Q>(dir, shard, file)?;
    let paths = [dir.join(DLQ_POOL_FILE)];
    let mut dlqs = create_dlqs::<Q>(&paths, queue_config, file, lease.dlq_bytes)?;
    let config = lease.lease_config(dir, file.sync);
    LeasedQueue::create(base, dlqs.pop().flatten(), config)
}

/// Reopens a leased deployment after a restart: shards in parallel (the
/// manifest is the authority on count and policy), then the DLQ pool,
/// then the ack-log replay — in-flight leases become redeliverable with
/// bumped delivery counts, and the counts land in
/// [`RecoveryReport::lease`]. Every pool reopens under the tier it was
/// created with, and the ack log under the same; a DLQ pool whose tier
/// differs from the shards' is refused with an `InvalidData` error naming
/// it.
///
/// `cursor` is the deployment's exactly-once ack engine
/// ([`ExactlyOnce`](crate::tx::ExactlyOnce), recovered from the consumer's
/// pool *before* this call), when it has one: leases whose ack transaction
/// committed but whose sidecar ack record was lost to the crash are
/// repaired instead of redelivered, keeping the exactly-once guarantee
/// through the packaged directory API. Pass `None` for plain
/// at-least-once deployments.
pub fn open_leased_dir<Q: RecoverableQueue + 'static>(
    orch: &RecoveryOrchestrator,
    dir: &Path,
    queue: QueueConfig,
    lease: &LeaseDirConfig,
    cursor: Option<&crate::tx::ExactlyOnce>,
) -> io::Result<(LeasedQueue<ShardedQueue<Q>>, RecoveryReport, ShardManifest)> {
    let (base, mut report, manifest) = orch.open_dir::<Q>(dir, queue)?;
    // The DLQ pool + ack-log replay are the lease layer's own recovery
    // work; time them as a third phase on the same clock as the report's
    // manifest-resolution and shard-replay spans.
    let (repaired, repair_phase) = shard::PhaseSpan::time("lease-repair", 3, || {
        let paths = [dir.join(DLQ_POOL_FILE)];
        let (mut dlqs, sync) = open_dlqs::<Q>(dir, &manifest, &paths, queue)?;
        let dlq = dlqs.pop().flatten();
        LeasedQueue::recover(base, dlq, lease.lease_config(dir, sync), cursor)
    });
    let (leased, rec) = repaired?;
    report.phases.push(repair_phase);
    report.lease = Some(rec);
    Ok((leased, report, manifest))
}

/// Per-group dead-letter queues, in group order.
type Dlqs = Vec<Option<Arc<dyn DurableQueue>>>;

/// Lease-layer options of a *grouped* deployment: consumer groups fanning
/// out over one sharded base queue, each with its own segment directory
/// and dead-letter pool under `groups/<name>/`.
#[derive(Clone, Debug)]
pub struct GroupDirConfig {
    /// Group names, in stripe order. Must be non-empty, unique, and
    /// path-safe (`[A-Za-z0-9._-]+`).
    pub groups: Vec<String>,
    /// How long a consumer may hold a lease.
    pub lease_timeout: Duration,
    /// Delivery budget before dead-lettering, per group (`0` = unlimited;
    /// each group's DLQ file is created either way).
    pub max_deliveries: u32,
    /// Ignored: the per-group DLQ pools and the segment logs take the
    /// shards' tier ([`FileConfig::sync`]). Kept so that struct literals
    /// naming it still build.
    pub sync: SyncPolicy,
    /// Records per segment before rotation (`0` = never rotate).
    pub rotate_records: u64,
    /// Size of each group's dead-letter pool file in bytes.
    pub dlq_bytes: usize,
}

impl GroupDirConfig {
    /// A configuration with the given group names and the defaults: 30 s
    /// lease timeout, budget of 8 deliveries, rotation every
    /// [`DEFAULT_ROTATE_RECORDS`] records, 8 MiB DLQ pools.
    pub fn new(groups: impl IntoIterator<Item = impl Into<String>>) -> Self {
        GroupDirConfig {
            groups: groups.into_iter().map(Into::into).collect(),
            lease_timeout: Duration::from_secs(30),
            max_deliveries: 8,
            sync: SyncPolicy::default(),
            rotate_records: DEFAULT_ROTATE_RECORDS,
            dlq_bytes: 8 << 20,
        }
    }

    fn group_config(&self, dir: &Path, sync: SyncPolicy) -> GroupConfig {
        GroupConfig::new(dir, self.groups.iter().cloned())
            .with_timeout(self.lease_timeout)
            .with_max_deliveries(self.max_deliveries)
            .with_sync(sync)
            .with_rotate_records(self.rotate_records)
    }

    /// The per-group DLQ pools' paths, in group order.
    fn dlq_paths(&self, dir: &Path) -> Vec<PathBuf> {
        let groups = dir.join(GROUPS_DIR);
        self.groups
            .iter()
            .map(|name| groups.join(name).join(DLQ_POOL_FILE))
            .collect()
    }
}

/// Creates a fresh grouped deployment in `dir`: the sharded base queue,
/// plus — per consumer group — a segment directory and a dead-letter
/// queue of the same algorithm under `groups/<name>/`.
pub fn create_grouped_dir<Q: RecoverableQueue + 'static>(
    orch: &RecoveryOrchestrator,
    dir: &Path,
    shard: ShardConfig,
    file: FileConfig,
    group: &GroupDirConfig,
) -> io::Result<Arc<GroupedQueue<ShardedQueue<Q>>>> {
    let queue_config = shard.queue;
    let base = orch.create_dir::<Q>(dir, shard, file)?;
    let dlqs = create_dlqs::<Q>(&group.dlq_paths(dir), queue_config, file, group.dlq_bytes)?;
    Ok(Arc::new(GroupedQueue::create(
        base,
        dlqs,
        group.group_config(dir, file.sync),
    )?))
}

/// Everything [`open_grouped_dir`] hands back: the recovered grouped
/// queue, the combined recovery report, and the shard manifest.
pub type OpenedGroupedDir<Q> = (Arc<GroupedQueue<Q>>, RecoveryReport, ShardManifest);

/// Reopens a grouped deployment after a restart: shards in parallel, then
/// every group's DLQ pool and segment-directory replay — each group's
/// in-flight leases become redeliverable with bumped delivery counts,
/// independently of the other groups — with per-group counts landing in
/// [`RecoveryReport::groups`]. Every pool reopens under the tier it was
/// created with, and the segment logs under the same; a DLQ pool whose
/// tier differs from the shards' is refused with an `InvalidData` error
/// naming it.
///
/// `cursor` is the deployment's exactly-once ack engine, recovered from
/// the consumer's pool *before* this call and created with at least as
/// many stripes as there are groups ([`ExactlyOnce::create_for_groups`](
/// crate::tx::ExactlyOnce::create_for_groups)); pass `None` for plain
/// at-least-once deployments.
pub fn open_grouped_dir<Q: RecoverableQueue + 'static>(
    orch: &RecoveryOrchestrator,
    dir: &Path,
    queue: QueueConfig,
    group: &GroupDirConfig,
    cursor: Option<&crate::tx::ExactlyOnce>,
) -> io::Result<OpenedGroupedDir<ShardedQueue<Q>>> {
    let (base, mut report, manifest) = orch.open_dir::<Q>(dir, queue)?;
    let (repaired, repair_phase) = shard::PhaseSpan::time("lease-repair", 3, || {
        let (dlqs, sync) = open_dlqs::<Q>(dir, &manifest, &group.dlq_paths(dir), queue)?;
        GroupedQueue::recover(base, dlqs, group.group_config(dir, sync), cursor)
    });
    let (grouped, recs) = repaired?;
    report.phases.push(repair_phase);
    report.groups = recs;
    Ok((Arc::new(grouped), report, manifest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use durable_queues::DurableMsQueue;
    use pmem::PoolConfig;
    use shard::RoutePolicy;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lease-dir-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn shard_config(shards: usize) -> ShardConfig {
        ShardConfig {
            shards,
            queue: QueueConfig::small_test(),
            pool: PoolConfig::test_with_size(8 << 20),
            policy: RoutePolicy::RoundRobin,
        }
    }

    #[test]
    fn leased_dir_roundtrips_through_a_restart() {
        let dir = tmp("roundtrip");
        let orch = RecoveryOrchestrator::new(2);
        let lease_cfg = LeaseDirConfig {
            max_deliveries: 3,
            ..LeaseDirConfig::default()
        };
        {
            let q = create_leased_dir::<DurableMsQueue>(
                &orch,
                &dir,
                shard_config(2),
                FileConfig::with_size(8 << 20),
                &lease_cfg,
            )
            .unwrap();
            for i in 1..=10u64 {
                q.enqueue(0, i);
            }
            let a = q.dequeue(1).unwrap();
            q.ack(&a).unwrap();
            // In flight at the "crash": an orderly drop recovers like a
            // SIGKILL (the rows of crates/harness/tests/consumer_kill.rs
            // are the real thing).
            let _b = q.dequeue(1).unwrap();
        }

        let (q, report, manifest) = open_leased_dir::<DurableMsQueue>(
            &orch,
            &dir,
            QueueConfig::small_test(),
            &lease_cfg,
            None,
        )
        .unwrap();
        assert_eq!(manifest.shards(), 2);
        let lease = report.lease.expect("lease counts in the report");
        assert_eq!(lease.unacked, 1);
        assert_eq!(lease.redelivered, 1);
        assert_eq!(lease.dead_lettered, 0);
        assert!(
            report.summary().contains("1 unacked"),
            "{}",
            report.summary()
        );

        // The unacked item comes back first, with a bumped count; the
        // acked one never does. 10 items entered, 1 was acked → 9 remain.
        let mut seen = Vec::new();
        let mut redelivered_first = None;
        while let Some(l) = q.dequeue(0) {
            if redelivered_first.is_none() {
                redelivered_first = Some(l.delivery_count);
            }
            seen.push(l.item);
            q.ack(&l).unwrap();
        }
        assert_eq!(redelivered_first, Some(2));
        assert_eq!(seen.len(), 9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn grouped_dir_roundtrips_with_per_group_reports() {
        let dir = tmp("grouped-roundtrip");
        let orch = RecoveryOrchestrator::new(2);
        let cfg = GroupDirConfig::new(["alpha", "beta"]);
        {
            let q = create_grouped_dir::<DurableMsQueue>(
                &orch,
                &dir,
                shard_config(2),
                FileConfig::with_size(8 << 20),
                &cfg,
            )
            .unwrap();
            for i in 1..=6u64 {
                q.enqueue(0, i);
            }
            let alpha = q.group("alpha").unwrap();
            let beta = q.group("beta").unwrap();
            // alpha acks two and holds one; beta drains everything.
            for _ in 0..2 {
                let l = alpha.dequeue(0).unwrap();
                alpha.ack(&l).unwrap();
            }
            let _held = alpha.dequeue(0).unwrap();
            while let Some(l) = beta.dequeue(1) {
                beta.ack(&l).unwrap();
            }
        }

        let (q, report, manifest) =
            open_grouped_dir::<DurableMsQueue>(&orch, &dir, QueueConfig::small_test(), &cfg, None)
                .unwrap();
        assert_eq!(manifest.shards(), 2);
        assert_eq!(report.groups.len(), 2);
        assert_eq!(report.groups[0].name, "alpha");
        assert_eq!(report.groups[0].unacked, 1);
        assert_eq!(report.groups[1].name, "beta");
        assert_eq!(report.groups[1].redelivered, 0);
        assert!(
            report.summary().contains("2 group(s)"),
            "{}",
            report.summary()
        );

        // alpha's held item comes back bumped, then the items beta's
        // pre-crash dispatches fanned into alpha's pending set; beta
        // settled everything, so it sees nothing.
        let alpha = q.group("alpha").unwrap();
        let r = alpha.dequeue(0).unwrap();
        assert_eq!((r.item, r.delivery_count), (3, 2));
        alpha.ack(&r).unwrap();
        let mut rest = Vec::new();
        while let Some(l) = alpha.dequeue(0) {
            rest.push(l.item);
            alpha.ack(&l).unwrap();
        }
        assert_eq!(rest, vec![4, 5, 6]);
        let beta = q.group("beta").unwrap();
        assert!(beta.dequeue(1).is_none(), "beta resurrected settled items");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
