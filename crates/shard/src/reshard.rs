//! Elastic resharding: split or merge a file-backed shard directory.
//!
//! [`RecoveryOrchestrator::reshard_dir`] converts a directory created by
//! `create_dir` from N shards to N′ — the first operation in this workspace
//! that rewrites persistent state *structurally* (replacing pool files)
//! rather than append-wise. Items are moved by draining each source shard
//! through its ordinary [`DurableQueue`](durable_queues::DurableQueue)
//! interface into freshly created [`store::FilePool`]-backed destination
//! shards:
//!
//! * under [`RoutePolicy::KeyHash`], each drained item is re-routed by its
//!   key against the new shard count, so **per-key FIFO order survives the
//!   reshard** (a key's items live on one source shard in FIFO order and
//!   are re-enqueued, in that order, onto the key's one new home shard);
//! * under [`RoutePolicy::RoundRobin`] / [`RoutePolicy::LoadAware`], each
//!   source stream is dealt round-robin across the destinations, so items
//!   that end up on the same destination shard preserve their source-shard
//!   order — the same **per-shard FIFO** contract those policies already
//!   offer.
//!
//! ## Crash safety: the two-phase manifest protocol
//!
//! The operation never mutates a source pool file. It drains *scratch
//! copies*, builds destinations in `*.tmp` files, and uses the shard-map
//! manifest as a write-ahead intent log:
//!
//! ```text
//!  1. write SHARDS.manifest.reshard        (intent: old + new file lists)
//!  2. copy sources -> .<src>.reshard-src   (scratch; sources untouched)
//!  3. recover scratch, drain into <dst>.tmp destination pools, delete scratch
//!  4. close destinations (full msync+fsync, header marked clean), check
//!     each closed clean, rename <dst>.tmp -> <dst>
//!  5. rewrite SHARDS.manifest atomically   <- THE COMMIT POINT
//!  6. delete sources, delete the intent record
//! ```
//!
//! A crash (or `kill -9`) at any point leaves a directory
//! [`resolve_reshard`] — run automatically by
//! [`RecoveryOrchestrator::open_dir`] — returns to one of the two
//! consistent states: before step 5 the manifest still names the sources,
//! so the destinations and scratch copies are deleted (**rollback**, no
//! item was ever moved out of the sources); from step 5 on the manifest
//! names the destinations, so the leftover sources and scratch are deleted
//! (**roll-forward**, the destinations were fully durable before the
//! commit rename). Either way the resident items are exactly preserved.

use crate::manifest::{invalid, ReshardIntent, ShardManifest};
use crate::recovery::{check_dir_pools, par_map_shards, RecoveryOrchestrator};
use crate::route::{mix, RoutePolicy};
use durable_queues::{QueueConfig, RecoverableQueue};
use obs::flight::EventKind;
use obs::sys::{self, durable::sync_dir};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use store::{copy_pool_file, FileConfig, FilePool};

/// The scratch-copy name a reshard uses for source pool `src`.
fn scratch_name(src: &str) -> String {
    format!(".{src}.reshard-src")
}

/// The build name a reshard uses for destination pool `dst` before commit.
fn tmp_name(dst: &str) -> String {
    format!("{dst}.tmp")
}

/// The generation number for the next set of destination pool files.
/// Creation names pools `shard-NN.pool` (generation 0); each reshard bumps
/// the generation (`shard-g1-NN.pool`, `shard-g2-NN.pool`, ...) so
/// destination names can never collide with the sources they replace.
fn next_generation(files: &[String]) -> u64 {
    files
        .iter()
        .filter_map(|f| {
            f.strip_prefix("shard-g")?
                .split('-')
                .next()?
                .parse::<u64>()
                .ok()
        })
        .max()
        .map(|g| g + 1)
        .unwrap_or(1)
}

/// How an interrupted reshard found at open time was resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReshardResolution {
    /// The crash hit **before** the manifest commit: destinations and
    /// scratch copies were deleted, the directory is back at `from` shards
    /// with every resident item untouched.
    RolledBack {
        /// Shard count the interrupted reshard started from (still live).
        from: usize,
        /// Shard count the interrupted reshard was converting to.
        to: usize,
    },
    /// The crash hit **after** the manifest commit: leftover sources and
    /// scratch copies were deleted, the directory is at `to` shards with
    /// every resident item moved.
    RolledForward {
        /// Shard count the completed reshard converted from (now deleted).
        from: usize,
        /// Shard count the directory now has.
        to: usize,
    },
}

/// The outcome of one completed resharding operation.
#[derive(Clone, Copy, Debug)]
pub struct ReshardReport {
    /// Shard count before.
    pub from: usize,
    /// Shard count after.
    pub to: usize,
    /// Routing policy of the directory (unchanged by the reshard).
    pub policy: RoutePolicy,
    /// Resident items moved from the sources to the destinations.
    pub items_moved: u64,
    /// Wall-clock time of the whole operation.
    pub wall: Duration,
    /// Time spent copying, recovering and draining (the data plane).
    pub drain: Duration,
    /// Time spent on the commit (renames, manifest rewrite, cleanup).
    pub commit: Duration,
}

impl ReshardReport {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "resharded {} -> {} shards ({}, {} items) in {:.3} ms (drain {:.3} ms, commit {:.3} ms)",
            self.from,
            self.to,
            self.policy.key(),
            self.items_moved,
            self.wall.as_secs_f64() * 1e3,
            self.drain.as_secs_f64() * 1e3,
            self.commit.as_secs_f64() * 1e3,
        )
    }
}

/// Detects and resolves an interrupted reshard in `dir`, rolling it back or
/// forward to whichever consistent state the crash left authoritative (see
/// the [module docs](self)). Returns `Ok(None)` when no reshard was in
/// flight. Idempotent: a second call after a successful resolution is a
/// no-op.
///
/// [`RecoveryOrchestrator::open_dir`] and
/// [`RecoveryOrchestrator::reshard_dir`] both run this automatically;
/// call it directly only to learn *how* a directory was resolved.
pub fn resolve_reshard(dir: &Path) -> io::Result<Option<ReshardResolution>> {
    if !ReshardIntent::exists(dir) {
        return Ok(None);
    }
    let intent = ReshardIntent::read(dir)?;
    let manifest = ShardManifest::read(dir)?;
    let remove = |name: &str| match fs::remove_file(dir.join(name)) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    };
    let resolution = if manifest.pool_files == intent.new_files {
        // The commit landed: the destinations are authoritative. Finish the
        // cleanup the interrupted reshard never got to.
        for f in &intent.old_files {
            remove(f)?;
            remove(&scratch_name(f))?;
        }
        for f in &intent.new_files {
            remove(&tmp_name(f))?;
        }
        ReshardResolution::RolledForward {
            from: intent.from_shards(),
            to: intent.to_shards(),
        }
    } else if manifest.pool_files == intent.old_files {
        // The commit never landed: the sources are authoritative and were
        // never mutated. Destinations (committed-name or `.tmp`) and
        // scratch copies are garbage.
        for f in &intent.new_files {
            remove(f)?;
            remove(&tmp_name(f))?;
        }
        for f in &intent.old_files {
            remove(&scratch_name(f))?;
        }
        ReshardResolution::RolledBack {
            from: intent.from_shards(),
            to: intent.to_shards(),
        }
    } else {
        return Err(invalid(format!(
            "{}: manifest matches neither side of the reshard intent",
            dir.display()
        )));
    };
    sync_dir(dir)?;
    ReshardIntent::remove(dir)?;
    let forward = matches!(resolution, ReshardResolution::RolledForward { .. });
    obs::flight::record(EventKind::ReshardResolved, forward as u64, 0);
    Ok(Some(resolution))
}

impl RecoveryOrchestrator {
    /// Reshards the file-backed directory `dir` from its current shard
    /// count to `to_shards`, splitting or merging the resident items (see
    /// the [module docs](self) for ordering guarantees and the crash-safety
    /// protocol). The directory must be closed (no live queue on it); it
    /// may be freshly crash-recovered — the drain runs each source shard's
    /// ordinary `Q::recover` first.
    ///
    /// Under the key-hash policy items are routed by themselves (`key =
    /// item`); when keys are *encoded inside* items, use
    /// [`reshard_dir_with`](Self::reshard_dir_with) and pass the decoder.
    ///
    /// `to_shards` may equal the current count: that degenerates to a
    /// compaction pass (every pool file is rebuilt with only live items).
    pub fn reshard_dir<Q: RecoverableQueue>(
        &self,
        dir: &Path,
        to_shards: usize,
        queue: QueueConfig,
    ) -> io::Result<ReshardReport> {
        self.reshard_dir_with::<Q>(dir, to_shards, queue, None, |item| item)
    }

    /// [`reshard_dir`](Self::reshard_dir) with an explicit destination pool
    /// configuration (`None` sizes destinations from the sources' persisted
    /// watermarks; either way the destinations inherit the tier the sources
    /// were created under, and sources of mixed tiers are refused) and a key
    /// extractor used to re-route items under the
    /// key-hash policy. `key_of` must return, for every resident item, the
    /// key it was originally enqueued with — the reshard routes each item
    /// to `mix(key) % to_shards`, exactly where the reopened queue's
    /// `shard_for_key` will look for it.
    pub fn reshard_dir_with<Q: RecoverableQueue>(
        &self,
        dir: &Path,
        to_shards: usize,
        queue: QueueConfig,
        dest_file: Option<FileConfig>,
        key_of: impl Fn(u64) -> u64,
    ) -> io::Result<ReshardReport> {
        assert!(to_shards >= 1, "a shard directory needs at least 1 shard");
        let started = Instant::now();
        // Finish any interrupted reshard first, so the manifest and the
        // directory contents agree before a new intent is written.
        resolve_reshard(dir)?;
        let manifest = ShardManifest::read(dir)?;
        let from_shards = manifest.shards();
        let policy = manifest.policy;
        let old_paths = manifest.pool_paths(dir);

        // The sources' headers: `Q`'s tag on each, and one tier, which the
        // destinations inherit — a reshard never changes a directory's tier.
        let sources = check_dir_pools::<Q>(&old_paths)?;
        // Destination sizing, unless overridden: every destination can hold
        // the entire resident data set (skew-proof — key hashing may route
        // every item to one shard) plus allocator slack, and is never
        // smaller than the largest source pool. Geometry reads report the
        // *effective* (grown) size and the watermark within it, so sources
        // that outgrew their creation size are never under-provisioned.
        let file = match dest_file {
            Some(f) => f,
            None => {
                let total_used: usize = sources.iter().map(|g| g.used_bytes()).sum();
                let max_size = sources.iter().map(|g| g.pool_size).max().unwrap_or(0);
                let slack = queue.max_threads * queue.area_size as usize * 2 + (8 << 20);
                FileConfig::with_size(max_size.max(total_used + slack))
            }
        }
        .with_sync(sources[0].sync);

        let generation = next_generation(&manifest.pool_files);
        let new_files: Vec<String> = (0..to_shards)
            .map(|i| format!("shard-g{generation}-{i:02}.pool"))
            .collect();
        for f in &new_files {
            if manifest.pool_files.contains(f) {
                return Err(invalid(format!(
                    "{}: destination {f} collides with a live pool file",
                    dir.display()
                )));
            }
        }

        // Write-ahead: from here on, a crash at ANY point resolves cleanly.
        let intent = ReshardIntent {
            old_files: manifest.pool_files.clone(),
            new_files: new_files.clone(),
        };
        intent.write(dir)?;
        // Durable intent on disk: log it before the crash-injection hook so
        // a kill here shows the reshard as started-but-uncommitted.
        obs::flight::record(
            EventKind::ReshardIntent,
            from_shards as u64,
            to_shards as u64,
        );
        // The two crash points, right after the intent write and right after
        // the manifest commit, pin down the rollback and roll-forward sides
        // deterministically; random mid-drain kills cover the rest.
        sys::crash_point("DQ_RESHARD_ABORT_AFTER_INTENT");

        // ---- Phase 1: the data plane. Sources are never mutated; every
        // write goes to a scratch copy or a `.tmp` destination.
        let drain_started = Instant::now();
        let scratch: Vec<PathBuf> = manifest
            .pool_files
            .iter()
            .map(|f| dir.join(scratch_name(f)))
            .collect();
        par_map_shards(from_shards, self.threads(), |i| {
            copy_pool_file(&old_paths[i], &scratch[i]).map(|_| ())
        })
        .into_iter()
        .collect::<io::Result<Vec<()>>>()?;
        // A source that grew under load is typically near-full, and
        // `Q::recover` + the drain allocate fresh designated areas on top of
        // the copied heap; the scratch is throwaway, so open it elastic with
        // enough step for the allocator's per-thread areas.
        let scratch_grow = (queue.max_threads * queue.area_size as usize).max(1 << 20);
        let sources: Vec<Q> = par_map_shards(from_shards, self.threads(), |i| {
            FilePool::open_with_config(&scratch[i], FileConfig::default().with_growth(scratch_grow))
                .map(|p| Q::recover(p.into_pool(), queue))
        })
        .into_iter()
        .collect::<io::Result<_>>()?;
        let dest_tmp: Vec<PathBuf> = new_files.iter().map(|f| dir.join(tmp_name(f))).collect();
        let dests: Vec<Q> = par_map_shards(to_shards, self.threads(), |i| {
            FilePool::create(&dest_tmp[i], file).map(|p| Q::create(p.into_pool(), queue))
        })
        .into_iter()
        .collect::<io::Result<_>>()?;

        // Drain sequentially in shard order: deterministic routing, and a
        // single logical thread (tid 0) on every queue.
        let mut items_moved = 0u64;
        let mut rr_next = 0usize;
        for source in &sources {
            while let Some(item) = source.dequeue(0) {
                let dest = match policy {
                    RoutePolicy::KeyHash => (mix(key_of(item)) % to_shards as u64) as usize,
                    RoutePolicy::RoundRobin | RoutePolicy::LoadAware => {
                        let d = rr_next;
                        rr_next = (rr_next + 1) % to_shards;
                        d
                    }
                };
                dests[dest].enqueue(0, item);
                items_moved += 1;
            }
        }
        // The scratch copies are garbage from here on: unlinked first, they
        // close without syncing a byte.
        for f in &scratch {
            fs::remove_file(f)?;
        }
        drop(sources);
        // Every destination is fully durable BEFORE any rename makes it
        // visible under its committed name: its close msyncs and fsyncs it
        // whole, then marks and syncs its header clean. A destination that
        // reads dirty after the close had one of those syncs fail; the
        // reshard stops here, with the intent still naming the sources, so
        // the next open rolls it back.
        drop(dests);
        for tmp in &dest_tmp {
            if !FilePool::read_geometry(tmp)?.was_clean {
                return Err(invalid(format!("{}: did not close clean", tmp.display())));
            }
        }
        let drain = drain_started.elapsed();

        // ---- Phase 2: commit. The manifest rewrite is the atomic switch;
        // everything after it is cleanup that a crash merely postpones.
        let commit_started = Instant::now();
        for (tmp, f) in dest_tmp.iter().zip(&new_files) {
            fs::rename(tmp, dir.join(f))?;
        }
        sync_dir(dir)?;
        ShardManifest {
            policy,
            pool_files: new_files,
        }
        .write(dir)?;
        obs::flight::record(EventKind::ReshardCommit, to_shards as u64, items_moved);
        sys::crash_point("DQ_RESHARD_ABORT_AFTER_COMMIT");
        for path in &old_paths {
            fs::remove_file(path)?;
        }
        sync_dir(dir)?;
        ReshardIntent::remove(dir)?;
        let commit = commit_started.elapsed();

        Ok(ReshardReport {
            from: from_shards,
            to: to_shards,
            policy,
            items_moved,
            wall: started.elapsed(),
            drain,
            commit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ShardConfig;
    use durable_queues::{DurableQueue, KeyedQueue, OptUnlinkedQueue};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("shard-reshard-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn config(shards: usize, policy: RoutePolicy) -> ShardConfig {
        ShardConfig {
            shards,
            queue: QueueConfig::small_test(),
            pool: pmem::PoolConfig::test_with_size(4 << 20),
            policy,
        }
    }

    fn file() -> FileConfig {
        FileConfig::with_size(4 << 20)
    }

    #[test]
    fn split_then_merge_preserves_the_item_set() {
        let dir = temp_dir("roundtrip");
        let orch = RecoveryOrchestrator::new(4);
        {
            let q: crate::ShardedQueue<OptUnlinkedQueue> = orch
                .create_dir(&dir, config(2, RoutePolicy::RoundRobin), file())
                .unwrap();
            for i in 1..=500u64 {
                q.enqueue(0, i);
            }
        }
        let report = orch
            .reshard_dir::<OptUnlinkedQueue>(&dir, 8, QueueConfig::small_test())
            .unwrap();
        assert_eq!((report.from, report.to), (2, 8));
        assert_eq!(report.items_moved, 500);
        assert!(report.summary().contains("2 -> 8"));

        let report = orch
            .reshard_dir::<OptUnlinkedQueue>(&dir, 3, QueueConfig::small_test())
            .unwrap();
        assert_eq!((report.from, report.to), (8, 3));
        assert_eq!(report.items_moved, 500);

        let (q, _, manifest) = orch
            .open_dir::<OptUnlinkedQueue>(&dir, QueueConfig::small_test())
            .unwrap();
        assert_eq!(manifest.shards(), 3);
        // Generations bump on every reshard, so names never collide.
        assert!(manifest.pool_files[0].starts_with("shard-g2-"));
        let mut got: Vec<u64> = std::iter::from_fn(|| q.dequeue(0)).collect();
        got.sort_unstable();
        assert_eq!(got, (1..=500).collect::<Vec<_>>());
        drop(q);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn grown_sources_reshard_with_destinations_sized_from_grown_geometry() {
        // Shards created deliberately tiny grow past their creation ceiling
        // under load; the reshard must size destinations from the *grown*
        // geometry (effective size + watermark), not the creation size.
        let dir = temp_dir("grown");
        let orch = RecoveryOrchestrator::new(2);
        let items = 8_000u64;
        {
            let q: crate::ShardedQueue<OptUnlinkedQueue> = orch
                .create_dir(
                    &dir,
                    config(2, RoutePolicy::RoundRobin),
                    FileConfig::with_size(128 << 10).with_growth(128 << 10),
                )
                .unwrap();
            for i in 1..=items {
                q.enqueue(0, i);
            }
        }
        let manifest = crate::ShardManifest::read(&dir).unwrap();
        let grown: u32 = manifest
            .pool_paths(&dir)
            .iter()
            .map(|p| store::FilePool::read_geometry(p).unwrap().growth_epoch)
            .sum();
        assert!(grown >= 2, "both tiny shards must have grown, got {grown}");

        let report = orch
            .reshard_dir::<OptUnlinkedQueue>(&dir, 1, QueueConfig::small_test())
            .unwrap();
        assert_eq!(report.items_moved, items);

        let (q, recovery, manifest) = orch
            .open_dir::<OptUnlinkedQueue>(&dir, QueueConfig::small_test())
            .unwrap();
        assert_eq!(manifest.shards(), 1);
        // The merged destination was built fresh at its (grown-aware) size:
        // it holds every item without having needed to grow itself.
        assert_eq!(recovery.total_growth_epochs(), 0);
        let mut got: Vec<u64> = std::iter::from_fn(|| q.dequeue(0)).collect();
        got.sort_unstable();
        assert_eq!(got.len(), items as usize);
        assert_eq!(got, (1..=items).collect::<Vec<_>>());
        drop(q);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keyhash_reshard_rehomes_every_key_with_fifo_intact() {
        let dir = temp_dir("keyhash");
        let orch = RecoveryOrchestrator::new(2);
        let encode = |key: u64, seq: u64| (key << 32) | seq;
        {
            let q: crate::ShardedQueue<OptUnlinkedQueue> = orch
                .create_dir(&dir, config(4, RoutePolicy::KeyHash), file())
                .unwrap();
            for seq in 1..=50u64 {
                for key in 0..10u64 {
                    q.enqueue_keyed(0, key, encode(key, seq));
                }
            }
        }
        let report = orch
            .reshard_dir_with::<OptUnlinkedQueue>(
                &dir,
                2,
                QueueConfig::small_test(),
                None,
                |item| item >> 32,
            )
            .unwrap();
        assert_eq!(report.items_moved, 500);
        assert_eq!(report.policy, RoutePolicy::KeyHash);

        let (q, _, manifest) = orch
            .open_dir::<OptUnlinkedQueue>(&dir, QueueConfig::small_test())
            .unwrap();
        assert_eq!(manifest.shards(), 2);
        // A post-reshard keyed enqueue lands behind its key's moved items.
        for key in 0..10u64 {
            q.enqueue_keyed(0, key, encode(key, 51));
        }
        let mut last = std::collections::HashMap::new();
        let mut counts = std::collections::HashMap::new();
        while let Some(v) = q.dequeue(0) {
            let (key, seq) = (v >> 32, v & 0xFFFF_FFFF);
            if let Some(prev) = last.insert(key, seq) {
                assert!(seq > prev, "per-key FIFO broken for key {key}");
            }
            *counts.entry(key).or_insert(0u64) += 1;
        }
        for key in 0..10u64 {
            assert_eq!(counts[&key], 51, "key {key} lost or duplicated items");
        }
        drop(q);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn same_count_reshard_is_a_compaction_pass() {
        let dir = temp_dir("compact");
        let orch = RecoveryOrchestrator::new(2);
        {
            let q: crate::ShardedQueue<OptUnlinkedQueue> = orch
                .create_dir(&dir, config(4, RoutePolicy::RoundRobin), file())
                .unwrap();
            for i in 1..=200u64 {
                q.enqueue(0, i);
            }
            for _ in 0..150 {
                q.dequeue(0).unwrap();
            }
        }
        let report = orch
            .reshard_dir::<OptUnlinkedQueue>(&dir, 4, QueueConfig::small_test())
            .unwrap();
        assert_eq!((report.from, report.to), (4, 4));
        assert_eq!(report.items_moved, 50, "only live items move");
        let (q, _, _) = orch
            .open_dir::<OptUnlinkedQueue>(&dir, QueueConfig::small_test())
            .unwrap();
        let mut got: Vec<u64> = std::iter::from_fn(|| q.dequeue(0)).collect();
        got.sort_unstable();
        assert_eq!(got, (151..=200).collect::<Vec<_>>());
        drop(q);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_intent_rolls_back_and_preserves_sources() {
        let dir = temp_dir("rollback");
        let orch = RecoveryOrchestrator::new(2);
        {
            let q: crate::ShardedQueue<OptUnlinkedQueue> = orch
                .create_dir(&dir, config(2, RoutePolicy::RoundRobin), file())
                .unwrap();
            for i in 1..=100u64 {
                q.enqueue(0, i);
            }
        }
        // Forge the crash state of a reshard killed mid-drain: intent
        // written, scratch + tmp + even a renamed destination exist, but
        // the manifest still names the sources.
        let intent = ReshardIntent {
            old_files: vec!["shard-00.pool".into(), "shard-01.pool".into()],
            new_files: vec!["shard-g1-00.pool".into(), "shard-g1-01.pool".into()],
        };
        intent.write(&dir).unwrap();
        fs::write(dir.join(scratch_name("shard-00.pool")), b"scratch").unwrap();
        fs::write(dir.join(tmp_name("shard-g1-00.pool")), b"half-built").unwrap();
        fs::write(dir.join("shard-g1-01.pool"), b"renamed-but-uncommitted").unwrap();

        let resolution = resolve_reshard(&dir).unwrap().unwrap();
        assert_eq!(resolution, ReshardResolution::RolledBack { from: 2, to: 2 });
        assert!(!ReshardIntent::exists(&dir));
        // Second resolution is a no-op.
        assert_eq!(resolve_reshard(&dir).unwrap(), None);

        // Only the manifest and the two source pools remain, items intact.
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec!["SHARDS.manifest", "shard-00.pool", "shard-01.pool"]
        );
        let (q, _, _) = orch
            .open_dir::<OptUnlinkedQueue>(&dir, QueueConfig::small_test())
            .unwrap();
        let mut got: Vec<u64> = std::iter::from_fn(|| q.dequeue(0)).collect();
        got.sort_unstable();
        assert_eq!(got, (1..=100).collect::<Vec<_>>());
        drop(q);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn committed_intent_rolls_forward_and_sweeps_sources() {
        let dir = temp_dir("forward");
        let orch = RecoveryOrchestrator::new(2);
        {
            let q: crate::ShardedQueue<OptUnlinkedQueue> = orch
                .create_dir(&dir, config(2, RoutePolicy::RoundRobin), file())
                .unwrap();
            for i in 1..=100u64 {
                q.enqueue(0, i);
            }
        }
        // Run a real reshard, then forge the state of a crash that landed
        // between the manifest commit and the cleanup: stale sources and
        // scratch back on disk, intent still present.
        let old = ShardManifest::read(&dir).unwrap();
        orch.reshard_dir::<OptUnlinkedQueue>(&dir, 4, QueueConfig::small_test())
            .unwrap();
        let new = ShardManifest::read(&dir).unwrap();
        for f in &old.pool_files {
            fs::write(dir.join(f), b"stale source").unwrap();
            fs::write(dir.join(scratch_name(f)), b"stale scratch").unwrap();
        }
        ReshardIntent {
            old_files: old.pool_files.clone(),
            new_files: new.pool_files.clone(),
        }
        .write(&dir)
        .unwrap();

        let resolution = resolve_reshard(&dir).unwrap().unwrap();
        assert_eq!(
            resolution,
            ReshardResolution::RolledForward { from: 2, to: 4 }
        );
        for f in &old.pool_files {
            assert!(!dir.join(f).exists(), "stale source {f} must be swept");
        }
        let (q, _, manifest) = orch
            .open_dir::<OptUnlinkedQueue>(&dir, QueueConfig::small_test())
            .unwrap();
        assert_eq!(manifest.shards(), 4);
        let mut got: Vec<u64> = std::iter::from_fn(|| q.dequeue(0)).collect();
        got.sort_unstable();
        assert_eq!(got, (1..=100).collect::<Vec<_>>());
        drop(q);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generation_numbering_skips_over_every_live_generation() {
        assert_eq!(next_generation(&["shard-00.pool".into()]), 1);
        assert_eq!(
            next_generation(&["shard-g1-00.pool".into(), "shard-g1-01.pool".into()]),
            2
        );
        assert_eq!(next_generation(&["shard-g41-07.pool".into()]), 42);
        // Hand-written names that don't parse fall back to generation 1.
        assert_eq!(next_generation(&["custom.pool".into()]), 1);
    }
}
