//! # store — file-backed persistent pools
//!
//! The `pmem` crate simulates NVRAM in DRAM; this crate makes the same
//! offset-addressed pool API durable for real. A [`FilePool`] is a shared
//! memory mapping of an ordinary file implementing [`pmem::PoolBackend`], so
//! every queue algorithm in the workspace — all of them operate on
//! `Arc<PmemPool>` — runs unchanged on storage that survives an actual
//! process restart:
//!
//! * a **versioned pool-file header** (magic, format version, pool size,
//!   clean/dirty flag, the durability tier it was created under,
//!   CRC-checked geometry, persistent watermark, root slots) lets a fresh
//!   process validate and reopen a pool with nothing but the file,
//! * flush/fence execute **no cache-line instruction** (stores land in the
//!   page cache); the [`SyncPolicy`] decides whether fences `msync` the
//!   flushed pages for power-fail durability (see
//!   [`file_pool`](self::file_pool#durability-model)),
//! * a `kill -9` mid-traffic is recoverable: the page cache preserves every
//!   retired store, the header's dirty flag records the unclean shutdown,
//!   and the queue's ordinary `RecoverableQueue::recover` procedure
//!   reconstructs the structure — exercised end to end by this crate's
//!   subprocess crash test and the SIGKILL table of `crates/harness/tests`,
//! * pools configured with a growth step are **elastic**: they map the
//!   whole 32-bit offset space once, and exhaustion grows the file
//!   underneath that mapping (`ftruncate` behind a journaled, crash-atomic
//!   header commit) instead of failing, so a long-lived queue outgrows its
//!   creation-time ceiling — see [`file_pool`](self::file_pool#elastic-growth)
//!   and the grow-under-`SIGKILL` subprocess test,
//! * mapping access is **lock-free**: the mapping's base never moves, so
//!   every pool's words are served inline from one pointer — see
//!   [`file_pool`](self::file_pool#mapping) and the repository's
//!   `docs/PERFORMANCE.md` chapter.
//!
//! ```
//! use durable_queues::{DurableQueue, OptUnlinkedQueue, QueueConfig, RecoverableQueue};
//! use store::{FileConfig, FilePool};
//!
//! let path = std::env::temp_dir().join(format!("store-doc-{}.pool", std::process::id()));
//!
//! // First life: create a pool file and a queue on it.
//! let pool = FilePool::create(&path, FileConfig::with_size(4 << 20))?;
//! let pool = pool.into_pool(); // Arc<PmemPool>, same as the simulator
//! let queue = OptUnlinkedQueue::create(pool, QueueConfig::small_test());
//! queue.enqueue(0, 41);
//! queue.enqueue(0, 42);
//! drop(queue); // orderly close — a kill -9 here would recover identically
//!
//! // Second life (new process): reopen, check cleanliness, recover.
//! let pool = FilePool::open(&path)?;
//! let needs_recovery = !pool.was_clean(); // false after the clean drop
//! assert!(!needs_recovery);
//! let queue = OptUnlinkedQueue::recover(pool.into_pool(), QueueConfig::small_test());
//! assert_eq!(queue.dequeue(0), Some(41));
//! assert_eq!(queue.dequeue(0), Some(42));
//! drop(queue);
//! std::fs::remove_file(&path)?;
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! The `shard` crate builds its directory-of-pools shard-map manifest on
//! top of this crate (one pool file per shard), using [`crc::crc32`] for
//! manifest integrity, and its resharding operation leans on the pool-file
//! helpers here: [`FilePool::read_geometry`] sizes destination pools from
//! the sources' persisted watermarks, and [`copy_pool_file`] produces the
//! scratch copies resharding drains so source pools are never mutated
//! before the commit.
//!
//! On-disk layout: see `docs/FORMATS.md` at the repository root for the
//! byte-level header table and the version-compatibility rule (readers
//! reject unknown major versions).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod file_pool;

/// The shared file mapping a pool lives in: `obs::sys`'s, the one the
/// flight recorder's ring uses too.
pub mod mmap {
    pub use obs::sys::{page_size, MmapRegion};
}

pub use file_pool::{
    copy_pool_file, FileConfig, FilePool, PoolGeometry, SyncPolicy, FORMAT_MINOR, FORMAT_VERSION,
    HEADER_LEN, MAGIC,
};
pub use mmap::MmapRegion;
pub use obs::crc::{self, crc32};
