//! # pmem — simulated byte-addressable persistent memory
//!
//! This crate is the hardware-substitution substrate for the reproduction of
//! *"Durable Queues: The Second Amendment"* (Sela & Petrank, SPAA 2021).
//! The paper's measurements run on Intel Optane DC Persistent Memory behind a
//! Cascade Lake cache hierarchy; this crate models the events the paper
//! reasons about so that the queue algorithms can be implemented, tested for
//! durable linearizability, and benchmarked without the hardware:
//!
//! * a pool of cache-line-granular persistent memory with a **working image**
//!   (what loads and stores observe — "caches + memory") and a **persistent
//!   image** (what survives a crash — "NVRAM"),
//! * explicit persistence primitives: asynchronous [`PmemPool::flush`]
//!   (CLWB/CLFLUSHOPT), blocking [`PmemPool::sfence`] (SFENCE) and
//!   non-temporal stores [`PmemPool::nt_store_u64`] (`movnti`),
//! * the *cache-line invalidation* effect of flushes on current platforms:
//!   any load, store or CAS that touches a line previously flushed pays a
//!   configurable NVRAM read latency and is counted as a **post-flush
//!   access** — the quantity the paper's second amendment eliminates,
//! * Assumption 1 of the paper (stores to a single cache line become
//!   persistent in order, as a prefix): the simulator persists whole-line
//!   snapshots, never torn or reordered within a line,
//! * full-system crash simulation ([`PmemPool::simulate_crash`]) including an
//!   adversarial mode that persists additional, never-flushed lines to model
//!   implicit cache evictions,
//! * per-pool statistics ([`StatsSnapshot`]): flushes, fences, non-temporal
//!   stores, post-flush accesses, loads, stores and CASes.
//!
//! Persistent data is addressed by [`PRef`] — a 32-bit byte offset into the
//! pool — rather than by raw pointers, because a real pool may be mapped at a
//! different virtual address after a restart. Offset `0` is reserved and acts
//! as the null reference.
//!
//! The simulator is one of two backends behind the [`PoolBackend`]
//! abstraction ([`backend`]): [`PmemPool::from_backend`] accepts an external
//! implementation — the `store` crate's memory-mapped, file-backed pool —
//! so the same queue code runs on storage that survives a real process
//! restart. The simulated arm stays statically dispatched; see [`pool`].
//! No backend executes a cache-line instruction: the file pool's flushes
//! and fences are page bookkeeping and `msync`s over the page cache, and
//! the flush/fence discipline, with its post-flush penalty, is the
//! simulator's model of NVRAM. (`harness fastpath` prices the real
//! `CLFLUSH`/`SFENCE` on the host's DRAM beside it.)
//!
//! ## Example
//!
//! ```
//! use pmem::{PmemPool, PoolConfig};
//!
//! let pool = PmemPool::new(PoolConfig::small_test());
//! let off = pool.alloc_raw(64, 64);
//! pool.store_u64(off, 42);
//! pool.flush(0, off);
//! pool.sfence(0);
//!
//! // A crash preserves flushed data ...
//! let recovered = pool.simulate_crash();
//! assert_eq!(recovered.load_u64(off), 42);
//!
//! // ... but not data that was only written to the working image.
//! pool.store_u64(off, 43);
//! let recovered = pool.simulate_crash();
//! assert_eq!(recovered.load_u64(off), 42);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod backend;
pub(crate) mod ext;
pub mod latency;
pub mod layout;
pub mod pool;
pub mod pref;
pub(crate) mod sim;
pub mod stats;

pub use backend::{FenceHint, MapRef, PoolBackend, ROOT_SLOTS};
pub use latency::LatencyModel;
pub use layout::{CACHE_LINE, MAX_GROUPS, MAX_THREADS};
pub use pool::{PmemPool, PoolConfig, PoolExhausted};
pub use pref::PRef;
pub use stats::StatsSnapshot;
