//! # ssmem — durable epoch-based memory management for the durable queues
//!
//! All queues in this workspace (like all queues evaluated in the paper,
//! except the PTM-wrapped ones) allocate their nodes through the same
//! memory-management scheme, a durable extension of the `ssmem` epoch-based
//! allocator of David et al. (ASPLOS'15) as adapted by Zuriel et al.
//! (OOPSLA'19) and described in Section 9 of the paper:
//!
//! * Nodes are allocated from **designated areas** of the persistent pool.
//!   Every area is recorded in a persistent directory (at a fixed pool
//!   offset), so a recovery procedure can enumerate every node slot that has
//!   ever been handed out and decide, per slot, whether it belongs to the
//!   resurrected data structure.
//! * A new area is carved out of the pool with
//!   [`pmem::PmemPool::alloc_zeroed`], so it is durable zero before its
//!   directory entry is published — this is what lets UnlinkedQ/LinkedQ
//!   rely on freshly allocated nodes having a persistently-zero
//!   `index`/`linked`/`initialized` field without paying a fence per
//!   allocation. The vouching rule decides what that costs: a pool whose
//!   never-allocated space already reads zero now and after any crash (a
//!   simulated pool; a file pool created in this session, whose tail is a
//!   hole) hands the area out as it is, and carving costs only the entry's
//!   one flush and one fence. Any other pool (a reopened file pool, where
//!   an earlier session's bytes may sit above the durable watermark) zeroes
//!   the area, flushes each of its lines and fences once first.
//! * Each thread has its own allocator (bump pointer into its current area
//!   plus a local free list), avoiding synchronisation on the allocation fast
//!   path. A free list longer than a few hundred slots keeps its newest end
//!   and sets the rest aside under a lock of its own, to take back when it
//!   runs empty, so on its own a thread reuses slots in exactly the order of
//!   one unbounded list. Set-aside slots are what a thread borrows, before
//!   it carves an area, while another thread stalled inside an operation
//!   holds the epoch back; it gives as many back once its own retired slots
//!   come back.
//! * Freed nodes go through **epoch-based reclamation** ([`EpochManager`]):
//!   a retired node returns to a free list only after every thread has passed
//!   through a quiescent state, which is what makes reading a node after
//!   losing a CAS race safe (no use-after-reuse).
//! * After a crash, [`Ssmem::recover`] re-reads the area directory; the data
//!   structure's own recovery then classifies every slot as live or dead and
//!   returns dead slots to the free lists with
//!   [`Ssmem::free_immediate`].

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod alloc;
pub mod dir;
pub mod epoch;

pub use alloc::{Ssmem, SsmemConfig};
pub use dir::AreaInfo;
pub use epoch::EpochManager;
