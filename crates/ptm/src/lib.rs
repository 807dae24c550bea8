//! # ptm — redo-log persistent transactional memory baselines
//!
//! The paper's evaluation includes two queues obtained by wrapping a
//! sequential queue in a persistent transactional memory: `OneFileQ`
//! (OneFile, a wait-free PTM) and `RedoOptQ` (the RedoOpt universal
//! construction). This crate provides the substitution described in
//! docs/ARCHITECTURE.md's crate table: a [`redo::Ptm`] engine with a redo log and two flush policies,
//! and [`queue::PtmQueue`] — a sequential linked queue whose every operation
//! is one durable transaction. The resulting [`OneFileLiteQueue`] and
//! [`RedoOptLiteQueue`] reproduce the property the comparison relies on:
//! per-operation logging overhead (extra flushes, fences and accesses to
//! flushed log lines) that the ad-hoc durable queues do not pay.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod queue;
pub mod redo;

pub use queue::{OneFileLiteQueue, PtmQueue, RedoOptLiteQueue};
pub use redo::{FlushPolicy, Ptm, Tx};
