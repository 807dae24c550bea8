//! # harness — evaluation harness for the durable-queue reproduction
//!
//! Workload generators for the five panels of the paper's Figure 2
//! ([`workloads`]), a thread-sweep runner producing the throughput and
//! ratio-to-DurableMSQ tables ([`runner`]), the per-operation
//! persistence-count experiment ([`counts`]), the file-pool mapping
//! fast-path comparison ([`fastpath`]), the group-commit fence-throughput
//! sweep ([`fsweep`]), a crash/durable-linearizability checker
//! spanning every implemented queue ([`checker`]), and the one SIGKILL
//! driver every real process-crash round runs through ([`crash`]).
//!
//! The `harness` binary exposes all of it on the command line.

#![warn(missing_docs)]

pub mod algorithms;
pub mod checker;
pub mod counts;
pub mod crash;
pub mod fastpath;
pub mod fsweep;
pub mod jsonio;
pub mod obs_verbs;
pub mod reshard;
pub mod runner;
pub mod workloads;

pub use algorithms::Algorithm;
pub use workloads::Workload;

// Re-exported so the `with_recoverable!` macro can name concrete queue
// types via `$crate::` from any crate that depends on `harness`.
pub use durable_queues;
pub use ptm;
