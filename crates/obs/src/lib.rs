//! Observability for the durable-queue stack: lock-free metrics, exporters,
//! and a crash-surviving flight recorder.
//!
//! Three parts, all dependency-free (this crate sits at the bottom of the
//! workspace DAG — everything else links against it):
//!
//! * [`metrics`] — a process-global registry of named counters and
//!   log₂-bucketed latency histograms. Instruments are declared as `static`
//!   [`LazyCounter`]/[`LazyHistogram`]s named like `"lease.grant"`; two
//!   statics with the same name share one instrument. Snapshots merge with
//!   `Add`/`Sub`, like `pmem::StatsSnapshot`. Every build counts: an
//!   increment costs what a pool's own fence count does.
//! * [`flight`] — an mmap'd ring of fixed-size CRC'd event records
//!   (`BLACKBOX.ring`) that survives SIGKILL via the page cache; after a
//!   crash, [`flight::replay`] reconstructs the last *capacity* lifecycle
//!   events (growth commits, reshard intent/commit, lease settlements,
//!   recovery phases).
//! * [`export`] — Prometheus text exposition and JSON rendering of a
//!   [`MetricsSnapshot`].
//!
//! Being the bottom of the DAG, it also holds what every layer above would
//! otherwise copy: the workspace's one per-operation counter ([`rows`]:
//! cache-padded rows written only by the thread that holds a [`slot`]
//! lease — a named counter is a column of one, a `pmem` pool's statistics
//! are another, compiled in every build), its one CRC-32 ([`crc`]), and its
//! one door to the kernel for mapped and durable files ([`sys`]: the file
//! mapping, and [`sys::durable`], every sync with its one failure policy).

#[cfg(not(unix))]
compile_error!(
    "the stack keeps its files durable through shared file mappings (mmap) and has no \
     stand-in for platforms without one: it builds for Unix targets only"
);

pub mod crc;
pub mod export;
pub mod flight;
pub mod metrics;
pub mod rows;
pub mod slot;
pub mod sys;

pub use metrics::{
    snapshot, Histogram, HistogramSnapshot, LazyCounter, LazyHistogram, MetricsSnapshot, Timer,
};

/// Locks `mutex`, recovering it if a holder panicked. For data every
/// update of which leaves it valid at every step (this crate's registries
/// and free sets: one insertion, one bit; a lock guarding `()`), or whose
/// holder's panic already ends the process's claim on it (a lease consumer
/// whose journal could not be forced).
pub fn locked<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The shared wall clock: flight-recorder timestamps and recovery phase
/// spans both read it, so a `blackbox` dump lines up with a
/// `RecoveryReport`.
pub mod clock {
    use std::time::{SystemTime, UNIX_EPOCH};

    /// Nanoseconds since the Unix epoch (0 if the system clock is before
    /// it, which only a badly misconfigured host produces).
    pub fn wall_ns() -> u64 {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
    }
}
