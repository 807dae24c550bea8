//! The latency model applied to persistence events.
//!
//! The paper's central finding is that on Cascade Lake + Optane, flush
//! instructions invalidate the flushed cache line, so a subsequent access is
//! served from NVRAM at a read latency several times higher than DRAM (the
//! paper cites van Renen et al. and Yang et al. for measurements). The
//! simulator reproduces the *relative* cost structure with four configurable
//! delays; functional tests run with all delays at zero, the benchmarks use
//! [`LatencyModel::optane_like`].

use std::time::{Duration, Instant};

/// Configurable delays (in nanoseconds) charged by the simulated pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyModel {
    /// Cost of issuing an asynchronous flush (CLWB/CLFLUSHOPT issue cost).
    pub flush_ns: u32,
    /// Cost of a blocking store fence (SFENCE waiting for pending flushes).
    pub fence_ns: u32,
    /// Cost of touching a cache line that was invalidated by a flush — the
    /// NVRAM read latency the second amendment avoids paying.
    pub nvram_read_ns: u32,
    /// Cost of a non-temporal store (`movnti`).
    pub nt_store_ns: u32,
}

impl LatencyModel {
    /// No delays at all. Used by functional and property tests, where only
    /// the persistence *semantics* matter.
    pub const ZERO: LatencyModel = LatencyModel {
        flush_ns: 0,
        fence_ns: 0,
        nvram_read_ns: 0,
        nt_store_ns: 0,
    };

    /// Delays in the range reported for Optane DC Persistent Memory behind a
    /// Cascade Lake cache hierarchy. Absolute values are not calibrated to a
    /// specific DIMM; what matters for reproducing the paper's Figure 2 is
    /// that the post-flush (NVRAM read) penalty clearly dominates the flush
    /// issue cost.
    pub const fn optane_like() -> LatencyModel {
        LatencyModel {
            flush_ns: 40,
            fence_ns: 100,
            nvram_read_ns: 300,
            nt_store_ns: 60,
        }
    }

    /// Returns `true` if every delay is zero.
    pub fn is_zero(&self) -> bool {
        self.flush_ns == 0 && self.fence_ns == 0 && self.nvram_read_ns == 0 && self.nt_store_ns == 0
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::ZERO
    }
}

/// Busy-waits for approximately `ns` nanoseconds.
///
/// A spin wait (rather than `thread::sleep`) mirrors the blocking nature of
/// the modelled instructions: the issuing core is stalled, other cores are
/// not. A zero argument returns immediately.
#[inline]
pub fn spin_delay(ns: u32) {
    if ns == 0 {
        return;
    }
    let target = Duration::from_nanos(ns as u64);
    let start = Instant::now();
    while start.elapsed() < target {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_is_zero() {
        assert!(LatencyModel::ZERO.is_zero());
        assert!(!LatencyModel::optane_like().is_zero());
    }

    #[test]
    fn spin_delay_zero_returns_immediately() {
        let start = Instant::now();
        spin_delay(0);
        assert!(start.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn spin_delay_waits_roughly_the_requested_time() {
        let start = Instant::now();
        spin_delay(200_000); // 200 µs — long enough to measure reliably.
        assert!(start.elapsed() >= Duration::from_micros(200));
    }
}
