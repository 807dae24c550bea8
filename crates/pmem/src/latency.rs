//! The latency model applied to persistence events.
//!
//! The paper's central finding is that on Cascade Lake + Optane, flush
//! instructions invalidate the flushed cache line, so a subsequent access is
//! served from NVRAM at a read latency several times higher than DRAM (the
//! paper cites van Renen et al. and Yang et al. for measurements). The
//! simulator reproduces the *relative* cost structure with four configurable
//! delays; functional tests run with all delays at zero, the benchmarks use
//! [`LatencyModel::optane_like`].
//!
//! # What a delay is charged
//!
//! [`spin_delay`] busy-waits until a deadline read from a tick source:
//! `rdtsc` on x86-64 where CPUID reports an invariant TSC, `Instant`
//! elsewhere. The first non-zero delay of a process calibrates that source
//! once, in a few milliseconds: ticks per nanosecond against `Instant`, and
//! the fixed cost of a spin — what it costs beyond the ticks it waits, the
//! minimum over batches — which is subtracted from every deadline. The
//! spin stops at the first tick read at or past its deadline, so a delay
//! costs what the model asks for, at most one turn of that loop more (one
//! tick read, ≈ 16–20 ns with `rdtsc` on a server-class x86-64) and at
//! worst a few ns less. The floor is one tick read: a request below the
//! fixed cost reads the clock once and returns. A zero delay returns at
//! once and never calibrates, so pools with [`LatencyModel::ZERO`] never
//! pay for the calibration.

use std::sync::OnceLock;
use std::time::Instant;

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

/// Busy-waits for `ns` nanoseconds, as charged by the calibrated tick
/// source of the [module docs](self#what-a-delay-is-charged).
///
/// A spin wait (rather than `thread::sleep`) mirrors the blocking nature of
/// the modelled instructions: the issuing core is stalled, other cores are
/// not. A zero argument returns immediately, without calibrating.
#[inline]
pub fn spin_delay(ns: u32) {
    static CLOCK: OnceLock<Clock> = OnceLock::new();
    delay(&CLOCK, ns);
}

/// Everything a delay costs past its call, the clock's lookup included:
/// calibration times exactly this. Returns the ticks the spin waited.
#[inline]
fn delay(clock: &OnceLock<Clock>, ns: u32) -> u64 {
    if ns == 0 {
        return 0;
    }
    clock.get_or_init(Clock::calibrate).spin(ns)
}

/// How long calibration compares the tick source with `Instant`.
const CALIBRATION_NS: u128 = 2_000_000;
/// Spins per timed batch, and batches, when pricing one: batches as long
/// as a burst of simulated events, so the cheapest of them is what a spin
/// costs over a stretch of work, not in a lucky few microseconds.
const FIXED_BATCH: u32 = 10_000;
const FIXED_BATCHES: u32 = 5;

/// A tick source and what a spin on it costs, measured once per process.
struct Clock {
    /// Read `rdtsc` rather than `Instant`.
    tsc: bool,
    /// The origin of `Instant` ticks (nanoseconds since it).
    epoch: Instant,
    ticks_per_ns: f64,
    /// What a spin costs beyond the ticks it waits, subtracted from every
    /// deadline.
    fixed_ns: f64,
}

impl Clock {
    fn calibrate() -> Clock {
        let (tsc, epoch) = (tsc::invariant(), Instant::now());
        let clock = |ticks_per_ns, fixed_ns| Clock {
            tsc,
            epoch,
            ticks_per_ns,
            fixed_ns,
        };
        let source = clock(1.0, 0.0);
        let (start, first) = (Instant::now(), source.now());
        let mut elapsed = 0;
        while elapsed < CALIBRATION_NS {
            std::hint::spin_loop();
            elapsed = start.elapsed().as_nanos();
        }
        let ticks_per_ns = source.now().wrapping_sub(first) as f64 / elapsed as f64;
        // Priced on spins with a deadline of one tick: like every spin that
        // waits at all, each reads the clock past its start, and the first
        // such read can land a few ns later in ticks than in time. Through
        // the lookup of an initialised clock, as callers pay it.
        let one_tick = OnceLock::from(clock(ticks_per_ns, 1.0 - 1.5 / ticks_per_ns));
        let mut fixed_ns = f64::INFINITY;
        for _ in 0..FIXED_BATCHES {
            let mut waited = 0;
            let start = Instant::now();
            for _ in 0..FIXED_BATCH {
                waited += delay(&one_tick, std::hint::black_box(1));
            }
            let beyond = start.elapsed().as_nanos() as f64 - waited as f64 / ticks_per_ns;
            fixed_ns = fixed_ns.min(beyond / f64::from(FIXED_BATCH));
        }
        clock(ticks_per_ns, fixed_ns)
    }

    #[inline]
    fn now(&self) -> u64 {
        if self.tsc {
            tsc::read()
        } else {
            self.epoch.elapsed().as_nanos() as u64
        }
    }

    /// Spins until `ns` less the fixed cost has passed in ticks; returns
    /// the ticks it waited.
    #[inline]
    fn spin(&self, ns: u32) -> u64 {
        // Saturating: a request under the fixed cost spins zero ticks.
        let ticks = ((f64::from(ns) - self.fixed_ns) * self.ticks_per_ns) as u64;
        // A zero-length spin reads the clock once; a longer one stops at the
        // first read at or past its deadline.
        let start = self.now();
        let mut now = start;
        while now.wrapping_sub(start) < ticks {
            now = self.now();
        }
        now.wrapping_sub(start)
    }
}

/// The time-stamp counter, where it ticks at a constant rate in every
/// power state (an invariant TSC) and so can stand in for a clock.
#[cfg(target_arch = "x86_64")]
mod tsc {
    use std::arch::x86_64::{__cpuid, _rdtsc};

    /// CPUID leaf 0x8000_0007, EDX bit 8: the invariant TSC.
    pub(super) fn invariant() -> bool {
        __cpuid(0x8000_0000).eax >= 0x8000_0007 && __cpuid(0x8000_0007).edx & (1 << 8) != 0
    }

    #[inline]
    pub(super) fn read() -> u64 {
        // SAFETY: `rdtsc` exists on every x86-64 CPU.
        unsafe { _rdtsc() }
    }
}

/// No tick source but `Instant` off x86-64.
#[cfg(not(target_arch = "x86_64"))]
mod tsc {
    pub(super) fn invariant() -> bool {
        false
    }

    pub(super) fn read() -> u64 {
        unreachable!("no time-stamp counter on this architecture")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

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
}
