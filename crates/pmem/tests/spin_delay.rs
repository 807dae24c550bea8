//! What [`spin_delay`] charges, in a binary of its own: the test calibrates
//! the tick source and times 5 x 10 000 spins per delay, and a sibling test
//! keeping threads runnable on a two-core box preempts whole batches of
//! them. Run alone with `cargo test -p pmem --test spin_delay`.

use pmem::latency::spin_delay;
use std::time::{Duration, Instant};

/// Each `optane_like` delay costs what it asks for: not less than 90 % of
/// it, not more than 25 % (at least 25 ns) over it. The best of five
/// batches of 10 000 calls, so a preempted batch does not count.
#[test]
fn spin_delay_waits_roughly_the_requested_time() {
    let start = Instant::now();
    spin_delay(200_000); // 200 µs — long enough to measure reliably.
    assert!(start.elapsed() >= Duration::from_micros(200));

    for requested in [40u32, 60, 100, 300] {
        let charged = (0..5)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..10_000 {
                    spin_delay(std::hint::black_box(requested));
                }
                start.elapsed().as_nanos() as f64 / 10_000.0
            })
            .fold(f64::INFINITY, f64::min);
        let requested = f64::from(requested);
        let ceiling = requested + (0.25 * requested).max(25.0);
        assert!(
            (0.9 * requested..=ceiling).contains(&charged),
            "{requested} ns requested, {charged:.1} ns charged"
        );
    }
}
