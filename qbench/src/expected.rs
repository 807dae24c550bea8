//! The exact counts on record (the same table is in `README.md`).
//!
//! On the one-thread workloads a count is a function of the code and the
//! seed alone, so any difference from the values below means the stack does
//! a different amount of work than it did when the benchmark was defined,
//! and the run fails. A later change that moves a count on purpose records
//! the new value here in a benchmark change of its own. The two-thread
//! workloads have none: there a count moves with the interleaving.

/// The seed the counts below were recorded with.
pub const SEED: u64 = 1;

/// `(metric, value)` pairs on record for `workload` with [`SEED`], at
/// smoke size or at full size.
pub fn counts(workload: &str, smoke: bool) -> &'static [(&'static str, f64)] {
    match (workload, smoke) {
        ("lease-pc", false) => &[
            ("fences_per_msg", 2.0),
            ("space_bytes_per_msg", 3.986847876944672),
        ],
        ("backlog-pc", false) => &[
            ("fences_per_msg", 2.0007208333333333),
            ("space_bytes_per_msg", 81.40487703703704),
        ],
        ("lease-pc", true) => &[
            ("fences_per_msg", 2.0),
            ("space_bytes_per_msg", 2267.337278106509),
        ],
        ("backlog-pc", true) => &[
            ("fences_per_msg", 2.0024166666666665),
            ("space_bytes_per_msg", 188.0808888888889),
        ],
        _ => &[],
    }
}
