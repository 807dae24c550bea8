//! Pool-fit arithmetic (rule 3): how large a fixed-size pool must be to
//! survive a workload's backlog and crash cycles, and which pool runs out
//! after which reopen when it is not.
//!
//! The model is an upper bound read off `ssmem` and `OptUnlinkedQueue`:
//!
//! * a pool starts with its fixed layout (`pmem::layout::HEAP_START`);
//! * holding `p` items at the peak takes `p` durable and `p` volatile
//!   64-byte nodes (and a dummy of each kind). Every thread bump-allocates
//!   from a designated area of its own, so `n` nodes of one kind take at
//!   most `ceil(n x 64 / area)` areas plus one partly used area for every
//!   thread but the first;
//! * every `recover` builds the volatile half of the whole backlog out of
//!   fresh areas — the watermark is durable and only moves forward, so the
//!   previous session's volatile areas are never handed out again. The
//!   durable slots survive: the backlog's come back to whoever dequeues
//!   them, and a session after a reopen never holds more than the backlog
//!   again — but what the epoch scheme keeps in limbo cannot be reused at
//!   once, and the dead slots are spread over the free lists of *all*
//!   configured threads, so [`LIMBO_SLACK`] slots per reopen are assumed
//!   to be carved afresh.
//!
//! The durable areas are listed in a directory of
//! [`ssmem::dir::MAX_AREAS`] entries, which is a second ceiling.

use pmem::layout::HEAP_START;
use ssmem::dir::MAX_AREAS;

/// Size of one queue node (`durable_queues::node::NODE_SIZE`).
const NODE: u64 = durable_queues::node::NODE_SIZE as u64;

/// Durable slots a session may need beyond the backlog it recovered:
/// retired nodes wait in limbo for two epochs before reuse.
pub const LIMBO_SLACK: u64 = 1024;

/// Largest pool the 32-bit offset space can address.
const MAX_POOL: u64 = u32::MAX as u64 - 64;

/// Head-room on top of the modelled need: a quarter.
const HEADROOM_NUM: u64 = 5;
const HEADROOM_DEN: u64 = 4;

/// What one pool has to hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolLoad {
    /// Most items resident in this pool at once.
    pub peak: u64,
    /// Most items resident in this pool at a reopen (its share of the
    /// standing backlog).
    pub backlog: u64,
    /// Threads that allocate from this pool.
    pub threads: usize,
    /// Designated-area size in bytes (`QueueConfig::area_size`).
    pub area_size: u32,
    /// Reopens (`recover` calls) the pool goes through.
    pub reopens: u32,
}

impl PoolLoad {
    fn area(&self) -> u64 {
        self.area_size as u64
    }

    fn peak(&self) -> u64 {
        self.peak.max(self.backlog)
    }

    /// Areas `items` nodes of one kind (and their dummy) take at most.
    fn areas_for(&self, items: u64) -> u64 {
        ((items + 1) * NODE).div_ceil(self.area()) + self.threads as u64 - 1
    }

    /// Bytes in use before the first reopen.
    fn initial_bytes(&self) -> u64 {
        HEAP_START as u64 + 2 * self.areas_for(self.peak()) * self.area()
    }

    /// Durable areas one reopen adds at most.
    fn durable_areas_per_reopen(&self) -> u64 {
        self.areas_for(LIMBO_SLACK)
    }

    /// Bytes one reopen adds.
    fn bytes_per_reopen(&self) -> u64 {
        (self.areas_for(self.backlog) + self.durable_areas_per_reopen()) * self.area()
    }

    /// Modelled watermark after `k` reopens.
    pub fn bytes_after(&self, k: u32) -> u64 {
        self.initial_bytes() + k as u64 * self.bytes_per_reopen()
    }

    /// Durable areas in the directory after `k` reopens.
    fn durable_areas_after(&self, k: u32) -> u64 {
        self.areas_for(self.peak()) + k as u64 * self.durable_areas_per_reopen()
    }

    /// The pool size that holds this load with a quarter to spare.
    pub fn pool_bytes(&self) -> u64 {
        (self.bytes_after(self.reopens) * HEADROOM_NUM).div_ceil(HEADROOM_DEN)
    }

    /// `Ok` when a pool of `size` bytes called `name` survives the load;
    /// otherwise the refusal message, naming the pool and the reopen
    /// after which it runs out, with the arithmetic.
    pub fn check(&self, name: &str, size: u64) -> Result<(), String> {
        if size > MAX_POOL {
            return Err(format!(
                "{name}: {size} B exceeds the 32-bit offset space ({MAX_POOL} B); \
                 lower the backlog, the crash cycles or the area size"
            ));
        }
        for k in 0..=self.reopens {
            let need = self.bytes_after(k);
            if need > size {
                return Err(format!(
                    "{name}: {size} B would run out {when}: layout {HEAP_START} B + \
                     2 x {n} area(s) of {a} B for a peak of {p} items on {t} thread(s) \
                     = {init} B at the start, plus {per} B per reopen with a backlog of {b}, \
                     is {need} B (pool sizes are fixed, grow_step 0)",
                    when = if k == 0 {
                        "before the first reopen".to_string()
                    } else {
                        format!("in reopen {k} of {}", self.reopens)
                    },
                    t = self.threads,
                    a = self.area_size,
                    n = self.areas_for(self.peak()),
                    p = self.peak(),
                    b = self.backlog,
                    init = self.initial_bytes(),
                    per = self.bytes_per_reopen(),
                ));
            }
            let areas = self.durable_areas_after(k);
            if areas > MAX_AREAS as u64 {
                return Err(format!(
                    "{name}: the durable-area directory holds {MAX_AREAS} areas and would \
                     overflow in reopen {k} of {} ({areas} areas of {} B); raise the area size",
                    self.reopens, self.area_size
                ));
            }
        }
        Ok(())
    }
}

/// What a deployment looks like to the arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeploymentLoad {
    /// Most items resident across all shards at once.
    pub peak: u64,
    /// Standing backlog across all shards at a reopen.
    pub backlog: u64,
    /// Shards the backlog spreads over.
    pub shards: usize,
    /// Threads producing and consuming.
    pub threads: usize,
    /// Designated-area size in bytes.
    pub area_size: u32,
    /// Crash cycles (reopens) in the run.
    pub crash_cycles: u32,
}

/// Sizes for [`store::FileConfig::with_size`] and `dlq_bytes`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fit {
    /// Bytes of every shard pool.
    pub pool_bytes: usize,
    /// Bytes of every dead-letter pool (one per consumer group, or the
    /// leased directory's own).
    pub dlq_bytes: usize,
}

impl DeploymentLoad {
    /// The load on one shard pool. Key-hash routing never splits evenly,
    /// so a shard of several is charged a tenth more than an even share.
    pub fn shard_load(&self) -> PoolLoad {
        let share = |items: u64| {
            if self.shards <= 1 {
                items
            } else {
                (items.div_ceil(self.shards as u64) * 11)
                    .div_ceil(10)
                    .min(items)
            }
        };
        PoolLoad {
            peak: share(self.peak),
            backlog: share(self.backlog),
            threads: self.threads,
            area_size: self.area_size,
            reopens: self.crash_cycles,
        }
    }

    /// The load on one dead-letter pool: nothing is ever dead-lettered, so
    /// it holds only the dummies every `recover` allocates on thread 0.
    pub fn dlq_load(&self) -> PoolLoad {
        PoolLoad {
            peak: 0,
            backlog: 0,
            threads: 1,
            area_size: self.area_size,
            reopens: self.crash_cycles,
        }
    }

    /// Pool sizes with a quarter of head-room, or why no size works.
    pub fn fit(&self) -> Result<Fit, String> {
        let (shard, dlq) = (self.shard_load(), self.dlq_load());
        let (pool_bytes, dlq_bytes) = (shard.pool_bytes(), dlq.pool_bytes());
        shard.check("shard pool", pool_bytes)?;
        dlq.check("dead-letter.pool", dlq_bytes)?;
        Ok(Fit {
            pool_bytes: pool_bytes as usize,
            dlq_bytes: dlq_bytes as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1 << 20;

    #[test]
    fn the_prototypes_failures_are_predicted() {
        // A 512 MiB pool holding a 1M backlog died inside `recover`
        // before twelve reopens were done.
        let load = PoolLoad {
            peak: 1_000_000,
            backlog: 1_000_000,
            threads: 2,
            area_size: MIB as u32,
            reopens: 12,
        };
        let err = load.check("shard-00.pool", 512 * MIB).unwrap_err();
        assert!(err.contains("shard-00.pool"), "{err}");
        assert!(err.contains("in reopen"), "{err}");
        assert!(load.check("shard-00.pool", load.pool_bytes()).is_ok());
        // The 8 MiB default dead-letter.pool died within seven reopens at
        // 1 MiB areas.
        let dlq = PoolLoad {
            peak: 0,
            backlog: 0,
            threads: 1,
            area_size: MIB as u32,
            reopens: 7,
        };
        let err = dlq.check("dead-letter.pool", 8 * MIB).unwrap_err();
        assert!(
            err.contains("dead-letter.pool") && err.contains("of 7"),
            "{err}"
        );
    }

    #[test]
    fn fit_leaves_a_quarter_of_headroom_and_passes_its_own_check() {
        let d = DeploymentLoad {
            peak: 300_000,
            backlog: 300_000,
            shards: 2,
            threads: 1,
            area_size: MIB as u32,
            crash_cycles: 10,
        };
        let fit = d.fit().unwrap();
        let need = d.shard_load().bytes_after(10);
        assert!(fit.pool_bytes as u64 >= need * 5 / 4);
        assert!((fit.pool_bytes as u64) < need * 5 / 4 + 64);
        // One byte less than the modelled need is refused at the last reopen.
        let err = d.shard_load().check("shard-01.pool", need - 1).unwrap_err();
        assert!(err.contains("in reopen 10 of 10"), "{err}");
    }

    #[test]
    fn growth_is_linear_in_reopens_and_in_backlog_areas() {
        let base = PoolLoad {
            peak: 4096,
            backlog: 4096,
            threads: 1,
            area_size: 256 * 1024,
            reopens: 30,
        };
        let per = base.bytes_after(1) - base.bytes_after(0);
        assert_eq!(base.bytes_after(30) - base.bytes_after(0), 30 * per);
        // 4097 nodes of 64 B are two volatile 256 KiB areas; the limbo
        // slack is one durable area.
        assert_eq!(per, (2 + 1) * 256 * 1024);
    }

    #[test]
    fn impossible_loads_are_refused_with_a_reason() {
        let too_big = DeploymentLoad {
            peak: 40_000_000,
            backlog: 40_000_000,
            shards: 1,
            threads: 2,
            area_size: MIB as u32,
            crash_cycles: 4,
        };
        assert!(too_big.fit().unwrap_err().contains("32-bit offset space"));
        let too_many_areas = DeploymentLoad {
            peak: 600_000,
            backlog: 600_000,
            shards: 1,
            threads: 1,
            area_size: 64 * 1024,
            crash_cycles: 8,
        };
        assert!(too_many_areas.fit().unwrap_err().contains("directory"));
    }
}
