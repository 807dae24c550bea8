//! SIGKILL rows over undersized elastic pools: growth across a kill, of a
//! single pool and of every pool of a 4-shard directory, on each
//! durability tier (with a dequeuer racing the growth where a row says
//! so); then the grow protocol's two env-gated crash points (after the
//! `ftruncate`, after the commit record).

mod sigkill;

use harness::crash::Scenario;
use harness::Algorithm::{DurableMsq, OptUnlinked};
use store::SyncPolicy::PowerFail;

table! {
    durable_msq_grows_across_a_sigkill: Scenario::growing(DurableMsq);
    opt_unlinked_grows_across_a_sigkill: Scenario::growing(OptUnlinked);
    opt_unlinked_grows_across_a_sigkill_over_4_shards: Scenario {
        shards: 4,
        dequeue: true,
        ..Scenario::growing(OptUnlinked)
    };
    power_fail_opt_unlinked_grows_across_a_sigkill: Scenario {
        sync: PowerFail,
        dequeue: true,
        ..Scenario::growing(OptUnlinked)
    };
    power_fail_opt_unlinked_grows_across_a_sigkill_over_4_shards: Scenario {
        shards: 4,
        sync: PowerFail,
        dequeue: true,
        ..Scenario::growing(OptUnlinked)
    };
    crash_after_ftruncate_recovers_to_the_old_size:
        Scenario::growing(OptUnlinked).aborting_at("DQ_GROW_ABORT_AFTER_TRUNCATE");
    crash_after_commit_record_rolls_the_growth_forward:
        Scenario::growing(OptUnlinked).aborting_at("DQ_GROW_ABORT_AFTER_COMMIT");
}
