//! SIGKILL rows over an undersized elastic pool: growth across a kill,
//! then the grow protocol's two env-gated crash points (after the
//! `ftruncate`, after the commit record).

mod sigkill;

use harness::crash::Scenario;
use harness::Algorithm::{DurableMsq, OptUnlinked};

table! {
    durable_msq_grows_across_a_sigkill: Scenario::growing(DurableMsq);
    opt_unlinked_grows_across_a_sigkill: Scenario::growing(OptUnlinked);
    crash_after_ftruncate_recovers_to_the_old_size:
        Scenario::growing(OptUnlinked).aborting_at("DQ_GROW_ABORT_AFTER_TRUNCATE");
    crash_after_commit_record_rolls_the_growth_forward:
        Scenario::growing(OptUnlinked).aborting_at("DQ_GROW_ABORT_AFTER_COMMIT");
}
