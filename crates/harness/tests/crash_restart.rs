//! SIGKILL rows over a single pool file: an enqueuer and a throttled
//! dequeuer killed mid-traffic, then the linearizable-suffix oracle on the
//! reopened pool. (The clean-restart test is `store`'s `crash_restart.rs`.)

mod sigkill;

use harness::crash::Scenario;
use harness::Algorithm::{DurableMsq, OptUnlinked};
use store::SyncPolicy::PowerFail;

table! {
    // Process-crash tier.
    killed_durable_msq_recovers_without_loss_or_duplication: Scenario::queue(DurableMsq, 1);
    killed_opt_unlinked_recovers_without_loss_or_duplication: Scenario::queue(OptUnlinked, 1);

    // Power-fail tier: the enqueuer's and the dequeuer's fences share the
    // two-deep group-commit pipeline.
    killed_power_fail_durable_msq_recovers_without_loss_or_duplication: Scenario {
        sync: PowerFail,
        ..Scenario::queue(DurableMsq, 1)
    };
    killed_power_fail_opt_unlinked_recovers_without_loss_or_duplication: Scenario {
        sync: PowerFail,
        ..Scenario::queue(OptUnlinked, 1)
    };
}
