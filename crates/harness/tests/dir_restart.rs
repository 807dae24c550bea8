//! SIGKILL rows over a 4-shard manifest directory on each durability tier,
//! recovered through the manifest. (The clean-restart and manifest-corruption tests are
//! `shard`'s `dir_restart.rs`.)

mod sigkill;

use harness::crash::Scenario;
use harness::Algorithm::{DurableMsq, OptUnlinked};
use store::SyncPolicy::PowerFail;

table! {
    killed_4_shard_durable_msq_recovers_via_manifest: Scenario::queue(DurableMsq, 4);
    killed_4_shard_opt_unlinked_recovers_via_manifest: Scenario::queue(OptUnlinked, 4);
    killed_power_fail_4_shard_durable_msq_recovers_via_manifest: Scenario {
        sync: PowerFail,
        ..Scenario::queue(DurableMsq, 4)
    };
    killed_power_fail_4_shard_opt_unlinked_recovers_via_manifest: Scenario {
        sync: PowerFail,
        ..Scenario::queue(OptUnlinked, 4)
    };
}
