//! The crash row of elastic growth: four views of the pool are held from
//! before traffic on, and a growth still commits and rolls forward across
//! an abort after its commit record. (The in-process tests are `store`'s
//! `elastic_growth.rs`.)

mod sigkill;

use harness::crash::Scenario;
use harness::Algorithm::OptUnlinked;

table! {
    pinned_readers_never_delay_the_grow_commit_point: Scenario {
        held_views: 4,
        ..Scenario::growing(OptUnlinked)
    }
    .aborting_at("DQ_GROW_ABORT_AFTER_COMMIT");
}
