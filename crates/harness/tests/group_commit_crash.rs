//! The group-commit crash row: four producers fence raw cells on a
//! power-fail pool, and the child aborts (SIGABRT) inside the 25th
//! coalesced batch, after its `msync` and before its followers wake; every
//! acked fence's cell must survive.

mod sigkill;

use harness::crash::Scenario;

table! {
    // The abort lands while a second batch is in flight.
    abort_with_a_second_batch_in_flight_loses_no_acked_value: Scenario::fence_cells();
}
