//! Power-fail fence semantics: group commit must sync exactly the pages
//! a model of the flush/fence history says it must.
//!
//! The contract under test ("synced-page oracle"):
//!
//! 1. **Per fence**: when `sfence(tid)` returns, every page that `tid`
//!    flushed since its previous fence has been `msync`ed. (A batch may
//!    sync *more* — other producers' pages riding it — never less.)
//! 2. **In total**: the pool's synced set equals the model's — every page
//!    flushed before some fence, plus the header page pool creation syncs.
//!    Batching changes *when* pages reach the disk, not *which* pages do.
//!
//! Observed via the `DQ_TRACK_MSYNC` test-support tracker
//! ([`FilePool::synced_pages`]), which records the file page numbers of
//! every `msync` range the pool issues. The sets are read **before** the
//! pool closes (a clean close syncs everything). Contract (1) is also
//! checked under real threads, with two batches syncing at once.

use pmem::PoolBackend;
use proptest::prelude::*;
use std::collections::BTreeSet;
use store::mmap::page_size;
use store::{FileConfig, FilePool, SyncPolicy, HEADER_LEN};

/// Distinct data pages the interleavings touch.
const PAGES: usize = 16;
/// Logical producers (tids) an interleaving is spread over.
const TIDS: usize = 3;
/// Op encoding: `0..PAGES` = flush that data page, `PAGES` = fence.
const FENCE_OP: usize = PAGES;

fn temp_pool(tag: &str) -> (std::path::PathBuf, FilePool) {
    // Read at pool construction; safe API on edition 2021.
    std::env::set_var("DQ_TRACK_MSYNC", "1");
    let path = std::env::temp_dir().join(format!(
        "store-fence-sem-{tag}-{}-{:?}.pool",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    let pool = FilePool::create(
        &path,
        FileConfig::with_size((PAGES + 2) * page_size()).with_sync(SyncPolicy::PowerFail),
    )
    .expect("create fence-semantics pool");
    (path, pool)
}

/// File page number data page `idx` lands on (the header occupies the
/// pages below `HEADER_LEN`).
fn file_page(idx: usize) -> usize {
    (HEADER_LEN + idx * page_size()) / page_size()
}

/// Drives the pool through the interleaving on a single OS thread (the
/// per-tid dirty-page slots allow one driver to own several tids), and
/// checks contract (1) at every fence. Returns the pool's final synced
/// set and the model's expected set.
fn drive(
    pool: &FilePool,
    ops: &[(usize, usize)],
) -> Result<(BTreeSet<usize>, BTreeSet<usize>), TestCaseError> {
    let mut pending: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); TIDS];
    // Pool creation itself syncs the header page.
    let mut expected: BTreeSet<usize> = [0].into();
    for &(tid, op) in ops {
        if op == FENCE_OP {
            expected.extend(std::mem::take(&mut pending[tid]));
            pool.sfence(tid);
            let synced: BTreeSet<usize> = pool.synced_pages().into_iter().collect();
            prop_assert!(
                expected.is_subset(&synced),
                "fence returned with unsynced pages: expected {:?} within {:?}",
                expected,
                synced
            );
        } else {
            let off = (op * page_size()) as u32;
            pool.store_u64(off, (tid * PAGES + op) as u64);
            pool.flush(tid, off);
            pending[tid].insert(file_page(op));
        }
    }
    // Close out every tid so the pool finishes with no dirty residue.
    for (tid, dirty) in pending.iter_mut().enumerate() {
        expected.extend(std::mem::take(dirty));
        pool.sfence(tid);
    }
    let synced: BTreeSet<usize> = pool.synced_pages().into_iter().collect();
    Ok((synced, expected))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Contracts (1) and (2) over arbitrary flush/fence interleavings
    /// (batches form only from genuinely concurrent fences — here, none):
    /// the pool's synced set must equal the model's.
    #[test]
    fn group_commit_syncs_exactly_the_per_thread_pages(
        ops in proptest::collection::vec((0usize..TIDS, 0usize..FENCE_OP + 1), 1..80),
    ) {
        let (path, pool) = temp_pool("model");
        let (synced, expected) = drive(&pool, &ops)?;
        prop_assert_eq!(
            &synced,
            &expected,
            "the pool synced a different page set than the model"
        );
        drop(pool);
        let _ = std::fs::remove_file(&path);
    }
}

/// Contract (1) under real concurrency: producers with private pages
/// fence from separate OS threads; every page a returned fence covered
/// must be in the synced set, and no page outside the flushed universe may
/// appear. The check is only worth something if two batches synced at
/// once, so a run in which none overlapped another is repeated, a bounded
/// number of times. (Single-threaded tests in this binary never overlap,
/// so they cannot move the counter for it.)
#[test]
fn concurrent_group_commit_fences_only_sync_flushed_pages() {
    const ATTEMPTS: usize = 5;
    for attempt in 1..=ATTEMPTS {
        let before = obs::snapshot();
        concurrent_fences_only_sync_flushed_pages(attempt);
        let after = obs::snapshot();
        if after.counter("store.fence.overlapped") > before.counter("store.fence.overlapped") {
            return;
        }
    }
    panic!("no batch overlapped another in {ATTEMPTS} runs of 4 producers x 20 fences");
}

fn concurrent_fences_only_sync_flushed_pages(attempt: usize) {
    let (path, pool) = temp_pool(&format!("concurrent-{attempt}"));
    let producers = 4usize;
    let per = PAGES / producers;
    std::thread::scope(|scope| {
        for tid in 0..producers {
            let pool = &pool;
            scope.spawn(move || {
                for round in 0..20u64 {
                    for k in 0..per {
                        let idx = tid * per + k;
                        let off = (idx * page_size()) as u32;
                        pool.store_u64(off, round);
                        pool.flush(tid, off);
                    }
                    pool.sfence(tid);
                    let synced: BTreeSet<usize> = pool.synced_pages().into_iter().collect();
                    for k in 0..per {
                        assert!(
                            synced.contains(&file_page(tid * per + k)),
                            "tid {tid}'s fence returned before its pages synced"
                        );
                    }
                }
            });
        }
    });
    let synced: BTreeSet<usize> = pool.synced_pages().into_iter().collect();
    let universe: BTreeSet<usize> = [0].into_iter().chain((0..PAGES).map(file_page)).collect();
    assert_eq!(
        synced, universe,
        "synced pages nobody flushed (or missed flushed ones)"
    );
    drop(pool);
    let _ = std::fs::remove_file(&path);
}
