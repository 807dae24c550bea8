//! Fresh pool space and what carving an area costs on a file pool.
//!
//! A pool created in this session vouches for its never-allocated tail (a
//! hole, durable from `create` on), so `PmemPool::alloc_zeroed` hands it out
//! as it is and carving an ssmem area costs only the directory entry's one
//! flush and one fence. A reopened pool cannot vouch: bytes may sit above
//! its watermark, and its areas must still come out zeroed.

use pmem::{PmemPool, PoolBackend};
use ssmem::{Ssmem, SsmemConfig};
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::Arc;
use store::{FileConfig, FilePool, SyncPolicy, HEADER_LEN};

const AREA: u32 = 64 << 10;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("store-zero-tail-{tag}-{}.pool", std::process::id()))
}

fn allocator(pool: &Arc<PmemPool>, reopened: bool) -> Ssmem {
    let config = SsmemConfig {
        obj_size: 64,
        area_size: AREA,
        max_threads: 2,
    };
    if reopened {
        Ssmem::recover(Arc::clone(pool), config)
    } else {
        Ssmem::new(Arc::clone(pool), config)
    }
}

/// Carves thread `tid`'s first area and returns its persistence cost as
/// (flushes, fences), after checking that every word of it reads zero.
fn carve(pool: &PmemPool, ssmem: &Ssmem, tid: usize) -> (u64, u64) {
    let before = pool.stats();
    let first = ssmem.alloc(tid).offset();
    let cost = pool.stats() - before;
    for off in (first..first + AREA).step_by(8) {
        assert_eq!(pool.load_u64(off), 0, "area word at {off}");
    }
    (cost.flushes, cost.fences)
}

#[test]
fn a_created_pool_carves_an_area_for_one_flush_and_one_fence() {
    for sync in [SyncPolicy::ProcessCrash, SyncPolicy::PowerFail] {
        let path = temp_path(sync.key());
        let file = FilePool::create(&path, FileConfig::with_size(4 << 20).with_sync(sync))
            .expect("create");
        assert!(file.vouches_zero_tail());
        let pool = file.into_pool();
        let ssmem = allocator(&pool, false);
        assert_eq!(carve(&pool, &ssmem, 0), (1, 1), "{sync:?}");
        assert_eq!(carve(&pool, &ssmem, 1), (1, 1), "{sync:?}");
        drop((ssmem, pool));
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn a_reopened_pool_zeroes_areas_over_bytes_past_its_watermark() {
    let path = temp_path("reopened");
    let pool = FilePool::create(&path, FileConfig::with_size(4 << 20))
        .expect("create")
        .into_pool();
    let watermark = pool.watermark() as u64;
    drop(pool);
    // Bytes past the watermark, as an earlier session's area pages that
    // reached the disk ahead of the watermark covering them would be.
    let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.seek(SeekFrom::Start(HEADER_LEN as u64 + watermark))
        .unwrap();
    file.write_all(&vec![0xAB; 4 * AREA as usize]).unwrap();
    drop(file);

    let pool = FilePool::open(&path).expect("reopen").into_pool();
    let ssmem = allocator(&pool, true);
    let lines = (AREA / 64) as u64;
    assert_eq!(carve(&pool, &ssmem, 0), (lines + 1, 2));
    assert_eq!(carve(&pool, &ssmem, 1), (lines + 1, 2));
    drop((ssmem, pool));
    std::fs::remove_file(&path).unwrap();
}
