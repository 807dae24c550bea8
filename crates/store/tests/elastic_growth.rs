//! Elastic pools under concurrent growth.
//!
//! An elastic `store::FilePool` maps its whole offset space once and grows
//! by extending the file underneath a base that never moves, then
//! publishing the larger size. These tests attack the two claims that
//! design makes:
//!
//! * **readers race growth safely** — threads hammer loads/stores/flushes
//!   (and raw `MapRef` reads) while allocation pressure forces growth after
//!   growth; no torn value, no lost store, no out-of-thin-air read,
//! * **a `MapRef` survives growth** — a view taken before a growth still
//!   reads correct data afterwards, keeps its bounds, and growth never
//!   waits for it; `PmemPool`'s inline word path follows the growth.
//!
//! A growth that commits and rolls forward while a process holds views is
//! a row of the crash driver's table (`crates/harness/tests/elastic_growth.rs`).

use pmem::PoolBackend;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use store::{FileConfig, FilePool};

fn test_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "store-elastic-{tag}-{}-{:?}.pool",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Readers (pool ops and raw `MapRef` reads) race repeated growths. Every
/// slot's value only ever increases, so any read through a wrong, stale or
/// recycled mapping shows up as a non-monotonic or out-of-range value.
#[test]
fn readers_race_growth_without_stale_or_torn_reads() {
    let path = test_path("race");
    let pool = FilePool::create(
        &path,
        FileConfig::with_size(256 << 10).with_growth(64 << 10),
    )
    .unwrap()
    .into_pool();
    let slots: Vec<u32> = (0..4).map(|_| pool.alloc_raw(64, 64)).collect();
    const ROUNDS: u64 = 4000;
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Writers: monotonically increasing values, flushed and fenced,
        // plus allocation pressure so growths keep coming.
        for (tid, &slot) in slots.iter().enumerate() {
            let (pool, stop) = (&pool, &stop);
            scope.spawn(move || {
                for i in 1..=ROUNDS {
                    pool.store_u64(slot, i);
                    pool.flush(tid, slot);
                    pool.sfence(tid);
                    if i % 100 == 0 {
                        let off = pool.alloc_raw(4096, 64);
                        pool.store_u64(off, i);
                    }
                }
                stop.store(true, Ordering::Release);
            });
        }
        // Readers: per-op loads via load_u64, plus views via map_ref —
        // both must only ever observe monotonically increasing values.
        for r in 0..4 {
            let (pool, stop, slots) = (&pool, &stop, &slots);
            scope.spawn(move || {
                let mut last = vec![0u64; slots.len()];
                while !stop.load(Ordering::Acquire) {
                    for (j, &slot) in slots.iter().enumerate() {
                        let v = if r % 2 == 0 {
                            pool.load_u64(slot)
                        } else {
                            let view = pool.map_ref().expect("file pool exposes its mapping");
                            view.atomic_u64(slot).load(Ordering::Acquire)
                        };
                        assert!(
                            v >= last[j] && v <= ROUNDS,
                            "slot {j} went backwards or out of range: {} -> {v}",
                            last[j]
                        );
                        last[j] = v;
                    }
                }
            });
        }
    });
    for &slot in &slots {
        assert_eq!(pool.load_u64(slot), ROUNDS);
    }
    assert!(
        pool.growth_epoch() >= 2,
        "the race must have grown the pool repeatedly, got epoch {}",
        pool.growth_epoch()
    );
    drop(pool);
    std::fs::remove_file(&path).unwrap();
}

/// A `MapRef` taken before a growth stays valid: the view keeps its
/// pre-growth bounds and data, growth publishes the larger size around it
/// without waiting, and a fresh view sees the new size.
#[test]
fn a_map_ref_held_across_growth_stays_valid_and_never_blocks_it() {
    let path = test_path("held-view");
    let pool = FilePool::create(
        &path,
        FileConfig::with_size(256 << 10).with_growth(256 << 10),
    )
    .unwrap();
    let off = {
        // Reserve one word through the backend's own watermark protocol.
        let w = pool.watermark();
        pool.cas_watermark(w, w + 64).unwrap();
        w
    };
    pool.store_u64(off, 0xA11A);
    let old_len = pool.len();

    // A view is held across the growth; the grower must not wait for it
    // (a wait would deadlock this single test thread's barrier-free
    // structure below — growth runs on the viewing thread).
    let view = pool.map_ref();
    assert_eq!(view.len(), old_len);
    // Pool ops under the held view are unaffected by it.
    assert_eq!(pool.load_u64(off), 0xA11A);

    for _ in 0..3 {
        let want = pool.len() + 1;
        assert!(pool.grow_to(want).unwrap(), "growth with a view held");
    }
    assert!(pool.len() > old_len);
    assert_eq!(pool.growth_epoch(), 3);

    // The held view still reads the pre-growth space correctly...
    assert_eq!(view.len(), old_len, "a held view keeps its bounds");
    assert_eq!(view.atomic_u64(off).load(Ordering::Acquire), 0xA11A);
    // ...and stays coherent with writes made through the grown pool (one
    // mapping, one base).
    pool.store_u64(off, 0xB22B);
    assert_eq!(view.atomic_u64(off).load(Ordering::Acquire), 0xB22B);

    let fresh = pool.map_ref();
    assert_eq!(fresh.len(), pool.len(), "a fresh view sees the grown size");
    assert_eq!(fresh.atomic_u64(off).load(Ordering::Acquire), 0xB22B);

    drop(pool);
    std::fs::remove_file(&path).unwrap();
}

/// A genuinely out-of-range offset must panic — in release builds too —
/// rather than dereference past the mapping.
#[test]
#[should_panic(expected = "out of bounds")]
fn a_genuinely_out_of_bounds_op_panics_instead_of_dereferencing() {
    let path = test_path("oob");
    let pool = FilePool::create(&path, FileConfig::with_size(256 << 10)).unwrap();
    let len = pool.len() as u32;
    let _ = std::fs::remove_file(&path);
    pool.load_u64(len); // one word past the end
}

/// The same through `PmemPool` on a fixed-size pool, where word accesses
/// are served inline from the mapping and never reach `FilePool`: the
/// bounds check there is an `assert!`, so this panics under `--release`
/// exactly as it does in debug.
#[test]
#[should_panic(expected = "pool access out of bounds")]
fn an_out_of_bounds_op_on_the_inline_word_path_panics() {
    let path = test_path("oob-inline");
    let pool = FilePool::create(&path, FileConfig::with_size(256 << 10))
        .unwrap()
        .into_pool();
    let _ = std::fs::remove_file(&path);
    let len = pool.len() as u32;
    pool.store_u64(len - 8, 1); // the last word is fine
    pool.store_u64(len, 1); // one word past the end
}

/// An elastic pool's mapping never moves either, so `PmemPool` keeps its
/// view and serves words inline, offsets that did not exist when the
/// `PmemPool` was built included: the inline path re-reads the pool's size
/// before it refuses one. The refusal of an offset past even the grown
/// size carries the inline path's own panic text, not `FilePool`'s.
#[test]
fn an_elastic_pool_takes_the_inline_word_path_and_follows_growth() {
    let path = test_path("elastic-inline");
    let pool = FilePool::create(
        &path,
        FileConfig::with_size(256 << 10).with_growth(256 << 10),
    )
    .unwrap()
    .into_pool();
    let old_len = pool.len();
    // Allocate until an offset lands beyond the creation-time size.
    let off = loop {
        let off = pool.alloc_raw(4096, 64);
        if off as usize >= old_len {
            break off;
        }
    };
    assert!(pool.growth_epoch() >= 1 && pool.len() > old_len);
    pool.store_u64(off, 7);
    assert_eq!(pool.load_u64(off), 7);
    assert_eq!(pool.cas_u64(off, 7, 8), Ok(7));
    assert_eq!(pool.fetch_add_u64(off, 2), 8);
    assert_eq!(pool.swap_u64(off, 11), 10);
    let s = pool.stats();
    assert_eq!((s.loads, s.stores, s.cas_ops), (1, 1, 3));
    // The word landed in the mapping `PmemPool` took its view of at
    // construction: a view taken now reads it at the same address.
    let view = pool.map_ref().expect("file pool exposes its mapping");
    assert_eq!(view.atomic_u64(off).load(Ordering::Acquire), 11);
    // An offset past even the grown size still panics on the inline path.
    let past = pool.len() as u32;
    let oob = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.load_u64(past)));
    let message = *oob
        .expect_err("an access past the grown pool must panic")
        .downcast::<String>()
        .expect("panic with a message");
    assert!(
        message.contains("pool access out of bounds or unaligned"),
        "{message}"
    );
    drop(pool);
    std::fs::remove_file(&path).unwrap();
}

/// `MapRef::addr` validates the whole access span, not just the first
/// byte: a multi-byte access starting near the tail is refused.
#[test]
fn map_ref_addr_validates_the_whole_access_span() {
    let path = test_path("addr-span");
    let pool = FilePool::create(&path, FileConfig::with_size(256 << 10)).unwrap();
    let view = pool.map_ref();
    let len = view.len();
    // In-bounds spans are fine, up to and including the very last byte...
    assert!(!view.addr(0, len).is_null());
    assert!(!view.addr(len as u32 - 8, 8).is_null());
    // ...but a span that merely *starts* in bounds is refused, as are
    // empty spans (no one-past-the-end pointers).
    let oob = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        view.addr(len as u32 - 4, 8)
    }));
    assert!(oob.is_err(), "a span overrunning the view must panic");
    let empty = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| view.addr(0, 0)));
    assert!(empty.is_err(), "zero-length spans must panic");
    drop(pool);
    std::fs::remove_file(&path).unwrap();
}
