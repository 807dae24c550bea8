//! The lock-free mapping fast path under concurrent growth.
//!
//! `store::FilePool` publishes its mapping through an epoch/hazard scheme:
//! readers pin the current mapping generation in a per-thread slot, growth
//! publishes a new generation (`mremap`) and retires the old one, and a
//! retired mapping is unmapped only once no slot references it. These tests
//! attack the three claims that scheme makes:
//!
//! * **readers race growth safely** — threads hammer loads/stores/flushes
//!   (and raw `MapRef` reads) while allocation pressure forces growth after
//!   growth; no torn value, no lost store, no out-of-thin-air read,
//! * **a `MapRef` outlives the mapping it pinned** — a view taken before a
//!   growth still reads correct data afterwards, because retirement waits
//!   for it, while growth itself never waits for pinned readers,
//! * **retirement never delays the commit point** — a child process pins
//!   readers *forever* and then grows; killed at the commit record, the
//!   reopened pool still rolls the growth forward: the journal was durable
//!   before retirement was even attempted.

use pmem::PoolBackend;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use store::{FileConfig, FilePool, SyncPolicy};

const ENV_DIR: &str = "STORE_EPOCH_PIN_CHILD_DIR";

fn test_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "store-epoch-{tag}-{}-{:?}.pool",
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
        // Readers: per-op pins via load_u64, plus held pins via map_ref —
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
                            assert!(view.is_pinned(), "elastic pools must pin");
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

/// A `MapRef` taken before a growth pins its mapping generation: the view
/// keeps its pre-growth bounds and data, growth publishes the larger
/// mapping around it without waiting, and a fresh view sees the new size.
#[test]
fn a_map_ref_held_across_growth_stays_valid_and_never_blocks_it() {
    let path = test_path("pin");
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

    // Readers pin views and hold them across the growth; the grower must
    // not wait for them (a wait would deadlock this single test thread's
    // barrier-free structure below — growth runs on the pinning thread).
    let view = pool.map_ref();
    assert!(view.is_pinned());
    assert_eq!(view.len(), old_len);
    // Nested pool ops under the held view reuse the same hazard slot.
    assert_eq!(pool.load_u64(off), 0xA11A);

    for _ in 0..3 {
        let want = pool.len() + 1;
        assert!(pool.grow_to(want).unwrap(), "growth with a pinned reader");
    }
    assert!(pool.len() > old_len);
    assert_eq!(pool.growth_epoch(), 3);

    // The held view still reads the pre-growth generation correctly...
    assert_eq!(view.len(), old_len, "a pinned view keeps its bounds");
    assert_eq!(view.atomic_u64(off).load(Ordering::Acquire), 0xA11A);
    // ...and stays coherent with writes made through the grown pool (both
    // generations map the same file pages).
    pool.store_u64(off, 0xB22B);
    assert_eq!(view.atomic_u64(off).load(Ordering::Acquire), 0xB22B);
    drop(view);

    let fresh = pool.map_ref();
    assert_eq!(fresh.len(), pool.len(), "a fresh view sees the grown size");
    assert_eq!(fresh.atomic_u64(off).load(Ordering::Acquire), 0xB22B);
    drop(fresh);

    drop(pool);
    std::fs::remove_file(&path).unwrap();
}

/// Pool ops issued under a held `MapRef` whose generation predates a
/// growth must not trust the stale view's bounds: an offset allocated
/// after the growth re-resolves the current generation (release-mode
/// checked) instead of dereferencing past the pinned mapping — the
/// nested-pin path would otherwise read/write unmapped memory whenever
/// growth had moved the base.
#[test]
fn pool_ops_past_a_pinned_views_bounds_resolve_the_current_generation() {
    let path = test_path("stale-bounds");
    let pool = FilePool::create(
        &path,
        FileConfig::with_size(256 << 10).with_growth(256 << 10),
    )
    .unwrap();
    let old_len = pool.len();
    let view = pool.map_ref();
    assert!(view.is_pinned());

    // Grow while the view pins the old generation, then touch space that
    // only exists in the new one.
    assert!(pool.grow_to(old_len + 1).unwrap());
    assert!(pool.len() > old_len);
    let off = old_len as u32; // first byte past the pinned view's bounds

    pool.store_u64(off, 7);
    assert_eq!(pool.load_u64(off), 7);
    assert_eq!(pool.cas_u64(off, 7, 8), Ok(7));
    assert_eq!(pool.fetch_add_u64(off, 2), 8);
    assert_eq!(pool.swap_u64(off, 11), 10);
    pool.flush(0, off);
    pool.sfence(0);
    pool.persist_now(off);
    pool.zero_range(off, 64);
    assert_eq!(pool.load_u64(off), 0);

    // The held view keeps its pre-growth bounds throughout.
    assert_eq!(view.len(), old_len);
    drop(view);
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
    assert!(!pool.map_ref().unwrap().is_pinned(), "fixed-size: inline");
    let len = pool.len() as u32;
    pool.store_u64(len - 8, 1); // the last word is fine
    pool.store_u64(len, 1); // one word past the end
}

/// An elastic pool's view is pinned, so `PmemPool` must not keep it: word
/// accesses go through `FilePool` per operation and therefore reach
/// offsets that did not exist when the `PmemPool` was built.
#[test]
fn an_elastic_pool_is_not_given_the_inline_view_and_follows_growth() {
    let path = test_path("elastic-not-inline");
    let pool = FilePool::create(
        &path,
        FileConfig::with_size(256 << 10).with_growth(256 << 10),
    )
    .unwrap()
    .into_pool();
    assert!(pool.map_ref().unwrap().is_pinned());
    let old_len = pool.len();
    // Allocate until an offset lands beyond the creation-time mapping.
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
    drop(view);
    drop(pool);
    std::fs::remove_file(&path).unwrap();
}

/// A thread that leaks (`mem::forget`) a pinned view and exits hands its
/// recycled hazard slot to the next thread in a dirty state (depth > 0,
/// stale generation announced). The lease-tenure check must detect that
/// and start clean: the new tenant's ops run against the current
/// generation, and the dead view's generation becomes reclaimable.
#[test]
fn a_leaked_view_from_a_dead_thread_does_not_poison_its_recycled_slot() {
    let path = test_path("leak");
    let pool = FilePool::create(
        &path,
        FileConfig::with_size(256 << 10).with_growth(256 << 10),
    )
    .unwrap();
    let old_len = pool.len();
    std::thread::scope(|scope| {
        // Dies with the pin still announced.
        scope
            .spawn(|| {
                let view = pool.map_ref();
                assert!(view.is_pinned());
                std::mem::forget(view);
            })
            .join()
            .unwrap();
        assert!(pool.grow_to(old_len + 1).unwrap());
        // A fresh thread very likely inherits the leaked slot (the free
        // list is LIFO); either way its ops must see the grown pool.
        scope
            .spawn(|| {
                let off = old_len as u32;
                pool.store_u64(off, 0xFACE);
                assert_eq!(pool.load_u64(off), 0xFACE);
                let view = pool.map_ref();
                assert_eq!(
                    view.len(),
                    pool.len(),
                    "a fresh pin must see the current generation, not the dead view's"
                );
            })
            .join()
            .unwrap();
    });
    drop(pool);
    std::fs::remove_file(&path).unwrap();
}

/// Hidden child entry point for the retirement-vs-commit round: pins
/// reader views that are never released, then grows. The parent sets
/// `DQ_GROW_ABORT_AFTER_COMMIT`, so the process dies at the journal's
/// persist — before the new mapping is published and before retirement of
/// the old one is even attempted.
#[test]
fn epoch_pin_child_entry() {
    let Ok(dir) = std::env::var(ENV_DIR) else {
        return;
    };
    let pool = Arc::new(
        FilePool::create(
            Path::new(&dir).join("pool.dq"),
            FileConfig::with_size(256 << 10).with_growth(256 << 10),
        )
        .expect("child: create pool"),
    );
    // Four reader threads pin the mapping and hold the pin forever.
    let pinned = Arc::new(Barrier::new(5));
    for _ in 0..4 {
        let (pool, pinned) = (Arc::clone(&pool), Arc::clone(&pinned));
        std::thread::spawn(move || {
            let view = pool.map_ref();
            assert!(view.is_pinned());
            pinned.wait();
            loop {
                std::thread::park(); // hold the pin until the abort
            }
        });
    }
    pinned.wait();
    // All four pins are announced. The growth must reach (and die at) its
    // commit point regardless — if retirement gated the commit, this call
    // would instead spin on the pinned slots and the parent would time out
    // waiting for the abort.
    let want = pool.len() + 1;
    let _ = pool.grow_to(want);
    unreachable!("DQ_GROW_ABORT_AFTER_COMMIT must abort inside grow_to");
}

/// The SIGKILL round: with readers pinned forever, the growth's journal
/// record still commits durably (the child dies exactly there), and a
/// reopen rolls it forward — retirement never delays the commit point.
#[test]
fn pinned_readers_never_delay_the_grow_commit_point() {
    let dir = durable_queues::testkit::subprocess::scratch_dir("store-epoch-commit");
    durable_queues::testkit::subprocess::ChildProc::new("epoch_pin_child_entry")
        .env(ENV_DIR, &dir)
        .abort_at(Some("DQ_GROW_ABORT_AFTER_COMMIT"))
        .run_to_abort();

    // The journal record was persisted with four readers pinned: the
    // commit happened, retirement did not — and recovery honours it.
    let geo = FilePool::read_geometry(dir.join("pool.dq")).unwrap();
    assert_eq!(geo.growth_epoch, 1, "commit point reached despite pins");
    assert!(
        geo.pool_size >= geo.base_size + (256 << 10),
        "journaled growth recovers to the new size"
    );
    let pool =
        FilePool::open_with_growth(dir.join("pool.dq"), SyncPolicy::default(), 256 << 10).unwrap();
    assert!(!pool.was_clean());
    assert_eq!(pool.growth_epoch(), 1);
    assert_eq!(pool.len(), geo.pool_size);
    drop(pool);
    let _ = std::fs::remove_dir_all(&dir);
}
