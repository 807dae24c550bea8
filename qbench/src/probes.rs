//! Probes: small fixed loops that price one thing each, run before a
//! workload. The `env.*` ones describe the sandbox (its disk, its clock);
//! the layer ones give the per-layer ledger its unit costs.

use crate::metrics::ProbeValues;
use crate::stats::median;
use durable_queues::node::NODE_SIZE;
use pmem::PmemPool;
use ssmem::{Ssmem, SsmemConfig};
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use store::{FileConfig, FilePool, MmapRegion};

/// One-page `msync` of a freshly dirtied page in `dir`, median of 32, µs.
fn msync_page_us(dir: &Path) -> io::Result<f64> {
    let path = dir.join("probe-msync");
    let file = File::options()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&path)?;
    let page = store::mmap::page_size();
    file.set_len(page as u64)?;
    let map = MmapRegion::map(&file, page)?;
    let mut samples = Vec::with_capacity(32);
    for i in 0..32u8 {
        // SAFETY: the mapping is `page` bytes long and ours alone.
        unsafe { map.as_ptr().write_volatile(i) };
        let t = Instant::now();
        map.msync(0, page)?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(map);
    std::fs::remove_file(&path)?;
    Ok(median(&samples))
}

/// Append of one 40-byte record plus `fdatasync` in `dir`, median of 32,
/// µs — what one ack-log record costs under power-fail.
fn fdatasync_append_us(dir: &Path) -> io::Result<f64> {
    let path = dir.join("probe-append");
    let mut file = File::options()
        .append(true)
        .create(true)
        .truncate(false)
        .open(&path)?;
    let record = [0xA5u8; 40];
    let mut samples = Vec::with_capacity(32);
    for _ in 0..32 {
        let t = Instant::now();
        file.write_all(&record)?;
        file.sync_data()?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    std::fs::remove_file(&path)?;
    Ok(median(&samples))
}

/// A fixed dependent-arithmetic loop: ns per thousand steps, best of five.
/// Moves with the processor's clock and with who else is on it.
fn spin_calib_ns() -> f64 {
    const STEPS: u64 = 2_000_000;
    let mut best = f64::MAX;
    for _ in 0..5 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let t = Instant::now();
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        best = best.min(t.elapsed().as_secs_f64() * 1e9 / (STEPS as f64 / 1000.0));
    }
    best
}

/// Words touched per round of the word probes: small enough to stay in
/// the first-level cache.
const WORDS: u32 = 512;
const WORD_ROUNDS: u32 = 2000;

/// ns per `load_u64`/`store_u64`/`cas_u64` through `PmemPool` on a
/// direct-mapped file pool (`grow_step` 0), best of five.
fn word_ns(pool: &PmemPool) -> f64 {
    let base = pool.alloc_raw(WORDS * 8, 64);
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        let mut sum = 0u64;
        for round in 0..WORD_ROUNDS as u64 {
            for w in 0..WORDS {
                let off = base + w * 8;
                let v = pool.load_u64(off);
                pool.store_u64(off, v + 1);
                sum += pool.cas_u64(off, v + 1, round).is_ok() as u64;
            }
        }
        std::hint::black_box(sum);
        best = best.min(t.elapsed().as_secs_f64() * 1e9 / (3.0 * (WORDS * WORD_ROUNDS) as f64));
    }
    best
}

/// The same loop on bare `AtomicU64`s with the same orderings.
fn word_ns_raw() -> f64 {
    let words: Vec<AtomicU64> = (0..WORDS).map(|_| AtomicU64::new(0)).collect();
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        let mut sum = 0u64;
        for round in 0..WORD_ROUNDS as u64 {
            for w in &words {
                let v = w.load(Ordering::Acquire);
                w.store(v + 1, Ordering::Release);
                sum += w
                    .compare_exchange(v + 1, round, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok() as u64;
            }
        }
        std::hint::black_box(sum);
        best = best.min(t.elapsed().as_secs_f64() * 1e9 / (3.0 * (WORDS * WORD_ROUNDS) as f64));
    }
    best
}

/// ns per `Ssmem::alloc` + `free_immediate` pair on a file pool, best of
/// five (the epoch path — `retire` — is exercised by every workload; this
/// prices the free-list fast path).
fn alloc_free_ns(pool: &Arc<PmemPool>) -> f64 {
    const PAIRS: u32 = 500_000;
    let ssmem = Ssmem::new(
        Arc::clone(pool),
        SsmemConfig {
            obj_size: NODE_SIZE,
            area_size: 64 << 10,
            max_threads: 1,
        },
    );
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..PAIRS {
            let obj = ssmem.alloc(0);
            ssmem.free_immediate(0, obj);
        }
        best = best.min(t.elapsed().as_secs_f64() * 1e9 / PAIRS as f64);
    }
    best
}

/// µs per `obs::snapshot()`, median of 64.
fn snapshot_us() -> f64 {
    let samples: Vec<f64> = (0..64)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(obs::snapshot());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// The three `env.*` probes, which every run prints.
pub fn env(dir: &Path) -> io::Result<ProbeValues> {
    Ok(ProbeValues {
        msync_page_us: msync_page_us(dir)?,
        fdatasync_append_us: fdatasync_append_us(dir)?,
        spin_calib_ns: spin_calib_ns(),
        ..ProbeValues::default()
    })
}

/// The layer probes, which the traced run adds.
pub fn layers(dir: &Path, mut values: ProbeValues) -> io::Result<ProbeValues> {
    let path = dir.join("probe.pool");
    let pool = FilePool::create(&path, FileConfig::with_size(4 << 20))?.into_pool();
    values.word_ns = word_ns(&pool);
    values.word_ns_raw = word_ns_raw();
    values.alloc_free_ns = alloc_free_ns(&pool);
    values.snapshot_us = snapshot_us();
    drop(pool);
    std::fs::remove_file(&path)?;
    Ok(values)
}
