//! Real persistence intrinsics for the production path.
//!
//! On actual NVRAM hardware the queues would persist data with the x86-64
//! instructions the paper names: `CLWB`/`CLFLUSHOPT` (cache-line write-back),
//! `SFENCE` (store fence) and `movnti` (non-temporal store). This module
//! wraps the stable subset of those intrinsics: the file-backed pool
//! (`store::FilePool`) issues them against its mapping, and `harness
//! fastpath` prices them alongside the simulator.
//!
//! On non-x86-64 targets the functions degrade to plain stores and compiler
//! fences so the crate still builds everywhere.

/// Flushes the cache line containing `addr` (CLFLUSH — invalidating, like
/// the behaviour the paper observed even for CLWB on Cascade Lake).
///
/// # Safety
/// `addr` must be a valid pointer into readable memory.
#[inline]
pub unsafe fn clflush(addr: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: caller guarantees `addr` is valid; CLFLUSH has no other
    // preconditions on x86-64.
    unsafe {
        core::arch::x86_64::_mm_clflush(addr);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = addr;
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
    }
}

/// Store fence (SFENCE): orders all previous stores, flushes and
/// non-temporal stores before any later store.
#[inline]
pub fn sfence() {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SFENCE has no preconditions.
    unsafe {
        core::arch::x86_64::_mm_sfence();
    }
    #[cfg(not(target_arch = "x86_64"))]
    std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
}

/// Non-temporal 64-bit store (`movnti`): writes `val` to `*addr` bypassing
/// the cache.
///
/// # Safety
/// `addr` must be valid for writes of 8 bytes and 8-byte aligned, and no
/// other thread may concurrently access it non-atomically.
#[inline]
pub unsafe fn nt_store_u64(addr: *mut u64, val: u64) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: caller guarantees alignment and validity.
    unsafe {
        core::arch::x86_64::_mm_stream_si64(addr as *mut i64, val as i64);
    }
    #[cfg(not(target_arch = "x86_64"))]
    // SAFETY: caller guarantees alignment and validity.
    unsafe {
        std::ptr::write_volatile(addr, val);
    }
}

/// Persists `[addr, addr + len)`: flushes every overlapping cache line and
/// fences. The building block a real-NVRAM backend would use.
///
/// # Safety
/// The whole range must be valid readable memory.
pub unsafe fn persist_range(addr: *const u8, len: usize) {
    let line = crate::layout::CACHE_LINE;
    let start = addr as usize & !(line - 1);
    let end = addr as usize + len;
    let mut p = start;
    while p < end {
        // SAFETY: stays within (or on the boundary lines of) the caller's
        // valid range.
        unsafe { clflush(p as *const u8) };
        p += line;
    }
    sfence();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intrinsics_do_not_corrupt_data() {
        let mut buf = vec![0u64; 64];
        for (i, v) in buf.iter_mut().enumerate() {
            *v = i as u64;
        }
        // SAFETY: `buf` is valid, owned, aligned memory.
        unsafe {
            persist_range(buf.as_ptr() as *const u8, buf.len() * 8);
            nt_store_u64(buf.as_mut_ptr(), 999);
        }
        sfence();
        assert_eq!(buf[0], 999);
        for (i, v) in buf.iter().enumerate().skip(1) {
            assert_eq!(*v, i as u64);
        }
    }

    #[test]
    fn sfence_is_callable_repeatedly() {
        for _ in 0..100 {
            sfence();
        }
    }
}
