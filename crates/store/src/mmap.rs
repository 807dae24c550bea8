//! A minimal shared file mapping.
//!
//! The handful of calls a pool file needs (`mmap`, `munmap`, `msync`,
//! `getpagesize`, Linux `mremap`) are the workspace's one set of extern-C
//! bindings, [`obs::sys`]. A shared mapping is what gives kill-`SIGKILL`
//! durability (stores land in the OS page cache the moment they retire, so
//! they survive the process); there is no stand-in for platforms without
//! one — the crate refuses to build there.

use obs::sys;
use std::fs::File;
use std::io;

/// A writable shared mapping of the leading `len` bytes of a file.
pub struct MmapRegion {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the region is only accessed through atomics (or during
// single-threaded setup) by its users; the raw pointer itself is safe to
// move between threads.
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

/// The system page size (granularity of [`MmapRegion::msync`] rounding).
pub fn page_size() -> usize {
    // SAFETY: getpagesize has no preconditions.
    unsafe { sys::getpagesize() as usize }
}

impl MmapRegion {
    /// Maps the leading `len` bytes of `file`, shared and read-write. The
    /// file must already be at least `len` bytes long.
    pub fn map(file: &File, len: usize) -> io::Result<MmapRegion> {
        raw::map(file, len).map(|ptr| MmapRegion { ptr, len })
    }

    /// Base pointer of the mapping.
    pub fn as_ptr(&self) -> *mut u8 {
        self.ptr
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the mapping is empty (never: `map` rejects len 0).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Synchronously writes the pages overlapping `[offset, offset + len)`
    /// back to the file (`msync(MS_SYNC)`); the range is rounded out to page
    /// boundaries.
    pub fn msync(&self, offset: usize, len: usize) -> io::Result<()> {
        if len == 0 {
            return Ok(());
        }
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len),
            "msync range out of bounds"
        );
        // SAFETY: the range was just checked to lie inside the mapping.
        unsafe { raw::msync(self.ptr, offset, len) }
    }
}

/// Unowned mapping primitives for `file_pool`'s epoch-retired mapping
/// table, which manages mapping lifetimes itself (a replaced mapping must
/// outlive the last reader pinned on it, so RAII ownership à la
/// [`MmapRegion`] is the wrong shape there).
///
/// These are thin wrappers over `mmap`/`munmap`/`msync`, plus the two Linux
/// `mremap` forms growth uses: in-place extension (base pointer unchanged,
/// no second VA range) and shared-mapping duplication (the old mapping
/// stays intact for still-pinned readers).
pub(crate) mod raw {
    use super::{page_size, sys};
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    /// Maps the leading `len` bytes of `file`, shared and read-write.
    pub fn map(file: &File, len: usize) -> io::Result<*mut u8> {
        assert!(len > 0, "cannot map an empty region");
        // SAFETY: fd is a valid open file descriptor; len > 0; a shared
        // file mapping has no other preconditions. The kernel validates
        // the rest and reports failure as MAP_FAILED.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(ptr as *mut u8)
    }

    /// Releases a mapping created by [`map`] (or [`remap_dup`], or extended
    /// in place to `len` bytes).
    ///
    /// # Safety
    ///
    /// `ptr`/`len` must name exactly one live mapping from this module, and
    /// nothing may reference it afterwards.
    pub unsafe fn unmap(ptr: *mut u8, len: usize) {
        // SAFETY: per the caller contract.
        unsafe {
            sys::munmap(ptr as *mut std::ffi::c_void, len);
        }
    }

    /// Synchronously writes the pages of `[offset, offset + len)` (rounded
    /// out to page boundaries) back to the file the mapping came from.
    ///
    /// # Safety
    ///
    /// `base` must be a live mapping covering `offset + len` bytes.
    pub unsafe fn msync(base: *mut u8, offset: usize, len: usize) -> io::Result<()> {
        if len == 0 {
            return Ok(());
        }
        let page = page_size();
        let start = offset & !(page - 1);
        let end = offset + len;
        // SAFETY: [start, end) is page-rounded and, per the caller
        // contract, inside the mapping.
        let rc = unsafe {
            sys::msync(
                base.add(start) as *mut std::ffi::c_void,
                end - start,
                sys::MS_SYNC,
            )
        };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Attempts to extend a live mapping from `old_len` to `new_len` bytes
    /// **without moving its base** (Linux `mremap` with no flags). Returns
    /// `true` on success — the common, cheapest growth path: readers keep
    /// using the same base pointer and no second VA range ever exists.
    /// Always `false` off Linux.
    ///
    /// # Safety
    ///
    /// `base`/`old_len` must name a live mapping from this module; the
    /// backing file must already be at least `new_len` bytes long.
    pub unsafe fn extend_in_place(base: *mut u8, old_len: usize, new_len: usize) -> bool {
        #[cfg(target_os = "linux")]
        {
            // SAFETY: per the caller contract; without MREMAP_MAYMOVE the
            // kernel either extends at the same address or fails cleanly.
            let ptr = unsafe { sys::mremap(base as *mut std::ffi::c_void, old_len, new_len, 0) };
            ptr as *mut u8 == base && ptr as isize != -1
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = (base, old_len, new_len);
            false
        }
    }

    /// Creates a **second** mapping of the file, `new_len` bytes long,
    /// leaving the old mapping at `base` fully intact — the growth path
    /// when in-place extension fails. On Linux this is
    /// `mremap(base, 0, new_len, MREMAP_MAYMOVE)`: with `old_size == 0` on
    /// a shared mapping the kernel *duplicates* instead of moving, which
    /// needs no second walk of the file and is why still-pinned readers of
    /// the old mapping stay valid. Elsewhere it falls back to a fresh
    /// `mmap` of the same file (same pages via the page cache, so the two
    /// mappings are coherent).
    ///
    /// # Safety
    ///
    /// `base` must name a live shared mapping of `file` from this module;
    /// the file must already be at least `new_len` bytes long.
    pub unsafe fn remap_dup(file: &File, base: *mut u8, new_len: usize) -> io::Result<*mut u8> {
        #[cfg(target_os = "linux")]
        {
            // SAFETY: per the caller contract; old_size 0 + MAYMOVE
            // duplicates a shared mapping without touching the original.
            let ptr = unsafe {
                sys::mremap(
                    base as *mut std::ffi::c_void,
                    0,
                    new_len,
                    sys::MREMAP_MAYMOVE,
                )
            };
            if ptr as isize != -1 {
                return Ok(ptr as *mut u8);
            }
            // Old kernels may refuse the duplication form; a plain second
            // mapping of the file is equivalent (same page-cache pages).
            map(file, new_len)
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = base;
            map(file, new_len)
        }
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        // SAFETY: ptr/len are exactly the mapping created in `map`.
        unsafe { raw::unmap(self.ptr, self.len) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Seek, SeekFrom, Write};

    fn temp_file(len: u64) -> (std::path::PathBuf, File) {
        let path = std::env::temp_dir().join(format!(
            "store-mmap-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut f = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        f.set_len(len).unwrap();
        f.seek(SeekFrom::Start(0)).unwrap();
        (path, f)
    }

    #[test]
    fn mapping_reads_and_writes_the_file() {
        let (path, mut f) = temp_file(8192);
        f.write_all(b"hello").unwrap();
        f.flush().unwrap();
        {
            let region = MmapRegion::map(&f, 8192).unwrap();
            // SAFETY: in-bounds of the mapping.
            let bytes = unsafe { std::slice::from_raw_parts_mut(region.as_ptr(), 8192) };
            assert_eq!(&bytes[..5], b"hello");
            bytes[0] = b'H';
            bytes[4096] = 0xAB;
            region.msync(0, 8192).unwrap();
        }
        let mut back = vec![0u8; 8192];
        f.seek(SeekFrom::Start(0)).unwrap();
        f.read_exact(&mut back).unwrap();
        assert_eq!(&back[..5], b"Hello");
        assert_eq!(back[4096], 0xAB);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn page_size_is_a_power_of_two() {
        let p = page_size();
        assert!(p.is_power_of_two() && p >= 4096);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn msync_rejects_out_of_bounds_ranges() {
        let (path, f) = temp_file(4096);
        let region = MmapRegion::map(&f, 4096).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            region.msync(4000, 200).unwrap()
        }));
        std::fs::remove_file(path).unwrap();
        std::panic::resume_unwind(result.unwrap_err());
    }
}
