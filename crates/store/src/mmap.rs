//! A minimal shared file mapping.
//!
//! The handful of calls a pool file needs (`mmap`, `munmap`, `msync`,
//! `getpagesize`) are the workspace's one set of extern-C bindings,
//! [`obs::sys`]. A shared mapping is what gives kill-`SIGKILL` durability
//! (stores land in the OS page cache the moment they retire, so they
//! survive the process); there is no stand-in for platforms without one —
//! the crate refuses to build there.

use obs::sys;
use std::fs::File;
use std::io;
use std::os::unix::io::AsRawFd;

/// A writable shared mapping of the leading `len` bytes of a file. The
/// mapping may be longer than the file: bytes past the end of the file
/// are address space only, and touching them faults, until the file is
/// extended under them (how an elastic `FilePool` grows).
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
    /// Maps `len` bytes of `file` from its start, shared and read-write.
    pub fn map(file: &File, len: usize) -> io::Result<MmapRegion> {
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
        Ok(MmapRegion {
            ptr: ptr as *mut u8,
            len,
        })
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
        let start = offset & !(page_size() - 1);
        // SAFETY: [start, offset + len) is page-rounded and was just
        // checked to lie inside the mapping.
        let rc = unsafe {
            sys::msync(
                self.ptr.add(start) as *mut std::ffi::c_void,
                offset + len - start,
                sys::MS_SYNC,
            )
        };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        // SAFETY: ptr/len are exactly the mapping created in `map`, and
        // the region's borrowers are gone.
        unsafe { sys::munmap(self.ptr as *mut std::ffi::c_void, self.len) };
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

    /// A mapping may reserve more than its file holds: once the file is
    /// extended under it, the new bytes read, write and `msync` through the
    /// same base — how an elastic pool grows.
    #[test]
    fn a_mapping_longer_than_its_file_serves_the_file_as_it_grows() {
        let (path, mut f) = temp_file(4096);
        let region = MmapRegion::map(&f, 1 << 32).unwrap();
        f.set_len(3 * 4096).unwrap();
        // SAFETY: in bounds of the mapping and of the extended file.
        let bytes = unsafe { std::slice::from_raw_parts_mut(region.as_ptr(), 3 * 4096) };
        bytes[2 * 4096 + 1] = 0x5A;
        region.msync(2 * 4096, 4096).unwrap();
        let mut back = vec![0u8; 3 * 4096];
        f.seek(SeekFrom::Start(0)).unwrap();
        f.read_exact(&mut back).unwrap();
        assert_eq!(back[2 * 4096 + 1], 0x5A);
        drop(region);
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
