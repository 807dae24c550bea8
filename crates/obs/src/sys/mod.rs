//! The workspace's one door to the kernel for mapped and durable files,
//! at the bottom of the DAG: the file mapping the flight recorder's ring
//! and `store`'s pools live in and the anonymous one a simulated pool's
//! images live in ([`MmapRegion`]), every sync ([`durable`]), and the crash
//! tests' abort point ([`crash_point`]). The offline build
//! has no `libc` crate, so the few C calls are declared here against the C
//! library `std` links; their safety contract is the man page's.

pub mod durable;

use std::ffi::c_void;
use std::fs::File;
use std::io;
use std::os::unix::io::AsRawFd;
use std::path::Path;

const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_SHARED: i32 = 1;
const MAP_PRIVATE: i32 = 2;
#[cfg(target_os = "linux")]
const MAP_ANONYMOUS: i32 = 0x20;
#[cfg(not(target_os = "linux"))]
const MAP_ANONYMOUS: i32 = 0x1000;
/// Reserve no swap for the mapping: its pages are committed as they are
/// touched, not when it is made.
#[cfg(target_os = "linux")]
const MAP_NORESERVE: i32 = 0x4000;
#[cfg(not(target_os = "linux"))]
const MAP_NORESERVE: i32 = 0;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    /// Called by [`durable::msync`] only.
    fn msync(addr: *mut c_void, len: usize, flags: i32) -> i32;
    fn getpagesize() -> i32;
}

/// The system page size (granularity of [`durable::msync`] rounding).
pub fn page_size() -> usize {
    // SAFETY: getpagesize has no preconditions.
    unsafe { getpagesize() as usize }
}

/// A writable mapping of `len` bytes, page-aligned, in one of two kinds:
///
/// * [`MmapRegion::map`]: the leading bytes of a file, shared, so stores
///   land in the page cache as they retire and survive a `SIGKILL`. The
///   mapping may be longer than the file: bytes past its end are address
///   space only, and fault, until the file is extended under them (how an
///   elastic pool grows).
/// * [`MmapRegion::anonymous`]: private memory the kernel zeroes page by
///   page on first touch, so an untouched byte costs address space only
///   (how a simulated pool's images cost what a run touches).
pub struct MmapRegion {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the region is only accessed through atomics (or during
// single-threaded setup) by its users; the raw pointer itself is safe to
// move between threads.
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

impl MmapRegion {
    /// Maps `len` bytes of `file` from its start, shared and read-write.
    pub fn map(file: &File, len: usize) -> io::Result<MmapRegion> {
        MmapRegion::new(len, MAP_SHARED, file.as_raw_fd())
    }

    /// Maps `len` bytes of zeroed, private, read-write memory backed by no
    /// file and reserving no swap: a page is committed when it is first
    /// touched.
    pub fn anonymous(len: usize) -> io::Result<MmapRegion> {
        MmapRegion::new(len, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1)
    }

    fn new(len: usize, flags: i32, fd: i32) -> io::Result<MmapRegion> {
        assert!(len > 0, "cannot map an empty region");
        // SAFETY: len > 0, and fd is either a valid open file descriptor
        // or -1 with MAP_ANONYMOUS; neither mapping has other
        // preconditions. The kernel validates the rest and reports failure
        // as MAP_FAILED.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                flags,
                fd,
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

    /// Returns `true` if the mapping is empty (never: both constructors
    /// reject len 0).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// [`durable::msync`] of a mapping whose file goes unnamed (no fault
    /// can target it).
    pub fn msync(&self, offset: usize, len: usize) -> io::Result<()> {
        durable::msync(self, offset, len, Path::new(""))
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        // SAFETY: ptr/len are exactly the mapping created in `new`, and
        // the region's borrowers are gone.
        unsafe { munmap(self.ptr as *mut c_void, self.len) };
    }
}

/// The crash tests' abort point (`DQ_GROW_ABORT_*`, `DQ_RESHARD_ABORT_*`):
/// with the named variable set, the process dies here, like a `kill -9`.
pub fn crash_point(name: &str) {
    if std::env::var_os(name).is_some() {
        std::process::abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Seek, SeekFrom, Write};

    fn temp_file(len: u64) -> (std::path::PathBuf, File) {
        let path = std::env::temp_dir().join(format!(
            "obs-mmap-test-{}-{:?}",
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

    /// An anonymous region reads zero everywhere, is page-aligned, keeps
    /// what is stored, and may be far larger than what it ever touches.
    #[test]
    fn an_anonymous_region_is_zeroed_and_aligned() {
        let region = MmapRegion::anonymous(1 << 32).unwrap();
        assert_eq!(region.as_ptr() as usize % page_size(), 0);
        // SAFETY: in bounds of the mapping; first and last page only.
        unsafe {
            let last = region.as_ptr().add(region.len() - 1);
            assert_eq!((*region.as_ptr(), *last), (0, 0));
            *last = 0x5A;
            assert_eq!(*last, 0x5A);
        }
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
