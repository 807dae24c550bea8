//! The workspace's one set of extern-C memory-mapping bindings.
//!
//! The offline build has no `libc` crate, so the handful of calls a mapped
//! file needs are declared directly against the C library `std` already
//! links. They live here for the same reason the CRC does: obs sits at the
//! bottom of the workspace DAG, and both the flight recorder's ring and
//! `store`'s pool files map files.
//!
//! Every function is the C library's own: the safety contract is the man
//! page's.

use std::ffi::c_void;

/// Pages may be read.
pub const PROT_READ: i32 = 1;
/// Pages may be written.
pub const PROT_WRITE: i32 = 2;
/// Stores are carried through to the file and visible to other mappings.
pub const MAP_SHARED: i32 = 1;
/// `msync` returns only once the write-back has completed.
pub const MS_SYNC: i32 = 4;

extern "C" {
    /// `mmap(2)`; fails with `MAP_FAILED` (`-1`).
    pub fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        offset: i64,
    ) -> *mut c_void;
    /// `munmap(2)`.
    pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    /// `msync(2)`; `addr` must be page-aligned.
    pub fn msync(addr: *mut c_void, len: usize, flags: i32) -> i32;
    /// `getpagesize(2)`.
    pub fn getpagesize() -> i32;
}
