//! The few system calls the benchmark needs that `std` does not expose:
//! block preallocation, filesystem type, and the minor-fault counter. Linux
//! only; elsewhere every helper degrades to "unknown"/no-op so the crate
//! still builds.

use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

#[cfg(target_os = "linux")]
mod ffi {
    use std::ffi::{c_char, c_int, c_long, c_void};
    extern "C" {
        pub fn posix_fallocate(fd: c_int, offset: c_long, len: c_long) -> c_int;
        pub fn statfs(path: *const c_char, buf: *mut c_void) -> c_int;
        pub fn getrusage(who: c_int, usage: *mut c_void) -> c_int;
    }
}

/// `TMPFS_MAGIC` from `linux/magic.h`.
const TMPFS_MAGIC: i64 = 0x0102_1994;

/// Allocates every block of `file` up to `len` bytes, so that no later
/// write has to (rule 3).
pub fn preallocate(file: &File, len: u64) -> io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        use std::os::fd::AsRawFd;
        // SAFETY: plain syscall wrapper on a descriptor we own.
        let rc = unsafe { ffi::posix_fallocate(file.as_raw_fd(), 0, len as i64) };
        if rc != 0 {
            return Err(io::Error::from_raw_os_error(rc));
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = (file, len);
    Ok(())
}

/// Reads `file` front to back once, so that every page is in the page
/// cache before a timed region touches it. Returns the bytes read.
pub fn read_through(file: &mut File) -> io::Result<u64> {
    let mut buf = vec![0u8; 1 << 20];
    let mut total = 0u64;
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            return Ok(total);
        }
        total += n as u64;
    }
}

/// The filesystem holding `path`, as a short name (`tmpfs`, `ext4`, … or
/// the magic number in hex), and whether it is tmpfs.
pub fn fs_type(path: &Path) -> (String, bool) {
    #[cfg(target_os = "linux")]
    {
        use std::os::unix::ffi::OsStrExt;
        let mut c_path = path.as_os_str().as_bytes().to_vec();
        c_path.push(0);
        // `struct statfs` is 120 bytes on 64-bit Linux and starts with
        // `f_type`; the buffer is generously oversized.
        let mut buf = [0i64; 32];
        // SAFETY: NUL-terminated path, buffer larger than the struct.
        let rc = unsafe { ffi::statfs(c_path.as_ptr().cast(), buf.as_mut_ptr().cast()) };
        if rc == 0 {
            let magic = buf[0];
            let name = match magic {
                TMPFS_MAGIC => "tmpfs".to_string(),
                0xEF53 => "ext4".to_string(),
                0x5846_5342 => "xfs".to_string(),
                0x9123_683E => "btrfs".to_string(),
                0x794C_7630 => "overlayfs".to_string(),
                other => format!("0x{other:x}"),
            };
            return (name, magic == TMPFS_MAGIC);
        }
    }
    let _ = path;
    ("unknown".to_string(), false)
}

/// Minor page faults this process has taken so far.
pub fn minor_faults() -> u64 {
    #[cfg(target_os = "linux")]
    {
        // `struct rusage`: two `timeval`s (32 bytes), then `long`s in the
        // order maxrss, ixrss, idrss, isrss, minflt, …
        let mut buf = [0i64; 32];
        // SAFETY: RUSAGE_SELF (0) into a buffer larger than the struct.
        if unsafe { ffi::getrusage(0, buf.as_mut_ptr().cast()) } == 0 {
            return buf[8] as u64;
        }
    }
    0
}

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preallocate_and_read_through_cover_the_whole_file() {
        let path = std::env::temp_dir().join(format!("qbench-sys-{}", std::process::id()));
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        file.set_len(3 << 20).unwrap();
        preallocate(&file, 3 << 20).unwrap();
        let mut file = file;
        assert_eq!(read_through(&mut file).unwrap(), 3 << 20);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fault_counter_moves_when_fresh_memory_is_touched() {
        let before = minor_faults();
        let v = vec![1u8; 8 << 20];
        assert!(v.iter().map(|&b| b as u64).sum::<u64>() > 0);
        if cfg!(target_os = "linux") {
            assert!(minor_faults() > before);
        }
    }
}
