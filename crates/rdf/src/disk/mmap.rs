//! Minimal read-only `mmap(2)` wrapper.
//!
//! The build environment has no `libc` crate, so the two syscalls we
//! need are declared directly (the same approach the serve crate takes
//! for its signal handler). Mapping is `PROT_READ` + `MAP_PRIVATE`:
//! the kernel pages segment bytes in on demand and shares them across
//! processes, which is what makes warm opens near-instant. If the map
//! fails (or on non-unix targets) we fall back to reading the file into
//! an owned buffer — same bytes, same API, just not zero-copy.

use super::StoreError;
use std::fs::File;
use std::io::Read;
use std::path::Path;

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    pub const MADV_DONTNEED: i32 = 4;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        pub fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }
}

/// A read-only byte buffer that is either memory-mapped or owned.
pub enum MapData {
    Owned(Vec<u8>),
    #[cfg(unix)]
    Mapped {
        ptr: *const u8,
        len: usize,
    },
}

// SAFETY: the mapping is PROT_READ + MAP_PRIVATE over a write-once
// segment file — immutable shared bytes, safe to read from any thread.
#[cfg(unix)]
unsafe impl Send for MapData {}
#[cfg(unix)]
unsafe impl Sync for MapData {}

impl MapData {
    pub fn bytes(&self) -> &[u8] {
        match self {
            MapData::Owned(v) => v,
            #[cfg(unix)]
            MapData::Mapped { ptr, len } => {
                // SAFETY: ptr/len came from a successful mmap that this
                // value owns; munmap happens only in Drop.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
        }
    }

    /// Drops this process's resident pages of a mapping (a no-op for
    /// owned bytes). The map is read-only and private, so a later read
    /// faults the same bytes back in from the file.
    pub fn release(&self) {
        #[cfg(unix)]
        if let MapData::Mapped { ptr, len } = *self {
            // SAFETY: ptr/len are this value's live mapping.
            unsafe { sys::madvise(ptr as *mut _, len, sys::MADV_DONTNEED) };
        }
    }

    /// True when the bytes are served by the page cache rather than an
    /// owned heap buffer (used by `/ready` to report the store mode).
    pub fn is_mapped(&self) -> bool {
        match self {
            MapData::Owned(_) => false,
            #[cfg(unix)]
            MapData::Mapped { .. } => true,
        }
    }
}

impl Drop for MapData {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let MapData::Mapped { ptr, len } = *self {
            // SAFETY: exactly one munmap per successful mmap.
            unsafe {
                sys::munmap(ptr as *mut std::ffi::c_void, len);
            }
        }
    }
}

impl std::fmt::Debug for MapData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapData::Owned(v) => write!(f, "MapData::Owned({} bytes)", v.len()),
            #[cfg(unix)]
            MapData::Mapped { len, .. } => write!(f, "MapData::Mapped({len} bytes)"),
        }
    }
}

/// Maps `path` read-only, falling back to an owned read on failure.
pub fn map_file(path: &Path) -> Result<MapData, StoreError> {
    let mut file = File::open(path).map_err(|e| StoreError::io("open", path, e))?;
    let len = file
        .metadata()
        .map_err(|e| StoreError::io("stat", path, e))?
        .len() as usize;
    // mmap of length 0 is EINVAL; an empty file is an owned empty buf.
    if len == 0 {
        return Ok(MapData::Owned(Vec::new()));
    }
    #[cfg(unix)]
    {
        use std::os::unix::io::AsRawFd;
        // SAFETY: fd is open for the duration of the call; a failed map
        // returns MAP_FAILED (-1) which we check before use.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize != -1 && !ptr.is_null() {
            return Ok(MapData::Mapped {
                ptr: ptr as *const u8,
                len,
            });
        }
    }
    let mut buf = Vec::with_capacity(len);
    file.read_to_end(&mut buf)
        .map_err(|e| StoreError::io("read", path, e))?;
    Ok(MapData::Owned(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_and_reads_back() {
        let dir = std::env::temp_dir().join(format!("feo-mmap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.bin");
        std::fs::write(&path, b"hello segment").unwrap();
        let map = map_file(&path).unwrap();
        assert_eq!(map.bytes(), b"hello segment");
        #[cfg(unix)]
        assert!(map.is_mapped());
        drop(map);

        let empty = dir.join("empty.bin");
        std::fs::write(&empty, b"").unwrap();
        let map = map_file(&empty).unwrap();
        assert!(map.bytes().is_empty());
        assert!(!map.is_mapped());

        assert!(map_file(&dir.join("missing.bin")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
