//! Byte storage behind the zero-copy load paths.
//!
//! [`Storage`] abstracts over *where* a serialized blob lives: an owned
//! heap buffer (the classic read-everything path) or a memory-mapped file
//! ([`Storage::map`]) whose pages are faulted in lazily by the kernel.
//! Decoders build typed views ([`U32Buf`], and the f32 table views in
//! `bns-serve`) that either own their data or borrow it from a shared
//! [`Storage`] through an `Arc`, so a million-row CSR or embedding table
//! costs no copy and no per-element decode loop at load time.
//!
//! ## Zero-copy preconditions
//!
//! A mapped `&[u32]`/`&[f32]` view reinterprets file bytes in place, which
//! is only sound when
//!
//! 1. the platform is **little-endian** (all on-disk integers are LE) and
//! 2. the view's byte offset is **4-byte aligned** (mmap bases are
//!    page-aligned, so only the in-file offset matters).
//!
//! Both are checked at view-construction time; on big-endian targets the
//! callers fall back to the buffered decode path. Mapped views are
//! read-only (`PROT_READ`, `MAP_PRIVATE`), and the artifact checksum is
//! verified over the mapped bytes before any view is handed out, so a
//! file mutated after load is the same trust model as an owned buffer
//! mutated after load: out of scope (artifacts are trusted inputs).

use crate::le::Words;
use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// A read-only byte blob: owned heap memory or a shared file mapping.
#[derive(Debug)]
pub enum Storage {
    /// Heap-owned bytes (`std::fs::read` or an in-memory encode).
    Owned(Vec<u8>),
    /// A memory-mapped read-only file (unix); pages fault in on demand.
    #[cfg(unix)]
    Mapped(Mmap),
}

impl Storage {
    /// Reads a whole file into owned memory — the buffered path.
    pub fn read(path: &Path) -> io::Result<Self> {
        Ok(Storage::Owned(std::fs::read(path)?))
    }

    /// Maps a file read-only. On unix this is `mmap(2)`; elsewhere it
    /// silently degrades to [`Storage::read`] (correct, just not
    /// zero-copy). Empty files map to an empty owned buffer because
    /// zero-length mappings are an `EINVAL` on Linux.
    pub fn map(path: &Path) -> io::Result<Self> {
        #[cfg(unix)]
        {
            let file = File::open(path)?;
            let len = file.metadata()?.len();
            if len == 0 {
                return Ok(Storage::Owned(Vec::new()));
            }
            if len > usize::MAX as u64 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "file too large to map on this platform",
                ));
            }
            Ok(Storage::Mapped(Mmap::new(&file, len as usize)?))
        }
        #[cfg(not(unix))]
        {
            Self::read(path)
        }
    }

    /// The stored bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            Storage::Owned(v) => v,
            #[cfg(unix)]
            Storage::Mapped(m) => m.as_bytes(),
        }
    }

    /// Whether this storage is a live file mapping (used by benches and
    /// tests to assert the zero-copy path was actually taken).
    pub fn is_mapped(&self) -> bool {
        match self {
            Storage::Owned(_) => false,
            #[cfg(unix)]
            Storage::Mapped(_) => true,
        }
    }
}

/// Raw bindings to the three syscalls the mapping needs. `std` already
/// links libc on every unix target, so declaring the symbols directly
/// keeps the workspace dependency-free (no `libc`/`memmap2` crates, which
/// the offline vendor set does not carry).
#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

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
    }
}

/// An owned read-only `mmap(2)` region, unmapped on drop.
#[cfg(unix)]
pub struct Mmap {
    ptr: *const u8,
    len: usize,
}

#[cfg(unix)]
// SAFETY: the mapping is PROT_READ/MAP_PRIVATE — immutable shared memory
// with no interior mutability — so shared references to it from any
// thread are data-race-free, same as a `&[u8]` into a `Vec`.
unsafe impl Send for Mmap {}
#[cfg(unix)]
// SAFETY: see the `Send` justification: the region is immutable.
unsafe impl Sync for Mmap {}

#[cfg(unix)]
impl Mmap {
    fn new(file: &File, len: usize) -> io::Result<Self> {
        use std::os::unix::io::AsRawFd;
        // SAFETY: fd is a live, owned file descriptor for the duration of
        // the call; addr = null lets the kernel choose the placement; the
        // result is checked against MAP_FAILED before use.
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
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap {
            ptr: ptr as *const u8,
            len,
        })
    }

    /// The mapped bytes.
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
        // bytes, valid until `drop` unmaps it; `&self` borrows prevent
        // outliving the mapping.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

#[cfg(unix)]
impl Drop for Mmap {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` describe exactly the region `mmap` returned
        // and it has not been unmapped before (drop runs once).
        unsafe {
            sys::munmap(self.ptr as *mut std::ffi::c_void, self.len);
        }
    }
}

#[cfg(unix)]
impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len).finish()
    }
}

/// Whether a byte range of a [`Storage`] can be reinterpreted as `[u32]`
/// / `[f32]` in place: little-endian target and 4-byte-aligned start (the
/// length is the caller's element count × 4 by construction).
pub fn zero_copy_eligible(storage: &Storage, byte_offset: usize) -> bool {
    let base = storage.as_bytes().as_ptr() as usize;
    cfg!(target_endian = "little") && (base + byte_offset).is_multiple_of(4)
}

/// A `u32` sequence that either owns its elements or borrows them from a
/// shared [`Storage`] — the building block of mapped CSR views.
#[derive(Clone)]
pub enum U32Buf {
    /// Heap-owned elements.
    Owned(Vec<u32>),
    /// A zero-copy window into a shared storage blob.
    Mapped {
        /// The backing blob, kept alive by this view.
        storage: Arc<Storage>,
        /// Byte offset of the first element (4-byte aligned).
        byte_offset: usize,
        /// Number of `u32` elements.
        len: usize,
    },
}

impl U32Buf {
    /// Builds a mapped view after checking the zero-copy preconditions;
    /// returns `None` when the platform or alignment disqualifies it (the
    /// caller then decodes into an owned buffer instead).
    pub fn mapped(storage: &Arc<Storage>, byte_offset: usize, len: usize) -> Option<Self> {
        let bytes = storage.as_bytes();
        let end = byte_offset.checked_add(len.checked_mul(4)?)?;
        if end > bytes.len() || !zero_copy_eligible(storage, byte_offset) {
            return None;
        }
        Some(U32Buf::Mapped {
            storage: Arc::clone(storage),
            byte_offset,
            len,
        })
    }

    /// The elements as a slice, whatever the backing store.
    pub fn as_slice(&self) -> &[u32] {
        match self {
            U32Buf::Owned(v) => v,
            U32Buf::Mapped {
                storage,
                byte_offset,
                len,
            } => {
                let bytes = storage.as_bytes();
                // SAFETY: construction checked little-endianness, 4-byte
                // alignment of base + byte_offset, and that
                // byte_offset + 4·len is in bounds; u32 has no invalid
                // bit patterns; the storage is immutable and outlives
                // this borrow via the Arc.
                unsafe {
                    std::slice::from_raw_parts(bytes.as_ptr().add(*byte_offset) as *const u32, *len)
                }
            }
        }
    }

    /// `words` read from `storage`: a zero-copy view when the platform
    /// and alignment allow, else an owned decode (identical contents).
    /// Words read from any other slice are always decoded into an owned
    /// buffer.
    pub fn from_words(storage: &Arc<Storage>, words: Words<'_>) -> Self {
        words
            .offset_in(storage.as_bytes())
            .and_then(|offset| Self::mapped(storage, offset, words.len()))
            .unwrap_or_else(|| words.to_u32s().into())
    }

    /// Whether this buffer borrows from a mapped file.
    pub fn is_mapped(&self) -> bool {
        matches!(self, U32Buf::Mapped { storage, .. } if storage.is_mapped())
    }
}

impl std::fmt::Debug for U32Buf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            U32Buf::Owned(v) => write!(f, "U32Buf::Owned(len = {})", v.len()),
            U32Buf::Mapped { len, .. } => write!(f, "U32Buf::Mapped(len = {len})"),
        }
    }
}

impl From<Vec<u32>> for U32Buf {
    fn from(v: Vec<u32>) -> Self {
        U32Buf::Owned(v)
    }
}

/// An `f32` sequence that either owns its elements or borrows them from a
/// shared [`Storage`] — the building block of mapped embedding tables in
/// `bns-serve`. Same zero-copy preconditions as [`U32Buf`] (`f32` and
/// `u32` share size, alignment, and the every-bit-pattern-valid property).
#[derive(Clone)]
pub enum F32Buf {
    /// Heap-owned elements.
    Owned(Vec<f32>),
    /// A zero-copy window into a shared storage blob.
    Mapped {
        /// The backing blob, kept alive by this view.
        storage: Arc<Storage>,
        /// Byte offset of the first element (4-byte aligned).
        byte_offset: usize,
        /// Number of `f32` elements.
        len: usize,
    },
}

impl F32Buf {
    /// Builds a mapped view after checking the zero-copy preconditions;
    /// `None` when the platform or alignment disqualifies it.
    pub fn mapped(storage: &Arc<Storage>, byte_offset: usize, len: usize) -> Option<Self> {
        let bytes = storage.as_bytes();
        let end = byte_offset.checked_add(len.checked_mul(4)?)?;
        if end > bytes.len() || !zero_copy_eligible(storage, byte_offset) {
            return None;
        }
        Some(F32Buf::Mapped {
            storage: Arc::clone(storage),
            byte_offset,
            len,
        })
    }

    /// The elements as a slice, whatever the backing store.
    pub fn as_slice(&self) -> &[f32] {
        match self {
            F32Buf::Owned(v) => v,
            F32Buf::Mapped {
                storage,
                byte_offset,
                len,
            } => {
                let bytes = storage.as_bytes();
                // SAFETY: same invariants as `U32Buf::as_slice` — bounds,
                // alignment and endianness were checked at construction,
                // every bit pattern is a valid f32, and the Arc keeps the
                // immutable storage alive for the borrow.
                unsafe {
                    std::slice::from_raw_parts(bytes.as_ptr().add(*byte_offset) as *const f32, *len)
                }
            }
        }
    }

    /// `words` read from `storage`: a zero-copy view when the platform
    /// and alignment allow, else an owned decode (identical bit patterns).
    /// Words read from any other slice are always decoded into an owned
    /// buffer.
    pub fn from_words(storage: &Arc<Storage>, words: Words<'_>) -> Self {
        words
            .offset_in(storage.as_bytes())
            .and_then(|offset| Self::mapped(storage, offset, words.len()))
            .unwrap_or_else(|| words.to_f32s().into())
    }

    /// Whether this buffer borrows from a mapped file.
    pub fn is_mapped(&self) -> bool {
        matches!(self, F32Buf::Mapped { storage, .. } if storage.is_mapped())
    }
}

impl std::fmt::Debug for F32Buf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            F32Buf::Owned(v) => write!(f, "F32Buf::Owned(len = {})", v.len()),
            F32Buf::Mapped { len, .. } => write!(f, "F32Buf::Mapped(len = {len})"),
        }
    }
}

impl From<Vec<f32>> for F32Buf {
    fn from(v: Vec<f32>) -> Self {
        F32Buf::Owned(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("bns_storage_{}_{name}", std::process::id()))
    }

    #[test]
    fn map_and_read_agree() {
        let path = temp("agree.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::write(&path, &payload).unwrap();
        let read = Storage::read(&path).unwrap();
        let mapped = Storage::map(&path).unwrap();
        assert_eq!(read.as_bytes(), payload.as_slice());
        assert_eq!(mapped.as_bytes(), payload.as_slice());
        assert!(!read.is_mapped());
        #[cfg(unix)]
        assert!(mapped.is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_to_empty_owned() {
        let path = temp("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let mapped = Storage::map(&path).unwrap();
        assert!(mapped.as_bytes().is_empty());
        assert!(!mapped.is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(Storage::map(&temp("definitely_missing.bin")).is_err());
        assert!(Storage::read(&temp("definitely_missing.bin")).is_err());
    }

    #[test]
    fn mapped_u32_view_round_trips() {
        let path = temp("u32view.bin");
        let values: Vec<u32> = (0..2_000u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let mut bytes = Vec::with_capacity(values.len() * 4);
        for v in &values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        let storage = Arc::new(Storage::map(&path).unwrap());
        let view = U32Buf::mapped(&storage, 0, values.len()).expect("aligned LE view");
        assert_eq!(view.as_slice(), values.as_slice());
        // A 4-byte-offset window skips the first element.
        let shifted = U32Buf::mapped(&storage, 4, values.len() - 1).expect("aligned");
        assert_eq!(shifted.as_slice(), &values[1..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn misaligned_or_out_of_bounds_views_are_refused() {
        let storage = Arc::new(Storage::Owned(vec![0u8; 64]));
        if cfg!(target_endian = "little") {
            // The storage base is heap-aligned; +1 cannot be 4-aligned.
            let base = storage.as_bytes().as_ptr() as usize;
            let misaligned_offset = (4 - base % 4) % 4 + 1;
            assert!(U32Buf::mapped(&storage, misaligned_offset, 4).is_none());
        }
        assert!(
            U32Buf::mapped(&storage, 0, 17).is_none(),
            "64 bytes < 17 u32"
        );
        assert!(U32Buf::mapped(&storage, usize::MAX, 1).is_none());
        assert!(U32Buf::mapped(&storage, 0, usize::MAX).is_none());
    }

    #[test]
    fn mapped_f32_view_round_trips() {
        let path = temp("f32view.bin");
        let values: Vec<f32> = (0..512).map(|i| (i as f32).sin()).collect();
        let mut bytes = Vec::with_capacity(values.len() * 4);
        for v in &values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        let storage = Arc::new(Storage::map(&path).unwrap());
        let view = F32Buf::mapped(&storage, 0, values.len()).expect("aligned LE view");
        assert_eq!(view.as_slice(), values.as_slice());
        assert!(view.is_mapped() == storage.is_mapped());
        assert!(F32Buf::mapped(&storage, 0, values.len() + 1).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn words_from_another_slice_decode_their_own_bytes() {
        let word_bytes =
            |vals: &[u32]| -> Vec<u8> { vals.iter().flat_map(|v| v.to_le_bytes()).collect() };
        let storage = Arc::new(Storage::Owned(word_bytes(&[1, 2, 3, 4])));
        let own = storage.as_bytes();
        let view = U32Buf::from_words(&storage, crate::le::Reader::new(own).words(4, "w").unwrap());
        assert_eq!(view.as_slice(), &[1, 2, 3, 4]);

        let other = word_bytes(&[9, 8, 7, 6]);
        let words = crate::le::Reader::new(&other).words(4, "w").unwrap();
        let u = U32Buf::from_words(&storage, words);
        assert!(matches!(u, U32Buf::Owned(_)));
        assert_eq!(u.as_slice(), &[9, 8, 7, 6]);
        let f = F32Buf::from_words(&storage, words);
        assert!(matches!(f, F32Buf::Owned(_)));
        assert_eq!(f.as_slice()[0].to_bits(), 9);
    }

    #[test]
    fn mapped_view_keeps_storage_alive() {
        let path = temp("alive.bin");
        std::fs::write(&path, 7u32.to_le_bytes()).unwrap();
        let storage = Arc::new(Storage::map(&path).unwrap());
        let view = U32Buf::mapped(&storage, 0, 1);
        drop(storage);
        if let Some(view) = view {
            assert_eq!(view.as_slice(), &[7]);
        }
        std::fs::remove_file(&path).ok();
    }
}
