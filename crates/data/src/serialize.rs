//! Binary serialization of interaction data.
//!
//! A tiny, versioned little-endian format, used to cache generated
//! datasets between harness runs (generating the 1M-scale synthetic
//! dataset takes noticeably longer than loading its cached form).
//!
//! Layout:
//! ```text
//! magic  u32  = 0x424E5331 ("BNS1")
//! n_users u32
//! n_items u32
//! n_offsets u64, then offsets as u32 LE
//! n_items_arr u64, then items as u32 LE
//! ```
//!
//! Both `u32` arrays start at 4-byte-aligned file offsets (20 and
//! `28 + 4·n_offsets`), which is what lets [`map_interactions`] hand out
//! CSR views directly over the mapped file with no copy and no
//! per-element decode loop. Every decode — buffered or mapped — goes
//! through the one [`decode_interactions_storage`], which reads through
//! the checked [`crate::le::Reader`], so malformed input is a typed
//! [`DataError::Invalid`], never a panic.

use crate::interactions::Interactions;
use crate::le::Reader;
use crate::storage::{Storage, U32Buf};
use crate::{DataError, Result};
use std::sync::Arc;

/// Format magic — "BNS1".
const MAGIC: u32 = 0x424E_5331;

/// Encodes interactions into a self-describing binary buffer.
pub fn encode_interactions(x: &Interactions) -> Vec<u8> {
    let (n_users, n_items, offsets, items) = x.csr_parts();
    let mut buf = Vec::with_capacity(28 + 4 * (offsets.len() + items.len()));
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&n_users.to_le_bytes());
    buf.extend_from_slice(&n_items.to_le_bytes());
    for array in [offsets, items] {
        buf.extend_from_slice(&(array.len() as u64).to_le_bytes());
        for &v in array {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    buf
}

/// Decodes a buffer produced by [`encode_interactions`], re-validating all
/// CSR invariants.
pub fn decode_interactions(buf: &[u8]) -> Result<Interactions> {
    decode_whole(Storage::Owned(buf.to_vec()))
}

/// Writes interactions to a file.
pub fn save_interactions(x: &Interactions, path: &std::path::Path) -> Result<()> {
    std::fs::write(path, encode_interactions(x))?;
    Ok(())
}

/// Reads interactions from a file through the buffered path (one full
/// read into owned memory).
pub fn load_interactions(path: &std::path::Path) -> Result<Interactions> {
    decode_whole(Storage::read(path)?)
}

/// Loads interactions zero-copy: the file is memory-mapped and the CSR
/// arrays are aligned views straight into the mapping — no read pass, no
/// copy, no per-element decode. All CSR invariants are still validated
/// over the views; if the platform disqualifies zero-copy (big-endian or
/// an unaligned base) this silently degrades to an owned decode of the
/// mapped bytes, so the result is identical either way.
pub fn map_interactions(path: &std::path::Path) -> Result<Interactions> {
    decode_whole(Storage::map(path)?)
}

/// Decodes a blob that holds exactly one `BNS1` payload.
fn decode_whole(storage: Storage) -> Result<Interactions> {
    let len = storage.as_bytes().len();
    decode_interactions_storage(&Arc::new(storage), 0, len)
}

/// Decodes a `BNS1` region embedded in a shared [`Storage`] blob at
/// `[start, start + len)`, preferring zero-copy views. This is the one
/// decoder behind every load path here, also driven by `bns-serve` for the
/// CSR sections of model artifacts.
pub fn decode_interactions_storage(
    storage: &Arc<Storage>,
    start: usize,
    len: usize,
) -> Result<Interactions> {
    let mut r = Reader::window(storage.as_bytes(), start, len, "interaction region")?;
    let magic = r.u32("magic")?;
    if magic != MAGIC {
        return Err(DataError::Invalid(format!(
            "bad magic 0x{magic:08X}, expected 0x{MAGIC:08X}"
        )));
    }
    let n_users = r.u32("header")?;
    let n_items = r.u32("header")?;
    let n_offsets = r.u64_len("offsets length")?;
    let offsets = r.words(n_offsets, "offsets")?;
    let n_arr = r.u64_len("items length")?;
    let items = r.words(n_arr, "items")?;
    if r.remaining() != 0 {
        return Err(DataError::Invalid("trailing bytes after payload".into()));
    }
    Interactions::from_csr_views(
        n_users,
        n_items,
        U32Buf::from_words(storage, offsets),
        U32Buf::from_words(storage, items),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Interactions {
        Interactions::from_pairs(3, 5, &[(0, 1), (0, 3), (1, 0), (2, 4)]).unwrap()
    }

    #[test]
    fn round_trip() {
        let x = sample();
        let buf = encode_interactions(&x);
        let y = decode_interactions(&buf).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn empty_interactions_round_trip() {
        let x = Interactions::from_pairs(2, 2, &[]).unwrap();
        let y = decode_interactions(&encode_interactions(&x)).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = encode_interactions(&sample());
        buf[0] ^= 0xFF;
        assert!(decode_interactions(&buf).is_err());
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let buf = encode_interactions(&sample());
        for cut in 0..buf.len() {
            assert!(
                decode_interactions(&buf[..cut]).is_err(),
                "truncation at {cut} was accepted"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut buf = encode_interactions(&sample());
        buf.push(0);
        assert!(decode_interactions(&buf).is_err());
    }

    #[test]
    fn rejects_corrupted_payload() {
        // Corrupt an item id to be out of range.
        let x = sample();
        let mut buf = encode_interactions(&x);
        let last = buf.len() - 4;
        buf[last..].copy_from_slice(&1000u32.to_le_bytes());
        assert!(decode_interactions(&buf).is_err());
    }

    #[test]
    fn every_byte_flip_decodes_or_errs_alike_on_both_paths() {
        // Flip every single bit, and every whole byte, of the encoding. The
        // buffered and the mapped decoder must each return `Ok` or a typed
        // `Err` without panicking, and must agree on which.
        let buf = encode_interactions(&sample());
        let path =
            std::env::temp_dir().join(format!("bns_serialize_flip_{}.bin", std::process::id()));
        for pos in 0..buf.len() {
            for mask in [0x01u8, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF] {
                let mut corrupt = buf.clone();
                corrupt[pos] ^= mask;
                let buffered = decode_interactions(&corrupt);
                std::fs::write(&path, &corrupt).unwrap();
                let mapped = map_interactions(&path);
                match (&buffered, &mapped) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "paths disagree at {pos} ^ {mask:#04x}"),
                    (Err(DataError::Invalid(_)), Err(DataError::Invalid(_))) => {}
                    _ => panic!("flip {pos} ^ {mask:#04x}: {buffered:?} vs {mapped:?}"),
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_round_trip() {
        let x = sample();
        let path = std::env::temp_dir().join("bns_serialize_test.bin");
        save_interactions(&x, &path).unwrap();
        let y = load_interactions(&path).unwrap();
        assert_eq!(x, y);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_load_agrees_with_buffered_load() {
        let x = sample();
        let path =
            std::env::temp_dir().join(format!("bns_serialize_map_{}.bin", std::process::id()));
        save_interactions(&x, &path).unwrap();
        let buffered = load_interactions(&path).unwrap();
        let mapped = map_interactions(&path).unwrap();
        assert_eq!(buffered, mapped);
        assert!(!buffered.is_mapped(), "a buffered load owns its bytes");
        #[cfg(all(unix, target_endian = "little"))]
        assert!(
            mapped.is_mapped(),
            "unix LE load must take the zero-copy path"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_load_rejects_every_truncation() {
        let x = sample();
        let buf = encode_interactions(&x);
        let path =
            std::env::temp_dir().join(format!("bns_serialize_trunc_{}.bin", std::process::id()));
        for cut in 0..buf.len() {
            std::fs::write(&path, &buf[..cut]).unwrap();
            assert!(
                map_interactions(&path).is_err(),
                "mapped truncation at {cut} was accepted"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_load_rejects_corrupt_payload() {
        let x = sample();
        let mut buf = encode_interactions(&x);
        let last = buf.len() - 4;
        buf[last..].copy_from_slice(&1000u32.to_le_bytes());
        let path =
            std::env::temp_dir().join(format!("bns_serialize_corrupt_{}.bin", std::process::id()));
        std::fs::write(&path, &buf).unwrap();
        assert!(map_interactions(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn storage_region_decode_honours_offsets() {
        // Embed the payload at a 4-aligned offset inside a larger blob, as
        // the serve artifact does, and decode just that region.
        let x = sample();
        let payload = encode_interactions(&x);
        let mut blob = vec![0xAAu8; 64];
        blob.extend_from_slice(&payload);
        let storage = Arc::new(Storage::Owned(blob));
        let y = decode_interactions_storage(&storage, 64, payload.len()).unwrap();
        assert_eq!(x, y);
        // A region that runs past the blob is an error, not a panic.
        assert!(decode_interactions_storage(&storage, 64, payload.len() + 1).is_err());
        assert!(decode_interactions_storage(&storage, usize::MAX, 4).is_err());
    }
}
