//! Artifact integrity suite: every corruption class is rejected with the
//! right **typed** error — through the buffered *and* the mmap-backed
//! zero-copy load path — and save → load → score is bitwise identical to
//! the live model for both freezable scorers.

use bns_data::Interactions;
use bns_model::{LightGcn, MatrixFactorization, Scorer, SnapshotKind, SnapshotScorer};
use bns_serve::artifact::{fnv1a64, fnv1a64_words, MAGIC, VERSION};
use bns_serve::{IndexMode, IvfConfig, ModelArtifact, QueryEngine, ServeError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fixture() -> (MatrixFactorization, Interactions) {
    let mut rng = StdRng::seed_from_u64(99);
    let model = MatrixFactorization::new(5, 9, 8, 0.1, &mut rng).unwrap();
    let seen = Interactions::from_pairs(
        5,
        9,
        &[(0, 0), (0, 4), (1, 2), (2, 8), (3, 1), (3, 7), (4, 5)],
    )
    .unwrap();
    (model, seen)
}

fn encoded() -> Vec<u8> {
    let (model, seen) = fixture();
    ModelArtifact::freeze(&model, &seen).unwrap().encode()
}

/// A fixture big enough to carry a forced IVF index but small enough for
/// exhaustive byte-flip sweeps over the full encoding.
fn indexed_fixture() -> (MatrixFactorization, Interactions) {
    let mut rng = StdRng::seed_from_u64(101);
    let model = MatrixFactorization::new(5, 40, 4, 0.1, &mut rng).unwrap();
    let pairs: Vec<(u32, u32)> = (0..5u32).flat_map(|u| [(u, u), (u, u + 11)]).collect();
    let seen = Interactions::from_pairs(5, 40, &pairs).unwrap();
    (model, seen)
}

fn encoded_indexed() -> Vec<u8> {
    let (model, seen) = indexed_fixture();
    ModelArtifact::freeze_with(&model, &seen, Some(IvfConfig::default()))
        .unwrap()
        .encode()
}

/// Footer length in bytes, read from the artifact's own footer fields.
fn footer_len(buf: &[u8]) -> usize {
    let n = buf.len();
    let n_chunks = u64::from_le_bytes(buf[n - 16..n - 8].try_into().unwrap()) as usize;
    24 + 8 * n_chunks
}

/// Re-stamps the v2 chunked footer (per-chunk digests + footer checksum)
/// after a deliberate payload mutation, so tests can reach the validation
/// layers *behind* the checksums.
fn restamp(buf: &mut [u8]) {
    let n = buf.len();
    let n_chunks = u64::from_le_bytes(buf[n - 16..n - 8].try_into().unwrap()) as usize;
    let chunk_size = u64::from_le_bytes(buf[n - 24..n - 16].try_into().unwrap()) as usize;
    let digest_start = n - 24 - 8 * n_chunks;
    for (idx, at) in (0..n_chunks).map(|i| (i, digest_start + 8 * i)) {
        let lo = idx * chunk_size;
        let hi = (lo + chunk_size).min(digest_start);
        let digest = fnv1a64_words(&buf[lo..hi]);
        buf[at..at + 8].copy_from_slice(&digest.to_le_bytes());
    }
    let footer_sum = fnv1a64_words(&buf[digest_start..n - 8]);
    buf[n - 8..].copy_from_slice(&footer_sum.to_le_bytes());
}

/// Round-trips `buf` through a temp file and the mmap-backed load path.
fn load_mapped_bytes(buf: &[u8], tag: &str) -> Result<ModelArtifact, ServeError> {
    let path =
        std::env::temp_dir().join(format!("bns_integrity_{tag}_{}.bnsa", std::process::id()));
    std::fs::write(&path, buf).unwrap();
    let out = ModelArtifact::load_mapped(&path);
    std::fs::remove_file(&path).ok();
    out
}

#[test]
fn bad_magic_is_typed() {
    let mut buf = encoded();
    buf[0] ^= 0xFF;
    restamp(&mut buf);
    match ModelArtifact::decode(&buf) {
        Err(ServeError::BadMagic { found }) => assert_ne!(found, MAGIC),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn future_version_is_typed() {
    let mut buf = encoded();
    buf[4..8].copy_from_slice(&(VERSION + 1).to_le_bytes());
    restamp(&mut buf);
    match ModelArtifact::decode(&buf) {
        Err(ServeError::UnsupportedVersion { found }) => assert_eq!(found, VERSION + 1),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn v1_artifact_is_rejected_with_the_typed_version_error() {
    // Reconstruct the retired v1 shape: version = 1, single byte-FNV
    // trailing checksum instead of the chunked footer. The version gate
    // must reject it *before* any checksum interpretation.
    let mut buf = encoded();
    let flen = footer_len(&buf);
    let payload_end = buf.len() - flen;
    buf.truncate(payload_end);
    buf[4..8].copy_from_slice(&1u32.to_le_bytes());
    let sum = fnv1a64(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    for result in [ModelArtifact::decode(&buf), load_mapped_bytes(&buf, "v1")] {
        match result {
            Err(ServeError::UnsupportedVersion { found }) => assert_eq!(found, 1),
            other => panic!("expected UnsupportedVersion {{ found: 1 }}, got {other:?}"),
        }
    }
}

#[test]
fn unknown_snapshot_kind_is_rejected() {
    // 7 was never assigned; 1 is a retired tag that must not alias to a
    // live kind.
    for tag in [7u32, 1] {
        let mut buf = encoded();
        buf[8..12].copy_from_slice(&tag.to_le_bytes());
        restamp(&mut buf);
        match ModelArtifact::decode(&buf) {
            Err(ServeError::Invalid(msg)) => {
                assert_eq!(msg, format!("unknown snapshot kind tag {tag}"))
            }
            other => panic!("tag {tag}: expected Invalid, got {other:?}"),
        }
    }
}

#[test]
fn every_single_byte_flip_is_rejected() {
    // Without re-stamping, any payload flip must trip a chunk digest (and
    // header flips their own typed error); a footer flip corrupts the
    // digest table or the footer checksum itself.
    let buf = encoded();
    for pos in 0..buf.len() {
        let mut corrupt = buf.clone();
        corrupt[pos] ^= 0x01;
        assert!(
            ModelArtifact::decode(&corrupt).is_err(),
            "flip at byte {pos} was accepted"
        );
    }
}

#[test]
fn every_single_byte_flip_is_rejected_by_the_mapped_path() {
    let buf = encoded();
    for pos in 0..buf.len() {
        let mut corrupt = buf.clone();
        corrupt[pos] ^= 0x01;
        assert!(
            load_mapped_bytes(&corrupt, "flip").is_err(),
            "mapped flip at byte {pos} was accepted"
        );
    }
}

#[test]
fn truncation_at_every_length_is_rejected() {
    let buf = encoded();
    for cut in 0..buf.len() {
        let err = ModelArtifact::decode(&buf[..cut]).expect_err("truncation accepted");
        assert!(
            matches!(
                err,
                ServeError::Truncated { .. }
                    | ServeError::ChecksumMismatch { .. }
                    | ServeError::ChunkChecksumMismatch { .. }
                    | ServeError::Invalid(_)
            ),
            "cut at {cut} gave unexpected error {err:?}"
        );
    }
}

#[test]
fn truncation_at_every_length_is_rejected_by_the_mapped_path() {
    let buf = encoded();
    for cut in 0..buf.len() {
        let err = load_mapped_bytes(&buf[..cut], "trunc").expect_err("truncation accepted");
        assert!(
            matches!(
                err,
                ServeError::Truncated { .. }
                    | ServeError::ChecksumMismatch { .. }
                    | ServeError::ChunkChecksumMismatch { .. }
                    | ServeError::Invalid(_)
            ),
            "mapped cut at {cut} gave unexpected error {err:?}"
        );
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut buf = encoded();
    buf.push(0);
    assert!(ModelArtifact::decode(&buf).is_err());
}

#[test]
fn payload_corruption_reports_the_failing_chunk() {
    let mut buf = encoded();
    let mid = (buf.len() - footer_len(&buf)) / 2;
    buf[mid] ^= 0x40;
    assert!(matches!(
        ModelArtifact::decode(&buf),
        Err(ServeError::ChunkChecksumMismatch { chunk: 0, .. })
    ));
}

#[test]
fn footer_corruption_reports_checksum_mismatch() {
    // Flip a byte inside the digest table: the footer checksum must fire.
    let mut buf = encoded();
    let n = buf.len();
    let digest_start = n - footer_len(&buf);
    buf[digest_start] ^= 0x01;
    assert!(matches!(
        ModelArtifact::decode(&buf),
        Err(ServeError::ChecksumMismatch { .. })
    ));
}

#[test]
fn corrupted_seen_csr_behind_a_valid_checksum_is_rejected() {
    // Flip the last item id of the embedded CSR out of range and re-stamp:
    // the checksums pass, the CSR re-validation must still refuse it —
    // on both load paths. (The v3 payload ends with the 8-byte index_len
    // field — zero for this index-free fixture — so the CSR's last item
    // sits just before it.)
    let mut buf = encoded();
    let payload_end = buf.len() - footer_len(&buf);
    let csr_end = payload_end - 8;
    buf[csr_end - 4..csr_end].copy_from_slice(&10_000u32.to_le_bytes());
    restamp(&mut buf);
    assert!(matches!(
        ModelArtifact::decode(&buf),
        Err(ServeError::Invalid(_))
    ));
    assert!(matches!(
        load_mapped_bytes(&buf, "csr"),
        Err(ServeError::Invalid(_))
    ));
}

#[test]
fn every_single_byte_flip_in_an_indexed_artifact_is_rejected() {
    // The v3 index section sits inside the digested payload, so flips in
    // centroids, radii, offsets or the permutation must all trip a chunk
    // digest — on both load paths.
    let buf = encoded_indexed();
    for pos in 0..buf.len() {
        let mut corrupt = buf.clone();
        corrupt[pos] ^= 0x01;
        assert!(
            ModelArtifact::decode(&corrupt).is_err(),
            "indexed flip at byte {pos} was accepted"
        );
        assert!(
            load_mapped_bytes(&corrupt, "ixflip").is_err(),
            "mapped indexed flip at byte {pos} was accepted"
        );
    }
}

#[test]
fn truncation_of_an_indexed_artifact_at_every_length_is_rejected() {
    let buf = encoded_indexed();
    for cut in 0..buf.len() {
        for err in [
            ModelArtifact::decode(&buf[..cut]).expect_err("truncation accepted"),
            load_mapped_bytes(&buf[..cut], "ixtrunc").expect_err("mapped truncation accepted"),
        ] {
            assert!(
                matches!(
                    err,
                    ServeError::Truncated { .. }
                        | ServeError::ChecksumMismatch { .. }
                        | ServeError::ChunkChecksumMismatch { .. }
                        | ServeError::Invalid(_)
                ),
                "indexed cut at {cut} gave unexpected error {err:?}"
            );
        }
    }
}

#[test]
fn corrupted_index_behind_a_valid_checksum_is_rejected() {
    // Duplicate the first permutation entry into the second slot and
    // re-stamp: checksums pass, the index structural validation must
    // refuse the non-permutation — on both load paths. Then the same for
    // an index row that differs from the item table.
    let mut buf = encoded_indexed();
    let payload_end = buf.len() - footer_len(&buf);
    let n_items = 40usize;
    let dim = 4usize;
    // The section ends with the perm-ordered vector rows; perm sits just
    // before them.
    let perm_at = payload_end - 4 * n_items * dim - 4 * n_items;
    let first = buf[perm_at..perm_at + 4].to_vec();
    buf[perm_at + 4..perm_at + 8].copy_from_slice(&first);
    restamp(&mut buf);
    assert!(matches!(
        ModelArtifact::decode(&buf),
        Err(ServeError::Invalid(_))
    ));
    assert!(matches!(
        load_mapped_bytes(&buf, "ixperm"),
        Err(ServeError::Invalid(_))
    ));

    // A vector row that is not its item's row (one mantissa bit off):
    // queries would rank that item by a row that is not its own.
    let mut buf = encoded_indexed();
    let vectors_at = payload_end - 4 * n_items * dim;
    buf[vectors_at] ^= 0x01;
    restamp(&mut buf);
    assert!(matches!(
        ModelArtifact::decode(&buf),
        Err(ServeError::Invalid(_))
    ));
    assert!(matches!(
        load_mapped_bytes(&buf, "ixrows"),
        Err(ServeError::Invalid(_))
    ));
}

#[test]
fn indexed_artifact_round_trips_on_both_load_paths() {
    let (model, seen) = indexed_fixture();
    let artifact = ModelArtifact::freeze_with(&model, &seen, Some(IvfConfig::default())).unwrap();
    let path = std::env::temp_dir().join(format!("bns_integrity_ix_{}.bnsa", std::process::id()));
    artifact.save(&path).unwrap();
    let buffered = ModelArtifact::load(&path).unwrap();
    let mapped = ModelArtifact::load_mapped(&path).unwrap();
    let original = artifact.index().unwrap();
    for reloaded in [&buffered, &mapped] {
        let ix = reloaded.index().expect("index section must survive");
        assert_eq!(ix.n_clusters(), original.n_clusters());
        assert_eq!(ix.perm(), original.perm());
    }
    #[cfg(all(unix, target_endian = "little"))]
    {
        assert!(
            mapped.index().unwrap().is_mapped(),
            "index must serve zero-copy from the mapping"
        );
        assert!(!buffered.is_mapped());
    }
    // And the engine serves IVF from either load path with identical
    // answers (determinism of the probe path across backings).
    let nprobe = original.default_nprobe();
    let a = QueryEngine::with_index_mode(buffered, IndexMode::Ivf { nprobe }).unwrap();
    let b = QueryEngine::with_index_mode(mapped, IndexMode::Ivf { nprobe }).unwrap();
    for u in 0..5u32 {
        assert_eq!(a.top_k(u, 10, true).unwrap(), b.top_k(u, 10, true).unwrap());
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn v2_artifacts_still_load_with_the_index_absent() {
    // Reconstruct a byte-exact v2 artifact from the v3 encoding of an
    // index-free freeze: drop the trailing index_len field, stamp version
    // 2, re-checksum. It must load on both paths, serve Exact-only, and
    // refuse IVF mode with the typed NoIndex error.
    let (model, seen) = fixture();
    let v3 = ModelArtifact::freeze_with(&model, &seen, None)
        .unwrap()
        .encode();
    let flen = footer_len(&v3);
    let payload_end = v3.len() - flen;
    // v2 payload = v3 payload minus the 8-byte index_len tail.
    let mut buf = v3[..payload_end - 8].to_vec();
    buf[4..8].copy_from_slice(&2u32.to_le_bytes());
    let n_chunks = buf.len().div_ceil(1 << 20);
    let digests: Vec<u64> = buf.chunks(1 << 20).map(fnv1a64_words).collect();
    let footer_start = buf.len();
    for d in digests {
        buf.extend_from_slice(&d.to_le_bytes());
    }
    buf.extend_from_slice(&(1u64 << 20).to_le_bytes());
    buf.extend_from_slice(&(n_chunks as u64).to_le_bytes());
    let footer_sum = fnv1a64_words(&buf[footer_start..]);
    buf.extend_from_slice(&footer_sum.to_le_bytes());

    for artifact in [
        ModelArtifact::decode(&buf).expect("v2 must still decode"),
        load_mapped_bytes(&buf, "v2").expect("v2 must still map"),
    ] {
        assert!(artifact.index().is_none(), "v2 carries no index");
        for u in 0..5u32 {
            for i in 0..9u32 {
                assert_eq!(artifact.score(u, i).to_bits(), model.score(u, i).to_bits());
            }
        }
        assert!(matches!(
            QueryEngine::with_index_mode(artifact, IndexMode::Ivf { nprobe: 1 }),
            Err(ServeError::NoIndex)
        ));
    }
}

#[test]
fn load_of_missing_file_is_io() {
    let path = std::env::temp_dir().join("bns_artifact_definitely_missing.bnsa");
    assert!(matches!(ModelArtifact::load(&path), Err(ServeError::Io(_))));
    assert!(matches!(
        ModelArtifact::load_mapped(&path),
        Err(ServeError::Io(_))
    ));
}

#[test]
fn mapped_load_scores_bitwise_like_the_buffered_load() {
    let (model, seen) = fixture();
    let artifact = ModelArtifact::freeze(&model, &seen).unwrap();
    let path =
        std::env::temp_dir().join(format!("bns_integrity_bitwise_{}.bnsa", std::process::id()));
    artifact.save(&path).unwrap();
    let buffered = ModelArtifact::load(&path).unwrap();
    let mapped = ModelArtifact::load_mapped(&path).unwrap();
    assert_eq!(buffered.seen(), mapped.seen());
    for u in 0..5u32 {
        for i in 0..9u32 {
            assert_eq!(buffered.score(u, i).to_bits(), mapped.score(u, i).to_bits());
            assert_eq!(mapped.score(u, i).to_bits(), model.score(u, i).to_bits());
        }
    }
    #[cfg(all(unix, target_endian = "little"))]
    assert!(
        mapped.is_mapped(),
        "mapped load must take the zero-copy path"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn lightgcn_freeze_round_trips_bitwise() {
    let (_, seen) = fixture();
    let mut rng = StdRng::seed_from_u64(123);
    let gcn = LightGcn::new(&seen, 8, 2, 0.1, &mut rng).unwrap();
    let artifact = ModelArtifact::freeze(&gcn, &seen).unwrap();
    assert_eq!(artifact.kind(), SnapshotKind::LightGcnPropagated);
    let reloaded = ModelArtifact::decode(&artifact.encode()).unwrap();
    let mut live = vec![0.0f32; 9];
    let mut frozen = vec![0.0f32; 9];
    for u in 0..5u32 {
        gcn.score_all(u, &mut live);
        reloaded.score_all(u, &mut frozen);
        for i in 0..9 {
            assert_eq!(frozen[i].to_bits(), live[i].to_bits());
        }
    }
}

proptest! {
    /// The acceptance property of the artifact format: for any model shape
    /// and seed, and either freezable scorer, encode → decode →
    /// `score_items` reproduces the live model's scores bit for bit — and
    /// the mmap-backed load path agrees with the buffered one.
    #[test]
    fn save_load_score_items_is_bitwise_for_all_scorers(
        n_users in 2u32..8,
        n_items in 3u32..16,
        dim in 1usize..12,
        seed in 0u64..200,
        kind in 0u32..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs: Vec<(u32, u32)> = (0..n_users)
            .flat_map(|u| {
                let a = (u * 7 + seed as u32) % n_items;
                let b = (u * 3 + 1) % n_items;
                [(u, a), (u, b)]
            })
            .collect();
        let seen = Interactions::from_pairs(n_users, n_items, &pairs).unwrap();
        let mf = MatrixFactorization::new(n_users, n_items, dim, 0.1, &mut rng).unwrap();
        let gcn;
        let live: &dyn SnapshotScorer = match kind {
            0 => &mf,
            _ => {
                gcn = LightGcn::new(&seen, dim, 1, 0.1, &mut rng).unwrap();
                &gcn
            }
        };
        let artifact = ModelArtifact::freeze(live, &seen).unwrap();
        let encoded = artifact.encode();
        let reloaded = ModelArtifact::decode(&encoded).unwrap();
        let mapped = load_mapped_bytes(&encoded, "prop").unwrap();

        let ids: Vec<u32> = (0..n_items).collect();
        let mut live_scores = vec![0.0f32; n_items as usize];
        let mut frozen_scores = vec![0.0f32; n_items as usize];
        let mut mapped_scores = vec![0.0f32; n_items as usize];
        for u in 0..n_users {
            live.score_items(u, &ids, &mut live_scores);
            reloaded.score_items(u, &ids, &mut frozen_scores);
            mapped.score_items(u, &ids, &mut mapped_scores);
            for i in 0..n_items as usize {
                prop_assert_eq!(frozen_scores[i].to_bits(), live_scores[i].to_bits());
                prop_assert_eq!(mapped_scores[i].to_bits(), live_scores[i].to_bits());
            }
        }
    }
}
