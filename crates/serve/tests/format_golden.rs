//! Byte-stability pins for the two on-disk formats: a fixed `BNS1`
//! interaction buffer and a fixed v3 model artifact (with its IVF index
//! section) must encode to exactly the bytes they always have. The golden
//! digests were captured from the encoders before their byte-writing code
//! was last rewritten; any change to either format's bytes fails here.

use bns_data::serialize::encode_interactions;
use bns_data::synthetic::{generate, SyntheticConfig};
use bns_data::Interactions;
use bns_model::MatrixFactorization;
use bns_serve::artifact::fnv1a64;
use bns_serve::{IvfConfig, ModelArtifact};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn seen() -> Interactions {
    let pairs: Vec<(u32, u32)> = (0..5u32)
        .flat_map(|u| [(u, u), (u, u + 11), (u, 39 - u)])
        .collect();
    Interactions::from_pairs(5, 40, &pairs).unwrap()
}

#[test]
fn interaction_encoding_is_byte_stable() {
    let buf = encode_interactions(&seen());
    assert_eq!(buf.len(), 4 + 4 + 4 + 8 + 4 * 6 + 8 + 4 * 15);
    assert_eq!(fnv1a64(&buf), 0x45EF_7357_B4F6_EF36, "BNS1 bytes changed");
}

#[test]
fn generated_dataset_encoding_is_byte_stable() {
    let data = generate(&SyntheticConfig::default()).unwrap();
    let buf = encode_interactions(&data.interactions);
    assert_eq!(fnv1a64(&buf), 0xDA9A_3E4A_CF52_6CA1, "BNS1 bytes changed");
}

#[test]
fn indexed_artifact_encoding_is_byte_stable() {
    let mut rng = StdRng::seed_from_u64(101);
    let model = MatrixFactorization::new(5, 40, 4, 0.1, &mut rng).unwrap();
    let artifact = ModelArtifact::freeze_with(&model, &seen(), Some(IvfConfig::default())).unwrap();
    assert!(
        artifact.index().is_some(),
        "the v3 index section is covered"
    );
    let buf = artifact.encode();
    assert_eq!(
        fnv1a64(&buf),
        0xC7DA_9237_A635_A6A7,
        "artifact bytes changed"
    );
}
