//! Byte-stability pins for the two on-disk formats and the wire protocol:
//! a fixed `BNS1` interaction buffer, a fixed v3 model artifact (with its
//! IVF index section) and one request, ping and response frame must
//! encode to exactly the bytes they always have. The golden digests and
//! frame bytes were captured from the encoders before their byte-handling
//! code was last rewritten; any change to a format's bytes fails here.

use bns_data::serialize::encode_interactions;
use bns_data::synthetic::{generate, SyntheticConfig};
use bns_data::Interactions;
use bns_model::MatrixFactorization;
use bns_serve::artifact::fnv1a64;
use bns_serve::proto::{ModeRequest, RequestFrame, ResponseFrame};
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

#[test]
fn wire_frames_are_byte_stable() {
    let topk = RequestFrame::TopK {
        user: 0x0102_0304,
        k: 10,
        exclude_seen: true,
        mode: ModeRequest::Ivf,
    };
    let ping = RequestFrame::Ping;
    let ok = ResponseFrame::ok(0x1122_3344_5566_7788, vec![7, 0xDEAD_BEEF, 42]);
    #[rustfmt::skip]
    let golden: [(&[u8], Vec<u8>); 3] = [
        (&[0x08, 0, 0, 0, 0x95, 0x1F, 0xAA, 0x26,
           0x01, 0x04, 0x03, 0x02, 0x01, 0x0A, 0x00, 0x05], topk.encode()),
        (&[0x01, 0, 0, 0, 0x45, 0xBB, 0x01, 0x86,
           0x02], ping.encode()),
        (&[0x17, 0, 0, 0, 0x2F, 0x99, 0xF3, 0xB1,
           0x00, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, 0x03, 0x00,
           0x07, 0, 0, 0, 0xEF, 0xBE, 0xAD, 0xDE, 0x2A, 0, 0, 0], ok.encode()),
    ];
    for (want, got) in &golden {
        assert_eq!(&got[..], *want, "wire frame bytes changed");
    }
    assert_eq!(RequestFrame::decode(&golden[0].1), Ok(topk));
    assert_eq!(RequestFrame::decode(&golden[1].1), Ok(ping));
    assert_eq!(ResponseFrame::decode(&golden[2].1), Ok(ok));
}
