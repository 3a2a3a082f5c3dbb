//! Pins the model decoder's memory property: nothing the size of the
//! *announced* model is allocated on a blob's say-so. A correctly sealed
//! blob whose config block claims `hidden_dim = 1 << 30` (a 12 EiB
//! recurrent matrix) is refused having held at most a small multiple of
//! the blob's own length. And an honest blob loads holding one store of
//! values, nothing more: its parameters are claimed by the model's
//! constructor as decoded, and a store holds no gradient buffers. The
//! decode peaks at 1.12x the blob (bound 1.25x): a second buffer per
//! parameter, a gradient or a second model's value, would read 2x.
//!
//! The counting allocator is process-wide, so this file holds exactly one
//! test: nothing else allocates while the decode is measured.

mod counting;

use causaltad::{model_from_bytes, model_to_bytes, CausalTad, CausalTadConfig, ModelCodecError};
use tad_codec::{seal_envelope, ENVELOPE_HEADER_LEN};
use tad_trajsim::{generate_city, CityConfig};

#[test]
fn model_decode_allocates_by_the_blob_not_by_its_announced_dimensions() {
    let city = generate_city(&CityConfig::test_scale(205));
    let mut model = CausalTad::new(&city.net, CausalTadConfig::test_scale());
    model.precompute_scaling();
    let honest = model_to_bytes(&model);

    // Config block: vocab, embed_dim, hidden_dim, ... as u32s. Re-sealed,
    // so the checksum is valid and only the dimension check can refuse it.
    let mut payload = honest[ENVELOPE_HEADER_LEN..honest.len() - 8].to_vec();
    payload[8..12].copy_from_slice(&(1u32 << 30).to_le_bytes());
    let hostile = seal_envelope(b"TADW", 2, payload.into());
    let len = hostile.len();

    let (refused, extra) = counting::peak_growth(|| model_from_bytes(&city.net, hostile).err());
    assert_eq!(refused, Some(ModelCodecError::BadParams));
    assert!(extra <= 16 * len, "peak heap grew {extra} B refusing a {len} B blob");
    assert!(extra >= len / 2, "the allocator is counting: {extra} B");

    // The control: the blob it was made from differs in that one field
    // and loads, holding the values once: no second store, no gradients.
    let len = honest.len();
    let (loaded, extra) = counting::peak_growth(|| model_from_bytes(&city.net, honest));
    assert!(loaded.is_ok());
    eprintln!("honest decode peaked at {:.3}x the blob", extra as f64 / len as f64);
    assert!(4 * extra <= 5 * len, "peak heap grew {extra} B loading a {len} B blob");
}
