//! Binary persistence for trajectory datasets: the `TADT` format.
//!
//! One checksummed [`tad_codec::envelope`] (magic `TADT`, version 2) whose
//! little-endian payload is:
//!
//! ```text
//! 5 x split:  u32 count, count x trajectory
//! trajectory: u8 label, u8 time_slot, u32 len, len x u32 segment id
//! ```
//!
//! Version 1 carried the same payload behind a bare magic + version with
//! no checksum; it is refused as [`DataCodecError::BadVersion`].

use bytes::{BufMut, Bytes, BytesMut};
use tad_codec::{envelope_payload, seal_envelope, Reader};
use tad_roadnet::SegmentId;

use crate::dataset::{CityDatasets, Label, Trajectory};

const MAGIC: &[u8; 4] = b"TADT";
const VERSION: u16 = 2;

/// Errors produced when decoding serialized datasets.
#[derive(Debug, PartialEq, Eq)]
pub enum DataCodecError {
    /// Magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Input ended before the named field could be read.
    Truncated(&'static str),
    /// The payload checksum did not match (bit rot or tampering).
    ChecksumMismatch,
    /// The payload parsed but violated a structural invariant.
    Malformed(&'static str),
    /// Unknown label byte.
    BadLabel(u8),
}

impl std::fmt::Display for DataCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataCodecError::BadMagic => write!(f, "bad magic bytes"),
            DataCodecError::BadVersion(v) => write!(f, "unsupported version {v}"),
            DataCodecError::Truncated(what) => write!(f, "truncated input at {what}"),
            DataCodecError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            DataCodecError::Malformed(what) => write!(f, "malformed datasets: {what}"),
            DataCodecError::BadLabel(l) => write!(f, "unknown label {l}"),
        }
    }
}

impl std::error::Error for DataCodecError {}

tad_codec::codec_error_from!(DataCodecError);

/// Serialises all five splits of a city's datasets.
pub fn datasets_to_bytes(data: &CityDatasets) -> Bytes {
    let mut buf = BytesMut::with_capacity(1024);
    for split in [&data.train, &data.test_id, &data.test_ood, &data.detour, &data.switch] {
        put_split(&mut buf, split);
    }
    seal_envelope(MAGIC, VERSION, buf.freeze())
}

/// Deserialises datasets written by [`datasets_to_bytes`]. The whole input
/// must be one `TADT` blob; decoding never panics, whatever the input.
///
/// # Errors
/// Returns the [`DataCodecError`] naming what failed: wrong magic or
/// version, a truncation point, a checksum mismatch, trailing bytes, or an
/// unknown label.
pub fn datasets_from_bytes(bytes: Bytes) -> Result<CityDatasets, DataCodecError> {
    let payload = envelope_payload(MAGIC, VERSION, &bytes)?;
    let mut r = Reader::new(payload);
    let data = CityDatasets {
        train: get_split(&mut r)?,
        test_id: get_split(&mut r)?,
        test_ood: get_split(&mut r)?,
        detour: get_split(&mut r)?,
        switch: get_split(&mut r)?,
    };
    r.finish()?;
    Ok(data)
}

fn put_split(buf: &mut BytesMut, split: &[Trajectory]) {
    buf.put_u32_le(split.len() as u32);
    for t in split {
        buf.put_u8(t.label.as_u8());
        buf.put_u8(t.time_slot);
        buf.put_u32_le(t.segments.len() as u32);
        for s in &t.segments {
            buf.put_u32_le(s.0);
        }
    }
}

fn get_split(r: &mut Reader) -> Result<Vec<Trajectory>, DataCodecError> {
    // Smallest trajectory record: label, time slot, zero segments.
    r.seq(1 + 1 + 4, "trajectories", |r, _| {
        let label = r.u8("label")?;
        let label = Label::from_u8(label).ok_or(DataCodecError::BadLabel(label))?;
        let time_slot = r.u8("time slot")?;
        let segments = r.seq(4, "segments", |r, _| r.u32("segments").map(SegmentId))?;
        Ok(Trajectory { segments, time_slot, label })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_city, CityConfig};

    #[test]
    fn roundtrip_preserves_all_splits() {
        let city = generate_city(&CityConfig::test_scale(12));
        let restored = datasets_from_bytes(datasets_to_bytes(&city.data)).unwrap();
        assert_eq!(restored.train, city.data.train);
        assert_eq!(restored.test_id, city.data.test_id);
        assert_eq!(restored.test_ood, city.data.test_ood);
        assert_eq!(restored.detour, city.data.detour);
        assert_eq!(restored.switch, city.data.switch);
    }

    #[test]
    fn truncation_detected() {
        let city = generate_city(&CityConfig::test_scale(13));
        let data = datasets_to_bytes(&city.data);
        let cut = data.slice(0..data.len() / 2);
        assert!(matches!(datasets_from_bytes(cut), Err(DataCodecError::Truncated(_))));
    }

    #[test]
    fn bad_magic_detected() {
        let mut raw = datasets_to_bytes(&CityDatasets::default()).to_vec();
        raw[2] = b'!';
        assert!(matches!(datasets_from_bytes(Bytes::from(raw)), Err(DataCodecError::BadMagic)));
    }

    #[test]
    fn version_1_and_flipped_payload_bits_are_typed() {
        let mut raw = datasets_to_bytes(&CityDatasets::default()).to_vec();
        raw[4] = 1;
        assert_eq!(datasets_from_bytes(raw.into()).err(), Some(DataCodecError::BadVersion(1)));
        let mut raw = datasets_to_bytes(&CityDatasets::default()).to_vec();
        raw[tad_codec::ENVELOPE_HEADER_LEN] ^= 1;
        assert_eq!(datasets_from_bytes(raw.into()).err(), Some(DataCodecError::ChecksumMismatch));
    }

    #[test]
    fn empty_datasets_roundtrip() {
        let empty = CityDatasets::default();
        let restored = datasets_from_bytes(datasets_to_bytes(&empty)).unwrap();
        assert!(restored.train.is_empty() && restored.switch.is_empty());
    }
}
