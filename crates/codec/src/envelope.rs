//! The workspace's shared binary envelope: magic + version + checksummed,
//! length-prefixed payload.
//!
//! Every persisted or wire format in this workspace wraps its payload in
//! the same envelope (ARCHITECTURE.md, "Persisted and wire formats", lists
//! them), so one pair of helpers carries the hostile-input guarantees for
//! all of them:
//!
//! * **Layout** (little-endian): 4 magic bytes, `u16` version, `u64`
//!   payload length, the payload, then a FNV-1a 64 checksum of the
//!   payload ([`checksum64`]).
//! * **Totality**: [`envelope_payload`] does checked length arithmetic on
//!   every field, so no input — truncated, bit-flipped, or with a crafted
//!   near-`u64::MAX` length — can panic the decoder. Codecs built on it
//!   inherit that guarantee for their headers.
//! * **One taxonomy per format**: failures surface as [`EnvelopeError`],
//!   which each codec converts into its own error type (see
//!   [`crate::codec_error_from!`]) so callers see a single error enum per
//!   format.

use bytes::{BufMut, Bytes, BytesMut};

/// FNV-1a 64-bit checksum used by every checksummed-envelope codec in the
/// workspace.
pub fn checksum64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Failures shared by every checksummed-envelope codec. Each codec maps
/// these into its own error type so callers see one taxonomy per format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EnvelopeError {
    /// Magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Input ended before the named field could be read.
    Truncated(&'static str),
    /// The payload checksum did not match (bit rot or tampering).
    ChecksumMismatch,
    /// Bytes followed the checksum.
    TrailingBytes,
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvelopeError::BadMagic => write!(f, "bad envelope magic bytes"),
            EnvelopeError::BadVersion(v) => write!(f, "unsupported envelope version {v}"),
            EnvelopeError::Truncated(what) => write!(f, "truncated envelope at {what}"),
            EnvelopeError::ChecksumMismatch => write!(f, "envelope payload checksum mismatch"),
            EnvelopeError::TrailingBytes => write!(f, "trailing bytes after envelope checksum"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// Byte length the envelope adds around a payload (header + checksum).
pub const ENVELOPE_OVERHEAD: usize = ENVELOPE_HEADER_LEN + 8;

/// Byte length of the fixed envelope header (magic, version, payload
/// length) — what a streaming reader must fetch before it knows how many
/// payload bytes follow.
pub const ENVELOPE_HEADER_LEN: usize = 4 + 2 + 8;

/// Wraps `payload` in the workspace's standard binary envelope
/// (little-endian): `magic`, `version` u16, u64 payload length, the
/// payload, then a FNV-1a 64 checksum of the payload.
pub fn seal_envelope(magic: &[u8; 4], version: u16, payload: Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(payload.len() + ENVELOPE_OVERHEAD);
    seal_envelope_into(magic, version, &mut buf, |buf| buf.put_slice(&payload));
    buf.freeze()
}

/// Appends one envelope to `buf` in place: the header goes down first,
/// `payload` appends the payload behind it, then the length field is
/// patched and the checksum appended — the bytes [`seal_envelope`] writes,
/// without an intermediate payload buffer. Whatever `buf` already holds
/// is left alone, so a caller can run many envelopes into one buffer and
/// allocates nothing while its capacity lasts.
pub fn seal_envelope_into(
    magic: &[u8; 4],
    version: u16,
    buf: &mut BytesMut,
    payload: impl FnOnce(&mut BytesMut),
) {
    buf.put_slice(magic);
    buf.put_u16_le(version);
    buf.put_u64_le(0);
    let body = buf.len();
    payload(buf);
    let plen = (buf.len() - body) as u64;
    buf[body - 8..body].copy_from_slice(&plen.to_le_bytes());
    let sum = checksum64(&buf[body..]);
    buf.put_u64_le(sum);
}

/// Opens an envelope written by [`seal_envelope`] (or
/// [`seal_envelope_into`]) and returns its verified payload as a slice of
/// the input, copying nothing: a decoder reads its fields straight off
/// the bytes it was handed. The whole input must be one envelope
/// (trailing bytes are rejected); all length arithmetic is checked, so no
/// input can panic — the guarantee every codec built on this inherits.
///
/// # Errors
/// Returns the [`EnvelopeError`] naming what failed: wrong magic or
/// version, a truncation point, a checksum mismatch, or trailing bytes.
pub fn envelope_payload<'a>(
    magic: &[u8; 4],
    version: u16,
    bytes: &'a [u8],
) -> Result<&'a [u8], EnvelopeError> {
    let Some((header, rest)) = bytes.split_at_checked(ENVELOPE_HEADER_LEN) else {
        return Err(EnvelopeError::Truncated("header"));
    };
    if &header[..4] != magic {
        return Err(EnvelopeError::BadMagic);
    }
    let found_version = u16::from_le_bytes([header[4], header[5]]);
    if found_version != version {
        return Err(EnvelopeError::BadVersion(found_version));
    }
    let plen = u64::from_le_bytes(header[6..].try_into().expect("8 length bytes"));
    // Checked arithmetic: a crafted plen near u64::MAX must fail the
    // guard, not wrap it.
    if plen.checked_add(8).is_none_or(|need| (rest.len() as u64) < need) {
        return Err(EnvelopeError::Truncated("payload"));
    }
    let (payload, tail) = rest.split_at(plen as usize);
    if tail.len() != 8 {
        return Err(EnvelopeError::TrailingBytes);
    }
    if checksum64(payload) != u64::from_le_bytes(tail.try_into().expect("8 checksum bytes")) {
        return Err(EnvelopeError::ChecksumMismatch);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 4] = b"TEST";

    #[test]
    fn checksum64_is_stable() {
        // FNV-1a 64 reference values.
        assert_eq!(checksum64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(checksum64(b"ab"), checksum64(b"ba"));
    }

    #[test]
    fn seal_open_roundtrips() {
        let payload = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let sealed = seal_envelope(MAGIC, 7, payload.clone());
        assert_eq!(sealed.len(), payload.len() + ENVELOPE_OVERHEAD);
        let opened = envelope_payload(MAGIC, 7, &sealed).expect("valid envelope");
        assert_eq!(opened, &payload[..]);
        let mut trailing = sealed.to_vec();
        trailing.push(0);
        assert_eq!(envelope_payload(MAGIC, 7, &trailing), Err(EnvelopeError::TrailingBytes));
    }

    #[test]
    fn sealing_in_place_appends_the_same_bytes_and_borrowed_opening_agrees() {
        let payloads: [&[u8]; 3] = [b"", b"x", &[7u8; 300]];
        let mut run = BytesMut::new();
        let mut expected = Vec::new();
        for payload in payloads {
            seal_envelope_into(MAGIC, 3, &mut run, |buf| buf.put_slice(payload));
            let sealed = seal_envelope(MAGIC, 3, Bytes::from(payload));
            assert_eq!(envelope_payload(MAGIC, 3, &sealed), Ok(payload));
            expected.extend_from_slice(&sealed);
        }
        assert_eq!(run.to_vec(), expected);
    }

    #[test]
    fn header_mismatches_are_typed() {
        let sealed = seal_envelope(MAGIC, 7, Bytes::from(vec![9u8; 3]));
        assert_eq!(envelope_payload(b"XXXX", 7, &sealed), Err(EnvelopeError::BadMagic));
        assert_eq!(envelope_payload(MAGIC, 8, &sealed), Err(EnvelopeError::BadVersion(7)));
    }

    #[test]
    fn every_truncation_is_an_error() {
        let sealed = seal_envelope(MAGIC, 1, Bytes::from(vec![0xABu8; 9])).to_vec();
        for cut in 0..sealed.len() {
            assert!(envelope_payload(MAGIC, 1, &sealed[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn crafted_huge_length_fails_instead_of_wrapping() {
        let mut raw = Vec::new();
        raw.extend_from_slice(MAGIC);
        raw.extend_from_slice(&1u16.to_le_bytes());
        raw.extend_from_slice(&u64::MAX.to_le_bytes());
        raw.extend_from_slice(&[0u8; 16]);
        assert_eq!(envelope_payload(MAGIC, 1, &raw), Err(EnvelopeError::Truncated("payload")));
    }
}
